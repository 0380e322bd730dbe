// Versioned binary checkpoint of a running simulation (DESIGN.md Sec. 15).
//
// One field list (CheckpointAccess::transfer) describes the format: save
// runs it writing, load runs it reading and validating every index, enum,
// flag and count as it decodes. It opens with an identity block -- the
// config the restoring simulator must have been built with (cluster shape,
// scheme, seed, thermal/sleep/battery config, wind presence, a digest of
// the fault plan), compared and never restored -- then the primary state:
// the event heap's descriptors in raw vector order, every task's progress,
// the waiting/running bookkeeping, meter + battery accumulators, fault,
// thermal and sleep state, and the one placement RNG stream. Derived state
// (SoA matcher columns, idle orderings, rank bitsets, power tables, the
// Knowledge quarantine rebuilt from the failed set) is recomputed on load;
// the heap then goes back verbatim, so the resumed pop order is the
// uninterrupted run's: run -> checkpoint -> restore -> run equals the
// uninterrupted run on the full SimResult, bitwise (tests/test_checkpoint).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace iscope {

class DatacenterSim;
class ShardedSim;

/// A checkpoint file that cannot be restored into this process: bad magic,
/// an unsupported format version, or an identity mismatch (a simulator
/// built from a different configuration). Truncated or corrupt payloads
/// are also folded into this type so callers handle one failure mode.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error(what) {}
};

/// "ISCK" little-endian.
inline constexpr std::uint32_t kCheckpointMagic = 0x4b435349u;
/// v4: the matcher-mode identity is the incremental flag alone (the
/// reference-matcher flag is gone).
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// The one sanctioned door into the simulators' private state. Only the
/// checkpoint codec (checkpoint.cpp) defines these.
struct CheckpointAccess {
  static void save(const DatacenterSim& sim, serial::Writer& w);
  static void load(DatacenterSim& sim, serial::Reader& r);
  static void save(const ShardedSim& sim, serial::Writer& w);
  static void load(ShardedSim& sim, serial::Reader& r);

 private:
  struct Heap;
  /// The field lists, run by save() and load() alike (checkpoint.cpp).
  template <class Io, class Sim>
  static void transfer(Io& io, Sim& sim, Heap& heap);
  template <class Io, class Sim>
  static void transfer_shards(Io& io, Sim& sim);
};

/// Serialize a full checkpoint (magic + version + body).
std::vector<std::uint8_t> checkpoint_bytes(const DatacenterSim& sim);
std::vector<std::uint8_t> checkpoint_bytes(const ShardedSim& sim);

/// Restore a simulator from checkpoint bytes. The simulator must have been
/// constructed with the same configuration it was checkpointed under.
/// Throws CheckpointError on bad magic, version skew, identity mismatch, or
/// a truncated/corrupt payload.
void restore_from_bytes(DatacenterSim& sim, const std::uint8_t* data,
                        std::size_t size);
void restore_from_bytes(ShardedSim& sim, const std::uint8_t* data,
                        std::size_t size);

/// Atomic, durable file write / whole-file read. The write goes to a temp
/// file that is fsync'd and closed before it is renamed over `path`, and
/// the parent directory is fsync'd after the rename, so a crash or power
/// loss leaves either the previous checkpoint or the new one.
void write_checkpoint(const std::string& path,
                      const std::vector<std::uint8_t>& blob);
std::vector<std::uint8_t> read_checkpoint(const std::string& path);

}  // namespace iscope
