// Versioned binary checkpoint of a running simulation (DESIGN.md Sec. 15).
//
// A checkpoint captures everything the next event needs and nothing it can
// recompute: the event heap's descriptors in raw vector order (restored
// verbatim once their index payloads are checked against the restored
// state -- no re-heapify -- so the resumed pop order is bit-identical and
// DatacenterSim::dispatch runs them like live events), every task's
// progress, the waiting/running bookkeeping, energy meter + battery
// accumulators, fault state, and the placement RNG stream. Derived state
// (SoA matcher columns, idle orderings, rank bitsets, per-task power
// tables, Knowledge quarantine) is rebuilt on restore from the saved
// primary state, and the incremental-rematch cache is invalidated -- PR 8's
// equivalence suite guarantees the forced full re-solve is bit-identical.
//
// The restoring process must construct the simulator with the same
// configuration (cluster, scheme, supply, seed, fault plan) it was
// checkpointed under; an identity block guards the obvious mismatches.
// Resume determinism: run-to-completion == run / checkpoint / restore / run
// on the full SimResult, bitwise (tests/test_checkpoint.cpp).
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
/// a format version this build does not speak, or an identity mismatch
/// (different cluster size, scheme, or seed). Truncated or corrupt payloads
/// are also folded into this type so callers handle one failure mode.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error(what) {}
};

/// "ISCK" little-endian.
inline constexpr std::uint32_t kCheckpointMagic = 0x4b435349u;
inline constexpr std::uint32_t kCheckpointVersion = 2;  ///< v2: thermal + sleep

/// The one sanctioned door into the simulators' private state. Only the
/// checkpoint codec (checkpoint.cpp) defines these.
struct CheckpointAccess {
  static void save(const DatacenterSim& sim, serial::Writer& w);
  static void load(DatacenterSim& sim, serial::Reader& r);
  static void save(const ShardedSim& sim, serial::Writer& w);
  static void load(ShardedSim& sim, serial::Reader& r);
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

/// Atomic file write (temp file + rename) / whole-file read.
void write_checkpoint(const std::string& path,
                      const std::vector<std::uint8_t>& blob);
std::vector<std::uint8_t> read_checkpoint(const std::string& path);

}  // namespace iscope
