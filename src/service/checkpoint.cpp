#include "service/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace iscope {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// kNone is not representable losslessly through u64 on 32-bit size_t, so
/// it gets a dedicated sentinel on the wire.
constexpr std::uint64_t kNoneWire = ~std::uint64_t{0};
/// Hard element-count ceiling for every vector header in a checkpoint.
/// Generous (a simulation this large would not fit a checkpoint anyway)
/// but finite: a corrupt count fails in Reader::count, never in a resize.
constexpr std::size_t kMaxElems = std::size_t{1} << 28;

[[noreturn]] void out_of_range(const char* what) {
  throw CheckpointError(std::string("checkpoint: ") + what + " out of range");
}

// Each C++ field type has one wire type: bool, byte and enum fields travel
// as u8, other integers as u64, doubles and typed quantities as f64.
double quantity_value(Watts q) { return q.watts(); }
double quantity_value(Joules q) { return q.joules(); }
double quantity_value(Seconds q) { return q.seconds(); }

/// The resolved fault plan is rebuilt from the config, so the identity
/// block carries a digest of it: the crash/repair schedule, every
/// processor's mis-profile latency and the retry budget.
std::uint64_t fault_plan_digest(const FaultPlan& plan, std::size_t procs) {
  std::uint64_t h = splitmix64(plan.max_retries());
  const auto mix = [&h](std::uint64_t v) { h = splitmix64(h ^ v); };
  for (const FaultEvent& e : plan.events()) {
    mix(std::bit_cast<std::uint64_t>(e.time_s));
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.proc);
  }
  for (std::size_t p = 0; p < procs; ++p)
    mix(std::bit_cast<std::uint64_t>(plan.misprofile_latency_s(p)));
  return h;
}

/// The save side of a field list: every primitive writes its fields. The
/// limits and names exist for the load side.
class SaveIo {
 public:
  static constexpr bool kLoading = false;
  explicit SaveIo(serial::Writer& w) : w_(w) {}

  template <class... T>
  void field(const T&... v) { (put(v), ...); }
  /// Identity: written here, compared (never restored) on load.
  template <class... T>
  void same(const char*, const T&... v) { (put(v), ...); }
  template <class T, class Lo, class Hi>
  void bounded(const T& v, Lo, Hi, const char*) { put(v); }
  /// An index below the limit; index_or_none also admits kNone.
  void index(std::size_t v, std::size_t, const char*) { w_.u64(v); }
  void index_or_none(std::size_t v, std::size_t, const char*) {
    w_.u64(v == kNone ? kNoneWire : v);
  }
  void count(std::size_t n, std::size_t) { w_.u64(n); }
  /// `n` elements without a count prefix, each through `fn`.
  template <class T, class Fn>
  void array(const std::vector<T>& v, std::size_t n, Fn fn) {
    ISCOPE_CHECK(v.size() == n, "checkpoint: state saved before prepare()");
    for (const T& x : v) fn(x);
  }
  /// A count (at most `cap`), then that many elements.
  template <class T, class Fn>
  void list(const std::vector<T>& v, std::size_t cap, Fn fn) {
    count(v.size(), cap);
    array(v, v.size(), fn);
  }
  void sim(const DatacenterSim& s) { CheckpointAccess::save(s, w_); }

 private:
  template <class T>
  void put(const T& v) {
    // Enums travel as one byte, so every byte a load reads is a value of
    // the type until bounded() range-checks it.
    static_assert(!std::is_enum_v<T> || sizeof(T) == 1);
    if constexpr (std::is_same_v<T, bool>) w_.b(v);
    else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>)
      w_.u8(static_cast<std::uint8_t>(v));
    else if constexpr (std::is_integral_v<T>)
      w_.u64(static_cast<std::uint64_t>(v));
    else if constexpr (std::is_same_v<T, double>) w_.f64(v);
    else if constexpr (std::is_same_v<T, std::string>) w_.str(v);
    else w_.f64(quantity_value(v));
  }
  serial::Writer& w_;
};

/// The load side: every primitive reads its fields and validates them
/// before anything downstream can index with them.
class LoadIo {
 public:
  static constexpr bool kLoading = true;
  explicit LoadIo(serial::Reader& r) : r_(r) {}

  template <class... T>
  void field(T&... v) { ((v = get<T>()), ...); }
  template <class... T>
  void same(const char* what, const T&... v) {
    if (!((get<T>() == v) && ...))
      throw CheckpointError(
          std::string("checkpoint: identity mismatch -- the restoring "
                      "simulator was built with a different ") +
          what);
  }
  template <class T, class Lo, class Hi>
  void bounded(T& v, Lo lo, Hi hi, const char* what) {
    v = get<T>();
    const auto x = static_cast<std::uint64_t>(v);
    if (x < static_cast<std::uint64_t>(lo) ||
        x > static_cast<std::uint64_t>(hi))
      out_of_range(what);
  }
  void index(std::size_t& v, std::size_t limit, const char* what) {
    index_or_none(v, limit, what);
    if (v == kNone) out_of_range(what);
  }
  void index_or_none(std::size_t& v, std::size_t limit, const char* what) {
    const std::uint64_t x = r_.u64();
    if (x != kNoneWire && x >= limit) out_of_range(what);
    v = x == kNoneWire ? kNone : static_cast<std::size_t>(x);
  }
  /// Every element takes at least one byte, so a count past the bytes
  /// left is a lie: it fails here, before anything is reserved for it.
  void count(std::size_t& n, std::size_t cap) {
    n = r_.count(std::min(cap, r_.remaining()));
  }
  /// Elements are appended as they decode, so memory tracks the bytes
  /// actually read.
  template <class T, class Fn>
  void array(std::vector<T>& v, std::size_t n, Fn fn) {
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      T x{};
      fn(x);
      v.push_back(std::move(x));
    }
  }
  template <class T, class Fn>
  void list(std::vector<T>& v, std::size_t cap, Fn fn) {
    std::size_t n = 0;
    count(n, cap);
    array(v, n, fn);
  }
  void sim(DatacenterSim& s) { CheckpointAccess::load(s, r_); }

 private:
  template <class T>
  T get() {
    if constexpr (std::is_same_v<T, bool>) return r_.b();
    else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>)
      return static_cast<T>(r_.u8());
    else if constexpr (std::is_integral_v<T>) return static_cast<T>(r_.u64());
    else if constexpr (std::is_same_v<T, double>) return r_.f64();
    else if constexpr (std::is_same_v<T, std::string>) return r_.str();
    else return T{r_.f64()};
  }
  serial::Reader& r_;
};

}  // namespace

// ---------------------------------------------------------------------------
// DatacenterSim
// ---------------------------------------------------------------------------

/// The event heap in raw vector order: load() installs it last, once every
/// payload index has been checked against the restored state.
struct CheckpointAccess::Heap {
  double now = 0.0;
  std::uint64_t next_seq = 0;
  std::size_t high_water = 0;
  std::vector<SavedEvent> events;
};

template <class Io, class Sim>
void CheckpointAccess::transfer(Io& io, Sim& s, Heap& heap) {
  using Kind = EventDesc::Kind;
  using TaskState = DatacenterSim::TaskState;
  const std::size_t nprocs = s.knowledge_->procs();
  const std::size_t levels = s.knowledge_->levels();
  const SimConfig& cfg = s.config_;

  // Identity block: compared on load, never restored. A restore into a
  // simulator built from a different configuration would diverge silently.
  io.same("cluster shape (processors, DVFS levels)", nprocs, levels);
  io.same("placement rule", s.policy_.rule());
  io.same("seed", cfg.seed);
  io.same("fault plan", s.plan_->events().size(),
          fault_plan_digest(*s.plan_, nprocs));
  io.same("matcher mode", cfg.incremental_rematch);
  io.same("recording mode", cfg.record_trace, cfg.record_timeline);
  io.same("epoch or sample period", cfg.epoch_s, cfg.sample_interval_s);
  const auto& th = cfg.thermal;
  io.same("thermal configuration", th.enabled, th.red_line_c,
          th.min_supply_c, th.max_supply_c, th.self_coupling_k_per_w,
          th.row_decay_racks, th.cross_row_coupling, th.cross_row_decay_rows);
  io.same("sleep configuration", cfg.sleep.policy, cfg.sleep.timeout_s,
          cfg.sleep.active_idle_frac);
  for (const SleepState& st : cfg.sleep.states)
    io.same("sleep-state ladder", st.idle_frac, st.wake_s);
  io.same("thermal coordination mode", s.thermal_external_);
  const BatteryConfig& bat = cfg.battery;
  io.same("battery configuration", bat.capacity, bat.max_charge,
          bat.max_discharge, bat.charge_efficiency, bat.discharge_efficiency,
          bat.initial_soc);
  io.same("wind supply", s.supply_->has_wind());

  io.field(heap.now, heap.next_seq, heap.high_water);
  io.list(heap.events, kMaxElems, [&io](auto& e) {
    io.field(e.time, e.seq);
    io.bounded(e.desc.kind, Kind::kArrival, Kind::kWake, "event kind");
    io.field(e.desc.a, e.desc.b, e.desc.t);
  });

  // Tasks. `col` and `latest_start_s` are derived and rebuilt by load().
  const auto plain = [&io](auto& x) { io.field(x); };
  const auto procs = [&io, nprocs](auto& v, const char* what) {
    io.list(v, nprocs, [&](auto& p) { io.index(p, nprocs, what); });
  };
  std::size_t n_tasks = s.tasks_.size();
  io.count(n_tasks, kMaxElems);
  io.array(s.tasks_, n_tasks, [&](auto& t) {
    io.field(t.spec.id, t.spec.submit_s);
    io.bounded(t.spec.cpus, 1, nprocs, "task width");
    io.field(t.spec.runtime_s, t.spec.gamma, t.spec.deadline_s);
    io.bounded(t.spec.urgency, Urgency::kHigh, Urgency::kLow, "task urgency");
    procs(t.procs, "task processor");
    io.field(t.remaining_work_s, t.last_update_s);
    io.index(t.level, levels, "task level");
    io.field(t.start_s, t.version, t.completion_scheduled);
    io.index_or_none(t.run_prev, n_tasks, "run-list link");
    io.index_or_none(t.run_next, n_tasks, "run-list link");
    io.bounded(t.state, TaskState::kPending, TaskState::kWaking, "task state");
    io.field(t.retries);
  });

  io.list(s.waiting_, n_tasks,
          [&](auto& i) { io.index(i, n_tasks, "waiting task"); });
  io.field(s.waiting_cpus_);
  io.array(s.proc_running_, nprocs,
           [&](auto& i) { io.index_or_none(i, n_tasks, "running task"); });
  io.array(s.busy_time_s_, nprocs, plain);
  io.array(s.idle_flags_, nprocs,
           [&io](auto& f) { io.bounded(f, 0, 1, "idle flag"); });
  io.field(s.idle_count_);
  io.index_or_none(s.run_head_, n_tasks, "run-list head");
  io.index_or_none(s.run_tail_, n_tasks, "run-list tail");
  io.bounded(s.run_count_, 0, n_tasks, "running count");

  // Profiling: the plan, the live-scan slots, and the counters.
  io.array(s.reserved_, nprocs, plain);
  io.field(s.reserved_power_, s.profiling_proc_seconds_,
           s.profiling_procs_scanned_, s.profiling_procs_skipped_);
  io.list(s.profiling_, kMaxElems, [&](auto& win) {
    io.field(win.start_s, win.duration_s);
    procs(win.proc_ids, "profiling processor");
  });
  io.list(s.scans_, kMaxElems, [&](auto& scan) {
    procs(scan.procs, "scan processor");
    io.field(scan.started_s, scan.live);
  });
  io.field(s.epoch_chain_live_, s.sample_chain_live_);

  // Energy accounting. The meter and the battery keep their accumulators
  // behind accessors, so load stages them for restore_state().
  EnergySplit total = s.meter_.total();
  Joules curtailed = s.meter_.wind_curtailed();
  io.field(total.wind, total.utility, curtailed);
  const auto sample = [&io](auto& p) {
    io.field(p.time, p.demand, p.wind, p.utility, p.wind_avail, p.battery);
  };
  std::vector<PowerSample> trace;
  if constexpr (Io::kLoading)
    io.list(trace, kMaxElems, sample);
  else
    io.list(s.meter_.trace(), kMaxElems, sample);
  Joules stored = s.battery_.stored();
  Joules delivered = s.battery_.delivered();
  Joules absorbed = s.battery_.absorbed();
  io.field(stored, delivered, absorbed);
  if constexpr (Io::kLoading) {
    s.meter_.restore_state(total, curtailed, std::move(trace));
    s.battery_ = BatteryBank(cfg.battery);
    s.battery_.restore_state(stored, delivered, absorbed);
  }
  io.field(s.demand_, s.last_accrual_s_, s.segment_wind_);

  // Run metrics.
  io.field(s.done_count_, s.events_run_, s.rematch_count_, s.total_wait_s_,
           s.miss_count_, s.makespan_s_, s.rush_mode_);
  io.list(s.timeline_, kMaxElems, [&io](auto& e) {
    io.field(e.time_s);
    io.bounded(e.kind, TimelineKind::kArrival, TimelineKind::kTaskWaking,
               "timeline kind");
    io.field(e.task_id, e.value);
  });

  // Fault state. The plan itself is identity (rebuilt from the config);
  // the pending kFault event carries the cursor.
  io.array(s.failed_, nprocs,
           [&io](auto& f) { io.bounded(f, 0, 1, "failed flag"); });
  io.array(s.misprofile_armed_, nprocs,
           [&io](auto& f) { io.bounded(f, 0, 1, "misprofile flag"); });
  io.array(s.misprofile_token_, nprocs, plain);
  auto& fc = s.fault_counters_;
  io.field(s.failed_count_, fc.cpu_failures, fc.cpu_repairs,
           fc.misprofile_failures, fc.task_requeues, fc.tasks_failed,
           fc.lost_cpu_seconds, fc.fault_deadline_misses);

  // Thermal + sleep state: all zeros when both subsystems are off, so the
  // layout never depends on the config.
  io.field(s.thermal_chain_live_, s.cop_now_, s.supply_c_now_,
           s.peak_inlet_c_, s.thermal_pending_, s.pending_cop_,
           s.pending_supply_c_, s.pending_peak_c_, s.last_compute_,
           s.cooling_power_, s.cooling_joules_, s.idle_joules_,
           s.idle_power_w_);
  io.array(s.sleep_state_, nprocs, [&](auto& depth) {
    io.bounded(depth, 0, cfg.sleep.states.size(), "sleep depth");
  });
  io.array(s.sleep_token_, nprocs, plain);
  io.field(s.sleeping_count_, s.sleep_enters_, s.sleep_wakes_);

  // The placement RNG stream (only kRandom draws from it; saving it
  // unconditionally keeps the layout scheme-independent).
  std::string rng = Io::kLoading ? std::string() : s.policy_.rng_state();
  io.field(rng);
  if constexpr (Io::kLoading) s.policy_.set_rng_state(rng);
}

void CheckpointAccess::save(const DatacenterSim& s, serial::Writer& w) {
  SaveIo io(w);
  Heap heap{s.queue_.now(), s.queue_.next_seq(), s.queue_.high_water(),
            s.queue_.save_events()};
  transfer(io, s, heap);
}

void CheckpointAccess::load(DatacenterSim& s, serial::Reader& r) {
  LoadIo io(r);
  Heap heap;
  transfer(io, s, heap);

  // ---- derived-state rebuild --------------------------------------------

  const double fmax = s.fmax_ghz();
  for (DatacenterSim::SimTask& t : s.tasks_)
    t.latest_start_s = t.spec.latest_start_s(fmax, fmax);

  // Validate what the shared builder trusts: the fault state needs a
  // Knowledge it can quarantine, and the running list must be an acyclic
  // chain of exactly run_count_ running tasks.
  if (s.faults_active_ && s.knowledge_mut_ == nullptr)
    throw CheckpointError(
        "checkpoint: fault state needs the mutable-Knowledge constructor");
  std::size_t walked = 0;
  for (std::size_t idx = s.run_head_; idx != kNone;
       idx = s.tasks_[idx].run_next) {
    if (++walked > s.tasks_.size())
      throw CheckpointError("checkpoint: running list is cyclic");
    if (s.tasks_[idx].state != DatacenterSim::TaskState::kRunning)
      throw CheckpointError("checkpoint: run list holds a non-running task");
  }
  if (walked != s.run_count_)
    throw CheckpointError("checkpoint: run-list walk does not match count");
  // The saved run's knowledge_gen_ may have *lagged* its view when no
  // rematch ran after a quarantine -- unobservable, because stale power
  // rows are only ever read after the generation-refresh at the top of
  // rematch(), which rewrites them with exactly the values rebuilt here.
  s.rebuild_derived_state();

  // Install the event heap last: its payloads index into the state above,
  // so every index is checked against that state first. The descriptors
  // then go in verbatim (no re-heapify), so the resumed pop order is the
  // uninterrupted run's.
  const std::size_t nprocs = s.knowledge_->procs();
  for (const SavedEvent& e : heap.events) {
    using Kind = EventDesc::Kind;
    const auto check = [&e](std::size_t limit, const char* what) {
      if (e.desc.a >= limit) out_of_range(what);
    };
    switch (e.desc.kind) {
      case Kind::kArrival: check(s.tasks_.size(), "arrival task"); break;
      case Kind::kCompletion: check(s.tasks_.size(), "completion task"); break;
      case Kind::kWake: check(s.tasks_.size(), "waking task"); break;
      case Kind::kProfilingBegin:
        check(s.profiling_.size(), "profiling window");
        break;
      case Kind::kProfilingEnd: check(s.scans_.size(), "scan slot"); break;
      case Kind::kFault: check(s.plan_->events().size(), "fault cursor"); break;
      case Kind::kMisprofileTimer: check(nprocs, "misprofile proc"); break;
      case Kind::kMisprofileRepair: check(nprocs, "repair proc"); break;
      case Kind::kSleepEnter: check(nprocs, "sleeping proc"); break;
      case Kind::kPass:
      case Kind::kEpoch:
      case Kind::kSample:
      case Kind::kThermal:
        break;
    }
  }
  s.queue_.restore(heap.now, heap.next_seq, heap.high_water, heap.events);
}

// ---------------------------------------------------------------------------
// ShardedSim
// ---------------------------------------------------------------------------

template <class Io, class Sim>
void CheckpointAccess::transfer_shards(Io& io, Sim& s) {
  io.same("shard count", s.shards_.size());
  io.same("cluster size", s.cluster_->size());
  io.same("seed", s.config_.seed);
  io.field(s.barrier_);
  for (auto& shard : s.shards_) {
    double fraction = shard.supply->fraction();
    io.field(shard.tasks_assigned, fraction);
    if constexpr (Io::kLoading) shard.supply->set_fraction(fraction);
    io.sim(*shard.sim);
  }
}

void CheckpointAccess::save(const ShardedSim& s, serial::Writer& w) {
  SaveIo io(w);
  transfer_shards(io, s);
}

void CheckpointAccess::load(ShardedSim& s, serial::Reader& r) {
  LoadIo io(r);
  transfer_shards(io, s);
  s.ensure_pool();
}

// ---------------------------------------------------------------------------
// Envelope + file helpers
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint8_t kKindSingle = 0;
constexpr std::uint8_t kKindSharded = 1;

template <typename Sim>
std::vector<std::uint8_t> envelope(const Sim& sim, std::uint8_t kind) {
  serial::Writer w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u8(kind);
  CheckpointAccess::save(sim, w);
  return w.take();
}

template <typename Sim>
void restore_envelope(Sim& sim, const std::uint8_t* data, std::size_t size,
                      std::uint8_t kind) {
  try {
    serial::Reader r(data, size);
    if (r.u32() != kCheckpointMagic)
      throw CheckpointError("checkpoint: bad magic (not a checkpoint file)");
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion)
      throw CheckpointError("checkpoint: format version " +
                            std::to_string(version) +
                            " is not supported by this build (expected " +
                            std::to_string(kCheckpointVersion) + ")");
    if (r.u8() != kind)
      throw CheckpointError(
          "checkpoint: simulator kind mismatch (single vs sharded)");
    CheckpointAccess::load(sim, r);
    r.expect_done();
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    // Truncation and lying length prefixes surface as serial over-reads
    // (ParseError); corrupt-but-well-framed values can also trip deeper
    // invariant checks (e.g. Rng rejecting a mangled engine state). Fold
    // them all into the checkpoint failure type callers handle.
    throw CheckpointError(std::string("checkpoint: corrupt payload -- ") +
                          e.what());
  }
}

}  // namespace

std::vector<std::uint8_t> checkpoint_bytes(const DatacenterSim& sim) {
  return envelope(sim, kKindSingle);
}

std::vector<std::uint8_t> checkpoint_bytes(const ShardedSim& sim) {
  return envelope(sim, kKindSharded);
}

void restore_from_bytes(DatacenterSim& sim, const std::uint8_t* data,
                        std::size_t size) {
  restore_envelope(sim, data, size, kKindSingle);
}

void restore_from_bytes(ShardedSim& sim, const std::uint8_t* data,
                        std::size_t size) {
  restore_envelope(sim, data, size, kKindSharded);
}

void write_checkpoint(const std::string& path,
                      const std::vector<std::uint8_t>& blob) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  ISCOPE_CHECK_ARG(f != nullptr, "checkpoint: cannot open " + tmp);
  const std::size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  // The bytes must be on the device before the rename publishes them, or a
  // power loss could leave the new name pointing at a truncated file.
  const bool synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != blob.size() || !synced || !closed) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: short write to " + tmp);
  }
  // Atomic replace: a crash mid-write leaves the previous checkpoint.
  ISCOPE_CHECK_ARG(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "checkpoint: cannot rename " + tmp + " to " + path);
  // Sync the directory so the rename itself survives a power loss. A
  // filesystem that cannot sync directories reports EINVAL; there is
  // nothing more to do on it.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0              ? "/"
                                                    : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool dir_synced =
      dfd >= 0 && (::fsync(dfd) == 0 || errno == EINVAL);
  if (dfd >= 0) ::close(dfd);
  if (!dir_synced) throw Error("checkpoint: cannot sync directory " + dir);
}

std::vector<std::uint8_t> read_checkpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw CheckpointError("checkpoint: cannot open " + path);
  // Read to EOF rather than sizing with fseek/ftell: on some filesystems
  // ftell on a directory reports LONG_MAX, and a stream that cannot be
  // read (a directory, an I/O fault) must fail as a CheckpointError.
  std::vector<std::uint8_t> blob;
  std::uint8_t chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    blob.insert(blob.end(), chunk, chunk + got);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw CheckpointError("checkpoint: cannot read " + path);
  return blob;
}

}  // namespace iscope
