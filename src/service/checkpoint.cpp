#include "service/checkpoint.hpp"

#include <cstdio>
#include <utility>

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

std::uint64_t put_index(std::size_t v) { return v == kNone ? kNoneWire : v; }

std::size_t get_index(std::uint64_t v, std::size_t limit, const char* what) {
  if (v == kNoneWire) return kNone;
  if (v >= limit) throw CheckpointError(std::string("checkpoint: ") + what +
                                        " index out of range");
  return static_cast<std::size_t>(v);
}

void save_proc_vector(serial::Writer& w, const std::vector<std::size_t>& v) {
  w.u64(v.size());
  for (const std::size_t p : v) w.u64(p);
}

std::vector<std::size_t> load_proc_vector(serial::Reader& r, std::size_t nprocs,
                                          const char* what) {
  const std::size_t n = r.count(nprocs);
  std::vector<std::size_t> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(get_index(r.u64(), nprocs, what));
  return v;
}

void check_identity(bool ok, const char* what) {
  if (!ok)
    throw CheckpointError(
        std::string("checkpoint: identity mismatch -- the restoring "
                    "simulator was built with a different ") +
        what);
}

}  // namespace

// ---------------------------------------------------------------------------
// DatacenterSim
// ---------------------------------------------------------------------------

void CheckpointAccess::save(const DatacenterSim& s, serial::Writer& w) {
  const std::size_t nprocs = s.knowledge_->procs();
  const std::size_t levels = s.knowledge_->levels();

  // Identity block: not restored, only compared. The full construction
  // config is the restoring caller's responsibility; these catch the
  // mismatches that would otherwise corrupt silently.
  w.u64(nprocs);
  w.u64(levels);
  w.u8(static_cast<std::uint8_t>(s.policy_.rule()));
  w.u64(s.config_.seed);
  w.b(s.faults_active_);
  w.b(s.config_.use_reference_matcher);
  w.b(s.config_.incremental_rematch);
  w.b(s.config_.record_trace);
  w.b(s.config_.record_timeline);
  w.f64(s.config_.epoch_s);
  w.f64(s.config_.sample_interval_s);

  // Thermal + sleep identity (format v2). The configs shape event
  // semantics (COP curve, wake latencies), so a restore under different
  // knobs would diverge silently; all-defaults when both are off.
  w.b(s.config_.thermal.enabled);
  w.f64(s.config_.thermal.red_line_c);
  w.f64(s.config_.thermal.min_supply_c);
  w.f64(s.config_.thermal.max_supply_c);
  w.f64(s.config_.thermal.self_coupling_k_per_w);
  w.f64(s.config_.thermal.row_decay_racks);
  w.f64(s.config_.thermal.cross_row_coupling);
  w.f64(s.config_.thermal.cross_row_decay_rows);
  w.u8(static_cast<std::uint8_t>(s.config_.sleep.policy));
  w.f64(s.config_.sleep.timeout_s);
  w.f64(s.config_.sleep.active_idle_frac);
  for (const SleepState& st : s.config_.sleep.states) {
    w.f64(st.idle_frac);
    w.f64(st.wake_s);
  }
  w.b(s.thermal_external_);

  // Event queue: raw heap-vector order.
  const std::vector<SavedEvent> events = s.queue_.save_events();
  w.f64(s.queue_.now());
  w.u64(s.queue_.next_seq());
  w.u64(s.queue_.high_water());
  w.u64(events.size());
  for (const SavedEvent& e : events) {
    w.f64(e.time);
    w.u64(e.seq);
    w.u8(static_cast<std::uint8_t>(e.desc.kind));
    w.u64(e.desc.a);
    w.u64(e.desc.b);
    w.f64(e.desc.t);
  }

  // Tasks. `col` and `latest_start_s` are derived (SoA rebuild / pure
  // function of the spec) and not written.
  w.u64(s.tasks_.size());
  for (const DatacenterSim::SimTask& t : s.tasks_) {
    w.i64(t.spec.id);
    w.f64(t.spec.submit_s);
    w.u64(t.spec.cpus);
    w.f64(t.spec.runtime_s);
    w.f64(t.spec.gamma);
    w.f64(t.spec.deadline_s);
    w.u8(static_cast<std::uint8_t>(t.spec.urgency));
    save_proc_vector(w, t.procs);
    w.f64(t.remaining_work_s);
    w.f64(t.last_update_s);
    w.u64(t.level);
    w.f64(t.start_s);
    w.u64(t.version);
    w.b(t.completion_scheduled);
    w.u64(put_index(t.run_prev));
    w.u64(put_index(t.run_next));
    w.u8(static_cast<std::uint8_t>(t.state));
    w.u64(t.retries);
  }

  save_proc_vector(w, s.waiting_);
  w.u64(s.waiting_cpus_);
  for (const std::size_t v : s.proc_running_) w.u64(put_index(v));
  for (const double v : s.busy_time_s_) w.f64(v);
  for (const std::uint8_t v : s.idle_flags_) w.u8(v);
  w.u64(s.idle_count_);
  w.u64(put_index(s.run_head_));
  w.u64(put_index(s.run_tail_));
  w.u64(s.run_count_);

  // Profiling: the plan, the live-scan slots, and the counters.
  for (std::size_t p = 0; p < nprocs; ++p) w.b(s.reserved_[p]);
  w.f64(s.reserved_power_.watts());
  w.f64(s.profiling_proc_seconds_);
  w.u64(s.profiling_procs_scanned_);
  w.u64(s.profiling_procs_skipped_);
  w.u64(s.profiling_.size());
  for (const ProfilingWindow& win : s.profiling_) {
    w.f64(win.start_s);
    w.f64(win.duration_s);
    save_proc_vector(w, win.proc_ids);
  }
  w.u64(s.scans_.size());
  for (const DatacenterSim::ActiveScan& scan : s.scans_) {
    save_proc_vector(w, scan.procs);
    w.f64(scan.started_s);
    w.b(scan.live);
  }
  w.b(s.epoch_chain_live_);
  w.b(s.sample_chain_live_);

  // Energy accounting.
  w.f64(s.meter_.total().wind.joules());
  w.f64(s.meter_.total().utility.joules());
  w.f64(s.meter_.wind_curtailed().joules());
  w.u64(s.meter_.trace().size());
  for (const PowerSample& p : s.meter_.trace()) {
    w.f64(p.time.seconds());
    w.f64(p.demand.watts());
    w.f64(p.wind.watts());
    w.f64(p.utility.watts());
    w.f64(p.wind_avail.watts());
    w.f64(p.battery.watts());
  }
  w.f64(s.battery_.stored().joules());
  w.f64(s.battery_.delivered().joules());
  w.f64(s.battery_.absorbed().joules());
  w.f64(s.demand_.watts());
  w.f64(s.last_accrual_s_);
  w.f64(s.segment_wind_.watts());

  // Run metrics.
  w.u64(s.done_count_);
  w.u64(s.events_run_);
  w.u64(s.rematch_count_);
  w.f64(s.total_wait_s_);
  w.u64(s.miss_count_);
  w.f64(s.makespan_s_);
  w.b(s.rush_mode_);
  w.u64(s.timeline_.size());
  for (const TimelineEvent& e : s.timeline_) {
    w.f64(e.time_s);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.i64(e.task_id);
    w.f64(e.value);
  }

  // Fault state. The plan itself is identity (rebuilt from the config);
  // the pending kFault event carries the cursor.
  for (std::size_t p = 0; p < nprocs; ++p) w.u8(s.failed_[p]);
  for (std::size_t p = 0; p < nprocs; ++p) w.u8(s.misprofile_armed_[p]);
  for (std::size_t p = 0; p < nprocs; ++p) w.u64(s.misprofile_token_[p]);
  w.u64(s.failed_count_);
  w.u64(s.fault_counters_.cpu_failures);
  w.u64(s.fault_counters_.cpu_repairs);
  w.u64(s.fault_counters_.misprofile_failures);
  w.u64(s.fault_counters_.task_requeues);
  w.u64(s.fault_counters_.tasks_failed);
  w.f64(s.fault_counters_.lost_cpu_seconds);
  w.u64(s.fault_counters_.fault_deadline_misses);

  // Thermal + sleep state (format v2). Written unconditionally -- all
  // zeros when both subsystems are off -- so the frame layout never
  // depends on the config.
  w.b(s.thermal_chain_live_);
  w.f64(s.cop_now_);
  w.f64(s.supply_c_now_);
  w.f64(s.peak_inlet_c_);
  w.b(s.thermal_pending_);
  w.f64(s.pending_cop_);
  w.f64(s.pending_supply_c_);
  w.f64(s.pending_peak_c_);
  w.f64(s.last_compute_.watts());
  w.f64(s.cooling_power_.watts());
  w.f64(s.cooling_joules_);
  w.f64(s.idle_joules_);
  w.f64(s.idle_power_w_);
  for (std::size_t p = 0; p < nprocs; ++p)
    w.u8(p < s.sleep_state_.size() ? s.sleep_state_[p] : std::uint8_t{0});
  for (std::size_t p = 0; p < nprocs; ++p)
    w.u64(p < s.sleep_token_.size() ? s.sleep_token_[p] : 0);
  w.u64(s.sleeping_count_);
  w.u64(s.sleep_enters_);
  w.u64(s.sleep_wakes_);

  // The placement RNG stream (only kRandom ever draws from it, but saving
  // it unconditionally keeps the format scheme-independent).
  w.str(s.policy_.rng_state());
}

void CheckpointAccess::load(DatacenterSim& s, serial::Reader& r) {
  const std::size_t nprocs = s.knowledge_->procs();
  const std::size_t levels = s.knowledge_->levels();

  check_identity(r.u64() == nprocs, "processor count");
  check_identity(r.u64() == levels, "DVFS level count");
  check_identity(r.u8() == static_cast<std::uint8_t>(s.policy_.rule()),
                 "placement rule");
  check_identity(r.u64() == s.config_.seed, "seed");
  check_identity(r.b() == s.faults_active_, "fault plan");
  check_identity(r.b() == s.config_.use_reference_matcher, "matcher path");
  check_identity(r.b() == s.config_.incremental_rematch, "rematch mode");
  check_identity(r.b() == s.config_.record_trace, "trace recording");
  check_identity(r.b() == s.config_.record_timeline, "timeline recording");
  check_identity(r.f64() == s.config_.epoch_s, "epoch period");
  check_identity(r.f64() == s.config_.sample_interval_s, "sample period");
  check_identity(r.b() == s.config_.thermal.enabled, "thermal mode");
  check_identity(r.f64() == s.config_.thermal.red_line_c,
                 "thermal red line");
  check_identity(r.f64() == s.config_.thermal.min_supply_c,
                 "thermal supply floor");
  check_identity(r.f64() == s.config_.thermal.max_supply_c,
                 "thermal supply ceiling");
  check_identity(r.f64() == s.config_.thermal.self_coupling_k_per_w,
                 "recirculation self-coupling");
  check_identity(r.f64() == s.config_.thermal.row_decay_racks,
                 "recirculation row decay");
  check_identity(r.f64() == s.config_.thermal.cross_row_coupling,
                 "recirculation cross-row coupling");
  check_identity(r.f64() == s.config_.thermal.cross_row_decay_rows,
                 "recirculation cross-row decay");
  check_identity(r.u8() == static_cast<std::uint8_t>(s.config_.sleep.policy),
                 "sleep policy");
  check_identity(r.f64() == s.config_.sleep.timeout_s, "sleep timeout");
  check_identity(r.f64() == s.config_.sleep.active_idle_frac,
                 "active-idle power fraction");
  for (const SleepState& st : s.config_.sleep.states) {
    check_identity(r.f64() == st.idle_frac, "sleep-state residency power");
    check_identity(r.f64() == st.wake_s, "sleep-state wake latency");
  }
  check_identity(r.b() == s.thermal_external_, "thermal coordination mode");

  // Stage the event snapshot; the queue is installed last, once the state
  // its payloads index into is in place.
  const double now = r.f64();
  const std::uint64_t next_seq = r.u64();
  const std::uint64_t high_water = r.u64();
  const std::size_t n_events = r.count(kMaxElems);
  std::vector<SavedEvent> events;
  events.reserve(n_events);
  for (std::size_t i = 0; i < n_events; ++i) {
    SavedEvent e;
    e.time = r.f64();
    e.seq = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind < static_cast<std::uint8_t>(EventDesc::Kind::kArrival) ||
        kind > static_cast<std::uint8_t>(EventDesc::Kind::kWake))
      throw CheckpointError("checkpoint: unknown event kind");
    e.desc.kind = static_cast<EventDesc::Kind>(kind);
    e.desc.a = r.u64();
    e.desc.b = r.u64();
    e.desc.t = r.f64();
    events.push_back(e);
  }

  const std::size_t n_tasks = r.count(kMaxElems);
  const double fmax = s.fmax_ghz();
  s.tasks_.clear();
  s.tasks_.reserve(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    DatacenterSim::SimTask t;
    t.spec.id = r.i64();
    t.spec.submit_s = r.f64();
    t.spec.cpus = static_cast<std::size_t>(r.u64());
    t.spec.runtime_s = r.f64();
    t.spec.gamma = r.f64();
    t.spec.deadline_s = r.f64();
    const std::uint8_t urgency = r.u8();
    if (urgency > static_cast<std::uint8_t>(Urgency::kLow))
      throw CheckpointError("checkpoint: bad task urgency");
    t.spec.urgency = static_cast<Urgency>(urgency);
    if (t.spec.cpus < 1 || t.spec.cpus > nprocs)
      throw CheckpointError("checkpoint: task width does not fit the cluster");
    t.procs = load_proc_vector(r, nprocs, "task processor");
    t.remaining_work_s = r.f64();
    t.last_update_s = r.f64();
    t.level = static_cast<std::size_t>(r.u64());
    if (t.level >= levels) throw CheckpointError("checkpoint: bad task level");
    t.start_s = r.f64();
    t.version = r.u64();
    t.completion_scheduled = r.b();
    t.run_prev = get_index(r.u64(), n_tasks, "run-list");
    t.run_next = get_index(r.u64(), n_tasks, "run-list");
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(DatacenterSim::TaskState::kWaking))
      throw CheckpointError("checkpoint: bad task state");
    t.state = static_cast<DatacenterSim::TaskState>(state);
    t.retries = static_cast<std::size_t>(r.u64());
    t.col = kNone;  // rebuilt below
    t.latest_start_s = t.spec.latest_start_s(fmax, fmax);
    s.tasks_.push_back(std::move(t));
  }

  {
    const std::size_t n = r.count(n_tasks);
    s.waiting_.clear();
    s.waiting_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      s.waiting_.push_back(get_index(r.u64(), n_tasks, "waiting task"));
  }
  s.waiting_cpus_ = static_cast<std::size_t>(r.u64());
  s.proc_running_.assign(nprocs, kNone);
  for (std::size_t p = 0; p < nprocs; ++p)
    s.proc_running_[p] = get_index(r.u64(), n_tasks, "running task");
  s.busy_time_s_.assign(nprocs, 0.0);
  for (std::size_t p = 0; p < nprocs; ++p) s.busy_time_s_[p] = r.f64();
  s.idle_flags_.assign(nprocs, 0);
  for (std::size_t p = 0; p < nprocs; ++p) {
    const std::uint8_t f = r.u8();
    if (f > 1) throw CheckpointError("checkpoint: bad idle flag");
    s.idle_flags_[p] = f;
  }
  s.idle_count_ = static_cast<std::size_t>(r.u64());
  s.run_head_ = get_index(r.u64(), n_tasks, "run-list head");
  s.run_tail_ = get_index(r.u64(), n_tasks, "run-list tail");
  s.run_count_ = static_cast<std::size_t>(r.u64());
  if (s.run_count_ > n_tasks)
    throw CheckpointError("checkpoint: running count exceeds task count");

  s.reserved_.assign(nprocs, false);
  for (std::size_t p = 0; p < nprocs; ++p) s.reserved_[p] = r.b();
  s.reserved_power_ = Watts{r.f64()};
  s.profiling_proc_seconds_ = r.f64();
  s.profiling_procs_scanned_ = static_cast<std::size_t>(r.u64());
  s.profiling_procs_skipped_ = static_cast<std::size_t>(r.u64());
  {
    const std::size_t n = r.count(kMaxElems);
    s.profiling_.clear();
    s.profiling_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ProfilingWindow win;
      win.start_s = r.f64();
      win.duration_s = r.f64();
      win.proc_ids = load_proc_vector(r, nprocs, "profiling processor");
      s.profiling_.push_back(std::move(win));
    }
  }
  {
    const std::size_t n = r.count(kMaxElems);
    s.scans_.clear();
    s.scans_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      DatacenterSim::ActiveScan scan;
      scan.procs = load_proc_vector(r, nprocs, "scan processor");
      scan.started_s = r.f64();
      scan.live = r.b();
      s.scans_.push_back(std::move(scan));
    }
  }
  s.epoch_chain_live_ = r.b();
  s.sample_chain_live_ = r.b();

  s.meter_.reset();
  {
    EnergySplit total;
    total.wind = Joules{r.f64()};
    total.utility = Joules{r.f64()};
    const Joules curtailed{r.f64()};
    const std::size_t n = r.count(kMaxElems);
    std::vector<PowerSample> trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      PowerSample p;
      p.time = Seconds{r.f64()};
      p.demand = Watts{r.f64()};
      p.wind = Watts{r.f64()};
      p.utility = Watts{r.f64()};
      p.wind_avail = Watts{r.f64()};
      p.battery = Watts{r.f64()};
      trace.push_back(p);
    }
    s.meter_.restore_state(total, curtailed, std::move(trace));
  }
  s.battery_ = BatteryBank(s.config_.battery);
  {
    const Joules stored{r.f64()};
    const Joules delivered{r.f64()};
    const Joules absorbed{r.f64()};
    s.battery_.restore_state(stored, delivered, absorbed);
  }
  s.demand_ = Watts{r.f64()};
  s.last_accrual_s_ = r.f64();
  s.segment_wind_ = Watts{r.f64()};

  s.done_count_ = static_cast<std::size_t>(r.u64());
  s.events_run_ = static_cast<std::size_t>(r.u64());
  s.rematch_count_ = static_cast<std::size_t>(r.u64());
  s.total_wait_s_ = r.f64();
  s.miss_count_ = static_cast<std::size_t>(r.u64());
  s.makespan_s_ = r.f64();
  s.in_pass_ = false;
  s.rush_mode_ = r.b();
  {
    const std::size_t n = r.count(kMaxElems);
    s.timeline_.clear();
    s.timeline_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      TimelineEvent e;
      e.time_s = r.f64();
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(TimelineKind::kTaskWaking))
        throw CheckpointError("checkpoint: bad timeline kind");
      e.kind = static_cast<TimelineKind>(kind);
      e.task_id = r.i64();
      e.value = r.f64();
      s.timeline_.push_back(e);
    }
  }

  s.failed_.assign(nprocs, 0);
  for (std::size_t p = 0; p < nprocs; ++p) {
    const std::uint8_t f = r.u8();
    if (f > 1) throw CheckpointError("checkpoint: bad failed flag");
    s.failed_[p] = f;
  }
  s.misprofile_armed_.assign(nprocs, 0);
  for (std::size_t p = 0; p < nprocs; ++p) {
    const std::uint8_t f = r.u8();
    if (f > 1) throw CheckpointError("checkpoint: bad misprofile flag");
    s.misprofile_armed_[p] = f;
  }
  s.misprofile_token_.assign(nprocs, 0);
  for (std::size_t p = 0; p < nprocs; ++p) s.misprofile_token_[p] = r.u64();
  s.failed_count_ = static_cast<std::size_t>(r.u64());
  s.fault_counters_ = FaultCounters{};
  s.fault_counters_.cpu_failures = static_cast<std::size_t>(r.u64());
  s.fault_counters_.cpu_repairs = static_cast<std::size_t>(r.u64());
  s.fault_counters_.misprofile_failures = static_cast<std::size_t>(r.u64());
  s.fault_counters_.task_requeues = static_cast<std::size_t>(r.u64());
  s.fault_counters_.tasks_failed = static_cast<std::size_t>(r.u64());
  s.fault_counters_.lost_cpu_seconds = r.f64();
  s.fault_counters_.fault_deadline_misses = static_cast<std::size_t>(r.u64());

  s.thermal_chain_live_ = r.b();
  s.cop_now_ = r.f64();
  s.supply_c_now_ = r.f64();
  s.peak_inlet_c_ = r.f64();
  s.thermal_pending_ = r.b();
  s.pending_cop_ = r.f64();
  s.pending_supply_c_ = r.f64();
  s.pending_peak_c_ = r.f64();
  s.last_compute_ = Watts{r.f64()};
  s.cooling_power_ = Watts{r.f64()};
  s.cooling_joules_ = r.f64();
  s.idle_joules_ = r.f64();
  s.idle_power_w_ = r.f64();
  s.sleep_state_.assign(nprocs, 0);
  for (std::size_t p = 0; p < nprocs; ++p) {
    const std::uint8_t depth = r.u8();
    if (depth > s.config_.sleep.states.size())
      throw CheckpointError("checkpoint: sleep depth beyond the ladder");
    s.sleep_state_[p] = depth;
  }
  s.sleep_token_.assign(nprocs, 0);
  for (std::size_t p = 0; p < nprocs; ++p) s.sleep_token_[p] = r.u64();
  s.sleeping_count_ = static_cast<std::size_t>(r.u64());
  s.sleep_enters_ = static_cast<std::size_t>(r.u64());
  s.sleep_wakes_ = static_cast<std::size_t>(r.u64());

  s.policy_.set_rng_state(r.str());

  // ---- derived-state rebuild --------------------------------------------

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
  const std::size_t task_count = s.tasks_.size();
  const std::size_t scan_count = s.scans_.size();
  const std::size_t window_count = s.profiling_.size();
  const std::size_t fault_count = s.plan_->events().size();
  for (const SavedEvent& e : events) {
    using Kind = EventDesc::Kind;
    const auto check = [&e](std::size_t limit, const char* what) {
      if (e.desc.a >= limit)
        throw CheckpointError(std::string("checkpoint: ") + what +
                              " index out of range");
    };
    switch (e.desc.kind) {
      case Kind::kArrival: check(task_count, "arrival task"); break;
      case Kind::kCompletion: check(task_count, "completion task"); break;
      case Kind::kWake: check(task_count, "waking task"); break;
      case Kind::kProfilingBegin:
        check(window_count, "profiling window");
        break;
      case Kind::kProfilingEnd: check(scan_count, "scan slot"); break;
      case Kind::kFault: check(fault_count, "fault cursor"); break;
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
  s.queue_.restore(now, next_seq, static_cast<std::size_t>(high_water),
                   events);
}

// ---------------------------------------------------------------------------
// ShardedSim
// ---------------------------------------------------------------------------

void CheckpointAccess::save(const ShardedSim& s, serial::Writer& w) {
  w.u64(s.shards_.size());
  w.u64(s.cluster_->size());
  w.u64(s.config_.seed);
  w.f64(s.barrier_);
  for (const ShardedSim::Shard& shard : s.shards_) {
    w.u64(shard.tasks_assigned);
    w.f64(shard.supply->fraction());
    save(*shard.sim, w);
  }
}

void CheckpointAccess::load(ShardedSim& s, serial::Reader& r) {
  check_identity(r.u64() == s.shards_.size(), "shard count");
  check_identity(r.u64() == s.cluster_->size(), "cluster size");
  check_identity(r.u64() == s.config_.seed, "seed");
  s.barrier_ = r.f64();
  for (ShardedSim::Shard& shard : s.shards_) {
    shard.tasks_assigned = static_cast<std::size_t>(r.u64());
    shard.supply->set_fraction(r.f64());
    load(*shard.sim, r);
  }
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
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != blob.size() || !flushed) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: short write to " + tmp);
  }
  // Atomic replace: a crash mid-write leaves the previous checkpoint.
  ISCOPE_CHECK_ARG(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "checkpoint: cannot rename " + tmp + " to " + path);
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
