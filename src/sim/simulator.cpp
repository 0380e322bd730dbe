#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/audit.hpp"
#include "sim/sharded.hpp"
#include "common/error.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace iscope {

void SimConfig::validate() const {
  ISCOPE_CHECK_ARG(cooling_cop > 0.0, "SimConfig: COP must be > 0");
  ISCOPE_CHECK_ARG(epoch_s > 0.0, "SimConfig: epoch must be > 0");
  ISCOPE_CHECK_ARG(sample_interval_s > 0.0, "SimConfig: sample interval > 0");
  ISCOPE_CHECK_ARG(wind_abundance_headroom >= 1.0,
                   "SimConfig: headroom must be >= 1");
  ISCOPE_CHECK_ARG(efficient_pool_fraction > 0.0 &&
                       efficient_pool_fraction <= 1.0,
                   "SimConfig: pool fraction must be in (0,1]");
  ISCOPE_CHECK_ARG(deadline_patience_s >= 0.0,
                   "SimConfig: negative deadline patience");
  ISCOPE_CHECK_ARG(max_events > 0, "SimConfig: max_events must be > 0");
  battery.validate();
  faults.validate();
  topology.validate();
  thermal.validate();
  sleep.validate();
}

void (*DatacenterSim::rematch_probe)(bool) = nullptr;

DatacenterSim::DatacenterSim(const Knowledge* knowledge, PlacementRule rule,
                             const HybridSupply* supply,
                             const SimConfig& config,
                             const WindForecaster* forecaster)
    : knowledge_(knowledge),
      supply_(supply),
      forecaster_(forecaster),
      config_(config),
      policy_(knowledge, rule, config.seed, config.efficient_pool_fraction),
      matcher_(knowledge, CoolingModel(config.cooling_cop).overhead_factor()),
      cooling_(config.cooling_cop) {
  ISCOPE_CHECK_ARG(knowledge != nullptr, "DatacenterSim: null knowledge");
  ISCOPE_CHECK_ARG(supply != nullptr, "DatacenterSim: null supply");
  config_.validate();
  const FreqLevels& levels = knowledge_->cluster().levels();
  const double fmax = levels.freq_ghz.back();
  slowdown_ratio_.reserve(levels.freq_ghz.size());
  for (const double f : levels.freq_ghz)
    slowdown_ratio_.push_back(fmax / f - 1.0);

  // Resolve the fault plan: explicit override > built from the spec > the
  // empty plan (whose run takes no fault branch at all).
  if (config_.fault_plan != nullptr) {
    plan_ = config_.fault_plan.get();
  } else {
    if (config_.faults.any())
      plan_local_ = FaultPlan::build(config_.faults, config_.fault_seed,
                                     knowledge_->procs());
    plan_ = &plan_local_;
  }
  faults_active_ = !plan_->sim_empty();
  if (faults_active_)
    ISCOPE_CHECK_ARG(plan_->procs_referenced() <= knowledge_->procs(),
                     "DatacenterSim: fault plan references processors beyond "
                     "the cluster");
  if (plan_->forecast_error() > 0.0 && forecaster_ != nullptr) {
    noisy_forecaster_ = std::make_unique<NoisyForecaster>(
        forecaster_, plan_->forecast_error(), plan_->forecast_seed());
    forecaster_ = noisy_forecaster_.get();
  }
}

DatacenterSim::DatacenterSim(Knowledge* knowledge, PlacementRule rule,
                             const HybridSupply* supply,
                             const SimConfig& config,
                             const WindForecaster* forecaster)
    : DatacenterSim(static_cast<const Knowledge*>(knowledge), rule, supply,
                    config, forecaster) {
  knowledge_mut_ = knowledge;
}

double DatacenterSim::fmax_ghz() const {
  return knowledge_->cluster().levels().freq_ghz.back();
}

bool DatacenterSim::wind_abundant_given(Watts wind) const {
  if (wind.raw() <= 0.0) return false;
  return wind > demand_ * config_.wind_abundance_headroom;
}

double DatacenterSim::latest_start(const SimTask& t) const {
  return t.latest_start_s;
}

void DatacenterSim::link_running(std::size_t idx) {
  SimTask& t = tasks_[idx];
  t.run_prev = run_tail_;
  t.run_next = kNone;
  if (run_tail_ == kNone)
    run_head_ = idx;
  else
    tasks_[run_tail_].run_next = idx;
  run_tail_ = idx;
  ++run_count_;
}

void DatacenterSim::unlink_running(std::size_t idx) {
  SimTask& t = tasks_[idx];
  if (t.run_prev == kNone)
    run_head_ = t.run_next;
  else
    tasks_[t.run_prev].run_next = t.run_next;
  if (t.run_next == kNone)
    run_tail_ = t.run_prev;
  else
    tasks_[t.run_next].run_prev = t.run_prev;
  t.run_prev = kNone;
  t.run_next = kNone;
  --run_count_;
}

void DatacenterSim::idle_insert(std::size_t p) {
  idle_flags_[p] = 1;
  ++idle_count_;
  if (sleep_active_) sleep_on_idle(p);
  const std::size_t r = rank_of_proc_[p];
  idle_rank_bits_[r >> 6] |= std::uint64_t{1} << (r & 63);
  if (maintain_idle_sorted_) {
    const auto it =
        std::lower_bound(idle_sorted_.begin(), idle_sorted_.end(), p);
    idle_sorted_.insert(it, p);
  }
  if (maintain_idle_by_busy_) {
    // Order by (busy time, id) -- the sort key of Fair's abundant-wind
    // partial_sort. Busy time only moves while a processor is running, so
    // entries keep their relative order for their whole idle stay.
    const double busy = busy_time_s_[p];
    const double* busy_all = busy_time_s_.data();
    const auto it = std::lower_bound(
        idle_by_busy_.begin(), idle_by_busy_.end(), p,
        [busy, busy_all](std::size_t a, std::size_t value) {
          if (busy_all[a] != busy) return busy_all[a] < busy;
          return a < value;
        });
    idle_by_busy_.insert(it, p);
  }
}

void DatacenterSim::idle_remove(std::size_t p) {
  ISCOPE_CHECK(idle_flags_[p] != 0, "idle_remove: processor not idle");
  idle_flags_[p] = 0;
  --idle_count_;
  if (sleep_active_) sleep_on_claim(p);
  const std::size_t r = rank_of_proc_[p];
  idle_rank_bits_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
  if (maintain_idle_sorted_) {
    const auto it =
        std::lower_bound(idle_sorted_.begin(), idle_sorted_.end(), p);
    ISCOPE_CHECK(it != idle_sorted_.end() && *it == p,
                 "idle_remove: processor not idle");
    idle_sorted_.erase(it);
  }
  if (maintain_idle_by_busy_) {
    const double busy = busy_time_s_[p];
    const double* busy_all = busy_time_s_.data();
    auto it = std::lower_bound(
        idle_by_busy_.begin(), idle_by_busy_.end(), p,
        [busy, busy_all](std::size_t a, std::size_t value) {
          if (busy_all[a] != busy) return busy_all[a] < busy;
          return a < value;
        });
    ISCOPE_CHECK(it != idle_by_busy_.end() && *it == p,
                 "idle_remove: processor not in the busy-ordered list");
    idle_by_busy_.erase(it);
  }
}

void DatacenterSim::cols_remove(std::size_t idx) {
  SimTask& t = tasks_[idx];
  const std::size_t row = t.col;
  ISCOPE_CHECK(row != kNone && row < cols_.count && cols_.task[row] == idx,
               "cols_remove: stale column row");
  cols_.remove(row);
  t.col = kNone;
  for (std::size_t r = row; r < cols_.count; ++r) tasks_[cols_.task[r]].col = r;
  inc_.invalidate();
}

void DatacenterSim::fill_power_table(std::size_t idx) {
  const std::size_t levels = knowledge_->levels();
  const SimTask& t = tasks_[idx];
  double* row = power_table_.data() + idx * levels;
  for (std::size_t l = 0; l < levels; ++l) {
    // Same summation order as the matcher's original O(procs) loop, so the
    // cached value is bit-identical to what it used to recompute per call.
    Watts p;
    for (const std::size_t id : t.procs) p += knowledge_->power(id, l);
    row[l] = p.raw();
  }
}

void DatacenterSim::accrue_to_now() {
  const double now = queue_.now();
  const Seconds dt{now - last_accrual_s_};
  if (dt.raw() > 0.0) {
    if (extras_active_) {
      // Breakdown accumulators (already inside demand_, so the meter's
      // totals are untouched): CRAC draw and idle/sleep residency burn.
      cooling_joules_ += cooling_power_.raw() * dt.raw();
      idle_joules_ += std::max(0.0, idle_power_w_) * dt.raw();
    }
    if (!battery_.present()) {
      meter_.accrue(demand_, segment_wind_, dt);
    } else {
      // Wind first; surplus charges the battery; deficits discharge it
      // before the utility steps in. Wind is paid at absorption (so the
      // round-trip losses land on the wind bill).
      const Watts wind_used = std::min(demand_, segment_wind_);
      const Watts surplus = segment_wind_ - wind_used;
      const Watts deficit = demand_ - wind_used;
      const Watts charged = battery_.charge(surplus, dt);
      const Watts delivered = battery_.discharge(deficit, dt);
      EnergySplit step;
      step.wind = (wind_used + charged) * dt;
      // max() guards the 1-ulp case where the battery's efficiency
      // round-trip delivers epsilon more than requested.
      step.utility = std::max(Joules{}, (deficit - delivered) * dt);
      // Conservation at the meter boundary: what the facility demanded is
      // what wind + battery + utility jointly supplied.
      ISCOPE_AUDIT_CHECK(
          audit::close(
              (wind_used * dt + delivered * dt + step.utility).joules(),
              (demand_ * dt).joules()),
          "battery accrual must conserve demanded energy");
      meter_.add_split(step, std::max(Joules{}, (surplus - charged) * dt));
    }
  }
  last_accrual_s_ = now;
  segment_wind_ = supply_->wind_available(Seconds{now});
}

void DatacenterSim::rematch() {
  ISCOPE_SPAN_SIM("rematch", queue_.now());
  if (rematch_probe != nullptr) rematch_probe(true);
  accrue_to_now();
  const double now = queue_.now();
  ++rematch_count_;

  // Power tables follow the Knowledge view; refresh them (and the derived
  // SoA rows) if it moved. New powers mean a new greedy trajectory, so the
  // incremental cache dies with the old generation.
  if (knowledge_->generation() != knowledge_gen_) {
    knowledge_gen_ = knowledge_->generation();
    const std::size_t levels = knowledge_->levels();
    for (std::size_t idx = run_head_; idx != kNone;
         idx = tasks_[idx].run_next) {
      fill_power_table(idx);
      cols_.refresh_power(tasks_[idx].col, power_table_.data() + idx * levels);
    }
    inc_.invalidate();
  }

  // Integrate progress of running tasks up to now at their current levels.
  for (std::size_t idx = run_head_; idx != kNone; idx = tasks_[idx].run_next) {
    SimTask& t = tasks_[idx];
    const double dt = now - t.last_update_s;
    if (dt > 0.0) {
      const double slowdown = level_slowdown(t);
      t.remaining_work_s = std::max(0.0, t.remaining_work_s - dt / slowdown);
    }
    t.last_update_s = now;
    cols_.remaining[t.col] = t.remaining_work_s;
  }

  // accrue_to_now() above refreshed segment_wind_ at this exact instant;
  // reuse it rather than querying the supply a second time.
  const Watts wind = segment_wind_;

  MatchResult match;
  if (rush_mode_) {
    // A deadline-forced task is starving for processors: run everything at
    // the top level to free CPUs as soon as possible, whatever the wind.
    // Levels are forced off the cached trajectory, so it dies.
    const std::size_t top = cols_.levels - 1;
    Watts compute;
    for (std::size_t r = 0; r < cols_.count; ++r) {
      cols_.level[r] = top;
      compute += Watts{cols_.power[r * cols_.levels + top]};
    }
    match.compute = compute;
    match.demand = compute * matcher_.cooling_factor();
    inc_.invalidate();
  } else if (config_.incremental_rematch &&
             matcher_.match_incremental(cols_, wind, now, match_scratch_, inc_,
                                        match)) {
    // Only the wind budget moved: the cached greedy trajectory replayed
    // exactly (bit-identical to the full solve below).
  } else {
    match = matcher_.match_columns(cols_, wind, now, match_scratch_,
                                   config_.incremental_rematch ? &inc_
                                                               : nullptr);
  }
  // Active profiling scans draw power (and cooling) like any other load.
  last_compute_ = match.compute;
  if (extras_active_)
    recompute_demand();  // thermal COP billing and/or idle residency
  else
    demand_ = match.demand + reserved_power_ * matcher_.cooling_factor();

  // Apply levels; reschedule completion events where the level changed
  // (completion time is invariant when the level is unchanged).
  for (std::size_t idx = run_head_; idx != kNone; idx = tasks_[idx].run_next) {
    SimTask& t = tasks_[idx];
    const std::size_t new_level = cols_.level[t.col];
    const bool first_schedule = !t.completion_scheduled;
    if (new_level != t.level || first_schedule) {
      t.completion_scheduled = true;
      t.level = new_level;
      ++t.version;
      const double slowdown = level_slowdown(t);
      const double completion = now + t.remaining_work_s * slowdown;
      queue_.schedule(completion,
                      EventDesc{EventDesc::Kind::kCompletion, idx, t.version});
    }
  }
  if (rematch_probe != nullptr) rematch_probe(false);
}

void DatacenterSim::on_arrival(std::size_t idx) {
  SimTask& t = tasks_[idx];
  t.state = TaskState::kWaiting;
  waiting_.push_back(idx);
  waiting_cpus_ += t.spec.cpus;
  log_event(TimelineKind::kArrival, t.spec.id,
            static_cast<double>(t.spec.cpus));
  // Wake up when deadline pressure forces this task onto whatever is idle.
  const double force_at =
      std::max(queue_.now(), latest_start(t) - config_.deadline_patience_s);
  queue_.schedule(force_at, EventDesc{EventDesc::Kind::kPass});
  schedule_pass();
}

void DatacenterSim::schedule_pass() {
  if (in_pass_ || waiting_.empty()) return;
  ISCOPE_SPAN_SIM("match", queue_.now());
  in_pass_ = true;

  // Effi/Fair/Therm place straight off the maintained rank bitset and
  // busy-ordered list -- no snapshot copy, no per-task partial_sort.
  // kRandom's draws consume the RNG against a scratch vector's exact
  // layout, so it snapshots the sorted idle list and places through
  // PlacementPolicy::choose.
  const bool random = policy_.rule() == PlacementRule::kRandom;
  if (random) idle_scratch_.assign(idle_sorted_.begin(), idle_sorted_.end());

  const double now = queue_.now();
  const bool has_wind = supply_->has_wind();
  // One supply lookup per pass: wind_available is a pure function of
  // `now`, which is fixed for the whole pass (abundance is still
  // re-evaluated per task as demand_ grows).
  const Watts wind_now = supply_->wind_available(Seconds{now});
  // Only Fair and Therm read the supply-side context fields (both defer
  // on wind scarcity); skipping them for Ran and Effi is
  // observable-behavior-free (forecast_mean is a pure function of its
  // arguments -- see NoisyForecaster).
  const bool want_supply_ctx = policy_.rule() == PlacementRule::kFair ||
                               policy_.rule() == PlacementRule::kTherm;

  PlacementContext ctx;
  ctx.busy_time_s = &busy_time_s_;
  ctx.now_s = now;
  ctx.has_wind = has_wind;
  ctx.queue_pressure = static_cast<double>(waiting_cpus_) /
                       static_cast<double>(proc_running_.size());

  // Two-pointer compaction: entries that stay waiting slide down over the
  // started ones, preserving arrival order with no per-start erase.
  //
  // Pool-rejection memo: when the policy's only non-forced rejection is
  // the efficient-pool check (see pool_failures_monotone), a rejection at
  // width w implies rejection at every width >= w for the rest of the pass
  // (the idle set only shrinks), so wider tasks skip the policy call --
  // and its rank scan of the idle set -- entirely.
  const bool memo_rejections = policy_.pool_failures_monotone(has_wind);
  std::size_t rejected_width = kNone;  // kNone == no rejection yet
  bool forced_blocked = false;
  std::size_t read = 0;
  std::size_t write = 0;
  while (read < waiting_.size()) {
    const std::size_t idx = waiting_[read];
    SimTask& t = tasks_[idx];
    const bool forced =
        now >= latest_start(t) - config_.deadline_patience_s;
    const std::size_t idle_avail = random ? idle_scratch_.size() : idle_count_;
    if (t.spec.cpus > idle_avail) {
      // A forced task that cannot fit reserves the freed CPUs: stop the
      // pass so backfill cannot starve it, and rush the running work.
      if (forced) {
        forced_blocked = true;
        break;
      }
      waiting_[write++] = idx;
      ++read;
      continue;
    }
    if (memo_rejections && !forced && t.spec.cpus >= rejected_width) {
      waiting_[write++] = idx;  // known pool rejection; keep waiting
      ++read;
      continue;
    }
    ctx.forced = forced;
    ctx.slack_s = latest_start(t) - now;
    if (want_supply_ctx) {
      // Re-evaluate wind abundance as demand grows within the pass.
      ctx.wind_abundant = wind_abundant_given(wind_now);
      ctx.current_demand = demand_;
      ctx.forecast_mean =
          (forecaster_ != nullptr && ctx.slack_s > 0.0)
              ? forecaster_->forecast_mean(Seconds{now}, Seconds{ctx.slack_s})
              : Watts{std::numeric_limits<double>::infinity()};
    }
    if (random) {
      // Ran never waits voluntarily: a task that fits always starts. The
      // chosen processors are the first n entries of idle_scratch_.
      auto choice = policy_.choose(t.spec.cpus, idle_scratch_, ctx);
      ISCOPE_CHECK(choice.has_value(), "schedule_pass: Ran declined a fit");
      idle_scratch_.erase(
          idle_scratch_.begin(),
          idle_scratch_.begin() + static_cast<std::ptrdiff_t>(t.spec.cpus));
      ++read;
      start_task(idx, std::move(*choice));
      continue;
    }
    if (!policy_.choose_soa(t.spec.cpus, idle_rank_bits_.data(),
                            idle_by_busy_, ctx, pick_scratch_)) {
      if (memo_rejections && !forced)
        rejected_width = std::min(rejected_width, t.spec.cpus);
      waiting_[write++] = idx;  // voluntarily waiting; backfill continues
      ++read;
      continue;
    }
    ++read;
    start_task(idx, pick_scratch_);  // start_task copies; scratch reused
  }
  // On a forced-blocked break the unvisited tail (including the blocked
  // task itself) slides down unchanged.
  while (read < waiting_.size()) waiting_[write++] = waiting_[read++];
  waiting_.resize(write);
  in_pass_ = false;
  if (forced_blocked != rush_mode_) {
    rush_mode_ = forced_blocked;
    log_event(rush_mode_ ? TimelineKind::kRushEnter : TimelineKind::kRushLeave,
              -1, static_cast<double>(run_count_));
    rematch();  // enter/leave rush: re-decide all DVFS levels
  }
}

void DatacenterSim::start_task(std::size_t idx, std::vector<std::size_t> procs) {
  ISCOPE_SPAN_SIM("start_task", queue_.now());
  SimTask& t = tasks_[idx];
  ISCOPE_CHECK(t.state == TaskState::kWaiting, "start_task: bad state");
  const double now = queue_.now();
  t.procs = std::move(procs);
  // Claim the gang. With sleep management on, the deepest claimed
  // processor's C-state transition delays the whole gang's activation.
  double wake_s = 0.0;
  for (const std::size_t p : t.procs) {
    ISCOPE_CHECK(proc_running_[p] == kNone, "start_task: processor busy");
    proc_running_[p] = idx;
    if (sleep_active_ && sleep_state_[p] > 0)
      wake_s = std::max(wake_s,
                        config_.sleep.states[sleep_state_[p] - 1].wake_s);
    idle_remove(p);
  }
  waiting_cpus_ -= t.spec.cpus;
  if (wake_s > 0.0) {
    // Park the task until the slowest processor finishes waking. Demand
    // still moves now -- the gang left the idle pool -- but compute power
    // waits for activation.
    t.state = TaskState::kWaking;
    const std::uint64_t version = ++t.version;
    ++sleep_wakes_;
    log_event(TimelineKind::kTaskWaking, t.spec.id, wake_s);
    queue_.schedule(now + wake_s,
                    EventDesc{EventDesc::Kind::kWake, idx, version});
    accrue_to_now();
    recompute_demand();
    return;
  }
  activate_task(idx);
}

void DatacenterSim::on_wake(std::size_t idx, std::uint64_t version) {
  const SimTask& t = tasks_[idx];
  if (t.state != TaskState::kWaking || t.version != version) return;  // stale
  activate_task(idx);
}

void DatacenterSim::activate_task(std::size_t idx) {
  SimTask& t = tasks_[idx];
  const double now = queue_.now();
  t.state = TaskState::kRunning;
  t.start_s = now;
  t.last_update_s = now;
  t.remaining_work_s = t.spec.runtime_s;
  // Deliberately NOT resetting t.version: a requeued task's cancelled
  // completion event is only stale while the version keeps moving forward.
  t.completion_scheduled = false;
  t.level = knowledge_->levels() - 1;
  // A requeued task already waited once; count only the first wait so the
  // mean keeps its submit->first-start meaning under injection.
  if (t.retries == 0) total_wait_s_ += now - t.spec.submit_s;
  log_event(TimelineKind::kStart, t.spec.id, now - t.spec.submit_s);
  if (faults_active_) {
    // Arm latent mis-profile fail-stops: the chip must run continuously at
    // its (unsafe) scan point for the plan's latency before it fail-stops.
    for (const std::size_t p : t.procs) {
      if (misprofile_armed_[p] == 0) continue;
      const std::uint64_t token = ++misprofile_token_[p];
      queue_.schedule(now + plan_->misprofile_latency_s(p),
                      EventDesc{EventDesc::Kind::kMisprofileTimer, p, token});
    }
  }
  fill_power_table(idx);
  link_running(idx);
  // Append the SoA row in running-list order (see matcher_columns.hpp) and
  // derive its slowdown/power/best_from blocks. A new row means a new
  // greedy trajectory, so the incremental cache dies here.
  t.col = cols_.append(idx, t.remaining_work_s, t.spec.deadline_s);
  cols_.fill_row(t.col, t.spec.gamma, slowdown_ratio_.data(),
                 power_table_.data() + idx * knowledge_->levels());
  inc_.invalidate();
  rematch();
}

void DatacenterSim::on_completion(std::size_t idx, std::uint64_t version) {
  SimTask& t = tasks_[idx];
  if (t.state != TaskState::kRunning || t.version != version) return;  // stale

  const double now = queue_.now();
  t.state = TaskState::kDone;
  t.remaining_work_s = 0.0;
  ++done_count_;
  makespan_s_ = std::max(makespan_s_, now);
  log_event(TimelineKind::kCompletion, t.spec.id, now - t.start_s);
  if (now > t.spec.deadline_s + 1e-6) {
    ++miss_count_;
    // A miss of a task that had to restart is attributed to fault
    // recovery, not to the scheduling policy.
    if (t.retries > 0) ++fault_counters_.fault_deadline_misses;
    log_event(TimelineKind::kDeadlineMiss, t.spec.id,
              now - t.spec.deadline_s);
  }

  for (const std::size_t p : t.procs) {
    ISCOPE_CHECK(proc_running_[p] == idx, "completion: processor mismatch");
    proc_running_[p] = kNone;
    busy_time_s_[p] += now - t.start_s;
    if (faults_active_) ++misprofile_token_[p];  // stale any armed timer
    if (!reserved_[p]) idle_insert(p);
  }
  unlink_running(idx);
  cols_remove(idx);

  rematch();
  schedule_pass();
}

void DatacenterSim::begin_profiling_window(std::size_t window_idx) {
  const ProfilingWindow& window = profiling_[window_idx];
  // Isolate only processors that are idle right now: QoS comes first
  // (paper Sec. III-C), busy chips are skipped and left for a later pass.
  std::vector<std::size_t> taken;
  const std::size_t top = knowledge_->levels() - 1;
  for (const std::size_t p : window.proc_ids) {
    ISCOPE_CHECK_ARG(p < proc_running_.size(),
                     "profiling window: processor out of range");
    if (proc_running_[p] != kNone || reserved_[p] ||
        (faults_active_ && failed_[p] != 0)) {
      ++profiling_procs_skipped_;
      continue;
    }
    reserved_[p] = true;
    idle_remove(p);
    taken.push_back(p);
    // Scan load: the chip under test runs at the top level's stock point.
    // The cluster speaks global ids; `p` is view-local (identity for a
    // full view, shard-relative under a slice).
    reserved_power_ += knowledge_->cluster().power(
        knowledge_->global_proc(p), top,
        Volts{knowledge_->cluster().levels().vdd_nom[top]});
  }
  profiling_procs_scanned_ += taken.size();
  log_event(TimelineKind::kProfilingBegin, -1,
            static_cast<double>(taken.size()));
  if (!taken.empty()) {
    rematch();  // demand changed
    const double started = queue_.now();
    // Park the scan in a slot so the end event carries only the slot index
    // (a serializable descriptor, unlike the moved vector it used to own).
    const std::size_t slot = scans_.size();
    scans_.push_back(ActiveScan{std::move(taken), started, true});
    queue_.schedule(started + window.duration_s,
                    EventDesc{EventDesc::Kind::kProfilingEnd, slot});
  }
}

void DatacenterSim::end_profiling_window(std::size_t slot) {
  ActiveScan& scan = scans_[slot];
  const std::size_t top = knowledge_->levels() - 1;
  for (const std::size_t p : scan.procs) {
    reserved_[p] = false;
    if (proc_running_[p] == kNone && !(faults_active_ && failed_[p] != 0))
      idle_insert(p);
    reserved_power_ -= knowledge_->cluster().power(
        knowledge_->global_proc(p), top,
        Volts{knowledge_->cluster().levels().vdd_nom[top]});
    profiling_proc_seconds_ += queue_.now() - scan.started_s;
  }
  reserved_power_ = std::max(Watts{}, reserved_power_);
  log_event(TimelineKind::kProfilingEnd, -1,
            static_cast<double>(scan.procs.size()));
  scan.live = false;
  scan.procs.clear();
  rematch();
  schedule_pass();  // the freed processors may admit waiting tasks
}

void DatacenterSim::schedule_fault_event(std::size_t i) {
  if (i >= plan_->events().size()) return;
  const double at = plan_->events()[i].time_s;
  queue_.schedule(at, EventDesc{EventDesc::Kind::kFault, i});
}

void DatacenterSim::on_fault_event(std::size_t i) {
  // The plan's crash/repair stream runs as one lazily-chained event, so an
  // all-but-infinite horizon costs nothing once the workload has drained.
  if (all_done()) return;
  const FaultEvent& e = plan_->events()[i];
  if (e.kind == FaultKind::kCrash)
    fail_proc(e.proc, /*misprofile=*/false);
  else
    repair_proc(e.proc);
  schedule_fault_event(i + 1);
}

void DatacenterSim::fail_proc(std::size_t p, bool misprofile) {
  if (failed_[p] != 0) return;  // double fault while already down
  failed_[p] = 1;
  ++fault_counters_.cpu_failures;
  if (misprofile) ++fault_counters_.misprofile_failures;
  knowledge_mut_->quarantine(p);
  log_event(TimelineKind::kCpuFail, -1, static_cast<double>(p));
  ++misprofile_token_[p];
  const std::size_t idx = proc_running_[p];
  if (idx != kNone) {
    requeue_task(idx);
    rematch();  // the victim's load vanished; re-decide DVFS levels
    schedule_pass();
  } else if (!reserved_[p]) {
    idle_remove(p);
    if (sleep_active_) {
      // No rematch follows on this branch, but the idle residency power
      // just changed; re-derive demand at this instant.
      accrue_to_now();
      recompute_demand();
    }
  }
}

void DatacenterSim::repair_proc(std::size_t p) {
  if (failed_[p] == 0) return;  // already repaired (overlapping faults)
  failed_[p] = 0;
  ++fault_counters_.cpu_repairs;
  knowledge_mut_->release(p);
  log_event(TimelineKind::kCpuRepair, -1, static_cast<double>(p));
  if (proc_running_[p] == kNone && !reserved_[p]) {
    idle_insert(p);
    if (sleep_active_) {
      // schedule_pass may start nothing; demand must still absorb the
      // repaired processor's idle residency now.
      accrue_to_now();
      recompute_demand();
    }
  }
  schedule_pass();  // restored capacity may admit waiting tasks
}

void DatacenterSim::requeue_task(std::size_t idx) {
  SimTask& t = tasks_[idx];
  // A gang still waking from a C-state can lose a processor too; it made
  // no progress, so only running victims charge lost seconds / busy time.
  const bool was_running = t.state == TaskState::kRunning;
  ISCOPE_CHECK(was_running || t.state == TaskState::kWaking,
               "requeue_task: bad state");
  const double now = queue_.now();
  // All progress on the gang is discarded; the task restarts from scratch.
  if (was_running)
    fault_counters_.lost_cpu_seconds +=
        static_cast<double>(t.spec.cpus) * (now - t.start_s);
  for (const std::size_t p : t.procs) {
    ISCOPE_CHECK(proc_running_[p] == idx, "requeue_task: processor mismatch");
    proc_running_[p] = kNone;
    if (was_running) busy_time_s_[p] += now - t.start_s;
    ++misprofile_token_[p];
    if (!reserved_[p] && failed_[p] == 0) idle_insert(p);
  }
  t.procs.clear();
  if (was_running) {
    unlink_running(idx);
    cols_remove(idx);
  }
  ++t.version;  // cancel the pending completion (or wake) event
  if (t.retries >= plan_->max_retries()) {
    t.state = TaskState::kFailed;
    ++failed_count_;
    ++fault_counters_.tasks_failed;
    makespan_s_ = std::max(makespan_s_, now);
    log_event(TimelineKind::kTaskAbandon, t.spec.id,
              static_cast<double>(t.retries));
    return;
  }
  ++t.retries;
  ++fault_counters_.task_requeues;
  t.state = TaskState::kWaiting;
  waiting_.push_back(idx);
  waiting_cpus_ += t.spec.cpus;
  log_event(TimelineKind::kTaskRequeue, t.spec.id,
            static_cast<double>(t.retries));
  // Same deadline-pressure wakeup an arrival gets (likely already due).
  const double force_at =
      std::max(now, latest_start(t) - config_.deadline_patience_s);
  queue_.schedule(force_at, EventDesc{EventDesc::Kind::kPass});
}

void DatacenterSim::on_misprofile_timer(std::size_t p, std::uint64_t token) {
  if (misprofile_token_[p] != token) return;  // occupancy ended; stale
  if (failed_[p] != 0 || proc_running_[p] == kNone) return;
  // The latent fault fires exactly once; repair re-profiles the chip.
  misprofile_armed_[p] = 0;
  fail_proc(p, /*misprofile=*/true);
  const double repair_at = queue_.now() + plan_->misprofile_repair_s(p);
  queue_.schedule(repair_at,
                  EventDesc{EventDesc::Kind::kMisprofileRepair, p});
}

void DatacenterSim::sleep_on_idle(std::size_t p) {
  const SleepConfig& sc = config_.sleep;
  std::uint8_t depth = 0;
  if (sc.policy == SleepPolicy::kImmediate) {
    // One descent straight to the deepest state: the chip powers down the
    // moment it idles (maximum residency savings, maximum wake latency).
    depth = static_cast<std::uint8_t>(sc.states.size());
    ++sleeping_count_;
    ++sleep_enters_;
    log_event(TimelineKind::kSleepEnter, -1, static_cast<double>(depth));
  }
  sleep_state_[p] = depth;
  idle_power_w_ +=
      (depth == 0 ? sc.active_idle_frac : sc.states[depth - 1].idle_frac) *
      sleep_stock_w_[p];
  if (sc.policy == SleepPolicy::kTimeout) {
    const std::uint64_t token = sleep_token_[p];
    queue_.schedule(queue_.now() + sc.timeout_s,
                    EventDesc{EventDesc::Kind::kSleepEnter, p, token});
  }
}

void DatacenterSim::sleep_on_claim(std::size_t p) {
  const SleepConfig& sc = config_.sleep;
  const std::uint8_t depth = sleep_state_[p];
  idle_power_w_ -=
      (depth == 0 ? sc.active_idle_frac : sc.states[depth - 1].idle_frac) *
      sleep_stock_w_[p];
  if (depth > 0) --sleeping_count_;
  ++sleep_token_[p];  // stale any pending descent from this idle stint
  // sleep_state_[p] deliberately survives the claim: start_task reads the
  // depth right after claiming to derive the gang's wake latency.
}

void DatacenterSim::on_sleep_enter(std::size_t p, std::uint64_t token) {
  if (sleep_token_[p] != token || idle_flags_[p] == 0) return;  // stale
  const SleepConfig& sc = config_.sleep;
  const std::uint8_t depth = sleep_state_[p];
  if (depth >= sc.states.size()) return;  // already deepest
  accrue_to_now();
  const double old_frac =
      depth == 0 ? sc.active_idle_frac : sc.states[depth - 1].idle_frac;
  idle_power_w_ += (sc.states[depth].idle_frac - old_frac) * sleep_stock_w_[p];
  sleep_state_[p] = static_cast<std::uint8_t>(depth + 1);
  if (depth == 0) ++sleeping_count_;
  ++sleep_enters_;
  log_event(TimelineKind::kSleepEnter, -1, static_cast<double>(depth + 1));
  recompute_demand();
  if (depth + std::size_t{1} < sc.states.size())
    queue_.schedule(queue_.now() + sc.timeout_s,
                    EventDesc{EventDesc::Kind::kSleepEnter, p, token});
}

void DatacenterSim::recompute_demand() {
  // IT power: matched compute + active scans + idle/sleep residency. Only
  // ever called with thermal or sleep active; the off path keeps the
  // legacy Eq-2 composition in rematch() verbatim.
  const Watts it = last_compute_ + reserved_power_ +
                   Watts{std::max(0.0, idle_power_w_)};
  if (config_.thermal.enabled) {
    // CRAC billing at the operating COP the thermal epochs resolve against
    // the recirculation model (heat removed == IT heat dissipated).
    cooling_power_ = Watts{it.raw() / cop_now_};
  } else {
    // Sleep-only runs keep the paper's flat Eq-2 cooling overhead.
    cooling_power_ = it * (matcher_.cooling_factor() - 1.0);
  }
  demand_ = it + cooling_power_;
}

void DatacenterSim::schedule_thermal(double t) {
  thermal_chain_live_ = true;
  queue_.schedule(t, EventDesc{EventDesc::Kind::kThermal, 0, 0, t});
}

void DatacenterSim::on_thermal(double t) {
  accrue_to_now();
  if (thermal_external_) {
    // Sharded run: apply the solution the coordinator resolved at this
    // barrier over every shard's rack power (reconcile_wind's pattern).
    if (thermal_pending_) {
      cop_now_ = pending_cop_;
      supply_c_now_ = pending_supply_c_;
      peak_inlet_c_ = std::max(peak_inlet_c_, pending_peak_c_);
      thermal_pending_ = false;
    }
  } else {
    rack_w_scratch_.assign(thermal_model_->matrix().racks(), 0.0);
    collect_rack_power(rack_w_scratch_);
    const ThermalSolution sol =
        thermal_model_->solve(rack_w_scratch_, plan_->crac_factor(t));
    cop_now_ = sol.cop;
    supply_c_now_ = sol.supply_c;
    peak_inlet_c_ = std::max(peak_inlet_c_, sol.peak_inlet_c);
  }
  recompute_demand();
  if (!all_done())
    schedule_thermal(t + config_.epoch_s);
  else
    thermal_chain_live_ = false;
}

void DatacenterSim::collect_rack_power(std::vector<double>& rack_w) const {
  // One ascending-p pass, rack by rack. Per-rack sums are ordered by
  // processor id and racks never straddle shards, so any rack-aligned
  // partition of the facility produces bit-equal sums (the sharded
  // coordinator relies on this when it merges shard contributions).
  //
  // With sleep off an idle processor draws nothing: idle implies not
  // running, not reserved and not failed, so the loop below would give it
  // w = 0 and add nothing. A rack whose processors are all idle is
  // therefore skipped after one memchr over its idle flags; busy racks
  // take the per-processor loop unchanged. The skip keeps no state of its
  // own, so checkpoints and rebuild_derived_state() do not know of it.
  const std::size_t nprocs = knowledge_->procs();
  const std::size_t per_rack = config_.topology.cpus_per_rack;
  const std::size_t top = knowledge_->levels() - 1;
  for (std::size_t lo = 0; lo < nprocs;) {
    // Racks start where global_proc(p) % per_rack == 0; the facility's
    // last rack may be partial.
    const std::size_t hi = std::min(
        nprocs, lo + per_rack - knowledge_->global_proc(lo) % per_rack);
    if (!sleep_active_ &&
        std::memchr(idle_flags_.data() + lo, 0, hi - lo) == nullptr) {
      for (std::size_t p = lo; p < hi; ++p)
        ISCOPE_AUDIT_CHECK(proc_running_[p] == kNone && !reserved_[p],
                           "collect_rack_power: idle processor draws power");
      lo = hi;
      continue;
    }
    for (std::size_t p = lo; p < hi; ++p) {
      double w = 0.0;
      const std::size_t idx = proc_running_[p];
      if (idx != kNone) {
        // Waking gangs draw nothing until activation.
        if (tasks_[idx].state == TaskState::kRunning)
          w = knowledge_->power(p, tasks_[idx].level).raw();
      } else if (reserved_[p]) {
        w = knowledge_->cluster()
                .power(knowledge_->global_proc(p), top,
                       Volts{knowledge_->cluster().levels().vdd_nom[top]})
                .raw();
      } else if (sleep_active_ && idle_flags_[p] != 0) {
        const std::uint8_t depth = sleep_state_[p];
        const double frac = depth == 0
                                ? config_.sleep.active_idle_frac
                                : config_.sleep.states[depth - 1].idle_frac;
        w = frac * sleep_stock_w_[p];
      }
      if (w != 0.0) rack_w[knowledge_->global_proc(p) / per_rack] += w;
    }
    lo = hi;
  }
}

void DatacenterSim::push_thermal(double cop, double supply_c,
                                 double peak_inlet_c) {
  pending_cop_ = cop;
  pending_supply_c_ = supply_c;
  pending_peak_c_ = peak_inlet_c;
  thermal_pending_ = true;
}

void DatacenterSim::install_thermal_order(const RecirculationMatrix& matrix) {
  // The key is a pure function of the knowledge and the topology, so
  // every shard derives the same global order restricted to its slice.
  const std::size_t nprocs = knowledge_->procs();
  const std::size_t per_rack = config_.topology.cpus_per_rack;
  // The CRAC bill is governed by the *hottest* inlet (solve() subtracts
  // max_rise from the red line), and the matrix's diagonal dominates, so
  // packing work into any one rack -- even a low-heat-weight one --
  // concentrates rise and drags the supply colder. The min-max order is a
  // stripe: racks sorted by ascending heat weight, chips within a rack by
  // ascending believed efficiency (profiled where scanned, bin spec
  // otherwise), emitted round-robin one chip per rack. At partial
  // utilization that loads each rack's best silicon about evenly, keeping
  // the worst inlet -- and the cooling overhead -- near the facility
  // minimum while costing almost nothing on compute (chip quality is iid
  // across racks, so per-rack-best ~ globally-best at matching depth).
  std::vector<std::vector<std::size_t>> by_rack(matrix.racks());
  for (std::size_t p = 0; p < nprocs; ++p)
    by_rack[knowledge_->global_proc(p) / per_rack].push_back(p);
  for (std::vector<std::size_t>& rack : by_rack)
    std::sort(rack.begin(), rack.end(), [&](std::size_t a, std::size_t b) {
      const double ea = knowledge_->efficiency(a).raw();
      const double eb = knowledge_->efficiency(b).raw();
      if (ea != eb) return ea < eb;
      return a < b;  // ties fall back to processor id
    });
  std::vector<std::size_t> rack_ids;
  rack_ids.reserve(matrix.racks());
  for (std::size_t j = 0; j < matrix.racks(); ++j)
    if (!by_rack[j].empty()) rack_ids.push_back(j);
  std::sort(rack_ids.begin(), rack_ids.end(),
            [&](std::size_t a, std::size_t b) {
              if (matrix.heat_weight(a) != matrix.heat_weight(b))
                return matrix.heat_weight(a) < matrix.heat_weight(b);
              return a < b;  // ties fall back to rack id
            });
  std::vector<std::size_t> order;
  order.reserve(nprocs);
  for (std::size_t depth = 0; order.size() < nprocs; ++depth)
    for (const std::size_t j : rack_ids)
      if (depth < by_rack[j].size()) order.push_back(by_rack[j][depth]);
  policy_.override_order(std::move(order));
  therm_order_installed_ = true;
}

void DatacenterSim::schedule_epoch(double t) {
  epoch_chain_live_ = true;
  queue_.schedule(t, EventDesc{EventDesc::Kind::kEpoch, 0, 0, t});
}

void DatacenterSim::on_epoch(double t) {
  rematch();
  schedule_pass();  // wind regime change can unblock Fair/Effi waits
  // Telemetry rides the existing epoch event rather than scheduling its
  // own: the event count -- and therefore SimResult -- is identical with
  // telemetry on or off.
  if (telemetry::enabled()) telemetry_sample();
  if (!all_done())
    schedule_epoch(t + config_.epoch_s);
  else
    epoch_chain_live_ = false;
}

void DatacenterSim::schedule_sample(double t) {
  sample_chain_live_ = true;
  queue_.schedule(t, EventDesc{EventDesc::Kind::kSample, 0, 0, t});
}

void DatacenterSim::on_sample(double t) {
  record_sample();
  if (!all_done())
    schedule_sample(t + config_.sample_interval_s);
  else
    sample_chain_live_ = false;
}

void DatacenterSim::log_event(TimelineKind kind, std::int64_t task_id,
                              double value) {
  if (!config_.record_timeline) return;
  timeline_.push_back(TimelineEvent{queue_.now(), kind, task_id, value});
}

PowerSample DatacenterSim::power_waterfall_now() const {
  // Same wind -> battery -> utility waterfall accrue_to_now() integrates,
  // evaluated at an instant (rate previews leave the battery untouched).
  PowerSample s;
  s.time = Seconds{queue_.now()};
  s.demand = demand_;
  s.wind_avail = supply_->wind_available(s.time);
  const Watts wind_used = std::min(s.demand, s.wind_avail);
  if (!battery_.present()) {
    s.wind = wind_used;
    s.utility = s.demand - wind_used;
  } else {
    const Watts charged = battery_.charge_preview(s.wind_avail - wind_used);
    const Watts delivered = battery_.discharge_preview(s.demand - wind_used);
    s.wind = wind_used + charged;
    s.battery = delivered;
    s.utility = std::max(Watts{}, s.demand - wind_used - delivered);
  }
  return s;
}

void DatacenterSim::record_sample() {
  meter_.record_sample(power_waterfall_now());
}

void DatacenterSim::telemetry_sample() {
  const PowerSample p = power_waterfall_now();
  telemetry::SampleRow row;
  row.label = config_.telemetry_label.empty() ? "sim" : config_.telemetry_label;
  row.time_s = queue_.now();
  row.demand_w = p.demand.raw();
  row.wind_avail_w = p.wind_avail.raw();
  row.wind_w = p.wind.raw();
  row.battery_w = p.battery.raw();
  row.utility_w = p.utility.raw();
  row.queue_depth = queue_.pending();
  row.waiting_tasks = waiting_.size();
  row.running_tasks = run_count_;
  row.idle_procs = idle_count_;
  telemetry::SampleLog::global().append(row);

  static telemetry::GaugeFamily& depth_family =
      telemetry::Registry::global().gauge(
          "iscope_sim_event_queue_depth",
          "Pending simulator events at the latest sample", {"run"});
  depth_family.with({row.label}).set(static_cast<double>(row.queue_depth));

  // The supply-side waterfall as live gauges (latest sample wins): where
  // the facility's power is coming from right now.
  static telemetry::GaugeFamily& power_family =
      telemetry::Registry::global().gauge(
          "iscope_power_watts",
          "Power waterfall at the latest sample, by source",
          {"run", "source"});
  power_family.with({row.label, "demand"}).set(row.demand_w);
  power_family.with({row.label, "wind_avail"}).set(row.wind_avail_w);
  power_family.with({row.label, "wind"}).set(row.wind_w);
  power_family.with({row.label, "battery"}).set(row.battery_w);
  power_family.with({row.label, "utility"}).set(row.utility_w);

  // Thermal/sleep gauges only exist when the subsystems are on, so a
  // default run's telemetry output is byte-identical to the pre-thermal
  // tree's.
  if (config_.thermal.enabled) {
    static telemetry::GaugeFamily& thermal_family =
        telemetry::Registry::global().gauge(
            "iscope_thermal", "Thermal model state at the latest sample",
            {"run", "field"});
    thermal_family.with({row.label, "supply_c"}).set(supply_c_now_);
    thermal_family.with({row.label, "cop"}).set(cop_now_);
    thermal_family.with({row.label, "cooling_w"}).set(cooling_power_.raw());
    thermal_family.with({row.label, "peak_inlet_c"}).set(peak_inlet_c_);
  }
  if (sleep_active_) {
    static telemetry::GaugeFamily& sleep_family =
        telemetry::Registry::global().gauge(
            "iscope_sleeping_procs",
            "Processors in a C-state deeper than active idle", {"run"});
    sleep_family.with({row.label}).set(static_cast<double>(sleeping_count_));
  }
}

void DatacenterSim::publish_run_telemetry(std::size_t events) {
  telemetry::Registry& reg = telemetry::Registry::global();
  const std::string label =
      config_.telemetry_label.empty() ? "sim" : config_.telemetry_label;
  const std::vector<std::string> labels = {label};
  // Parallel sweeps finish runs on pool workers concurrently, and runs
  // sharing a label share cells: pay for the real RMW.
  static telemetry::CounterFamily& events_family = reg.counter(
      "iscope_sim_events_total", "Simulator events processed", {"run"});
  events_family.with(labels).inc_concurrent(events);
  static telemetry::CounterFamily& rematch_family = reg.counter(
      "iscope_sim_rematches_total", "DVFS rematch passes", {"run"});
  rematch_family.with(labels).inc_concurrent(rematch_count_);
  static telemetry::CounterFamily& completed_family = reg.counter(
      "iscope_sim_tasks_completed_total", "Tasks run to completion",
      {"run"});
  completed_family.with(labels).inc_concurrent(done_count_);
  static telemetry::CounterFamily& miss_family = reg.counter(
      "iscope_sim_deadline_misses_total", "Completions past the deadline",
      {"run"});
  miss_family.with(labels).inc_concurrent(miss_count_);
  static telemetry::CounterFamily& requeue_family = reg.counter(
      "iscope_sim_task_requeues_total",
      "Task restarts forced by injected faults", {"run"});
  requeue_family.with(labels).inc_concurrent(fault_counters_.task_requeues);
  static telemetry::CounterFamily& fault_family = reg.counter(
      "iscope_sim_cpu_failures_total",
      "Processor fail-stops (crashes + mis-profiles)", {"run"});
  fault_family.with(labels).inc_concurrent(fault_counters_.cpu_failures);
  static telemetry::GaugeFamily& peak_family = reg.gauge(
      "iscope_sim_event_queue_peak",
      "Event-queue high-water mark over the run(s)", {"run"});
  peak_family.with(labels).set_max_concurrent(
      static_cast<double>(queue_.high_water()));
  static telemetry::GaugeFamily& battery_family = reg.gauge(
      "iscope_battery_delivered_joules",
      "Battery energy delivered to the facility", {"run"});
  battery_family.with(labels).add_concurrent(battery_.delivered().raw());
  static telemetry::GaugeFamily& losses_family = reg.gauge(
      "iscope_battery_losses_joules", "Battery round-trip losses", {"run"});
  losses_family.with(labels).add_concurrent(battery_.losses().raw());
}

SimResult DatacenterSim::run(std::vector<Task> tasks) {
  return run(std::move(tasks), {});
}

SimResult DatacenterSim::run(std::vector<Task> tasks,
                             const std::vector<ProfilingWindow>& profiling) {
  // One unbounded resumable slice: run() is now a client of the same
  // prepare/advance/finish API the sharded coordinator and the service
  // daemon drive, so chunked execution has no second code path to drift
  // from.
  prepare(std::move(tasks), profiling);
  advance_before(std::numeric_limits<double>::infinity());
  return finish();
}

void DatacenterSim::rebuild_derived_state() {
  const std::size_t nprocs = knowledge_->procs();
  const std::size_t levels = knowledge_->levels();

  // Thermal/sleep staging. The model is built once (flat runs only; a
  // shard's thermal_external_ flag is set by the coordinator before
  // prepare, and the coordinator owns the facility-wide model). ScanTherm
  // installs its recirculation-aware order before the rank tables below
  // are derived from the policy.
  sleep_active_ = config_.sleep.enabled();
  extras_active_ = config_.thermal.enabled || sleep_active_;
  if (config_.thermal.enabled && !thermal_external_ &&
      thermal_model_ == nullptr) {
    const std::size_t per_rack = config_.topology.cpus_per_rack;
    const std::size_t racks = (nprocs + per_rack - 1) / per_rack;
    thermal_model_ = std::make_unique<ThermalModel>(config_.thermal,
                                                    config_.topology, racks);
  }
  if (policy_.rule() == PlacementRule::kTherm && config_.thermal.enabled &&
      !therm_order_installed_ && thermal_model_ != nullptr)
    install_thermal_order(thermal_model_->matrix());
  if (sleep_active_) {
    const std::size_t top = levels - 1;
    sleep_stock_w_.resize(nprocs);
    for (std::size_t p = 0; p < nprocs; ++p)
      sleep_stock_w_[p] =
          knowledge_->cluster()
              .power(knowledge_->global_proc(p), top,
                     Volts{knowledge_->cluster().levels().vdd_nom[top]})
              .raw();
  }

  // Quarantine mirrors failed_ exactly (fail_proc quarantines, repair_proc
  // releases); the generation after the replay is the one the power
  // tables below match.
  if (faults_active_) {
    ISCOPE_CHECK(knowledge_mut_ != nullptr,
                 "DatacenterSim: fault state without a mutable Knowledge");
    knowledge_mut_->clear_quarantine();
    for (std::size_t p = 0; p < nprocs; ++p)
      if (failed_[p] != 0) knowledge_mut_->quarantine(p);
  }
  knowledge_gen_ = knowledge_->generation();

  // Idle bookkeeping: flags + count are primary state; the rank bitset
  // and the ordered lists are rebuilt from the flags, the lists only for
  // the rule that consumes them (see the member comments).
  maintain_idle_sorted_ = policy_.rule() == PlacementRule::kRandom;
  maintain_idle_by_busy_ = policy_.rule() == PlacementRule::kFair;
  idle_sorted_.clear();
  idle_by_busy_.clear();
  if (maintain_idle_sorted_) {
    for (std::size_t p = 0; p < nprocs; ++p)
      if (idle_flags_[p] != 0) idle_sorted_.push_back(p);
  }
  if (maintain_idle_by_busy_) {
    for (std::size_t p = 0; p < nprocs; ++p)
      if (idle_flags_[p] != 0) idle_by_busy_.push_back(p);
    const double* busy = busy_time_s_.data();
    std::sort(idle_by_busy_.begin(), idle_by_busy_.end(),
              [busy](std::size_t a, std::size_t b) {
                if (busy[a] != busy[b]) return busy[a] < busy[b];
                return a < b;
              });
  }
  // Bits past the last rank stay clear (choose_soa trusts them).
  rank_of_proc_.resize(nprocs);
  for (std::size_t p = 0; p < nprocs; ++p)
    rank_of_proc_[p] = policy_.efficiency_rank(p);
  idle_rank_bits_.assign((nprocs + 63) / 64, 0);
  for (std::size_t p = 0; p < nprocs; ++p) {
    if (idle_flags_[p] == 0) continue;
    const std::size_t rank = rank_of_proc_[p];
    idle_rank_bits_[rank >> 6] |= std::uint64_t{1} << (rank & 63);
  }

  // Scratch, reserved to its true high-water marks: at most nprocs tasks
  // run at once (every task needs >= 1 CPU), and the trajectory log can
  // hold every task stepping through every level, so steady-state
  // rematches stay allocation-free.
  pick_scratch_.clear();
  pick_scratch_.reserve(nprocs);
  idle_scratch_.clear();
  match_scratch_.floor.reserve(nprocs);
  match_scratch_.heap.reserve(nprocs);

  // Per-task power tables for the running set, then the SoA columns in
  // running-list order (the matcher's sums are order-sensitive). The
  // incremental cache starts invalid: the next rematch does a full solve,
  // which is bit-identical to the incremental replay it displaces.
  power_table_.assign(tasks_.size() * levels, 0.0);
  cols_.reset(levels, nprocs);
  for (std::size_t idx = run_head_; idx != kNone;
       idx = tasks_[idx].run_next) {
    fill_power_table(idx);
    SimTask& t = tasks_[idx];
    t.col = cols_.append(idx, t.remaining_work_s, t.spec.deadline_s);
    cols_.fill_row(t.col, t.spec.gamma, slowdown_ratio_.data(),
                   power_table_.data() + idx * levels);
    cols_.level[t.col] = t.level;
  }
  inc_.invalidate();
  inc_.log.reserve(nprocs * levels);
  inc_.heap.reserve(nprocs);
}

void DatacenterSim::prepare(std::vector<Task> tasks,
                            const std::vector<ProfilingWindow>& profiling) {
  validate_tasks(tasks);
  const std::size_t nprocs = knowledge_->procs();
  for (const Task& t : tasks)
    ISCOPE_CHECK_ARG(t.cpus <= nprocs,
                     "DatacenterSim: task wider than the cluster");
  ISCOPE_CHECK_ARG(!faults_active_ || knowledge_mut_ != nullptr,
                   "DatacenterSim: a fault plan with CPU faults needs the "
                   "mutable-Knowledge constructor (quarantine)");
  sort_by_submit(tasks);

  // Reset the primary state. clear() (not reassignment) keeps warmed-up
  // capacities, so a reused simulator reaches steady state with no
  // further allocations.
  queue_.clear();
  queue_.reserve(tasks.size() + profiling.size() + 8);
  // A reused simulator must draw the placements a fresh one draws.
  policy_.reseed(config_.seed);
  meter_.reset();
  battery_ = BatteryBank(config_.battery);
  tasks_.clear();
  tasks_.reserve(tasks.size());
  const double fmax = fmax_ghz();
  for (Task& t : tasks) {
    SimTask st;
    st.spec = std::move(t);
    // Cached once: latest_start is a pure function of the immutable spec
    // (the hot scheduling pass reads it per waiting task).
    st.latest_start_s = st.spec.latest_start_s(fmax, fmax);
    tasks_.push_back(std::move(st));
  }
  waiting_.clear();
  waiting_cpus_ = 0;
  proc_running_.assign(nprocs, kNone);
  busy_time_s_.assign(nprocs, 0.0);
  idle_flags_.assign(nprocs, 1);
  idle_count_ = nprocs;
  run_head_ = kNone;
  run_tail_ = kNone;
  run_count_ = 0;
  demand_ = Watts{};
  last_accrual_s_ = 0.0;
  segment_wind_ = supply_->wind_available(Seconds{});
  done_count_ = 0;
  events_run_ = 0;
  rematch_count_ = 0;
  total_wait_s_ = 0.0;
  miss_count_ = 0;
  makespan_s_ = 0.0;
  in_pass_ = false;
  rush_mode_ = false;
  timeline_.clear();
  reserved_.assign(nprocs, false);
  reserved_power_ = Watts{};
  profiling_proc_seconds_ = 0.0;
  profiling_procs_scanned_ = 0;
  profiling_procs_skipped_ = 0;
  profiling_ = profiling;
  scans_.clear();
  epoch_chain_live_ = false;
  sample_chain_live_ = false;
  failed_.assign(nprocs, 0);
  misprofile_token_.assign(nprocs, 0);
  misprofile_armed_.assign(nprocs, 0);
  failed_count_ = 0;
  fault_counters_ = FaultCounters{};
  // Thermal & sleep state. cop/supply start at the idle-facility point
  // (no rack rise => the CRAC runs at its warmest, most efficient supply).
  cop_now_ = crac_cop(config_.thermal.max_supply_c);
  supply_c_now_ = config_.thermal.max_supply_c;
  peak_inlet_c_ = 0.0;
  thermal_pending_ = false;
  pending_cop_ = 0.0;
  pending_supply_c_ = 0.0;
  pending_peak_c_ = 0.0;
  last_compute_ = Watts{};
  cooling_power_ = Watts{};
  cooling_joules_ = 0.0;
  idle_joules_ = 0.0;
  thermal_chain_live_ = false;
  sleep_state_.assign(nprocs, 0);
  sleep_token_.assign(nprocs, 0);
  idle_power_w_ = 0.0;
  sleeping_count_ = 0;
  sleep_enters_ = 0;
  sleep_wakes_ = 0;

  rebuild_derived_state();

  if (faults_active_) {
    // A latent mis-profile only bites a chip actually running at its own
    // scanned point; under the Bin view the plan's mis-profiles are inert.
    for (std::size_t p = 0; p < nprocs; ++p)
      misprofile_armed_[p] = plan_->misprofiled(p) && knowledge_->scanned(p);
    schedule_fault_event(0);
  }
  if (sleep_active_) {
    // The whole facility starts idle: same entry path as a runtime idle
    // insert (timeout descents get scheduled, immediate goes deep now).
    for (std::size_t p = 0; p < nprocs; ++p) sleep_on_idle(p);
  }
  if (extras_active_) recompute_demand();

  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const double at = tasks_[i].spec.submit_s;
    queue_.schedule(at, EventDesc{EventDesc::Kind::kArrival, i});
  }
  for (std::size_t wi = 0; wi < profiling_.size(); ++wi) {
    const ProfilingWindow& w = profiling_[wi];
    ISCOPE_CHECK_ARG(w.start_s >= 0.0 && w.duration_s > 0.0,
                     "profiling window: bad timing");
    queue_.schedule(w.start_s,
                    EventDesc{EventDesc::Kind::kProfilingBegin, wi});
  }
  if (!tasks_.empty() || !profiling_.empty()) {
    schedule_epoch(0.0);
    if (config_.record_trace) schedule_sample(0.0);
    if (config_.thermal.enabled) schedule_thermal(0.0);
  }
}

std::size_t DatacenterSim::admit(Task task) {
  validate_task(task);
  ISCOPE_CHECK_ARG(task.cpus <= knowledge_->procs(),
                   "DatacenterSim: admitted task width does not fit the "
                   "cluster");
  ISCOPE_CHECK_ARG(task.submit_s >= queue_.now(),
                   "DatacenterSim: admission behind the simulation clock");
  const std::size_t i = tasks_.size();
  const double fmax = fmax_ghz();
  SimTask st;
  st.spec = std::move(task);
  st.latest_start_s = st.spec.latest_start_s(fmax, fmax);
  tasks_.push_back(std::move(st));
  // Grow the per-task power table; the new row is filled at task start.
  power_table_.resize(tasks_.size() * knowledge_->levels(), 0.0);
  queue_.schedule(tasks_[i].spec.submit_s,
                  EventDesc{EventDesc::Kind::kArrival, i});
  // A drained run stopped the self-rechaining epoch/sample events; restart
  // them at the next boundary. (From a freshly-prepared empty simulation
  // this schedules the chains from t = 0, exactly where prepare() with a
  // non-empty trace would have -- the batch-equivalence case. After a
  // mid-run drain gap the restarted chain skips the idle epochs, which a
  // batch run would have executed: deterministic, but only batch-identical
  // when the stream keeps the simulator busy.)
  if (!epoch_chain_live_)
    schedule_epoch(std::ceil(queue_.now() / config_.epoch_s) *
                   config_.epoch_s);
  if (config_.record_trace && !sample_chain_live_)
    schedule_sample(std::ceil(queue_.now() / config_.sample_interval_s) *
                    config_.sample_interval_s);
  if (config_.thermal.enabled && !thermal_chain_live_)
    schedule_thermal(std::ceil(queue_.now() / config_.epoch_s) *
                     config_.epoch_s);
  return i;
}

void DatacenterSim::dispatch(const EventDesc& e) {
  using Kind = EventDesc::Kind;
  const auto a = static_cast<std::size_t>(e.a);
  switch (e.kind) {
    case Kind::kArrival: on_arrival(a); return;
    case Kind::kPass: schedule_pass(); return;
    case Kind::kCompletion: on_completion(a, e.b); return;
    case Kind::kEpoch: on_epoch(e.t); return;
    case Kind::kSample: on_sample(e.t); return;
    case Kind::kProfilingBegin: begin_profiling_window(a); return;
    case Kind::kProfilingEnd: end_profiling_window(a); return;
    case Kind::kFault: on_fault_event(a); return;
    case Kind::kMisprofileTimer: on_misprofile_timer(a, e.b); return;
    case Kind::kMisprofileRepair: repair_proc(a); return;
    case Kind::kThermal: on_thermal(e.t); return;
    case Kind::kSleepEnter: on_sleep_enter(a, e.b); return;
    case Kind::kWake: on_wake(a, e.b); return;
  }
}

std::size_t DatacenterSim::step_until(double t_limit) {
  const std::size_t n =
      queue_.run_until(t_limit, config_.max_events - events_run_,
                       [this](const EventDesc& e) { dispatch(e); });
  events_run_ += n;
  if (events_run_ >= config_.max_events)
    ISCOPE_CHECK(all_done(), "DatacenterSim: event budget exhausted before "
                             "all tasks completed");
  return n;
}

DecisionSnapshot DatacenterSim::decision_snapshot() const {
  DecisionSnapshot s;
  s.now_s = queue_.now();
  s.demand = demand_;
  s.tasks_admitted = tasks_.size();
  s.tasks_completed = done_count_;
  s.tasks_failed = failed_count_;
  s.waiting = waiting_.size();
  s.running = run_count_;
  s.idle_procs = idle_count_;
  s.events_processed = events_run_;
  s.rematches = rematch_count_;
  s.rush_mode = rush_mode_;
  return s;
}

std::size_t DatacenterSim::advance_before(double t_limit) {
  const std::size_t n =
      queue_.run_before(t_limit, config_.max_events - events_run_,
                        [this](const EventDesc& e) { dispatch(e); });
  events_run_ += n;
  // Legacy run() stops at max_events and fails the all-done check; chunked
  // execution must fail here, or a drained budget would spin the
  // coordinator's barrier loop forever.
  if (events_run_ >= config_.max_events)
    ISCOPE_CHECK(all_done(), "DatacenterSim: event budget exhausted before "
                             "all tasks completed");
  return n;
}

SimResult DatacenterSim::finish() {
  const std::size_t events = events_run_;
  ISCOPE_CHECK(all_done(), "DatacenterSim: event budget exhausted before "
                           "all tasks completed");
  accrue_to_now();
  if (telemetry::enabled()) {
    telemetry_sample();  // closing sampler row at the end-of-run state
    publish_run_telemetry(events);
  }

  SimResult result;
  result.energy = meter_.total();
  result.cost = config_.prices.cost(result.energy);
  result.wind_curtailed = meter_.wind_curtailed();
  result.battery_delivered = battery_.delivered();
  result.battery_losses = battery_.losses();
  result.tasks_completed = done_count_;
  result.deadline_misses = miss_count_;
  result.mean_wait = Seconds{
      tasks_.empty() ? 0.0
                     : total_wait_s_ / static_cast<double>(tasks_.size())};
  result.makespan = Seconds{makespan_s_};
  result.busy_time_s = busy_time_s_;
  result.finalize_busy_stats();
  result.trace = meter_.trace();
  result.timeline = timeline_;
  result.profiling_procs_scanned = profiling_procs_scanned_;
  result.profiling_procs_skipped = profiling_procs_skipped_;
  result.profiling_proc_seconds = profiling_proc_seconds_;
  result.faults = fault_counters_;
  result.cooling_energy = Joules{cooling_joules_};
  result.idle_energy = Joules{idle_joules_};
  result.peak_inlet_c = peak_inlet_c_;
  result.sleep_enters = sleep_enters_;
  result.sleep_wakes = sleep_wakes_;
  result.dvfs_rematch_count = rematch_count_;
  result.events_processed = events;
  return result;
}

SimResult run_scheme(const Cluster& cluster, Scheme scheme,
                     const ProfileDb* db, const HybridSupply& supply,
                     const std::vector<Task>& tasks, const SimConfig& config) {
  if (scheme_uses_scan(scheme))
    ISCOPE_CHECK_ARG(db != nullptr, "run_scheme: Scan scheme needs a ProfileDb");
  // Default the run's telemetry tag to the scheme name so snapshots and
  // sampler rows separate the five schemes out of the box.
  SimConfig tagged = config;
  if (tagged.telemetry_label.empty()) tagged.telemetry_label = scheme_name(scheme);
  // Scheme-level feature requests: ScanTherm forces the thermal model on;
  // the *Sleep variants enable C-state management (timeout policy unless
  // the caller already picked one).
  {
    const SchemeInfo& info = SchemeRegistry::global().info(scheme);
    if (info.thermal) tagged.thermal.enabled = true;
    if (info.sleep && tagged.sleep.policy == SleepPolicy::kNone)
      tagged.sleep.policy = SleepPolicy::kTimeout;
  }
  SimResult result;
  if (tagged.topology.shards > 1) {
    // 100k+-CPU path: rack-partitioned shards with per-shard event loops
    // under epoch-barrier wind reconciliation (sim/sharded.hpp).
    ShardedSim sim(cluster, scheme, db, supply, tagged);
    result = sim.run(tasks);
  } else {
    // Non-const so fault plans can quarantine failed processors; without
    // faults the view is never mutated.
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, tagged);
    result = sim.run(tasks);
  }
  if (telemetry::enabled()) {
    // Per-scheme utilization spread (paper Fig. 6): how evenly the scheme
    // loaded the cluster.
    static telemetry::GaugeFamily& variance_family =
        telemetry::Registry::global().gauge(
            "iscope_sim_busy_variance_h2",
            "Variance of per-processor busy hours", {"run"});
    variance_family.with({tagged.telemetry_label})
        .set(result.busy_variance_h2);
  }
  return result;
}

}  // namespace iscope
