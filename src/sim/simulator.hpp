// The green-datacenter discrete-event simulator (paper Secs. IV-V).
//
// Drives a task trace through a cluster under one of the five schemes:
//
//  * tasks wait in a central arrival-ordered queue; at every scheduling
//    opportunity (arrival, completion, supply epoch, deadline-pressure
//    wakeup) the placement policy picks idle CPUs for as many waiting
//    tasks as it wants to start -- Effi-style policies may deliberately
//    keep a task waiting for efficient CPUs while its deadline allows;
//  * task start/completion and every 10-minute supply epoch re-run the
//    power matcher, which re-decides DVFS levels against the current wind
//    budget;
//  * energy is integrated between events and attributed wind-first,
//    utility-supplement (Sec. V-C), with cooling overhead per Eq-2.
//
// Determinism: same cluster, knowledge, tasks, supply, and seed => same
// result, bit for bit.
//
// Hot-path design (DESIGN.md Secs. 9 and 14): `rematch()` performs zero
// heap allocations at steady state. Per-task per-level power tables are
// filled once at task start (power only changes when the Knowledge view
// refreshes, tracked by its generation counter); the running set is an
// intrusive doubly-linked list through SimTask (O(1) removal that --
// unlike swap-and-pop -- preserves start order, which the matcher's
// floating-point sums and equal-saving tiebreaks depend on for
// bit-reproducibility). The matcher sees the running set as SoA columns
// in the same order (matcher_columns.hpp), so the deadline-floor scan
// vectorizes, and it caches the greedy down-step trajectory for the
// incremental delta-rematch (power_matcher.hpp). Effi/Fair/Therm place
// tasks by a scan of a rank-indexed idle bitset instead of per-task
// partial_sorts. There is one production path: the pure-function oracles
// (PowerMatcher::match_reference, PlacementPolicy::choose) are checked
// against it by property tests, and tests/test_match_equivalence.cpp pins
// whole runs to golden digests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/battery.hpp"
#include "energy/forecast.hpp"
#include "energy/hybrid_supply.hpp"
#include "fault/fault.hpp"
#include "hardware/sleep.hpp"
#include "hardware/topology.hpp"
#include "fault/noisy_forecast.hpp"
#include "power/cooling.hpp"
#include "thermal/thermal.hpp"
#include "profiling/opportunistic.hpp"
#include "power/cost.hpp"
#include "power/energy_meter.hpp"
#include "sched/policy.hpp"
#include "sched/power_matcher.hpp"
#include "sched/scheme.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "workload/task.hpp"

namespace iscope {

struct SimConfig {
  double cooling_cop = 2.5;          ///< paper Sec. V-C
  EnergyPrices prices;               ///< 0.13 / 0.05 USD per kWh
  double epoch_s = 600.0;            ///< supply re-evaluation cadence
  double sample_interval_s = 350.0;  ///< Fig. 7 trace sampling period
  bool record_trace = false;
  bool record_timeline = false;      ///< typed event log (sim/timeline.hpp)
  /// Tag for this run's telemetry: metric label values and sampler rows.
  /// Empty means "sim"; run_scheme() fills in the scheme name. Purely
  /// observational -- never read by simulation logic, so it cannot affect
  /// results.
  std::string telemetry_label;
  /// Fair considers wind "abundant" when available wind exceeds current
  /// demand by this factor.
  double wind_abundance_headroom = 1.1;
  /// Share of the cluster (by efficiency rank) Effi treats as the
  /// "efficient pool" it is willing to wait for.
  double efficient_pool_fraction = 0.35;
  /// How long before the last feasible start a waiting task becomes
  /// "forced" (starts on whatever is idle). Two supply epochs of headroom
  /// absorb the start contention after a calm spell ends.
  double deadline_patience_s = 1200.0;
  std::uint64_t seed = 99;           ///< drives the Random placement
  std::size_t max_events = 100'000'000;  ///< runaway guard
  /// Optional on-site battery: surplus wind charges it, deficits discharge
  /// it before the utility grid steps in. Default: absent. Wind energy is
  /// paid at absorption, so round-trip losses are on the wind bill.
  BatteryConfig battery;
  /// Reuse the previous solve's greedy down-step trajectory when only the
  /// wind budget moved between rematches (delta-rematch, DESIGN.md
  /// Sec. 14). The replay is exact -- results are bit-identical either
  /// way, cost gap zero -- so this is purely a work-avoidance knob; false
  /// forces a full re-solve every time (A/B benchmarking, the
  /// IncrementalIdentity property suite).
  bool incremental_rematch = true;
  /// Fault injection (src/fault/). The default `FaultSpec{}` injects
  /// nothing and is guaranteed bit-identical to a fault-free build. CPU
  /// faults (crashes / mis-profiling) additionally need the mutable-
  /// Knowledge constructor so failed processors can be quarantined.
  FaultSpec faults;
  std::uint64_t fault_seed = 0;  ///< seeds FaultPlan::build from `faults`
  /// Explicit plan override (scripted schedules, replay). When set it wins
  /// over `faults`/`fault_seed`. Shared so sweep scenario copies stay cheap.
  std::shared_ptr<const FaultPlan> fault_plan;

  /// Facility topology and shard partition. topology.shards == 1 (the
  /// default) runs the single-event-loop simulator below; anything larger
  /// makes run_scheme() route through the sharded coordinator
  /// (sim/sharded.hpp), which gives each shard its own event queue,
  /// matcher scratch and energy accounting and reconciles the wind budget
  /// at every supply epoch.
  TopologyConfig topology;
  /// Worker threads the sharded coordinator fans shard advances over
  /// between barriers. 1 (default) = serial in the caller's thread; 0 =
  /// one per hardware thread. Results are bit-identical at any setting.
  std::size_t shard_workers = 1;

  /// Thermal model (src/thermal/): per-rack heat recirculation + CRAC
  /// cooling resolved at every supply epoch. Disabled by default; when
  /// off the legacy Eq-2 flat cooling factor applies and the run is
  /// bit-identical to a build without the subsystem (ThermalOffIdentity).
  ThermalConfig thermal;
  /// C-state sleep management (hardware/sleep.hpp). kNone (default) is
  /// the legacy zero-idle-power, instant-wake model, bit-identical to a
  /// build without sleep support.
  SleepConfig sleep;

  void validate() const;
};

/// O(1) read-only view of the latest scheduling decision -- the service
/// layer's bounded-latency DECIDE_NOW path. Everything here was already
/// computed by the most recent (incremental) rematch; reading it touches no
/// simulation state, so a query cannot perturb determinism.
struct DecisionSnapshot {
  double now_s = 0.0;
  Watts demand;                      ///< facility demand (IT + cooling)
  std::size_t tasks_admitted = 0;
  std::size_t tasks_completed = 0;
  std::size_t tasks_failed = 0;      ///< abandoned by fault injection
  std::size_t waiting = 0;
  std::size_t running = 0;
  std::size_t idle_procs = 0;
  std::size_t events_processed = 0;
  std::size_t rematches = 0;
  bool rush_mode = false;
};

/// Checkpoint codec (src/service/checkpoint.cpp): the one sanctioned door
/// into the simulator's private state for snapshot/restore.
struct CheckpointAccess;

class DatacenterSim {
 public:
  /// All pointers are non-owning and must outlive the simulator.
  /// `forecaster` (optional) informs Fair's deferral decisions; without
  /// one, deferral assumes wind always returns within the slack.
  DatacenterSim(const Knowledge* knowledge, PlacementRule rule,
                const HybridSupply* supply, const SimConfig& config,
                const WindForecaster* forecaster = nullptr);

  /// Mutable-knowledge overload: required when the fault plan carries CPU
  /// faults, so failed processors can be quarantined in the view (which
  /// bumps its generation and invalidates derived caches).
  DatacenterSim(Knowledge* knowledge, PlacementRule rule,
                const HybridSupply* supply, const SimConfig& config,
                const WindForecaster* forecaster = nullptr);

  /// Run the trace to completion and return the collected metrics.
  /// Tasks must fit the cluster (width <= processor count).
  SimResult run(std::vector<Task> tasks);

  /// Run with an in-band opportunistic profiling plan (paper Sec. III-C):
  /// at each window's start the listed processors are isolated from
  /// service *if idle at that moment* (QoS first -- busy ones are skipped),
  /// burn scan power at the top level's stock point for the window's
  /// duration, then return to the pool. Scan power is metered like any
  /// other facility load.
  SimResult run(std::vector<Task> tasks,
                const std::vector<ProfilingWindow>& profiling);

  /// --- sharded-run driver API (sim/sharded.hpp) -------------------------
  /// run() is prepare() + one full queue drain + finish(). The sharded
  /// coordinator instead interleaves advance_before() slices with
  /// epoch-barrier supply reconciliation; chunked execution pops the event
  /// heap in exactly the order one uninterrupted drain would, so a 1-shard
  /// chunked run is bit-identical to run() (tests/test_shard.cpp).

  /// Stage a run: reset state, sort and admit the tasks, schedule the
  /// arrival/epoch/sample/fault events. Does not process any event.
  void prepare(std::vector<Task> tasks,
               const std::vector<ProfilingWindow>& profiling = {});
  /// Process staged events with time strictly < `t_limit` (bounded by the
  /// remaining max_events budget). Returns the number of events run.
  std::size_t advance_before(double t_limit);
  /// Process staged events with time <= `t_limit` and advance the clock to
  /// `t_limit` (the resumable slice the service daemon drives; run() is one
  /// unbounded slice). A clock advanced past the last event changes no
  /// state -- energy accrual integrates from the last accrual point at the
  /// *next* event -- so interleaving step_until() slices is bit-identical
  /// to one uninterrupted drain. Returns the number of events run.
  std::size_t step_until(double t_limit);
  /// True when no staged events remain.
  bool drained() const { return queue_.empty(); }
  /// Facility demand decided by the latest rematch (IT + cooling + scans).
  Watts demand_now() const { return demand_; }
  /// Collect the metrics after the queue drained; checks all tasks done.
  SimResult finish();

  /// --- streaming admission (service mode, src/service/) -----------------
  /// Admit one more task into a prepared simulation. The task's submit time
  /// must not be behind the simulation clock (admission order defines the
  /// tie order among same-instant arrivals). Restarts the epoch/sample
  /// chains if a previous drain stopped them. Returns the task's index.
  ///
  /// Equivalence contract: admitting tasks before the clock passes their
  /// submit times, in submit order, yields a run bit-identical to handing
  /// the same tasks to prepare() up front (arrival events occupy their own
  /// tie class -- see EventQueue::schedule -- so late scheduling cannot
  /// reorder same-time ties).
  std::size_t admit(Task task);
  /// Simulation clock.
  double now_s() const { return queue_.now(); }
  /// Events processed since prepare().
  std::size_t events_processed() const { return events_run_; }
  /// The typed event log recorded so far (the daemon streams its suffix to
  /// clients as decisions are made; complete only with record_timeline).
  const std::vector<TimelineEvent>& timeline() const { return timeline_; }
  /// See DecisionSnapshot.
  DecisionSnapshot decision_snapshot() const;
  const SimConfig& config() const { return config_; }

  /// Test-only hook: when set, called with `true` on entry to every
  /// rematch() and `false` on exit. tests/test_rematch_alloc.cpp counts
  /// heap allocations in between to assert the steady-state hot path is
  /// allocation-free. Null in production.
  static void (*rematch_probe)(bool entering);

 private:
  friend struct CheckpointAccess;
  /// The sharded coordinator (sim/sharded.hpp) resolves the thermal model
  /// once per epoch barrier across all shards and pushes the solution into
  /// each shard (push_thermal), exactly like reconcile_wind.
  friend class ShardedSim;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  enum class TaskState : std::uint8_t {
    kPending,
    kWaiting,
    kRunning,
    kDone,
    kFailed,  ///< abandoned after exhausting the fault-retry budget
    /// Processors claimed but still waking from a C-state; the task
    /// activates when its kWake event fires (sleep management only).
    kWaking,
  };

  struct SimTask {
    Task spec;
    std::vector<std::size_t> procs;  ///< assigned at start
    double remaining_work_s = 0.0;   ///< seconds-at-Fmax left
    double last_update_s = 0.0;      ///< progress integrated up to here
    std::size_t level = 0;
    double start_s = -1.0;
    /// Monotone across restarts (never reset, or a cancelled completion
    /// event from a previous stint could match again and fire early).
    std::uint64_t version = 0;       ///< invalidates stale completion events
    /// False until the first post-start rematch schedules a completion.
    bool completion_scheduled = false;
    /// Intrusive links of the running list (kNone when not running).
    std::size_t run_prev = kNone;
    std::size_t run_next = kNone;
    /// Row in the SoA matcher columns while running (kNone otherwise).
    std::size_t col = kNone;
    /// Latest deadline-feasible start at the top frequency, cached at
    /// prepare() (it is a pure function of the immutable spec).
    double latest_start_s = 0.0;
    TaskState state = TaskState::kPending;
    std::size_t retries = 0;         ///< fault-forced restarts so far
  };

  /// Run one popped event: the only map from an EventDesc::Kind to its
  /// handler below. Every schedule site passes a descriptor, and the
  /// checkpoint codec restores descriptors verbatim.
  void dispatch(const EventDesc& e);
  void on_arrival(std::size_t idx);
  /// Try to start waiting tasks on idle processors (with backfill past
  /// voluntarily-waiting tasks; a *forced* task that cannot fit blocks the
  /// pass so freed CPUs accumulate for it).
  void schedule_pass();
  void start_task(std::size_t idx, std::vector<std::size_t> procs);
  /// Second half of start_task: the task begins running on its (already
  /// claimed) processors. Called inline when no wake latency applies --
  /// the only path when sleep management is off -- or from the kWake event
  /// after the deepest claimed processor finished its transition.
  void activate_task(std::size_t idx);
  void on_wake(std::size_t idx, std::uint64_t version);
  void on_completion(std::size_t idx, std::uint64_t version);
  /// Integrate energy up to now, then re-run the power matcher and
  /// reschedule completion events whose level changed.
  void rematch();
  /// Integrate energy from the last accrual point to now.
  void accrue_to_now();
  void schedule_epoch(double t);
  void schedule_sample(double t);
  void on_epoch(double t);
  void on_sample(double t);
  /// Profiling windows live in `profiling_` and active scans in `scans_`
  /// slots, so their events carry only indices -- the descriptor payload
  /// the checkpoint codec serializes.
  void begin_profiling_window(std::size_t window_idx);
  void end_profiling_window(std::size_t slot);
  /// Fault machinery (src/fault/): the plan's crash/repair events run as a
  /// single lazily-chained event stream; mis-profile fail-stops are armed
  /// per processor when a task starts on an unsafe scan point.
  void schedule_fault_event(std::size_t i);
  void on_fault_event(std::size_t i);
  void fail_proc(std::size_t p, bool misprofile);
  void repair_proc(std::size_t p);
  /// Kill a running task because one of its processors failed: free the
  /// survivors, requeue (bounded by the plan's retry budget) or abandon.
  void requeue_task(std::size_t idx);
  void on_misprofile_timer(std::size_t p, std::uint64_t token);
  /// --- thermal model (src/thermal/) -------------------------------------
  /// A self-rechaining kThermal event at every supply epoch re-solves the
  /// recirculation + CRAC model against the facility's current rack power
  /// map. kThermal occupies tie class 0, so at an epoch instant the flat
  /// run resolves thermal state against exactly the pre-epoch state the
  /// sharded coordinator sees at its barrier -- the two stay bit-identical.
  void schedule_thermal(double t);
  void on_thermal(double t);
  /// Accumulate per-rack IT power (running + reserved + idle/sleep
  /// residency) into `rack_w`, indexed by *global* rack id. The caller
  /// zeroes the vector; racks never straddle shards, so per-rack sums are
  /// identical however the facility is partitioned. With sleep off, racks
  /// whose processors are all idle are skipped after one scan of their
  /// idle flags, so the cost follows the racks that draw power.
  void collect_rack_power(std::vector<double>& rack_w) const;
  /// Coordinator-push half of the sharded thermal step: stage a solution
  /// for this shard's next kThermal event to apply.
  void push_thermal(double cop, double supply_c, double peak_inlet_c);
  /// Install the recirculation-aware placement order (ScanTherm): a
  /// round-robin stripe over racks (ascending heat weight) of each
  /// rack's chips (ascending believed efficiency) -- min-max inlet rise
  /// at every fill depth.
  void install_thermal_order(const RecirculationMatrix& matrix);
  /// Recompose facility demand from the cached IT parts (last matcher
  /// compute power + scans + idle residency) and the current cooling
  /// model. Only ever called when thermal or sleep is active; the off path
  /// keeps the legacy Eq-2 composition in rematch() verbatim.
  void recompute_demand();
  /// --- sleep management (hardware/sleep.hpp) ----------------------------
  void sleep_on_idle(std::size_t p);    ///< processor entered the idle pool
  void sleep_on_claim(std::size_t p);   ///< processor left the idle pool
  void on_sleep_enter(std::size_t p, std::uint64_t token);
  /// Instantaneous wind -> battery -> utility waterfall (previews only;
  /// shared by the Fig. 7 trace recorder and the telemetry sampler).
  PowerSample power_waterfall_now() const;
  void record_sample();
  /// Telemetry-only observation hooks. Both are observational by
  /// construction: they schedule no events and mutate no simulation state,
  /// so a telemetry-enabled run is bit-identical to a disabled one.
  void telemetry_sample();
  void publish_run_telemetry(std::size_t events);
  void log_event(TimelineKind kind, std::int64_t task_id, double value);
  double fmax_ghz() const;
  /// Fair's abundance test against a wind value already looked up for this
  /// instant (schedule_pass hoists the supply query out of its task loop).
  bool wind_abundant_given(Watts wind) const;
  /// Latest deadline-feasible start of a task at the top frequency.
  double latest_start(const SimTask& t) const;
  bool all_done() const {
    return done_count_ + failed_count_ == tasks_.size();
  }

  /// Append / remove a task on the intrusive running list (order-
  /// preserving O(1) bookkeeping).
  void link_running(std::size_t idx);
  void unlink_running(std::size_t idx);
  /// Drop a task's SoA row (order-preserving shift; re-points the row
  /// handles of every shifted task) and invalidate the incremental cache.
  void cols_remove(std::size_t idx);
  /// Fill the task's row of the per-level power table from its processors.
  void fill_power_table(std::size_t idx);
  /// Rebuild every member that is a pure function of the config and the
  /// primary state (idle_flags_, busy_time_s_, failed_, the running list):
  /// the thermal model and ScanTherm order, sleep stock powers, Knowledge
  /// quarantine, placement flags, idle lists and rank bits, power tables
  /// and SoA rows of the running tasks, and the scratch reservations.
  /// prepare() calls it after resetting the primary state; checkpoint load
  /// calls it after decoding and validating the saved state, so a resumed
  /// run sees exactly the derived state the saved run held.
  void rebuild_derived_state();
  /// Maintain the sorted idle-processor list at its mutation sites.
  void idle_insert(std::size_t p);
  void idle_remove(std::size_t p);
  /// Eq-3 slowdown of a running task at its current level.
  double level_slowdown(const SimTask& t) const {
    return t.spec.gamma * slowdown_ratio_[t.level] + 1.0;
  }

  const Knowledge* knowledge_;
  /// Non-null only via the mutable-knowledge constructor; needed to
  /// quarantine/release failed processors.
  Knowledge* knowledge_mut_ = nullptr;
  const HybridSupply* supply_;
  const WindForecaster* forecaster_;  // may be null
  SimConfig config_;
  PlacementPolicy policy_;
  PowerMatcher matcher_;
  CoolingModel cooling_;

  EventQueue queue_;
  EnergyMeter meter_;
  BatteryBank battery_;
  std::vector<SimTask> tasks_;
  std::vector<std::size_t> waiting_;       ///< task indices, arrival order
  std::size_t waiting_cpus_ = 0;           ///< total width of waiting_
  std::vector<std::size_t> proc_running_;  ///< task idx or kNone
  std::vector<double> busy_time_s_;
  /// Idle, non-reserved processors: flags + count and the rank bitset
  /// below are maintained for every rule. The sorted id list feeds only
  /// kRandom's scratch copy (maintain_idle_sorted_); the (busy time,
  /// id)-ordered list feeds only Fair's abundant-wind pick
  /// (maintain_idle_by_busy_). Busy time is frozen while a processor sits
  /// idle, so order maintenance happens purely at insert/remove.
  std::vector<std::uint8_t> idle_flags_;
  std::size_t idle_count_ = 0;
  std::vector<std::size_t> idle_sorted_;
  std::vector<std::size_t> idle_by_busy_;
  /// Rank-indexed idle bitset for the best-rank-first pick: bit r (word
  /// r/64) set means the processor with efficiency rank r is idle.
  /// Insert/remove is one bit op; PlacementPolicy::choose_soa pops picks
  /// with a ctz scan instead of walking the efficiency order
  /// (rank_of_proc_ caches the policy's rank table for the O(1) updates).
  std::vector<std::uint64_t> idle_rank_bits_;
  std::vector<std::size_t> rank_of_proc_;
  bool maintain_idle_sorted_ = false;   ///< kRandom only
  bool maintain_idle_by_busy_ = false;  ///< kFair only
  std::vector<std::size_t> pick_scratch_;  ///< choose_soa output buffer
  /// Running set: intrusive list through SimTask::run_prev/run_next, in
  /// start order (head is the longest-running task).
  std::size_t run_head_ = kNone;
  std::size_t run_tail_ = kNone;
  std::size_t run_count_ = 0;
  std::vector<std::size_t> idle_scratch_;  ///< kRandom's per-pass snapshot
  std::vector<bool> reserved_;             ///< isolated for profiling
  Watts reserved_power_;                   ///< IT power of active scans
  double profiling_proc_seconds_ = 0.0;
  std::size_t profiling_procs_scanned_ = 0;
  std::size_t profiling_procs_skipped_ = 0;
  /// The run's profiling plan (copied at prepare; scheduled events refer
  /// to windows by index).
  std::vector<ProfilingWindow> profiling_;
  /// One slot per scan that ever went live; `live` scans own reserved
  /// processors and have a pending kProfilingEnd event carrying the slot
  /// index. Slots are never reused (their count is bounded by the plan).
  struct ActiveScan {
    std::vector<std::size_t> procs;
    double started_s = 0.0;
    bool live = false;
  };
  std::vector<ActiveScan> scans_;
  /// True while a self-rechaining epoch/sample event is pending. A drain
  /// stops the chains (all_done); admit() restarts them at the next
  /// boundary so a long-running service keeps re-evaluating the supply.
  bool epoch_chain_live_ = false;
  bool sample_chain_live_ = false;

  /// Per-task per-level IT power [task * levels + level], in raw watts;
  /// rows are filled at task start and stay valid while the Knowledge
  /// generation is unchanged.
  std::vector<double> power_table_;
  std::uint64_t knowledge_gen_ = 0;        ///< generation the table matches
  MatchScratch match_scratch_;             ///< matcher floor/heap scratch
  /// SoA mirror of the running set in running-list order (see
  /// matcher_columns.hpp) plus the cached greedy trajectory for the
  /// incremental delta-rematch.
  MatcherColumns cols_;
  IncrementalMatchState inc_;
  std::vector<double> slowdown_ratio_;     ///< (fmax / f_l - 1) per level

  std::vector<TimelineEvent> timeline_;
  Watts demand_;
  double last_accrual_s_ = 0.0;
  Watts segment_wind_;           ///< wind available during current segment
  std::size_t done_count_ = 0;
  std::size_t events_run_ = 0;  ///< events processed since prepare()
  std::size_t rematch_count_ = 0;
  double total_wait_s_ = 0.0;
  std::size_t miss_count_ = 0;
  double makespan_s_ = 0.0;
  bool in_pass_ = false;  ///< re-entrancy guard for schedule_pass
  /// Set while a deadline-forced task is blocked waiting for processors:
  /// the matcher then rushes running tasks to the top level to free CPUs
  /// ("we stop lowering the frequency when some tasks are facing violation
  /// of their deadlines" -- paper Sec. V-C).
  bool rush_mode_ = false;

  /// --- fault injection ---------------------------------------------------
  /// The resolved plan (config override, built from the spec, or the empty
  /// plan). `faults_active_` is false for the empty plan, in which case the
  /// run takes no fault branch, schedules no fault event and stays
  /// bit-identical to a fault-free build.
  FaultPlan plan_local_;
  const FaultPlan* plan_ = nullptr;
  bool faults_active_ = false;
  std::unique_ptr<NoisyForecaster> noisy_forecaster_;
  std::vector<std::uint8_t> failed_;   ///< per-proc: currently fail-stopped
  /// Per-proc: latent mis-profile still live (cleared once it fires).
  std::vector<std::uint8_t> misprofile_armed_;
  /// Per-proc token; bumped whenever the processor stops running, so a
  /// pending mis-profile timer from an earlier occupancy is stale.
  std::vector<std::uint64_t> misprofile_token_;
  std::size_t failed_count_ = 0;       ///< terminally failed tasks
  FaultCounters fault_counters_;

  /// --- thermal model state (src/thermal/) --------------------------------
  /// All of it is inert when config_.thermal.enabled is false: the model is
  /// never built, no kThermal event is scheduled, and demand keeps the
  /// legacy composition (ThermalOffIdentity pins this).
  std::unique_ptr<ThermalModel> thermal_model_;  ///< flat runs only
  /// Sharded: the coordinator owns the model and pushes solutions; this
  /// shard's kThermal events apply them instead of solving.
  bool thermal_external_ = false;
  bool thermal_chain_live_ = false;
  bool therm_order_installed_ = false;
  double cop_now_ = 0.0;        ///< CRAC COP billing applies right now
  double supply_c_now_ = 0.0;   ///< current CRAC supply temperature
  double peak_inlet_c_ = 0.0;   ///< hottest rack inlet seen this run
  bool thermal_pending_ = false;  ///< a pushed solution awaits application
  double pending_cop_ = 0.0;
  double pending_supply_c_ = 0.0;
  double pending_peak_c_ = 0.0;
  Watts last_compute_;          ///< IT compute power of the latest match
  Watts cooling_power_;         ///< current CRAC (or Eq-2) draw
  double cooling_joules_ = 0.0;
  double idle_joules_ = 0.0;
  std::vector<double> rack_w_scratch_;
  /// config_.thermal.enabled || config_.sleep.enabled(): demand is composed
  /// by recompute_demand() instead of the legacy rematch() line.
  bool extras_active_ = false;

  /// --- sleep management state (hardware/sleep.hpp) -----------------------
  bool sleep_active_ = false;   ///< cached config_.sleep.enabled()
  /// Current C-state depth of each *idle* processor (0 = active idle,
  /// d > 0 = config_.sleep.states[d - 1]). Stale while the processor runs;
  /// start_task reads it right after claiming to derive the wake latency.
  std::vector<std::uint8_t> sleep_state_;
  /// Bumped whenever the processor leaves the idle pool; stales any
  /// pending kSleepEnter descent scheduled for the previous idle stint.
  std::vector<std::uint64_t> sleep_token_;
  std::vector<double> sleep_stock_w_;  ///< stock top-level watts per proc
  /// Sum of (residency fraction x stock watts) over idle processors. Raw
  /// accumulator: additions/removals replay exactly, so its FP history is
  /// deterministic; clamped at >= 0 where it feeds demand.
  double idle_power_w_ = 0.0;
  std::size_t sleeping_count_ = 0;  ///< processors at depth > 0
  std::size_t sleep_enters_ = 0;    ///< C-state descents taken
  std::size_t sleep_wakes_ = 0;     ///< task starts delayed by a wake
};

/// Convenience wrapper: build knowledge for `scheme`, run the simulation,
/// and price the result. `db` is required for Scan schemes.
SimResult run_scheme(const Cluster& cluster, Scheme scheme,
                     const ProfileDb* db, const HybridSupply& supply,
                     const std::vector<Task>& tasks, const SimConfig& config);

}  // namespace iscope
