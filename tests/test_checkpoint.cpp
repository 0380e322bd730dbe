// Checkpoint/restore contracts (DESIGN.md Sec. 15, service/checkpoint.hpp).
//
//  * Resume determinism: run-to-completion == run / checkpoint / restore /
//    run, compared bitwise on the full SimResult -- across all five
//    schemes, +- battery, +- profiling windows, +- fault injection, and
//    through the sharded coordinator.
//  * Randomized cut points: 50 seeds checkpoint at an arbitrary epoch of an
//    arbitrary scheme's run and must still resume bit-identically.
//  * Rejection: bad magic, version skew, kind mismatch, identity mismatch,
//    truncation at every prefix length and out-of-range event payloads
//    raise CheckpointError -- never a crash, never a silently wrong
//    simulator.
//  * Streamed admission: prepare({}) + admit() in submit order == one batch
//    prepare(tasks) (the daemon's equivalence contract).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "energy/hybrid_supply.hpp"
#include "fault/fault.hpp"
#include "profiling/scanner.hpp"
#include "service/checkpoint.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace iscope {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_identical(const SimResult& a, const SimResult& b) {
  // Exact equality everywhere: both runs must execute the same arithmetic
  // in the same order, so EXPECT_EQ on doubles is bitwise-meaningful.
  EXPECT_EQ(a.energy.wind.joules(), b.energy.wind.joules());
  EXPECT_EQ(a.energy.utility.joules(), b.energy.utility.joules());
  EXPECT_EQ(a.cost.dollars(), b.cost.dollars());
  EXPECT_EQ(a.wind_curtailed.joules(), b.wind_curtailed.joules());
  EXPECT_EQ(a.battery_delivered.joules(), b.battery_delivered.joules());
  EXPECT_EQ(a.battery_losses.joules(), b.battery_losses.joules());
  EXPECT_EQ(a.cooling_energy.joules(), b.cooling_energy.joules());
  EXPECT_EQ(a.idle_energy.joules(), b.idle_energy.joules());
  EXPECT_EQ(a.peak_inlet_c, b.peak_inlet_c);
  EXPECT_EQ(a.sleep_enters, b.sleep_enters);
  EXPECT_EQ(a.sleep_wakes, b.sleep_wakes);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.mean_wait.seconds(), b.mean_wait.seconds());
  EXPECT_EQ(a.makespan.seconds(), b.makespan.seconds());
  EXPECT_EQ(a.busy_variance_h2, b.busy_variance_h2);
  EXPECT_EQ(a.procs_used_fraction, b.procs_used_fraction);
  EXPECT_EQ(a.dvfs_rematch_count, b.dvfs_rematch_count);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.profiling_procs_scanned, b.profiling_procs_scanned);
  EXPECT_EQ(a.profiling_procs_skipped, b.profiling_procs_skipped);
  EXPECT_EQ(a.profiling_proc_seconds, b.profiling_proc_seconds);
  EXPECT_EQ(a.faults.cpu_failures, b.faults.cpu_failures);
  EXPECT_EQ(a.faults.cpu_repairs, b.faults.cpu_repairs);
  EXPECT_EQ(a.faults.misprofile_failures, b.faults.misprofile_failures);
  EXPECT_EQ(a.faults.task_requeues, b.faults.task_requeues);
  EXPECT_EQ(a.faults.tasks_failed, b.faults.tasks_failed);
  EXPECT_EQ(a.faults.lost_cpu_seconds, b.faults.lost_cpu_seconds);
  EXPECT_EQ(a.faults.fault_deadline_misses, b.faults.fault_deadline_misses);

  ASSERT_EQ(a.busy_time_s.size(), b.busy_time_s.size());
  for (std::size_t i = 0; i < a.busy_time_s.size(); ++i)
    EXPECT_EQ(a.busy_time_s[i], b.busy_time_s[i]) << "proc " << i;

  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].time.seconds(), b.trace[i].time.seconds());
    EXPECT_EQ(a.trace[i].demand.watts(), b.trace[i].demand.watts());
    EXPECT_EQ(a.trace[i].wind.watts(), b.trace[i].wind.watts());
    EXPECT_EQ(a.trace[i].utility.watts(), b.trace[i].utility.watts());
    EXPECT_EQ(a.trace[i].wind_avail.watts(), b.trace[i].wind_avail.watts());
    EXPECT_EQ(a.trace[i].battery.watts(), b.trace[i].battery.watts());
  }

  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time_s, b.timeline[i].time_s) << "event " << i;
    EXPECT_EQ(a.timeline[i].kind, b.timeline[i].kind) << "event " << i;
    EXPECT_EQ(a.timeline[i].task_id, b.timeline[i].task_id) << "event " << i;
    EXPECT_EQ(a.timeline[i].value, b.timeline[i].value) << "event " << i;
  }
}

/// Small fully-scanned facility (mirrors tests/test_shard.cpp).
struct Scenario {
  Cluster cluster;
  ProfileDb db;

  explicit Scenario(std::size_t n, std::uint64_t seed)
      : cluster(build_cluster([&] {
          ClusterConfig cfg;
          cfg.num_processors = n;
          cfg.seed = seed;
          return cfg;
        }())),
        db(n) {
    const Scanner scanner(&cluster, ScanConfig{});
    Rng rng(seed + 7);
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    scanner.scan_domain(all, 0.0, rng, db);
  }

  std::vector<Task> make_tasks(std::size_t count, std::size_t max_cpus,
                               std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Task> tasks;
    tasks.reserve(count);
    double submit = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      submit += rng.uniform(0.0, 400.0);
      Task t;
      t.id = static_cast<std::int64_t>(i + 1);
      t.submit_s = submit;
      t.cpus = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(max_cpus)));
      t.runtime_s = rng.uniform(100.0, 2000.0);
      t.gamma = rng.uniform(0.3, 1.0);
      t.deadline_s = t.submit_s + t.runtime_s * rng.uniform(1.5, 10.0);
      tasks.push_back(t);
    }
    return tasks;
  }

  HybridSupply make_supply(std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<double> watts;
    Watts peak;
    const std::size_t top = cluster.levels().freq_ghz.size() - 1;
    for (std::size_t p = 0; p < cluster.size(); ++p)
      peak += cluster.power(p, top, Volts{cluster.levels().vdd_nom[top]});
    for (std::size_t i = 0; i < 200; ++i)
      watts.push_back(rng.uniform(0.0, 0.9 * peak.watts()));
    return HybridSupply(SupplyTrace(Seconds{600.0}, std::move(watts)));
  }

  SimResult run_batch(Scheme scheme, const std::vector<Task>& tasks,
                      const HybridSupply& supply, const SimConfig& cfg,
                      const std::vector<ProfilingWindow>& profiling = {})
      const {
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks, profiling);
  }

  /// The tentpole invariant: step to `ck_time`, checkpoint, restore into a
  /// freshly constructed simulator, run both to completion -- bitwise
  /// equal SimResults. Saving is non-destructive, so the checkpointed
  /// simulator itself continues as the uninterrupted baseline. When the
  /// cut lands inside the run (ck <= makespan) the baseline is further
  /// required to equal a plain batch run(); past the end the clock parks
  /// at ck and finish() accrues the extra idle interval in both runs
  /// identically -- deterministic, but not a state a batch run visits.
  void check_roundtrip(Scheme scheme, const std::vector<Task>& tasks,
                       const HybridSupply& supply, const SimConfig& cfg,
                       double ck_time,
                       const std::vector<ProfilingWindow>& profiling = {})
      const {
    Knowledge k1(&cluster, scheme_knowledge(scheme),
                 scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim1(&k1, scheme_rule(scheme), &supply, cfg);
    sim1.prepare(tasks, profiling);
    sim1.step_until(ck_time);
    const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);

    Knowledge k2(&cluster, scheme_knowledge(scheme),
                 scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim2(&k2, scheme_rule(scheme), &supply, cfg);
    sim2.prepare({}, {});
    restore_from_bytes(sim2, blob.data(), blob.size());

    sim1.advance_before(kInf);
    const SimResult uninterrupted = sim1.finish();
    sim2.advance_before(kInf);
    const SimResult resumed = sim2.finish();
    expect_identical(uninterrupted, resumed);

    if (ck_time <= uninterrupted.makespan.seconds()) {
      const SimResult batch =
          run_batch(scheme, tasks, supply, cfg, profiling);
      expect_identical(batch, resumed);
    }
  }
};

std::vector<ProfilingWindow> spread_windows(std::size_t procs) {
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 4; ++w) {
    ProfilingWindow win;
    win.start_s = 500.0 + 2500.0 * static_cast<double>(w);
    win.duration_s = 900.0;
    win.proc_ids = {w, (w + procs / 3) % procs, (w + 2 * procs / 3) % procs};
    windows.push_back(win);
  }
  return windows;
}

SimConfig base_config() {
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.record_timeline = true;
  return cfg;
}

// --- the full scheme x battery x profiling x faults matrix ----------------

TEST(Checkpoint, AllSchemesMidRun) {
  const Scenario sc(24, 11);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 21);
  const HybridSupply supply = sc.make_supply(31);
  for (const Scheme scheme : kAllSchemes)
    sc.check_roundtrip(scheme, tasks, supply, base_config(), 5000.0);
}

TEST(Checkpoint, WithBattery) {
  const Scenario sc(24, 12);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 22);
  const HybridSupply supply = sc.make_supply(32);
  SimConfig cfg = base_config();
  cfg.battery = BatteryConfig::make(2.0, 1.0);
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi})
    sc.check_roundtrip(scheme, tasks, supply, cfg, 4000.0);
}

TEST(Checkpoint, WithProfilingWindows) {
  const Scenario sc(24, 13);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 23);
  const HybridSupply supply = sc.make_supply(33);
  const std::vector<ProfilingWindow> windows = spread_windows(24);
  // Cut inside the third window (start 5500, duration 900) so in-flight
  // scan state crosses the checkpoint.
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kScanEffi})
    sc.check_roundtrip(scheme, tasks, supply, base_config(), 5900.0, windows);
}

TEST(Checkpoint, WithFaults) {
  const Scenario sc(24, 14);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 24);
  const HybridSupply supply = sc.make_supply(34);
  SimConfig cfg = base_config();
  cfg.faults.crash_mtbf_s = 40000.0;
  cfg.faults.repair_mean_s = 900.0;
  cfg.faults.misprofile_prob = 0.05;
  cfg.fault_seed = 99;
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kScanRan})
    sc.check_roundtrip(scheme, tasks, supply, cfg, 4500.0);
}

TEST(Checkpoint, EverythingAtOnce) {
  const Scenario sc(24, 15);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 25);
  const HybridSupply supply = sc.make_supply(35);
  SimConfig cfg = base_config();
  cfg.battery = BatteryConfig::make(2.0, 1.0);
  cfg.faults.crash_mtbf_s = 50000.0;
  cfg.faults.repair_mean_s = 1200.0;
  cfg.fault_seed = 7;
  sc.check_roundtrip(Scheme::kScanFair, tasks, supply, cfg, 5200.0,
                     spread_windows(24));
}

// --- format v2: thermal + sleep state across the checkpoint ---------------

TEST(Checkpoint, ThermalAndSleepAllSchemesMidRun) {
  // Pending kThermal/kSleepEnter/kWake events, per-processor C-state
  // ladders and the CRAC operating point all cross the cut.
  const Scenario sc(24, 41);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 51);
  const HybridSupply supply = sc.make_supply(61);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 120.0;
  for (const Scheme scheme : kAllSchemes)
    sc.check_roundtrip(scheme, tasks, supply, cfg, 5000.0);
}

TEST(Checkpoint, ThermalSleepWithBatteryAndCracFault) {
  const Scenario sc(24, 42);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 52);
  const HybridSupply supply = sc.make_supply(62);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kImmediate;
  cfg.battery = BatteryConfig::make(2.0, 1.0);
  // Cut inside the degraded-CRAC window so the derated operating point is
  // the one that crosses the checkpoint.
  cfg.faults = parse_fault_spec(
      "mtbf=50000,repair=1200,crac=0.4,crac-start=3000,crac-duration=9000");
  cfg.fault_seed = 7;
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi})
    sc.check_roundtrip(scheme, tasks, supply, cfg, 5200.0);
}

TEST(Checkpoint, ScanThermSchemeRoundtrip) {
  // The kTherm placement rule derives its order from the recirculation
  // matrix; load() must reinstall it before the rank tables rebuild.
  const Scheme scan_therm = ensure_extended_schemes_registered();
  const Scenario sc(24, 43);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 53);
  const HybridSupply supply = sc.make_supply(63);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.thermal.enabled = true;  // run_scheme would set this for ScanTherm
  sc.check_roundtrip(scan_therm, tasks, supply, cfg, 5000.0);
}

TEST(Checkpoint, ShardedThermalRoundtrip) {
  const Scenario sc(24, 44);
  const std::vector<Task> tasks = sc.make_tasks(40, 3, 54);
  const HybridSupply supply = sc.make_supply(64);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 4;
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 180.0;

  ShardedSim batch(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  const SimResult expected = batch.run(tasks);
  EXPECT_GT(expected.cooling_energy.joules(), 0.0);

  ShardedSim sim1(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim1.prepare(tasks, {});
  for (int round = 0; round < 8 && !sim1.drained(); ++round)
    sim1.advance_round();
  const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);

  ShardedSim sim2(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim2.prepare({}, {});
  restore_from_bytes(sim2, blob.data(), blob.size());
  while (!sim2.drained()) sim2.advance_round();
  expect_identical(expected, sim2.collect());
}

// --- the byte layout, pinned ----------------------------------------------

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Checkpoint, FormatDigestPinned) {
  // One mid-run simulator with every optional section carrying live state:
  // battery, an in-flight profiling window, crash + mis-profile faults,
  // thermal and sleep. Reordering, adding or retyping any field moves the
  // digest; a deliberate format change regenerates it together with
  // kCheckpointVersion (last: v4, the matcher-mode identity without the
  // reference-matcher flag).
  const Scenario sc(24, 45);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 55);
  const HybridSupply supply = sc.make_supply(65);
  SimConfig cfg = base_config();
  cfg.battery = BatteryConfig::make(2.0, 1.0);
  cfg.topology.cpus_per_rack = 2;
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 120.0;
  cfg.faults = parse_fault_spec("mtbf=50000,repair=1200,misprofile=0.05");
  cfg.fault_seed = 7;
  Knowledge k(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
  DatacenterSim sim(&k, scheme_rule(Scheme::kScanFair), &supply, cfg);
  sim.prepare(tasks, spread_windows(24));
  sim.step_until(5900.0);  // inside the third profiling window
  std::set<TimelineKind> seen;
  for (const TimelineEvent& e : sim.timeline()) seen.insert(e.kind);
  for (const TimelineKind kind :
       {TimelineKind::kProfilingBegin, TimelineKind::kCpuFail,
        TimelineKind::kSleepEnter, TimelineKind::kTaskWaking})
    EXPECT_EQ(seen.count(kind), 1u) << "kind " << static_cast<int>(kind);
  EXPECT_EQ(fnv1a(checkpoint_bytes(sim)), 0xd0fc8d9271f73b99ull);
}

// --- randomized cut points over 50 seeds ----------------------------------

TEST(Checkpoint, RandomizedEpochsFiftySeeds) {
  const Scenario sc(16, 16);
  const HybridSupply supply = sc.make_supply(36);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 1000 + 17);
    const Scheme scheme = kAllSchemes[seed % kAllSchemes.size()];
    const std::vector<Task> tasks = sc.make_tasks(20, 4, seed + 41);
    SimConfig cfg = base_config();
    // Unaligned cut points exercise mid-epoch, mid-task, pre-first-event
    // and past-the-end positions alike.
    const double ck = rng.uniform(0.0, 15000.0);
    SCOPED_TRACE("seed " + std::to_string(seed) + " scheme " +
                 scheme_name(scheme) + " ck " + std::to_string(ck));
    sc.check_roundtrip(scheme, tasks, supply, cfg, ck);
  }
}

// --- sharded coordinator round-trip ---------------------------------------

TEST(Checkpoint, ShardedRoundtrip) {
  const Scenario sc(24, 18);
  const std::vector<Task> tasks = sc.make_tasks(40, 3, 28);
  const HybridSupply supply = sc.make_supply(38);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 4;

  ShardedSim batch(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  const SimResult expected = batch.run(tasks);

  ShardedSim sim1(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim1.prepare(tasks, {});
  for (int round = 0; round < 8 && !sim1.drained(); ++round)
    sim1.advance_round();
  const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);

  ShardedSim sim2(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim2.prepare({}, {});
  restore_from_bytes(sim2, blob.data(), blob.size());
  while (!sim2.drained()) sim2.advance_round();
  const SimResult resumed = sim2.collect();

  expect_identical(expected, resumed);
}

// --- streamed admission == batch prepare ----------------------------------

TEST(Checkpoint, StreamedAdmissionMatchesBatch) {
  const Scenario sc(24, 19);
  std::vector<Task> tasks = sc.make_tasks(40, 6, 29);
  const HybridSupply supply = sc.make_supply(39);
  const SimConfig cfg = base_config();

  const SimResult batch =
      sc.run_batch(Scheme::kScanFair, tasks, supply, cfg);

  Knowledge k(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
  DatacenterSim sim(&k, scheme_rule(Scheme::kScanFair), &supply, cfg);
  sim.prepare({}, {});
  sort_by_submit(tasks);
  // Interleave admission with clock advances. The first admit happens at
  // clock 0 so the epoch/sample chains start where a batch prepare()
  // starts them, and there is always one admitted not-yet-arrived task, so
  // the chains never die mid-stream (DatacenterSim::admit's equivalence
  // contract).
  sim.admit(tasks.front());
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    sim.step_until(tasks[i - 1].submit_s);
    sim.admit(tasks[i]);
  }
  sim.advance_before(kInf);
  expect_identical(batch, sim.finish());
}

// --- rejection paths ------------------------------------------------------

struct Rejection : ::testing::Test {
  Rejection() : sc(12, 20), supply(sc.make_supply(40)) {}

  std::vector<std::uint8_t> make_blob(std::uint64_t seed = 2015) {
    cfg = base_config();
    cfg.seed = seed;
    k = std::make_unique<Knowledge>(&sc.cluster,
                                    scheme_knowledge(Scheme::kScanFair),
                                    &sc.db);
    sim = std::make_unique<DatacenterSim>(
        k.get(), scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim->prepare(sc.make_tasks(10, 3, 30), {});
    sim->step_until(2000.0);
    return checkpoint_bytes(*sim);
  }

  void expect_reject(const std::vector<std::uint8_t>& blob) {
    Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
    DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim2.prepare({}, {});
    EXPECT_THROW(restore_from_bytes(sim2, blob.data(), blob.size()),
                 CheckpointError);
  }

  /// Same staging with the thermal + sleep subsystems and a crash plan
  /// live, so those sections carry real state.
  std::vector<std::uint8_t> make_thermal_blob() {
    cfg = base_config();
    cfg.topology.cpus_per_rack = 2;
    cfg.thermal.enabled = true;
    cfg.sleep.policy = SleepPolicy::kTimeout;
    cfg.sleep.timeout_s = 120.0;
    cfg.faults = parse_fault_spec("mtbf=20000,repair=1200");
    cfg.fault_seed = 7;
    k = std::make_unique<Knowledge>(&sc.cluster,
                                    scheme_knowledge(Scheme::kScanFair),
                                    &sc.db);
    sim = std::make_unique<DatacenterSim>(
        k.get(), scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim->prepare(sc.make_tasks(10, 3, 30), {});
    sim->step_until(2000.0);
    return checkpoint_bytes(*sim);
  }

  Scenario sc;
  HybridSupply supply;
  SimConfig cfg;
  std::unique_ptr<Knowledge> k;
  std::unique_ptr<DatacenterSim> sim;
};

TEST_F(Rejection, BadMagic) {
  std::vector<std::uint8_t> blob = make_blob();
  blob[0] ^= 0xff;
  expect_reject(blob);
}

TEST_F(Rejection, VersionSkew) {
  std::vector<std::uint8_t> blob = make_blob();
  blob[4] = static_cast<std::uint8_t>(kCheckpointVersion + 1);
  expect_reject(blob);
}

TEST_F(Rejection, KindMismatch) {
  std::vector<std::uint8_t> blob = make_blob();
  blob[8] = 1;  // claims a sharded body inside a single-sim envelope
  expect_reject(blob);
}

TEST_F(Rejection, IdentityMismatch) {
  const std::vector<std::uint8_t> blob = make_blob(2015);
  // A simulator constructed with a different seed must refuse the blob.
  SimConfig other = cfg;
  other.seed = 2016;
  Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
  DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, other);
  sim2.prepare({}, {});
  EXPECT_THROW(restore_from_bytes(sim2, blob.data(), blob.size()),
               CheckpointError);
}

TEST_F(Rejection, TruncationAtEveryPrefix) {
  const std::vector<std::uint8_t> blob = make_blob();
  // Every strict prefix must reject cleanly. Stride keeps the quadratic
  // restore cost bounded; the first 64 lengths are covered exhaustively.
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 97)) {
    SCOPED_TRACE("prefix " + std::to_string(len));
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<std::ptrdiff_t>(len));
    expect_reject(cut);
  }
}

TEST_F(Rejection, ThermalConfigIdentityMismatch) {
  const std::vector<std::uint8_t> blob = make_thermal_blob();
  const auto restore = [&blob, this](const SimConfig& c,
                                     const HybridSupply& s) {
    Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
    DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &s, c);
    sim2.prepare({}, {});
    restore_from_bytes(sim2, blob.data(), blob.size());
  };
  EXPECT_NO_THROW(restore(cfg, supply));
  // The thermal/sleep knobs, the battery, the fault plan and the presence
  // of wind are identity: a restore under a different COP curve regime,
  // wake-latency ladder, storage bank, crash schedule (same fault seed,
  // different spec) or supply must refuse, not diverge.
  for (const auto tweak : {+[](SimConfig& c) { c.thermal.enabled = false; },
                           +[](SimConfig& c) { c.thermal.red_line_c = 35.0; },
                           +[](SimConfig& c) {
                             c.sleep.policy = SleepPolicy::kImmediate;
                           },
                           +[](SimConfig& c) { c.sleep.timeout_s = 60.0; },
                           +[](SimConfig& c) {
                             c.battery = BatteryConfig::make(2.0, 1.0);
                           },
                           +[](SimConfig& c) {
                             c.faults.crash_mtbf_s = 30000.0;
                           }}) {
    SimConfig other = cfg;
    tweak(other);
    EXPECT_THROW(restore(other, supply), CheckpointError);
  }
  EXPECT_THROW(restore(cfg, HybridSupply()), CheckpointError);
}

TEST_F(Rejection, TruncatedThermalSectionAtEveryPrefix) {
  // The blob ends ...thermal/sleep state, RNG string; cutting anywhere
  // inside those sections must reject cleanly, never restore a sim with
  // half a C-state ladder.
  const std::vector<std::uint8_t> blob = make_thermal_blob();
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 89)) {
    SCOPED_TRACE("prefix " + std::to_string(len));
    std::vector<std::uint8_t> cut(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    expect_reject(cut);
  }
  // And corrupt sleep depths (beyond the 3-rung ladder) are rejected even
  // when the frame is well-formed: flip high bits over the tail of the
  // blob until one lands on a depth byte -- every outcome must be a clean
  // CheckpointError or a successful restore, never UB (the fuzz corpus
  // pins the same property over random mutations).
  std::size_t rejected = 0;
  for (std::size_t i = blob.size() - 200; i < blob.size(); ++i) {
    std::vector<std::uint8_t> mut = blob;
    mut[i] ^= 0x80;
    Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
    DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim2.prepare({}, {});
    try {
      restore_from_bytes(sim2, mut.data(), mut.size());
    } catch (const CheckpointError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST_F(Rejection, FileRoundtripAndMissingFile) {
  const std::vector<std::uint8_t> blob = make_blob();
  const std::string path =
      ::testing::TempDir() + "iscope_ckpt_test.bin";
  write_checkpoint(path, blob);
  EXPECT_EQ(read_checkpoint(path), blob);
  // Overwriting replaces the file and leaves no temp file behind.
  write_checkpoint(path, {1, 2, 3});
  EXPECT_EQ(read_checkpoint(path), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_THROW(read_checkpoint(path + ".tmp"), CheckpointError);
  std::remove(path.c_str());
  EXPECT_THROW(read_checkpoint(path), CheckpointError);
  // A target in a missing directory fails before anything is renamed.
  EXPECT_THROW(write_checkpoint(::testing::TempDir() + "no_such_dir/ck", blob),
               Error);
  // A directory opens but cannot be read: a clean CheckpointError, not a
  // buffer sized from the directory's nonsense file length.
  EXPECT_THROW(read_checkpoint(::testing::TempDir()), CheckpointError);
}

TEST_F(Rejection, EventPayloadOutOfRange) {
  // Stage a run whose pending heap holds every index-carrying kind the
  // scenario can reach: arrivals and completions (task index), a pending
  // and an in-flight profiling window (window index, scan slot), the
  // fault-plan cursor and sleep descents (processor).
  cfg = base_config();
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 120.0;
  cfg.fault_plan = std::make_shared<const FaultPlan>(FaultPlan::scripted(
      {FaultEvent{1000.0, FaultKind::kCrash, 5},
       FaultEvent{2000.0, FaultKind::kRepair, 5},
       FaultEvent{4000.0, FaultKind::kCrash, 7},
       FaultEvent{5000.0, FaultKind::kRepair, 7}}));
  const std::vector<ProfilingWindow> windows = spread_windows(12);
  k = std::make_unique<Knowledge>(
      &sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
  sim = std::make_unique<DatacenterSim>(
      k.get(), scheme_rule(Scheme::kScanFair), &supply, cfg);
  sim->prepare(sc.make_tasks(30, 1, 30), windows);
  sim->step_until(3400.0);  // inside the second window
  const std::vector<std::uint8_t> blob = checkpoint_bytes(*sim);

  // Bounds, from the public surface: every admitted task, the plan's
  // windows, one scan slot per window that isolated a processor, the
  // scripted fault events, the facility's processors.
  using Kind = EventDesc::Kind;
  std::size_t scan_slots = 0;
  for (const TimelineEvent& e : sim->timeline())
    if (e.kind == TimelineKind::kProfilingBegin && e.value > 0.0) ++scan_slots;
  const auto bound = [&](Kind kind) -> std::uint64_t {
    switch (kind) {
      case Kind::kArrival:
      case Kind::kCompletion:
      case Kind::kWake:
        return sim->decision_snapshot().tasks_admitted;
      case Kind::kProfilingBegin:
        return windows.size();
      case Kind::kProfilingEnd:
        return scan_slots;
      case Kind::kFault:
        return cfg.fault_plan->events().size();
      case Kind::kMisprofileTimer:
      case Kind::kMisprofileRepair:
      case Kind::kSleepEnter:
        return sc.cluster.size();
      default:
        return 0;  // no index payload
    }
  };

  // Offset of the event section: envelope (magic, version, kind byte),
  // then the identity block -- 60 bytes of scalar identity (16 of them the
  // fault-plan event count and digest), 57 of thermal config, 17 + 16 per
  // C-state of sleep config, the thermal-external flag, 48 of battery
  // config and the wind flag -- then the queue's clock, next sequence
  // number, high-water mark and event count. Each event is time, seq, kind
  // byte, a, b, t.
  const auto u64_at = [&blob](std::size_t off) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
      v |= std::uint64_t{blob[off + i]} << (8 * i);
    return v;
  };
  const std::size_t queue_off =
      9 + 60 + 57 + 17 + 16 * cfg.sleep.states.size() + 1 + 48 + 1;
  ASSERT_EQ(std::bit_cast<double>(u64_at(queue_off)), sim->now_s());
  const std::size_t n_events = u64_at(queue_off + 24);
  constexpr std::size_t kEventBytes = 8 + 8 + 1 + 8 + 8 + 8;
  ASSERT_LE(queue_off + 32 + n_events * kEventBytes, blob.size());

  std::set<Kind> tested;
  for (std::size_t i = 0; i < n_events; ++i) {
    const std::size_t off = queue_off + 32 + i * kEventBytes;
    const std::uint8_t raw = blob[off + 16];
    ASSERT_GE(raw, static_cast<std::uint8_t>(Kind::kArrival));
    ASSERT_LE(raw, static_cast<std::uint8_t>(Kind::kWake));
    const auto kind = static_cast<Kind>(raw);
    const std::uint64_t limit = bound(kind);
    if (limit == 0 || !tested.insert(kind).second) continue;
    SCOPED_TRACE("event kind " + std::to_string(raw));
    ASSERT_LT(u64_at(off + 17), limit);  // the offset lands on a payload
    // The bound itself, and the all-ones word other index fields use as
    // their "none" sentinel: no event may carry it.
    for (const std::uint64_t bad : {limit, ~std::uint64_t{0}}) {
      std::vector<std::uint8_t> mut = blob;
      for (std::size_t b = 0; b < 8; ++b)
        mut[off + 17 + b] = static_cast<std::uint8_t>(bad >> (8 * b));
      expect_reject(mut);
    }
  }
  for (const Kind kind : {Kind::kArrival, Kind::kCompletion,
                          Kind::kProfilingBegin, Kind::kProfilingEnd,
                          Kind::kFault, Kind::kSleepEnter})
    EXPECT_EQ(tested.count(kind), 1u)
        << "kind " << static_cast<int>(kind) << " not staged";

  // The unmodified blob restores: the rejections above are the payloads'.
  Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
  DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, cfg);
  sim2.prepare({}, {});
  EXPECT_NO_THROW(restore_from_bytes(sim2, blob.data(), blob.size()));
}

}  // namespace
}  // namespace iscope
