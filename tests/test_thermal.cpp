// Thermal/CRAC + C-state sleep subsystem contracts (DESIGN.md Sec. 16).
//
//  * ThermalOffIdentity: thermal disabled + sleep kNone is bit-identical
//    to a default-config run even when every inert knob is changed -- the
//    subsystem must be provably absent when off.
//  * Model unit contracts: the COP curve, the recirculation matrix's
//    structure (middle racks recirculate more than end racks), and the
//    CRAC operating-point solve (clamping, derate).
//  * Accounting: thermal billing replaces the flat Eq-2 factor; sleep
//    residency power is metered; counters move only under their policy.
//  * Determinism: a 1-shard ShardedSim with thermal + sleep on is
//    bit-identical to the flat simulator; an N-shard run is independent
//    of shard_workers; step_until() slicing across wake boundaries is
//    bit-identical to one drain (PR 9 clock-fix coverage, sleep edition).
//  * Extended schemes: ScanTherm forces the thermal model on; the *Sleep
//    variants force a sleep policy.
//  * ThermalDigests: whole-run golden digests (thermal_digests.inc) of
//    thermal runs, flat and sharded, captured before the CRAC solve and
//    the rack-power gather learned to skip idle racks.
//  * ThermalSolveProperty: the production solve against the dense
//    row-major loop it replaced, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "profiling/scanner.hpp"
#include "result_digest.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "thermal/thermal.hpp"

namespace iscope {
namespace {

void expect_identical(const SimResult& a, const SimResult& b) {
  // Exact FP equality: both runs must execute the same arithmetic in the
  // same order, so EXPECT_EQ on doubles is bitwise-meaningful.
  EXPECT_EQ(a.energy.wind.joules(), b.energy.wind.joules());
  EXPECT_EQ(a.energy.utility.joules(), b.energy.utility.joules());
  EXPECT_EQ(a.cost.raw(), b.cost.raw());
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
  ASSERT_EQ(a.busy_time_s.size(), b.busy_time_s.size());
  for (std::size_t i = 0; i < a.busy_time_s.size(); ++i)
    EXPECT_EQ(a.busy_time_s[i], b.busy_time_s[i]) << "proc " << i;
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].time.seconds(), b.trace[i].time.seconds());
    EXPECT_EQ(a.trace[i].demand.watts(), b.trace[i].demand.watts());
    EXPECT_EQ(a.trace[i].wind.watts(), b.trace[i].wind.watts());
    EXPECT_EQ(a.trace[i].utility.watts(), b.trace[i].utility.watts());
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
                               std::uint64_t seed,
                               double max_gap_s = 400.0) const {
    Rng rng(seed);
    std::vector<Task> tasks;
    tasks.reserve(count);
    double submit = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      submit += rng.uniform(0.0, max_gap_s);
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

  SimConfig base_config() const {
    SimConfig cfg;
    cfg.record_trace = true;
    cfg.record_timeline = true;
    cfg.topology.cpus_per_rack = 2;
    return cfg;
  }

  SimResult run_flat(Scheme scheme, const std::vector<Task>& tasks,
                     const HybridSupply& supply, const SimConfig& cfg) const {
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks);
  }

  SimResult run_sharded(Scheme scheme, const std::vector<Task>& tasks,
                        const HybridSupply& supply, SimConfig cfg,
                        std::size_t shards, std::size_t workers) const {
    cfg.topology.shards = shards;
    cfg.shard_workers = workers;
    ShardedSim sim(cluster, scheme, scheme_uses_scan(scheme) ? &db : nullptr,
                   supply, cfg);
    return sim.run(tasks);
  }
};

// ------------------------------------------------------------ model units

TEST(ThermalModel, CracCopCurveMatchesMooreEtAl) {
  // COP(T) = 0.0068 T^2 + 0.0008 T + 0.458.
  EXPECT_DOUBLE_EQ(crac_cop(25.0), 0.0068 * 625.0 + 0.0008 * 25.0 + 0.458);
  EXPECT_DOUBLE_EQ(crac_cop(15.0), 0.0068 * 225.0 + 0.0008 * 15.0 + 0.458);
  // Colder supply is strictly less efficient.
  EXPECT_LT(crac_cop(15.0), crac_cop(25.0));
}

TEST(ThermalModel, MatrixMiddleRacksRecirculateMore) {
  ThermalConfig cfg;
  cfg.enabled = true;
  TopologyConfig topo;
  topo.cpus_per_rack = 2;
  topo.racks_per_row = 8;  // one aisle row, ends vs middle well-defined
  const RecirculationMatrix m(cfg, topo, /*racks=*/8);
  ASSERT_EQ(m.racks(), 8u);
  // Rows are normalized, so the diagonal is not the raw self-coupling --
  // but self-coupling still dominates every row, and nothing is negative.
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_GE(m.at(i, j), 0.0);
      if (j != i) {
        EXPECT_GT(m.at(i, i), m.at(i, j)) << i << "," << j;
      }
    }
  }
  // A watt in a mid-row rack raises more total inlet temperature than a
  // watt at the row's end (geedo0's MinHR ranking rationale).
  double max_end = std::max(m.heat_weight(0), m.heat_weight(7));
  double min_mid = std::min(m.heat_weight(3), m.heat_weight(4));
  EXPECT_GT(min_mid, max_end);
}

TEST(ThermalModel, SolveClampsSupplyAndReportsPeak) {
  ThermalConfig cfg;
  cfg.enabled = true;
  TopologyConfig topo;
  topo.cpus_per_rack = 2;
  const ThermalModel model(cfg, topo, 4);

  // No load: no recirculation, the CRAC relaxes to its warmest supply.
  ThermalSolution idle = model.solve({0.0, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(idle.supply_c, cfg.max_supply_c);
  EXPECT_DOUBLE_EQ(idle.max_rise_c, 0.0);
  EXPECT_DOUBLE_EQ(idle.peak_inlet_c, cfg.max_supply_c);

  // Moderate load: supply drops to hold the hottest inlet at the red line.
  ThermalSolution warm = model.solve({2000.0, 2000.0, 2000.0, 2000.0});
  EXPECT_LT(warm.supply_c, cfg.max_supply_c);
  EXPECT_GE(warm.supply_c, cfg.min_supply_c);
  EXPECT_GT(warm.peak_inlet_c, warm.supply_c);
  EXPECT_LE(warm.peak_inlet_c, cfg.red_line_c + 1e-9);

  // Extreme load: the supply pegs at its floor and the inlets run past
  // the red line -- reported, not hidden.
  ThermalSolution hot = model.solve({9e4, 9e4, 9e4, 9e4});
  EXPECT_DOUBLE_EQ(hot.supply_c, cfg.min_supply_c);
  EXPECT_GT(hot.peak_inlet_c, cfg.red_line_c);

  // A degraded CRAC delivers the same air at a worse COP.
  ThermalSolution derated = model.solve({2000.0, 2000.0, 2000.0, 2000.0}, 0.5);
  EXPECT_DOUBLE_EQ(derated.supply_c, warm.supply_c);
  EXPECT_LT(derated.cop, warm.cop);
}

TEST(ThermalModel, ValidateRejectsNonFiniteFields) {
  // An infinite self-coupling used to pass validate(), fill the matrix
  // with NaN and make solve() report max_rise_c = 0 under any load.
  TopologyConfig topo;
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (double ThermalConfig::*field :
         {&ThermalConfig::red_line_c, &ThermalConfig::min_supply_c,
          &ThermalConfig::max_supply_c, &ThermalConfig::self_coupling_k_per_w,
          &ThermalConfig::row_decay_racks, &ThermalConfig::cross_row_coupling,
          &ThermalConfig::cross_row_decay_rows}) {
      ThermalConfig cfg;
      cfg.enabled = true;
      cfg.*field = bad;
      EXPECT_THROW(cfg.validate(), InvalidArgument) << bad;
      EXPECT_THROW(ThermalModel(cfg, topo, 4), InvalidArgument) << bad;
    }
  }
  ThermalConfig inf_coupling;
  inf_coupling.self_coupling_k_per_w = std::numeric_limits<double>::infinity();
  SimConfig sim;
  sim.thermal = inf_coupling;
  EXPECT_THROW(sim.validate(), InvalidArgument);
}

TEST(ThermalModel, MatrixRejectsNonFiniteCells) {
  // Finite but extreme: the row normalization's numerator and the row sum
  // both overflow, and inf / inf leaves NaN cells. The solve's exactness
  // argument needs finite cells, so construction refuses.
  ThermalConfig cfg;
  cfg.self_coupling_k_per_w = std::numeric_limits<double>::max();
  TopologyConfig topo;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_THROW(RecirculationMatrix(cfg, topo, 20), InvalidArgument);
  // Large but representable couplings build a usable matrix.
  cfg.self_coupling_k_per_w = 1e300;
  const RecirculationMatrix m(cfg, topo, 20);
  for (std::size_t i = 0; i < m.racks(); ++i)
    for (std::size_t j = 0; j < m.racks(); ++j) {
      EXPECT_TRUE(std::isfinite(m.at(i, j)));
      EXPECT_GE(m.at(i, j), 0.0);
    }
}

TEST(ThermalModel, ColumnViewMatchesCells) {
  ThermalConfig cfg;
  TopologyConfig topo;
  topo.racks_per_row = 4;
  const RecirculationMatrix m(cfg, topo, 11);
  for (std::size_t j = 0; j < m.racks(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < m.racks(); ++i) {
      EXPECT_EQ(m.column(j)[i], m.at(i, j));
      sum += m.at(i, j);
    }
    EXPECT_EQ(sum, m.heat_weight(j));  // same order: i ascending
  }
}

// ----------------------------------------------------- off-path identity

TEST(ThermalOffIdentity, DisabledKnobsAreInert) {
  // thermal.enabled=false + sleep kNone must be bit-identical to a config
  // that never mentioned either subsystem, whatever the inert knobs say.
  const Scenario s(16, 101);
  const auto tasks = s.make_tasks(30, 6, 201);
  const HybridSupply supply = s.make_supply(301);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimResult base = s.run_flat(scheme, tasks, supply, s.base_config());
    SimConfig knobs = s.base_config();
    knobs.thermal.red_line_c = 99.0;
    knobs.thermal.self_coupling_k_per_w = 1.0;
    knobs.thermal.cross_row_coupling = 0.9;
    knobs.sleep.timeout_s = 1.0;
    knobs.sleep.active_idle_frac = 0.99;
    const SimResult tweaked = s.run_flat(scheme, tasks, supply, knobs);
    expect_identical(base, tweaked);
    // And the subsystem's outputs are provably absent.
    EXPECT_EQ(base.cooling_energy.joules(), 0.0);
    EXPECT_EQ(base.idle_energy.joules(), 0.0);
    EXPECT_EQ(base.peak_inlet_c, 0.0);
    EXPECT_EQ(base.sleep_enters, 0u);
    EXPECT_EQ(base.sleep_wakes, 0u);
  }
}

// ---------------------------------------------------------- accounting

TEST(ThermalAccounting, EnabledModelBillsCoolingAndTracksPeakInlet) {
  const Scenario s(16, 103);
  const auto tasks = s.make_tasks(30, 6, 203);
  const HybridSupply supply = s.make_supply(303);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  const SimResult r = s.run_flat(Scheme::kScanEffi, tasks, supply, cfg);
  EXPECT_GT(r.cooling_energy.joules(), 0.0);
  EXPECT_GE(r.peak_inlet_c, cfg.thermal.min_supply_c);
  EXPECT_EQ(r.tasks_completed, tasks.size());
  // The CRAC bill moved: thermal billing is not the flat Eq-2 overhead.
  const SimResult flat =
      s.run_flat(Scheme::kScanEffi, tasks, supply, s.base_config());
  EXPECT_NE(r.cost.raw(), flat.cost.raw());
}

TEST(ThermalAccounting, CracDerateWindowRaisesTheCoolingBill) {
  const Scenario s(16, 107);
  const auto tasks = s.make_tasks(30, 6, 207);
  const HybridSupply supply = s.make_supply(307);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  const SimResult healthy = s.run_flat(Scheme::kScanFair, tasks, supply, cfg);
  cfg.faults = parse_fault_spec("crac=0.5,crac-start=0,crac-duration=20000");
  const SimResult degraded = s.run_flat(Scheme::kScanFair, tasks, supply, cfg);
  EXPECT_GT(degraded.cooling_energy.joules(), healthy.cooling_energy.joules());
}

TEST(SleepAccounting, ActiveIdleBillsResidencyButNeverSleeps) {
  const Scenario s(16, 109);
  const auto tasks = s.make_tasks(25, 6, 209);
  const HybridSupply supply = s.make_supply(309);
  SimConfig cfg = s.base_config();
  cfg.sleep.policy = SleepPolicy::kActiveIdle;
  const SimResult r = s.run_flat(Scheme::kScanEffi, tasks, supply, cfg);
  EXPECT_GT(r.idle_energy.joules(), 0.0);
  EXPECT_EQ(r.sleep_enters, 0u);
  EXPECT_EQ(r.sleep_wakes, 0u);
  EXPECT_EQ(r.tasks_completed, tasks.size());
}

TEST(SleepAccounting, ImmediatePolicySleepsDeepAndDelaysStarts) {
  const Scenario s(16, 113);
  const auto tasks = s.make_tasks(25, 6, 211);
  const HybridSupply supply = s.make_supply(311);
  SimConfig active = s.base_config();
  active.sleep.policy = SleepPolicy::kActiveIdle;
  SimConfig deep = s.base_config();
  deep.sleep.policy = SleepPolicy::kImmediate;
  const SimResult base = s.run_flat(Scheme::kScanEffi, tasks, supply, active);
  const SimResult r = s.run_flat(Scheme::kScanEffi, tasks, supply, deep);
  EXPECT_GT(r.sleep_enters, 0u);
  EXPECT_GT(r.sleep_wakes, 0u);  // cold facility: first starts must wake
  EXPECT_EQ(r.tasks_completed, tasks.size());
  // Sleeping saves residency energy relative to the honest idle baseline...
  EXPECT_LT(r.idle_energy.joules(), base.idle_energy.joules());
  // ...at the price of wake latency on the critical path.
  EXPECT_GE(r.makespan.seconds(), base.makespan.seconds());
}

TEST(SleepAccounting, TimeoutPolicyDescendsAfterResidency) {
  const Scenario s(16, 127);
  const auto tasks = s.make_tasks(20, 6, 213);
  const HybridSupply supply = s.make_supply(313);
  SimConfig cfg = s.base_config();
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 50.0;  // short: idle gaps comfortably exceed it
  const SimResult r = s.run_flat(Scheme::kScanFair, tasks, supply, cfg);
  EXPECT_GT(r.sleep_enters, 0u);
  EXPECT_EQ(r.tasks_completed, tasks.size());
}

// ---------------------------------------------------------- determinism

TEST(ThermalDeterminism, OneShardShardedMatchesFlat) {
  const Scenario s(24, 131);
  const auto tasks = s.make_tasks(30, 8, 217);
  const HybridSupply supply = s.make_supply(317);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 120.0;
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair}) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimResult flat = s.run_flat(scheme, tasks, supply, cfg);
    const SimResult sharded =
        s.run_sharded(scheme, tasks, supply, cfg, /*shards=*/1, /*workers=*/1);
    expect_identical(flat, sharded);
  }
}

TEST(ThermalDeterminism, MultiShardRunIsWorkerCountIndependent) {
  const Scenario s(24, 137);
  const auto tasks = s.make_tasks(30, 6, 219);
  const HybridSupply supply = s.make_supply(319);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kImmediate;
  cfg.topology.shards = 2;
  const SimResult serial =
      s.run_sharded(Scheme::kScanEffi, tasks, supply, cfg, 2, 1);
  const SimResult two =
      s.run_sharded(Scheme::kScanEffi, tasks, supply, cfg, 2, 2);
  const SimResult eight =
      s.run_sharded(Scheme::kScanEffi, tasks, supply, cfg, 2, 8);
  expect_identical(serial, two);
  expect_identical(serial, eight);
  EXPECT_GT(serial.cooling_energy.joules(), 0.0);
}

// Satellite 1 (sim level): a wake event pending at a slice boundary is
// not skipped when step_until() slices the run -- chunked execution with
// sleep transitions is bit-identical to one uninterrupted drain.
TEST(ThermalDeterminism, SlicedStepUntilCrossesWakeBoundaries) {
  const Scenario s(16, 139);
  const auto tasks = s.make_tasks(25, 6, 221);
  const HybridSupply supply = s.make_supply(321);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kImmediate;  // every start pays a wake

  // Idle power never stops, so the result depends on the final clock
  // position; drive both runs to the same end instant and compare.
  const double t_end = 200000.0;

  Knowledge k1(&s.cluster, KnowledgeSource::kScan, &s.db);
  DatacenterSim whole(&k1, PlacementRule::kEfficiency, &supply, cfg);
  whole.prepare(tasks);
  whole.step_until(t_end);  // one uninterrupted slice
  ASSERT_TRUE(whole.drained());
  const SimResult one = whole.finish();
  ASSERT_GT(one.sleep_wakes, 0u);

  Knowledge k2(&s.cluster, KnowledgeSource::kScan, &s.db);
  DatacenterSim sliced(&k2, PlacementRule::kEfficiency, &supply, cfg);
  sliced.prepare(tasks);
  // 37 s slices land between (not on) event times, so kWake events keep
  // crossing slice boundaries.
  for (double t = 37.0; t < t_end; t += 37.0) sliced.step_until(t);
  sliced.step_until(t_end);
  ASSERT_TRUE(sliced.drained());
  expect_identical(one, sliced.finish());
}

// ------------------------------------------------------ extended schemes

TEST(ExtendedSchemes, ScanThermForcesTheThermalModelOn) {
  const Scheme scan_therm = ensure_extended_schemes_registered();
  EXPECT_STREQ(scheme_name(scan_therm), "ScanTherm");
  const Scenario s(16, 149);
  const auto tasks = s.make_tasks(25, 6, 223);
  const HybridSupply supply = s.make_supply(323);
  const SimResult r = run_scheme(s.cluster, scan_therm, &s.db, supply, tasks,
                                 s.base_config());
  EXPECT_GT(r.cooling_energy.joules(), 0.0);  // thermal billing active
  EXPECT_GT(r.peak_inlet_c, 0.0);
  EXPECT_EQ(r.tasks_completed, tasks.size());
}

TEST(ExtendedSchemes, SleepVariantsForceASleepPolicy) {
  ensure_extended_schemes_registered();
  const Scenario s(16, 151);
  const auto tasks = s.make_tasks(20, 6, 227);
  const HybridSupply supply = s.make_supply(327);
  const Scheme scheme = scheme_from_name("ScanEffiSleep");
  const SimResult r =
      run_scheme(s.cluster, scheme, &s.db, supply, tasks, s.base_config());
  EXPECT_GT(r.idle_energy.joules(), 0.0);  // residency power billed
  EXPECT_EQ(r.tasks_completed, tasks.size());
  // The caller's explicit policy wins over the scheme default.
  SimConfig explicit_cfg = s.base_config();
  explicit_cfg.sleep.policy = SleepPolicy::kActiveIdle;
  const SimResult honest =
      run_scheme(s.cluster, scheme, &s.db, supply, tasks, explicit_cfg);
  EXPECT_EQ(honest.sleep_enters, 0u);
}

// -------------------------------------------------------- golden digests
//
// Thermal runs on a facility of 48-CPU racks (ten racks at 480 CPUs):
// ScanEffi, ScanFair, BinRan and ScanTherm (install_thermal_order's
// stripe), flat and over five rack-aligned shards, each with sleep off and
// with the timeout governor; the same runs under crash faults plus a CRAC
// derate window; a 500-CPU facility whose last rack holds 20 CPUs; and
// profiling windows that reserve a whole rack. Arrivals up to 1 500 s
// apart leave whole racks idle at many barriers. Each run's result_digest
// must equal its entry in thermal_digests.inc, captured while the CRAC
// solve was a dense row-major mat-vec and the rack-power gather visited
// every processor. Regenerate the table (a deliberate result change
// only) with ThermalDigests.DISABLED_PrintTable; DESIGN.md Sec. 9 gives
// the command.

struct ThermalDigest {
  const char* key;  ///< "ThermalDigests.<Test>/<layout>/<scheme>/<sleep>"
  std::uint64_t digest;
};

constexpr ThermalDigest kThermalDigests[] = {
#include "thermal_digests.inc"
};

/// Set only while ThermalDigests.DISABLED_PrintTable collects the table:
/// expect_thermal_golden then records instead of checking.
std::vector<std::pair<std::string, std::uint64_t>>* g_thermal_sink = nullptr;

void expect_thermal_golden(const std::string& key, const SimResult& result) {
  const std::uint64_t digest = result_digest(result);
  if (g_thermal_sink != nullptr) {
    g_thermal_sink->emplace_back(key, digest);
    return;
  }
  const auto* const it = std::find_if(
      std::begin(kThermalDigests), std::end(kThermalDigests),
      [&key](const ThermalDigest& g) { return key == g.key; });
  ASSERT_NE(it, std::end(kThermalDigests))
      << "no golden digest for " << key << " (regenerate thermal_digests.inc)";
  EXPECT_EQ(digest, it->digest) << key;
}

SimConfig digest_config(bool sleep) {
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.record_timeline = true;
  cfg.thermal.enabled = true;
  if (sleep) cfg.sleep.policy = SleepPolicy::kTimeout;
  return cfg;
}

/// Every scheme x {flat, 5 shards} x {sleep off, timeout} on a facility
/// of `procs` CPUs, optionally under the fault spec `faults`.
void thermal_digest_matrix(const char* test, std::size_t procs,
                           const char* faults) {
  const Scenario s(procs, 401);
  const auto tasks = s.make_tasks(90, 48, 403, /*max_gap_s=*/1500.0);
  const HybridSupply supply = s.make_supply(405);
  const Scheme scan_therm = ensure_extended_schemes_registered();
  for (const Scheme scheme :
       {Scheme::kScanEffi, Scheme::kScanFair, Scheme::kBinRan, scan_therm}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{5}}) {
      for (const bool sleep : {false, true}) {
        SimConfig cfg = digest_config(sleep);
        cfg.topology.shards = shards;
        if (faults != nullptr) cfg.faults = parse_fault_spec(faults);
        expect_thermal_golden(
            std::string("ThermalDigests.") + test + "/" +
                (shards == 1 ? "flat" : "shards5") + "/" +
                scheme_name(scheme) + "/" +
                (sleep ? "sleep-timeout" : "sleep-off"),
            run_scheme(s.cluster, scheme, &s.db, supply, tasks, cfg));
      }
    }
  }
}

void thermal_digests_healthy() {
  thermal_digest_matrix("Healthy", 480, nullptr);
}

void thermal_digests_crashes_and_crac_derate() {
  thermal_digest_matrix(
      "CrashesAndCracDerate", 480,
      "mtbf=1000000,repair=3000,crac=0.5,crac-start=6000,"
      "crac-duration=12000");
}

void thermal_digests_partial_last_rack() {
  thermal_digest_matrix("PartialLastRack", 500, nullptr);
}

void thermal_digests_profiling_reserves_a_rack() {
  // Each window isolates all 48 CPUs of rack 2 (or those of them idle at
  // its start), so whole racks sit reserved with no idle processor.
  const Scenario s(480, 409);
  const auto tasks = s.make_tasks(90, 48, 411, /*max_gap_s=*/1500.0);
  const HybridSupply supply = s.make_supply(413);
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 3; ++w) {
    ProfilingWindow win;
    win.start_s = 2000.0 + 9000.0 * static_cast<double>(w);
    win.duration_s = 2400.0;
    win.proc_ids.resize(48);
    std::iota(win.proc_ids.begin(), win.proc_ids.end(), std::size_t{96});
    windows.push_back(win);
  }
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair}) {
    Knowledge knowledge(&s.cluster, scheme_knowledge(scheme), &s.db);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply,
                      digest_config(false));
    expect_thermal_golden(std::string("ThermalDigests.ProfilingReservesARack/"
                                      "flat/") +
                              scheme_name(scheme) + "/sleep-off",
                          sim.run(tasks, windows));
  }
}

TEST(ThermalDigests, Healthy) { thermal_digests_healthy(); }
TEST(ThermalDigests, CrashesAndCracDerate) {
  thermal_digests_crashes_and_crac_derate();
}
TEST(ThermalDigests, PartialLastRack) { thermal_digests_partial_last_rack(); }
TEST(ThermalDigests, ProfilingReservesARack) {
  thermal_digests_profiling_reserves_a_rack();
}

// Regeneration path (DESIGN.md Sec. 9): runs every digest group and
// prints thermal_digests.inc in source form.
TEST(ThermalDigests, DISABLED_PrintTable) {
  std::vector<std::pair<std::string, std::uint64_t>> table;
  g_thermal_sink = &table;
  thermal_digests_healthy();
  thermal_digests_crashes_and_crac_derate();
  thermal_digests_partial_last_rack();
  thermal_digests_profiling_reserves_a_rack();
  g_thermal_sink = nullptr;
  for (const auto& [key, digest] : table)
    std::printf("{\"%s\", 0x%016llxull},\n", key.c_str(),
                static_cast<unsigned long long>(digest));
}

// ------------------------------------------------- solve property test
//
// The CRAC solve as the dense row-major, i-outer mat-vec it was before it
// learned to skip idle racks, kept verbatim as the oracle.
ThermalSolution dense_solve(const ThermalConfig& config,
                            const RecirculationMatrix& matrix,
                            const std::vector<double>& rack_w,
                            double derate_factor) {
  const std::size_t n = matrix.racks();
  std::vector<double> rise(n, 0.0);
  double max_rise = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r = 0.0;
    for (std::size_t j = 0; j < n; ++j) r += matrix.at(i, j) * rack_w[j];
    rise[i] = r;
    max_rise = std::max(max_rise, r);
  }
  ThermalSolution out;
  out.max_rise_c = max_rise;
  out.supply_c = std::clamp(config.red_line_c - max_rise,
                            config.min_supply_c, config.max_supply_c);
  out.peak_inlet_c = out.supply_c + max_rise;
  out.cop = std::max(0.2, crac_cop(out.supply_c) * derate_factor);
  return out;
}

/// One rack's power in watts: mostly a socket rack's range, sometimes
/// orders of magnitude off it either way.
double draw_watts(Rng& rng) {
  if (rng.uniform() < 0.8) return rng.uniform(0.0, 3000.0);
  return std::pow(10.0, rng.uniform(-12.0, 8.0));
}

/// A rack power vector of family `kind`: all zero, one drawing rack, ~7%
/// drawing, dense, signed zeros among the draws, or subnormal draws
/// (alone, where no normal term can absorb them, or among normal ones).
std::vector<double> draw_rack_vector(Rng& rng, std::size_t racks, int kind) {
  constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
  std::vector<double> w(racks, 0.0);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(racks) - 1));
  };
  switch (kind) {
    case 0:  // all zero, some of it negative zero
      for (double& x : w)
        if (rng.uniform() < 0.5) x = -0.0;
      break;
    case 1:  // one drawing rack
      w[pick()] = draw_watts(rng);
      break;
    case 2:  // ~7% drawing, the hyperscale run's mean barrier
      for (double& x : w)
        if (rng.uniform() < 0.073) x = draw_watts(rng);
      break;
    case 3:  // dense
      for (double& x : w) x = draw_watts(rng);
      break;
    case 4:  // signed zeros among sparse draws
      for (double& x : w) {
        const double u = rng.uniform();
        x = u < 0.4 ? -0.0 : (u < 0.5 ? draw_watts(rng) : 0.0);
      }
      break;
    default:  // subnormal draws, alone or with normal ones
      for (double& x : w) {
        const double u = rng.uniform();
        if (u < 0.2)
          x = kSubnormal * static_cast<double>(rng.uniform_int(1, 1 << 20));
        else if (u < 0.3)
          x = -0.0;
      }
      if (rng.uniform() < 0.5) w[pick()] = draw_watts(rng);
      break;
  }
  return w;
}

void expect_same_bits(const ThermalSolution& got, const ThermalSolution& want,
                      std::size_t draw) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.supply_c),
            std::bit_cast<std::uint64_t>(want.supply_c))
      << "draw " << draw;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cop),
            std::bit_cast<std::uint64_t>(want.cop))
      << "draw " << draw;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_rise_c),
            std::bit_cast<std::uint64_t>(want.max_rise_c))
      << "draw " << draw;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.peak_inlet_c),
            std::bit_cast<std::uint64_t>(want.peak_inlet_c))
      << "draw " << draw;
}

TEST(ThermalSolveProperty, MatchesDenseRowMajorSolveBitForBit) {
  ThermalConfig tight;  // a second coupling shape: shorter, wider plumes
  tight.enabled = true;
  tight.self_coupling_k_per_w = 2.5e-4;
  tight.row_decay_racks = 1.0;
  tight.cross_row_coupling = 0.5;
  tight.cross_row_decay_rows = 2.0;
  ThermalConfig standard;
  standard.enabled = true;
  struct Facility {
    std::size_t racks_per_row;
    std::size_t racks;
    std::size_t draws;
  };
  // Row widths 1 and 10; 53 and 533 racks end in a partial row.
  const Facility facilities[] = {
      {1, 13, 1700}, {10, 50, 1700}, {10, 53, 1700}, {10, 533, 20}};
  Rng rng(419);
  std::size_t draws = 0;
  for (const ThermalConfig& config : {standard, tight}) {
    for (const Facility& f : facilities) {
      TopologyConfig topo;
      topo.racks_per_row = f.racks_per_row;
      const ThermalModel model(config, topo, f.racks);
      for (std::size_t d = 0; d < f.draws; ++d, ++draws) {
        const std::vector<double> w =
            draw_rack_vector(rng, f.racks, static_cast<int>(d % 6));
        const double derate = rng.uniform() < 0.5 ? 1.0 : rng.uniform(0.05, 1.0);
        expect_same_bits(model.solve(w, derate),
                         dense_solve(config, model.matrix(), w, derate), draws);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GE(draws, 10'000u);
}

}  // namespace
}  // namespace iscope
