// Scheduler-equivalence suite (DESIGN.md Sec. 9).
//
// The simulator has one scheduling path. Its whole-run behaviour is pinned
// by golden digests (match_digests.inc): a 64-bit hash of every SimResult
// field, trace sample and timeline event, one per run of the matrix below
// -- all five schemes, with and without wind, a battery, in-band
// profiling windows, active faults and two shards, on randomized clusters
// and workloads. The table was captured while a retained pre-optimization
// simulator path (deep-copied matcher views, per-task partial-sort
// placement) was still asserted bit-identical to the production one, so a
// digest mismatch is a behaviour change. The pure-function oracles that
// path used stay live: IncrementalProperty below (and MatcherWindProperty
// in test_properties.cpp) check PowerMatcher::match_reference, and
// PlacementProperty in test_policy.cpp checks PlacementPolicy::choose.
//
// The runtime switches that must be pure performance knobs are compared
// run against run with exact floating-point equality: incremental_rematch
// on vs off, an empty fault plan, telemetry on vs off, a reused simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "profiling/scanner.hpp"
#include "result_digest.hpp"
#include "sched/power_matcher.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace iscope {
namespace {

void expect_identical(const SimResult& a, const SimResult& b) {
  // Exact equality everywhere: EXPECT_EQ on doubles is bitwise-meaningful
  // here because both runs must execute the same arithmetic.
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

// ----------------------------------------------- golden digests
//
// result_digest (result_digest.hpp) hashes every value expect_identical
// compares, in the same order.

struct GoldenDigest {
  const char* key;  ///< "<Suite>.<Test>/<variant>"
  std::uint64_t digest;
};

/// The committed table. Regenerate it (a deliberate result change only)
/// with the GoldenDigests.DISABLED_PrintTable printer below; DESIGN.md Sec. 9
/// gives the command.
constexpr GoldenDigest kGoldenDigests[] = {
#include "match_digests.inc"
};

/// Set only while GoldenDigests.DISABLED_PrintTable collects the table:
/// expect_golden then records instead of checking.
std::vector<std::pair<std::string, std::uint64_t>>* g_golden_sink = nullptr;

void expect_golden(const std::string& key, const SimResult& result) {
  const std::uint64_t digest = result_digest(result);
  if (g_golden_sink != nullptr) {
    g_golden_sink->emplace_back(key, digest);
    return;
  }
  const auto* const it = std::find_if(
      std::begin(kGoldenDigests), std::end(kGoldenDigests),
      [&key](const GoldenDigest& g) { return key == g.key; });
  ASSERT_NE(it, std::end(kGoldenDigests))
      << "no golden digest for " << key << " (regenerate match_digests.inc)";
  EXPECT_EQ(digest, it->digest) << key;
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

  /// Randomized workload: mixed widths, runtimes, CPU-boundness, and
  /// deadline tightness (some forced starts, some loose waits).
  std::vector<Task> make_tasks(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Task> tasks;
    tasks.reserve(count);
    double submit = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      submit += rng.uniform(0.0, 400.0);
      Task t;
      t.id = static_cast<std::int64_t>(i + 1);
      t.submit_s = submit;
      t.cpus = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(cluster.size() / 2)));
      t.runtime_s = rng.uniform(100.0, 2000.0);
      t.gamma = rng.uniform(0.3, 1.0);
      t.deadline_s = t.submit_s + t.runtime_s * rng.uniform(1.5, 10.0);
      tasks.push_back(t);
    }
    return tasks;
  }

  /// A wind trace whose level crosses the facility's demand regime.
  HybridSupply make_supply(std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<double> watts;
    const std::size_t steps = 200;
    const double peak =
        estimated_peak_power(cluster).watts();
    for (std::size_t i = 0; i < steps; ++i)
      watts.push_back(rng.uniform(0.0, 0.9 * peak));
    return HybridSupply(SupplyTrace(Seconds{600.0}, std::move(watts)));
  }

  static Watts estimated_peak_power(const Cluster& cluster) {
    Watts total;
    const std::size_t top = cluster.levels().freq_ghz.size() - 1;
    for (std::size_t p = 0; p < cluster.size(); ++p)
      total += cluster.power(p, top, Volts{cluster.levels().vdd_nom[top]});
    return total;
  }

  SimResult run(Scheme scheme, const std::vector<Task>& tasks,
                const HybridSupply& supply, SimConfig cfg,
                const std::vector<ProfilingWindow>& profiling = {}) const {
    cfg.record_trace = true;
    cfg.record_timeline = true;
    // Mutable knowledge so fault-active scenarios can quarantine; with no
    // faults this is behaviorally identical to the const-view constructor.
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks, profiling);
  }

  /// The delta-rematch identity (DESIGN.md Sec. 14): a run that replays
  /// cached greedy trajectories on wind-only epochs must be bit-identical
  /// to a run that full-solves every rematch, and to its golden digest.
  /// Zero cost gap -- the declared bound is exact equality.
  void check_incremental_identity(
      const std::string& key, Scheme scheme, const std::vector<Task>& tasks,
      const HybridSupply& supply, SimConfig cfg,
      const std::vector<ProfilingWindow>& profiling = {}) const {
    cfg.incremental_rematch = true;
    const SimResult incremental = run(scheme, tasks, supply, cfg, profiling);
    cfg.incremental_rematch = false;
    const SimResult full = run(scheme, tasks, supply, cfg, profiling);
    expect_identical(incremental, full);
    expect_golden(key, incremental);
  }
};

std::vector<ProfilingWindow> four_windows() {
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 4; ++w) {
    ProfilingWindow win;
    win.start_s = 500.0 + 2500.0 * static_cast<double>(w);
    win.duration_s = 900.0;
    win.proc_ids = {w, w + 4, w + 8};
    windows.push_back(win);
  }
  return windows;
}

SimConfig faults_config(std::uint64_t fault_seed) {
  SimConfig cfg;
  cfg.faults.crash_mtbf_s = 6.0 * 3600.0;
  cfg.faults.repair_mean_s = 900.0;
  cfg.faults.misprofile_prob = 0.2;
  cfg.fault_seed = fault_seed;
  return cfg;
}

// ----------------------------------------------- the digest matrix
//
// Each matrix body is a plain function so the table printer below can run
// the whole matrix in one pass; its keys name the test that checks them.

void match_all_schemes_utility_only() {
  const Scenario s(16, 11);
  const auto tasks = s.make_tasks(40, 21);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    expect_golden(std::string("MatchEquivalence.AllSchemesUtilityOnly/") +
                      scheme_name(scheme),
                  s.run(scheme, tasks, HybridSupply{}, SimConfig{}));
  }
}

void match_all_schemes_with_wind() {
  const Scenario s(16, 13);
  const auto tasks = s.make_tasks(40, 23);
  const HybridSupply supply = s.make_supply(31);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    expect_golden(std::string("MatchEquivalence.AllSchemesWithWind/") +
                      scheme_name(scheme),
                  s.run(scheme, tasks, supply, SimConfig{}));
  }
}

void match_randomized_clusters_and_workloads() {
  // Several independently-seeded cluster/workload/supply draws; the two
  // schemes with the most scheduling structure (Effi waits, Fair defers).
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE(seed);
    const Scenario s(12, seed);
    const auto tasks = s.make_tasks(30, seed * 3);
    const HybridSupply supply = s.make_supply(seed * 5);
    const std::string key = "MatchEquivalence.RandomizedClustersAndWorkloads/" +
                            std::to_string(seed) + "/";
    for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair})
      expect_golden(key + scheme_name(scheme),
                    s.run(scheme, tasks, supply, SimConfig{}));
  }
}

void match_with_battery() {
  const Scenario s(16, 17);
  const auto tasks = s.make_tasks(35, 27);
  const HybridSupply supply = s.make_supply(37);
  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    expect_golden(
        std::string("MatchEquivalence.WithBattery/") + scheme_name(scheme),
        s.run(scheme, tasks, supply, cfg));
  }
}

void match_with_profiling_windows() {
  const Scenario s(16, 19);
  const auto tasks = s.make_tasks(35, 29);
  const HybridSupply supply = s.make_supply(39);
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanRan})
    expect_golden(std::string("MatchEquivalence.WithProfilingWindows/") +
                      scheme_name(scheme),
                  s.run(scheme, tasks, supply, SimConfig{}, four_windows()));
}

void match_faults_active() {
  // The allocation-free rematch path must hold its digests even while
  // CPUs crash, tasks requeue, and the knowledge view's quarantine
  // generation churns under it.
  const Scenario s(16, 51);
  const auto tasks = s.make_tasks(40, 59);
  const HybridSupply supply = s.make_supply(71);
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair,
                              Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    expect_golden(
        std::string("MatchEquivalence.FaultsActiveOptimizedMatchesReference/") +
            scheme_name(scheme),
        s.run(scheme, tasks, supply, faults_config(13)));
  }
}

// The delta-rematch contract: SimConfig::incremental_rematch is a
// pure performance switch. Every scenario axis the optimized matcher is
// held to (schemes, wind, battery, profiling windows, active faults,
// sharding) must come out bit-identical with the cache on and with it
// off, and match its golden digest.

void incremental_all_schemes_with_wind() {
  const Scenario s(16, 111);
  const auto tasks = s.make_tasks(40, 113);
  const HybridSupply supply = s.make_supply(117);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_incremental_identity(
        std::string("IncrementalIdentity.AllSchemesWithWind/") +
            scheme_name(scheme),
        scheme, tasks, supply, SimConfig{});
  }
}

void incremental_all_schemes_utility_only() {
  // No wind: phase 2 never fires and the cached trajectories stay empty,
  // but the cursor machinery still runs on every epoch -- it must be
  // inert.
  const Scenario s(16, 121);
  const auto tasks = s.make_tasks(40, 123);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_incremental_identity(
        std::string("IncrementalIdentity.AllSchemesUtilityOnly/") +
            scheme_name(scheme),
        scheme, tasks, HybridSupply{}, SimConfig{});
  }
}

void incremental_with_battery() {
  const Scenario s(16, 131);
  const auto tasks = s.make_tasks(35, 133);
  const HybridSupply supply = s.make_supply(137);
  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_incremental_identity(
        std::string("IncrementalIdentity.WithBattery/") + scheme_name(scheme),
        scheme, tasks, supply, cfg);
  }
}

void incremental_with_profiling_windows() {
  const Scenario s(16, 141);
  const auto tasks = s.make_tasks(35, 143);
  const HybridSupply supply = s.make_supply(147);
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanRan})
    s.check_incremental_identity(
        std::string("IncrementalIdentity.WithProfilingWindows/") +
            scheme_name(scheme),
        scheme, tasks, supply, SimConfig{}, four_windows());
}

void incremental_with_faults_active() {
  // Crashes, requeues and quarantine generation bumps all invalidate the
  // cache mid-flight; the fallback full solves must leave no trace.
  const Scenario s(16, 151);
  const auto tasks = s.make_tasks(40, 153);
  const HybridSupply supply = s.make_supply(157);
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair,
                              Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_incremental_identity(
        std::string("IncrementalIdentity.WithFaultsActive/") +
            scheme_name(scheme),
        scheme, tasks, supply, faults_config(19));
  }
}

void incremental_two_shards() {
  // Each shard owns its own MatcherColumns and IncrementalMatchState; the
  // epoch-barrier wind reconciliation must see identical per-shard demand
  // whichever way each shard solved.
  const Scenario s(16, 161);
  const auto tasks = s.make_tasks(40, 163);
  const HybridSupply supply = s.make_supply(167);
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.record_timeline = true;
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 2;
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair}) {
    SCOPED_TRACE(scheme_name(scheme));
    const ProfileDb* db = scheme_uses_scan(scheme) ? &s.db : nullptr;
    SimConfig on = cfg;
    on.incremental_rematch = true;
    SimConfig off = cfg;
    off.incremental_rematch = false;
    ShardedSim sim_on(s.cluster, scheme, db, supply, on);
    ShardedSim sim_off(s.cluster, scheme, db, supply, off);
    const SimResult a = sim_on.run(tasks);
    const SimResult b = sim_off.run(tasks);
    expect_identical(a, b);
    expect_golden(
        std::string("IncrementalIdentity.TwoShards/") + scheme_name(scheme),
        a);
  }
}

TEST(MatchEquivalence, AllSchemesUtilityOnly) {
  match_all_schemes_utility_only();
}
TEST(MatchEquivalence, AllSchemesWithWind) { match_all_schemes_with_wind(); }
TEST(MatchEquivalence, RandomizedClustersAndWorkloads) {
  match_randomized_clusters_and_workloads();
}
TEST(MatchEquivalence, WithBattery) { match_with_battery(); }
TEST(MatchEquivalence, WithProfilingWindows) {
  match_with_profiling_windows();
}
TEST(MatchEquivalence, FaultsActiveOptimizedMatchesReference) {
  match_faults_active();
}

TEST(IncrementalIdentity, AllSchemesWithWind) {
  incremental_all_schemes_with_wind();
}
TEST(IncrementalIdentity, AllSchemesUtilityOnly) {
  incremental_all_schemes_utility_only();
}
TEST(IncrementalIdentity, WithBattery) { incremental_with_battery(); }
TEST(IncrementalIdentity, WithProfilingWindows) {
  incremental_with_profiling_windows();
}
TEST(IncrementalIdentity, WithFaultsActive) {
  incremental_with_faults_active();
}
TEST(IncrementalIdentity, TwoShards) { incremental_two_shards(); }

// Regeneration path (DESIGN.md Sec. 9): runs the whole matrix and prints
// match_digests.inc in source form. A deliberate result change (a ULP
// re-baseline) re-runs it and commits the new table with the change.
TEST(GoldenDigests, DISABLED_PrintTable) {
  std::vector<std::pair<std::string, std::uint64_t>> table;
  g_golden_sink = &table;
  for (void (*matrix)() :
       {match_all_schemes_utility_only, match_all_schemes_with_wind,
        match_randomized_clusters_and_workloads, match_with_battery,
        match_with_profiling_windows, match_faults_active,
        incremental_all_schemes_with_wind,
        incremental_all_schemes_utility_only, incremental_with_battery,
        incremental_with_profiling_windows, incremental_with_faults_active,
        incremental_two_shards})
    matrix();
  g_golden_sink = nullptr;
  for (const auto& [key, digest] : table)
    std::printf("{\"%s\", 0x%016llxull},\n", key.c_str(),
                static_cast<unsigned long long>(digest));
}

// ----------------------------------------------- 50-seed delta property
//
// Matcher-scope property test: whatever wind-budget walk an epoch
// sequence throws at it, a match_incremental hit must reproduce the
// from-scratch match_columns solve exactly -- compute, demand, step
// count, and every per-row level, to the bit. The walk also perturbs
// task progress and the clock between epochs; when that moves a deadline
// floor the incremental path must *refuse* (return false) rather than
// replay a stale trajectory. The full solve must in turn equal the
// match_reference oracle run over an ActiveTask mirror of the rows.

TEST(IncrementalProperty, RandomDeltaWalksAreExact) {
  ClusterConfig ccfg;
  ccfg.num_processors = 64;
  ccfg.seed = 5;
  const Cluster cluster = build_cluster(ccfg);
  const Knowledge knowledge(&cluster, KnowledgeSource::kBin);
  const PowerMatcher matcher(&knowledge, 1.4);
  const std::size_t levels = knowledge.levels();
  const double fmax = cluster.levels().freq_ghz.back();
  std::vector<double> ratio;
  for (const double f : cluster.levels().freq_ghz)
    ratio.push_back(fmax / f - 1.0);

  std::size_t hits = 0;
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 1000 + 17);
    const auto rows =
        static_cast<std::size_t>(rng.uniform_int(1, 40));
    MatcherColumns cols;
    cols.reset(levels, rows);
    // The oracle's mirror of the population: the same processors,
    // remaining work, deadline and gamma per row.
    std::vector<ActiveTask> tasks(rows);
    std::vector<double> power_row(levels);
    double now = 0.0;
    std::size_t next_proc = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double remaining = rng.uniform(50.0, 5000.0);
      const double deadline = remaining * rng.uniform(1.2, 12.0);
      cols.append(r, remaining, deadline);
      for (int k = 0; k < 4; ++k)
        tasks[r].procs.push_back((next_proc + static_cast<std::size_t>(k)) %
                                 cluster.size());
      for (std::size_t l = 0; l < levels; ++l) {
        Watts p;
        for (const std::size_t id : tasks[r].procs)
          p += knowledge.power(id, l);
        power_row[l] = p.raw();
      }
      next_proc += 4;
      const double gamma = rng.uniform(0.3, 1.0);
      cols.fill_row(r, gamma, ratio.data(), power_row.data());
      tasks[r].remaining_work_s = remaining;
      tasks[r].deadline_s = deadline;
      tasks[r].gamma = gamma;
    }

    MatchScratch scratch;
    IncrementalMatchState inc;
    // Zero-wind solve: phase 2 gated off, so the cache starts with an
    // empty trajectory AND no heap -- the first fitting epoch must take
    // the heap_built escape hatch and full-solve.
    const MatchResult cached =
        matcher.match_columns(cols, Watts{}, now, scratch, &inc);
    const double top_demand = cached.demand.raw();

    for (int step = 0; step < 40; ++step) {
      // Occasionally let the tasks progress and the clock move: floors
      // that survive keep the cache hot; floors that move must force a
      // refusal, never a stale replay.
      if (rng.uniform(0.0, 1.0) < 0.25) {
        now += rng.uniform(0.0, 300.0);
        for (std::size_t r = 0; r < rows; ++r) {
          cols.remaining[r] =
              std::max(0.0, cols.remaining[r] - rng.uniform(0.0, 100.0));
          tasks[r].remaining_work_s = cols.remaining[r];
        }
      }
      const Watts wind{rng.uniform(0.0, 1.3 * top_demand)};
      MatcherColumns fresh = cols;
      MatchScratch fresh_scratch;
      const MatchResult full =
          matcher.match_columns(fresh, wind, now, fresh_scratch);
      MatchResult out;
      ++total;
      if (matcher.match_incremental(cols, wind, now, scratch, inc, out)) {
        ++hits;
      } else {
        out = matcher.match_columns(cols, wind, now, scratch, &inc);
      }
      ASSERT_EQ(out.compute.raw(), full.compute.raw()) << "step " << step;
      ASSERT_EQ(out.demand.raw(), full.demand.raw()) << "step " << step;
      ASSERT_EQ(out.steps, full.steps) << "step " << step;
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(cols.level[r], fresh.level[r])
            << "step " << step << " row " << r;

      // Third leg: the oracle over the ActiveTask mirror.
      std::vector<ActiveTask> ref = tasks;
      const MatchResult oracle = matcher.match_reference(ref, wind, now);
      ASSERT_EQ(oracle.compute.raw(), full.compute.raw()) << "step " << step;
      ASSERT_EQ(oracle.demand.raw(), full.demand.raw()) << "step " << step;
      ASSERT_EQ(oracle.steps, full.steps) << "step " << step;
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(ref[r].level, fresh.level[r])
            << "step " << step << " row " << r;
    }
  }
  // The walk must actually exercise the replay path, not just fall back.
  EXPECT_GT(hits, total / 4);
}

// ----------------------------------------------- zero-fault identity
//
// The fault layer's core contract (src/fault/fault.hpp): a run with the
// default SimConfig (no FaultSpec, no plan) and a run handed an explicitly
// empty FaultPlan must both be bit-identical to each other -- the fault
// machinery may not perturb a single event, draw, or accumulation when it
// has nothing to inject.

TEST(ZeroFaultIdentity, EmptyPlanIsBitIdenticalAllSchemes) {
  const Scenario s(16, 43);
  const auto tasks = s.make_tasks(40, 53);
  const HybridSupply supply = s.make_supply(61);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    SimConfig plain;                   // never heard of faults
    SimConfig with_empty_plan;         // explicit empty plan wired through
    with_empty_plan.fault_plan = std::make_shared<const FaultPlan>();
    const SimResult a = s.run(scheme, tasks, supply, plain);
    const SimResult b = s.run(scheme, tasks, supply, with_empty_plan);
    expect_identical(a, b);
    EXPECT_EQ(b.faults.cpu_failures, 0u);
    EXPECT_EQ(b.faults.task_requeues, 0u);
    EXPECT_EQ(b.faults.tasks_failed, 0u);
    EXPECT_EQ(b.faults.lost_cpu_seconds, 0.0);
  }
}

TEST(ZeroFaultIdentity, WithBatteryAndProfilingWindows) {
  const Scenario s(16, 47);
  const auto tasks = s.make_tasks(35, 57);
  const HybridSupply supply = s.make_supply(67);
  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 3; ++w) {
    ProfilingWindow win;
    win.start_s = 800.0 + 3000.0 * static_cast<double>(w);
    win.duration_s = 600.0;
    win.proc_ids = {w, w + 5, w + 10};
    windows.push_back(win);
  }
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kBinRan}) {
    SCOPED_TRACE(scheme_name(scheme));
    SimConfig with_empty_plan = cfg;
    with_empty_plan.fault_plan = std::make_shared<const FaultPlan>();
    const SimResult a = s.run(scheme, tasks, supply, cfg, windows);
    const SimResult b = s.run(scheme, tasks, supply, with_empty_plan,
                              windows);
    expect_identical(a, b);
  }
}

// ----------------------------------------------- telemetry-off identity
//
// The telemetry subsystem's core contract (DESIGN.md Sec. 11): spans,
// counters, and the epoch sampler are pure observers. A run with telemetry
// enabled must produce a bit-identical SimResult to one with it disabled --
// same events, same draws, same accumulations -- because instrumentation
// schedules no events and touches no simulator state.

class TelemetryOffIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(false);
    telemetry::reset_global_telemetry();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::reset_global_telemetry();
  }
};

TEST_F(TelemetryOffIdentity, EnabledRunIsBitIdenticalAllSchemes) {
  const Scenario s(16, 71);
  const auto tasks = s.make_tasks(40, 73);
  const HybridSupply supply = s.make_supply(79);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    telemetry::set_enabled(false);
    const SimResult off = s.run(scheme, tasks, supply, SimConfig{});
    telemetry::set_enabled(true);
    const SimResult on = s.run(scheme, tasks, supply, SimConfig{});
    telemetry::set_enabled(false);
    expect_identical(off, on);
  }
  // The instrumented runs actually produced telemetry.
  EXPECT_GT(telemetry::SampleLog::global().size(), 0u);
  EXPECT_GT(telemetry::TraceLog::global().total_events(), 0u);
}

TEST_F(TelemetryOffIdentity, WithBatteryProfilingAndFaults) {
  // The hardest mix: battery arbitration, in-band profiling windows, and
  // an active fault plan all share the event queue the sampler piggybacks
  // on. Telemetry must still not perturb a single draw.
  const Scenario s(16, 83);
  const auto tasks = s.make_tasks(35, 89);
  const HybridSupply supply = s.make_supply(97);
  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  cfg.faults.crash_mtbf_s = 6.0 * 3600.0;
  cfg.faults.repair_mean_s = 900.0;
  cfg.faults.misprofile_prob = 0.2;
  cfg.fault_seed = 17;
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 3; ++w) {
    ProfilingWindow win;
    win.start_s = 700.0 + 2800.0 * static_cast<double>(w);
    win.duration_s = 700.0;
    win.proc_ids = {w, w + 4, w + 9};
    windows.push_back(win);
  }
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    telemetry::set_enabled(false);
    const SimResult off = s.run(scheme, tasks, supply, cfg, windows);
    telemetry::set_enabled(true);
    const SimResult on = s.run(scheme, tasks, supply, cfg, windows);
    telemetry::set_enabled(false);
    expect_identical(off, on);
  }
}

TEST(MatchEquivalence, ReusedSimulatorStaysEquivalent) {
  // Back-to-back runs on one simulator (warm scratch buffers) must behave
  // exactly like a fresh one. The kRandom schemes also pin that prepare()
  // rewinds the placement RNG to the seed.
  const Scenario s(12, 23);
  const auto tasks = s.make_tasks(25, 33);
  const HybridSupply supply = s.make_supply(43);
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.record_timeline = true;
  for (const Scheme scheme :
       {Scheme::kScanEffi, Scheme::kBinRan, Scheme::kScanRan}) {
    SCOPED_TRACE(scheme_name(scheme));
    const Knowledge knowledge(&s.cluster, scheme_knowledge(scheme),
                              scheme_uses_scan(scheme) ? &s.db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    const SimResult first = sim.run(tasks);
    const SimResult second = sim.run(tasks);
    expect_identical(first, second);
  }
}

}  // namespace
}  // namespace iscope
