#include "sched/power_matcher.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "hardware/cluster.hpp"

namespace iscope {
namespace {

struct Fixture {
  Cluster cluster;
  Knowledge knowledge;
  PowerMatcher matcher;

  Fixture()
      : cluster(build_cluster([] {
          ClusterConfig cfg;
          cfg.num_processors = 16;
          cfg.seed = 7;
          return cfg;
        }())),
        knowledge(&cluster, KnowledgeSource::kBin),
        matcher(&knowledge, 1.4) {}

  ActiveTask task(double work = 1000.0, double deadline = 1e9,
                  double gamma = 1.0,
                  std::vector<std::size_t> procs = {0, 1}) {
    ActiveTask t;
    t.remaining_work_s = work;
    t.deadline_s = deadline;
    t.gamma = gamma;
    t.procs = std::move(procs);
    return t;
  }
};

TEST(MinFeasibleLevel, LooseDeadlineAllowsBottom) {
  Fixture f;
  const ActiveTask t = f.task(1000.0, 1e9);
  EXPECT_EQ(f.matcher.min_feasible_level(t, 0.0), 0u);
}

TEST(MinFeasibleLevel, TightDeadlineForcesTop) {
  Fixture f;
  // Work 1000 s at Fmax, deadline in 1000 s: only the top level fits.
  const ActiveTask t = f.task(1000.0, 1000.0);
  EXPECT_EQ(f.matcher.min_feasible_level(t, 0.0),
            f.knowledge.levels() - 1);
}

TEST(MinFeasibleLevel, ImpossibleDeadlineStillTop) {
  Fixture f;
  const ActiveTask t = f.task(1000.0, 10.0);
  EXPECT_EQ(f.matcher.min_feasible_level(t, 0.0),
            f.knowledge.levels() - 1);
}

TEST(MinFeasibleLevel, IntermediateDeadline) {
  Fixture f;
  // gamma=1: level freq 1.375 GHz has slowdown 2/1.375 = 1.4545...
  // 1000 * 1.4545 = 1454 s. Deadline 1500 from now admits level 2.
  const ActiveTask t = f.task(1000.0, 1500.0);
  const std::size_t l = f.matcher.min_feasible_level(t, 0.0);
  EXPECT_EQ(l, 2u);
  // Moving "now" later tightens it.
  EXPECT_GT(f.matcher.min_feasible_level(t, 400.0), l);
}

TEST(EnergyOptimal, NotTheBottomLevel) {
  // With beta = 65 dominating at low f, crawling wastes static energy:
  // the optimum must sit above the bottom level for a CPU-bound task.
  Fixture f;
  const ActiveTask t = f.task(1000.0, 1e9, 1.0);
  const std::size_t l = f.matcher.energy_optimal_level(t, 0);
  EXPECT_GT(l, 0u);
  EXPECT_LT(l, f.knowledge.levels());
}

TEST(EnergyOptimal, RespectsFloor) {
  Fixture f;
  const ActiveTask t = f.task();
  const std::size_t top = f.knowledge.levels() - 1;
  EXPECT_EQ(f.matcher.energy_optimal_level(t, top), top);
}

TEST(EnergyOptimal, IsActuallyOptimal) {
  Fixture f;
  ActiveTask t = f.task(1000.0, 1e9, 0.8, {3, 4, 5});
  const std::size_t best = f.matcher.energy_optimal_level(t, 0);
  const double e_best =
      f.matcher.task_power(t, best).watts() * f.matcher.slowdown(t, best);
  for (std::size_t l = 0; l < f.knowledge.levels(); ++l) {
    const double e = f.matcher.task_power(t, l).watts() * f.matcher.slowdown(t, l);
    EXPECT_GE(e, e_best - 1e-9);
  }
}

TEST(EnergyOptimal, IoBoundPrefersLowerFrequency) {
  // gamma = 0: runtime does not stretch, so the cheapest level is the
  // bottom one (pure power minimization).
  Fixture f;
  const ActiveTask t = f.task(1000.0, 1e9, 0.0);
  EXPECT_EQ(f.matcher.energy_optimal_level(t, 0), 0u);
}

TEST(Match, EmptyTaskListIsZero) {
  Fixture f;
  std::vector<ActiveTask> tasks;
  const MatchResult r = f.matcher.match_reference(tasks, Watts{1000.0}, 0.0);
  EXPECT_DOUBLE_EQ(r.demand.watts(), 0.0);
  EXPECT_EQ(r.steps, 0u);
}

TEST(Match, NoWindRunsEnergyOptimalBaseline) {
  Fixture f;
  std::vector<ActiveTask> tasks = {f.task(), f.task(500.0, 1e9, 0.9, {2, 3})};
  const MatchResult r = f.matcher.match_reference(tasks, Watts{0.0}, 0.0);
  EXPECT_EQ(r.steps, 0u);
  for (const auto& t : tasks) {
    const std::size_t expect = f.matcher.energy_optimal_level(
        t, f.matcher.min_feasible_level(t, 0.0));
    EXPECT_EQ(t.level, expect);
  }
}

TEST(Match, AbundantWindKeepsBaseline) {
  Fixture f;
  std::vector<ActiveTask> tasks = {f.task()};
  const MatchResult r = f.matcher.match_reference(tasks, Watts{1e9}, 0.0);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_LE(r.demand.watts(), 1e9);
}

TEST(Match, MidWindStepsDownToFit) {
  Fixture f;
  std::vector<ActiveTask> tasks;
  for (int i = 0; i < 4; ++i)
    tasks.push_back(f.task(1000.0, 1e9, 1.0,
                           {static_cast<std::size_t>(2 * i),
                            static_cast<std::size_t>(2 * i + 1)}));
  // Baseline demand:
  std::vector<ActiveTask> probe = tasks;
  const double baseline =
      f.matcher.match_reference(probe, Watts{0.0}, 0.0).demand.watts();
  // All-floor demand:
  std::vector<ActiveTask> floors = tasks;
  double floor_w = 0.0;
  for (auto& t : floors)
    floor_w += f.matcher.task_power(t, 0).watts();
  floor_w *= f.matcher.cooling_factor();
  // A budget between floor and baseline is reachable by stepping down.
  const double budget = 0.5 * (floor_w + baseline);
  const MatchResult r = f.matcher.match_reference(tasks, Watts{budget}, 0.0);
  EXPECT_GT(r.steps, 0u);
  EXPECT_LE(r.demand.watts(), budget + 1e-9);
}

TEST(Match, UnreachableWindSkipsStretching) {
  // Wind below the all-floors demand: stretching would only defer utility
  // burn, so the matcher keeps the energy-optimal baseline (DESIGN.md /
  // Sec. V-C refinement).
  Fixture f;
  std::vector<ActiveTask> tasks = {f.task(), f.task(800.0, 1e9, 1.0, {4, 5})};
  const MatchResult no_wind =
      f.matcher.match_reference(tasks, Watts{0.0}, 0.0);
  std::vector<ActiveTask> again = {f.task(), f.task(800.0, 1e9, 1.0, {4, 5})};
  const MatchResult tiny_wind =
      f.matcher.match_reference(again, Watts{1.0}, 0.0);
  EXPECT_EQ(tiny_wind.steps, 0u);
  EXPECT_DOUBLE_EQ(tiny_wind.demand.watts(), no_wind.demand.watts());
}

TEST(Match, DeadlineFloorsAreRespected) {
  Fixture f;
  // Tight deadline: floor at the top level; wind pressure must not push it
  // below.
  std::vector<ActiveTask> tasks = {f.task(1000.0, 1000.0)};
  const MatchResult r = f.matcher.match_reference(tasks, Watts{10.0}, 0.0);
  EXPECT_EQ(tasks[0].level, f.knowledge.levels() - 1);
  EXPECT_GT(r.demand.watts(), 10.0);  // utility will supplement
}

TEST(Match, DemandIncludesCoolingFactor) {
  Fixture f;
  std::vector<ActiveTask> tasks = {f.task()};
  const MatchResult r = f.matcher.match_reference(tasks, Watts{0.0}, 0.0);
  EXPECT_NEAR(r.demand.watts(), r.compute.watts() * 1.4, 1e-9);
}

TEST(Match, Deterministic) {
  Fixture f;
  std::vector<ActiveTask> a = {f.task(), f.task(500.0, 5000.0, 0.7, {2, 3})};
  std::vector<ActiveTask> b = a;
  const MatchResult ra = f.matcher.match_reference(a, Watts{300.0}, 0.0);
  const MatchResult rb = f.matcher.match_reference(b, Watts{300.0}, 0.0);
  EXPECT_EQ(ra.demand.watts(), rb.demand.watts());
  EXPECT_EQ(a[0].level, b[0].level);
  EXPECT_EQ(a[1].level, b[1].level);
}

TEST(Match, TaskPowerSumsProcessors) {
  Fixture f;
  ActiveTask t = f.task(100.0, 1e9, 1.0, {0, 1, 2});
  const std::size_t top = f.knowledge.levels() - 1;
  const double expect = f.knowledge.power(0, top).watts() +
                        f.knowledge.power(1, top).watts() +
                        f.knowledge.power(2, top).watts();
  EXPECT_DOUBLE_EQ(f.matcher.task_power(t, top).watts(), expect);
}

TEST(Match, Validation) {
  Fixture f;
  EXPECT_THROW(PowerMatcher(nullptr, 1.4), InvalidArgument);
  EXPECT_THROW(PowerMatcher(&f.knowledge, 0.9), InvalidArgument);
  std::vector<ActiveTask> tasks = {f.task()};
  EXPECT_THROW(f.matcher.match_reference(tasks, Watts{-1.0}, 0.0),
               InvalidArgument);
}

}  // namespace
}  // namespace iscope
