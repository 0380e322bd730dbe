#include "sched/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hardware/cluster.hpp"

namespace iscope {
namespace {

struct Fixture {
  Cluster cluster;
  Knowledge knowledge;
  std::vector<double> busy;

  explicit Fixture(std::size_t n = 20)
      : cluster(build_cluster([&] {
          ClusterConfig cfg;
          cfg.num_processors = n;
          cfg.seed = 3;
          return cfg;
        }())),
        knowledge(&cluster, KnowledgeSource::kBin),
        busy(n, 0.0) {}

  PlacementContext ctx(bool wind_abundant = false, bool forced = false,
                       bool has_wind = false,
                       double slack_s = 10.0 * 3600.0) {
    PlacementContext c;
    c.busy_time_s = &busy;
    c.now_s = 0.0;
    c.has_wind = has_wind;
    c.wind_abundant = wind_abundant;
    c.forced = forced;
    c.slack_s = slack_s;  // generous by default: deferral allowed
    return c;
  }

  std::vector<std::size_t> all_idle() {
    std::vector<std::size_t> idle(cluster.size());
    std::iota(idle.begin(), idle.end(), 0);
    return idle;
  }
};

TEST(PolicyNames, Strings) {
  EXPECT_STREQ(placement_rule_name(PlacementRule::kRandom), "Ran");
  EXPECT_STREQ(placement_rule_name(PlacementRule::kEfficiency), "Effi");
  EXPECT_STREQ(placement_rule_name(PlacementRule::kFair), "Fair");
}

TEST(RandomPolicy, PicksDistinctIdleProcs) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kRandom, 1);
  auto idle = f.all_idle();
  const auto ctx = f.ctx();
  for (int round = 0; round < 20; ++round) {
    auto scratch = idle;
    auto pick = p.choose(5, scratch, ctx);
    ASSERT_TRUE(pick.has_value());
    std::set<std::size_t> uniq(pick->begin(), pick->end());
    EXPECT_EQ(uniq.size(), 5u);
    for (const std::size_t id : *pick) EXPECT_LT(id, f.cluster.size());
  }
}

TEST(RandomPolicy, NeverWaitsVoluntarily) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kRandom, 2);
  auto idle = f.all_idle();
  const auto ctx = f.ctx(false, false);
  EXPECT_TRUE(p.choose(1, idle, ctx).has_value());
}

TEST(RandomPolicy, DifferentSeedsDifferentPicks) {
  Fixture f;
  PlacementPolicy a(&f.knowledge, PlacementRule::kRandom, 1);
  PlacementPolicy b(&f.knowledge, PlacementRule::kRandom, 99);
  auto i1 = f.all_idle(), i2 = f.all_idle();
  const auto ctx = f.ctx();
  EXPECT_NE(*a.choose(8, i1, ctx), *b.choose(8, i2, ctx));
}

TEST(AnyPolicy, InsufficientIdleMeansWait) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kRandom, 3);
  std::vector<std::size_t> idle = {0, 1};
  EXPECT_FALSE(p.choose(3, idle, f.ctx()).has_value());
}

TEST(EffiPolicy, PicksMostEfficientIdle) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 4);
  auto idle = f.all_idle();
  auto pick = p.choose(3, idle, f.ctx());
  ASSERT_TRUE(pick.has_value());
  // The picked three are exactly the three best-ranked processors.
  std::set<std::size_t> expect(f.knowledge.efficiency_order().begin(),
                               f.knowledge.efficiency_order().begin() + 3);
  std::set<std::size_t> got(pick->begin(), pick->end());
  EXPECT_EQ(got, expect);
}

TEST(EffiPolicy, WaitsWhenPoolBusy) {
  Fixture f(20);
  // Pool = 35% of 20 = 7 best processors. Make them unavailable.
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 5, 0.35);
  std::vector<std::size_t> idle(
      f.knowledge.efficiency_order().begin() + 7,
      f.knowledge.efficiency_order().end());
  EXPECT_FALSE(p.choose(2, idle, f.ctx(false, false)).has_value());
}

TEST(EffiPolicy, ForcedStartsAnywhere) {
  Fixture f(20);
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 6, 0.35);
  std::vector<std::size_t> idle(
      f.knowledge.efficiency_order().begin() + 7,
      f.knowledge.efficiency_order().end());
  EXPECT_TRUE(p.choose(2, idle, f.ctx(false, true)).has_value());
}

TEST(EffiPolicy, PartialPoolOverlapStillWaits) {
  // If the n-th chosen falls outside the pool, the task waits even though
  // the first choices are inside.
  Fixture f(20);
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 7, 0.35);
  const auto& order = f.knowledge.efficiency_order();
  std::vector<std::size_t> idle = {order[0], order[10], order[15]};
  EXPECT_FALSE(p.choose(2, idle, f.ctx()).has_value());
  EXPECT_TRUE(p.choose(1, idle, f.ctx()).has_value());
}

TEST(FairPolicy, NoWindDegeneratesToEffi) {
  Fixture f;
  PlacementPolicy fair(&f.knowledge, PlacementRule::kFair, 8);
  PlacementPolicy effi(&f.knowledge, PlacementRule::kEfficiency, 8);
  auto i1 = f.all_idle(), i2 = f.all_idle();
  const auto ctx = f.ctx(false, false, /*has_wind=*/false);
  EXPECT_EQ(*fair.choose(3, i1, ctx), *effi.choose(3, i2, ctx));
}

TEST(FairPolicy, DefersWhenWindScarce) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 9);
  auto idle = f.all_idle();
  // Wind exists but is scarce; task not forced and has slack -> defer.
  EXPECT_FALSE(p.choose(2, idle, f.ctx(false, false, true)).has_value());
}

TEST(FairPolicy, TightSlackStartsInsteadOfDeferring) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 9);
  auto idle = f.all_idle();
  // Below the deferral slack threshold the task starts immediately.
  EXPECT_TRUE(p.choose(2, idle, f.ctx(false, false, true, 600.0)).has_value());
}

TEST(FairPolicy, HeavyBacklogStopsDeferral) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 9);
  auto idle = f.all_idle();
  auto c = f.ctx(false, false, true);
  c.queue_pressure = kMaxDeferBacklog + 0.1;
  EXPECT_TRUE(p.choose(2, idle, c).has_value());
}

TEST(FairPolicy, ScarceButForcedUsesEfficient) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 10);
  auto idle = f.all_idle();
  auto pick = p.choose(2, idle, f.ctx(false, true, true));
  ASSERT_TRUE(pick.has_value());
  std::set<std::size_t> expect(f.knowledge.efficiency_order().begin(),
                               f.knowledge.efficiency_order().begin() + 2);
  EXPECT_EQ(std::set<std::size_t>(pick->begin(), pick->end()), expect);
}

TEST(FairPolicy, AbundantPicksLeastUsed) {
  Fixture f;
  for (std::size_t i = 0; i < f.busy.size(); ++i)
    f.busy[i] = static_cast<double>(i);  // proc 0 least used
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 11);
  auto idle = f.all_idle();
  auto pick = p.choose(3, idle, f.ctx(true, false, true));
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(std::set<std::size_t>(pick->begin(), pick->end()),
            (std::set<std::size_t>{0, 1, 2}));
}

TEST(FairPolicy, AbundantStartsEvenUnforced) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 12);
  auto idle = f.all_idle();
  EXPECT_TRUE(p.choose(1, idle, f.ctx(true, false, true)).has_value());
}

TEST(Policy, ChosenAreFirstNOfIdle) {
  // The simulator relies on this contract to remove chosen procs.
  Fixture f;
  for (const PlacementRule rule :
       {PlacementRule::kRandom, PlacementRule::kEfficiency,
        PlacementRule::kFair}) {
    PlacementPolicy p(&f.knowledge, rule, 13);
    auto idle = f.all_idle();
    auto pick = p.choose(4, idle, f.ctx(true, true, true));
    ASSERT_TRUE(pick.has_value());
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ((*pick)[i], idle[i]);
  }
}

TEST(Policy, EfficiencyRankInverse) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 14);
  const auto& order = f.knowledge.efficiency_order();
  for (std::size_t rank = 0; rank < order.size(); ++rank)
    EXPECT_EQ(p.efficiency_rank(order[rank]), rank);
}

TEST(Policy, Validation) {
  Fixture f;
  EXPECT_THROW(PlacementPolicy(nullptr, PlacementRule::kRandom, 1),
               InvalidArgument);
  EXPECT_THROW(PlacementPolicy(&f.knowledge, PlacementRule::kRandom, 1, 0.0),
               InvalidArgument);
  PlacementPolicy p(&f.knowledge, PlacementRule::kRandom, 1);
  auto idle = f.all_idle();
  EXPECT_THROW(p.choose(0, idle, f.ctx()), InvalidArgument);
}

// ----------------------------------------------- choose_soa vs the oracle
//
// The scheduler places Effi/Fair/Therm through choose_soa (rank bitset,
// busy-ordered list); choose is its pure-function oracle. Over random
// idle sets, busy times (with ties), widths, pool fractions, contexts and
// thermal-style order overrides, both must agree on accept/reject and
// return the same processors in the same order.

TEST(PlacementProperty, SoaMatchesChooseOracle) {
  // 150 processors: the rank bitset spans three 64-bit words.
  const Fixture f(150);
  const std::size_t procs = f.cluster.size();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 7919 + 3);
    const auto shuffle = [&rng](std::vector<std::size_t>& v) {
      for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
    };
    for (const PlacementRule rule :
         {PlacementRule::kEfficiency, PlacementRule::kFair,
          PlacementRule::kTherm}) {
      SCOPED_TRACE(placement_rule_name(rule));
      const double pool = rng.uniform(0.02, 1.0);
      PlacementPolicy soa(&f.knowledge, rule, seed, pool);
      PlacementPolicy oracle(&f.knowledge, rule, seed, pool);
      if (rng.uniform(0.0, 1.0) < 0.5) {
        std::vector<std::size_t> order(procs);
        std::iota(order.begin(), order.end(), 0);
        shuffle(order);
        soa.override_order(order);
        oracle.override_order(order);
      }
      // Coarse busy times so the (busy, id) order has ties to break.
      std::vector<double> busy(procs);
      for (double& b : busy)
        b = 100.0 * static_cast<double>(rng.uniform_int(0, 5));

      for (int trial = 0; trial < 10; ++trial) {
        SCOPED_TRACE(trial);
        const double idle_share = rng.uniform(0.05, 1.0);
        std::vector<std::size_t> idle;
        for (std::size_t p = 0; p < procs; ++p)
          if (rng.uniform(0.0, 1.0) < idle_share) idle.push_back(p);
        if (idle.empty()) idle.push_back(0);
        std::vector<std::uint64_t> bits((procs + 63) / 64, 0);
        for (const std::size_t p : idle) {
          const std::size_t r = soa.efficiency_rank(p);
          bits[r >> 6] |= std::uint64_t{1} << (r & 63);
        }
        std::vector<std::size_t> by_busy = idle;
        std::sort(by_busy.begin(), by_busy.end(),
                  [&busy](std::size_t a, std::size_t b) {
                    if (busy[a] != busy[b]) return busy[a] < busy[b];
                    return a < b;
                  });
        // The oracle sees the idle set in arbitrary order.
        std::vector<std::size_t> scratch = idle;
        shuffle(scratch);

        PlacementContext ctx;
        ctx.busy_time_s = &busy;
        ctx.forced = rng.uniform(0.0, 1.0) < 0.3;
        ctx.has_wind = rng.uniform(0.0, 1.0) < 0.7;
        ctx.wind_abundant = rng.uniform(0.0, 1.0) < 0.4;
        ctx.slack_s = rng.uniform(0.0, 4.0 * kMinDeferSlackS);
        ctx.queue_pressure = rng.uniform(0.0, 1.5 * kMaxDeferBacklog);
        ctx.current_demand = Watts{rng.uniform(0.0, 2000.0)};
        if (rng.uniform(0.0, 1.0) < 0.5)
          ctx.forecast_mean = Watts{rng.uniform(0.0, 1000.0)};
        const auto width = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(idle.size())));

        std::vector<std::size_t> out;
        const bool soa_ok =
            soa.choose_soa(width, bits.data(), by_busy, ctx, out);
        const auto want = oracle.choose(width, scratch, ctx);
        ASSERT_EQ(soa_ok, want.has_value());
        if (!soa_ok) {
          ++rejected;
          continue;
        }
        ++accepted;
        ASSERT_EQ(out, *want);
      }
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(accepted, 200u);
  EXPECT_GT(rejected, 200u);
}

}  // namespace
}  // namespace iscope
