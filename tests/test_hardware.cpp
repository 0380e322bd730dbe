#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/config.hpp"
#include "fnv1a.hpp"
#include "hardware/cluster.hpp"
#include "hardware/dvfs.hpp"

namespace iscope {
namespace {

ClusterConfig small_config(std::size_t n = 32, std::uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.num_processors = n;
  cfg.seed = seed;
  return cfg;
}

// ------------------------------------------------------------------ DVFS

TEST(Dvfs, StartsGated) {
  const FreqLevels levels = FreqLevels::paper_default();
  DvfsState s(&levels);
  EXPECT_FALSE(s.is_on());
  EXPECT_DOUBLE_EQ(s.freq().gigahertz(), 0.0);
  EXPECT_THROW(s.level(), InvalidArgument);
}

TEST(Dvfs, PowerOnOffCycle) {
  const FreqLevels levels = FreqLevels::paper_default();
  DvfsState s(&levels);
  s.power_on(2);
  EXPECT_TRUE(s.is_on());
  EXPECT_EQ(s.level(), 2u);
  EXPECT_DOUBLE_EQ(s.freq().gigahertz(), levels.freq_ghz[2]);
  s.set_level(4);
  EXPECT_EQ(s.level(), 4u);
  s.power_off();
  EXPECT_FALSE(s.is_on());
  EXPECT_DOUBLE_EQ(s.freq().gigahertz(), 0.0);
}

TEST(Dvfs, Validation) {
  const FreqLevels levels = FreqLevels::paper_default();
  EXPECT_THROW(DvfsState(nullptr), InvalidArgument);
  DvfsState s(&levels);
  EXPECT_THROW(s.power_on(99), InvalidArgument);
  EXPECT_THROW(s.set_level(0), InvalidArgument);  // gated
  s.power_on(0);
  EXPECT_THROW(s.set_level(99), InvalidArgument);
  EXPECT_EQ(s.num_levels(), 5u);
  EXPECT_EQ(s.top_level(), 4u);
}

// ---------------------------------------------------------------- Cluster

TEST(Cluster, BuildAssignsIdsAndBins) {
  const Cluster c = build_cluster(small_config());
  EXPECT_EQ(c.size(), 32u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.proc(i).id, i);
    EXPECT_GE(c.proc(i).bin, 0);
    EXPECT_LT(c.proc(i).bin, 3);
    EXPECT_EQ(c.proc(i).core_count(), 4u);  // quad-core layout
  }
}

TEST(Cluster, TruthCurvesConsistent) {
  const Cluster c = build_cluster(small_config());
  const std::size_t levels = c.levels().count();
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Processor& p = c.proc(i);
    for (std::size_t l = 0; l < levels; ++l) {
      // Chip truth is the max over cores.
      double max_core = 0.0;
      for (const auto& core : p.core_truth)
        max_core = std::max(max_core, core.vdd(l));
      EXPECT_DOUBLE_EQ(p.chip_truth.vdd(l), max_core);
      EXPECT_DOUBLE_EQ(c.true_vdd(i, l).volts(), p.chip_truth.vdd(l));
    }
  }
}

TEST(Cluster, BinVoltageDominatesTruth) {
  const Cluster c = build_cluster(small_config(64, 3));
  for (std::size_t i = 0; i < c.size(); ++i)
    for (std::size_t l = 0; l < c.levels().count(); ++l)
      EXPECT_GE(c.bin_vdd(i, l), c.true_vdd(i, l));
}

TEST(Cluster, DeterministicAcrossBuilds) {
  const Cluster a = build_cluster(small_config(16, 42));
  const Cluster b = build_cluster(small_config(16, 42));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.proc(i).coeffs.alpha, b.proc(i).coeffs.alpha);
    EXPECT_EQ(a.proc(i).coeffs.beta, b.proc(i).coeffs.beta);
    EXPECT_EQ(a.proc(i).chip_truth.vdds(), b.proc(i).chip_truth.vdds());
    EXPECT_EQ(a.proc(i).bin, b.proc(i).bin);
  }
}

TEST(Cluster, SeedsChangePopulation) {
  const Cluster a = build_cluster(small_config(16, 1));
  const Cluster b = build_cluster(small_config(16, 2));
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.proc(i).chip_truth.vdds() != b.proc(i).chip_truth.vdds())
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Cluster, PowerMatchesModel) {
  const Cluster c = build_cluster(small_config());
  const std::size_t top = c.levels().count() - 1;
  const Processor& p = c.proc(0);
  const double v = c.levels().vdd_nom[top];
  EXPECT_DOUBLE_EQ(
      c.power(0, top, Volts{v}).watts(),
      c.power_model()
          .power_eq1(p.coeffs, Gigahertz{c.levels().freq_ghz[top]})
          .watts());
}

TEST(Cluster, ScanVoltageCheaperThanBin) {
  const Cluster c = build_cluster(small_config(64, 7));
  const std::size_t top = c.levels().count() - 1;
  double scan_total = 0.0, bin_total = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    scan_total += c.power(i, top, c.true_vdd(i, top)).watts();
    bin_total += c.power(i, top, c.bin_vdd(i, top)).watts();
  }
  EXPECT_LT(scan_total, bin_total);
}

TEST(Cluster, Validation) {
  ClusterConfig cfg = small_config();
  cfg.num_processors = 0;
  EXPECT_THROW(build_cluster(cfg), InvalidArgument);
  cfg = small_config();
  cfg.num_bins = 0;
  EXPECT_THROW(build_cluster(cfg), InvalidArgument);
  const Cluster c = build_cluster(small_config());
  EXPECT_THROW(c.proc(999), InvalidArgument);
  EXPECT_THROW(c.power(0, 99, Volts{1.0}), InvalidArgument);
}

TEST(Cluster, BinPopulationsBalanced) {
  const Cluster c = build_cluster(small_config(90, 5));
  const auto& sizes = c.binning().bin_sizes;
  ASSERT_EQ(sizes.size(), 3u);
  for (const std::size_t s : sizes) EXPECT_EQ(s, 30u);
}

// ------------------------------------------------- golden cluster digests
//
// A 64-bit FNV-1a over everything build_cluster fabricates: every
// Processor field (id, the D2D offset and each core's vth / speed_k /
// leak_scale, the Eq-1 coefficients, every core_truth and chip_truth
// curve, the bin) and the BinningResult's bin sizes and bin curves.
// Doubles hash by bit pattern, so any ULP change in the variation model,
// the Min Vdd solve or the binning changes the digest.

void hash_curve(Fnv1a& h, const MinVddCurve& c) {
  h.word(c.levels());
  for (const double f : c.freqs()) h.real(f);
  for (const double v : c.vdds()) h.real(v);
}

std::uint64_t cluster_digest(const Cluster& c) {
  Fnv1a h;
  h.word(c.size());
  for (const Processor& p : c.processors()) {
    h.word(p.id);
    h.real(p.variation.d2d_offset);
    h.word(p.variation.cores.size());
    for (const CoreVariation& core : p.variation.cores) {
      h.real(core.vth);
      h.real(core.speed_k);
      h.real(core.leak_scale);
    }
    h.real(p.coeffs.alpha.raw());
    h.real(p.coeffs.beta.raw());
    h.word(p.core_truth.size());
    for (const MinVddCurve& curve : p.core_truth) hash_curve(h, curve);
    hash_curve(h, p.chip_truth);
    h.word(static_cast<std::uint64_t>(p.bin));
  }
  const BinningResult& b = c.binning();
  h.word(b.bin_curve.size());
  for (const MinVddCurve& curve : b.bin_curve) hash_curve(h, curve);
  h.word(b.bin_sizes.size());
  for (const std::size_t n : b.bin_sizes) h.word(n);
  return h.value();
}

/// The clusters the table pins. Besides the experiment presets, one has no
/// retention floor (Min Vdd is always the bisection's answer) and one
/// raises Vth so that some cores' bisection starts at or above the floor.
std::vector<std::pair<std::string, ClusterConfig>> digest_cases() {
  std::vector<std::pair<std::string, ClusterConfig>> cases;
  ClusterConfig small = ExperimentConfig::paper_small().cluster;
  small.seed = 1;
  cases.emplace_back("paper_small/seed1", small);
  small.seed = 7;
  cases.emplace_back("paper_small/seed7", small);
  cases.emplace_back("scaled2",
                     ExperimentConfig::paper_small().scaled(2.0).cluster);
  cases.emplace_back("scaled10",
                     ExperimentConfig::paper_small().scaled(10.0).cluster);
  ClusterConfig no_floor = ExperimentConfig::paper_small().cluster;
  no_floor.varius.v_floor = 0.0;
  cases.emplace_back("no_floor", no_floor);
  ClusterConfig high_vth = ExperimentConfig::paper_small().cluster;
  high_vth.varius.vth_nominal = 0.66;
  cases.emplace_back("high_vth", high_vth);
  return cases;
}

struct ClusterDigest {
  const char* key;
  std::uint64_t digest;
};

/// The committed table, captured before the Min Vdd solve was accelerated.
/// Regenerate it (a deliberate fabrication change only) with the
/// ClusterDigests.DISABLED_PrintTable printer below; DESIGN.md Sec. 9
/// gives the command.
constexpr ClusterDigest kClusterDigests[] = {
#include "cluster_digests.inc"
};

TEST(ClusterDigests, MatchGoldenTable) {
  const auto cases = digest_cases();
  ASSERT_EQ(cases.size(), std::size(kClusterDigests));
  for (const auto& [key, cfg] : cases) {
    const auto* const it = std::find_if(
        std::begin(kClusterDigests), std::end(kClusterDigests),
        [&key](const ClusterDigest& g) { return key == g.key; });
    ASSERT_NE(it, std::end(kClusterDigests))
        << "no golden digest for " << key
        << " (regenerate cluster_digests.inc)";
    EXPECT_EQ(cluster_digest(build_cluster(cfg)), it->digest) << key;
  }
}

TEST(ClusterDigests, HighVthCaseStartsAtOrAboveTheFloor) {
  // The high_vth case is only useful if some core's bisection starts at or
  // above the retention floor.
  const ClusterConfig cfg = digest_cases().back().second;
  const Cluster c = build_cluster(cfg);
  std::size_t above = 0;
  for (const Processor& p : c.processors())
    for (const CoreVariation& core : p.variation.cores)
      if (core.vth + 1e-6 >= cfg.varius.v_floor) ++above;
  EXPECT_GT(above, 0u);
}

// Regeneration path (DESIGN.md Sec. 9): prints cluster_digests.inc.
TEST(ClusterDigests, DISABLED_PrintTable) {
  for (const auto& [key, cfg] : digest_cases())
    std::printf("{\"%s\", 0x%016llxull},\n", key.c_str(),
                static_cast<unsigned long long>(
                    cluster_digest(build_cluster(cfg))));
}

}  // namespace
}  // namespace iscope
