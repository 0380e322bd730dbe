#include "variation/varius.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace iscope {
namespace {

VariusModel default_model() {
  return VariusModel(VariusParams{}, quad_core_layout());
}

CoreVariation nominal_core(const VariusModel& m) {
  CoreVariation c;
  c.vth = m.params().vth_nominal;
  c.speed_k = m.nominal_speed_k();
  c.leak_scale = 1.0;
  return c;
}

TEST(VariusParams, ValidationCatchesBadValues) {
  VariusParams p;
  p.vth_nominal = -0.1;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = VariusParams{};
  p.alpha_power = 0.9;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = VariusParams{};
  p.v_nominal = 0.2;  // below vth
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = VariusParams{};
  p.vdd_margin = 0.6;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = VariusParams{};
  p.v_floor = 2.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(VariusModel, CalibrationAnchor) {
  // The exactly-nominal core's fmax at the anchor voltage equals f_nominal.
  const VariusModel m = default_model();
  const VariusParams& p = m.params();
  const double v_anchor = p.v_nominal * (1.0 - p.vdd_margin);
  const CoreVariation core = nominal_core(m);
  EXPECT_NEAR(m.fmax_ghz(core, v_anchor), p.f_nominal_ghz, 1e-9);
}

TEST(VariusModel, FmaxMonotoneInVoltage) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  double prev = 0.0;
  for (double v = 0.5; v <= 1.6; v += 0.05) {
    const double f = m.fmax_ghz(core, v);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(VariusModel, FmaxZeroBelowThreshold) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  EXPECT_EQ(m.fmax_ghz(core, core.vth * 0.9), 0.0);
}

TEST(VariusModel, MinVddInvertsAlphaPowerLaw) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  for (const double f : {0.75, 1.0, 1.5, 2.0}) {
    const double v = m.min_vdd(core, f);
    if (v > m.params().v_floor) {
      EXPECT_NEAR(m.fmax_ghz(core, v), f, 1e-6);
    } else {
      // Floor binds: the core can actually go faster at the floor voltage.
      EXPECT_GE(m.fmax_ghz(core, v), f);
    }
  }
}

TEST(VariusModel, MinVddMonotoneInFrequency) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  double prev = 0.0;
  for (double f = 0.5; f <= 2.0; f += 0.25) {
    const double v = m.min_vdd(core, f);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(VariusModel, MinVddRespectsFloor) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  EXPECT_GE(m.min_vdd(core, 0.1), m.params().v_floor);
}

TEST(VariusModel, MinVddUnreachableThrows) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  EXPECT_THROW(m.min_vdd(core, 100.0), InvalidArgument);
  EXPECT_THROW(m.min_vdd(core, 1.0, core.vth * 0.5), InvalidArgument);
}

TEST(VariusModel, SlowerCoreNeedsHigherVoltage) {
  const VariusModel m = default_model();
  CoreVariation fast = nominal_core(m);
  CoreVariation slow = fast;
  slow.vth *= 1.1;  // higher threshold -> slower
  EXPECT_GT(m.min_vdd(slow, 2.0), m.min_vdd(fast, 2.0));
}

TEST(VariusModel, LeakageFallsWithVth) {
  const VariusModel m = default_model();
  Rng rng(1);
  const ChipVariation chip = m.sample_chip(rng);
  // Across sampled cores, higher vth must mean lower leak_scale.
  for (std::size_t i = 0; i < chip.cores.size(); ++i)
    for (std::size_t j = 0; j < chip.cores.size(); ++j)
      if (chip.cores[i].vth > chip.cores[j].vth) {
        EXPECT_LT(chip.cores[i].leak_scale, chip.cores[j].leak_scale);
      }
}

TEST(VariusModel, LeakageScalesWithVoltage) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  EXPECT_GT(m.leakage_rel(core, 1.3), m.leakage_rel(core, 1.0));
  EXPECT_NEAR(m.leakage_rel(core, m.params().v_nominal), 1.0, 1e-12);
}

TEST(VariusModel, SampleChipDeterministic) {
  const VariusModel m = default_model();
  Rng a(5), b(5);
  const ChipVariation c1 = m.sample_chip(a);
  const ChipVariation c2 = m.sample_chip(b);
  ASSERT_EQ(c1.cores.size(), c2.cores.size());
  for (std::size_t i = 0; i < c1.cores.size(); ++i) {
    EXPECT_EQ(c1.cores[i].vth, c2.cores[i].vth);
    EXPECT_EQ(c1.cores[i].speed_k, c2.cores[i].speed_k);
  }
}

TEST(VariusModel, PopulationStatistics) {
  const VariusModel m = default_model();
  Rng rng(9);
  RunningStats vth;
  for (int i = 0; i < 500; ++i) {
    const ChipVariation chip = m.sample_chip(rng);
    for (const auto& core : chip.cores) vth.add(core.vth);
  }
  const VariusParams& p = m.params();
  EXPECT_NEAR(vth.mean(), p.vth_nominal, 0.01);
  // Core-averaged WID variance is damped; D2D passes through fully, so the
  // observed sigma lies between sigma_d2d and the combined value.
  const double rel_sigma = vth.stddev() / p.vth_nominal;
  EXPECT_GT(rel_sigma, p.sigma_d2d * 0.8);
  EXPECT_LT(rel_sigma,
            std::sqrt(p.sigma_d2d * p.sigma_d2d + p.sigma_wid * p.sigma_wid) *
                1.2);
}

TEST(VariusModel, LeakageSpreadIsLarge) {
  // The paper cites up to 20x chip leakage spread [14]; with default sigmas
  // the population min/max leak ratio should span at least several-fold.
  const VariusModel m = default_model();
  Rng rng(10);
  double lo = 1e18, hi = 0.0;
  for (int i = 0; i < 500; ++i) {
    const ChipVariation chip = m.sample_chip(rng);
    for (const auto& core : chip.cores) {
      lo = std::min(lo, core.leak_scale);
      hi = std::max(hi, core.leak_scale);
    }
  }
  EXPECT_GT(hi / lo, 4.0);
}

TEST(A10Params, CalibratedToFigure4) {
  // Fabricate many A10-like cores; Min Vdd at 3.8 GHz should center near
  // the paper's 1.219 V mean and stay within a plausible band of the
  // reported [1.19, 1.25] range.
  const VariusParams p = a10_params();
  const VariusModel m(p, quad_core_layout());
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200; ++i) {
    const ChipVariation chip = m.sample_chip(rng);
    for (const auto& core : chip.cores)
      stats.add(m.min_vdd(core, 3.8));
  }
  EXPECT_NEAR(stats.mean(), 1.219, 0.015);
  EXPECT_GT(stats.min(), 1.13);
  EXPECT_LT(stats.max(), 1.31);
  // Everything runs below the 1.375 V nominal (the ~9% margin claim).
  EXPECT_LT(stats.max(), 1.375);
}

// ------------------------------------------------ Min Vdd oracle property
//
// min_vdd skips the bisection steps whose outcome is already certain
// (varius.cpp). The unaccelerated solve stays here as the oracle: a fixed
// 80-step bisection with one fmax evaluation per step, the argument checks
// and the unreachable-frequency throw in the same order.

double min_vdd_bisection(const VariusModel& m, const CoreVariation& core,
                         double f_ghz, double v_ceiling) {
  ISCOPE_CHECK_ARG(f_ghz > 0.0, "min_vdd: frequency must be > 0");
  ISCOPE_CHECK_ARG(v_ceiling > core.vth, "min_vdd: ceiling below Vth");
  if (m.fmax_ghz(core, v_ceiling) < f_ghz)
    throw InvalidArgument("min_vdd: frequency unreachable below ceiling");
  // fmax is monotone increasing in V for alpha >= 1, so bisect.
  double lo = core.vth + 1e-6;
  double hi = v_ceiling;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (m.fmax_ghz(core, mid) >= f_ghz) hi = mid;
    else lo = mid;
  }
  return std::max(hi, m.params().v_floor);
}

/// A solve's outcome: the result's bit pattern, or that it threw.
struct Outcome {
  bool threw = false;
  std::uint64_t bits = 0;
  bool operator==(const Outcome&) const = default;
};

template <typename Solve>
Outcome outcome_of(Solve&& solve) {
  try {
    return {false, std::bit_cast<std::uint64_t>(solve())};
  } catch (const InvalidArgument&) {
    return {true, 0};
  }
}

/// `x` moved by `ulps` representable doubles (negative = down).
double ulp_step(double x, std::int64_t ulps) {
  const double toward =
      ulps < 0 ? 0.0 : std::numeric_limits<double>::infinity();
  for (std::int64_t i = 0; i < std::abs(ulps); ++i)
    x = std::nextafter(x, toward);
  return x;
}

TEST(MinVddProperty, MatchesPlainBisectionBitForBit) {
  VariusParams no_floor;
  no_floor.v_floor = 0.0;
  VariusParams high_vth;  // some cores start the bisection above the floor
  high_vth.vth_nominal = 0.66;
  const VariusParams param_sets[] = {VariusParams{}, a10_params(), no_floor,
                                     high_vth};
  std::uint64_t draws = 0;
  std::uint64_t seed = 100;
  for (const VariusParams& params : param_sets) {
    const VariusModel m(params, quad_core_layout());
    Rng rng(++seed);
    for (int chip_i = 0; chip_i < 600; ++chip_i) {
      const ChipVariation chip = m.sample_chip(rng);
      for (const CoreVariation& core : chip.cores) {
        for (const double ceiling : {2.0, 3.0}) {
          const double f_ceiling = m.fmax_ghz(core, ceiling);
          const double f_floor =
              params.v_floor > 0.0 ? m.fmax_ghz(core, params.v_floor) : 0.0;
          // The bisection starts at lo = vth + 1e-6 without evaluating it.
          const double f_start = m.fmax_ghz(core, core.vth + 1e-6);
          std::vector<double> freqs;
          // Anywhere in (0, fmax(ceiling)].
          for (int k = 0; k < 3; ++k)
            freqs.push_back(f_ceiling * (1.0 - rng.uniform()));
          // Within 1e-9 relative of fmax(v_floor), where the floor
          // certificate stops firing, and a few ULPs around the exact
          // certificate threshold and around fmax(v_floor) itself.
          if (f_floor > 0.0) {
            freqs.push_back(f_floor * (1.0 + rng.uniform(-1e-9, 1e-9)));
            freqs.push_back(
                ulp_step(f_floor / (1.0 + 1e-9), rng.uniform_int(-8, 8)));
            freqs.push_back(ulp_step(f_floor, rng.uniform_int(-8, 8)));
          } else {
            for (int k = 0; k < 3; ++k)
              freqs.push_back(f_ceiling * (1.0 - rng.uniform()));
          }
          // At or below fmax(vth + 1e-6), where even the unevaluated start
          // of the bracket is fast enough, and a few ULPs around it.
          freqs.push_back(f_start * (1.0 - rng.uniform()));
          freqs.push_back(ulp_step(f_start, rng.uniform_int(-8, 8)));
          // Within 1e-9 relative of fmax(ceiling), half of them unreachable,
          // and a few ULPs around it.
          for (int k = 0; k < 2; ++k)
            freqs.push_back(f_ceiling * (1.0 + rng.uniform(-1e-9, 1e-9)));
          freqs.push_back(ulp_step(f_ceiling, rng.uniform_int(-4, 4)));
          for (const double f : freqs) {
            const Outcome want = outcome_of(
                [&] { return min_vdd_bisection(m, core, f, ceiling); });
            const Outcome got =
                outcome_of([&] { return m.min_vdd(core, f, ceiling); });
            ASSERT_EQ(got, want)
                << "vth " << core.vth << " speed_k " << core.speed_k
                << " f " << f << " ceiling " << ceiling << " floor "
                << params.v_floor << " threw " << got.threw << "/"
                << want.threw;
            ++draws;
          }
        }
      }
    }
  }
  EXPECT_GE(draws, 100'000u);
}

// The one draw family known to make min_vdd's window check reject: with
// alpha = 1 and no retention floor, f = 8e-11 GHz puts the root within
// 1e-10 (relative) of vth, so the window's low end r (1 - 1e-10) is at or
// below vth. The check rejects, every mid is evaluated, and the answer
// must still be the plain bisection's. No input is known that makes the
// Newton estimate itself miss, so the check's protective case stays
// untested (DESIGN.md Sec. 9).
TEST(MinVddProperty, WindowCheckRejectsNearVth) {
  VariusParams linear;
  linear.alpha_power = 1.0;
  linear.v_floor = 0.0;
  const VariusModel m(linear, quad_core_layout());
  Rng rng(131);
  std::size_t near_vth = 0;
  for (int chip_i = 0; chip_i < 50; ++chip_i) {
    for (const CoreVariation& core : m.sample_chip(rng).cores) {
      for (const double f : {8e-11, 2e-11, 1e-10}) {
        const Outcome want =
            outcome_of([&] { return min_vdd_bisection(m, core, f, 2.0); });
        const Outcome got =
            outcome_of([&] { return m.min_vdd(core, f, 2.0); });
        ASSERT_EQ(got, want) << "vth " << core.vth << " f " << f;
        // At alpha = 1, fmax(v) = k (v - vth) / v = f has the root
        // vth / (1 - f / k).
        const double root = core.vth / (1.0 - f / core.speed_k);
        if (root * (1.0 - 1e-10) <= core.vth) ++near_vth;
      }
    }
  }
  EXPECT_GT(near_vth, 0u);
}

}  // namespace
}  // namespace iscope
