#include "variation/varius.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace iscope {

void VariusParams::validate() const {
  ISCOPE_CHECK_ARG(vth_nominal > 0.0, "vth_nominal must be > 0");
  ISCOPE_CHECK_ARG(sigma_d2d >= 0.0 && sigma_wid >= 0.0 && speed_sigma >= 0.0,
                   "sigmas must be >= 0");
  ISCOPE_CHECK_ARG(phi > 0.0, "phi must be > 0");
  ISCOPE_CHECK_ARG(alpha_power >= 1.0, "alpha_power must be >= 1");
  ISCOPE_CHECK_ARG(f_nominal_ghz > 0.0, "f_nominal_ghz must be > 0");
  ISCOPE_CHECK_ARG(v_nominal > vth_nominal,
                   "v_nominal must exceed vth_nominal");
  ISCOPE_CHECK_ARG(vdd_margin > 0.0 && vdd_margin < 0.5,
                   "vdd_margin must be in (0, 0.5)");
  ISCOPE_CHECK_ARG(v_floor >= 0.0 && v_floor < v_nominal,
                   "v_floor must be in [0, v_nominal)");
  ISCOPE_CHECK_ARG(v_nominal * (1.0 - vdd_margin) > vth_nominal,
                   "calibration anchor voltage must exceed vth_nominal");
  ISCOPE_CHECK_ARG(subthreshold_slope > 0.0, "subthreshold_slope must be > 0");
}

VariusParams a10_params() {
  VariusParams p;
  p.vth_nominal = 0.35;
  p.f_nominal_ghz = 3.8;
  p.v_nominal = 1.375;
  // Nominal core MinVdd anchored at 1.219 V (Fig. 4A mean): 1 - 1.219/1.375.
  p.vdd_margin = 1.0 - 1.219 / 1.375;
  // Fig. 4A spread: Min Vdd in [1.19, 1.25] over 16 cores -> ~+-1.2% around
  // the mean, driven mostly by cross-chip (D2D) differences.
  p.sigma_d2d = 0.012;
  p.sigma_wid = 0.008;
  p.speed_sigma = 0.01;
  p.v_floor = 0.9;
  return p;
}

VariusModel::VariusModel(const VariusParams& params, const DieLayout& layout)
    : params_(params),
      layout_(layout),
      vth_field_(layout, params.phi),
      speed_field_(layout, params.phi) {
  params_.validate();
  // Calibrate k0 so the exactly-nominal core reaches f_nominal at the anchor
  // voltage v_nominal * (1 - vdd_margin):  f = k (V - Vth)^a / V.
  const double v_anchor = params_.v_nominal * (1.0 - params_.vdd_margin);
  k0_ = params_.f_nominal_ghz * v_anchor /
        std::pow(v_anchor - params_.vth_nominal, params_.alpha_power);
}

ChipVariation VariusModel::sample_chip(Rng& rng) const {
  ChipVariation chip;
  chip.d2d_offset = rng.normal(0.0, params_.sigma_d2d);
  const auto vth_wid = vth_field_.core_means(vth_field_.sample(rng));
  const auto speed_wid = speed_field_.core_means(speed_field_.sample(rng));

  chip.cores.resize(layout_.core_count());
  const double ln10_over_slope = std::log(10.0) / params_.subthreshold_slope;
  for (std::size_t c = 0; c < chip.cores.size(); ++c) {
    CoreVariation& core = chip.cores[c];
    const double rel =
        1.0 + chip.d2d_offset + params_.sigma_wid * vth_wid[c];
    core.vth = params_.vth_nominal * rel;
    core.speed_k = k0_ * (1.0 + params_.speed_sigma * speed_wid[c]);
    // Lower Vth -> exponentially more leakage (subthreshold conduction).
    core.leak_scale = std::exp(-(core.vth - params_.vth_nominal) *
                               ln10_over_slope);
  }
  return chip;
}

double VariusModel::fmax_ghz(const CoreVariation& core, double vdd) const {
  ISCOPE_CHECK_ARG(vdd > 0.0, "fmax_ghz: vdd must be > 0");
  if (vdd <= core.vth) return 0.0;
  return core.speed_k *
         std::pow(vdd - core.vth, params_.alpha_power) / vdd;
}

// min_vdd returns, bit for bit, what a plain 80-step bisection returns:
//
//   lo = vth + 1e-6, hi = v_ceiling; 80 times:
//     mid = 0.5 * (lo + hi); if fmax(mid) >= f then hi = mid else lo = mid;
//   return max(hi, v_floor);
//
// (tests/test_varius.cpp keeps it as the oracle), while skipping the fmax
// evaluations whose outcome is already certain. The error bound behind
// every shortcut: the real fmax(V) = k (V - vth)^a / V is increasing for
// V > vth, and the computed one is within (a + 4) * 2^-53 of it relative
// (the rounded V - vth, amplified a times by the power; glibc pow within
// 1 ULP; the product and quotient), about 6e-16 for a = 1.3 and below
// 1e-13 for every alpha_power under 800. So if the computed fmax at v0
// clears f with a relative margin m far above that error, every double
// on the far side of v0 gets the same pass/fail outcome as v0:
//
// 1. Fixed point. A step whose branch would assign hi or lo the value it
//    already holds leaves the state unchanged; every later step repeats
//    it, so the loop stops there.
// 2. Floor certificate (m = 1e-9). If lo < v_floor and fmax(v_floor)
//    >= f (1 + 1e-9), every double >= v_floor passes: the bisection only
//    ever moves lo below v_floor, its final hi is adjacent to lo and so
//    <= v_floor, and the answer is v_floor. (80 halvings reach adjacent
//    doubles from any ceiling below 256 V: every bracket end is >= 1e-6 V,
//    where doubles are at most 2^-72 apart.)
// 3. Certified window (m = 1e-12). Eight Newton steps estimate the root
//    r of ln fmax(V) = ln f, in t = ln(V - vth), from V = v_ceiling:
//    h(t) = a t - ln(e^t + vth) - ln(f / k) is increasing and concave on
//    the whole line, so a step may overshoot but cannot leave the domain
//    (steps taken in V itself can land below vth; that window failed its
//    check on 65% of the non-floor calls of a default cluster). The window
//    [r (1 - 1e-10), r (1 + 1e-10)] is accepted only if fmax fails at
//    its low end and passes at its high end, each by the margin. The
//    bisection then replays with every mid at or below the window
//    failing and every mid at or above it passing unevaluated; only mids
//    inside the window call fmax. An estimate that fails the check (or
//    is not finite) leaves the window empty, and every mid is evaluated.
double VariusModel::min_vdd(const CoreVariation& core, double f_ghz,
                            double v_ceiling) const {
  ISCOPE_CHECK_ARG(f_ghz > 0.0, "min_vdd: frequency must be > 0");
  ISCOPE_CHECK_ARG(v_ceiling > core.vth, "min_vdd: ceiling below Vth");
  if (fmax_ghz(core, v_ceiling) < f_ghz)
    throw InvalidArgument("min_vdd: frequency unreachable below ceiling");
  // fmax is monotone increasing in V for alpha >= 1, so bisect.
  double lo = core.vth + 1e-6;
  double hi = v_ceiling;
  const double v_floor = params_.v_floor;
  if (lo < v_floor && fmax_ghz(core, v_floor) >= f_ghz * (1.0 + 1e-9))
    return v_floor;

  const double a = params_.alpha_power;
  const double ln_target = std::log(f_ghz / core.speed_k);
  double t = std::log(v_ceiling - core.vth);
  for (int it = 0; it < 8; ++it) {
    const double over = std::exp(t);
    const double v = over + core.vth;
    t -= (a * t - std::log(v) - ln_target) / (a - over / v);
  }
  const double r = std::exp(t) + core.vth;
  double fail_at_or_below = r * (1.0 - 1e-10);
  double pass_at_or_above = r * (1.0 + 1e-10);
  if (!(fail_at_or_below > core.vth &&
        fmax_ghz(core, fail_at_or_below) <= f_ghz * (1.0 - 1e-12) &&
        fmax_ghz(core, pass_at_or_above) >= f_ghz * (1.0 + 1e-12))) {
    fail_at_or_below = 0.0;  // every mid exceeds vth > 0
    pass_at_or_above = std::numeric_limits<double>::infinity();
  }

  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    const bool pass = mid >= pass_at_or_above ||
                      (mid > fail_at_or_below && fmax_ghz(core, mid) >= f_ghz);
    // Once a step leaves (lo, hi) as it was, every later step repeats it.
    if (pass) {
      if (mid == hi) break;
      hi = mid;
    } else {
      if (mid == lo) break;
      lo = mid;
    }
  }
  return std::max(hi, v_floor);
}

double VariusModel::leakage_rel(const CoreVariation& core, double vdd) const {
  ISCOPE_CHECK_ARG(vdd > 0.0, "leakage_rel: vdd must be > 0");
  return core.leak_scale * (vdd / params_.v_nominal);
}

}  // namespace iscope
