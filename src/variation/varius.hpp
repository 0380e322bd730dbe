// VARIUS-style process-variation model (paper ref [36], Teodorescu et al.).
//
// Each chip draws a die-to-die (D2D) offset plus two spatially correlated
// within-die (WID) fields -- one for threshold voltage Vth, one for the
// speed factor (effective gate length Leff). Per-core values are field
// averages over the core's die region.
//
// Core speed follows the alpha-power law:
//
//     fmax(V) = k * (V - Vth)^alpha / V
//
// which we invert (it is monotone in V for alpha >= 1) to obtain the
// minimum supply voltage at which a core sustains a target frequency --
// the quantity the paper's profiling experiments measure (Min Vdd, Fig. 4).
// Leakage scales exponentially with -dVth (subthreshold conduction), which
// reproduces the "20x leakage variation" spread reported by Intel
// (paper Sec. II-B, ref [14]) at realistic sigma values.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "variation/die_layout.hpp"
#include "variation/gaussian_field.hpp"

namespace iscope {

/// Parameters of the variation model. Defaults model the paper's simulated
/// datacenter CPUs (5 DVFS levels, 750 MHz - 2 GHz); `a10_params()` models
/// the AMD A10-5800K profiling testbed of Sec. V-A.
struct VariusParams {
  // Sigma defaults are at the aggressive end of the deep-submicron range --
  // the paper motivates iScope with Intel's reported 30% frequency deviation
  // and 20x leakage spread [14], and the Bin-vs-Scan headroom scales with
  // these.
  double vth_nominal = 0.30;   ///< nominal threshold voltage [V]
  double sigma_d2d = 0.06;     ///< D2D sigma/mu of Vth
  double sigma_wid = 0.05;     ///< WID sigma/mu of Vth
  double speed_sigma = 0.05;   ///< WID sigma of the multiplicative speed factor
  double phi = 0.5;            ///< correlation range (fraction of die edge)
  double alpha_power = 1.3;    ///< alpha-power law exponent
  double f_nominal_ghz = 2.0;  ///< frequency the calibration anchors to
  double v_nominal = 1.30;     ///< stock supply voltage at f_nominal [V]
  double vdd_margin = 0.10;    ///< nominal core's MinVdd = v_nominal*(1-margin)
  double v_floor = 0.70;       ///< SRAM retention floor: MinVdd never below [V]
  double subthreshold_slope = 0.10;  ///< V per decade of leakage

  void validate() const;
};

/// AMD A10-5800K calibration (Sec. V-A): nominal 3.8 GHz at 1.375 V; profiled
/// Min Vdd between 1.19 V and 1.25 V, mean 1.219 V (Fig. 4A).
VariusParams a10_params();

/// Sampled variation of one core.
struct CoreVariation {
  double vth = 0.0;        ///< threshold voltage [V]
  double speed_k = 0.0;    ///< alpha-power-law speed coefficient
  double leak_scale = 1.0; ///< leakage multiplier relative to nominal core
};

/// Sampled variation of one chip (all its cores plus the D2D component).
struct ChipVariation {
  double d2d_offset = 0.0;  ///< D2D Vth offset (fraction of vth_nominal)
  std::vector<CoreVariation> cores;
};

class VariusModel {
 public:
  VariusModel(const VariusParams& params, const DieLayout& layout);

  /// Draw a chip. Deterministic for a given RNG state.
  ChipVariation sample_chip(Rng& rng) const;

  /// Max sustainable frequency of a core at supply voltage `vdd` [GHz].
  double fmax_ghz(const CoreVariation& core, double vdd) const;

  /// Minimum supply voltage at which the core sustains `f_ghz`, including
  /// the retention floor. Throws InvalidArgument if the frequency is
  /// unreachable below `v_ceiling`. The result is, bit for bit, that of an
  /// 80-step bisection of fmax over [vth + 1e-6, v_ceiling]; the steps
  /// whose outcome is certain are skipped (varius.cpp gives the bounds).
  double min_vdd(const CoreVariation& core, double f_ghz,
                 double v_ceiling = 2.0) const;

  /// Leakage power multiplier of a core at voltage `vdd`, relative to the
  /// nominal core at `v_nominal` (linear-in-V DIBL approximation on top of
  /// the per-core exponential Vth sensitivity).
  double leakage_rel(const CoreVariation& core, double vdd) const;

  /// Speed coefficient k of the exactly-nominal core (exposed for tests).
  double nominal_speed_k() const { return k0_; }

  const VariusParams& params() const { return params_; }
  const DieLayout& layout() const { return layout_; }

 private:
  VariusParams params_;
  DieLayout layout_;
  GaussianField vth_field_;
  GaussianField speed_field_;
  double k0_;  // calibrated so the nominal core meets f_nominal at MinVdd
};

}  // namespace iscope
