#include "thermal/thermal.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace iscope {

void ThermalConfig::validate() const {
  // An infinite coupling would fill the matrix with NaN, and solve() would
  // then report no rise at all.
  for (const double v :
       {red_line_c, min_supply_c, max_supply_c, self_coupling_k_per_w,
        row_decay_racks, cross_row_coupling, cross_row_decay_rows})
    ISCOPE_CHECK_ARG(std::isfinite(v), "Thermal: every field must be finite");
  ISCOPE_CHECK_ARG(min_supply_c < max_supply_c,
                   "Thermal: min_supply_c must be below max_supply_c");
  ISCOPE_CHECK_ARG(red_line_c >= max_supply_c,
                   "Thermal: red_line_c must be at or above max_supply_c");
  ISCOPE_CHECK_ARG(self_coupling_k_per_w >= 0.0,
                   "Thermal: self_coupling_k_per_w must be >= 0");
  ISCOPE_CHECK_ARG(row_decay_racks > 0.0,
                   "Thermal: row_decay_racks must be > 0");
  ISCOPE_CHECK_ARG(cross_row_coupling >= 0.0 && cross_row_coupling <= 1.0,
                   "Thermal: cross_row_coupling must be in [0, 1]");
  ISCOPE_CHECK_ARG(cross_row_decay_rows > 0.0,
                   "Thermal: cross_row_decay_rows must be > 0");
}

double crac_cop(double supply_c) {
  return 0.0068 * supply_c * supply_c + 0.0008 * supply_c + 0.458;
}

RecirculationMatrix::RecirculationMatrix(const ThermalConfig& config,
                                         const TopologyConfig& topo,
                                         std::size_t racks)
    : racks_(racks) {
  config.validate();
  topo.validate();
  ISCOPE_CHECK_ARG(racks > 0, "RecirculationMatrix: empty facility");
  cells_.assign(racks_ * racks_, 0.0);
  weights_.assign(racks_, 0.0);
  const double per_row = static_cast<double>(topo.racks_per_row);
  for (std::size_t i = 0; i < racks_; ++i) {
    const std::size_t row_i = i / topo.racks_per_row;
    const double pos_i = static_cast<double>(i % topo.racks_per_row);
    for (std::size_t j = 0; j < racks_; ++j) {
      const std::size_t row_j = j / topo.racks_per_row;
      const double pos_j = static_cast<double>(j % topo.racks_per_row);
      // Same-row coupling decays with rack distance along the aisle;
      // cross-row coupling is weaker and decays with row distance, with
      // the rack positions still mattering (exhaust plumes stay local).
      const double rack_dist = std::abs(pos_i - pos_j);
      const double row_dist = static_cast<double>(
          row_i > row_j ? row_i - row_j : row_j - row_i);
      double coupling =
          std::exp(-rack_dist / config.row_decay_racks);
      if (row_dist > 0.0)
        coupling *= config.cross_row_coupling *
                    std::exp(-(row_dist - 1.0) / config.cross_row_decay_rows);
      cells_[j * racks_ + i] = config.self_coupling_k_per_w * coupling;
    }
    // Normalize each row so the facility-average column weight is
    // independent of row width: long rows would otherwise accumulate
    // more neighbour terms than short ones and run structurally hotter.
    double row_sum = 0.0;
    for (std::size_t j = 0; j < racks_; ++j) row_sum += cells_[j * racks_ + i];
    if (row_sum > 0.0) {
      const double scale =
          config.self_coupling_k_per_w * std::min(per_row, 4.0) / row_sum;
      for (std::size_t j = 0; j < racks_; ++j) cells_[j * racks_ + i] *= scale;
    }
  }
  for (std::size_t j = 0; j < racks_; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < racks_; ++i) col += cells_[j * racks_ + i];
    weights_[j] = col;
  }
  for (const double c : cells_)
    ISCOPE_CHECK_ARG(std::isfinite(c) && c >= 0.0,
                     "RecirculationMatrix: cells must be finite and >= 0");
}

ThermalModel::ThermalModel(const ThermalConfig& config,
                           const TopologyConfig& topo, std::size_t racks)
    : config_(config), matrix_(config, topo, racks), rise_(racks, 0.0) {}

// solve() returns, bit for bit, what the dense row-major mat-vec returns:
//
//   for each i: r = 0; for j = 0..n-1: r += a(i, j) * w[j];
//               max_rise = max(max_rise, r);
//
// (tests/test_thermal.cpp keeps it as the oracle), while multiplying only
// the columns of racks that draw power -- at a barrier of the 534-rack
// hyperscale run, about one rack in fourteen. The argument:
//
//   * Same terms, same order. With j outer and i inner, rise[i] receives
//     a(i, j) * w[j] for ascending j, exactly the dense loop's sequence
//     for row i, each term one multiply then one add. The inner loop is
//     contiguous in the column-major matrix, so the compiler vectorises it
//     across rows i; a lane is one row and still does one multiply and one
//     add per term in j order.
//   * A skipped term adds nothing. w[j] == 0.0 holds for +0 and -0. Every
//     cell is finite and >= 0 (the matrix constructor checks), so
//     a(i, j) * w[j] is +0 or -0. rise[i] starts at +0 and can never
//     become -0: +0 + -0 is +0, and under round-to-nearest a sum of two
//     nonzero values that cancels is +0. So rise[i] + (+-0) == rise[i],
//     bit for bit.
//     Non-finite or nonzero powers, subnormals included, are never
//     skipped.
//   * The maximum is taken over the same rise[i] in the same order.
ThermalSolution ThermalModel::solve(const std::vector<double>& rack_w,
                                    double derate_factor) const {
  ISCOPE_CHECK_ARG(rack_w.size() == matrix_.racks(),
                   "ThermalModel: rack power vector size mismatch");
  ISCOPE_CHECK_ARG(derate_factor > 0.0 && derate_factor <= 1.0,
                   "ThermalModel: derate_factor must be in (0, 1]");
  const std::size_t n = matrix_.racks();
  std::fill(rise_.begin(), rise_.end(), 0.0);
  double* const rise = rise_.data();
  for (std::size_t j = 0; j < n; ++j) {
    const double w = rack_w[j];
    // Exact test: only a zero power is skipped (argument above).
    if (w == 0.0) continue;
    const double* const col = matrix_.column(j);
    for (std::size_t i = 0; i < n; ++i) rise[i] += col[i] * w;
  }
  double max_rise = 0.0;
  for (std::size_t i = 0; i < n; ++i) max_rise = std::max(max_rise, rise[i]);
  ThermalSolution out;
  out.max_rise_c = max_rise;
  out.supply_c = std::clamp(config_.red_line_c - max_rise,
                            config_.min_supply_c, config_.max_supply_c);
  out.peak_inlet_c = out.supply_c + max_rise;
  // A degraded CRAC removes less heat per watt of chiller input; floor
  // the effective COP so cooling power stays finite even under extreme
  // derating.
  out.cop = std::max(0.2, crac_cop(out.supply_c) * derate_factor);
  return out;
}

}  // namespace iscope
