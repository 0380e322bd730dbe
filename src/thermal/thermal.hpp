// Thermal model of the facility: heat recirculation and CRAC cooling.
//
// The paper's Eq-2 charges cooling as a flat (1 + 1/COP) overhead on
// compute power. That hides the mechanism that actually drives a CRAC
// bill: hot exhaust air recirculating into rack inlets forces the CRAC to
// blow *colder* supply air, and a chiller's coefficient of performance
// drops super-linearly as the supply temperature falls. This subsystem
// models that loop over the PR 6 rack/row topology:
//
//   1. A dense racks x racks *heat-recirculation matrix* A maps the power
//      vector P (watts dissipated per rack) to inlet temperature rises:
//      rise = A * P, summed over the racks that draw power. The matrix
//      is a pure function of the topology -- racks in the same
//      hot/cold-aisle row couple by distance decay, adjacent rows couple
//      weaker -- in the spirit of the cross-interference matrices
//      measured by Tang et al. and used by the geedo0 exemplar's MinHR
//      policy.
//   2. The CRAC supplies air at T_sup = clamp(red_line - max_rise), i.e.
//      just cold enough that the hottest inlet stays at the ASHRAE
//      red-line temperature.
//   3. Cooling power = IT load / COP(T_sup), with the HP chilled-water
//      COP curve COP(T) = 0.0068 T^2 + 0.0008 T + 0.458.
//
// The model is deliberately a pure function solve(P) -> (T_sup, COP):
// the simulator owns *when* it is evaluated (at supply epochs, on the
// coordinator for sharded runs) so that flat and sharded runs resolve
// recirculation from bit-identical inputs. Nothing here schedules events
// or holds mutable state.
#pragma once

#include <cstddef>
#include <vector>

#include "hardware/topology.hpp"

namespace iscope {

/// Tuning knobs of the thermal subsystem. Disabled by default: a
/// default-constructed config must leave every simulation bit-identical
/// to a build that has never heard of thermals.
struct ThermalConfig {
  bool enabled = false;

  /// ASHRAE-style red-line inlet temperature the CRAC must hold the
  /// hottest rack at (deg C).
  double red_line_c = 30.0;
  /// CRAC supply-temperature actuation range (deg C). The supply is
  /// clamped to [min, max]; a facility whose recirculation exceeds
  /// red_line - min_supply simply runs its hottest inlets past the red
  /// line (reported via peak_inlet_c).
  double min_supply_c = 15.0;
  double max_supply_c = 25.0;

  /// Self-coupling of a rack onto its own inlet (K per watt). The K/W
  /// figure scales inversely with rack airflow: Tang et al.'s ~2.5e-4
  /// K/W (a 20 kW raised-floor rack self-heating ~5 K) becomes ~1e-3
  /// K/W for this facility's low-density ~2-3 kW socket racks, which
  /// move proportionally less air for the same recirculation fraction.
  double self_coupling_k_per_w = 1.0e-3;
  /// Exponential decay distance (in racks) of same-row coupling.
  double row_decay_racks = 2.0;
  /// Relative strength of coupling across adjacent rows (hot aisle
  /// shared between row pairs) and its decay distance in rows.
  double cross_row_coupling = 0.25;
  double cross_row_decay_rows = 1.0;

  /// Throws InvalidArgument unless every field is finite and in range.
  void validate() const;
};

/// HP chilled-water CRAC efficiency at supply temperature `supply_c`:
/// COP(T) = 0.0068 T^2 + 0.0008 T + 0.458 (Moore et al., "Making
/// Scheduling Cool"). Colder supply -> smaller COP -> more cooling watts
/// per IT watt.
double crac_cop(double supply_c);

/// Dense racks x racks cross-interference matrix: entry (i, j) is the
/// inlet temperature rise at rack i per watt dissipated in rack j. Built
/// once from the topology; rows/columns follow global rack ids. Every
/// cell is finite and >= 0 (the constructor checks), which the sparse
/// solve's exactness argument needs.
class RecirculationMatrix {
 public:
  RecirculationMatrix(const ThermalConfig& config,
                      const TopologyConfig& topo, std::size_t racks);

  std::size_t racks() const { return racks_; }

  /// a(i, j): rise at rack i per watt in rack j.
  double at(std::size_t i, std::size_t j) const {
    return cells_[j * racks_ + i];
  }

  /// Column j, contiguous: a(0, j) .. a(racks() - 1, j), the rise every
  /// inlet sees per watt in rack j.
  const double* column(std::size_t j) const {
    return cells_.data() + j * racks_;
  }

  /// Column sum of rack j: the total facility-wide inlet rise one watt
  /// placed in rack j causes (geedo0's MinHR ranking key). Racks in the
  /// middle of a row recirculate more than racks at the ends.
  double heat_weight(std::size_t j) const { return weights_[j]; }
  const std::vector<double>& heat_weights() const { return weights_; }

 private:
  std::size_t racks_ = 0;
  std::vector<double> cells_;    ///< column-major racks_ x racks_
  std::vector<double> weights_;  ///< column sums
};

/// One thermal resolution: the CRAC operating point for a given rack
/// power vector.
struct ThermalSolution {
  double supply_c = 0.0;      ///< CRAC supply-air temperature (deg C)
  double cop = 0.0;           ///< chiller COP at that supply temperature
  double max_rise_c = 0.0;    ///< hottest inlet rise over supply (K)
  double peak_inlet_c = 0.0;  ///< supply_c + max_rise_c
};

/// The solver: owns the matrix, exposes the pure epoch-step function.
class ThermalModel {
 public:
  ThermalModel(const ThermalConfig& config, const TopologyConfig& topo,
               std::size_t racks);

  const ThermalConfig& config() const { return config_; }
  const RecirculationMatrix& matrix() const { return matrix_; }

  /// Resolve the CRAC operating point for per-rack IT power `rack_w`
  /// (watts, indexed by global rack id; must have size racks()). Costs
  /// O(racks x drawing racks): racks with zero power are skipped, with
  /// results bit-identical to the dense mat-vec (see thermal.cpp).
  /// `derate_factor` scales the chiller COP (fault injection: a degraded
  /// CRAC window passes < 1); the COP is floored at a small positive
  /// value so cooling power stays finite.
  ThermalSolution solve(const std::vector<double>& rack_w,
                        double derate_factor = 1.0) const;

 private:
  ThermalConfig config_;
  RecirculationMatrix matrix_;
  mutable std::vector<double> rise_;  ///< scratch, solve() is logically const
};

}  // namespace iscope
