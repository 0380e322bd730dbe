// Figure 6(A-D): wind + utility datacenter -- utility and wind energy
// consumption vs %HU (A: utility, C: wind) and vs arrival rate (B: utility,
// D: wind), for all five schemes.
//
// Paper shapes: with more HU / faster arrivals the Effi schemes use less
// wind but more utility energy (shorter deadlines force higher parallelism
// and shorter total execution, cutting the time available to soak wind);
// Ran schemes barely react to %HU.
#include "bench_util.hpp"

int main() {
  using namespace iscope;
  bench::print_banner("Fig.6", "utility & wind energy vs %HU and arrival rate");

  const ExperimentContext ctx(bench::bench_config());
  bench::run_bench([&] {
    const std::vector<double> hu = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    const auto hu_points = sweep_hu(ctx, hu, /*with_wind=*/true);
    bench::print_sweep(hu_points, "HU frac", "(A) utility energy [kWh]",
                       [](const SimResult& r) { return r.energy.utility_kwh(); });
    bench::print_sweep(hu_points, "HU frac", "(C) wind energy [kWh]",
                       [](const SimResult& r) { return r.energy.wind_kwh(); });

    const std::vector<double> rates = {1.0, 2.0, 3.0, 4.0, 5.0};
    const auto rate_points = sweep_arrival(ctx, rates, /*with_wind=*/true);
    bench::print_sweep(rate_points, "rate", "(B) utility energy [kWh]",
                       [](const SimResult& r) { return r.energy.utility_kwh(); });
    bench::print_sweep(rate_points, "rate", "(D) wind energy [kWh]",
                       [](const SimResult& r) { return r.energy.wind_kwh(); });
  });
}
