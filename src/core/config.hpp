// Experiment configuration: one struct that wires every subsystem together.
//
// The paper's full facility is 4800 CPUs driven by the LLNL Thunder trace
// and NREL wind data; that scale runs, but the default experiment config is
// a proportionally reduced facility so the whole evaluation suite finishes
// in seconds. Set the ISCOPE_SCALE environment variable (or call
// `scaled(f)`) to grow it -- every reported *shape* is scale-invariant.
#pragma once

#include <cstdint>

#include "energy/wind_model.hpp"
#include "hardware/cluster.hpp"
#include "profiling/scanner.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"
#include "workload/urgency.hpp"

namespace iscope {

struct ExperimentConfig {
  ClusterConfig cluster;
  SyntheticWorkloadConfig workload;
  UrgencyConfig urgency;
  WindFarmConfig wind;
  ScanConfig scan;
  SimConfig sim;
  /// Wind trace is rescaled so its mean equals this fraction of the
  /// facility's peak demand (the paper scales NREL data to 3.5% for the
  /// same purpose: a farm commensurate with the facility). At ~40% average
  /// utilization this puts the wind level in the regime where it crosses
  /// the demand curve frequently -- the Fig. 7 matching regime.
  double wind_mean_fraction_of_peak = 0.5;
  std::uint64_t seed = 2015;
  /// Worker threads the sweep engine (core/sweep.hpp) fans scenario runs
  /// out over. 0 = one worker per hardware thread (the default), 1 = the
  /// legacy serial path (no thread pool at all). Results are bit-identical
  /// at any setting; this knob only trades wall-clock for cores.
  std::size_t parallelism = 0;

  void validate() const;

  /// Reduced-scale defaults: 480 CPUs / 800 jobs (1:10 of the paper).
  static ExperimentConfig paper_small();

  /// The paper's full scale: 4800 CPUs, Thunder-sized workload.
  static ExperimentConfig paper_full();

  /// Hyperscale synthetic preset for the sharded simulator (DESIGN.md
  /// Sec. 12): `procs` processors (default ~100k, up to ~1M), job count
  /// and arrival rate proportional to the facility so utilization matches
  /// paper_small(). Widths are capped at 1024 CPUs so every task fits a
  /// rack-aligned shard slice, and the HU fraction is 0 (at this scale the
  /// interesting metric is throughput, not deadline pressure).
  static ExperimentConfig hyperscale(std::size_t procs = 102'400);

  /// Multiply processor and job counts by `factor` (>= keeps proportions).
  /// Throws InvalidArgument when `factor` is not finite and > 0, or when a
  /// scaled count does not fit size_t.
  ExperimentConfig scaled(double factor) const;
};

/// Read ISCOPE_SCALE from the environment (default 1.0, clamped to
/// [0.1, 20]; unparsable, non-positive and non-finite values read as 1.0).
/// Benches multiply `paper_small()` by this.
double env_scale();

/// Read ISCOPE_PARALLEL from the environment (default 0 = one sweep worker
/// per hardware thread; 1 = serial). Benches feed this into
/// `ExperimentConfig::parallelism`.
std::size_t env_parallelism();

/// Read ISCOPE_FAULTS from the environment: a `key=value,...` fault spec
/// (see parse_fault_spec). Unset/empty means no injection. Benches and the
/// CLI feed this into `SimConfig::faults`.
FaultSpec env_fault_spec();

/// Read ISCOPE_FAULT_SEED from the environment (default 0). Seeds
/// `FaultPlan::build` via `SimConfig::fault_seed`.
std::uint64_t env_fault_seed();

/// Read ISCOPE_SHARDS from the environment (default 1 = the single-event-
/// loop simulator; values > 1 route run_scheme through the sharded
/// coordinator). Benches feed this into `SimConfig::topology.shards`.
std::size_t env_shards();

/// Read ISCOPE_THERMAL from the environment (default off). "1"/"on"/
/// "true" enable the thermal/CRAC model (SimConfig::thermal.enabled);
/// unset, empty, "0", "off" and "false" leave it off.
bool env_thermal();

/// Read ISCOPE_SLEEP_POLICY from the environment (default kNone): a
/// sleep_policy_name() string -- none, active-idle, immediate, timeout.
/// Feeds SimConfig::sleep.policy; throws InvalidArgument on anything else.
SleepPolicy env_sleep_policy();

/// Read ISCOPE_SHARD_WORKERS from the environment (default 1 = serial
/// shard advances; 0 = one worker per hardware thread). Feeds
/// `SimConfig::shard_workers`; results are bit-identical at any setting.
std::size_t env_shard_workers();

/// Estimated peak facility demand: every CPU at the top level and stock
/// voltage, plus cooling.
Watts estimated_peak_demand(const ClusterConfig& cluster, double cop);

}  // namespace iscope
