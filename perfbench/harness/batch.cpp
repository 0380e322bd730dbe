// Batch workloads: the paper-scale Fig. 8 sweep and the sharded hyperscale
// run. Both set up an ExperimentContext several times (setup_s is the
// median), repeat the timed serial work for the requested seconds, and
// check every result against the committed expected-outcome table. A run
// of the same inputs on the worker pool is checked against it too.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "energy/reconcile.hpp"
#include "hardware/topology.hpp"
#include "measure.hpp"
#include "sched/policy.hpp"
#include "sim/sharded.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "thermal/thermal.hpp"

namespace perfbench {

using namespace iscope;

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinIterations = 3;
/// Paper scale: ISCOPE_SCALE=10 is 4 800 CPUs and 8 000 jobs.
constexpr double kFig8Scale = 10.0;
/// Large enough that setup dominates the process, small enough that three
/// setups fit one run.
constexpr std::size_t kHyperscaleProcs = 25'600;
constexpr std::size_t kHyperscaleShards = 16;

/// One set-up experiment: the context and the inputs every run shares.
struct Experiment {
  std::unique_ptr<ExperimentContext> ctx;
  std::shared_ptr<const std::vector<Task>> tasks;
  std::shared_ptr<const HybridSupply> no_wind;
  std::shared_ptr<const HybridSupply> wind;
  double make_tasks_s = 0.0;
};

/// Build an experiment the way a bench binary does, with the seed's
/// arrival jitter applied to the trace; returns its wall time.
double set_up(const ExperimentConfig& cfg, std::uint64_t seed, Experiment& e) {
  e = Experiment{};  // release the previous context before timing anew
  const double t0 = wall_s();
  e.ctx = std::make_unique<ExperimentContext>(cfg);
  const double t1 = wall_s();
  std::vector<Task> tasks = e.ctx->make_tasks(cfg.urgency.hu_fraction);
  jitter_arrivals(tasks, seed);
  e.tasks = std::make_shared<const std::vector<Task>>(std::move(tasks));
  e.make_tasks_s = wall_s() - t1;
  e.no_wind = std::make_shared<const HybridSupply>(e.ctx->make_supply(false));
  e.wind = std::make_shared<const HybridSupply>(e.ctx->make_supply(true));
  return wall_s() - t0;
}

double event_queue_peak() {
  double peak = 0.0;
  for (const telemetry::SnapshotFamily& fam :
       telemetry::Registry::global().snapshot())
    if (fam.name == "iscope_sim_event_queue_peak")
      for (const telemetry::SnapshotCell& c : fam.cells)
        peak = std::max(peak, c.value);
  return peak;
}

/// Busy share of each pool worker over its lifetime, from the registry.
std::vector<double> pool_busy_fractions() {
  std::map<std::string, double> busy;
  std::map<std::string, double> up;
  for (const telemetry::SnapshotFamily& fam :
       telemetry::Registry::global().snapshot()) {
    if (fam.name == "iscope_pool_worker_busy_seconds")
      for (const telemetry::SnapshotCell& c : fam.cells)
        busy[c.labels.at(0)] = c.value;
    if (fam.name == "iscope_pool_worker_uptime_seconds")
      for (const telemetry::SnapshotCell& c : fam.cells)
        up[c.labels.at(0)] = c.value;
  }
  std::vector<double> out;
  for (const auto& [worker, b] : busy) {
    const auto it = up.find(worker);
    if (it != up.end() && it->second > 0.0)
      out.push_back(std::clamp(b / it->second, 0.0, 1.0));
  }
  return out;
}

/// Mean seconds of one call, over repeated calls filling ~20 ms, median of
/// five such batches.
template <typename Fn>
double seconds_per_call(Fn fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::size_t calls = 0;
    const double t0 = wall_s();
    double t = t0;
    do {
      fn();
      ++calls;
      t = wall_s();
    } while (t - t0 < 0.02);
    batches.push_back((t - t0) / static_cast<double>(calls));
  }
  return median(batches);
}

void report_counts(const Outcome& o, Report& r) {
  r.set("sim.events", static_cast<double>(o.events), "count");
  r.set("sim.rematches", static_cast<double>(o.rematches), "count");
  r.set("sim.tasks_completed", static_cast<double>(o.tasks_completed), "count");
}

Outcome sum(const std::vector<Outcome>& v) {
  Outcome s;
  for (const Outcome& o : v) {
    s.events += o.events;
    s.rematches += o.rematches;
    s.tasks_completed += o.tasks_completed;
  }
  return s;
}

// --- fig8_paper -------------------------------------------------------------

/// The ten Fig. 8 scenarios, built as energy_costs() builds them.
std::vector<ScenarioSpec> fig8_specs(const Experiment& e) {
  std::vector<ScenarioSpec> specs;
  for (const bool with_wind : {false, true}) {
    for (const Scheme scheme : kAllSchemes) {
      ScenarioSpec s;
      s.scheme = scheme;
      s.tasks = e.tasks;
      s.supply = with_wind ? e.wind : e.no_wind;
      s.x = with_wind ? 1.0 : 0.0;
      s.label = std::string(scheme_name(scheme)) + (with_wind ? " wind" : "");
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

/// One serial sweep, each scenario timed on its own.
struct Sweep {
  double run_s = 0.0;
  std::vector<double> spec_s;
  std::vector<double> spec_cpu_s;
  std::vector<Outcome> outcomes;
};

Sweep run_sweep(const SweepRunner& runner,
                const std::vector<ScenarioSpec>& specs) {
  Sweep sw;
  for (const ScenarioSpec& spec : specs) {
    const double cpu0 = process_cpu_s();
    const double t0 = wall_s();
    const SimResult r = runner.run_one(spec);
    const double dt = wall_s() - t0;
    sw.spec_cpu_s.push_back(process_cpu_s() - cpu0);
    sw.run_s += dt;
    sw.spec_s.push_back(dt);
    sw.outcomes.push_back(outcome_of(r));
  }
  return sw;
}

/// Every scenario of every sweep must match the expected table.
void check_sweeps(const std::vector<Sweep>& sweeps,
                  const std::vector<ScenarioSpec>& specs, const Options& opt,
                  Report& report) {
  for (const Sweep& sw : sweeps)
    for (std::size_t i = 0; i < specs.size(); ++i)
      check_expected(opt, specs[i].label, sw.outcomes[i], report, "fig8 sweep");
}

/// The same scenarios fanned over the sweep pool.
std::vector<Outcome> pooled_sweep(const Experiment& e,
                                  const std::vector<ScenarioSpec>& specs) {
  std::vector<Outcome> out;
  for (const SimResult& r : SweepRunner(*e.ctx, bench_workers()).run(specs))
    out.push_back(outcome_of(r));
  return out;
}

/// A sweep's typical cost: the sum over scenarios of each scenario's
/// median across sweeps, so a noisy moment spoils one sample, not a sweep.
double typical(const std::vector<Sweep>& sweeps,
               std::vector<double> Sweep::*field) {
  double total = 0.0;
  for (std::size_t i = 0; i < (sweeps[0].*field).size(); ++i) {
    std::vector<double> samples;
    for (const Sweep& sw : sweeps) samples.push_back((sw.*field)[i]);
    total += median(samples);
  }
  return total;
}

}  // namespace

void run_fig8_paper(const Options& opt, Report& report) {
  ExperimentConfig cfg = ExperimentConfig::paper_small().scaled(kFig8Scale);
  cfg.parallelism = 1;

  Experiment e;
  std::vector<double> setup_samples;
  SetupLayers layers;
  if (opt.trace) layers = time_setup_layers(cfg);
  const int setups = opt.trace || opt.emit_expected ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i)
    setup_samples.push_back(set_up(cfg, opt.variant, e));
  const std::vector<ScenarioSpec> specs = fig8_specs(e);
  if (opt.emit_expected) {
    const std::vector<Outcome> pooled = pooled_sweep(e, specs);
    for (std::size_t i = 0; i < specs.size(); ++i)
      emit_expected(opt, specs[i].label, pooled[i]);
    return;
  }
  const SweepRunner runner(*e.ctx, 1);

  std::vector<Sweep> sweeps;
  Sweep traced;
  {
    const PinnedToOneCpu pin;
    const double start = wall_s();
    const int min_sweeps = opt.trace ? 1 : kMinIterations;
    while (static_cast<int>(sweeps.size()) < min_sweeps ||
           (!opt.trace && wall_s() - start < opt.seconds))
      sweeps.push_back(run_sweep(runner, specs));
    if (opt.trace) {
      telemetry::reset_global_telemetry();
      telemetry::set_enabled(true);
      traced = run_sweep(runner, specs);
      telemetry::set_enabled(false);
    }
  }
  const double rss_mb = peak_rss_mb();

  // The pooled sweep must match the table as well: the worker count must
  // not change a result. It runs after the peak-RSS reading: concurrent
  // runs hold more memory.
  const std::vector<Outcome> pooled = pooled_sweep(e, specs);
  for (std::size_t i = 0; i < specs.size(); ++i)
    check_expected(opt, specs[i].label, pooled[i], report, "fig8 pooled sweep");
  check_sweeps(sweeps, specs, opt, report);

  if (!opt.trace) {
    const double run_s = typical(sweeps, &Sweep::spec_s);
    report.set("setup_s", median(setup_samples), "s");
    report.set("run_s", run_s, "s");
    report.set("events_per_s",
               static_cast<double>(sum(sweeps[0].outcomes).events) / run_s,
               "1/s");
    report.set("cpu_s", typical(sweeps, &Sweep::spec_cpu_s), "s");
    report.set("peak_rss_mb", rss_mb, "MB");
    return;
  }

  declare_layers(report);
  report_setup_layers(layers, setup_samples[0], e.make_tasks_s, report);
  check_sweeps({traced}, specs, opt, report);
  const Sweep& plain = sweeps[0];
  const Outcome work = sum(plain.outcomes);
  report_counts(work, report);
  report.set("sim.ns_per_event", ns_per_event(work.events, plain.run_s), "ns");
  std::map<std::string, double> per_scheme;
  for (std::size_t i = 0; i < specs.size(); ++i)
    per_scheme[scheme_name(specs[i].scheme)] += plain.spec_s[i];
  for (const auto& [name, s] : per_scheme)
    report.set("sim.run_s." + name, s, "s");
  report.op(report_ledger(ledger_from_local_trace(), traced.run_s,
                          plain.run_s, report),
            "fig8 span ledger incomplete");
  report.set("sim.event_queue_peak", event_queue_peak(), "count");
}

// --- hyperscale_sharded -----------------------------------------------------

namespace {

SimConfig sharded_config(const ExperimentContext& ctx, std::size_t workers) {
  SimConfig sc = ctx.config().sim;
  sc.shard_workers = workers;
  // The seed and tag SweepRunner::run_one gives a ScanFair run.
  sc.seed = Rng(ctx.config().seed)
                .fork(placement_rule_name(scheme_rule(Scheme::kScanFair)))
                .seed();
  sc.telemetry_label = scheme_name(Scheme::kScanFair);
  return sc;
}

/// One sharded run driven round by round from outside.
struct ShardRun {
  Outcome outcome;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double collect_s = 0.0;
  std::vector<double> round_ms;
};

ShardRun run_sharded(const Experiment& e, std::size_t workers) {
  ShardRun out;
  const double cpu0 = process_cpu_s();
  const double t0 = wall_s();
  ShardedSim sim(e.ctx->cluster(), Scheme::kScanFair, &e.ctx->profile_db(),
                 *e.wind, sharded_config(*e.ctx, workers));
  sim.prepare(*e.tasks);
  while (!sim.drained()) {
    const double r0 = wall_s();
    sim.advance_round();
    out.round_ms.push_back(1e3 * (wall_s() - r0));
  }
  const double c0 = wall_s();
  const SimResult r = sim.collect();
  out.collect_s = wall_s() - c0;
  out.run_s = wall_s() - t0;
  out.cpu_s = process_cpu_s() - cpu0;
  out.outcome = outcome_of(r);
  return out;
}

}  // namespace

void run_hyperscale_sharded(const Options& opt, Report& report) {
  ExperimentConfig cfg = ExperimentConfig::hyperscale(kHyperscaleProcs);
  cfg.parallelism = 1;
  cfg.sim.topology.shards = kHyperscaleShards;
  cfg.sim.thermal.enabled = true;
  const std::size_t workers = bench_workers();

  Experiment e;
  std::vector<double> setup_samples;
  SetupLayers layers;
  if (opt.trace) layers = time_setup_layers(cfg);
  const int setups = opt.trace || opt.emit_expected ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i)
    setup_samples.push_back(set_up(cfg, opt.variant, e));

  // The public run path (run_one -> run_scheme -> ShardedSim::run) with
  // shards fanned over the pool; it and the timed runs, which advance the
  // shards in this thread, must both match the expected table. Timed runs are
  // serial because the pool's per-round wakeups (one batch of 16 futures at
  // each of ~1 900 barriers, most of them in the sparse tail) cost more than
  // the pool saves on a 4-CPU host, and their latency swings with host load.
  ScenarioSpec spec;
  spec.scheme = Scheme::kScanFair;
  spec.tasks = e.tasks;
  spec.supply = e.wind;
  spec.sim = sharded_config(*e.ctx, workers);
  const double p0 = wall_s();
  const Outcome pooled_outcome =
      outcome_of(SweepRunner(*e.ctx, 1).run_one(spec));
  const double pooled_run_s = wall_s() - p0;
  const std::string label = scheme_name(Scheme::kScanFair);
  if (opt.emit_expected) {
    emit_expected(opt, label, pooled_outcome);
    return;
  }
  const auto check = [&](const Outcome& o, const char* what) {
    check_expected(opt, label, o, report, std::string("hyperscale ") + what);
    report.op(o.tasks_completed == e.tasks->size(),
              std::string("hyperscale ") + what + " left jobs unfinished");
  };
  check(pooled_outcome, "pooled run");

  if (!opt.trace) {
    std::vector<double> run_s, cpu_s;
    const PinnedToOneCpu pin;
    const double start = wall_s();
    for (int it = 0; it < kMinIterations || wall_s() - start < opt.seconds;
         ++it) {
      const ShardRun run = run_sharded(e, 1);
      check(run.outcome, "run");
      run_s.push_back(run.run_s);
      cpu_s.push_back(run.cpu_s);
    }
    report.set("setup_s", median(setup_samples), "s");
    report.set("run_s", median(run_s), "s");
    report.set("events_per_s",
               static_cast<double>(pooled_outcome.events) / median(run_s), "1/s");
    report.set("cpu_s", median(cpu_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  declare_layers(report);
  report_setup_layers(layers, setup_samples[0], e.make_tasks_s, report);
  // The span ledger needs every span on this thread: spans on pool workers
  // overlap in wall time and could not add up to run_s.
  ShardRun plain;
  ShardRun traced;
  {
    const PinnedToOneCpu pin;
    plain = run_sharded(e, 1);
    telemetry::reset_global_telemetry();
    telemetry::set_enabled(true);
    traced = run_sharded(e, 1);
    telemetry::set_enabled(false);
  }
  check(plain.outcome, "run");
  report_counts(plain.outcome, report);
  report.set("sim.ns_per_event",
             ns_per_event(plain.outcome.events, plain.run_s), "ns");
  report.set("sim.run_s.ScanFair", plain.run_s, "s");
  report.set("sim.rounds", static_cast<double>(plain.round_ms.size()), "count");
  report.set("sim.round_p50_ms", quantile(plain.round_ms, 0.5), "ms");
  report.set("sim.round_p99_ms", quantile(plain.round_ms, 0.99), "ms");
  report.set("sim.collect_s", plain.collect_s, "s");
  // The coordinator resolves the facility thermal model once per barrier.
  report.set("thermal.solves", static_cast<double>(plain.round_ms.size()),
             "count");
  report.set("common.pool_run_s", pooled_run_s, "s");

  check(traced.outcome, "traced run");
  report.op(report_ledger(ledger_from_local_trace(), traced.run_s,
                          plain.run_s, report),
            "hyperscale span ledger incomplete");
  report.set("sim.event_queue_peak", event_queue_peak(), "count");

  // Pool occupancy needs the registry, which only a traced run fills.
  telemetry::reset_global_telemetry();
  telemetry::set_enabled(true);
  const ShardRun pooled = run_sharded(e, workers);
  telemetry::set_enabled(false);
  check(pooled.outcome, "traced pooled run");
  const std::vector<double> busy = pool_busy_fractions();
  if (!busy.empty()) {
    double mean = 0.0;
    for (const double b : busy) mean += b;
    report.set("common.pool_busy_fraction_mean",
               mean / static_cast<double>(busy.size()), "ratio");
    report.set("common.pool_busy_fraction_min",
               *std::min_element(busy.begin(), busy.end()), "ratio");
  }

  // Serial coordinator work at each barrier, timed through the public
  // functions on inputs of the facility's shape.
  const Topology topology(cfg.sim.topology, cfg.cluster.num_processors);
  const ThermalModel thermal(cfg.sim.thermal, cfg.sim.topology,
                             topology.racks());
  Rng rng = Rng(opt.variant).fork("layer-inputs");
  std::vector<double> rack_w(topology.racks());
  for (double& w : rack_w) w = rng.uniform(2e3, 6e3);
  report.set("thermal.solve_us",
             1e6 * seconds_per_call([&] { (void)thermal.solve(rack_w); }),
             "us");
  std::vector<Watts> demand(kHyperscaleShards);
  std::vector<double> share(kHyperscaleShards,
                            1.0 / static_cast<double>(kHyperscaleShards));
  double total = 0.0;
  for (Watts& d : demand) {
    d = Watts{rng.uniform(50e3, 150e3)};
    total += d.raw();
  }
  report.set("energy.reconcile_wind_us",
             1e6 * seconds_per_call([&] {
               (void)reconcile_wind(Watts{0.5 * total}, demand, share);
             }),
             "us");
}

}  // namespace perfbench
