// Measurement helpers shared by the benchmark workloads: clocks, order
// statistics, process accounting, the span ledger and the result printer.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace iscope {
struct ExperimentConfig;
struct SimResult;
struct Task;
}

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_s();
/// CPU seconds consumed by this process (all threads).
double process_cpu_s();
/// Peak resident set (VmHWM) of `pid` in MB; 0 = this process.
double peak_rss_mb(pid_t pid = 0);
/// CPU seconds the single-threaded process `pid` has run, from schedstat
/// (nanosecond resolution, unlike the 10 ms ticks of /proc/<pid>/stat).
double child_cpu_s(pid_t pid);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Self times from span nesting, over the calling thread's trace ring
/// (the ledger runs are single-threaded). A span's self time is its
/// duration minus what its direct children cover.
struct SpanLedger {
  std::map<std::string, double> self_s;  ///< by span name
  double covered_s = 0.0;                ///< top-level span time
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;             ///< over every ring
};
SpanLedger ledger_from_local_trace();

class Report;
/// Report the ledger of a traced run: per-span self times, the
/// unattributed remainder (traced run time the spans do not cover) and the
/// tracing overhead against an untraced run of the same work. Returns
/// false when spans were dropped or the spans over-cover the run.
bool report_ledger(const SpanLedger& ledger, double traced_run_s,
                   double untraced_run_s, Report& report);

/// Size every trace ring so that no span of a run is dropped. Must run
/// before any thread records its first span (rings keep their capacity).
void size_trace_rings();

/// Metrics of one run, printed as the harness's final JSON line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// One operation attempted; `ok` false counts it as failed.
  void op(bool ok, const std::string& what = "");
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Print {"correct","attempted","failed","metrics"} on one line.
  void print(bool correct) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The seed picks one of this many input variants (seed mod
/// kInputVariants), so that every input the benchmark can make has its
/// outcome in the committed table of expected results.
inline constexpr std::uint64_t kInputVariants = 64;

/// Command-line options of the harness.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t variant = 1;  ///< seed % kInputVariants; drives the inputs
  double seconds = 10.0;
  bool trace = false;
  /// Print this variant's expected-outcome rows instead of measuring.
  bool emit_expected = false;
  std::string serve_bin;  ///< iscope_serve built alongside the harness
  /// This workload and variant's rows of the expected-outcome table:
  /// scenario label -> the outcome as printed by `printed()`.
  std::map<std::string, std::string> expected;
};

/// The facts the figure benches print: exact work counters, and energy and
/// cost at the precision of their tables (kWh to 0.1, USD to 0.01).
struct Outcome {
  std::size_t events = 0;
  std::size_t rematches = 0;
  std::size_t tasks_completed = 0;
  double utility_kwh = 0.0;
  double wind_kwh = 0.0;
  double cost_usd = 0.0;
};
Outcome outcome_of(const iscope::SimResult& r);
/// The outcome as one tab-separated row: counters exact, kWh and USD at
/// their printed precision. Planned matcher work changes ULPs on purpose,
/// so outcomes are compared as printed, not bit for bit.
std::string printed(const Outcome& o);

/// Read `path` (workload, variant, label, outcome columns; '#' comments)
/// and keep the rows of `opt.workload` and `opt.variant`. Throws when the
/// file cannot be read.
void load_expected(const std::string& path, Options& opt);
/// One operation: `o` must print as the expected row for `label`.
void check_expected(const Options& opt, const std::string& label,
                    const Outcome& o, Report& report, const std::string& what);
/// Print the expected-outcome row of `label` for this workload and variant.
void emit_expected(const Options& opt, const std::string& label,
                   const Outcome& o);

/// While in scope, pins the calling thread to one fixed CPU, the highest it
/// may run on, and then restores its CPU set. The serial timed work runs
/// pinned so that it is not migrated between vCPUs mid-run.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu();
  ~PinnedToOneCpu();
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Worker count for parallel pools: min(4, usable CPUs).
std::size_t bench_workers();
/// CPUs this process may run on (sched_getaffinity).
std::size_t usable_cpus();

/// The benchmark's input for `seed`: the preset job trace with every
/// submit time jittered by up to +-kArrivalJitterS (uniform, clamped at 0),
/// then re-sorted by submit time. Deadlines keep their slack. Redrawing
/// the whole trace instead would move the work by up to 2x between seeds
/// (the longest lognormal job sets the makespan, and with it the round
/// count of a sharded run), swamping any regression the bounds must catch.
inline constexpr double kArrivalJitterS = 60.0;
void jitter_arrivals(std::vector<iscope::Task>& tasks, std::uint64_t seed);

/// Setup layers timed one by one through their public entry points,
/// replaying what ExperimentContext's constructor does.
struct SetupLayers {
  double build_cluster_s = 0.0;
  double scan_s = 0.0;
  double wind_trace_s = 0.0;
  std::size_t scan_trials = 0;
};
SetupLayers time_setup_layers(const iscope::ExperimentConfig& cfg);
/// Report the setup layers; `core.setup_other_s` is the part of the whole
/// setup (`setup_s`) the named layers do not account for.
void report_setup_layers(const SetupLayers& layers, double setup_s,
                         double make_tasks_s, Report& report);

/// Nanoseconds per simulated event of an untraced run.
inline double ns_per_event(std::size_t events, double run_s) {
  return 1e9 * run_s / static_cast<double>(events);
}

/// Pre-declare every per-layer metric at zero, so each workload's traced
/// run prints the full set (a layer a workload never enters reads 0).
void declare_layers(Report& report);

/// Workload entry points; each fills `report` with the end-to-end metrics
/// (trace off) or the per-layer metrics (trace on).
void run_fig8_paper(const Options& opt, Report& report);
void run_hyperscale_sharded(const Options& opt, Report& report);
void run_daemon_stream(const Options& opt, Report& report);

}  // namespace perfbench
