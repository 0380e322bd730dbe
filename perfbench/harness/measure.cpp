#include "measure.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <numeric>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "energy/wind_model.hpp"
#include "hardware/cluster.hpp"
#include "profiling/profile_db.hpp"
#include "profiling/scanner.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/task.hpp"

namespace perfbench {

double wall_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double child_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/schedstat");
  double ns = 0.0;
  in >> ns;
  return ns * 1e-9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

Outcome outcome_of(const iscope::SimResult& r) {
  return {r.events_processed, r.dvfs_rematch_count, r.tasks_completed,
          r.energy.utility.kwh(), r.energy.wind.kwh(), r.cost.dollars()};
}

std::string printed(const Outcome& o) {
  char row[160];
  std::snprintf(row, sizeof row, "%zu\t%zu\t%zu\t%.1f\t%.1f\t%.2f", o.events,
                o.rematches, o.tasks_completed, o.utility_kwh, o.wind_kwh,
                o.cost_usd);
  return row;
}

void load_expected(const std::string& path, Options& opt) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string prefix =
      opt.workload + "\t" + std::to_string(opt.variant) + "\t";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t tab = line.find('\t', prefix.size());
    if (tab == std::string::npos) continue;
    opt.expected[line.substr(prefix.size(), tab - prefix.size())] =
        line.substr(tab + 1);
  }
}

void check_expected(const Options& opt, const std::string& label,
                    const Outcome& o, Report& report, const std::string& what) {
  const auto it = opt.expected.find(label);
  const std::string got = printed(o);
  const bool ok = it != opt.expected.end() && it->second == got;
  report.op(ok, what + " " + label + ": got [" + got + "], expected [" +
                    (it == opt.expected.end() ? "no row" : it->second) + "]");
}

void emit_expected(const Options& opt, const std::string& label,
                   const Outcome& o) {
  std::printf("%s\t%llu\t%s\t%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.variant), label.c_str(),
              printed(o).c_str());
}

void size_trace_rings() {
  // The default 64 Ki-event ring keeps only the tail of a paper-scale run;
  // a ledger built from a tail under-reports every layer.
  iscope::telemetry::TraceLog::global().set_capacity(std::size_t{1} << 24);
}

SpanLedger ledger_from_local_trace() {
  using iscope::telemetry::SpanEvent;
  using iscope::telemetry::TraceLog;
  std::vector<SpanEvent> events = TraceLog::global().local().events();
  // Rings hold spans in end order; walk them in start order (a parent
  // starts no later than its children, and is shallower on a tie) and keep
  // the stack of spans still open at each start.
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  SpanLedger ledger;
  std::vector<double> child_ns(events.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    // Spans on one thread nest strictly, so a span at depth d closes every
    // open span at depth >= d.
    while (!open.empty() && events[open.back()].depth >= e.depth)
      open.pop_back();
    if (open.empty()) {
      ledger.covered_s += 1e-9 * static_cast<double>(e.dur_ns);
    } else {
      child_ns[open.back()] += static_cast<double>(e.dur_ns);
    }
    open.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i)
    ledger.self_s[events[i].name] +=
        1e-9 * (static_cast<double>(events[i].dur_ns) - child_ns[i]);
  ledger.spans = events.size();
  ledger.dropped = TraceLog::global().total_dropped();
  return ledger;
}

bool report_ledger(const SpanLedger& ledger, double traced_run_s,
                   double untraced_run_s, Report& r) {
  // The simulator's spans: `match` wraps schedule_pass (placement),
  // `rematch` the energy accrual plus DVFS solve, `start_task` the gang
  // claim. Anything else that ran inside the timed region lands in
  // sim.other_span_self_s so the ledger still sums to the traced run.
  double other = 0.0;
  for (const auto& [name, self] : ledger.self_s)
    if (name != "rematch" && name != "match" && name != "start_task")
      other += self;
  const auto self_of = [&](const char* name) {
    const auto it = ledger.self_s.find(name);
    return it == ledger.self_s.end() ? 0.0 : it->second;
  };
  const double unattributed = traced_run_s - ledger.covered_s;
  r.set("sched.rematch_self_s", self_of("rematch"), "s");
  r.set("sched.placement_self_s", self_of("match"), "s");
  r.set("sim.start_task_self_s", self_of("start_task"), "s");
  r.set("sim.other_span_self_s", other, "s");
  r.set("sim.unattributed_s", unattributed, "s");
  r.set("sim.traced_run_s", traced_run_s, "s");
  r.set("telemetry.spans", static_cast<double>(ledger.spans), "count");
  r.set("telemetry.spans_dropped", static_cast<double>(ledger.dropped), "count");
  r.set("telemetry.overhead_s", traced_run_s - untraced_run_s, "s");
  return ledger.dropped == 0 && ledger.spans > 0 && unattributed >= 0.0;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (!what.empty()) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

void Report::print(bool correct) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

PinnedToOneCpu::PinnedToOneCpu() {
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinnedToOneCpu::~PinnedToOneCpu() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

void jitter_arrivals(std::vector<iscope::Task>& tasks, std::uint64_t seed) {
  iscope::Rng rng = iscope::Rng(seed).fork("arrival-jitter");
  for (iscope::Task& t : tasks) {
    const double slack = t.deadline_s - t.submit_s;
    t.submit_s = std::max(
        0.0, t.submit_s + rng.uniform(-kArrivalJitterS, kArrivalJitterS));
    t.deadline_s = t.submit_s + slack;
  }
  iscope::sort_by_submit(tasks);
}

SetupLayers time_setup_layers(const iscope::ExperimentConfig& cfg) {
  using namespace iscope;
  SetupLayers l;
  double t = wall_s();
  const Cluster cluster = build_cluster(cfg.cluster);
  l.build_cluster_s = wall_s() - t;

  t = wall_s();
  ProfileDb db(cluster.size());
  const Scanner scanner(&cluster, cfg.scan);
  Rng scan_rng = Rng(cfg.seed).fork("scan");
  std::vector<std::size_t> all(cluster.size());
  std::iota(all.begin(), all.end(), 0);
  scanner.scan_domain(all, 0.0, scan_rng, db);
  l.scan_s = wall_s() - t;
  l.scan_trials = db.total_trials();

  t = wall_s();
  WindFarmConfig wind = cfg.wind;
  wind.seed = Rng(cfg.seed).fork("wind").seed();
  [[maybe_unused]] const SupplyTrace trace =
      generate_wind_days(wind, 7.0).scaled_to_mean(
          cfg.wind_mean_fraction_of_peak *
          estimated_peak_demand(cfg.cluster, cfg.sim.cooling_cop));
  l.wind_trace_s = wall_s() - t;
  return l;
}

void report_setup_layers(const SetupLayers& l, double setup_s,
                         double make_tasks_s, Report& r) {
  r.set("hardware.build_cluster_s", l.build_cluster_s, "s");
  r.set("profiling.scan_s", l.scan_s, "s");
  r.set("profiling.scan_trials", static_cast<double>(l.scan_trials), "count");
  r.set("energy.wind_trace_s", l.wind_trace_s, "s");
  r.set("workload.make_tasks_s", make_tasks_s, "s");
  r.set("core.setup_other_s",
        setup_s - l.build_cluster_s - l.scan_s - l.wind_trace_s - make_tasks_s,
        "s");
}

void declare_layers(Report& r) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"hardware.build_cluster_s", "s"},
      {"profiling.scan_s", "s"},
      {"profiling.scan_trials", "count"},
      {"energy.wind_trace_s", "s"},
      {"workload.make_tasks_s", "s"},
      {"core.setup_other_s", "s"},
      {"sim.events", "count"},
      {"sim.rematches", "count"},
      {"sim.tasks_completed", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.run_s.BinRan", "s"},
      {"sim.run_s.BinEffi", "s"},
      {"sim.run_s.ScanRan", "s"},
      {"sim.run_s.ScanEffi", "s"},
      {"sim.run_s.ScanFair", "s"},
      {"sched.rematch_self_s", "s"},
      {"sched.placement_self_s", "s"},
      {"sim.start_task_self_s", "s"},
      {"sim.other_span_self_s", "s"},
      {"sim.unattributed_s", "s"},
      {"sim.traced_run_s", "s"},
      {"sim.event_queue_peak", "count"},
      {"telemetry.spans", "count"},
      {"telemetry.spans_dropped", "count"},
      {"telemetry.overhead_s", "s"},
      {"sim.rounds", "count"},
      {"sim.round_p50_ms", "ms"},
      {"sim.round_p99_ms", "ms"},
      {"sim.collect_s", "s"},
      {"common.pool_run_s", "s"},
      {"common.pool_busy_fraction_mean", "ratio"},
      {"common.pool_busy_fraction_min", "ratio"},
      {"thermal.solves", "count"},
      {"thermal.solve_us", "us"},
      {"energy.reconcile_wind_us", "us"},
      {"service.admits", "count"},
      {"service.busy", "count"},
      {"service.errors", "count"},
      {"service.generator_lag_p99_us", "us"},
      {"service.admit_p50_us", "us"},
      {"service.admit_p99_us", "us"},
      {"service.admit_samples", "count"},
      {"service.advance_p50_ms", "ms"},
      {"service.advance_p99_ms", "ms"},
      {"service.advance_samples", "count"},
      {"service.decide_now_p99_us", "us"},
      {"service.decide_now_samples", "count"},
      {"service.peak_admits_per_s", "1/s"},
      {"service.offered_admits_per_s", "1/s"},
      {"service.resume_s", "s"},
      {"service.decisions", "count"},
      {"service.advance_events_per_s", "1/s"},
      {"service.checkpoint_ms", "ms"},
      {"service.checkpoint_samples", "count"},
      {"service.checkpoint_bytes", "bytes"},
      {"ops.failed_share", "ratio"},
  };
  for (const auto& [name, unit] : kLayers) r.set(name, 0.0, unit);
}

std::size_t bench_workers() { return std::min<std::size_t>(4, usable_cpus()); }

}  // namespace perfbench
