// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace iscope::bench {

/// When ISCOPE_CSV_DIR is set, write a figure's data there as
/// `<name>.csv` (gnuplot/pandas-ready) in addition to the terminal table.
inline void maybe_export_csv(const std::string& name,
                             const std::vector<std::string>& header,
                             const std::vector<std::vector<double>>& rows) {
  const char* dir = std::getenv("ISCOPE_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  CsvWriter w(out);
  w.write_row(header);
  for (const auto& row : rows) w.write_row_numeric(row);
  std::cout << "(exported " << path << ")\n";
}

/// The standard experiment context: paper_small() scaled by ISCOPE_SCALE,
/// sweep workers from ISCOPE_PARALLEL (0 = one per hardware thread), fault
/// injection from ISCOPE_FAULTS / ISCOPE_FAULT_SEED (off by default),
/// shard partition from ISCOPE_SHARDS / ISCOPE_SHARD_WORKERS (1 = the
/// single-event-loop simulator, same results), thermal/CRAC model and
/// sleep governor from ISCOPE_THERMAL / ISCOPE_SLEEP_POLICY (both off by
/// default, bit-identical to the legacy model when off).
inline ExperimentConfig bench_config() {
  ExperimentConfig cfg = ExperimentConfig::paper_small().scaled(env_scale());
  cfg.parallelism = env_parallelism();
  cfg.sim.faults = env_fault_spec();
  cfg.sim.fault_seed = env_fault_seed();
  cfg.sim.topology.shards = env_shards();
  cfg.sim.shard_workers = env_shard_workers();
  cfg.sim.thermal.enabled = env_thermal();
  cfg.sim.sleep.policy = env_sleep_policy();
  return cfg;
}

inline std::size_t env_count(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

/// Benchmark entry point: runs the figure `fn` once.
///
/// ISCOPE_TELEMETRY arms the telemetry subsystem for the run ("0"/empty =
/// off); any value other than "1" is treated as a directory to drop the
/// full report bundle (metrics.prom/metrics.json/samples.csv/trace.json)
/// into.
template <typename Fn>
void run_bench(Fn fn) {
  const char* telem = std::getenv("ISCOPE_TELEMETRY");
  const bool telemetry_on =
      telem != nullptr && *telem != '\0' && std::strcmp(telem, "0") != 0;
  if (telemetry_on) telemetry::set_enabled(true);
  fn();
  if (telemetry_on && std::strcmp(telem, "1") != 0)
    telemetry::write_run_report(telem);
}

inline void print_banner(const char* id, const char* what) {
  std::cout << "\n### " << id << ": " << what << "\n"
            << "### facility: scale=" << env_scale()
            << " (ISCOPE_SCALE env var; 1.0 = 1:10 of the paper's 4800 CPUs)"
            << ", sweep workers=" << env_parallelism()
            << " (ISCOPE_PARALLEL env var; 0 = hardware threads)\n";
}

/// Pivot sweep results into one row per x value, one column per scheme.
/// Also exports the pivoted data as CSV when ISCOPE_CSV_DIR is set (the
/// `csv_name` defaults to the metric name with spaces replaced).
template <typename Metric>
void print_sweep(const std::vector<SweepPoint>& points, const char* x_name,
                 const char* metric_name, Metric metric, int digits = 1,
                 std::string csv_name = "") {
  TextTable table;
  table.set_title(metric_name);
  std::vector<std::string> header = {x_name};
  for (const Scheme s : kAllSchemes) header.push_back(scheme_name(s));
  table.set_header(header);

  std::vector<double> xs;
  for (const auto& p : points)
    if (xs.empty() || xs.back() != p.x) xs.push_back(p.x);

  std::vector<std::vector<double>> csv_rows;
  for (const double x : xs) {
    std::vector<std::string> row = {TextTable::num(x, 2)};
    std::vector<double> csv_row = {x};
    for (const Scheme s : kAllSchemes) {
      for (const auto& p : points) {
        if (p.x == x && p.scheme == s) {
          row.push_back(TextTable::num(metric(p.result), digits));
          csv_row.push_back(metric(p.result));
          break;
        }
      }
    }
    table.add_row(std::move(row));
    csv_rows.push_back(std::move(csv_row));
  }
  table.print(std::cout);

  if (csv_name.empty()) {
    csv_name = metric_name;
    for (char& c : csv_name)
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  maybe_export_csv(csv_name, header, csv_rows);
}

}  // namespace iscope::bench
