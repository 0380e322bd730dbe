// iscope_perfbench: the benchmark harness behind perfbench/run.py.
//
//   iscope_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --expected TABLE --serve-bin PATH --workdir DIR
//
// Prints a host record, then, as its last line, one JSON object with
// correct/attempted/failed and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exits non-zero without a result when a
// workload cannot run. With --emit-expected 1 it prints the workload's rows
// of the expected-outcome table, for every input variant, instead of
// measuring.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "measure.hpp"

namespace {

// Linked in only when the program is built with --coverage.
extern "C" void __gcov_init(void*) __attribute__((weak));

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "";
#endif
}

bool coverage() { return &__gcov_init != nullptr; }

bool simd() {
#ifdef ISCOPE_SIMD
  return true;
#else
  return false;
#endif
}

/// The timed work runs serially (one sweep worker, shards advanced in the
/// caller's thread); `pool_workers` is the worker count of the pooled runs
/// checked beside it and of the traced pool-occupancy run.
void print_host(const perfbench::Options& opt) {
  std::printf(
      "{\"host\": {\"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"sweep_workers\": 1, \"shard_workers\": 1, \"pool_workers\": %zu, "
      "\"build_type\": \"%s\", \"iscope_simd\": %s, \"sanitize\": \"%s\", "
      "\"coverage\": %s, \"workload\": \"%s\", \"seed\": %llu, "
      "\"input_variant\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      perfbench::usable_cpus(), std::thread::hardware_concurrency(),
      perfbench::bench_workers(), PERFBENCH_BUILD_TYPE,
      simd() ? "true" : "false", sanitizer(), coverage() ? "true" : "false",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(opt.variant), opt.seconds,
      opt.trace ? 1 : 0);
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr, "iscope_perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string workdir;
  std::string expected;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--emit-expected") opt.emit_expected = value == "1";
    else if (flag == "--expected") expected = value;
    else if (flag == "--serve-bin") opt.serve_bin = value;
    else if (flag == "--workdir") workdir = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (*sanitizer() != '\0' || coverage())
    return usage("refusing to time a sanitizer or coverage build");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  opt.variant = opt.seed % perfbench::kInputVariants;
  if (!opt.emit_expected) {
    if (expected.empty()) return usage("--expected TABLE is required");
    try {
      perfbench::load_expected(expected, opt);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
    if (opt.expected.empty())
      return usage("the expected-outcome table has no row for this seed");
  }
  if (!workdir.empty() && ::chdir(workdir.c_str()) != 0)
    return usage("cannot enter --workdir");

  void (*workload)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (opt.workload == "fig8_paper") workload = perfbench::run_fig8_paper;
  if (opt.workload == "hyperscale_sharded")
    workload = perfbench::run_hyperscale_sharded;
  if (opt.workload == "daemon_stream") {
    if (opt.serve_bin.empty()) return usage("daemon_stream needs --serve-bin");
    workload = perfbench::run_daemon_stream;
  }
  if (workload == nullptr) return usage("unknown --workload");

  perfbench::size_trace_rings();
  if (!opt.emit_expected) print_host(opt);
  perfbench::Report report;
  try {
    if (opt.emit_expected) {
      for (opt.variant = 0; opt.variant < perfbench::kInputVariants; ++opt.variant)
        workload(opt, report);
      return 0;
    }
    workload(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iscope_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace)
    report.set("ops.failed_share",
               static_cast<double>(report.failed()) /
                   static_cast<double>(report.attempted()),
               "ratio");
  report.print(report.failed() == 0 && report.attempted() > 0);
  return 0;
}
