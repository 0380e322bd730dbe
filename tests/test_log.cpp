// Logger suite: pluggable sinks, level thresholds, line atomicity under
// concurrent writers, and per-level telemetry counters.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace iscope {
namespace {

/// Installs a capture sink for the test body and restores whatever was
/// active before, so suites never leak a dangling sink.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_sink_ = set_log_sink(&capture_);
    previous_level_ = log_level();
    telemetry::set_enabled(false);
  }
  void TearDown() override {
    set_log_sink(previous_sink_);
    set_log_level(previous_level_);
    telemetry::set_enabled(false);
    telemetry::reset_global_telemetry();
  }

  CaptureSink capture_;
  LogSink* previous_sink_ = nullptr;
  LogLevel previous_level_ = LogLevel::kWarn;
};

TEST_F(LogTest, LinesCarryLevelPrefixAndNewline) {
  set_log_level(LogLevel::kDebug);
  ISCOPE_DEBUG("dbg " << 1);
  ISCOPE_INFO("inf " << 2);
  ISCOPE_WARN("wrn " << 3);
  ISCOPE_ERROR("err " << 4);
  const std::vector<std::string> lines = capture_.lines();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "[iscope DEBUG] dbg 1\n");
  EXPECT_EQ(lines[1], "[iscope INFO] inf 2\n");
  EXPECT_EQ(lines[2], "[iscope WARN] wrn 3\n");
  EXPECT_EQ(lines[3], "[iscope ERROR] err 4\n");
  EXPECT_EQ(capture_.text(), lines[0] + lines[1] + lines[2] + lines[3]);
}

TEST_F(LogTest, ThresholdFiltersBelowLevel) {
  set_log_level(LogLevel::kWarn);
  ISCOPE_DEBUG("dropped");
  ISCOPE_INFO("dropped");
  ISCOPE_WARN("kept");
  ISCOPE_ERROR("kept");
  EXPECT_EQ(capture_.lines().size(), 2u);

  capture_.clear();
  set_log_level(LogLevel::kOff);
  ISCOPE_ERROR("dropped too");
  EXPECT_EQ(capture_.lines().size(), 0u);
}

TEST_F(LogTest, SetLogSinkReturnsPreviousSink) {
  // The fixture installed capture_; swapping in another sink hands it back.
  CaptureSink other;
  EXPECT_EQ(set_log_sink(&other), &capture_);
  set_log_level(LogLevel::kInfo);
  ISCOPE_INFO("to other");
  EXPECT_EQ(capture_.lines().size(), 0u);
  ASSERT_EQ(other.lines().size(), 1u);

  // nullptr restores the default stderr sink (and returns `other`).
  EXPECT_EQ(set_log_sink(nullptr), &other);
  EXPECT_EQ(set_log_sink(&capture_), nullptr);
}

TEST_F(LogTest, ConcurrentLoggersNeverInterleaveMidLine) {
  set_log_level(LogLevel::kInfo);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kLines = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const std::string tag = "writer-" + std::to_string(t);
      for (std::size_t i = 0; i < kLines; ++i)
        ISCOPE_INFO(tag << " line " << i << " payload-abcdefghijklmnop");
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<std::string> lines = capture_.lines();
  ASSERT_EQ(lines.size(), kThreads * kLines);
  // Every captured line must be exactly one complete record: the full
  // prefix, one tag, and the terminating newline with none embedded.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("[iscope INFO] writer-", 0), 0u) << line;
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    EXPECT_NE(line.find("payload-abcdefghijklmnop\n"), std::string::npos)
        << line;
  }
}

TEST_F(LogTest, TelemetryCountsLinesPerLevel) {
  telemetry::set_enabled(true);
  set_log_level(LogLevel::kDebug);
  ISCOPE_INFO("one");
  ISCOPE_INFO("two");
  ISCOPE_WARN("three");
  ISCOPE_DEBUG("four");
  telemetry::set_enabled(false);
  ISCOPE_ERROR("not counted while disabled");

  const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
  EXPECT_DOUBLE_EQ(
      telemetry::snapshot_value(snap, "iscope_log_lines_total", {"INFO"}),
      2.0);
  EXPECT_DOUBLE_EQ(
      telemetry::snapshot_value(snap, "iscope_log_lines_total", {"WARN"}),
      1.0);
  EXPECT_DOUBLE_EQ(
      telemetry::snapshot_value(snap, "iscope_log_lines_total", {"DEBUG"}),
      1.0);
  EXPECT_DOUBLE_EQ(telemetry::snapshot_value(
                       snap, "iscope_log_lines_total", {"ERROR"}, 0.0),
                   0.0);
  // All five lines reached the sink regardless of the counter gate.
  EXPECT_EQ(capture_.lines().size(), 5u);
}

}  // namespace
}  // namespace iscope
