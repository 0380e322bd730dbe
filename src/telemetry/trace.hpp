// Scoped spans with Chrome trace_event export (DESIGN.md Sec. 11).
//
// `ISCOPE_SPAN("rematch")` (telemetry.hpp) opens an RAII span: entry
// records a host timestamp (steady_clock ns), exit pushes one complete
// event into the calling thread's bounded ring buffer. Spans nest (a
// thread-local depth counter tracks the stack) and carry a dual clock:
// host nanoseconds plus the simulated time (seconds) the caller passed via
// ISCOPE_SPAN_SIM, so a trace correlates "where did host time go" with
// "where was the simulation".
//
// Ring buffers are strictly per thread: each writer owns its buffer and
// pushes under that buffer's mutex (uncontended in steady state -- only
// export takes someone else's lock), so tracing from ThreadPool workers is
// race-free and never blocks across threads. On overflow the ring drops
// the *oldest* events and counts the drops; a trace is a tail window, not
// a truncation.
//
// Export renders the standard Chrome trace_event JSON object format
// (load in chrome://tracing or https://ui.perfetto.dev): one "X" complete
// event per span (ts/dur in microseconds), plus thread_name metadata
// records, with the simulated time in args.sim_s.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace iscope::telemetry {

/// One finished span. `name` must point at a string with static storage
/// duration (the macros pass literals); the buffer stores the pointer.
struct SpanEvent {
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< host time since the trace epoch
  std::uint64_t dur_ns = 0;
  double sim_s = -1.0;         ///< simulated time at entry; -1 = none
  std::uint16_t depth = 0;     ///< nesting level at entry (0 = top)
};

/// Bounded per-thread ring of finished spans.
class SpanRing {
 public:
  SpanRing(std::size_t id, std::string thread_name, std::size_t capacity);

  void push(const SpanEvent& e);

  std::size_t id() const { return id_; }
  std::string thread_name() const;
  void set_name(const std::string& name);
  /// Events in chronological order (oldest surviving first).
  std::vector<SpanEvent> events() const;
  std::uint64_t dropped() const;
  void clear();

 private:
  const std::size_t id_;
  std::string name_;  ///< guarded by mutex_ (set once, read at export)
  mutable std::mutex mutex_;
  std::vector<SpanEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;        ///< ring write cursor
  std::uint64_t pushed_ = 0;    ///< lifetime pushes (drops = pushed - size)
};

/// Process-wide collection of per-thread rings.
class TraceLog {
 public:
  /// The calling thread's ring (created and registered on first use).
  SpanRing& local();

  /// Name the calling thread's ring (shows up as Chrome thread_name
  /// metadata). Does not touch the OS thread name.
  void set_thread_name(const std::string& name);

  /// Per-thread ring capacity for rings created *after* this call.
  void set_capacity(std::size_t events_per_thread);
  std::size_t capacity() const;

  /// Wipe every ring's events (rings stay registered).
  void clear();

  /// Total spans currently buffered / dropped, over all rings.
  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;

  /// Chrome trace_event JSON ("object format" with traceEvents +
  /// displayTimeUnit). Safe to call while other threads trace; events
  /// pushed concurrently may or may not be included.
  std::string to_chrome_json() const;

  /// Leaked singleton, same rationale as Registry::global().
  static TraceLog& global();

 private:
  std::vector<SpanRing*> rings() const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  std::size_t capacity_ = 65536;
  /// Trace epoch: steady_clock at first use; all span timestamps are
  /// relative to it so exports start near ts=0.
  // iscope-lint: allow(determinism) host-clock spans measure wall time by
  // design; they never feed back into simulation state (DESIGN.md Sec. 11).
  std::chrono::steady_clock::time_point epoch_ =
      // iscope-lint: allow(determinism) same host-clock epoch as above.
      std::chrono::steady_clock::now();

 public:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // iscope-lint: allow(determinism) span timestamps are
            // wall-clock observability output, not simulation input.
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }
};

/// RAII span. Construct through the ISCOPE_SPAN* macros -- they skip all
/// work when telemetry is disabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, double sim_s, bool active);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  double sim_s_;
  std::uint16_t depth_ = 0;
  bool active_;
};

}  // namespace iscope::telemetry
