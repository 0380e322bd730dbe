// Telemetry master switch and instrumentation macros (DESIGN.md Sec. 11).
//
// Telemetry is DISABLED by default, mirroring the fault layer's zero-cost
// contract. Every instrumentation site is gated on `enabled()` -- one
// relaxed atomic load and a predictable branch -- so a disabled run is
// bit-identical in SimResult (telemetry never feeds back into simulation
// state by construction; TelemetryOffIdentity pins it). What tracing
// costs when it is on is measured on every benchmark run as perfbench's
// `telemetry.overhead_s`: the traced run's time minus an untraced run of
// the same work.
//
// Instrumentation idiom:
//
//   if (telemetry::enabled()) { ...update counters/gauges... }
//   ISCOPE_SPAN("rematch");                 // host clock only
//   ISCOPE_SPAN_SIM("rematch", queue_.now());  // host + simulated clock
#pragma once

#include <atomic>

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace iscope::telemetry {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace iscope::telemetry

#define ISCOPE_SPAN_CAT2(a, b) a##b
#define ISCOPE_SPAN_CAT(a, b) ISCOPE_SPAN_CAT2(a, b)

/// RAII span over the rest of the enclosing scope; `name` must be a
/// string literal (stored by pointer in the ring buffer).
#define ISCOPE_SPAN(name)                                      \
  ::iscope::telemetry::ScopedSpan ISCOPE_SPAN_CAT(             \
      iscope_span_, __LINE__)(name, -1.0,                      \
                              ::iscope::telemetry::enabled())

/// Span carrying the simulated clock alongside the host clock.
#define ISCOPE_SPAN_SIM(name, sim_s)                           \
  ::iscope::telemetry::ScopedSpan ISCOPE_SPAN_CAT(             \
      iscope_span_, __LINE__)(name, (sim_s),                   \
                              ::iscope::telemetry::enabled())
