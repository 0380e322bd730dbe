#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace iscope::telemetry {

namespace {

/// Thread-local cache of the calling thread's ring. Raw pointer into
/// TraceLog::global()'s storage (never freed; see Registry::global()).
thread_local SpanRing* t_ring = nullptr;
thread_local std::uint16_t t_depth = 0;

}  // namespace

SpanRing::SpanRing(std::size_t id, std::string thread_name,
                   std::size_t capacity)
    : id_(id), name_(std::move(thread_name)),
      capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void SpanRing::push(const SpanEvent& e) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_] = e;  // overwrite the oldest slot
    next_ = (next_ + 1) % capacity_;
  }
  ++pushed_;
}

std::vector<SpanEvent> SpanRing::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanEvent> out;
  out.reserve(ring_.size());
  // Once full, `next_` points at the oldest surviving event.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

std::string SpanRing::thread_name() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return name_;
}

void SpanRing::set_name(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  name_ = name;
}

std::uint64_t SpanRing::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pushed_ - ring_.size();
}

void SpanRing::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  pushed_ = 0;
}

SpanRing& TraceLog::local() {
  if (t_ring == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::make_unique<SpanRing>(
        rings_.size(), "thread-" + std::to_string(rings_.size()), capacity_));
    t_ring = rings_.back().get();
  }
  return *t_ring;
}

void TraceLog::set_thread_name(const std::string& name) {
  local().set_name(name);
}

void TraceLog::set_capacity(std::size_t events_per_thread) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(1, events_per_thread);
}

std::size_t TraceLog::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::vector<SpanRing*> TraceLog::rings() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRing*> out;
  out.reserve(rings_.size());
  for (const auto& r : rings_) out.push_back(r.get());
  return out;
}

void TraceLog::clear() {
  for (SpanRing* r : rings()) r->clear();
}

std::uint64_t TraceLog::total_events() const {
  std::uint64_t n = 0;
  for (const SpanRing* r : rings()) n += r->events().size();
  return n;
}

std::uint64_t TraceLog::total_dropped() const {
  std::uint64_t n = 0;
  for (const SpanRing* r : rings()) n += r->dropped();
  return n;
}

namespace {

std::string json_escape(const char* s) {
  std::string out = "\"";
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string us(double nanoseconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", nanoseconds * 1e-3);
  return buf;
}

}  // namespace

std::string TraceLog::to_chrome_json() const {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanRing* r : rings()) {
    const std::string tid = std::to_string(r->id());
    if (!first) out += ",\n";
    first = false;
    // Chrome metadata record naming the synthetic thread row.
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           tid + ", \"args\": {\"name\": " +
           json_escape(r->thread_name().c_str()) + "}}";
    for (const SpanEvent& e : r->events()) {
      char sim[32];
      std::snprintf(sim, sizeof sim, "%.6f", e.sim_s);
      out += ",\n{\"name\": " + json_escape(e.name) +
             ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + tid +
             ", \"ts\": " + us(static_cast<double>(e.start_ns)) +
             ", \"dur\": " + us(static_cast<double>(e.dur_ns)) +
             ", \"args\": {\"sim_s\": " + sim +
             ", \"depth\": " + std::to_string(e.depth) + "}}";
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

TraceLog& TraceLog::global() {
  static TraceLog* t = new TraceLog;  // leaked: see header
  return *t;
}

ScopedSpan::ScopedSpan(const char* name, double sim_s, bool active)
    : name_(name), sim_s_(sim_s), active_(active) {
  if (!active_) return;
  depth_ = t_depth++;
  start_ns_ = TraceLog::global().now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --t_depth;
  SpanEvent e;
  e.name = name_;
  e.start_ns = start_ns_;
  e.dur_ns = TraceLog::global().now_ns() - start_ns_;
  e.sim_s = sim_s_;
  e.depth = depth_;
  TraceLog::global().local().push(e);
}

}  // namespace iscope::telemetry
