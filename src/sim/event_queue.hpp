// Discrete-event simulation engine.
//
// A minimal, deterministic DES core: an event is a (time, EventDesc) pair,
// where the descriptor names the simulator action and its small payload.
// The queue never calls an action itself -- run_until/run_before hand each
// popped descriptor to a caller-supplied dispatcher (the simulator's
// DatacenterSim::dispatch), which is the one place a kind maps to its
// handler. Ties run in insertion order (a monotone sequence number breaks
// them), which keeps whole-simulation results bit-reproducible. The
// dispatcher may schedule further events. Cancellation is by design left
// to the caller (version counters on the payload) -- cheaper and simpler
// than tombstoning the heap.
//
// Hot-path notes: the heap is a plain vector of POD items driven by
// std::push_heap / std::pop_heap (the exact call sequence
// std::priority_queue makes, so pop order is bit-identical to the old
// priority_queue implementation), which lets the loop extract the top
// item by copying `back()` after pop_heap and lets `clear()` retain
// capacity across simulator runs. Scheduling stores a descriptor, never
// a callable, so steady-state scheduling performs no heap allocation once
// the heap vector has grown to its high-water mark. The dispatcher is a
// template parameter, so its switch inlines into the loop.
//
// Checkpointing (src/service/checkpoint.cpp): descriptors are the
// serialized form. save_events() emits the heap's raw vector layout, and
// restore() reinstalls it verbatim -- a valid heap, no re-heapify -- so
// the resumed pop order is bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace iscope {

/// Serializable identity of a scheduled event: which simulator action it
/// performs and the small payload that action needs. The enumerator values
/// are the checkpoint wire values.
struct EventDesc {
  enum class Kind : std::uint8_t {
    kArrival = 1,      ///< a = task index
    kPass,             ///< deadline-pressure scheduling-pass wakeup
    kCompletion,       ///< a = task index, b = task version
    kEpoch,            ///< t = epoch time (self-rechaining)
    kSample,           ///< t = sample time (self-rechaining)
    kProfilingBegin,   ///< a = profiling window index
    kProfilingEnd,     ///< a = active-scan slot index
    kFault,            ///< a = fault-plan event cursor
    kMisprofileTimer,  ///< a = processor, b = occupancy token
    kMisprofileRepair, ///< a = processor
    kThermal,          ///< t = thermal-epoch time (self-rechaining)
    kSleepEnter,       ///< a = processor, b = idle token
    kWake,             ///< a = task index, b = task version
  };
  Kind kind;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double t = 0.0;
};

/// One checkpointed event, in the heap's raw vector order.
struct SavedEvent {
  double time = 0.0;
  std::uint64_t seq = 0;
  EventDesc desc;
};

class EventQueue {
 public:
  /// Schedule `desc` at absolute time `time_s` (>= now). Arrival events
  /// occupy a dedicated tie class that runs before every other same-time
  /// event except thermal epochs: batch runs schedule all arrivals first
  /// (smallest sequence numbers), so their tie order is unchanged, while a
  /// streamed admission's arrival -- scheduled after epoch/sample chains
  /// already exist -- still ties exactly where the batch schedule would
  /// have put it.
  void schedule(double time_s, const EventDesc& desc);

  /// Dispatch events with time <= `until_s` (at most `max_events`). The
  /// clock advances to `until_s` only when the slice completed (queue
  /// drained or next event past `until_s`); when the event budget stopped
  /// the loop the clock stays at the last processed event, so the
  /// remaining events are still ahead of it. Returns the number of events
  /// run.
  template <typename Dispatch>
  std::size_t run_until(double until_s, std::size_t max_events,
                        Dispatch&& dispatch) {
    std::size_t n = 0;
    while (!heap_.empty() && heap_.front().time <= until_s) {
      // Budget exhausted mid-slice: events at or before until_s remain, so
      // the clock must stay at the last processed event -- advancing it
      // past unprocessed events would make the next pop run time
      // backwards.
      if (n >= max_events) return n;
      dispatch(pop());
      ++n;
    }
    now_ = std::max(now_, until_s);
    return n;
  }

  /// Dispatch events with time strictly < `t_limit` (at most
  /// `max_events`). Unlike run_until, the clock is left at the last
  /// processed event -- never advanced to `t_limit` -- so a caller that
  /// resumes the queue later (the sharded epoch-barrier loop) observes the
  /// same event-time sequence one uninterrupted drain would. Returns the
  /// number of events run.
  template <typename Dispatch>
  std::size_t run_before(double t_limit, std::size_t max_events,
                         Dispatch&& dispatch) {
    std::size_t n = 0;
    while (n < max_events && !heap_.empty() && heap_.front().time < t_limit) {
      dispatch(pop());
      ++n;
    }
    return n;
  }

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  /// Largest pending() ever observed (since construction or clear()).
  /// Tracked unconditionally -- one compare per schedule -- so telemetry
  /// can report it without perturbing the hot path with a gate.
  std::size_t high_water() const { return hwm_; }
  /// Next sequence number to be assigned (checkpointed so a restored run
  /// keeps numbering ties exactly where the uninterrupted run would).
  std::uint64_t next_seq() const { return seq_; }

  /// Snapshot every pending event in the heap's raw vector order.
  std::vector<SavedEvent> save_events() const;

  /// Reinstall a snapshot. The items are installed in the given order
  /// *without* re-heapifying -- save_events() emitted a valid heap layout,
  /// and restoring it verbatim reproduces the exact pop (and sift)
  /// sequence of the uninterrupted run. The caller validates each
  /// descriptor's payload against the state it indexes.
  void restore(double now, std::uint64_t next_seq, std::size_t high_water,
               const std::vector<SavedEvent>& events);

  /// Drop all pending events and rewind the clock to 0, keeping the heap's
  /// allocated capacity (so a reused queue schedules allocation-free up to
  /// the previous high-water mark).
  void clear();

  /// Pre-size the heap storage.
  void reserve(std::size_t events) { heap_.reserve(events); }

 private:
  struct Item {
    double time;
    std::uint64_t seq;
    std::uint8_t cls;  ///< tie class: 0 thermal, 1 arrival, 2 the rest
    EventDesc desc;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.cls != b.cls) return a.cls > b.cls;
      return a.seq > b.seq;
    }
  };
  /// Thermal epochs run first at their barrier time: a flat run's
  /// thermal event at t then observes exactly the state the sharded
  /// coordinator sees after run_before(t) -- no same-time event has run
  /// yet -- which is what makes 1-shard thermal bit-identical to flat.
  /// The arrival-before-the-rest split below it is a monotone remap of
  /// the original {0, 1} classes, so runs without thermal events pop in
  /// the exact order they always did.
  static std::uint8_t tie_class(const EventDesc& desc) {
    if (desc.kind == EventDesc::Kind::kThermal) return 0;
    return desc.kind == EventDesc::Kind::kArrival ? 1 : 2;
  }
  /// Remove the earliest event, advance the clock to it, return its
  /// descriptor. Precondition: !empty().
  EventDesc pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Item item = heap_.back();
    heap_.pop_back();
    now_ = item.time;
    return item.desc;
  }

  std::vector<Item> heap_;  ///< binary max-heap under Later
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t hwm_ = 0;  ///< see high_water()
};

}  // namespace iscope
