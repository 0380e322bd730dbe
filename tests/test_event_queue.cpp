#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace iscope {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A descriptor whose payload `a` tags the event for the recording
/// dispatchers below (the queue never reads the payload).
EventDesc tag(std::uint64_t a) { return EventDesc{EventDesc::Kind::kPass, a}; }

/// Drain every pending event, recording each payload tag in pop order.
std::vector<std::uint64_t> drain(EventQueue& q) {
  std::vector<std::uint64_t> fired;
  q.run_before(kInf, SIZE_MAX,
               [&fired](const EventDesc& e) { fired.push_back(e.a); });
  return fired;
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  q.schedule(3.0, tag(3));
  q.schedule(1.0, tag(1));
  q.schedule(2.0, tag(2));
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesRunInInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.schedule(5.0, tag(i));
  const std::vector<std::uint64_t> fired = drain(q);
  ASSERT_EQ(fired.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  EventQueue q;
  int count = 0;
  q.schedule(0.0, tag(0));
  q.run_before(kInf, SIZE_MAX, [&](const EventDesc&) {
    ++count;
    if (count < 5) q.schedule(q.now() + 1.0, tag(0));
  });
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, SchedulingIntoPastThrows) {
  EventQueue q;
  q.schedule(10.0, tag(0));
  drain(q);
  EXPECT_THROW(q.schedule(5.0, tag(0)), InvalidArgument);
  // Same-time scheduling is fine.
  EXPECT_NO_THROW(q.schedule(10.0, tag(0)));
}

TEST(EventQueue, RunRespectsBudget) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.schedule(i, tag(0));
  EXPECT_EQ(q.run_before(kInf, 4, [](const EventDesc&) {}), 4u);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) q.schedule(t, tag(0));
  EXPECT_EQ(q.run_until(2.5, SIZE_MAX,
                        [&](const EventDesc&) { fired.push_back(q.now()); }),
            2u);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.5);  // clock advanced to the boundary
  EXPECT_EQ(q.pending(), 2u);
}

TEST(EventQueue, RunUntilOnEmptyAdvancesClock) {
  EventQueue q;
  q.run_until(100.0, SIZE_MAX, [](const EventDesc&) {});
  EXPECT_DOUBLE_EQ(q.now(), 100.0);
}

TEST(EventQueue, RunUntilBudgetExhaustionHoldsClockAtLastEvent) {
  EventQueue q;
  std::vector<double> fired;
  const auto record = [&](const EventDesc&) { fired.push_back(q.now()); };
  for (double t : {1.0, 2.0, 3.0, 4.0}) q.schedule(t, tag(0));
  // The budget stops the slice with events <= until_s still pending: the
  // clock must NOT jump to the boundary, or those events would sit behind
  // it and the next pop would run time backwards.
  EXPECT_EQ(q.run_until(10.0, 2, record), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 2u);
  // Resuming the slice completes it and only then parks at the boundary.
  EXPECT_EQ(q.run_until(10.0, SIZE_MAX, record), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, WakePendingAtSliceBoundarySurvivesBudgetStop) {
  // Regression (extends the clock-vs-budget fix): a kWake event sitting
  // exactly ON the slice boundary must not be skipped when max_events
  // stops run_until before reaching it -- the clock stays behind it and
  // the resumed slice delivers it.
  EventQueue q;
  std::vector<EventDesc::Kind> fired;
  const auto record = [&fired](const EventDesc& e) {
    fired.push_back(e.kind);
  };
  q.schedule(1.0, EventDesc{EventDesc::Kind::kSleepEnter, 3, 0});
  q.schedule(2.0, EventDesc{EventDesc::Kind::kEpoch, 0, 0, 2.0});
  q.schedule(5.0, EventDesc{EventDesc::Kind::kWake, 7, 1});  // on boundary
  EXPECT_EQ(q.run_until(5.0, 2, record), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);  // held at the last processed event
  ASSERT_EQ(q.pending(), 1u);
  // The wake is still ahead of the clock: nothing runs strictly before it.
  EXPECT_EQ(q.run_before(5.0, SIZE_MAX, record), 0u);
  // The resumed slice runs the wake; nothing was lost.
  EXPECT_EQ(q.run_until(5.0, SIZE_MAX, record), 1u);
  EXPECT_EQ(fired, (std::vector<EventDesc::Kind>{EventDesc::Kind::kSleepEnter,
                                                 EventDesc::Kind::kEpoch,
                                                 EventDesc::Kind::kWake}));
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, ThermalTiesRunBeforeSameInstantArrivals) {
  // kThermal occupies tie class 0: at the same instant the epoch's
  // thermal resolve must apply before arrivals and completions read the
  // demand it recomputes, whatever the scheduling order was.
  EventQueue q;
  q.schedule(600.0, EventDesc{EventDesc::Kind::kArrival, 0, 0});
  q.schedule(600.0, EventDesc{EventDesc::Kind::kCompletion, 0, 1});
  q.schedule(600.0, EventDesc{EventDesc::Kind::kThermal, 0, 0, 600.0});
  std::vector<EventDesc::Kind> fired;
  q.run_before(kInf, SIZE_MAX,
               [&fired](const EventDesc& e) { fired.push_back(e.kind); });
  EXPECT_EQ(fired, (std::vector<EventDesc::Kind>{EventDesc::Kind::kThermal,
                                                 EventDesc::Kind::kArrival,
                                                 EventDesc::Kind::kCompletion}));
}

TEST(EventQueue, PeekTime) {
  // The earliest pending time is the boundary between run_before (which
  // stops short of it) and run_until (which reaches it).
  EventQueue q;
  q.schedule(7.0, tag(0));
  EXPECT_EQ(q.run_before(7.0, SIZE_MAX, [](const EventDesc&) {}), 0u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_until(7.0, SIZE_MAX, [](const EventDesc&) {}), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 7.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepOnEmptyReturnsFalse) {
  // Draining an empty queue dispatches nothing and leaves it empty.
  EventQueue q;
  int calls = 0;
  EXPECT_EQ(q.run_before(kInf, SIZE_MAX, [&](const EventDesc&) { ++calls; }),
            0u);
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimestampsStayFifoUnderMidRunScheduling) {
  // Heap-order stability: events at one timestamp fire in scheduling order
  // even when some of them are scheduled from inside the dispatcher while
  // other equal-time events are already pending.
  EventQueue q;
  std::vector<std::uint64_t> fired;
  q.schedule(5.0, tag(0));
  q.schedule(5.0, tag(1));
  q.schedule(5.0, tag(2));
  q.run_before(kInf, SIZE_MAX, [&](const EventDesc& e) {
    fired.push_back(e.a);
    if (e.a == 0) {
      // Scheduled mid-run at the current time: must run after every
      // already-pending event at t=5, in its own insertion order.
      q.schedule(5.0, tag(3));
      q.schedule(5.0, tag(4));
    }
  });
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ClearKeepsCapacityAndRewindsClock) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.schedule(i, tag(0));
  std::size_t count = drain(q).size();
  EXPECT_DOUBLE_EQ(q.now(), 99.0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  // Reusable: times before the old clock are valid again.
  q.schedule(1.0, tag(0));
  count += drain(q).size();
  EXPECT_EQ(count, 101u);
}

TEST(EventQueue, LargeVolumeStaysOrdered) {
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 10007);
    q.schedule(t, EventDesc{EventDesc::Kind::kEpoch, 0, 0, t});
  }
  double last = -1.0;
  bool ordered = true;
  q.run_before(kInf, SIZE_MAX, [&](const EventDesc& e) {
    if (e.t < last) ordered = false;
    last = e.t;
  });
  EXPECT_TRUE(ordered);
}

}  // namespace
}  // namespace iscope
