// Supply-demand power matching (paper Sec. V-C).
//
// "Our experiments try to maximally utilize the renewable energy. If the
//  renewable power is not enough to run all the required processors at full
//  speed, DVFS is applied to reduce the frequency and power demand. We stop
//  lowering the frequency when some tasks are facing violation of their
//  deadlines. If the renewable power is still not enough at that time, we
//  will supplement utility power."
//
// The matcher re-decides every running task's DVFS level at each supply
// epoch and on task start/completion, in two phases:
//
//  1. Baseline: each task gets its *energy-optimal deadline-feasible* level
//     -- argmin over levels of  P(level) * slowdown(level)  (the energy to
//     finish the remaining work). Static power (beta in Eq-1) makes
//     crawling wasteful, so this is usually near, not at, the top level.
//  2. Wind fitting: while facility demand exceeds the available wind power
//     and wind is present at all, greedily take the DVFS down-step with the
//     largest power saving among tasks still above their deadline floor.
//     Any remaining gap is supplemented from the utility grid.
//
// With no wind at all (the paper's utility-only study) phase 2 is a no-op:
// there is no budget to fit under, and stretching execution would only burn
// more (expensive) static energy.
//
// Two implementations (DESIGN.md Sec. 9). Production runs the SoA pair,
// `match_columns` / `match_incremental`, over MatcherColumns rows whose
// per-level power tables are built once at task start. `match_reference`
// is the oracle: the same algorithm over `ActiveTask` views, summing each
// task's power over its processors. IncrementalProperty
// (tests/test_match_equivalence.cpp) asserts the two produce bit-identical
// levels and sums over randomized populations and wind walks.
#pragma once

#include <cstddef>
#include <vector>

#include "sched/knowledge.hpp"
#include "sched/matcher_columns.hpp"

namespace iscope {

/// A running task as the matcher sees it.
struct ActiveTask {
  double remaining_work_s = 0.0;  ///< work left, in seconds-at-Fmax
  double deadline_s = 0.0;
  double gamma = 1.0;             ///< CPU-boundness (Eq-3)
  std::vector<std::size_t> procs; ///< processors it occupies
  std::size_t level = 0;          ///< matcher output: assigned DVFS level
};

struct MatchResult {
  Watts compute;           ///< IT power after matching
  Watts demand;            ///< facility power (IT * cooling factor)
  std::size_t steps = 0;   ///< phase-2 DVFS down-steps taken
};

/// Reusable buffers for PowerMatcher::match_columns. A caller that keeps
/// one MatchScratch across calls allocates only until the buffers reach
/// their high-water marks; after that, matching is allocation-free.
struct MatchScratch {
  struct Step {
    Watts saving;
    std::size_t task;
    std::size_t to_level;
  };
  std::vector<std::size_t> floor;  ///< per-task deadline floor level
  std::vector<Step> heap;          ///< phase-2 down-step candidate heap
};

/// Cached greedy trajectory for the incremental delta-rematch
/// (DESIGN.md Sec. 14). Key fact: phase 2's pop/push/stale-skip sequence
/// never reads the wind budget -- the budget only decides where along that
/// canonical sequence the greedy STOPS. So one materialized solve caches
/// the whole trajectory (`log`, with the running compute after each
/// applied step), and a later epoch whose only change is the wind budget
/// re-positions a cursor on it instead of re-solving: binary search for
/// the stop prefix (the fit predicate is monotone along the log), rewind
/// or replay the touched tasks, done. The replay is *exact* -- bit-equal
/// levels and compute to a from-scratch solve, cost gap zero -- because
/// every stored value was produced by the identical operation sequence a
/// fresh solve would run (tests/test_match_equivalence.cpp, the
/// IncrementalIdentity suite and the 50-seed property test).
///
/// Validity: the cache assumes the row set, the per-row power/slowdown
/// tables and the deadline floors are those of the cached solve. The
/// simulator invalidates on task start/completion/requeue, Knowledge
/// generation bumps and rush-mode flips; match_incremental re-checks the
/// floors itself (the vectorized scan is cheap) and refuses when they
/// moved.
struct IncrementalMatchState {
  struct AppliedStep {
    Watts saving;         ///< power released by this down-step
    Watts compute_after;  ///< running compute after applying it
    std::size_t task;     ///< column row index
    std::size_t to_level; ///< level the task stepped down to
  };
  bool valid = false;
  /// Whether the caching solve built the down-step heap. A gated-off
  /// phase 2 (no wind, or floors alone over budget) skips heap
  /// construction entirely -- most structural rematches never see a
  /// fitting epoch before the next invalidation, so building the heap
  /// eagerly would be pure waste. A later epoch that *does* need to
  /// extend past the (empty) log with no heap falls back to a full
  /// solve, which then caches with a real heap.
  bool heap_built = false;
  Watts compute0;       ///< phase-1 compute (the cursor-0 state)
  Watts floor_compute;  ///< all-floors compute (the phase-2 gate)
  std::vector<AppliedStep> log;  ///< applied down-steps, in greedy order
  std::size_t cursor = 0;        ///< applied prefix length = current state
  /// Down-step heap as of state log.size(); extending the trajectory past
  /// the deepest materialized point keeps popping from here. The caching
  /// solve builds and drives this vector in place (no copy): after its
  /// greedy loop the heap is exactly the state the extension path needs.
  std::vector<MatchScratch::Step> heap;

  void invalidate() {
    valid = false;
    heap_built = false;
    cursor = 0;
    log.clear();  // clear(), not reassign: keeps warmed-up capacity
    heap.clear();
  }
};

class PowerMatcher {
 public:
  /// `cooling_factor` is (1 + 1/COP) from Eq-2.
  PowerMatcher(const Knowledge* knowledge, double cooling_factor);

  /// Lowest level at which `task` still meets its deadline starting `now_s`;
  /// returns the top level if even that misses (run flat out, QoS best
  /// effort).
  std::size_t min_feasible_level(const ActiveTask& task, double now_s) const;

  /// Energy-optimal level in [floor, top]: minimizes P(l) * slowdown(l).
  std::size_t energy_optimal_level(const ActiveTask& task,
                                   std::size_t floor) const;

  /// SoA full solve over MatcherColumns rows: the two phases of the file
  /// comment (as `match_reference` runs them), with the floor scan batched
  /// through the vectorized kernel and the energy argmin collapsed to the
  /// precomputed best_from table.
  /// Rows must be in running-list order (ordered FP sums and equal-saving
  /// tiebreaks; see matcher_columns.hpp). Fills cols.floor/cols.level.
  /// When `inc` is non-null the greedy trajectory is cached there for
  /// match_incremental; the phase-2 heap is built directly in `inc->heap`
  /// (and only when phase 2 is live -- see heap_built).
  MatchResult match_columns(MatcherColumns& cols, Watts wind_avail,
                            double now_s, MatchScratch& scratch,
                            IncrementalMatchState* inc = nullptr) const;

  /// Incremental delta-rematch: re-solve assuming only the wind budget
  /// moved since the solve that filled `inc`. Returns false (caller falls
  /// back to match_columns) when the cache is invalid or any deadline
  /// floor moved; on true, `out` and cols.level are bit-identical to what
  /// a full solve would produce.
  bool match_incremental(MatcherColumns& cols, Watts wind_avail,
                         double now_s, MatchScratch& scratch,
                         IncrementalMatchState& inc, MatchResult& out) const;

  /// The oracle: assigns every task's level (see file comment for the
  /// algorithm) with a priority_queue and O(procs) power sums. Reference
  /// for the matcher property tests and the unit tests; not a hot path.
  MatchResult match_reference(std::vector<ActiveTask>& tasks,
                              Watts wind_avail, double now_s) const;

  /// IT power of one task at one level: the sum over its processors in
  /// the Knowledge view.
  Watts task_power(const ActiveTask& task, std::size_t level) const;

  /// Eq-3 slowdown of a task at a level.
  double slowdown(const ActiveTask& task, std::size_t level) const;

  double cooling_factor() const { return cooling_factor_; }

 private:
  const Knowledge* knowledge_;  // non-owning
  double cooling_factor_;
  /// Precomputed (fmax / f_l - 1.0) per level; slowdown() is then one
  /// fma instead of a division (bit-identical: same operation sequence,
  /// the division is just hoisted to construction).
  std::vector<double> slowdown_ratio_;
};

}  // namespace iscope
