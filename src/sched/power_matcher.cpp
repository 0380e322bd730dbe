#include "sched/power_matcher.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"

namespace iscope {

PowerMatcher::PowerMatcher(const Knowledge* knowledge, double cooling_factor)
    : knowledge_(knowledge), cooling_factor_(cooling_factor) {
  ISCOPE_CHECK_ARG(knowledge != nullptr, "PowerMatcher: null knowledge");
  ISCOPE_CHECK_ARG(cooling_factor >= 1.0,
                   "PowerMatcher: cooling factor must be >= 1");
  const FreqLevels& levels = knowledge->cluster().levels();
  const double fmax = levels.freq_ghz.back();
  slowdown_ratio_.reserve(levels.freq_ghz.size());
  for (const double f : levels.freq_ghz)
    slowdown_ratio_.push_back(fmax / f - 1.0);
}

Watts PowerMatcher::task_power(const ActiveTask& task,
                               std::size_t level) const {
  Watts p;
  for (const std::size_t id : task.procs) p += knowledge_->power(id, level);
  return p;
}

double PowerMatcher::slowdown(const ActiveTask& task,
                              std::size_t level) const {
  return task.gamma * slowdown_ratio_[level] + 1.0;
}

std::size_t PowerMatcher::min_feasible_level(const ActiveTask& task,
                                             double now_s) const {
  const std::size_t count = knowledge_->levels();
  const double slack = task.deadline_s - now_s;
  for (std::size_t l = 0; l < count; ++l) {
    if (task.remaining_work_s * slowdown(task, l) <= slack) return l;
  }
  return count - 1;  // even Fmax misses: run flat out
}

std::size_t PowerMatcher::energy_optimal_level(const ActiveTask& task,
                                               std::size_t floor) const {
  const std::size_t top = knowledge_->levels() - 1;
  ISCOPE_CHECK_ARG(floor <= top, "energy_optimal_level: floor out of range");
  std::size_t best = top;
  Watts best_energy = task_power(task, top) * slowdown(task, top);
  // Prefer the higher level on ties (finish sooner at equal energy).
  for (std::size_t l = top; l-- > floor;) {
    const Watts e = task_power(task, l) * slowdown(task, l);
    if (e < best_energy) {
      best_energy = e;
      best = l;
    }
  }
  return best;
}

namespace {

// Heap order for phase-2 down-steps: largest saving on top, smaller task
// index winning ties. Shared by the optimized and reference paths so their
// pop order agrees bit for bit.
struct StepLess {
  bool operator()(const MatchScratch::Step& a,
                  const MatchScratch::Step& b) const {
    if (a.saving != b.saving) return a.saving < b.saving;
    return a.task > b.task;  // deterministic tiebreak
  }
};

}  // namespace

MatchResult PowerMatcher::match_columns(MatcherColumns& cols, Watts wind_avail,
                                        double now_s, MatchScratch& scratch,
                                        IncrementalMatchState* inc) const {
  ISCOPE_CHECK_ARG(wind_avail.raw() >= 0.0, "PowerMatcher: negative wind");

  MatchResult result;
  if (inc != nullptr) inc->invalidate();
  if (cols.count == 0) return result;
  const std::size_t levels = cols.levels;

  // Phase 1: batched deadline-floor scan (the vectorized kernel), then the
  // energy-optimal level is one best_from table read per row. Sums stay
  // scalar and in row order -- reordering them would change the rounding.
  soa::floor_scan_rows(cols.slowdown.data(), levels, cols.remaining.data(),
                       cols.deadline.data(), now_s, cols.count,
                       cols.floor.data());
  Watts compute;
  for (std::size_t r = 0; r < cols.count; ++r) {
    const std::size_t l = cols.best_from[r * levels + cols.floor[r]];
    cols.level[r] = l;
    compute += Watts{cols.power[r * levels + l]};
  }
  Watts floor_compute;
  for (std::size_t r = 0; r < cols.count; ++r)
    floor_compute += Watts{cols.power[r * levels + cols.floor[r]]};
  const Watts compute0 = compute;

  // Phase 2: identical greedy to `match_reference`, over rows instead of
  // views. The vector driven by push_heap/pop_heap replicates
  // std::priority_queue's exact call sequence, so equal-saving pops stay
  // in the same order. With caching on, the greedy builds and drives
  // inc->heap in place: after the loop it is exactly the down-step heap at
  // the deepest materialized state, which is what the extension path
  // needs -- no copy. A gated-off phase 2 builds no heap at all
  // (heap_built stays false; most structural rematches are invalidated
  // before any fitting epoch could use it).
  const bool fitting =
      wind_avail.raw() > 0.0 && wind_avail >= floor_compute * cooling_factor_;
  if (fitting) {
    std::vector<MatchScratch::Step>& heap =
        (inc != nullptr) ? inc->heap : scratch.heap;
    heap.clear();
    auto push_step = [&](std::size_t r) {
      const std::size_t l = cols.level[r];
      if (l == 0 || l <= cols.floor[r]) return;
      const Watts saving = Watts{cols.power[r * levels + l]} -
                           Watts{cols.power[r * levels + l - 1]};
      heap.push_back(MatchScratch::Step{saving, r, l - 1});
      std::push_heap(heap.begin(), heap.end(), StepLess{});
    };
    for (std::size_t r = 0; r < cols.count; ++r) push_step(r);

    while (compute * cooling_factor_ > wind_avail && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), StepLess{});
      const MatchScratch::Step step = heap.back();
      heap.pop_back();
      if (cols.level[step.task] != step.to_level + 1) continue;
      cols.level[step.task] = step.to_level;
      compute -= step.saving;
      ++result.steps;
      if (inc != nullptr)
        inc->log.push_back(IncrementalMatchState::AppliedStep{
            step.saving, compute, step.task, step.to_level});
      push_step(step.task);
    }
  }

  if (inc != nullptr) {
    inc->valid = true;
    inc->heap_built = fitting;
    inc->compute0 = compute0;
    inc->floor_compute = floor_compute;
    inc->cursor = inc->log.size();
  }
  result.compute = compute;
  result.demand = compute * cooling_factor_;
  return result;
}

bool PowerMatcher::match_incremental(MatcherColumns& cols, Watts wind_avail,
                                     double now_s, MatchScratch& scratch,
                                     IncrementalMatchState& inc,
                                     MatchResult& out) const {
  ISCOPE_CHECK_ARG(wind_avail.raw() >= 0.0, "PowerMatcher: negative wind");
  if (!inc.valid || cols.count == 0) return false;
  const std::size_t levels = cols.levels;

  // Frontier check: the cached trajectory was built on cols.floor. Progress
  // shrinks remaining work and slack together, so floors are usually
  // stable between supply epochs; any movement means phase 1 itself would
  // differ and the caller must re-solve.
  scratch.floor.resize(cols.count);
  soa::floor_scan_rows(cols.slowdown.data(), levels, cols.remaining.data(),
                       cols.deadline.data(), now_s, cols.count,
                       scratch.floor.data());
  for (std::size_t r = 0; r < cols.count; ++r)
    if (scratch.floor[r] != cols.floor[r]) return false;

  // Where along the canonical greedy trajectory does this budget stop?
  // A fresh solve stops at the first state whose demand fits under the
  // wind (or when the heap runs dry). compute is non-increasing along the
  // log and rounding is monotone, so "fits" is monotone in the state
  // index: binary search replaces the walk.
  std::size_t target = 0;
  bool extend = false;
  if (wind_avail.raw() > 0.0 &&
      wind_avail >= inc.floor_compute * cooling_factor_) {
    if (inc.compute0 * cooling_factor_ > wind_avail) {
      std::size_t lo = 0;
      std::size_t hi = inc.log.size();
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (inc.log[mid].compute_after * cooling_factor_ <= wind_avail)
          hi = mid;
        else
          lo = mid + 1;
      }
      if (lo < inc.log.size()) {
        target = lo + 1;
      } else {
        // Even the deepest materialized state is over budget: replay to
        // the end, then keep popping the preserved heap live. If the
        // caching solve never built the heap (its phase 2 was gated
        // off), there is nothing to pop from -- full solve instead.
        if (!inc.heap_built) return false;
        target = inc.log.size();
        extend = true;
      }
    }
  }

  // Re-position the cursor: undo in reverse order, redo in log order (a
  // task stepped several times restores through the same intermediate
  // levels a fresh solve would assign).
  while (inc.cursor > target) {
    const IncrementalMatchState::AppliedStep& s = inc.log[--inc.cursor];
    cols.level[s.task] = s.to_level + 1;
  }
  while (inc.cursor < target) {
    const IncrementalMatchState::AppliedStep& s = inc.log[inc.cursor++];
    cols.level[s.task] = s.to_level;
  }
  Watts compute =
      (target == 0) ? inc.compute0 : inc.log[target - 1].compute_after;

  if (extend) {
    // inc.heap is the down-step heap as of state log.size() -- exactly
    // what a fresh solve holds there, since the pop/push sequence up to
    // any state is wind-independent. Continue the canonical greedy,
    // appending to the log so the deeper states are materialized for
    // later epochs.
    auto push_step = [&](std::size_t r) {
      const std::size_t l = cols.level[r];
      if (l == 0 || l <= cols.floor[r]) return;
      const Watts saving = Watts{cols.power[r * levels + l]} -
                           Watts{cols.power[r * levels + l - 1]};
      inc.heap.push_back(MatchScratch::Step{saving, r, l - 1});
      std::push_heap(inc.heap.begin(), inc.heap.end(), StepLess{});
    };
    while (compute * cooling_factor_ > wind_avail && !inc.heap.empty()) {
      std::pop_heap(inc.heap.begin(), inc.heap.end(), StepLess{});
      const MatchScratch::Step step = inc.heap.back();
      inc.heap.pop_back();
      if (cols.level[step.task] != step.to_level + 1) continue;
      cols.level[step.task] = step.to_level;
      compute -= step.saving;
      inc.log.push_back(IncrementalMatchState::AppliedStep{
          step.saving, compute, step.task, step.to_level});
      push_step(step.task);
    }
    inc.cursor = inc.log.size();
  }

  out.compute = compute;
  out.demand = compute * cooling_factor_;
  out.steps = inc.cursor;
  return true;
}

MatchResult PowerMatcher::match_reference(std::vector<ActiveTask>& tasks,
                                          Watts wind_avail,
                                          double now_s) const {
  ISCOPE_CHECK_ARG(wind_avail.raw() >= 0.0, "PowerMatcher: negative wind");

  MatchResult result;
  if (tasks.empty()) return result;

  // Phase 1: energy-optimal deadline-feasible baseline.
  std::vector<std::size_t> floor(tasks.size());
  Watts compute;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    floor[i] = min_feasible_level(tasks[i], now_s);
    tasks[i].level = energy_optimal_level(tasks[i], floor[i]);
    compute += task_power(tasks[i], tasks[i].level);
  }

  // Phase 2: fit under the wind budget with greedy best-saving down-steps.
  // Stretching only pays when the budget is actually reachable: if even the
  // all-floors demand exceeds the wind, slowing down just moves the same
  // (utility-supplied) work later -- run the energy-optimal baseline
  // instead and wait for wind.
  Watts floor_compute;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    floor_compute += task_power(tasks[i], floor[i]);
  if (wind_avail.raw() > 0.0 && wind_avail >= floor_compute * cooling_factor_) {
    using Step = MatchScratch::Step;
    std::priority_queue<Step, std::vector<Step>, StepLess> heap;
    auto push_step = [&](std::size_t i) {
      const std::size_t l = tasks[i].level;
      if (l == 0 || l <= floor[i]) return;
      const Watts saving =
          task_power(tasks[i], l) - task_power(tasks[i], l - 1);
      heap.push(Step{saving, i, l - 1});
    };
    for (std::size_t i = 0; i < tasks.size(); ++i) push_step(i);

    while (compute * cooling_factor_ > wind_avail && !heap.empty()) {
      const Step step = heap.top();
      heap.pop();
      // At most one live entry per task (re-pushed after applying), so a
      // level mismatch marks a stale entry.
      if (tasks[step.task].level != step.to_level + 1) continue;
      tasks[step.task].level = step.to_level;
      compute -= step.saving;
      ++result.steps;
      push_step(step.task);
    }
  }

  result.compute = compute;
  result.demand = compute * cooling_factor_;
  return result;
}

}  // namespace iscope
