// Whole-run golden digest shared by the scheduling table
// (match_digests.inc) and the thermal table (thermal_digests.inc): a
// 64-bit FNV-1a over every SimResult field, trace sample and timeline
// event (doubles by bit pattern, sizes as 64-bit words). Two runs with
// equal digests are, with overwhelming probability, bit-identical.
#pragma once

#include <cstdint>

#include "fnv1a.hpp"
#include "sim/metrics.hpp"

namespace iscope {

inline std::uint64_t result_digest(const SimResult& r) {
  Fnv1a h;
  h.real(r.energy.wind.joules());
  h.real(r.energy.utility.joules());
  h.real(r.cost.raw());
  h.real(r.wind_curtailed.joules());
  h.real(r.battery_delivered.joules());
  h.real(r.battery_losses.joules());
  h.real(r.cooling_energy.joules());
  h.real(r.idle_energy.joules());
  h.real(r.peak_inlet_c);
  h.word(r.sleep_enters);
  h.word(r.sleep_wakes);
  h.word(r.tasks_completed);
  h.word(r.deadline_misses);
  h.real(r.mean_wait.seconds());
  h.real(r.makespan.seconds());
  h.real(r.busy_variance_h2);
  h.real(r.procs_used_fraction);
  h.word(r.dvfs_rematch_count);
  h.word(r.events_processed);
  h.word(r.profiling_procs_scanned);
  h.word(r.profiling_procs_skipped);
  h.real(r.profiling_proc_seconds);
  h.word(r.faults.cpu_failures);
  h.word(r.faults.cpu_repairs);
  h.word(r.faults.misprofile_failures);
  h.word(r.faults.task_requeues);
  h.word(r.faults.tasks_failed);
  h.real(r.faults.lost_cpu_seconds);
  h.word(r.faults.fault_deadline_misses);
  h.word(r.busy_time_s.size());
  for (const double b : r.busy_time_s) h.real(b);
  h.word(r.trace.size());
  for (const PowerSample& s : r.trace) {
    h.real(s.time.seconds());
    h.real(s.demand.watts());
    h.real(s.wind.watts());
    h.real(s.utility.watts());
    h.real(s.wind_avail.watts());
    h.real(s.battery.watts());
  }
  h.word(r.timeline.size());
  for (const TimelineEvent& e : r.timeline) {
    h.real(e.time_s);
    h.word(static_cast<std::uint64_t>(e.kind));
    h.word(static_cast<std::uint64_t>(e.task_id));
    h.real(e.value);
  }
  return h.value();
}

}  // namespace iscope
