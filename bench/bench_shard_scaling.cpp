// Shard-scaling curve: one ScanFair run over the hyperscale preset
// (ISCOPE_HYPERSCALE_PROCS CPUs, default 102 400), sharded per
// ISCOPE_SHARDS / ISCOPE_SHARD_WORKERS. `tasks done` is the
// scheduling-outcome counter and must be identical across shard counts,
// while events/rematches grow with the per-shard epoch bookkeeping
// (DESIGN.md Sec. 12).
#include "bench_util.hpp"

int main() {
  using namespace iscope;
  bench::print_banner("Scaling", "ScanFair on the hyperscale preset, sharded");

  const std::size_t procs =
      bench::env_count("ISCOPE_HYPERSCALE_PROCS", 102'400);
  ExperimentConfig cfg = ExperimentConfig::hyperscale(procs);
  cfg.sim.topology.shards = env_shards();
  cfg.sim.shard_workers = env_shard_workers();
  std::cout << "### hyperscale: procs=" << cfg.cluster.num_processors
            << " jobs=" << cfg.workload.num_jobs
            << " shards=" << cfg.sim.topology.shards
            << " shard_workers=" << cfg.sim.shard_workers << "\n";

  const ExperimentContext ctx(cfg);
  const std::vector<Task> tasks = ctx.make_tasks(cfg.urgency.hu_fraction);
  const HybridSupply supply = ctx.make_supply(true);

  bench::run_bench([&] {
    const SimResult r = ctx.run(Scheme::kScanFair, tasks, supply);

    TextTable table;
    table.set_header({"shards", "tasks done", "events", "rematches",
                      "utility kWh", "wind kWh", "cost USD"});
    table.add_row({std::to_string(cfg.sim.topology.shards),
                   std::to_string(r.tasks_completed),
                   std::to_string(r.events_processed),
                   std::to_string(r.dvfs_rematch_count),
                   TextTable::num(r.energy.utility.kwh(), 1),
                   TextTable::num(r.energy.wind.kwh(), 1),
                   TextTable::num(r.cost.dollars(), 2)});
    table.print(std::cout);
  });
}
