// Ablation for the ghost exchange (paper Section VI: MPI-3 neighbourhood
// collectives). The exchange runs over the sparse neighbourhood topology and
// ships only changed entries; this harness shows what that topology saves
// against a dense all-to-all without running one. Both message counts are
// computed from the partition: one ghost exchange sends sum_r
// |neighbor_ranks(r)| messages sparse and p * (p - 1) dense, so the saving
// is largest on spatially local graphs (banded meshes, where each rank
// borders about two others) and vanishes when every rank borders every
// other. One real run per row reports the ghost bytes shipped and the
// modularity reached.
#include <iostream>

#include "bench/harness.hpp"
#include "comm/world.hpp"
#include "core/dist_louvain.hpp"
#include "graph/csr.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const auto rank_list = cli.get_int_list("ranks", {4, 8, 16}, "rank counts");
  const double scale = cli.get_double("scale", 0.5, "surrogate size multiplier");
  if (!cli.finish()) return 1;

  bench::banner("Ablation: neighbourhood collective vs dense all-to-all ghost exchange",
                "paper Section VI: 'we are considering neighborhood collective "
                "operations introduced in MPI-3'",
                "messages per ghost exchange from the partition's topology, ghost "
                "bytes and modularity of one run, surrogates at scale " +
                    util::TextTable::fmt(scale, 2));

  util::TextTable table({"graph", "ranks", "avg rank degree", "msgs/exchange (sparse)",
                         "msgs/exchange (dense)", "reduction", "ghost bytes",
                         "modularity"});

  for (const std::string name : {"channel", "soc-friendster"}) {
    const auto csr = bench::surrogate_csr(name, scale);
    for (const auto p : rank_list) {
      std::int64_t sparse = 0;
      std::int64_t ghost_bytes = 0;
      double modularity = 0;
      comm::run(static_cast<int>(p), [&](comm::Comm& comm) {
        auto dist = graph::DistGraph::from_replicated(comm, csr);
        const auto total = comm.allreduce_sum<std::int64_t>(
            static_cast<std::int64_t>(dist.neighbor_ranks().size()));
        auto result = core::dist_louvain(comm, dist, core::DistConfig{});
        if (comm.is_root()) {
          sparse = total;
          ghost_bytes = result.counters[util::Counter::kGhostBytesDelta];
          modularity = result.modularity;
        }
      });
      const std::int64_t dense = p * (p - 1);
      table.add_row({name, util::TextTable::fmt(p),
                     util::TextTable::fmt(static_cast<double>(sparse) / static_cast<double>(p), 1),
                     util::TextTable::fmt(sparse), util::TextTable::fmt(dense),
                     util::TextTable::fmt(100.0 * (1.0 - static_cast<double>(sparse) /
                                                             static_cast<double>(dense)),
                                          1) +
                         "%",
                     util::TextTable::fmt(ghost_bytes), util::TextTable::fmt(modularity, 6)});
    }
  }
  table.print(std::cout);
  return 0;
}
