// Micro-benchmarks for the algorithmic kernels: CSR assembly, modularity
// evaluation, one Louvain sweep (hash-map baseline, the flat
// ScatterAccumulator reference and the segmented kernel the engines use),
// coarsening, and the generators feeding the table harnesses.
//
// Besides the usual Google-Benchmark mode, `--pr3_json=<path>` switches to a
// self-timed run that writes the machine-readable perf trail committed as
// BENCH_PR3.json: per-kernel ns/op plus a distributed run's sweep time
// breakdown (see docs/PERFORMANCE.md). Knobs: `--pr3_scale=N` (RMAT scale,
// default 16), `--pr3_reps=N` (best-of repetitions, default 5),
// `--pr3_dist_scale=N` (RMAT scale for the breakdown run, default 12).
//
// `--pr8_json=<path>` writes the BENCH_PR8.json trail: the kernel table
// grows the segmented sweep kernel (util/segmented.hpp) against the flat
// gather kernel, timed with interleaved reps. Knobs: `--pr8_scale=N`
// (default 16), `--pr8_reps=N` (default 5).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/world.hpp"
#include "core/dist_louvain.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"
#include "louvain/coarsen.hpp"
#include "louvain/modularity.hpp"
#include "louvain/serial.hpp"
#include "louvain/shared.hpp"
#include "util/scatter.hpp"
#include "util/segmented.hpp"

namespace {

using namespace dlouvain;

gen::GeneratedGraph bench_graph(std::int64_t n) {
  gen::Ssca2Params p;
  p.num_vertices = n;
  p.max_clique_size = 25;
  p.inter_clique_prob = 0.01;
  return gen::ssca2(p);
}

gen::GeneratedGraph rmat_graph(int scale) {
  gen::RmatParams p;
  p.scale = scale;
  p.edges_per_vertex = 8;
  p.seed = 42;
  return gen::rmat(p);
}

// ---- one local-move sweep: hash, flat and segmented kernels -----------------
// All three run the identical single-node sweep (the seed's serial inner
// loop): scan every vertex, accumulate neighbour-community weights, move to
// the best-gain community. The hash variant is the pre-PR3 unordered_map
// kernel and the flat variant the ScatterAccumulator kernel, both kept as
// reference baselines; the segmented variant is the SegmentedAccumulator +
// util::best_segment kernel serial.cpp/shared.cpp/dist_louvain.cpp use.
// Their outputs are identical (the argmax predicate is iteration-order
// independent), so `moved` doubles as a cross-check.

struct SweepInput {
  graph::Csr csr;
  std::vector<Weight> k;           ///< weighted degree per vertex
  std::vector<Weight> a_init;      ///< initial community degrees (= k)
  Weight m{0};                     ///< total edge weight
};

SweepInput make_sweep_input(const gen::GeneratedGraph& g) {
  SweepInput in;
  in.csr = graph::from_edges(g.num_vertices, g.edges);
  const auto n = static_cast<std::size_t>(in.csr.num_vertices());
  in.k.resize(n);
  for (VertexId v = 0; v < in.csr.num_vertices(); ++v)
    in.k[static_cast<std::size_t>(v)] = in.csr.weighted_degree(v);
  in.a_init = in.k;
  in.m = in.csr.total_arc_weight() / 2;
  return in;
}

std::int64_t sweep_hash(const SweepInput& in, std::vector<CommunityId>& curr,
                        std::vector<Weight>& a) {
  const VertexId n = in.csr.num_vertices();
  const Weight m = in.m;
  std::unordered_map<CommunityId, Weight> nbr_weight;
  std::int64_t moved = 0;
  for (VertexId v = 0; v < n; ++v) {
    const CommunityId own = curr[static_cast<std::size_t>(v)];
    const Weight kv = in.k[static_cast<std::size_t>(v)];
    nbr_weight.clear();
    for (const auto& e : in.csr.neighbors(v)) {
      if (e.dst == v) continue;
      nbr_weight[curr[static_cast<std::size_t>(e.dst)]] += e.weight;
    }
    const auto own_it = nbr_weight.find(own);
    const Weight e_own = own_it == nbr_weight.end() ? 0.0 : own_it->second;
    const Weight a_own_less_v = a[static_cast<std::size_t>(own)] - kv;
    CommunityId best = own;
    Weight best_gain = 0;
    for (const auto& [target, e_target] : nbr_weight) {
      if (target == own) continue;
      const Weight gain =
          (e_target - e_own) / m -
          kv * (a[static_cast<std::size_t>(target)] - a_own_less_v) / (2 * m * m);
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 && best != own && target < best)) {
        best = target;
        best_gain = gain;
      }
    }
    if (best != own) {
      a[static_cast<std::size_t>(own)] -= kv;
      a[static_cast<std::size_t>(best)] += kv;
      curr[static_cast<std::size_t>(v)] = best;
      ++moved;
    }
  }
  return moved;
}

std::int64_t sweep_flat(const SweepInput& in, std::vector<CommunityId>& curr,
                        std::vector<Weight>& a) {
  const VertexId n = in.csr.num_vertices();
  const Weight m = in.m;
  util::ScatterAccumulator<Weight> nbr_weight;
  std::int64_t moved = 0;
  for (VertexId v = 0; v < n; ++v) {
    const CommunityId own = curr[static_cast<std::size_t>(v)];
    const Weight kv = in.k[static_cast<std::size_t>(v)];
    nbr_weight.reset(n);
    for (const auto& e : in.csr.neighbors(v)) {
      if (e.dst == v) continue;
      nbr_weight.add(curr[static_cast<std::size_t>(e.dst)], e.weight);
    }
    const Weight e_own = nbr_weight.get(own);
    const Weight a_own_less_v = a[static_cast<std::size_t>(own)] - kv;
    CommunityId best = own;
    Weight best_gain = 0;
    for (const auto target : nbr_weight.touched()) {
      if (target == own) continue;
      const Weight e_target = nbr_weight.get(target);
      const Weight gain =
          (e_target - e_own) / m -
          kv * (a[static_cast<std::size_t>(target)] - a_own_less_v) / (2 * m * m);
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 && best != own && target < best)) {
        best = target;
        best_gain = gain;
      }
    }
    if (best != own) {
      a[static_cast<std::size_t>(own)] -= kv;
      a[static_cast<std::size_t>(best)] += kv;
      curr[static_cast<std::size_t>(v)] = best;
      ++moved;
    }
  }
  return moved;
}

/// The segmented kernel of the same sweep: arcs grouped by
/// destination-community segment in first-touch order, argmax via
/// util::best_segment. Bitwise identical to sweep_flat by construction --
/// `moved` doubles as the cross-check.
std::int64_t sweep_segmented(const SweepInput& in, std::vector<CommunityId>& curr,
                             std::vector<Weight>& a) {
  const VertexId n = in.csr.num_vertices();
  const Weight m = in.m;
  util::SegmentedAccumulator<Weight> nbr_weight;
  std::int64_t moved = 0;
  for (VertexId v = 0; v < n; ++v) {
    const CommunityId own = curr[static_cast<std::size_t>(v)];
    const Weight kv = in.k[static_cast<std::size_t>(v)];
    nbr_weight.reset(static_cast<std::size_t>(n));
    for (const auto& e : in.csr.neighbors(v)) {
      if (e.dst == v) continue;
      nbr_weight.add(curr[static_cast<std::size_t>(e.dst)], e.weight);
    }
    const Weight e_own = nbr_weight.sum_of(own);
    const Weight a_own_less_v = a[static_cast<std::size_t>(own)] - kv;
    const auto pick = util::best_segment(
        nbr_weight, nbr_weight.segment_of(own), e_own, a_own_less_v, kv, m, 1.0,
        [&](std::int64_t slot) { return a[static_cast<std::size_t>(slot)]; },
        [](std::int64_t slot) { return static_cast<CommunityId>(slot); });
    const CommunityId best =
        pick.segment >= 0
            ? nbr_weight.slots()[static_cast<std::size_t>(pick.segment)]
            : own;
    if (best != own) {
      a[static_cast<std::size_t>(own)] -= kv;
      a[static_cast<std::size_t>(best)] += kv;
      curr[static_cast<std::size_t>(v)] = best;
      ++moved;
    }
  }
  return moved;
}

/// Round-robin the kernels inside a single rep loop so every kernel samples
/// the same slice of host noise (on a shared vCPU, consecutive per-kernel rep
/// blocks can land in different steal/frequency windows and skew the ratios
/// by 30%+). Per-kernel minimum across reps, as in timed_sweep.
struct InterleavedKernel {
  std::int64_t (*sweep)(const SweepInput&, std::vector<CommunityId>&,
                        std::vector<Weight>&);
  double best_ns = 1e300;
  std::int64_t moved = 0;
};

void timed_sweep_interleaved(const SweepInput& in, int reps,
                             std::vector<InterleavedKernel>& kernels) {
  std::vector<CommunityId> curr(in.k.size());
  std::vector<Weight> a;
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& k : kernels) {
      std::iota(curr.begin(), curr.end(), CommunityId{0});
      a = in.a_init;
      const auto t0 = std::chrono::steady_clock::now();
      k.moved = k.sweep(in, curr, a);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
      if (ns < k.best_ns) k.best_ns = ns;
    }
  }
}

template <typename Sweep>
std::int64_t timed_sweep(const SweepInput& in, Sweep&& sweep, int reps,
                         double& best_ns) {
  std::vector<CommunityId> curr(in.k.size());
  std::vector<Weight> a;
  std::int64_t moved = 0;
  best_ns = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::iota(curr.begin(), curr.end(), CommunityId{0});
    a = in.a_init;
    const auto t0 = std::chrono::steady_clock::now();
    moved = sweep(in, curr, a);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (ns < best_ns) best_ns = ns;
  }
  return moved;
}

void BM_CsrBuild(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  for (auto _ : state) {
    auto csr = graph::from_edges(g.num_vertices, g.edges);
    benchmark::DoNotOptimize(csr);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g.edges.size()));
}
BENCHMARK(BM_CsrBuild)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_Modularity(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(louvain::modularity(csr, g.ground_truth));
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_Modularity)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_SerialLouvain(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    auto result = louvain::louvain_serial(csr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_SerialLouvain)->Arg(1000)->Arg(4000);

void BM_SharedLouvain(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    auto result = louvain::louvain_shared(csr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_SharedLouvain)->Arg(1000)->Arg(4000);

void BM_Coarsen(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    auto coarse = louvain::coarsen(csr, g.ground_truth);
    benchmark::DoNotOptimize(coarse);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_Coarsen)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_GenLfr(benchmark::State& state) {
  gen::LfrParams p;
  p.num_vertices = state.range(0);
  p.avg_degree = 20;
  p.max_degree = 60;
  p.mu = 0.3;
  for (auto _ : state) {
    auto g = gen::lfr(p);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GenLfr)->Arg(1000)->Arg(4000);

void BM_GenSsca2(benchmark::State& state) {
  for (auto _ : state) {
    auto g = bench_graph(state.range(0));
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GenSsca2)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_LocalMoveSweepHash(benchmark::State& state) {
  const auto in = make_sweep_input(rmat_graph(static_cast<int>(state.range(0))));
  std::vector<CommunityId> curr(in.k.size());
  std::vector<Weight> a;
  for (auto _ : state) {
    std::iota(curr.begin(), curr.end(), CommunityId{0});
    a = in.a_init;
    benchmark::DoNotOptimize(sweep_hash(in, curr, a));
  }
  state.SetItemsProcessed(state.iterations() * in.csr.num_arcs());
}
BENCHMARK(BM_LocalMoveSweepHash)->Arg(10)->Arg(12);

void BM_LocalMoveSweepFlat(benchmark::State& state) {
  const auto in = make_sweep_input(rmat_graph(static_cast<int>(state.range(0))));
  std::vector<CommunityId> curr(in.k.size());
  std::vector<Weight> a;
  for (auto _ : state) {
    std::iota(curr.begin(), curr.end(), CommunityId{0});
    a = in.a_init;
    benchmark::DoNotOptimize(sweep_flat(in, curr, a));
  }
  state.SetItemsProcessed(state.iterations() * in.csr.num_arcs());
}
BENCHMARK(BM_LocalMoveSweepFlat)->Arg(10)->Arg(12);

void BM_LocalMoveSweepSegmented(benchmark::State& state) {
  const auto in = make_sweep_input(rmat_graph(static_cast<int>(state.range(0))));
  std::vector<CommunityId> curr(in.k.size());
  std::vector<Weight> a;
  for (auto _ : state) {
    std::iota(curr.begin(), curr.end(), CommunityId{0});
    a = in.a_init;
    benchmark::DoNotOptimize(sweep_segmented(in, curr, a));
  }
  state.SetItemsProcessed(state.iterations() * in.csr.num_arcs());
}
BENCHMARK(BM_LocalMoveSweepSegmented)->Arg(10)->Arg(12);

// ---- the BENCH_PR3.json emitter ---------------------------------------------

/// Best-of-`reps` kernel timings shared by the PR3 and PR8 emitters.
struct KernelNumbers {
  double hash_ns{0};
  double flat_ns{0};
  double coarsen_ns{0};
  std::int64_t moved{0};
};

bool measure_kernels(const SweepInput& in, int reps, KernelNumbers& out) {
  const auto hash_moved = timed_sweep(in, sweep_hash, reps, out.hash_ns);
  const auto flat_moved = timed_sweep(in, sweep_flat, reps, out.flat_ns);
  if (hash_moved != flat_moved) {
    std::cerr << "micro_kernels: hash and flat sweeps diverged (" << hash_moved
              << " vs " << flat_moved << " moves)\n";
    return false;
  }
  out.moved = flat_moved;
  out.coarsen_ns = 1e300;
  {
    // Coarsen by the sweep's resulting assignment (compacted ids).
    std::vector<CommunityId> curr(in.k.size());
    std::vector<Weight> a;
    std::iota(curr.begin(), curr.end(), CommunityId{0});
    a = in.a_init;
    sweep_flat(in, curr, a);
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      auto coarse = louvain::coarsen(in.csr, curr);
      benchmark::DoNotOptimize(coarse);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
      if (ns < out.coarsen_ns) out.coarsen_ns = ns;
    }
  }
  return true;
}

/// Emit the "graph"/"kernels"/"ratios" sections (the same keys as
/// BENCH_PR8.json so check_bench_regression.py can compare any pair of perf
/// trails kernel-by-kernel).
void emit_kernel_sections(std::ostream& out, const SweepInput& in, int scale,
                          int reps, const KernelNumbers& k) {
  const auto arcs = static_cast<double>(in.csr.num_arcs());
  out << "  \"graph\": {\"kind\": \"rmat\", \"scale\": " << scale
      << ", \"edges_per_vertex\": 8, \"seed\": 42, \"vertices\": "
      << in.csr.num_vertices() << ", \"arcs\": " << in.csr.num_arcs() << "},\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"kernels\": {\n"
      << "    \"local_move_hash\": {\"ns_per_op\": " << k.hash_ns
      << ", \"ns_per_arc\": " << k.hash_ns / arcs << ", \"moved\": " << k.moved
      << "},\n"
      << "    \"local_move_flat\": {\"ns_per_op\": " << k.flat_ns
      << ", \"ns_per_arc\": " << k.flat_ns / arcs << ", \"moved\": " << k.moved
      << "},\n"
      << "    \"coarsen_flat\": {\"ns_per_op\": " << k.coarsen_ns
      << ", \"ns_per_arc\": " << k.coarsen_ns / arcs << "}\n"
      << "  },\n"
      << "  \"ratios\": {\"local_move_hash_over_flat\": " << k.hash_ns / k.flat_ns
      << "},\n";
}

int run_pr3(const std::string& json_path, int scale, int reps, int dist_scale) {
  const auto g = rmat_graph(scale);
  const auto in = make_sweep_input(g);
  const auto arcs = static_cast<double>(in.csr.num_arcs());

  KernelNumbers kn;
  if (!measure_kernels(in, reps, kn)) return 1;

  // Distributed sweep breakdown (the telemetry split behind the paper's
  // Section V-A analysis), from a default-config run at a smaller scale.
  const auto gd = rmat_graph(dist_scale);
  const auto csrd = graph::from_edges(gd.num_vertices, gd.edges);
  core::TimeBreakdown breakdown;
  double dist_seconds = 0;
  comm::run(4, [&](comm::Comm& comm) {
    auto dist = graph::DistGraph::from_replicated(comm, csrd);
    core::DistConfig cfg;
    auto result = core::dist_louvain(comm, dist, cfg);
    if (comm.is_root()) {
      breakdown = result.breakdown;
      dist_seconds = result.seconds;
    }
  });

  std::ofstream out(json_path, std::ios::trunc);
  if (!out) {
    std::cerr << "micro_kernels: cannot open " << json_path << " for writing\n";
    return 1;
  }
  out.precision(17);
  out << "{\n"
      << "  \"bench\": \"micro_kernels.pr3\",\n";
  emit_kernel_sections(out, in, scale, reps, kn);
  out << "  \"dist_breakdown\": {\"ranks\": 4, \"scale\": " << dist_scale
      << ", \"seconds\": " << dist_seconds
      << ", \"ghost_exchange\": " << breakdown.ghost_exchange
      << ", \"community_info\": " << breakdown.community_info
      << ", \"compute\": " << breakdown.compute
      << ", \"delta_exchange\": " << breakdown.delta_exchange
      << ", \"allreduce\": " << breakdown.allreduce
      << ", \"rebuild\": " << breakdown.rebuild << "}\n"
      << "}\n";
  std::cout << "local_move_hash: " << kn.hash_ns / arcs << " ns/arc\n"
            << "local_move_flat: " << kn.flat_ns / arcs << " ns/arc\n"
            << "speedup:         " << kn.hash_ns / kn.flat_ns << "x\n"
            << "wrote " << json_path << '\n';
  return 0;
}

// ---- the BENCH_PR8.json emitter (segmented sweep kernel) --------------------

int run_pr8(const std::string& json_path, int scale, int reps) {
  const auto g = rmat_graph(scale);
  const auto in = make_sweep_input(g);
  const auto arcs = static_cast<double>(in.csr.num_arcs());

  // All three sweep kernels interleaved in one rep loop: the hash and flat
  // baselines and the segmented kernel sample the same host-noise window, so
  // the reported ratios reflect the kernels, not vCPU steal drift between
  // rep blocks. Same sweep, same moves -- any divergence is a kernel bug.
  std::vector<InterleavedKernel> iks(3);
  iks[0].sweep = sweep_hash;
  iks[1].sweep = sweep_flat;
  iks[2].sweep = sweep_segmented;
  timed_sweep_interleaved(in, reps, iks);

  KernelNumbers kn;
  kn.hash_ns = iks[0].best_ns;
  kn.flat_ns = iks[1].best_ns;
  kn.moved = iks[1].moved;
  const double segmented_ns = iks[2].best_ns;
  const auto segmented_moved = iks[2].moved;
  if (iks[0].moved != kn.moved || segmented_moved != kn.moved) {
    std::cerr << "micro_kernels: sweep kernels diverged (hash " << iks[0].moved
              << ", flat " << kn.moved << ", segmented " << segmented_moved
              << " moves)\n";
    return 1;
  }
  {
    // Coarsen by the sweep's resulting assignment (compacted ids).
    std::vector<CommunityId> curr(in.k.size());
    std::vector<Weight> a;
    std::iota(curr.begin(), curr.end(), CommunityId{0});
    a = in.a_init;
    sweep_flat(in, curr, a);
    kn.coarsen_ns = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      auto coarse = louvain::coarsen(in.csr, curr);
      benchmark::DoNotOptimize(coarse);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
      if (ns < kn.coarsen_ns) kn.coarsen_ns = ns;
    }
  }

  std::ofstream out(json_path, std::ios::trunc);
  if (!out) {
    std::cerr << "micro_kernels: cannot open " << json_path << " for writing\n";
    return 1;
  }
  out.precision(17);
  out << "{\n"
      << "  \"bench\": \"micro_kernels.pr8\",\n"
      << "  \"graph\": {\"kind\": \"rmat\", \"scale\": " << scale
      << ", \"edges_per_vertex\": 8, \"seed\": 42, \"vertices\": "
      << in.csr.num_vertices() << ", \"arcs\": " << in.csr.num_arcs() << "},\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"kernels\": {\n"
      << "    \"local_move_hash\": {\"ns_per_op\": " << kn.hash_ns
      << ", \"ns_per_arc\": " << kn.hash_ns / arcs << ", \"moved\": " << kn.moved
      << "},\n"
      << "    \"local_move_flat\": {\"ns_per_op\": " << kn.flat_ns
      << ", \"ns_per_arc\": " << kn.flat_ns / arcs << ", \"moved\": " << kn.moved
      << "},\n"
      << "    \"local_move_segmented\": {\"ns_per_op\": " << segmented_ns
      << ", \"ns_per_arc\": " << segmented_ns / arcs
      << ", \"moved\": " << segmented_moved << "},\n"
      << "    \"coarsen_flat\": {\"ns_per_op\": " << kn.coarsen_ns
      << ", \"ns_per_arc\": " << kn.coarsen_ns / arcs << "}\n"
      << "  },\n"
      << "  \"ratios\": {\"local_move_hash_over_flat\": " << kn.hash_ns / kn.flat_ns
      << ", \"flat_over_segmented\": " << kn.flat_ns / segmented_ns
      << ", \"flat_over_best_lane\": " << kn.flat_ns / segmented_ns << "}\n"
      << "}\n";

  std::cout << "local_move_flat:      " << kn.flat_ns / arcs << " ns/arc\n"
            << "local_move_segmented: " << segmented_ns / arcs << " ns/arc ("
            << kn.flat_ns / segmented_ns << "x over flat)\n"
            << "wrote " << json_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string pr3_path;
  std::string pr8_path;
  int scale = 16;
  int reps = 5;
  int dist_scale = 12;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pr3_json=", 0) == 0) {
      pr3_path = arg.substr(std::strlen("--pr3_json="));
    } else if (arg.rfind("--pr8_json=", 0) == 0) {
      pr8_path = arg.substr(std::strlen("--pr8_json="));
    } else if (arg.rfind("--pr3_scale=", 0) == 0) {
      scale = std::stoi(arg.substr(std::strlen("--pr3_scale=")));
    } else if (arg.rfind("--pr8_scale=", 0) == 0) {
      scale = std::stoi(arg.substr(std::strlen("--pr8_scale=")));
    } else if (arg.rfind("--pr3_reps=", 0) == 0) {
      reps = std::stoi(arg.substr(std::strlen("--pr3_reps=")));
    } else if (arg.rfind("--pr8_reps=", 0) == 0) {
      reps = std::stoi(arg.substr(std::strlen("--pr8_reps=")));
    } else if (arg.rfind("--pr3_dist_scale=", 0) == 0) {
      dist_scale = std::stoi(arg.substr(std::strlen("--pr3_dist_scale=")));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!pr3_path.empty()) return run_pr3(pr3_path, scale, reps, dist_scale);
  if (!pr8_path.empty()) return run_pr8(pr8_path, scale, reps);

  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
