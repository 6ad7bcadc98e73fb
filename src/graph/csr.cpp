#include "graph/csr.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace dlouvain::graph {

Csr::Csr(VertexId num_vertices, std::vector<EdgeId> offsets, std::vector<HalfEdge> edges)
    : num_vertices_(num_vertices), offsets_(std::move(offsets)), edges_(std::move(edges)) {
  if (offsets_.size() != static_cast<std::size_t>(num_vertices_) + 1)
    throw std::invalid_argument("Csr: offsets must have num_vertices+1 entries");
  if (offsets_.back() != static_cast<EdgeId>(edges_.size()))
    throw std::invalid_argument("Csr: offsets.back() must equal edges.size()");
}

Weight Csr::weighted_degree(VertexId v) const {
  Weight k = 0;
  for (const auto& e : neighbors(v)) k += e.dst == v ? 2 * e.weight : e.weight;
  return k;
}

Weight Csr::total_arc_weight() const {
  Weight total = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) total += weighted_degree(v);
  return total;
}

namespace {

/// Rows up to this length sort by insertion and coalesce adjacent equal dst
/// (no allocation; linear on the already-sorted rows of a replicated CSR).
/// Longer rows -- RMAT hubs, coarse communities -- coalesce first through a
/// small open-addressing table and then sort only their distinct arcs.
constexpr std::size_t kInsertionSortMax = 32;

/// Sort one row by dst and merge arcs with equal dst into one whose weight
/// is their sum in arrival order. Returns the new row length.
std::size_t sort_and_coalesce(HalfEdge* row, std::size_t len) {
  std::size_t out = 0;
  if (len <= kInsertionSortMax) {
    // Stable insertion sort keeps equal dst in arrival order, then a
    // left-to-right coalesce of each run.
    for (std::size_t i = 1; i < len; ++i) {
      const HalfEdge arc = row[i];
      std::size_t j = i;
      for (; j > 0 && row[j - 1].dst > arc.dst; --j) row[j] = row[j - 1];
      row[j] = arc;
    }
    for (std::size_t i = 0; i < len; ++i) {
      if (out > 0 && row[out - 1].dst == row[i].dst) {
        row[out - 1].weight += row[i].weight;
      } else {
        row[out++] = row[i];
      }
    }
    return out;
  }

  // First arrival of each dst claims the next compacted slot (out <= i, so
  // the in-place write never overtakes the read); later arrivals add into
  // it. Sums therefore run in arrival order, and the distinct dsts left
  // behind sort without ties.
  std::size_t mask = 1;
  while (mask < 2 * len) mask <<= 1;
  std::vector<std::size_t> table(mask, len);  // slot index, len = empty
  --mask;
  for (std::size_t i = 0; i < len; ++i) {
    const HalfEdge arc = row[i];
    auto h = static_cast<std::size_t>(static_cast<std::uint64_t>(arc.dst) *
                                      0x9E3779B97F4A7C15ULL >> 32) & mask;
    while (table[h] != len && row[table[h]].dst != arc.dst) h = (h + 1) & mask;
    if (table[h] == len) {
      table[h] = out;
      row[out++] = arc;
    } else {
      row[table[h]].weight += arc.weight;
    }
  }
  std::sort(row, row + out, [](const HalfEdge& a, const HalfEdge& b) { return a.dst < b.dst; });
  return out;
}

}  // namespace

Csr build_rows(VertexId first_row, VertexId num_rows, VertexId dst_bound,
               std::span<const std::vector<Edge>> parts, bool symmetrize,
               util::ThreadPool* pool) {
  if (num_rows < 0 || dst_bound < 0)
    throw std::invalid_argument("build_rows: negative row count or dst bound");
  const auto rows = static_cast<std::size_t>(num_rows);

  // Visit every arc in arrival order as (row, dst, weight).
  const auto for_each_arc = [&](auto&& visit) {
    for (const auto& part : parts) {
      for (const Edge& e : part) {
        visit(e.src - first_row, e.dst, e.weight);
        if (symmetrize && e.src != e.dst) visit(e.dst - first_row, e.src, e.weight);
      }
    }
  };

  // Degree count (and range check), then the prefix sum into row offsets.
  std::vector<EdgeId> offsets(rows + 1, 0);
  for_each_arc([&](VertexId row, VertexId dst, Weight) {
    if (row < 0 || row >= num_rows || dst < 0 || dst >= dst_bound)
      throw std::out_of_range("build_rows: arc endpoint outside the row or dst range");
    ++offsets[static_cast<std::size_t>(row) + 1];
  });
  for (std::size_t r = 1; r <= rows; ++r) offsets[r] += offsets[r - 1];

  // Scatter into rows, preserving arrival order within each row.
  std::vector<HalfEdge> arcs(static_cast<std::size_t>(offsets.back()));
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for_each_arc([&](VertexId row, VertexId dst, Weight w) {
      arcs[static_cast<std::size_t>(cursor[static_cast<std::size_t>(row)]++)] = HalfEdge{dst, w};
    });
  }

  // Per-row sort + coalesce; rows are disjoint slices, so any thread count
  // produces the same bits.
  std::vector<EdgeId> kept(rows + 1, 0);
  util::parallel_for(pool, num_rows, [&](int, std::int64_t begin, std::int64_t end) {
    for (auto r = static_cast<std::size_t>(begin); r < static_cast<std::size_t>(end); ++r) {
      const auto lo = static_cast<std::size_t>(offsets[r]);
      const auto len = static_cast<std::size_t>(offsets[r + 1]) - lo;
      kept[r + 1] = static_cast<EdgeId>(sort_and_coalesce(arcs.data() + lo, len));
    }
  });
  for (std::size_t r = 1; r <= rows; ++r) kept[r] += kept[r - 1];
  if (kept.back() == offsets.back()) return Csr(num_rows, std::move(offsets), std::move(arcs));

  // Parallel arcs merged somewhere: compact the coalesced row prefixes into
  // an exactly sized array.
  std::vector<HalfEdge> compact(static_cast<std::size_t>(kept.back()));
  util::parallel_for(pool, num_rows, [&](int, std::int64_t begin, std::int64_t end) {
    for (auto r = static_cast<std::size_t>(begin); r < static_cast<std::size_t>(end); ++r) {
      const auto src = arcs.begin() + static_cast<std::ptrdiff_t>(offsets[r]);
      std::copy(src, src + (kept[r + 1] - kept[r]),
                compact.begin() + static_cast<std::ptrdiff_t>(kept[r]));
    }
  });
  return Csr(num_rows, std::move(kept), std::move(compact));
}

Csr build_csr(VertexId num_vertices, const std::vector<Edge>& arcs, const BuildOptions& opts) {
  return build_rows(0, num_vertices, num_vertices, std::span(&arcs, 1), opts.symmetrize);
}

Csr from_edges(VertexId num_vertices, const std::vector<Edge>& undirected_edges) {
  return build_csr(num_vertices, undirected_edges);
}

}  // namespace dlouvain::graph
