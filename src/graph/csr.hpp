// Compressed-sparse-row graph storage (paper Section IV: "We use the
// compressed sparse row (CSR) format to store the vertex and edge lists").
//
// A Csr holds `num_vertices` rows; row v lists the arcs leaving v. Undirected
// graphs are stored symmetrically (both arc directions present), so the total
// arc weight equals 2m in the modularity formulas.
#pragma once

#include <span>
#include <vector>

#include "util/parallel.hpp"
#include "util/types.hpp"

namespace dlouvain::graph {

class Csr {
 public:
  Csr() = default;

  /// Construct from prebuilt arrays. offsets.size() must be n+1 and
  /// offsets.back() must equal edges.size().
  Csr(VertexId num_vertices, std::vector<EdgeId> offsets, std::vector<HalfEdge> edges);

  [[nodiscard]] VertexId num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] EdgeId num_arcs() const noexcept {
    return static_cast<EdgeId>(edges_.size());
  }

  /// Arcs leaving v (v is a row index in [0, num_vertices)).
  [[nodiscard]] std::span<const HalfEdge> neighbors(VertexId v) const {
    const auto lo = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    const auto hi = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {edges_.data() + lo, hi - lo};
  }

  /// Unweighted out-degree of row v.
  [[nodiscard]] EdgeId degree(VertexId v) const {
    return offsets_[static_cast<std::size_t>(v) + 1] - offsets_[static_cast<std::size_t>(v)];
  }

  /// Weighted out-degree of row v (k_v in the modularity formulas; self-loop
  /// weight counts twice, matching the adjacency-matrix convention where a
  /// self loop contributes A_vv = 2w).
  [[nodiscard]] Weight weighted_degree(VertexId v) const;

  /// Sum of all arc weights; equals 2m for a symmetric graph with self loops
  /// pre-doubled at build time.
  [[nodiscard]] Weight total_arc_weight() const;

  [[nodiscard]] const std::vector<EdgeId>& offsets() const noexcept { return offsets_; }
  [[nodiscard]] const std::vector<HalfEdge>& edges() const noexcept { return edges_; }

 private:
  VertexId num_vertices_{0};
  std::vector<EdgeId> offsets_{0};
  std::vector<HalfEdge> edges_;
};

/// Options for assembling a Csr from an arc soup.
struct BuildOptions {
  /// Add the reverse of every non-loop arc (input is an undirected edge list).
  bool symmetrize{true};
};

/// The one CSR row builder under every graph build (build_csr / from_edges,
/// louvain::coarsen and DistGraph::build). Arcs arrive as the concatenation
/// of `parts` in order; with `symmetrize`, each non-loop arc (u, v, w) is
/// followed by its reverse (v, u, w). Arc (u, v) lands in row u - first_row,
/// which must lie in [0, num_rows), and v must lie in [0, dst_bound);
/// otherwise std::out_of_range is thrown. Rows are local and destinations
/// keep their own id space, so a rank's slice uses first_row = its first
/// owned id and dst_bound = the global vertex count.
///
/// Each row comes out sorted by dst with parallel arcs coalesced into one,
/// and the summation order of the coalesced weights is defined: arrival
/// order, left to right, ((w1 + w2) + w3) + ... This is the contract the
/// bitwise goldens rest on. Self loops are kept as one arc each.
///
/// Work: one degree count, a prefix sum, a scatter into rows in arrival
/// order, then an independent per-row sort + coalesce (stable insertion sort
/// for short rows; hubs coalesce through a hash table first and then sort
/// their distinct arcs, O(d + d' log d')). `pool` (optional) threads the
/// per-row pass and the final compaction; the result is identical at any
/// thread count.
Csr build_rows(VertexId first_row, VertexId num_rows, VertexId dst_bound,
               std::span<const std::vector<Edge>> parts, bool symmetrize,
               util::ThreadPool* pool = nullptr);

/// Build a CSR over vertex ids [0, num_vertices) from an arbitrary arc list
/// (build_rows with one part and rows = destinations = [0, num_vertices)).
/// Arcs with endpoints outside the range throw std::out_of_range.
///
/// Self loops: a self loop (u,u,w) is stored as ONE arc whose weight is
/// counted twice by weighted_degree(), so modularity arithmetic sees the
/// conventional A_uu = 2w. (Coarsening and rebuild create these.)
Csr build_csr(VertexId num_vertices, const std::vector<Edge>& arcs,
              const BuildOptions& opts = {});

/// Undirected edge list -> symmetric CSR (build_csr with symmetrize on), so
/// duplicate edges, in either orientation, sum in input order.
Csr from_edges(VertexId num_vertices, const std::vector<Edge>& undirected_edges);

}  // namespace dlouvain::graph
