// All-pairs shortest-path distances. The paper's complexity analysis charges
// O(|V|^3) for this step; we run |V| Dijkstras (O(|V| (|E| + |V|) log |V|)),
// which is never worse on sparse road networks, and keep a Floyd–Warshall
// reference implementation for cross-checking in tests.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "src/graph/road_network.h"

namespace rap::graph {

/// Hard ceiling on dense-matrix construction. 16384^2 doubles is 2 GiB —
/// the largest allocation that is still plausibly intentional; anything
/// bigger OOM-kills small machines long before the |V| Dijkstras finish.
/// Metro-scale detour pricing never needs the matrix: it runs from the
/// shop's two Dijkstra trees (traffic::DetourCalculator).
inline constexpr std::size_t kDenseNodeLimit = 16384;

/// Structured failure for an over-limit dense matrix: thrown *before* the
/// n^2 allocation so callers fail fast instead of dying in the allocator.
class DenseLimitError : public std::runtime_error {
 public:
  DenseLimitError(std::size_t nodes, std::size_t limit);

  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t limit() const noexcept { return limit_; }

 private:
  std::size_t nodes_;
  std::size_t limit_;
};

/// Dense |V| x |V| distance matrix.
class DistanceMatrix {
 public:
  /// Throws DenseLimitError when `n > node_limit` — before allocating.
  /// Callers with a measured budget may pass their own limit; 0 means
  /// "no limit" (tests of the boundary itself).
  explicit DistanceMatrix(std::size_t n,
                          std::size_t node_limit = kDenseNodeLimit)
      : n_((check_dense_limit(n, node_limit), n)), dist_(n * n, 0.0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] double operator()(NodeId from, NodeId to) const {
    check(from, to);
    return dist_[from * n_ + to];
  }
  void set(NodeId from, NodeId to, double value) {
    check(from, to);
    dist_[from * n_ + to] = value;
  }

  /// Full row `from` (distances from one source to everything).
  [[nodiscard]] std::span<const double> row(NodeId from) const {
    check_row(from);
    return {dist_.data() + from * n_, n_};
  }

  /// Writable row `from`; rows are disjoint, so concurrent writers to
  /// different rows are race-free (how the parallel APSP fills the matrix).
  [[nodiscard]] std::span<double> mutable_row(NodeId from) {
    check_row(from);
    return {dist_.data() + from * n_, n_};
  }

 private:
  void check(NodeId from, NodeId to) const {
    if (from >= n_ || to >= n_) {
      throw std::out_of_range("DistanceMatrix: bad node id");
    }
  }
  // Row accessors validate only the row index: `check(from, 0)` would also
  // demand a valid column 0, which rejects every row of an empty matrix for
  // the wrong reason and muddles the `from == n_` boundary.
  void check_row(NodeId from) const {
    if (from >= n_) {
      throw std::out_of_range("DistanceMatrix: bad row id");
    }
  }

  // Throws DenseLimitError when n exceeds the limit (limit 0 = unlimited).
  static void check_dense_limit(std::size_t n, std::size_t node_limit);

  std::size_t n_;
  std::vector<double> dist_;
};

/// APSP via repeated Dijkstra (production path).
[[nodiscard]] DistanceMatrix all_pairs_shortest_paths(const RoadNetwork& net);

/// APSP via Floyd–Warshall (O(|V|^3); test oracle).
[[nodiscard]] DistanceMatrix floyd_warshall(const RoadNetwork& net);

}  // namespace rap::graph
