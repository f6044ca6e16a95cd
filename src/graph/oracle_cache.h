// Sparse per-flow distance cache: a bounded (from, to) -> distance map so a
// flow only ever pays for the O(path-length) distances it actually queries,
// instead of an n^2 matrix.
//
// Determinism contract: cached values are pure functions of their keys (the
// shortest-path fixpoint the backing oracle returns), so *what* a lookup
// returns never depends on insertion order, thread count, or eviction
// history — only whether the value is recomputed. Eviction is a full
// generation flush at capacity: the boundary depends only on the number of
// distinct keys inserted, never on timing.
//
// Thread safety: every method is safe to call concurrently (one mutex; the
// critical sections are a hash probe). Stats counters are updated under the
// same mutex and are exact.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "src/graph/road_network.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rap::graph {

/// No pricing path builds one any more (DESIGN.md §13); the class is kept
/// because the frozen benchmark harness (perfbench/) still reads
/// `DetourEngine::cache->stats()`, and that field is always null.
class SparseDistanceCache {
 public:
  /// Exact accounting since construction. hits + misses == lookups.
  /// evictions counts entries dropped by generation flushes; flushes counts
  /// the flush events themselves.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t flushes = 0;
  };

  /// `max_entries == 0` disables storage entirely (every lookup misses,
  /// inserts are dropped) — the knob for measuring the uncached baseline.
  explicit SparseDistanceCache(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  SparseDistanceCache(const SparseDistanceCache&) = delete;
  SparseDistanceCache& operator=(const SparseDistanceCache&) = delete;

  /// True (and writes `*out`) on a hit. Also bumps the ambient
  /// graph.oracle.cache.{hits,misses} counter for the calling thread.
  [[nodiscard]] bool lookup(NodeId from, NodeId to, double* out)
      RAP_EXCLUDES(mutex_);

  /// Stores a value; at capacity the whole generation is flushed first
  /// (bumping graph.oracle.cache.evictions by the dropped count).
  void insert(NodeId from, NodeId to, double value) RAP_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const RAP_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const RAP_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

  /// ~16 doubles+keys per metro-flow path node; 2^20 entries is 16 MiB of
  /// payload — small next to any dense matrix the cache replaces.
  static constexpr std::size_t kDefaultMaxEntries = std::size_t{1} << 20;

 private:
  static std::uint64_t key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) |
           static_cast<std::uint64_t>(to);
  }

  std::size_t max_entries_;
  mutable util::Mutex mutex_;
  std::unordered_map<std::uint64_t, double> map_ RAP_GUARDED_BY(mutex_);
  Stats stats_ RAP_GUARDED_BY(mutex_);
};

}  // namespace rap::graph
