// Crash-safe on-disk scenario store: memory-mapped segments keyed by
// scenario content.
//
// Building a ServeScenario is the expensive part of serving a load request
// — city generation or CSV parsing, map matching, and the shop's two
// Dijkstras. The store persists everything that pass produces, so a
// restarted server REHYDRATES its LRU cache from disk instead of
// recomputing: the road network (positions + edges), the flow set (paths
// included — no map matching), the shop, and the shop's two shortest-path
// distance arrays d'/d'' (no Dijkstras). Rebuilding a scenario from a
// segment costs one mmap plus the O(total path nodes) incidence index —
// placements on a rehydrated scenario are bitwise identical to placements
// on a freshly built one (tests/serve/store_test.cpp holds this).
//
// Segment format ("rap.store.v1", tools/rap_serve --store-dir):
//   <dir>/<%016x key>.rseg
//   SegmentHeader (fixed size, magic "RAPSEG1\n", format version, payload
//   byte count + FNV-1a 64 checksum, scalar scenario fields) followed by a
//   packed payload:
//     positions   num_nodes x { f64 x, f64 y }
//     edges       num_edges x { u32 from, u32 to, f64 length }
//     to_shop     num_nodes x f64     (d' — distance v -> shop)
//     from_shop   num_nodes x f64     (d'' — distance shop -> v)
//     flows       per flow: u32 origin, u32 destination, f64 vehicles,
//                 f64 passengers_per_vehicle, f64 alpha, u64 path_len,
//                 path_len x u32 path nodes
//     strings     summary, engine name, utility name (raw bytes)
// The content key IS the index: the directory of *.rseg files is the
// content-keyed lookup structure, and the filename must match the header
// key. Writes are crash-safe by construction — serialize to <name>.tmp,
// fsync, rename over the final name, fsync the directory — so a segment is
// either fully present and checksum-valid or invisible; torn writes are
// detected on load (magic/version/size/checksum) and counted as corrupt,
// never crashed on. Loads mmap the segment read-only and parse straight
// out of the mapping.
//
// Versioning: bump kStoreFormatVersion on any layout change; loaders
// reject other versions (counted corrupt), so a downgraded server treats
// new-format segments as absent and rebuilds — never misreads.
//
// Detours are priced from the shop's d'/d'' arrays, which are O(n) and
// fully determine every detour, including detours of flows added later by
// deltas — so every built scenario is persisted, whatever its engine
// label. put() skips only scenarios whose detour source is neither a
// DetourCalculator nor StoredDetours (counted in Stats::skipped).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/scenario_cache.h"
#include "src/traffic/detour.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rap::serve {

/// Current segment layout version (header field; see file comment).
inline constexpr std::uint64_t kStoreFormatVersion = 1;

/// Detour source rebuilt from a segment's stored d'/d'' arrays. Replicates
/// DetourCalculator's kAlongPath pricing bit-for-bit (same inputs, same
/// arithmetic), and — like the live calculator — prices ANY flow on the
/// network, so delta-added flows work on rehydrated scenarios. Safe for
/// concurrent use (const arrays, const network access).
class StoredDetours final : public traffic::DetourSource {
 public:
  /// `net` must outlive the source (the owning ServeScenario pins both).
  /// The arrays hold one distance per node; kUnreachable where
  /// disconnected.
  StoredDetours(const graph::RoadNetwork& net, std::vector<double> to_shop,
                std::vector<double> from_shop);

  [[nodiscard]] std::vector<double> detours_along_path(
      const traffic::TrafficFlow& flow) const override;

  [[nodiscard]] const std::vector<double>& to_shop() const noexcept {
    return to_shop_;
  }
  [[nodiscard]] const std::vector<double>& from_shop() const noexcept {
    return from_shop_;
  }

 private:
  const graph::RoadNetwork* net_;
  std::vector<double> to_shop_;    // d' per node
  std::vector<double> from_shop_;  // d'' per node
};

/// The persistent segment store. Thread-safe: transports and the stdio loop
/// may put/load concurrently (one internal mutex; segment IO is quick
/// relative to scenario builds).
class ScenarioStore {
 public:
  struct Stats {
    std::uint64_t persisted = 0;   ///< segments written by put()
    std::uint64_t skipped = 0;     ///< put() refusals (foreign detour source)
    std::uint64_t rehydrated = 0;  ///< scenarios rebuilt from segments
    std::uint64_t corrupt = 0;     ///< segments rejected by validation
    std::uint64_t io_errors = 0;   ///< write/rename/read failures
  };

  /// Opens (and creates, if needed) the store directory. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit ScenarioStore(std::string directory);

  /// Persists one built scenario under its content key. Returns true when a
  /// segment was written; false when the scenario's detour source is not
  /// persistable, the key is already stored, or IO failed (see stats()).
  bool put(const ServeScenario& scenario) RAP_EXCLUDES(mutex_);

  /// Rehydrates one scenario by content key. Returns nullptr when the key
  /// is absent or the segment fails validation (counted corrupt).
  [[nodiscard]] std::shared_ptr<const ServeScenario> load(std::uint64_t key)
      RAP_EXCLUDES(mutex_);

  /// Content keys of every segment on disk, sorted ascending — the
  /// deterministic rehydration order.
  [[nodiscard]] std::vector<std::uint64_t> keys() const;

  /// Rehydrates every segment into `cache` in sorted key order (the cache's
  /// own LRU budget applies). Returns the number of scenarios rehydrated.
  std::size_t rehydrate_into(ScenarioCache& cache);

  [[nodiscard]] Stats stats() const RAP_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

 private:
  [[nodiscard]] std::string segment_path(std::uint64_t key) const;

  std::string directory_;
  // Guards the counters AND serializes put()'s serialize-check-write-rename
  // sequence (two racing put()s for one key must not both pass the exists
  // check). load()/keys() read the filesystem lock-free: the atomic rename
  // makes a segment either fully visible or absent.
  mutable util::Mutex mutex_;
  Stats stats_ RAP_GUARDED_BY(mutex_);
};

}  // namespace rap::serve
