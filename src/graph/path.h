// Path utilities: validation, length, prefix sums of the distance travelled,
// used to compute the paper's d''' (remaining distance to the destination
// along the driver's route).
#pragma once

#include <span>
#include <vector>

#include "src/graph/road_network.h"

namespace rap::graph {

/// True if consecutive nodes are joined by an edge in the network.
[[nodiscard]] bool is_walk(const RoadNetwork& net, std::span<const NodeId> path);

/// Total length of the walk, summed in path order in the same pass that
/// checks it; throws std::invalid_argument if `path` is not a walk or is
/// empty. A single node has length 0. When parallel edges exist the shortest
/// one is charged.
[[nodiscard]] double path_length(const RoadNetwork& net,
                                 std::span<const NodeId> path);

/// cumulative[i] = distance travelled from path.front() to path[i];
/// cumulative.back() == path_length(path). Throws std::invalid_argument if
/// `path` is not a walk or is empty.
[[nodiscard]] std::vector<double> cumulative_lengths(
    const RoadNetwork& net, std::span<const NodeId> path);

/// cumulative_lengths written into `out` (out.size() == path.size(), else
/// std::invalid_argument). One pass: each hop's edge lookup is also its walk
/// check, so a non-walk throws std::invalid_argument part-way, leaving
/// `out` partly written.
void cumulative_lengths_into(const RoadNetwork& net,
                             std::span<const NodeId> path,
                             std::span<double> out);

/// True if the walk's length equals the shortest-path distance between its
/// endpoints (within a 1e-9 relative tolerance).
[[nodiscard]] bool is_shortest_path(const RoadNetwork& net,
                                    std::span<const NodeId> path);

}  // namespace rap::graph
