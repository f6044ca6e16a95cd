#include "src/traffic/oracle_detour.h"

namespace rap::traffic {

DetourEngine make_detour_engine(const graph::RoadNetwork& net,
                                graph::NodeId shop,
                                std::span<const TrafficFlow> /*flows*/) {
  DetourEngine built;
  built.engine = net.num_nodes() <= DetourEnginePolicy{}.dijkstra_node_limit
                     ? "dijkstra"
                     : "alt";
  built.detours = std::make_shared<const DetourCalculator>(net, shop);
  return built;
}

}  // namespace rap::traffic
