#include "src/manhattan/grid_model.h"

#include <algorithm>
#include <vector>

#include "src/obs/telemetry.h"

namespace rap::manhattan {

GridCoverageModel::GridCoverageModel(const GridScenario& scenario,
                                     std::span<const GridFlow> flows,
                                     const traffic::UtilityFunction& utility)
    : CoverageModel(scenario.city().network(), utility, scenario.shop_node()),
      scenario_(&scenario),
      flows_(flows) {
  const obs::Span span("incidence_index");
  const citygen::GridCity& city = scenario.city();
  std::vector<std::uint32_t> flow_start(flows_.size() + 1, 0);
  std::vector<traffic::FlowStop> stops;
  for (traffic::FlowIndex f = 0; f < flows_.size(); ++f) {
    const GridFlow& flow = flows_[f];
    const std::size_t col_lo = std::min(flow.entry.col, flow.exit.col);
    const std::size_t col_hi = std::max(flow.entry.col, flow.exit.col);
    const std::size_t row_lo = std::min(flow.entry.row, flow.exit.row);
    const std::size_t row_hi = std::max(flow.entry.row, flow.exit.row);
    for (std::size_t row = row_lo; row <= row_hi; ++row) {
      for (std::size_t col = col_lo; col <= col_hi; ++col) {
        const citygen::GridCoord coord{col, row};
        stops.push_back(
            {city.node_at(coord), 0, scenario.detour_at(coord, flow.exit)});
      }
    }
    flow_start[f + 1] = static_cast<std::uint32_t>(stops.size());
  }
  assemble(flows_, flow_start, stops);
}

}  // namespace rap::manhattan
