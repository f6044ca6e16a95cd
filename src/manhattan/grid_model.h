// CoverageModel over the ideal grid scenario: a RAP at node v reaches a
// flow iff v lies inside the flow's bounding rectangle (route-aware reach).
// Lets Algorithms 1/2, the exhaustive optimum and the baselines run on the
// Section IV world unchanged.
#pragma once

#include <span>

#include "src/core/problem.h"
#include "src/manhattan/grid_scenario.h"

namespace rap::manhattan {

class GridCoverageModel final : public core::CoverageModel {
 public:
  /// `scenario`, `flows` and `utility` must outlive the model. Runs under
  /// the obs span "incidence_index".
  GridCoverageModel(const GridScenario& scenario,
                    std::span<const GridFlow> flows,
                    const traffic::UtilityFunction& utility);

  [[nodiscard]] const GridScenario& scenario() const noexcept {
    return *scenario_;
  }
  [[nodiscard]] std::span<const GridFlow> flows() const noexcept {
    return flows_;
  }

 private:
  const GridScenario* scenario_;
  std::span<const GridFlow> flows_;
};

}  // namespace rap::manhattan
