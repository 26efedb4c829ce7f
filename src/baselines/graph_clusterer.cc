#include "baselines/graph_clusterer.h"

#include <utility>

#include "core/er_engine.h"

namespace snaps {

GraphClusterer::GraphClusterer(ErConfig config) : config_(std::move(config)) {}

Result<GraphClusterer> GraphClusterer::Create(ErConfig config) {
  if (Result<void> v = config.Validate(); !v.ok()) return v.status();
  return GraphClusterer(std::move(config));
}

ClustererResult GraphClusterer::Cluster(
    const Dataset& dataset, const std::vector<CandidatePair>& candidates,
    const ExecutionContext& exec) const {
  return ErEngine(config_, exec)
      .ResolveFromCandidates(dataset, candidates)
      .Clusters();
}

}  // namespace snaps
