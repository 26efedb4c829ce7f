#ifndef SNAPS_BASELINES_CLUSTERER_REGISTRY_H_
#define SNAPS_BASELINES_CLUSTERER_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/dep_graph.h"
#include "baselines/hierarchical_clusterer.h"
#include "baselines/rel_cluster.h"
#include "core/clusterer.h"
#include "core/er_config.h"
#include "util/status.h"

namespace snaps {

/// Names a clustering technique plus the per-technique
/// configurations; only the configuration of the named technique is
/// consulted and validated. Built-in names: "graph" (the SNAPS
/// pipeline, the default), "depgraph" (the Dep-Graph baseline), "hier"
/// (agglomerative hierarchical record clustering) and "relcluster"
/// (collective relational clustering).
struct ClustererSpec {
  std::string name = "graph";
  ErConfig graph;
  DepGraphConfig depgraph;
  HierarchicalConfig hier;
  RelClusterConfig relcluster;

  /// The name must be registered and the named technique's config
  /// must pass its own Validate(); unknown names fail with a message
  /// listing the registered names.
  Result<void> Validate() const;
};

/// Factory of one registered technique: builds a clusterer from the
/// spec (reading its own config field), rejecting invalid configs.
using ClustererFactory =
    std::function<Result<std::unique_ptr<Clusterer>>(const ClustererSpec&)>;

/// Registers (or replaces) a technique under `name`. Built-ins are
/// pre-registered; tests and experiments can add their own.
void RegisterClusterer(const std::string& name, ClustererFactory factory);

/// Builds the clusterer named by `spec`. Fails with the unknown-name
/// listing or the technique's own config validation error.
Result<std::unique_ptr<Clusterer>> CreateClusterer(const ClustererSpec& spec);

/// All registered names, sorted (for error messages, --help output
/// and the conformance test sweep).
std::vector<std::string> RegisteredClustererNames();

}  // namespace snaps

#endif  // SNAPS_BASELINES_CLUSTERER_REGISTRY_H_
