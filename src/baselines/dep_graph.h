#ifndef SNAPS_BASELINES_DEP_GRAPH_H_
#define SNAPS_BASELINES_DEP_GRAPH_H_

#include <vector>

#include "core/clusterer.h"
#include "core/er_config.h"
#include "data/dataset.h"
#include "util/status.h"

namespace snaps {

/// Configuration of the Dep-Graph baseline. It shares the SNAPS graph
/// construction, thresholds and the PROP-C toggle (`er.enable_prop_c`);
/// the blocking spec inside `er` is unused, since candidates come from
/// the caller's Blocker.
struct DepGraphConfig {
  ErConfig er;

  DepGraphConfig() {
    // Dep-Graph merges on the atomic similarity alone (no
    // disambiguation component), so its comparable operating point
    // sits above the SNAPS t_m; chosen via the sensitivity analysis.
    er.merge_threshold = 0.92;
  }
};

/// The Dep-Graph baseline (Section 10): a reference-reconciliation
/// style collective ER in the spirit of Dong, Halevy and Madhavan
/// (2005). Link decisions propagate through the dependency graph
/// (value changes and constraints, like PROP-A / PROP-C) but nodes
/// are merged one at a time by their own similarity: no ambiguity
/// component, no group-average REL handling of partial-match groups,
/// and no cluster refinement. Registered as "depgraph" in
/// baselines/clusterer_registry.h.
class DepGraphClusterer : public Clusterer {
 public:
  /// Unchecked construction over a known-good config; prefer Create()
  /// for configs assembled from user input or files.
  explicit DepGraphClusterer(DepGraphConfig config = DepGraphConfig());

  /// Validating factory: rejects any config whose `er` fails
  /// ErConfig::Validate().
  static Result<DepGraphClusterer> Create(DepGraphConfig config);

  const char* name() const override { return "depgraph"; }

  /// Graph construction over the candidates fans out over `exec`
  /// (BuildDependencyGraphFromCandidates); the node-at-a-time merge
  /// loop stays sequential, so the clustering is byte-identical for
  /// any thread count.
  ClustererResult Cluster(const Dataset& dataset,
                          const std::vector<CandidatePair>& candidates,
                          const ExecutionContext& exec) const override;

 private:
  DepGraphConfig config_;
};

}  // namespace snaps

#endif  // SNAPS_BASELINES_DEP_GRAPH_H_
