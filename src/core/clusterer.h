#ifndef SNAPS_CORE_CLUSTERER_H_
#define SNAPS_CORE_CLUSTERER_H_

#include <utility>
#include <vector>

#include "blocking/blocker.h"
#include "core/er_config.h"
#include "data/dataset.h"
#include "util/execution_context.h"

namespace snaps {

/// Result of one clustering run: the entity label per record plus the
/// run's statistics (phase timings and counters, Table 5 style).
/// Labels are canonical — each cluster is labelled by its smallest
/// record id (CanonicalizeClusterLabels) — so two runs cluster
/// identically iff their `cluster_of` vectors are byte-identical,
/// which is exactly the determinism check the ablation harness does.
struct ClustererResult {
  std::vector<uint32_t> cluster_of;  // Per record, canonical labels.
  ErStats stats;

  /// All record pairs co-resident in a cluster, ordered
  /// (first < second), sorted — the input of pairwise evaluation.
  std::vector<std::pair<RecordId, RecordId>> MatchedPairs() const;
};

/// Relabels a cluster assignment in place to its canonical form:
/// every record's label becomes the smallest record id sharing its
/// cluster. Idempotent; any two assignments inducing the same
/// partition map to the same canonical vector.
void CanonicalizeClusterLabels(std::vector<uint32_t>* cluster_of);

/// Interface of a clustering technique: turn a data set plus the
/// blocked candidate pairs into entity clusters. Concrete techniques
/// (the SNAPS dependency-graph pipeline, the Dep-Graph baseline,
/// agglomerative hierarchical clustering, relational clustering) live
/// in src/baselines/ and are registered by name in
/// baselines/clusterer_registry.h; code outside
/// src/blocking/ and src/baselines/ goes through the registry only.
///
/// Determinism contract (docs/PARALLELISM.md): Cluster() must return
/// a byte-identical ClustererResult::cluster_of for any thread count
/// of `exec` (timings in `stats` naturally vary).
class Clusterer {
 public:
  virtual ~Clusterer() = default;

  /// Registry name of the concrete technique ("graph", "hier", ...).
  virtual const char* name() const = 0;

  /// Clusters the records of `dataset` using the candidate pairs
  /// produced by a Blocker over the same data set.
  virtual ClustererResult Cluster(const Dataset& dataset,
                                  const std::vector<CandidatePair>& candidates,
                                  const ExecutionContext& exec) const = 0;
};

}  // namespace snaps

#endif  // SNAPS_CORE_CLUSTERER_H_
