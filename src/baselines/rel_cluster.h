#ifndef SNAPS_BASELINES_REL_CLUSTER_H_
#define SNAPS_BASELINES_REL_CLUSTER_H_

#include <vector>

#include "core/clusterer.h"
#include "core/constraints.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "util/status.h"

namespace snaps {

/// The Rel-Cluster baseline (Section 10): collective relational
/// clustering in the spirit of Bhattacharya and Getoor (2007).
/// Clusters are greedily merged by a combined similarity
///   sim(c1,c2) = (1-alpha) * attr(c1,c2) + alpha * rel(c1,c2)
/// where attr is the ambiguity-weighted best record-pair similarity
/// and rel the Jaccard overlap of the neighbouring clusters (family
/// members on the same certificates). Ambiguity is modelled, but
/// there is no propagation of changed values, no partial-match-group
/// handling and no refinement.
struct RelClusterConfig {
  Schema schema = Schema::Default();
  TemporalConstraints temporal;
  double alpha = 0.25;           // Weight of the relational component.
  double gamma = 0.6;            // Attr-vs-ambiguity weight (Eq. 3).
  /// Threshold on the combined score. The relational Jaccard starts
  /// at zero (all neighbours are singletons), so the first merges are
  /// carried by (1-alpha)*attr alone; the threshold sits below the
  /// SNAPS t_m accordingly.
  double merge_threshold = 0.66;
  int max_iterations = 3;        // Re-evaluation rounds of the queue.
  /// Enforce the link constraints (cardinality, temporal, gender) on
  /// every merge; off is the ablation harness's constraint-free arm.
  bool use_constraints = true;

  /// alpha, gamma and merge_threshold finite and in [0,1],
  /// max_iterations >= 1.
  Result<void> Validate() const;
};

/// Registered as "relcluster" in baselines/clusterer_registry.h.
class RelClusterBaseline : public Clusterer {
 public:
  /// Unchecked construction over a known-good config; prefer Create()
  /// for configs assembled from user input or files.
  explicit RelClusterBaseline(RelClusterConfig config = RelClusterConfig());

  /// Validating factory: rejects any config failing
  /// RelClusterConfig::Validate().
  static Result<RelClusterBaseline> Create(RelClusterConfig config);

  const char* name() const override { return "relcluster"; }

  /// The per-pair attribute similarities (the bulk of the work) fan
  /// out over `exec`; the greedy merge loop stays sequential, so the
  /// result is byte-identical for any thread count.
  ClustererResult Cluster(const Dataset& dataset,
                          const std::vector<CandidatePair>& candidates,
                          const ExecutionContext& exec) const override;

 private:
  RelClusterConfig config_;
};

}  // namespace snaps

#endif  // SNAPS_BASELINES_REL_CLUSTER_H_
