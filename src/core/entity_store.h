#ifndef SNAPS_CORE_ENTITY_STORE_H_
#define SNAPS_CORE_ENTITY_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "graph/dependency_graph.h"

namespace snaps {

using EntityId = uint32_t;
inline constexpr EntityId kInvalidEntityId = 0xffffffffu;

/// A resolved entity: a cluster of records (R_o, Section 3) plus the
/// merged relational nodes (links) that hold it together, and the
/// cached constraint profile.
struct EntityCluster {
  std::vector<RecordId> records;
  std::vector<RelNodeId> links;
  ClusterProfile profile;
  /// Distinct non-empty attribute values over the cluster's records,
  /// per attribute. Kept up to date on merge/split so PROP-A can scan
  /// value pairs instead of record pairs.
  std::array<std::vector<std::string>, kNumAttrs> values;
  /// Incremented whenever the cluster's membership changes; lets
  /// cached per-node propagation results be invalidated cheaply.
  uint32_t version = 0;
  bool alive = false;
};

/// Manages the record clusters produced by bootstrapping and merging.
/// Every record starts in a singleton cluster; linking two records
/// (accepting a relational node) unions their clusters; the REF step
/// can drop links again, splitting clusters into the connected
/// components of their remaining links.
class EntityStore {
 public:
  EntityStore(const Dataset* dataset, LinkConstraints constraints);

  /// Entity currently containing `record`.
  EntityId entity_of(RecordId record) const { return entity_of_[record]; }

  const EntityCluster& cluster(EntityId id) const { return clusters_[id]; }

  /// Whether accepting this link keeps the constraints satisfied
  /// (PROP-C at the entity level: if the two records already belong to
  /// clusters, the merged cluster is validated).
  bool CanLink(RecordId a, RecordId b) const;

  /// Accepts a merged relational node: unions the two records'
  /// clusters and remembers the link. Caller must have checked
  /// CanLink. Returns the surviving entity id.
  EntityId Link(RelNodeId node, RecordId a, RecordId b,
                DependencyGraph* graph);

  /// Removes a set of links from one entity and splits it into the
  /// connected components of the remaining links. The affected
  /// relational nodes are marked unmerged in `graph`.
  void RemoveLinksAndSplit(EntityId id, const std::vector<RelNodeId>& to_drop,
                           DependencyGraph* graph);

  /// Ids of all live clusters with at least 2 records.
  std::vector<EntityId> NonSingletonEntities() const;

  /// Ids of all live clusters (including singletons) -- every record
  /// is in exactly one.
  std::vector<EntityId> AllEntities() const;

  /// Number of live clusters with >= 2 records.
  size_t NumMergedEntities() const;

  const Dataset& dataset() const { return *dataset_; }

  const LinkConstraints& constraints() const { return constraints_; }

  /// Checkpoint support (PipelineRunner): the portable part of one
  /// cluster's state. Profiles and value lists are not exported; they
  /// refold deterministically from `records` in order, because Link
  /// appends records and folds profiles/values in exactly that order.
  struct RawCluster {
    std::vector<RecordId> records;
    std::vector<RelNodeId> links;
    uint32_t version = 0;
    bool alive = false;
  };

  std::vector<RawCluster> ExportClusters() const;
  const std::vector<EntityId>& raw_entity_of() const { return entity_of_; }

  /// Rebuilds a store from exported state. `entity_of` and `clusters`
  /// must come from ExportClusters/raw_entity_of of a store over the
  /// same dataset; profiles and values are refolded, versions restored
  /// verbatim.
  static std::unique_ptr<EntityStore> Restore(
      const Dataset* dataset, LinkConstraints constraints,
      std::vector<EntityId> entity_of, std::vector<RawCluster> clusters);

 private:
  /// Recomputes a cluster's profile from scratch.
  void RebuildProfile(EntityCluster* cluster) const;

  const Dataset* dataset_;
  LinkConstraints constraints_;
  std::vector<EntityId> entity_of_;     // Per record.
  std::vector<EntityCluster> clusters_;
};

/// The outcome of one PROP-A computation (Section 4.2.1) for a
/// relational node: the recomputed raw similarity per attribute, plus
/// the value pair to intern when a better-than-base pair at or above
/// t_a was found. Splitting the computation (pure, parallelisable)
/// from its application (mutates the node and interns atomic nodes,
/// sequential) is what lets the SNAPS engine's pass-start refresh fan
/// out while staying byte-identical for any thread count.
struct PropPlan {
  /// False: both records are still singletons and the node is left
  /// untouched.
  bool changed = false;
  std::array<double, kNumAttrs> best;
  /// Non-null: a cluster value pair beat the records' own values.
  /// Points at record values or entity cluster value lists, both
  /// stable for the lifetime of the plan (no merges happen between
  /// compute and apply).
  std::array<const std::string*, kNumAttrs> best_a;
  std::array<const std::string*, kNumAttrs> best_b;

  PropPlan() {
    best.fill(-1.0);
    best_a.fill(nullptr);
    best_b.fill(nullptr);
  }
};

/// PROP-A, compute half: finds, per similarity attribute, the best-
/// matching value pair between the two records' entities. Reads the
/// node, entity store and dataset but mutates nothing — safe to run
/// concurrently for distinct nodes. Returns `plan->changed`. Shared by
/// the SNAPS engine (which gates it on the first-name similarity) and
/// the Dep-Graph baseline.
bool ComputePropPlan(const Dataset& dataset, const Schema& schema,
                     const EntityStore& entities, const RelationalNode& node,
                     PropPlan* plan);

/// PROP-A, apply half: writes the recomputed raw similarities and
/// rewires the node's atomic edges for value pairs at or above
/// `atomic_threshold`. Interning allocates atomic-node ids, so
/// applications must happen sequentially in a fixed order.
void ApplyPropPlan(const Schema& schema, double atomic_threshold,
                   const PropPlan& plan, RelNodeId id, DependencyGraph* graph);

}  // namespace snaps

#endif  // SNAPS_CORE_ENTITY_STORE_H_
