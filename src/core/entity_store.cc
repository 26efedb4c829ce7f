#include "core/entity_store.h"

#include <algorithm>
#include <utility>
#include <cassert>
#include <unordered_map>

#include "graph/algorithms.h"
#include "strsim/comparator.h"

namespace snaps {

namespace {

void AddValues(EntityCluster* cluster, const Record& record) {
  for (int i = 0; i < kNumAttrs; ++i) {
    const std::string& v = record.values[i];
    if (v.empty()) continue;
    auto& list = cluster->values[i];
    if (std::find(list.begin(), list.end(), v) == list.end()) {
      list.push_back(v);
    }
  }
}

}  // namespace

EntityStore::EntityStore(const Dataset* dataset, LinkConstraints constraints)
    : dataset_(dataset), constraints_(std::move(constraints)) {
  const size_t n = dataset_->num_records();
  entity_of_.resize(n);
  clusters_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    entity_of_[i] = static_cast<EntityId>(i);
    EntityCluster& c = clusters_[i];
    c.alive = true;
    c.records.push_back(static_cast<RecordId>(i));
    c.profile = ClusterProfile::Empty();
    const Record& rec = dataset_->record(static_cast<RecordId>(i));
    constraints_.AddRecord(&c.profile, rec);
    AddValues(&c, rec);
  }
}

bool EntityStore::CanLink(RecordId a, RecordId b) const {
  const EntityId ea = entity_of_[a];
  const EntityId eb = entity_of_[b];
  if (ea == eb) return true;  // Already same entity.
  return constraints_.CanMerge(clusters_[ea].profile, clusters_[eb].profile);
}

EntityId EntityStore::Link(RelNodeId node, RecordId a, RecordId b,
                           DependencyGraph* graph) {
  EntityId ea = entity_of_[a];
  EntityId eb = entity_of_[b];
  graph->mutable_rel_node(node).merged = true;
  if (ea == eb) {
    clusters_[ea].links.push_back(node);
    return ea;
  }
  // Merge the smaller cluster into the larger.
  if (clusters_[ea].records.size() < clusters_[eb].records.size()) {
    std::swap(ea, eb);
  }
  EntityCluster& keep = clusters_[ea];
  EntityCluster& drop = clusters_[eb];
  for (RecordId r : drop.records) {
    entity_of_[r] = ea;
    keep.records.push_back(r);
    const Record& rec = dataset_->record(r);
    constraints_.AddRecord(&keep.profile, rec);
    AddValues(&keep, rec);
  }
  keep.links.insert(keep.links.end(), drop.links.begin(), drop.links.end());
  keep.links.push_back(node);
  keep.version++;
  drop = EntityCluster();  // alive = false.
  return ea;
}

void EntityStore::RemoveLinksAndSplit(EntityId id,
                                      const std::vector<RelNodeId>& to_drop,
                                      DependencyGraph* graph) {
  EntityCluster cluster = std::move(clusters_[id]);
  clusters_[id] = EntityCluster();  // alive = false for now.

  // Mark dropped links unmerged and remove them from the link set.
  std::vector<RelNodeId> kept_links;
  kept_links.reserve(cluster.links.size());
  for (RelNodeId l : cluster.links) {
    if (std::find(to_drop.begin(), to_drop.end(), l) != to_drop.end()) {
      graph->mutable_rel_node(l).merged = false;
    } else {
      kept_links.push_back(l);
    }
  }

  // Split into connected components of the remaining links.
  std::unordered_map<RecordId, size_t> local;
  local.reserve(cluster.records.size());
  for (size_t i = 0; i < cluster.records.size(); ++i) {
    local[cluster.records[i]] = i;
  }
  SmallGraph sg(cluster.records.size());
  for (RelNodeId l : kept_links) {
    const RelationalNode& n = graph->rel_node(l);
    sg.AddEdge(local[n.rec_a], local[n.rec_b]);
  }
  size_t num_components = 0;
  const std::vector<size_t> comp = sg.ConnectedComponents(&num_components);

  // Reuse the original slot for component 0; new slots for the rest.
  std::vector<EntityId> slots(num_components);
  slots[0] = id;
  for (size_t c = 1; c < num_components; ++c) {
    slots[c] = static_cast<EntityId>(clusters_.size());
    clusters_.emplace_back();
  }
  for (size_t c = 0; c < num_components; ++c) {
    clusters_[slots[c]].alive = true;
  }
  for (size_t i = 0; i < cluster.records.size(); ++i) {
    const EntityId e = slots[comp[i]];
    clusters_[e].records.push_back(cluster.records[i]);
    entity_of_[cluster.records[i]] = e;
  }
  for (RelNodeId l : kept_links) {
    const RelationalNode& n = graph->rel_node(l);
    clusters_[entity_of_[n.rec_a]].links.push_back(l);
  }
  for (size_t c = 0; c < num_components; ++c) {
    RebuildProfile(&clusters_[slots[c]]);
  }
}

std::vector<EntityId> EntityStore::NonSingletonEntities() const {
  std::vector<EntityId> out;
  for (size_t i = 0; i < clusters_.size(); ++i) {
    if (clusters_[i].alive && clusters_[i].records.size() >= 2) {
      out.push_back(static_cast<EntityId>(i));
    }
  }
  return out;
}

std::vector<EntityId> EntityStore::AllEntities() const {
  std::vector<EntityId> out;
  for (size_t i = 0; i < clusters_.size(); ++i) {
    if (clusters_[i].alive) out.push_back(static_cast<EntityId>(i));
  }
  return out;
}

size_t EntityStore::NumMergedEntities() const {
  size_t n = 0;
  for (const EntityCluster& c : clusters_) {
    if (c.alive && c.records.size() >= 2) ++n;
  }
  return n;
}

std::vector<EntityStore::RawCluster> EntityStore::ExportClusters() const {
  std::vector<RawCluster> out;
  out.reserve(clusters_.size());
  for (const EntityCluster& c : clusters_) {
    out.push_back(RawCluster{c.records, c.links, c.version, c.alive});
  }
  return out;
}

std::unique_ptr<EntityStore> EntityStore::Restore(
    const Dataset* dataset, LinkConstraints constraints,
    std::vector<EntityId> entity_of, std::vector<RawCluster> clusters) {
  auto store = std::make_unique<EntityStore>(dataset, std::move(constraints));
  store->entity_of_ = std::move(entity_of);
  store->clusters_.assign(clusters.size(), EntityCluster());
  for (size_t i = 0; i < clusters.size(); ++i) {
    EntityCluster& c = store->clusters_[i];
    c.records = std::move(clusters[i].records);
    c.links = std::move(clusters[i].links);
    c.alive = clusters[i].alive;
    // Refold profile and value lists in record order (identical to the
    // incremental maintenance), then pin the snapshot's version stamp
    // so PROP-A cache invalidation behaves exactly as before the
    // checkpoint.
    c.profile = ClusterProfile::Empty();
    for (RecordId r : c.records) {
      const Record& rec = dataset->record(r);
      store->constraints_.AddRecord(&c.profile, rec);
      AddValues(&c, rec);
    }
    c.version = clusters[i].version;
  }
  return store;
}

void EntityStore::RebuildProfile(EntityCluster* cluster) const {
  cluster->profile = ClusterProfile::Empty();
  for (auto& list : cluster->values) list.clear();
  cluster->version++;
  for (RecordId r : cluster->records) {
    const Record& rec = dataset_->record(r);
    constraints_.AddRecord(&cluster->profile, rec);
    AddValues(cluster, rec);
  }
}

bool ComputePropPlan(const Dataset& dataset, const Schema& schema,
                     const EntityStore& entities, const RelationalNode& node,
                     PropPlan* plan) {
  const EntityCluster& ca = entities.cluster(entities.entity_of(node.rec_a));
  const EntityCluster& cb = entities.cluster(entities.entity_of(node.rec_b));
  if (ca.records.size() == 1 && cb.records.size() == 1) return false;
  const Record& rec_a = dataset.record(node.rec_a);
  const Record& rec_b = dataset.record(node.rec_b);
  for (Attr attr : schema.SimilarityAttrs()) {
    const size_t ai = static_cast<size_t>(attr);
    double best = node.base_sims[ai];
    const std::string* best_a = nullptr;
    const std::string* best_b = nullptr;
    // As in the paper's example (Section 4.2.1): compare one record's
    // own value against the propagated value set of the *other*
    // record's entity, in both directions. The record value anchors
    // one side, so two polluted clusters cannot pair foreign values.
    // Scans are bounded for robustness against degenerate clusters.
    constexpr size_t kMaxScan = 8;
    auto scan = [&](const std::string& anchor,
                    const std::vector<std::string>& others,
                    bool anchor_is_a) {
      if (anchor.empty()) return;
      const size_t limit = std::min(others.size(), kMaxScan);
      for (size_t i = 0; i < limit; ++i) {
        const double sim = CompareValues(schema.comparator(attr), anchor,
                                         others[i], schema.comparator_params);
        if (sim > best) {
          best = sim;
          best_a = anchor_is_a ? &anchor : &others[i];
          best_b = anchor_is_a ? &others[i] : &anchor;
        }
      }
    };
    scan(rec_a.value(attr), cb.values[ai], /*anchor_is_a=*/true);
    scan(rec_b.value(attr), ca.values[ai], /*anchor_is_a=*/false);
    plan->best[ai] = best;
    plan->best_a[ai] = best_a;
    plan->best_b[ai] = best_b;
  }
  plan->changed = true;
  return true;
}

void ApplyPropPlan(const Schema& schema, double atomic_threshold,
                   const PropPlan& plan, RelNodeId id, DependencyGraph* graph) {
  RelationalNode& node = graph->mutable_rel_node(id);
  for (Attr attr : schema.SimilarityAttrs()) {
    const size_t ai = static_cast<size_t>(attr);
    node.raw_sims[ai] = static_cast<float>(plan.best[ai]);
    if (plan.best_a[ai] != nullptr && plan.best[ai] >= atomic_threshold) {
      node.atomic[ai] = graph->InternAtomicNode(attr, *plan.best_a[ai],
                                                *plan.best_b[ai],
                                                plan.best[ai]);
    }
  }
}

}  // namespace snaps
