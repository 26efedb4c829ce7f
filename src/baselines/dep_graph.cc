#include "baselines/dep_graph.h"

#include <queue>
#include <utility>

#include "core/entity_store.h"
#include "core/graph_builder.h"
#include "core/similarity.h"
#include "util/timer.h"

namespace snaps {

DepGraphClusterer::DepGraphClusterer(DepGraphConfig config)
    : config_(std::move(config)) {}

Result<DepGraphClusterer> DepGraphClusterer::Create(DepGraphConfig config) {
  if (Result<void> v = config.er.Validate(); !v.ok()) return v.status();
  return DepGraphClusterer(std::move(config));
}

ClustererResult DepGraphClusterer::Cluster(
    const Dataset& dataset, const std::vector<CandidatePair>& candidates,
    const ExecutionContext& exec) const {
  const ErConfig& cfg = config_.er;
  Timer total_timer;
  ClustererResult result;
  EntityStore entities(&dataset, LinkConstraints(cfg.temporal));

  DependencyGraph graph;
  BuildDependencyGraphFromCandidates(dataset, cfg, candidates, &graph,
                                     &result.stats, exec);
  const SimilarityModel model(&dataset, &cfg.schema, cfg.gamma);

  // Node-at-a-time greedy merging: a priority queue ordered by the
  // node's own atomic similarity (no disambiguation component). After
  // a merge, the node's relationship neighbours are refreshed with
  // propagated values and requeued (the Dong et al. dependency
  // propagation).
  struct Entry {
    double sim;
    RelNodeId id;
    bool operator<(const Entry& o) const {
      if (sim != o.sim) return sim < o.sim;
      return id > o.id;
    }
  };
  std::priority_queue<Entry> queue;
  for (RelNodeId id = 0; id < graph.num_rel_nodes(); ++id) {
    RelationalNode& node = graph.mutable_rel_node(id);
    node.similarity = model.AtomicSimilarity(graph, node);
    if (node.similarity >= cfg.merge_threshold) {
      queue.push(Entry{node.similarity, id});
    }
  }

  Timer merge_timer;
  while (!queue.empty()) {
    const Entry top = queue.top();
    queue.pop();
    RelationalNode& node = graph.mutable_rel_node(top.id);
    if (node.merged) continue;
    if (top.sim != node.similarity) continue;  // Stale entry.
    if (node.similarity < cfg.merge_threshold) continue;
    if (cfg.enable_prop_c && !entities.CanLink(node.rec_a, node.rec_b)) {
      continue;
    }
    entities.Link(top.id, node.rec_a, node.rec_b, &graph);
    result.stats.num_merged_nodes++;

    // Dependency propagation (PROP-A, without the engine's first-name
    // gate) to relationship neighbours.
    for (const RelEdge& e : node.neighbors) {
      RelationalNode& nb = graph.mutable_rel_node(e.target);
      if (nb.merged) continue;
      PropPlan plan;
      if (ComputePropPlan(dataset, cfg.schema, entities, nb, &plan)) {
        ApplyPropPlan(cfg.schema, cfg.atomic_threshold, plan, e.target,
                      &graph);
      }
      const double s = model.AtomicSimilarity(graph, nb);
      if (s != nb.similarity) {
        nb.similarity = s;
        if (s >= cfg.merge_threshold) queue.push(Entry{s, e.target});
      }
    }
  }
  result.stats.merge_seconds = merge_timer.ElapsedSeconds();
  result.stats.num_entities = entities.NumMergedEntities();
  result.cluster_of = entities.raw_entity_of();
  CanonicalizeClusterLabels(&result.cluster_of);
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace snaps
