#include "core/er_engine.h"

#include "core/graph_builder.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "util/timer.h"

namespace snaps {

ClustererResult ErResult::Clusters() const {
  ClustererResult result;
  result.stats = stats;
  result.cluster_of = entities->raw_entity_of();
  CanonicalizeClusterLabels(&result.cluster_of);
  return result;
}

std::vector<std::pair<RecordId, RecordId>> ErResult::MatchedPairs() const {
  return Clusters().MatchedPairs();
}

namespace {

/// True when `node`'s cached similarity was computed against the two
/// records' current clusters (same entities, same cluster versions).
bool SimilarityCacheFresh(const ErRunState& st, const RelationalNode& node) {
  const EntityId ea = st.entities->entity_of(node.rec_a);
  const EntityId eb = st.entities->entity_of(node.rec_b);
  return node.last_entity_a == ea && node.last_entity_b == eb &&
         node.last_version_a == st.entities->cluster(ea).version &&
         node.last_version_b == st.entities->cluster(eb).version;
}

/// PROP-A for the engine: the shared best-value scan
/// (ComputePropPlan), gated on the first name. Only name-anchored
/// pairs benefit from propagation: a pair whose Must attribute (first
/// name) already disagrees is not the changed-QID case PROP-A exists
/// for, and boosting its other attributes from cluster values would
/// let wrong merges reinforce themselves.
bool ComputeGatedPropPlan(const ErRunState& st, RelNodeId id, PropPlan* plan) {
  const RelationalNode& node = st.graph.rel_node(id);
  if (node.base_sims[static_cast<size_t>(Attr::kFirstName)] <
      static_cast<float>(st.config->atomic_threshold)) {
    return false;
  }
  return ComputePropPlan(*st.dataset, st.config->schema, *st.entities, node,
                         plan);
}

/// Recomputes the node's overall similarity and stamps the cache.
void FinishNodeRefresh(ErRunState& st, RelNodeId id) {
  RelationalNode& node = st.graph.mutable_rel_node(id);
  const EntityId ea = st.entities->entity_of(node.rec_a);
  const EntityId eb = st.entities->entity_of(node.rec_b);
  node.similarity =
      st.simmodel->NodeSimilarity(st.graph, node, st.config->enable_amb);
  node.last_entity_a = ea;
  node.last_entity_b = eb;
  node.last_version_a = st.entities->cluster(ea).version;
  node.last_version_b = st.entities->cluster(eb).version;
}

/// Recomputes and caches the similarity of one node (with PROP-A and
/// AMB applied according to the configuration). Skips the work when
/// neither record's cluster has changed since the last refresh.
double RefreshNodeSimilarity(ErRunState& st, RelNodeId id) {
  if (SimilarityCacheFresh(st, st.graph.rel_node(id))) {
    return st.graph.rel_node(id).similarity;
  }
  if (st.config->enable_prop_a) {
    PropPlan plan;
    if (ComputeGatedPropPlan(st, id, &plan)) {
      ApplyPropPlan(st.config->schema, st.config->atomic_threshold, plan, id,
                    &st.graph);
    }
  }
  FinishNodeRefresh(st, id);
  return st.graph.rel_node(id).similarity;
}

/// Pass-start bulk refresh: recomputes every stale active node before
/// the merge loop starts, fanning the pure PROP-A computations out
/// over the pool and applying the results sequentially in node order.
/// Entity clusters do not change during the batch, so each plan is a
/// pure function of pre-batch state and the applied result is
/// byte-identical for any thread count. The in-loop refresh then only
/// touches nodes whose clusters changed through this pass's merges.
void RefreshStaleNodes(ErRunState& st, const ExecutionContext& exec) {
  std::vector<RelNodeId> stale;
  const size_t num_nodes = st.graph.num_rel_nodes();
  for (RelNodeId id = 0; id < num_nodes; ++id) {
    const RelationalNode& node = st.graph.rel_node(id);
    if (node.merged || node.pruned) continue;
    if (SimilarityCacheFresh(st, node)) continue;
    stale.push_back(id);
  }
  // Batched so the in-flight plans (with their per-attribute value
  // pointers) stay bounded regardless of graph size.
  constexpr size_t kBatch = 16384;
  std::vector<PropPlan> plans(std::min(stale.size(), kBatch));
  const bool prop_a = st.config->enable_prop_a;
  exec.ParallelForOrdered(
      stale.size(), kBatch,
      [&](size_t k) {
        PropPlan& plan = plans[k % kBatch];
        plan = PropPlan();
        if (prop_a) ComputeGatedPropPlan(st, stale[k], &plan);
      },
      [&](size_t k) {
        const PropPlan& plan = plans[k % kBatch];
        if (plan.changed) {
          ApplyPropPlan(st.config->schema, st.config->atomic_threshold, plan,
                        stale[k], &st.graph);
        }
        FinishNodeRefresh(st, stale[k]);
      });
}

/// Merges every surviving node of a group (marks nodes merged and
/// links the records in the entity store). Nodes whose link has become
/// constraint-invalid in the meantime are skipped.
void MergeGroupNodes(ErRunState& st, const std::vector<RelNodeId>& nodes) {
  for (RelNodeId id : nodes) {
    RelationalNode& node = st.graph.mutable_rel_node(id);
    if (node.merged) continue;
    if (st.config->enable_prop_c &&
        !st.entities->CanLink(node.rec_a, node.rec_b)) {
      continue;
    }
    st.entities->Link(id, node.rec_a, node.rec_b, &st.graph);
    st.stats.num_merged_nodes++;
  }
}

/// Bootstrapping (Section 4.2.6): merge groups of at least two nodes
/// whose average atomic similarity reaches t_b. Constraints are
/// checked per node; the group must be conflict-free to bootstrap.
/// The per-group score sums are pure functions of the freshly built
/// graph and fan out over the pool; the merge decisions and merges
/// themselves run sequentially in group order, so the clustering is
/// byte-identical for any thread count.
void Bootstrap(ErRunState& st, const ExecutionContext& exec) {
  Timer timer;
  struct GroupScore {
    double total = 0.0;
    double ambiguity = 0.0;
  };
  const size_t num_groups = st.graph.num_groups();
  std::vector<GroupScore> scores(num_groups);
  exec.ParallelFor(num_groups, [&](size_t g) {
    const std::vector<RelNodeId>& members =
        st.graph.GroupMembers(static_cast<GroupId>(g));
    if (members.size() < 2) return;
    GroupScore& score = scores[g];
    for (RelNodeId id : members) {
      const RelationalNode& node = st.graph.rel_node(id);
      score.total += st.simmodel->AtomicSimilarity(st.graph, node);
      score.ambiguity +=
          st.simmodel->DisambiguationSimilarity(node.rec_a, node.rec_b);
    }
  });

  for (GroupId g = 0; g < num_groups; ++g) {
    // Cooperative cancellation: an expired deadline stops issuing new
    // bootstrap work (checked every 256 groups to keep clock reads off
    // the hot path).
    if ((g & 0xffu) == 0 && st.budget.exhausted()) {
      st.stats.truncated = true;
      break;
    }
    const std::vector<RelNodeId>& members = st.graph.GroupMembers(g);
    if (members.size() < 2) continue;
    bool ok = true;
    if (st.config->enable_prop_c) {
      for (RelNodeId id : members) {
        const RelationalNode& node = st.graph.rel_node(id);
        if (!st.entities->CanLink(node.rec_a, node.rec_b)) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) continue;
    const double denom = static_cast<double>(members.size());
    if (scores[g].total / denom < st.config->bootstrap_threshold) continue;
    // AMB at bootstrap time: ambiguous groups (common QID value
    // combinations) are left for the constraint- and relationship-
    // aware merging phase instead of being linked on name evidence
    // alone (Section 4.2.3: unique pairs are prioritised).
    if (st.config->enable_amb &&
        scores[g].ambiguity / denom < st.config->bootstrap_ambiguity_min) {
      continue;
    }
    MergeGroupNodes(st, members);
  }
  st.stats.bootstrap_seconds = timer.ElapsedSeconds();
}

/// One merging pass (Section 4.2.6): groups ordered larger-first,
/// then by higher average similarity, are processed; for each group
/// the REL loop drops constraint violators and the lowest-similarity
/// node until the group average reaches t_m, then merges. The queue
/// is a descending-sorted vector rather than a std::priority_queue:
/// nothing is pushed mid-loop, the visit order is the exact pop order
/// of the heap (the comparator totally orders entries via the group
/// tie-break), and iteration beats repeated heap pops.
void MergePass(ErRunState& st, const ExecutionContext& exec) {
  RefreshStaleNodes(st, exec);

  struct QueueEntry {
    size_t size;
    double avg_sim;
    GroupId group;
    bool operator<(const QueueEntry& o) const {
      if (size != o.size) return size < o.size;
      if (avg_sim != o.avg_sim) return avg_sim < o.avg_sim;
      return group < o.group;  // Deterministic tie-break.
    }
  };
  // Per-group active-node counts and similarity totals are pure
  // per-group reductions over disjoint member lists — computed in
  // parallel into per-group slots.
  const size_t num_groups = st.graph.num_groups();
  std::vector<uint32_t> active(num_groups, 0);
  std::vector<double> totals(num_groups, 0.0);
  exec.ParallelFor(num_groups, [&](size_t g) {
    for (RelNodeId id : st.graph.GroupMembers(static_cast<GroupId>(g))) {
      const RelationalNode& node = st.graph.rel_node(id);
      if (node.merged || node.pruned) continue;
      ++active[g];
      totals[g] += node.similarity;
    }
  });
  std::vector<QueueEntry> queue;
  queue.reserve(num_groups);
  for (GroupId g = 0; g < num_groups; ++g) {
    if (active[g] == 0) continue;
    queue.push_back(QueueEntry{active[g],
                               totals[g] / static_cast<double>(active[g]), g});
  }
  std::sort(queue.begin(), queue.end(),
            [](const QueueEntry& a, const QueueEntry& b) { return b < a; });

  for (const QueueEntry& entry : queue) {
    // One budget unit per group visit; exhaustion (operation cap or
    // deadline) stops the queue between units of work, leaving the
    // clustering consistent but partial.
    if (!st.budget.Consume()) {
      st.stats.truncated = true;
      break;
    }
    const GroupId g = entry.group;

    // Working set: unmerged, unpruned nodes of the group.
    std::vector<RelNodeId> work;
    for (RelNodeId id : st.graph.GroupMembers(g)) {
      const RelationalNode& node = st.graph.rel_node(id);
      if (!node.merged && !node.pruned) work.push_back(id);
    }
    if (work.empty()) continue;

    // Fast path for the dominant case: a group down to one node whose
    // similarity is current (refreshed at pass start, clusters
    // unchanged since) and below the solo threshold. The full path
    // below provably changes no state for such a group — the refresh
    // is a cache hit and the REL loop can neither merge (avg below
    // threshold) nor drop (already a single node) — so it is skipped
    // wholesale, constraint checks included.
    if (work.size() == 1) {
      const RelationalNode& node = st.graph.rel_node(work[0]);
      if (node.similarity < st.config->solo_merge_threshold &&
          SimilarityCacheFresh(st, node)) {
        continue;
      }
    }

    // PROP-C: drop nodes that violate constraints against the current
    // entities. Without REL a violation rejects the whole group.
    std::vector<RelNodeId> valid;
    bool group_rejected = false;
    for (RelNodeId id : work) {
      const RelationalNode& node = st.graph.rel_node(id);
      if (!st.config->enable_prop_c ||
          st.entities->CanLink(node.rec_a, node.rec_b)) {
        valid.push_back(id);
      } else if (!st.config->enable_rel) {
        group_rejected = true;
        break;
      }
    }
    if (group_rejected || valid.empty()) continue;

    // PROP-A + AMB: refresh each node's similarity once per group
    // visit (the values only change when merges happen, and none
    // happen inside the REL loop below).
    for (RelNodeId id : valid) RefreshNodeSimilarity(st, id);

    // REL loop: test the group average; on failure drop the weakest
    // node and retry, until the group shrinks to a single node.
    while (!valid.empty()) {
      double total = 0.0;
      double min_sim = 2.0;
      size_t min_pos = 0;
      for (size_t i = 0; i < valid.size(); ++i) {
        const double s = st.graph.rel_node(valid[i]).similarity;
        total += s;
        if (s < min_sim) {
          min_sim = s;
          min_pos = i;
        }
      }
      const double avg = total / static_cast<double>(valid.size());
      const double threshold = valid.size() == 1
                                   ? st.config->solo_merge_threshold
                                   : st.config->merge_threshold;
      if (avg >= threshold) {
        MergeGroupNodes(st, valid);
        break;
      }
      if (!st.config->enable_rel) break;  // No adaptive retry.
      if (valid.size() <= 1) break;
      valid.erase(valid.begin() + static_cast<long>(min_pos));
    }
  }
}

/// REF (Section 4.2.5): prune sparse clusters (density below t_d:
/// drop the minimum-degree record's links) and split oversized
/// clusters at their bridges.
/// Refines one cluster; returns true when links were dropped (the
/// cluster was split or pruned).
bool RefineOneCluster(ErRunState& st, EntityId e) {
  const EntityCluster& cluster = st.entities->cluster(e);
  if (!cluster.alive || cluster.records.size() < 3) return false;

  std::unordered_map<RecordId, size_t> local;
  for (size_t i = 0; i < cluster.records.size(); ++i) {
    local[cluster.records[i]] = i;
  }
  SmallGraph sg(cluster.records.size());
  for (RelNodeId l : cluster.links) {
    const RelationalNode& n = st.graph.rel_node(l);
    sg.AddEdge(local[n.rec_a], local[n.rec_b]);
  }

  std::vector<RelNodeId> to_drop;
  if (static_cast<int>(cluster.records.size()) >
      st.config->refine_max_cluster) {
    // Split at bridges.
    for (const auto& [u, v] : sg.Bridges()) {
      const RecordId ru = cluster.records[u];
      const RecordId rv = cluster.records[v];
      for (RelNodeId l : cluster.links) {
        const RelationalNode& n = st.graph.rel_node(l);
        if ((n.rec_a == ru && n.rec_b == rv) ||
            (n.rec_a == rv && n.rec_b == ru)) {
          to_drop.push_back(l);
        }
      }
    }
  }
  if (to_drop.empty() && sg.Density() < st.config->refine_density) {
    // Drop all links of the lowest-degree record.
    const size_t victim = sg.MinDegreeNode();
    const RecordId rv = cluster.records[victim];
    for (RelNodeId l : cluster.links) {
      const RelationalNode& n = st.graph.rel_node(l);
      if (n.rec_a == rv || n.rec_b == rv) to_drop.push_back(l);
    }
  }
  if (to_drop.empty()) return false;
  st.entities->RemoveLinksAndSplit(e, to_drop, &st.graph);
  return true;
}

/// REF (Section 4.2.5): repeatedly prune sparse clusters (density
/// below t_d) and split oversized clusters at their bridges, until a
/// bounded fixpoint.
void RefineClusters(ErRunState& st) {
  Timer timer;
  constexpr int kMaxRounds = 4;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (EntityId e : st.entities->NonSingletonEntities()) {
      changed |= RefineOneCluster(st, e);
    }
    if (!changed) break;
  }
  st.stats.refine_seconds += timer.ElapsedSeconds();
}

}  // namespace

ErEngine::ErEngine(ErConfig config)
    : config_(std::move(config)),
      exec_(ExecutionContext::WithThreads(
          static_cast<size_t>(std::max(0, config_.num_threads)),
          config_.deadline)) {}

ErEngine::ErEngine(ErConfig config, ExecutionContext exec)
    : config_(std::move(config)), exec_(std::move(exec)) {}

Result<ErEngine> ErEngine::Create(ErConfig config) {
  if (Result<void> v = config.Validate(); !v.ok()) return v.status();
  return ErEngine(std::move(config));
}

Result<ErEngine> ErEngine::Create(ErConfig config, ExecutionContext exec) {
  if (Result<void> v = config.Validate(); !v.ok()) return v.status();
  return ErEngine(std::move(config), std::move(exec));
}

void ErEngine::ReportPhase(const std::string& phase) const {
  if (config_.progress) config_.progress(phase);
}

void ErEngine::AttachState(const Dataset& dataset, ErRunState* st) const {
  st->dataset = &dataset;
  st->config = &config_;
  st->simmodel = std::make_unique<SimilarityModel>(&dataset, &config_.schema,
                                                   config_.gamma);
  st->budget = Budget(config_.max_merge_operations, config_.deadline);
}

void ErEngine::InitState(const Dataset& dataset, ErRunState* st) const {
  AttachState(dataset, st);
  st->entities = std::make_unique<EntityStore>(
      &dataset, LinkConstraints(config_.temporal));
  st->stats = ErStats();
}

void ErEngine::InitNodeSimilarities(ErRunState* st) const {
  // Initial similarities for queue ordering: one pure write per node.
  DependencyGraph& graph = st->graph;
  exec_.ParallelFor(graph.num_rel_nodes(), [&](size_t id) {
    RelationalNode& node = graph.mutable_rel_node(static_cast<RelNodeId>(id));
    node.similarity =
        st->simmodel->NodeSimilarity(graph, node, config_.enable_amb);
  });
}

void ErEngine::BuildGraphPhase(ErRunState* st) const {
  ReportPhase("graph construction");
  BuildDependencyGraphForDataset(*st->dataset, config_, &st->graph,
                                 &st->stats, exec_);
  InitNodeSimilarities(st);
}

void ErEngine::BootstrapPhase(ErRunState* st) const {
  ReportPhase("bootstrap");
  Bootstrap(*st, exec_);
  if (config_.enable_ref) {
    ReportPhase("refine");
    RefineClusters(*st);
  }
}

void ErEngine::MergePassPhase(ErRunState* st, int pass) const {
  ReportPhase("merge pass " + std::to_string(pass + 1));
  Timer merge_timer;
  MergePass(*st, exec_);
  st->stats.merge_seconds += merge_timer.ElapsedSeconds();
  // The refinement trailing the last pass belongs to FinalRefinePhase,
  // so the pipeline gets a standalone refine checkpoint; the sequence
  // of operations is identical either way.
  if (config_.enable_ref && pass + 1 < config_.merge_passes) {
    ReportPhase("refine");
    RefineClusters(*st);
  }
}

void ErEngine::FinalRefinePhase(ErRunState* st) const {
  if (config_.enable_ref && config_.merge_passes > 0) {
    ReportPhase("refine");
    RefineClusters(*st);
  }
}

ErResult ErEngine::FinishState(ErRunState&& st) const {
  st.stats.num_entities = st.entities->NumMergedEntities();
  ErResult result;
  result.graph = std::move(st.graph);
  result.entities = std::move(st.entities);
  result.stats = st.stats;
  return result;
}

ErResult ErEngine::Resolve(const Dataset& dataset) const {
  Timer total_timer;
  ErRunState st;
  InitState(dataset, &st);
  BuildGraphPhase(&st);
  BootstrapPhase(&st);
  for (int pass = 0; pass < config_.merge_passes; ++pass) {
    MergePassPhase(&st, pass);
  }
  FinalRefinePhase(&st);
  st.stats.total_seconds = total_timer.ElapsedSeconds();
  return FinishState(std::move(st));
}

ErResult ErEngine::ResolveFromCandidates(
    const Dataset& dataset, const std::vector<CandidatePair>& candidates) const {
  Timer total_timer;
  ErRunState st;
  InitState(dataset, &st);
  ReportPhase("graph construction");
  BuildDependencyGraphFromCandidates(dataset, config_, candidates, &st.graph,
                                     &st.stats, exec_);
  InitNodeSimilarities(&st);
  BootstrapPhase(&st);
  for (int pass = 0; pass < config_.merge_passes; ++pass) {
    MergePassPhase(&st, pass);
  }
  FinalRefinePhase(&st);
  st.stats.total_seconds = total_timer.ElapsedSeconds();
  return FinishState(std::move(st));
}

}  // namespace snaps
