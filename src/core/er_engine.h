#ifndef SNAPS_CORE_ER_ENGINE_H_
#define SNAPS_CORE_ER_ENGINE_H_

#include <memory>
#include <vector>

#include "core/clusterer.h"
#include "core/entity_store.h"
#include "core/er_config.h"
#include "core/similarity.h"
#include "data/dataset.h"
#include "graph/dependency_graph.h"
#include "util/execution_context.h"

namespace snaps {

/// Result of resolving a data set: the dependency graph (with merged
/// relational nodes), the entity clusters, and run statistics.
/// Movable-only (owns large structures).
struct ErResult {
  DependencyGraph graph;
  std::unique_ptr<EntityStore> entities;
  ErStats stats;

  /// The clustering as canonical per-record labels plus `stats` (the
  /// registry's "graph" Clusterer returns exactly this).
  ClustererResult Clusters() const;

  /// All record pairs classified as matches (pairs co-resident in a
  /// cluster), ordered (first < second): Clusters().MatchedPairs().
  std::vector<std::pair<RecordId, RecordId>> MatchedPairs() const;
};

/// Mutable state of one Resolve run, exposed so the checkpointing
/// snaps::PipelineRunner can drive (and persist between) phases
/// individually. `dataset` and `config` are borrowed; everything else
/// is owned. Plain Resolve() callers never see this type.
struct ErRunState {
  const Dataset* dataset = nullptr;
  const ErConfig* config = nullptr;
  DependencyGraph graph;
  std::unique_ptr<EntityStore> entities;
  std::unique_ptr<SimilarityModel> simmodel;
  ErStats stats;
  /// Work/deadline budget of this run (not persisted across resume: a
  /// resumed process gets a fresh budget for its remaining phases).
  Budget budget;
};

/// The SNAPS unsupervised graph-based entity resolution engine
/// (Section 4): dependency-graph generation (blocking, atomic and
/// relational nodes, relationship edges), bootstrapping, priority-
/// queue iterative merging with PROP-A / PROP-C / AMB / REL, and
/// dynamic cluster refinement (REF).
class ErEngine {
 public:
  /// Unchecked construction over a known-good config; prefer Create()
  /// for configs assembled from user input or files. The engine's
  /// ExecutionContext is derived from the config
  /// (ErConfig::num_threads and the run deadline); workers, if any,
  /// are spawned here and live for the engine's lifetime.
  explicit ErEngine(ErConfig config = ErConfig());

  /// Construction over a caller-provided ExecutionContext (shared
  /// pool), ignoring ErConfig::num_threads. Used by drivers that run
  /// several components over one pool (see PipelineRunner).
  ErEngine(ErConfig config, ExecutionContext exec);

  /// Validating factory: rejects any config failing
  /// ErConfig::Validate(), so an engine that exists always has a
  /// runnable parameterisation.
  static Result<ErEngine> Create(ErConfig config);
  static Result<ErEngine> Create(ErConfig config, ExecutionContext exec);

  /// Runs the full offline ER pipeline on `dataset`. The dataset must
  /// outlive the returned result.
  ErResult Resolve(const Dataset& dataset) const;

  /// Resolve over a pre-computed candidate list (the output of any
  /// Blocker::CandidatePairs), skipping the blocking step. Lets a
  /// driver run blocking once and feed several clustering techniques
  /// (the ablation harness), and backs the registry's "graph"
  /// Clusterer. `stats.atomic_gen_seconds` (the blocking time) stays
  /// zero; everything else matches Resolve over the same candidates.
  ErResult ResolveFromCandidates(
      const Dataset& dataset,
      const std::vector<CandidatePair>& candidates) const;

  /// Phase-level API (used by PipelineRunner to checkpoint between
  /// phases). Calling, in order, InitState, BuildGraphPhase,
  /// BootstrapPhase, MergePassPhase for pass = 0..merge_passes-1,
  /// FinalRefinePhase and FinishState is exactly equivalent to
  /// Resolve().
  void InitState(const Dataset& dataset, ErRunState* st) const;
  /// Dependency-graph construction plus initial node similarities.
  void BuildGraphPhase(ErRunState* st) const;
  /// Bootstrapping, plus the post-bootstrap refinement when REF is on.
  void BootstrapPhase(ErRunState* st) const;
  /// One priority-queue merging pass; passes before the last also run
  /// their trailing refinement (matching Resolve's interleaving).
  void MergePassPhase(ErRunState* st, int pass) const;
  /// The refinement following the last merge pass (no-op when REF is
  /// off or there are no merge passes).
  void FinalRefinePhase(ErRunState* st) const;
  /// Finalises statistics and moves the result out of the state.
  ErResult FinishState(ErRunState&& st) const;

  /// Rebuilds the borrowed/derived members of a state restored from a
  /// snapshot (entities' dataset pointer, the similarity model, the
  /// budget); graph, clusters and stats come from the snapshot itself.
  void AttachState(const Dataset& dataset, ErRunState* st) const;

  const ErConfig& config() const { return config_; }

  /// The engine's execution context. Drivers reuse it for adjacent
  /// parallel work (PipelineRunner hands it to the index build) so
  /// one offline run owns exactly one pool.
  const ExecutionContext& exec() const { return exec_; }

 private:
  void ReportPhase(const std::string& phase) const;
  /// Initial node similarities for queue ordering (the tail of the
  /// graph phase, shared by both graph entry points).
  void InitNodeSimilarities(ErRunState* st) const;

  ErConfig config_;
  ExecutionContext exec_;
};

}  // namespace snaps

#endif  // SNAPS_CORE_ER_ENGINE_H_
