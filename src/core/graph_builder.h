#ifndef SNAPS_CORE_GRAPH_BUILDER_H_
#define SNAPS_CORE_GRAPH_BUILDER_H_

#include <vector>

#include "blocking/blocker.h"
#include "core/er_config.h"
#include "data/dataset.h"
#include "graph/dependency_graph.h"
#include "util/execution_context.h"

namespace snaps {

/// Builds the dependency graph G_D for a data set (Section 4.1):
/// LSH blocking produces candidate pairs; each candidate certificate
/// pair becomes a group; within a group, every role-consistent,
/// gender-consistent, temporally plausible record pair with Must-
/// attribute similarity >= t_a becomes a relational node; atomic nodes
/// are attached per attribute at threshold t_a; relationship edges
/// connect nodes whose role relations agree on both certificates.
/// Timing and size fields of `stats` are filled in.
///
/// The per-block work (member filtering, relationship edges,
/// connected components, pairwise attribute similarities) is pure and
/// fans out over `exec`; blocks are then materialised into the graph
/// sequentially in ascending certificate-pair order, so node, group
/// and atomic-node ids are byte-identical for any thread count.
void BuildDependencyGraphForDataset(
    const Dataset& dataset, const ErConfig& config,
    DependencyGraph* graph, ErStats* stats,
    const ExecutionContext& exec = ExecutionContext());

/// The same construction over a pre-computed candidate list (ordered,
/// deduplicated, as produced by any Blocker::CandidatePairs), skipping
/// the blocking step. Lets drivers run blocking once and feed several
/// clustering techniques (the SNAPS engine and the Dep-Graph
/// baseline), and keeps the graph construction independent of which
/// blocking technique produced the candidates.
/// `stats->atomic_gen_seconds` (the blocking time) is left untouched.
void BuildDependencyGraphFromCandidates(
    const Dataset& dataset, const ErConfig& config,
    const std::vector<CandidatePair>& candidates,
    DependencyGraph* graph, ErStats* stats,
    const ExecutionContext& exec = ExecutionContext());

}  // namespace snaps

#endif  // SNAPS_CORE_GRAPH_BUILDER_H_
