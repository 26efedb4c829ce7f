#include <gtest/gtest.h>

#include <algorithm>

#include "anon/anonymizer.h"
#include "baselines/clusterer_registry.h"
#include "blocking/blocker_registry.h"
#include "core/er_engine.h"
#include "datagen/simulator.h"
#include "index/keyword_index.h"
#include "index/similarity_index.h"
#include "pedigree/pedigree_graph.h"

namespace snaps {
namespace {

// ------------------------------------------------ Empty-input paths.

TEST(EmptyInputTest, ErEngineOnEmptyDataset) {
  Dataset empty;
  ErResult res = ErEngine().Resolve(empty);
  EXPECT_EQ(res.stats.num_rel_nodes, 0u);
  EXPECT_TRUE(res.MatchedPairs().empty());
}

TEST(EmptyInputTest, PedigreeGraphOnEmptyDataset) {
  Dataset empty;
  ErResult res = ErEngine().Resolve(empty);
  const PedigreeGraph graph = PedigreeGraph::Build(empty, res);
  EXPECT_EQ(graph.num_nodes(), 0u);
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(EmptyInputTest, IndicesOnEmptyGraph) {
  PedigreeGraph graph;
  KeywordIndex keyword(&graph);
  SimilarityIndex similarity(&keyword);
  EXPECT_EQ(keyword.NumEntries(QueryField::kFirstName), 0u);
  EXPECT_TRUE(similarity.Similar(QueryField::kFirstName, "mary").empty());
}

TEST(EmptyInputTest, SingleCertificateDataset) {
  Dataset ds;
  const CertId c = ds.AddCertificate(CertType::kBirth, 1880);
  Record r;
  r.set_value(Attr::kFirstName, "ann");
  r.set_value(Attr::kSurname, "gunn");
  ds.AddRecord(c, Role::kBb, r);
  ErResult res = ErEngine().Resolve(ds);
  EXPECT_TRUE(res.MatchedPairs().empty());  // Nothing to link.
  const PedigreeGraph graph = PedigreeGraph::Build(ds, res);
  EXPECT_EQ(graph.num_nodes(), 1u);  // Singleton searchable.
}

// ----------------------------------------- SimilarityIndex params.

TEST(SimilarityIndexParamTest, ThresholdBoundsListSizes) {
  Dataset ds;
  for (const char* name : {"mary", "marie", "maria", "flora"}) {
    const CertId c = ds.AddCertificate(CertType::kBirth, 1880);
    Record r;
    r.set_value(Attr::kFirstName, name);
    r.set_value(Attr::kSurname, "gunn");
    r.set_value(Attr::kGender, "f");
    ds.AddRecord(c, Role::kBb, r);
  }
  ErResult res = ErEngine().Resolve(ds);
  const PedigreeGraph graph = PedigreeGraph::Build(ds, res);
  KeywordIndex keyword(&graph);
  SimilarityIndex loose(&keyword, 0.5);
  SimilarityIndex strict(&keyword, 0.9);
  for (const std::string& v : keyword.Values(QueryField::kFirstName)) {
    EXPECT_GE(loose.Similar(QueryField::kFirstName, v).size(),
              strict.Similar(QueryField::kFirstName, v).size());
    for (const SimilarValue& sv : strict.Similar(QueryField::kFirstName, v)) {
      EXPECT_GE(sv.similarity, 0.9);
    }
  }
}

// ------------------------------------------------ Anonymiser edges.

TEST(AnonEdgeTest, KOneKeepsAllCauses) {
  SimulatorConfig cfg;
  cfg.seed = 31337;
  cfg.num_founder_couples = 20;
  GeneratedData data = PopulationSimulator(cfg).Generate();
  AnonConfig anon;
  anon.k = 1;  // Every cause is "frequent".
  const AnonReport report = AnonymizeDataset(&data.dataset, anon);
  EXPECT_EQ(report.rare_causes_replaced, 0u);
}

TEST(AnonEdgeTest, DeterministicGivenSeed) {
  SimulatorConfig cfg;
  cfg.seed = 808;
  cfg.num_founder_couples = 15;
  GeneratedData a = PopulationSimulator(cfg).Generate();
  GeneratedData b = PopulationSimulator(cfg).Generate();
  AnonConfig anon;
  AnonymizeDataset(&a.dataset, anon);
  AnonymizeDataset(&b.dataset, anon);
  for (size_t i = 0; i < a.dataset.num_records(); ++i) {
    EXPECT_EQ(a.dataset.record(i).values, b.dataset.record(i).values);
  }
}

// --------------------------------------------- Rel-Cluster params.

/// Rel-Cluster with `config` over the default (LSH) blocker's
/// candidate pairs, through the registries.
ClustererResult RelCluster(const RelClusterConfig& config,
                           const Dataset& ds) {
  ClustererSpec spec;
  spec.name = "relcluster";
  spec.relcluster = config;
  const auto candidates =
      CreateBlocker(BlockerSpec()).value()->CandidatePairs(ds);
  return CreateClusterer(spec).value()->Cluster(ds, candidates,
                                                ExecutionContext());
}

TEST(RelClusterParamTest, ThresholdMonotonicity) {
  SimulatorConfig cfg;
  cfg.seed = 9001;
  cfg.num_founder_couples = 15;
  GeneratedData data = PopulationSimulator(cfg).Generate();
  RelClusterConfig loose;
  loose.merge_threshold = 0.60;
  RelClusterConfig strict;
  strict.merge_threshold = 0.80;
  const auto loose_pairs = RelCluster(loose, data.dataset).MatchedPairs();
  const auto strict_pairs = RelCluster(strict, data.dataset).MatchedPairs();
  EXPECT_GE(loose_pairs.size(), strict_pairs.size());
}

TEST(RelClusterParamTest, AlphaZeroIsAttributeOnly) {
  // With alpha = 0 the relational component vanishes; the run must
  // still complete and produce a valid clustering.
  SimulatorConfig cfg;
  cfg.seed = 4242;
  cfg.num_founder_couples = 12;
  GeneratedData data = PopulationSimulator(cfg).Generate();
  RelClusterConfig rc;
  rc.alpha = 0.0;
  const ClustererResult res = RelCluster(rc, data.dataset);
  EXPECT_EQ(res.cluster_of.size(), data.dataset.num_records());
}

// --------------------------------------------------- ER config.

TEST(ErConfigTest, MorePassesNeverLoseMatches) {
  SimulatorConfig cfg;
  cfg.seed = 777;
  cfg.num_founder_couples = 15;
  GeneratedData data = PopulationSimulator(cfg).Generate();
  ErConfig one_pass;
  one_pass.merge_passes = 1;
  ErConfig three_passes;
  three_passes.merge_passes = 3;
  const size_t one = ErEngine(one_pass).Resolve(data.dataset)
                         .MatchedPairs().size();
  const size_t three = ErEngine(three_passes).Resolve(data.dataset)
                           .MatchedPairs().size();
  // Later passes only add links (REF may split, but its fixpoint is
  // run in both configurations); allow equality.
  EXPECT_GE(three + three / 10 + 5, one);
}

TEST(ErConfigTest, ProgressCallbackReportsPhases) {
  SimulatorConfig cfg;
  cfg.seed = 999;
  cfg.num_founder_couples = 8;
  GeneratedData data = PopulationSimulator(cfg).Generate();
  ErConfig er;
  std::vector<std::string> phases;
  er.progress = [&phases](const std::string& p) { phases.push_back(p); };
  ErEngine(er).Resolve(data.dataset);
  ASSERT_GE(phases.size(), 4u);
  EXPECT_EQ(phases[0], "graph construction");
  EXPECT_EQ(phases[1], "bootstrap");
  EXPECT_NE(std::find(phases.begin(), phases.end(), "merge pass 1"),
            phases.end());
}

TEST(ErConfigTest, ZeroPassesMeansBootstrapOnly) {
  SimulatorConfig cfg;
  cfg.seed = 888;
  cfg.num_founder_couples = 15;
  GeneratedData data = PopulationSimulator(cfg).Generate();
  ErConfig no_merge;
  no_merge.merge_passes = 0;
  ErConfig with_merge;
  EXPECT_LE(ErEngine(no_merge).Resolve(data.dataset).MatchedPairs().size(),
            ErEngine(with_merge).Resolve(data.dataset).MatchedPairs().size());
}

}  // namespace
}  // namespace snaps
