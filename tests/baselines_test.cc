#include <gtest/gtest.h>

#include <map>

#include "baselines/attr_sim.h"
#include "baselines/clusterer_registry.h"
#include "blocking/blocker_registry.h"
#include "core/er_engine.h"
#include "datagen/simulator.h"
#include "eval/metrics.h"

namespace snaps {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  static const GeneratedData& Data() {
    static const GeneratedData* data = [] {
      SimulatorConfig cfg;
      cfg.seed = 808;
      cfg.num_founder_couples = 35;
      cfg.immigrants_per_year = 1.5;
      return new GeneratedData(PopulationSimulator(cfg).Generate());
    }();
    return *data;
  }

  /// Clusters `ds` with the registered technique `name` over the
  /// default (LSH) blocker's candidate pairs.
  static ClustererResult Cluster(const std::string& name,
                                 const Dataset& ds) {
    ClustererSpec spec;
    spec.name = name;
    const auto candidates =
        CreateBlocker(BlockerSpec()).value()->CandidatePairs(ds);
    return CreateClusterer(spec).value()->Cluster(ds, candidates,
                                                  ExecutionContext());
  }
};

// --------------------------------------------------------- AttrSim.

TEST_F(BaselinesTest, AttrSimPairSimilarityBounds) {
  AttrSimBaseline baseline;
  const Dataset& ds = Data().dataset;
  for (RecordId a = 0; a < 50; ++a) {
    for (RecordId b = a + 1; b < 50; ++b) {
      const double s = baseline.PairSimilarity(ds.record(a), ds.record(b));
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST_F(BaselinesTest, AttrSimIdenticalRecordsScoreOne) {
  AttrSimBaseline baseline;
  const Record& r = Data().dataset.record(0);
  EXPECT_DOUBLE_EQ(baseline.PairSimilarity(r, r), 1.0);
}

TEST_F(BaselinesTest, AttrSimThresholdMonotonicity) {
  AttrSimConfig strict;
  strict.match_threshold = 0.95;
  AttrSimConfig loose;
  loose.match_threshold = 0.75;
  const auto strict_pairs = AttrSimBaseline(strict).Link(Data().dataset);
  const auto loose_pairs = AttrSimBaseline(loose).Link(Data().dataset);
  EXPECT_LE(strict_pairs.size(), loose_pairs.size());
}

TEST_F(BaselinesTest, AttrSimHasHighRecallLowPrecision) {
  const auto pairs = AttrSimBaseline().Link(Data().dataset);
  const auto q = EvaluatePairs(Data().dataset, pairs, RolePairClass::kBpBp);
  const auto snaps_q = EvaluatePairs(
      Data().dataset, ErEngine().Resolve(Data().dataset).MatchedPairs(),
      RolePairClass::kBpBp);
  // The paper's headline comparison: pairwise linking trails the
  // graph-based approach on precision and F*.
  EXPECT_LT(q.Precision(), snaps_q.Precision());
  EXPECT_LT(q.FStar(), snaps_q.FStar());
}

// -------------------------------------------------------- DepGraph.

TEST_F(BaselinesTest, DepGraphProducesValidClusters) {
  const ClustererResult res = Cluster("depgraph", Data().dataset);
  EXPECT_GT(res.stats.num_merged_nodes, 0u);
  std::map<uint32_t, int> bb_per_cluster;
  for (RecordId r = 0; r < res.cluster_of.size(); ++r) {
    if (Data().dataset.record(r).role == Role::kBb) {
      ++bb_per_cluster[res.cluster_of[r]];
    }
  }
  for (const auto& [label, bb] : bb_per_cluster) {
    EXPECT_LE(bb, 1) << "cluster " << label;  // Constraints enforced.
  }
}

TEST_F(BaselinesTest, DepGraphProducesUsefulLinkage) {
  const auto dep_q = EvaluatePairs(
      Data().dataset, Cluster("depgraph", Data().dataset).MatchedPairs(),
      RolePairClass::kBpBp);
  // Sanity floor; the exact comparison against Attr-Sim is data-
  // dependent and reproduced by the Table 4 preset of
  // bench_ablation_matrix.
  EXPECT_GT(dep_q.FStar(), 0.2);
  EXPECT_GT(dep_q.Recall(), 0.4);
}

TEST_F(BaselinesTest, DepGraphDeterministic) {
  const auto a = Cluster("depgraph", Data().dataset).MatchedPairs();
  const auto b = Cluster("depgraph", Data().dataset).MatchedPairs();
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------ RelCluster.

TEST_F(BaselinesTest, RelClusterAssignsEveryRecord) {
  const ClustererResult res = Cluster("relcluster", Data().dataset);
  EXPECT_EQ(res.cluster_of.size(), Data().dataset.num_records());
}

TEST_F(BaselinesTest, RelClusterMergesSomething) {
  const ClustererResult res = Cluster("relcluster", Data().dataset);
  EXPECT_GT(res.stats.num_merged_nodes, 0u);
  EXPECT_GT(res.stats.num_entities, 0u);
}

TEST_F(BaselinesTest, RelClusterMatchedPairsConsistent) {
  const ClustererResult res = Cluster("relcluster", Data().dataset);
  const auto pairs = res.MatchedPairs();
  for (const auto& [a, b] : pairs) {
    EXPECT_LT(a, b);
    EXPECT_EQ(res.cluster_of[a], res.cluster_of[b]);
  }
}

// --------------------------------------------- Comparative shape.

TEST_F(BaselinesTest, SnapsWinsOnFStar) {
  // Table 4's headline: SNAPS outperforms all unsupervised baselines.
  const Dataset& ds = Data().dataset;
  const auto snaps_q = EvaluatePairs(
      ds, ErEngine().Resolve(ds).MatchedPairs(), RolePairClass::kBpBp);
  const auto attr_q =
      EvaluatePairs(ds, AttrSimBaseline().Link(ds), RolePairClass::kBpBp);
  const auto dep_q = EvaluatePairs(
      ds, Cluster("depgraph", ds).MatchedPairs(), RolePairClass::kBpBp);
  const auto rel_q = EvaluatePairs(
      ds, Cluster("relcluster", ds).MatchedPairs(), RolePairClass::kBpBp);
  EXPECT_GT(snaps_q.FStar(), attr_q.FStar());
  EXPECT_GT(snaps_q.FStar(), dep_q.FStar());
  EXPECT_GT(snaps_q.FStar(), rel_q.FStar());
}

}  // namespace
}  // namespace snaps
