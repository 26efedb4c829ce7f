// Interface-conformance suite for the pluggable linkage techniques:
// every blocker and clusterer registered in the blocking/baselines
// registries must honour the Blocker/Clusterer contracts regardless
// of its concrete algorithm — ordered unique candidate pairs, the
// paper's impossibility rules, canonical cluster labels, and
// byte-identical output for any thread count (docs/PARALLELISM.md).
// New backends are covered automatically: registering a name is
// enough to be swept.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "baselines/attr_sim.h"
#include "baselines/clusterer_registry.h"
#include "baselines/rel_cluster.h"
#include "blocking/blocker_registry.h"
#include "blocking/pair_filter.h"
#include "datagen/simulator.h"
#include "util/execution_context.h"

namespace snaps {
namespace {

const GeneratedData& ConformanceData() {
  static const GeneratedData* data = [] {
    SimulatorConfig cfg;
    cfg.seed = 4242;
    cfg.num_founder_couples = 12;
    return new GeneratedData(PopulationSimulator(cfg).Generate());
  }();
  return *data;
}

std::unique_ptr<Blocker> MakeBlocker(const std::string& name) {
  BlockerSpec spec;
  spec.name = name;
  Result<std::unique_ptr<Blocker>> blocker = CreateBlocker(spec);
  EXPECT_TRUE(blocker.ok()) << blocker.status().ToString();
  return std::move(blocker).value();
}

std::unique_ptr<Clusterer> MakeClusterer(const std::string& name) {
  ClustererSpec spec;
  spec.name = name;
  Result<std::unique_ptr<Clusterer>> clusterer = CreateClusterer(spec);
  EXPECT_TRUE(clusterer.ok()) << clusterer.status().ToString();
  return std::move(clusterer).value();
}

// ------------------------------------------ Blocker conformance.

class BlockerConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BlockerConformanceTest, NameRoundTrips) {
  EXPECT_EQ(MakeBlocker(GetParam())->name(), GetParam());
}

TEST_P(BlockerConformanceTest, PairsOrderedSortedUnique) {
  const auto pairs =
      MakeBlocker(GetParam())->CandidatePairs(ConformanceData().dataset);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [a, b] : pairs) EXPECT_LT(a, b);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

TEST_P(BlockerConformanceTest, ImpossibilityRulesHold) {
  // No same-certificate pairs, no implausible role pairs, no gender
  // conflicts — the shared pair filter applies after every technique.
  const Dataset& ds = ConformanceData().dataset;
  for (const auto& [a, b] : MakeBlocker(GetParam())->CandidatePairs(ds)) {
    EXPECT_TRUE(CandidatePairPlausible(ds, a, b));
    EXPECT_NE(ds.record(a).cert_id, ds.record(b).cert_id);
  }
}

TEST_P(BlockerConformanceTest, ThreadCountDeterminism) {
  const std::unique_ptr<Blocker> blocker = MakeBlocker(GetParam());
  const Dataset& ds = ConformanceData().dataset;
  const auto serial = blocker->CandidatePairs(ds);
  const auto parallel = blocker->CandidatePairs(ds, ExecutionContext(4));
  EXPECT_EQ(parallel, serial);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, BlockerConformanceTest,
    ::testing::ValuesIn(RegisteredBlockerNames()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      return param.param;
    });

// ---------------------------------------- Clusterer conformance.

class ClustererConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const std::vector<CandidatePair>& Candidates() {
    static const std::vector<CandidatePair>* pairs =
        new std::vector<CandidatePair>(
            MakeBlocker("lsh")->CandidatePairs(ConformanceData().dataset));
    return *pairs;
  }
};

TEST_P(ClustererConformanceTest, NameRoundTrips) {
  EXPECT_EQ(MakeClusterer(GetParam())->name(), GetParam());
}

TEST_P(ClustererConformanceTest, LabelsCompleteAndCanonical) {
  const Dataset& ds = ConformanceData().dataset;
  const ClustererResult result =
      MakeClusterer(GetParam())->Cluster(ds, Candidates(), ExecutionContext());
  ASSERT_EQ(result.cluster_of.size(), ds.num_records());
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    const uint32_t label = result.cluster_of[r];
    // Canonical labels: the label is the smallest record id of the
    // cluster, and that record carries its own label.
    EXPECT_LE(label, r);
    EXPECT_EQ(result.cluster_of[label], label);
  }
}

TEST_P(ClustererConformanceTest, MatchedPairsOrderedSortedUnique) {
  const ClustererResult result = MakeClusterer(GetParam())->Cluster(
      ConformanceData().dataset, Candidates(), ExecutionContext());
  const auto pairs = result.MatchedPairs();
  for (const auto& [a, b] : pairs) {
    EXPECT_LT(a, b);
    EXPECT_EQ(result.cluster_of[a], result.cluster_of[b]);
  }
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

TEST_P(ClustererConformanceTest, ThreadCountDeterminism) {
  const std::unique_ptr<Clusterer> clusterer = MakeClusterer(GetParam());
  const Dataset& ds = ConformanceData().dataset;
  const ClustererResult serial =
      clusterer->Cluster(ds, Candidates(), ExecutionContext());
  const ClustererResult parallel =
      clusterer->Cluster(ds, Candidates(), ExecutionContext(4));
  EXPECT_EQ(parallel.cluster_of, serial.cluster_of);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, ClustererConformanceTest,
    ::testing::ValuesIn(RegisteredClustererNames()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      return param.param;
    });

// -------------------------------- Create() rejects invalid configs.

TEST(BlockerSpecTest, UnknownNameListsRegisteredNames) {
  BlockerSpec spec;
  spec.name = "nope";
  const Result<void> v = spec.Validate();
  ASSERT_FALSE(v.ok());
  const std::string msg = v.status().ToString();
  for (const std::string& name : RegisteredBlockerNames()) {
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
}

TEST(BlockerSpecTest, LshRejectsEachInvalidField) {
  BlockerSpec spec;  // name = "lsh"
  spec.lsh.num_hashes = 0;
  EXPECT_FALSE(CreateBlocker(spec).ok());
  spec = BlockerSpec();
  spec.lsh.band_size = spec.lsh.num_hashes + 1;
  EXPECT_FALSE(CreateBlocker(spec).ok());
  spec = BlockerSpec();
  spec.lsh.max_bucket = 1;
  EXPECT_FALSE(CreateBlocker(spec).ok());
  EXPECT_TRUE(CreateBlocker(BlockerSpec()).ok());
}

TEST(BlockerSpecTest, SnipRejectsEachInvalidField) {
  BlockerSpec spec;
  spec.name = "snip";
  EXPECT_TRUE(CreateBlocker(spec).ok());
  spec.snip.window = 1;
  EXPECT_FALSE(CreateBlocker(spec).ok());
  spec.snip = SnipConfig();
  spec.snip.window = 5000;
  EXPECT_FALSE(CreateBlocker(spec).ok());
  spec.snip = SnipConfig();
  spec.snip.min_key_length = 0;
  EXPECT_FALSE(CreateBlocker(spec).ok());
  spec.snip = SnipConfig();
  spec.snip.min_key_length = 65;
  EXPECT_FALSE(CreateBlocker(spec).ok());
}

TEST(ClustererSpecTest, UnknownNameListsRegisteredNames) {
  ClustererSpec spec;
  spec.name = "nope";
  const Result<void> v = spec.Validate();
  ASSERT_FALSE(v.ok());
  const std::string msg = v.status().ToString();
  for (const std::string& name : RegisteredClustererNames()) {
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
}

TEST(ClustererSpecTest, GraphRejectsEachInvalidField) {
  ClustererSpec spec;  // name = "graph"
  spec.graph.merge_threshold = 1.5;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec = ClustererSpec();
  spec.graph.refine_max_cluster = 0;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec = ClustererSpec();
  spec.graph.blocker.name = "nope";  // The embedded spec validates too.
  EXPECT_FALSE(CreateClusterer(spec).ok());
  EXPECT_TRUE(CreateClusterer(ClustererSpec()).ok());
}

TEST(ClustererSpecTest, DepGraphRejectsEachInvalidField) {
  ClustererSpec spec;
  spec.name = "depgraph";
  EXPECT_TRUE(CreateClusterer(spec).ok());
  spec.depgraph.er.merge_threshold = 1.5;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec.depgraph = DepGraphConfig();
  spec.depgraph.er.atomic_threshold = -0.1;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec.depgraph = DepGraphConfig();
  spec.depgraph.er.gamma = 2.0;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  // Only the named technique's config is consulted: a broken "graph"
  // config does not reject "depgraph".
  spec.depgraph = DepGraphConfig();
  spec.graph.merge_threshold = 1.5;
  EXPECT_TRUE(CreateClusterer(spec).ok());
}

TEST(ClustererSpecTest, HierRejectsEachInvalidField) {
  ClustererSpec spec;
  spec.name = "hier";
  EXPECT_TRUE(CreateClusterer(spec).ok());
  spec.hier.stop_threshold = -0.1;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec.hier = HierarchicalConfig();
  spec.hier.stop_threshold = 1.1;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec.hier = HierarchicalConfig();
  spec.hier.max_cluster_size = 1;
  EXPECT_FALSE(CreateClusterer(spec).ok());
}

TEST(ClustererSpecTest, RelClusterRejectsEachInvalidField) {
  ClustererSpec spec;
  spec.name = "relcluster";
  EXPECT_TRUE(CreateClusterer(spec).ok());
  spec.relcluster.alpha = 2.0;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec.relcluster = RelClusterConfig();
  spec.relcluster.gamma = -0.5;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec.relcluster = RelClusterConfig();
  spec.relcluster.merge_threshold = 1.01;
  EXPECT_FALSE(CreateClusterer(spec).ok());
  spec.relcluster = RelClusterConfig();
  spec.relcluster.max_iterations = 0;
  EXPECT_FALSE(CreateClusterer(spec).ok());
}

TEST(BaselineCreateTest, AttrSimRejectsEachInvalidField) {
  AttrSimConfig cfg;
  cfg.match_threshold = 1.5;
  EXPECT_FALSE(AttrSimBaseline::Create(cfg).ok());
  cfg = AttrSimConfig();
  cfg.blocker.name = "nope";
  EXPECT_FALSE(AttrSimBaseline::Create(cfg).ok());
  EXPECT_TRUE(AttrSimBaseline::Create(AttrSimConfig()).ok());
}

TEST(BaselineCreateTest, RelClusterFactoryMatchesValidate) {
  RelClusterConfig cfg;
  EXPECT_TRUE(RelClusterBaseline::Create(cfg).ok());
  cfg.alpha = -1.0;
  EXPECT_FALSE(RelClusterBaseline::Create(cfg).ok());
}

// A freshly registered backend is swept up by the registries and the
// spec-level unknown-name error disappears for it.
TEST(RegistryTest, RegistrationIsOpen) {
  RegisterBlocker("conformance_custom",
                  [](const BlockerSpec& spec) {
                    return CreateBlocker([&spec] {
                      BlockerSpec lsh = spec;
                      lsh.name = "lsh";
                      return lsh;
                    }());
                  });
  const auto names = RegisteredBlockerNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "conformance_custom"),
            names.end());
  BlockerSpec spec;
  spec.name = "conformance_custom";
  EXPECT_TRUE(CreateBlocker(spec).ok());
}

}  // namespace
}  // namespace snaps
