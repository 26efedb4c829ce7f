#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/er_engine.h"
#include "data/dataset.h"
#include "datagen/simulator.h"
#include "index/keyword_index.h"
#include "index/similarity_index.h"
#include "pedigree/pedigree_graph.h"
#include "pedigree/serialization.h"
#include "pipeline/pipeline_runner.h"
#include "query/query_processor.h"
#include "util/csv.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/snapshot.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace snaps {
namespace {

/// The fault-injection harness itself, the I/O fault points it drives,
/// and the deadline / budget / quarantine behaviour they exercise.

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Reset(); }
  void TearDown() override { FaultInjection::Reset(); }
};

TEST_F(FaultInjectionTest, DisarmedPointsNeverFire) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(SNAPS_FAULT_POINT("test.disarmed"));
  }
}

TEST_F(FaultInjectionTest, FailOnceFiresOnTheNthHitThenDisarms) {
  FaultInjection::ArmFailOnce("test.once", 3);
  EXPECT_FALSE(FaultInjection::ShouldFail("test.once"));
  EXPECT_FALSE(FaultInjection::ShouldFail("test.once"));
  EXPECT_TRUE(FaultInjection::ShouldFail("test.once"));
  EXPECT_FALSE(FaultInjection::ShouldFail("test.once"));
  EXPECT_EQ(FaultInjection::HitCount("test.once"), 4u);
}

TEST_F(FaultInjectionTest, FailAlwaysUntilCleared) {
  FaultInjection::ArmFailAlways("test.always");
  EXPECT_TRUE(FaultInjection::ShouldFail("test.always"));
  EXPECT_TRUE(FaultInjection::ShouldFail("test.always"));
  FaultInjection::Clear("test.always");
  EXPECT_FALSE(FaultInjection::ShouldFail("test.always"));
}

TEST_F(FaultInjectionTest, SeenPointsRecordsCoverageOnceArmed) {
  FaultInjection::ArmFailOnce("test.armed");  // Enables hit counting.
  FaultInjection::ShouldFail("test.a");
  FaultInjection::ShouldFail("test.b");
  FaultInjection::ShouldFail("test.a");
  const std::vector<std::string> seen = FaultInjection::SeenPoints();
  EXPECT_NE(std::find(seen.begin(), seen.end(), "test.a"), seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), "test.b"), seen.end());
  EXPECT_EQ(FaultInjection::HitCount("test.a"), 2u);
  FaultInjection::Reset();
  EXPECT_TRUE(FaultInjection::SeenPoints().empty());
  EXPECT_FALSE(FaultInjection::ShouldFail("test.armed"));
}

TEST_F(FaultInjectionTest, HitCountsAndSeenPointsRestartAcrossReset) {
  FaultInjection::ArmFailOnce("test.reset");
  FaultInjection::ShouldFail("test.reset");
  FaultInjection::ShouldFail("test.reset");
  EXPECT_EQ(FaultInjection::HitCount("test.reset"), 2u);

  FaultInjection::Reset();
  EXPECT_EQ(FaultInjection::HitCount("test.reset"), 0u);
  EXPECT_TRUE(FaultInjection::SeenPoints().empty());
  // Counting stays off after Reset (the disarmed fast path) until
  // some point is armed again.
  FaultInjection::ShouldFail("test.reset");
  EXPECT_EQ(FaultInjection::HitCount("test.reset"), 0u);
  FaultInjection::ArmFailOnce("test.other");
  FaultInjection::ShouldFail("test.reset");
  EXPECT_EQ(FaultInjection::HitCount("test.reset"), 1u);
}

TEST_F(FaultInjectionTest, ReArmingAnArmedPointReplacesTheSetting) {
  // A fresh ArmFailOnce replaces the pending countdown entirely.
  FaultInjection::ArmFailOnce("test.rearm", 1);
  FaultInjection::ArmFailOnce("test.rearm", 3);
  EXPECT_FALSE(FaultInjection::ShouldFail("test.rearm"));
  EXPECT_FALSE(FaultInjection::ShouldFail("test.rearm"));
  EXPECT_TRUE(FaultInjection::ShouldFail("test.rearm"));

  // Downgrading always -> once works the same way.
  FaultInjection::ArmFailAlways("test.rearm");
  FaultInjection::ArmFailOnce("test.rearm", 2);
  EXPECT_FALSE(FaultInjection::ShouldFail("test.rearm"));
  EXPECT_TRUE(FaultInjection::ShouldFail("test.rearm"));
  EXPECT_FALSE(FaultInjection::ShouldFail("test.rearm"));
}

TEST_F(FaultInjectionTest, ArmDelayInjectsLatencyWithoutFailing) {
  FaultInjection::ArmDelay("test.slow", 20.0);
  Timer timer;
  EXPECT_FALSE(FaultInjection::ShouldFail("test.slow"));
  EXPECT_GE(timer.ElapsedSeconds(), 0.019);
  EXPECT_EQ(FaultInjection::HitCount("test.slow"), 1u);

  FaultInjection::Clear("test.slow");
  Timer cleared;
  EXPECT_FALSE(FaultInjection::ShouldFail("test.slow"));
  EXPECT_LT(cleared.ElapsedSeconds(), 0.019);
}

TEST_F(FaultInjectionTest, ArmDelayComposesWithFailureArming) {
  // Delay + fail-once: the hit is both slow and failing; the delay
  // outlives the one-shot failure.
  FaultInjection::ArmDelay("test.slowfail", 10.0);
  FaultInjection::ArmFailOnce("test.slowfail");
  Timer timer;
  EXPECT_TRUE(FaultInjection::ShouldFail("test.slowfail"));
  EXPECT_GE(timer.ElapsedSeconds(), 0.009);
  Timer second;
  EXPECT_FALSE(FaultInjection::ShouldFail("test.slowfail"));
  EXPECT_GE(second.ElapsedSeconds(), 0.009);  // Still slow, not failing.

  // Arming order does not matter: fail first, then slow.
  FaultInjection::ArmFailAlways("test.failslow");
  FaultInjection::ArmDelay("test.failslow", 10.0);
  Timer third;
  EXPECT_TRUE(FaultInjection::ShouldFail("test.failslow"));
  EXPECT_GE(third.ElapsedSeconds(), 0.009);
}

TEST_F(FaultInjectionTest, NegativeDelayIsClampedToZero) {
  FaultInjection::ArmDelay("test.negative", -5.0);
  Timer timer;
  EXPECT_FALSE(FaultInjection::ShouldFail("test.negative"));
  EXPECT_LT(timer.ElapsedSeconds(), 0.005);
}

TEST_F(FaultInjectionTest, InjectedErrorNamesThePoint) {
  const Status s = FaultInjection::InjectedError("csv.read_file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("csv.read_file"), std::string::npos);
}

// ---- I/O fault points. ----

TEST_F(FaultInjectionTest, CsvFileIoPointsFailCleanly) {
  const std::string path = "/tmp/snaps_fault_csv_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello").ok());

  FaultInjection::ArmFailOnce("csv.read_file");
  Result<std::string> r = ReadFileToString(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(ReadFileToString(path).ok());  // Disarmed again.

  FaultInjection::ArmFailOnce("csv.write_file");
  EXPECT_FALSE(WriteStringToFile(path, "x").ok());
  EXPECT_TRUE(WriteStringToFile(path, "x").ok());
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, PedigreeSaveAndLoadPointsFailCleanly) {
  PedigreeGraph graph;
  PedigreeNode n;
  n.first_names = {"mary"};
  graph.AddNode(std::move(n));
  const std::string path = "/tmp/snaps_fault_pedigree_test.csv";

  FaultInjection::ArmFailOnce("pedigree.save");
  EXPECT_FALSE(SavePedigreeGraph(graph, path).ok());
  ASSERT_TRUE(SavePedigreeGraph(graph, path).ok());

  FaultInjection::ArmFailOnce("pedigree.load");
  EXPECT_FALSE(LoadPedigreeGraph(path).ok());
  Result<PedigreeGraph> loaded = LoadPedigreeGraph(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 1u);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, FailedSnapshotRenameLeavesOldFileIntact) {
  const std::string path = "/tmp/snaps_fault_snapshot_test.snap";
  ASSERT_TRUE(SaveSnapshotFile(path, "demo", 1, "old payload").ok());

  // The write of the replacement fails at the rename step: the
  // original snapshot must still load (atomic tmp-then-rename).
  FaultInjection::ArmFailOnce("snapshot.rename");
  EXPECT_FALSE(SaveSnapshotFile(path, "demo", 1, "new payload").ok());
  Result<std::string> payload = LoadSnapshotFile(path, "demo", 1);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "old payload");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---- Snapshot container verification. ----

TEST(SnapshotContainerTest, RoundTripAndHeaderChecks) {
  const std::string payload = "the payload\nwith lines\n";
  const std::string wrapped = WrapSnapshotPayload("kind_a", 3, payload);
  EXPECT_EQ(wrapped.rfind("SNAPSFILE ", 0), 0u);

  Result<std::string> ok = UnwrapSnapshotPayload(wrapped, "kind_a", 3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, payload);

  // Wrong kind, wrong version, foreign file, truncation, corruption:
  // each is rejected with ParseError, never misparsed.
  EXPECT_FALSE(UnwrapSnapshotPayload(wrapped, "kind_b", 3).ok());
  EXPECT_FALSE(UnwrapSnapshotPayload(wrapped, "kind_a", 4).ok());
  EXPECT_FALSE(UnwrapSnapshotPayload("garbage file", "kind_a", 3).ok());
  EXPECT_FALSE(
      UnwrapSnapshotPayload(wrapped.substr(0, wrapped.size() - 5), "kind_a", 3)
          .ok());
  std::string corrupted = wrapped;
  corrupted[corrupted.size() - 4] ^= 0x20;
  const Result<std::string> r = UnwrapSnapshotPayload(corrupted, "kind_a", 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

// ---- Deadline and budget primitives. ----

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(Deadline::Infinite().expired());
}

TEST(DeadlineTest, ZeroDeadlineExpiresImmediately) {
  const Deadline d = Deadline::After(0.0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
  EXPECT_FALSE(Deadline::AfterMillis(60000).expired());
}

TEST(BudgetTest, OperationCap) {
  Budget b(3, Deadline::Infinite());
  EXPECT_TRUE(b.Consume());
  EXPECT_TRUE(b.Consume());
  EXPECT_FALSE(b.Consume());  // Third unit exhausts the cap.
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.used(), 3u);
}

TEST(BudgetTest, UnlimitedByDefault) {
  Budget b;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.Consume());
  EXPECT_FALSE(b.exhausted());
}

// ---- Deadline/budget-bounded ER and search. ----

const Dataset& SmallTown() {
  static const Dataset* d = [] {
    SimulatorConfig cfg;
    cfg.seed = 11;
    cfg.num_founder_couples = 8;
    return new Dataset(PopulationSimulator(cfg).Generate().dataset);
  }();
  return *d;
}

TEST(BoundedErTest, MergeBudgetTruncatesButStillProducesAResult) {
  ErConfig cfg;
  cfg.max_merge_operations = 1;
  const ErResult bounded = ErEngine(cfg).Resolve(SmallTown());
  EXPECT_TRUE(bounded.stats.truncated);

  const ErResult full = ErEngine().Resolve(SmallTown());
  EXPECT_FALSE(full.stats.truncated);
  EXPECT_LE(bounded.MatchedPairs().size(), full.MatchedPairs().size());
}

TEST(BoundedErTest, ExpiredDeadlineTruncates) {
  ErConfig cfg;
  cfg.deadline = Deadline::After(0.0);
  const ErResult result = ErEngine(cfg).Resolve(SmallTown());
  EXPECT_TRUE(result.stats.truncated);
  // Every record still belongs to some entity.
  EXPECT_EQ(result.entities->dataset().num_records(),
            SmallTown().num_records());
}

TEST(BoundedSearchTest, DeadlineBoundedQueryIsFlaggedNotGarbage) {
  const ErResult result = ErEngine().Resolve(SmallTown());
  const PedigreeGraph graph = PedigreeGraph::Build(SmallTown(), result);
  const KeywordIndex keyword(&graph);
  const SimilarityIndex similarity(&keyword);
  const QueryProcessor processor(&keyword, &similarity);

  Query q;
  q.first_name = "*";
  q.surname = "*";

  const SearchOutcome unbounded = processor.Search(q, Deadline::Infinite());
  EXPECT_FALSE(unbounded.truncated);
  EXPECT_EQ(unbounded.results.size(), processor.Search(q).results.size());

  const SearchOutcome bounded = processor.Search(q, Deadline::After(0.0));
  EXPECT_TRUE(bounded.truncated);
  EXPECT_LE(bounded.results.size(), unbounded.results.size());
  for (size_t i = 1; i < bounded.results.size(); ++i) {
    EXPECT_GE(bounded.results[i - 1].score, bounded.results[i].score);
  }
}

// ---- Quarantine ingestion. ----

std::string BadRow(const std::string& cert_id, const std::string& cert_type,
                   const std::string& role) {
  // record_id, cert_id, cert_type, cert_year, role, true_person + the
  // 11 attribute columns, all empty.
  std::string row = "999," + cert_id + "," + cert_type + ",1860," + role + ",";
  for (int i = 0; i < kNumAttrs; ++i) row += ",";
  row.pop_back();
  return row + "\n";
}

Dataset QuarantineBase() {
  Dataset ds;
  const CertId b1 = ds.AddCertificate(CertType::kBirth, 1860);
  auto add = [&ds](CertId cert, Role role, const std::string& first) {
    Record r;
    r.set_value(Attr::kFirstName, first);
    r.set_value(Attr::kSurname, "beaton");
    return ds.AddRecord(cert, role, r);
  };
  add(b1, Role::kBb, "mary");
  add(b1, Role::kBm, "ann");
  // Invalid: a second baby on the same birth certificate. This passes
  // parsing but fails ValidateDataset with error severity.
  const CertId b2 = ds.AddCertificate(CertType::kBirth, 1862);
  add(b2, Role::kBb, "flora");
  add(b2, Role::kBb, "effie");
  const CertId d1 = ds.AddCertificate(CertType::kDeath, 1870);
  add(d1, Role::kDd, "donald");
  return ds;
}

TEST(QuarantineTest, LenientLoadQuarantinesRowsAndCertificates) {
  std::string csv = QuarantineBase().ToCsv();
  csv += "1,2,3\n";                        // Wrong field count.
  csv += BadRow("50", "birth", "zz");      // Unknown role.
  csv += BadRow("51", "wedding", "mb");    // Unknown certificate type.
  csv += BadRow("52", "birth", "mb");      // Role/cert-type mismatch.

  // Strict loading refuses the file outright.
  EXPECT_FALSE(Dataset::FromCsv(csv).ok());

  // Lenient loading quarantines the 4 bad rows and the 1 invalid
  // certificate (with its 2 records) and keeps the rest.
  Result<LoadReport> r = DatasetFromCsvLenient(csv);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_quarantined, 4u);
  EXPECT_EQ(r->certs_quarantined, 1u);
  EXPECT_EQ(r->dataset.num_certificates(), 2u);
  EXPECT_EQ(r->dataset.num_records(), 3u);
  EXPECT_FALSE(r->messages.empty());

  // A well-formed file quarantines no rows.
  Result<LoadReport> ok = DatasetFromCsvLenient(QuarantineBase().ToCsv());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->rows_quarantined, 0u);
  // (The duplicate-baby certificate is still dropped by validation.)
  EXPECT_EQ(ok->certs_quarantined, 1u);
}

TEST(QuarantineTest, PipelineResolvesSalvageableRecordsAndSurfacesCounts) {
  const std::string path = "/tmp/snaps_quarantine_pipeline_test.csv";
  std::string csv = QuarantineBase().ToCsv();
  csv += "bad,row\n";
  ASSERT_TRUE(WriteStringToFile(path, csv).ok());

  const PipelineConfig config;
  PipelineRunner runner(config);
  LoadReport report;
  Result<PipelineOutput> out = runner.RunCsvFile(path, &report);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The bad row and the invalid certificate are quarantined, visible
  // in the run statistics, and the remaining records resolve.
  EXPECT_EQ(out->er.stats.rows_quarantined, 1u);
  EXPECT_EQ(out->er.stats.certs_quarantined, 1u);
  EXPECT_EQ(report.dataset.num_records(), 3u);
  EXPECT_GE(out->pedigree->num_nodes(), 1u);
  std::remove(path.c_str());
}

TEST(QuarantineTest, LoadDatasetLenientReadsFromDisk) {
  const std::string path = "/tmp/snaps_quarantine_test.csv";
  std::string csv = QuarantineBase().ToCsv();
  csv += "only,three,fields\n";
  ASSERT_TRUE(WriteStringToFile(path, csv).ok());
  Result<LoadReport> r = LoadDatasetLenient(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_quarantined, 1u);
  EXPECT_EQ(r->certs_quarantined, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace snaps
