#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datagen/simulator.h"
#include "pipeline/pipeline_runner.h"
#include "pipeline/state_serialization.h"
#include "util/fault_injection.h"
#include "util/snapshot.h"

namespace snaps {
namespace {

namespace fs = std::filesystem;

/// Kill/resume correctness of the checkpointing pipeline: a run killed
/// after any phase and resumed in a fresh process-equivalent runner
/// must produce results bit-identical to an uninterrupted run.

Dataset MakeTown(uint64_t seed) {
  SimulatorConfig cfg;
  cfg.seed = seed;
  cfg.num_founder_couples = 7;
  return PopulationSimulator(cfg).Generate().dataset;
}

const Dataset& TestTown() {
  static const Dataset* d = new Dataset(MakeTown(7));
  return *d;
}

const ErResult& Baseline() {
  static const ErResult* r = new ErResult(ErEngine().Resolve(TestTown()));
  return *r;
}

bool LogContains(const std::vector<std::string>& log,
                 const std::string& needle) {
  for (const std::string& line : log) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

class PipelineResumeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Reset(); }
  void TearDown() override {
    FaultInjection::Reset();
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  std::string NewDir(const std::string& tag) {
    dir_ = (fs::temp_directory_path() / ("snaps_resume_" + tag)).string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    return dir_;
  }

  PipelineConfig Config(const std::string& dir) {
    PipelineConfig cfg;
    cfg.checkpoint_dir = dir;
    cfg.keep_checkpoints = true;
    return cfg;
  }

  void ExpectMatchesBaseline(const PipelineOutput& out) {
    EXPECT_EQ(out.er.MatchedPairs(), Baseline().MatchedPairs());
    EXPECT_EQ(out.er.entities->AllEntities().size(),
              Baseline().entities->AllEntities().size());
  }

  std::string dir_;
};

TEST_F(PipelineResumeTest, UncheckpointedRunMatchesResolve) {
  const PipelineConfig config;
  PipelineRunner runner(config);
  Result<PipelineOutput> out = runner.Run(TestTown());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectMatchesBaseline(*out);
  const PedigreeGraph reference = PedigreeGraph::Build(TestTown(), Baseline());
  EXPECT_EQ(out->pedigree->num_nodes(), reference.num_nodes());
  EXPECT_TRUE(out->keyword_index != nullptr);
  EXPECT_TRUE(out->similarity_index != nullptr);
  EXPECT_FALSE(LogContains(out->phase_log, "resumed"));
}

TEST_F(PipelineResumeTest, ResumeAfterEveryPhaseIsBitIdentical) {
  const PipelineConfig default_config;
  const std::vector<std::string> er_phases =
      PipelineRunner(default_config).ErPhaseNames();
  std::vector<std::string> kill_points = er_phases;
  kill_points.push_back("pedigree");

  for (const std::string& phase : kill_points) {
    SCOPED_TRACE("killed after phase " + phase);
    const std::string dir = NewDir(phase);

    // First process: killed right after `phase` (checkpoint on disk).
    FaultInjection::ArmFailOnce("pipeline.after." + phase);
    PipelineRunner first(Config(dir));
    Result<PipelineOutput> killed = first.Run(TestTown());
    ASSERT_FALSE(killed.ok());
    EXPECT_NE(killed.status().message().find(phase), std::string::npos);
    FaultInjection::Reset();

    // Second process: resumes from the snapshot, never re-runs the
    // completed phases, and matches the uninterrupted run exactly.
    PipelineRunner second(Config(dir));
    Result<PipelineOutput> resumed = second.Run(TestTown());
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectMatchesBaseline(*resumed);
    EXPECT_TRUE(LogContains(resumed->phase_log, "resumed from checkpoint"));
    for (const std::string& done : er_phases) {
      if (done == phase) break;
      EXPECT_FALSE(LogContains(resumed->phase_log, done + ": computed"))
          << done << " was recomputed after resume from " << phase;
    }
    fs::remove_all(dir);
  }
}

TEST_F(PipelineResumeTest, CorruptSnapshotFallsBackToEarlierPhase) {
  const std::string dir = NewDir("corrupt");
  PipelineRunner runner(Config(dir));
  ASSERT_TRUE(runner.Run(TestTown()).ok());

  // Flip one payload byte in the newest ER snapshot; the resumed run
  // must reject it (checksum) and fall back to an older phase.
  const std::string path = runner.SnapshotPath("refine");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(200);
    f.put('\xff');
  }
  PipelineRunner again(Config(dir));
  Result<PipelineOutput> out = again.Run(TestTown());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectMatchesBaseline(*out);
  EXPECT_TRUE(LogContains(out->phase_log, "refine: snapshot rejected"));
}

TEST_F(PipelineResumeTest, SnapshotFromDifferentDatasetIsRejected) {
  const std::string dir = NewDir("foreign");
  PipelineRunner runner(Config(dir));
  ASSERT_TRUE(runner.Run(TestTown()).ok());

  // Same checkpoint dir, different input data: every snapshot must be
  // rejected (dataset fingerprint) and the run recomputed from scratch.
  const Dataset other = MakeTown(8);
  PipelineRunner again(Config(dir));
  Result<PipelineOutput> out = again.Run(other);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(LogContains(out->phase_log, "snapshot rejected"));
  EXPECT_FALSE(LogContains(out->phase_log, "resumed from checkpoint"));
  const ErResult reference = ErEngine().Resolve(other);
  EXPECT_EQ(out->er.MatchedPairs(), reference.MatchedPairs());
}

TEST_F(PipelineResumeTest, VersionMismatchedSnapshotIsRejected) {
  const std::string dir = NewDir("version");
  PipelineRunner runner(Config(dir));
  ASSERT_TRUE(runner.Run(TestTown()).ok());

  // Rewrite the newest snapshot under a future format version; resume
  // must skip it instead of misparsing it.
  const std::string path = runner.SnapshotPath("refine");
  Result<std::string> payload =
      LoadSnapshotFile(path, "er_state", kErStateFormatVersion);
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(SaveSnapshotFile(path, "er_state", kErStateFormatVersion + 1,
                               *payload)
                  .ok());
  PipelineRunner again(Config(dir));
  Result<PipelineOutput> out = again.Run(TestTown());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectMatchesBaseline(*out);
  EXPECT_TRUE(LogContains(out->phase_log, "refine: snapshot rejected"));
}

TEST_F(PipelineResumeTest, CheckpointsRemovedAfterSuccessByDefault) {
  const std::string dir = NewDir("cleanup");
  PipelineConfig cfg = Config(dir);
  cfg.keep_checkpoints = false;
  PipelineRunner runner(cfg);
  ASSERT_TRUE(runner.Run(TestTown()).ok());
  size_t remaining = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++remaining;
  }
  EXPECT_EQ(remaining, 0u);
}

TEST_F(PipelineResumeTest, CheckpointSaveFailureDoesNotAbortTheRun) {
  const std::string dir = NewDir("savefail");
  FaultInjection::ArmFailAlways("snapshot.save");
  PipelineRunner runner(Config(dir));
  Result<PipelineOutput> out = runner.Run(TestTown());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectMatchesBaseline(*out);
  EXPECT_TRUE(LogContains(out->phase_log, "checkpoint save failed"));
}

TEST(StateSerializationTest, MidRunRoundTripContinuesIdentically) {
  const Dataset& ds = TestTown();
  const ErEngine engine;
  ErRunState a;
  engine.InitState(ds, &a);
  engine.BuildGraphPhase(&a);
  engine.BootstrapPhase(&a);

  ErRunState b;
  const std::string payload = SerializeErRunState(a);
  ASSERT_TRUE(DeserializeErRunState(payload, engine, ds, &b).ok());

  for (int pass = 0; pass < engine.config().merge_passes; ++pass) {
    engine.MergePassPhase(&a, pass);
    engine.MergePassPhase(&b, pass);
  }
  engine.FinalRefinePhase(&a);
  engine.FinalRefinePhase(&b);
  const ErResult ra = engine.FinishState(std::move(a));
  const ErResult rb = engine.FinishState(std::move(b));
  EXPECT_EQ(ra.MatchedPairs(), rb.MatchedPairs());
  EXPECT_EQ(ra.entities->AllEntities().size(),
            rb.entities->AllEntities().size());
}

TEST(StateSerializationTest, RejectsStateForDifferentDataset) {
  const Dataset& ds = TestTown();
  const ErEngine engine;
  ErRunState st;
  engine.InitState(ds, &st);
  engine.BuildGraphPhase(&st);
  const std::string payload = SerializeErRunState(st);

  const Dataset other = MakeTown(9);
  ErRunState restored;
  const Status s = DeserializeErRunState(payload, engine, other, &restored);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dataset"), std::string::npos);
}

}  // namespace
}  // namespace snaps
