// The linkage harness. Every preset blocks each data set once,
// clusters the shared candidates through the Clusterer registry,
// evaluates linkage quality per role-pair class, times each run and
// writes the runs to JSON (--out; default BENCH_ablation_<preset>.json).
//
// Presets (--preset):
//   matrix    (default) every registered blocker x clusterer x link
//             constraints {on, off} on one synthetic town, each
//             combination re-run at --threads: canonical labels must be
//             byte-identical at 1 and T threads (docs/PARALLELISM.md).
//   table3    Table 3: SNAPS without PROP, AMB, REL or REF (IOS-like).
//   table4-5  Tables 4 and 5: SNAPS vs Attr-Sim, Dep-Graph, Rel-Cluster
//             and Magellan on IOS-like and KIL-like, one run per method.
//   params    t_m / gamma / t_a / t_d sweeps of SNAPS (IOS-like, Bp-Bp).
//   census    IOS-like without vs with census households (Section 12).
//
// Usage:
//   bench_ablation_matrix [--preset P] [--couples N] [--seed S]
//                         [--threads T] [--min-fstar F] [--out FILE]
//
// --couples, --seed, --threads and --min-fstar shape the matrix; the
// paper presets run the fixed IOS-like / KIL-like sets at one thread.
// Attr-Sim and Magellan stay outside the registry (thresholded pairs
// that are not a partition; mean +- std over train/test runs): they
// block for themselves and are printed, not written.
//
// Exits non-zero when the JSON cannot be written, and for the matrix
// when any combination diverges across thread counts or the default
// combination (lsh + graph + constraints on) scores a Bp-Bp F* below
// --min-fstar (the CI regression gate).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/attr_sim.h"
#include "baselines/clusterer_registry.h"
#include "bench/bench_util.h"
#include "blocking/blocker_registry.h"
#include "learn/magellan.h"
#include "util/csv.h"
#include "util/execution_context.h"
#include "util/timer.h"

namespace snaps {
namespace {

using bench::PrintHeader;
using bench::PrintQuality;

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

struct Options {
  SimulatorConfig sim;
  int threads = 8;
  double min_fstar = 0.0;
  std::string out_path;
};

/// A data set blocked once; every clusterer of a preset shares it.
struct Blocked {
  std::string data;
  const Dataset* dataset = nullptr;
  std::string blocker;
  std::vector<CandidatePair> candidates;
  double seconds = 0.0;  // 1-thread wall clock.
};

/// One linkage run. `data` and `label` name the row of a paper
/// preset and stay empty in the matrix.
struct Run {
  std::string data;
  std::string label;
  std::string blocker;
  std::string clusterer;
  bool constraints = true;
  size_t num_candidates = 0;
  LinkageQuality bp_bp;
  LinkageQuality bp_dp;
  double blocking_seconds = 0.0;
  double cluster_seconds = 0.0;  // 1-thread wall clock.
  double cluster_seconds_mt = 0.0;
  bool deterministic = true;
  ErStats stats;  // The clusterer's; entity count and merge time.
  std::vector<std::pair<RecordId, RecordId>> matched;

  double Seconds() const { return blocking_seconds + cluster_seconds; }
};

Blocked Block(std::string data, const Dataset& dataset,
              const std::string& blocker_name) {
  BlockerSpec spec;
  spec.name = blocker_name;
  Blocked b;
  b.data = std::move(data);
  b.dataset = &dataset;
  b.blocker = blocker_name;
  Timer timer;
  b.candidates =
      CreateBlocker(spec).value()->CandidatePairs(dataset, ExecutionContext(1));
  b.seconds = timer.ElapsedSeconds();
  return b;
}

/// "Constraints off" means whatever constraint machinery a technique
/// has: PROP-C for the dependency-graph approaches, the temporal/size
/// merge guards for the baselines.
ClustererSpec SpecFor(const std::string& name, bool constraints) {
  ClustererSpec spec;
  spec.name = name;
  spec.graph.enable_prop_c = constraints;
  spec.depgraph.er.enable_prop_c = constraints;
  spec.hier.use_constraints = constraints;
  spec.relcluster.use_constraints = constraints;
  return spec;
}

bool ConstraintsOn(const ClustererSpec& spec) {
  return spec.graph.enable_prop_c && spec.depgraph.er.enable_prop_c &&
         spec.hier.use_constraints && spec.relcluster.use_constraints;
}

/// Clusters `b` at one thread and evaluates the run. With
/// `check_threads` > 1 the run is repeated at that thread count and
/// `deterministic` records whether the labels are byte-identical.
Run RunClusterer(const Blocked& b, std::string label,
                 const ClustererSpec& spec, int check_threads = 1) {
  const std::unique_ptr<Clusterer> clusterer = CreateClusterer(spec).value();
  Run r;
  r.data = b.data;
  r.label = std::move(label);
  r.blocker = b.blocker;
  r.clusterer = spec.name;
  r.constraints = ConstraintsOn(spec);
  r.num_candidates = b.candidates.size();
  r.blocking_seconds = b.seconds;
  Timer timer;
  const ClustererResult serial =
      clusterer->Cluster(*b.dataset, b.candidates, ExecutionContext(1));
  r.cluster_seconds = timer.ElapsedSeconds();
  if (check_threads > 1) {
    Timer timer_mt;
    const ClustererResult parallel = clusterer->Cluster(
        *b.dataset, b.candidates,
        ExecutionContext(static_cast<size_t>(check_threads)));
    r.cluster_seconds_mt = timer_mt.ElapsedSeconds();
    r.deterministic = parallel.cluster_of == serial.cluster_of;
  }
  r.stats = serial.stats;
  r.matched = serial.MatchedPairs();
  r.bp_bp = EvaluatePairs(*b.dataset, r.matched, RolePairClass::kBpBp);
  r.bp_dp = EvaluatePairs(*b.dataset, r.matched, RolePairClass::kBpDp);
  return r;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Writes `head`, the runs as the "combinations" array, and `tail`.
bool WriteJson(const std::string& path, const std::string& head,
               const std::vector<Run>& runs, const std::string& tail) {
  std::string json = head;
  char buf[512];
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    json += "    {";
    if (!r.label.empty()) {
      json += "\"data\": \"" + Escape(r.data) + "\", \"label\": \"" +
              Escape(r.label) + "\", ";
    }
    std::snprintf(
        buf, sizeof(buf),
        "\"blocker\": \"%s\", \"clusterer\": \"%s\", "
        "\"constraints\": %s, \"candidates\": %zu, \"entities\": %zu, "
        "\"bp_bp\": {\"precision\": %.4f, \"recall\": %.4f, "
        "\"fstar\": %.4f}, "
        "\"bp_dp\": {\"precision\": %.4f, \"recall\": %.4f, "
        "\"fstar\": %.4f}, "
        "\"blocking_seconds\": %.4f, \"cluster_seconds\": %.4f, "
        "\"cluster_seconds_mt\": %.4f, \"merge_seconds\": %.4f, "
        "\"deterministic\": %s}%s\n",
        Escape(r.blocker).c_str(), Escape(r.clusterer).c_str(),
        r.constraints ? "true" : "false", r.num_candidates,
        r.stats.num_entities,
        r.bp_bp.Precision(), r.bp_bp.Recall(), r.bp_bp.FStar(),
        r.bp_dp.Precision(), r.bp_dp.Recall(), r.bp_dp.FStar(),
        r.blocking_seconds, r.cluster_seconds, r.cluster_seconds_mt,
        r.stats.merge_seconds, r.deterministic ? "true" : "false",
        i + 1 < runs.size() ? "," : "");
    json += buf;
  }
  json += tail;
  const Status write_status = WriteStringToFile(path, json);
  if (!write_status.ok()) {
    std::fprintf(stderr, "[bench] cannot write %s: %s\n", path.c_str(),
                 write_status.ToString().c_str());
    return false;
  }
  std::printf("[bench] wrote %s (%zu combinations)\n", path.c_str(),
              runs.size());
  return true;
}

/// JSON of a paper preset: its runs plus the machine's thread count.
int WritePresetJson(const Options& opt, const char* preset,
                    const std::vector<Run>& runs) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\n  \"preset\": \"%s\",\n  \"hardware_threads\": %zu,\n"
                "  \"combinations\": [\n",
                preset, ExecutionContext::HardwareThreads());
  return WriteJson(opt.out_path, head, runs, "  ]\n}\n") ? 0 : 1;
}

// ------------------------------------------------------------ matrix

int RunMatrix(const Options& opt) {
  const GeneratedData data = PopulationSimulator(opt.sim).Generate();
  std::printf("[bench] ablation matrix: %zu records, %zu certificates, "
              "%d-thread determinism check\n",
              data.dataset.num_records(), data.dataset.num_certificates(),
              opt.threads);

  std::vector<Run> runs;
  bool all_deterministic = true;
  double default_fstar = -1.0;

  for (const std::string& blocker_name : RegisteredBlockerNames()) {
    const Blocked blocked = Block("", data.dataset, blocker_name);
    BlockerSpec bspec;
    bspec.name = blocker_name;
    if (CreateBlocker(bspec).value()->CandidatePairs(
            data.dataset,
            ExecutionContext(static_cast<size_t>(opt.threads))) !=
        blocked.candidates) {
      std::fprintf(stderr,
                   "[bench] FAIL: blocker '%s' diverges at %d threads\n",
                   blocker_name.c_str(), opt.threads);
      all_deterministic = false;
    }
    std::printf("[bench] blocker %-5s %8zu candidate pairs  %6.2fs\n",
                blocker_name.c_str(), blocked.candidates.size(),
                blocked.seconds);

    for (const std::string& clusterer_name : RegisteredClustererNames()) {
      for (const bool constraints : {true, false}) {
        Run r = RunClusterer(blocked, "", SpecFor(clusterer_name, constraints),
                             opt.threads);
        if (!r.deterministic) {
          std::fprintf(stderr,
                       "[bench] FAIL: %s + %s (constraints %s) diverges "
                       "at %d threads\n",
                       blocker_name.c_str(), clusterer_name.c_str(),
                       constraints ? "on" : "off", opt.threads);
          all_deterministic = false;
        }
        if (blocker_name == "lsh" && clusterer_name == "graph" &&
            constraints) {
          default_fstar = r.bp_bp.FStar();
        }
        std::printf(
            "[bench] %-5s + %-10s constraints=%-3s  Bp-Bp P=%.3f R=%.3f "
            "F*=%.3f  Bp-Dp F*=%.3f  %6.2fs%s\n",
            blocker_name.c_str(), clusterer_name.c_str(),
            constraints ? "on" : "off", r.bp_bp.Precision(), r.bp_bp.Recall(),
            r.bp_bp.FStar(), r.bp_dp.FStar(), r.cluster_seconds,
            r.deterministic ? "" : "  DIVERGED");
        runs.push_back(std::move(r));
      }
    }
  }

  char head[512];
  std::snprintf(head, sizeof(head),
                "{\n  \"records\": %zu,\n  \"certificates\": %zu,\n"
                "  \"seed\": %" PRIu64 ",\n  \"threads_checked\": %d,\n"
                "  \"hardware_threads\": %zu,\n  \"combinations\": [\n",
                data.dataset.num_records(), data.dataset.num_certificates(),
                opt.sim.seed, opt.threads,
                ExecutionContext::HardwareThreads());
  char tail[128];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"all_deterministic\": %s,\n"
                "  \"default_bp_bp_fstar\": %.4f\n}\n",
                all_deterministic ? "true" : "false", default_fstar);
  if (!WriteJson(opt.out_path, head, runs, tail)) return 1;

  if (!all_deterministic) {
    std::fprintf(stderr, "[bench] FAIL: determinism check failed\n");
    return 1;
  }
  if (default_fstar < opt.min_fstar) {
    std::fprintf(stderr,
                 "[bench] FAIL: default combination (lsh + graph + "
                 "constraints) Bp-Bp F* %.4f below gate %.4f\n",
                 default_fstar, opt.min_fstar);
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------ table3

int RunTable3(const Options& opt) {
  PrintHeader(
      "Table 3: ablation analysis for SNAPS on the IOS-like data set\n"
      "(each key technique of Section 4.2 removed in turn)");
  const Blocked blocked = Block("IOS-like", bench::IosData().dataset, "lsh");
  const struct {
    const char* label;
    void (*ablate)(ErConfig*);
  } rows[] = {
      {"SNAPS (full)", [](ErConfig*) {}},
      {"without PROP-A and PROP-C",
       [](ErConfig* cfg) {
         cfg->enable_prop_a = false;
         cfg->enable_prop_c = false;
       }},
      {"without AMB", [](ErConfig* cfg) { cfg->enable_amb = false; }},
      {"without REL", [](ErConfig* cfg) { cfg->enable_rel = false; }},
      {"without REF", [](ErConfig* cfg) { cfg->enable_ref = false; }},
  };
  std::vector<Run> runs;
  for (const auto& row : rows) {
    ClustererSpec spec;
    row.ablate(&spec.graph);
    Run r = RunClusterer(blocked, row.label, spec);
    std::printf("\n%s (%.1fs):\n", row.label, r.Seconds());
    PrintQuality("Bp-Bp", r.bp_bp);
    PrintQuality("Bp-Dp", r.bp_dp);
    runs.push_back(std::move(r));
  }
  std::printf(
      "\nShape check vs paper: removing AMB collapses precision (ambiguous\n"
      "same-name merges); removing REL costs recall (partial-match groups\n"
      "block whole-group merges); removing REF costs precision (wrong links\n"
      "survive); removing PROP costs overall quality (no propagated\n"
      "positive/negative evidence).\n");
  return WritePresetJson(opt, "table3", runs);
}

// ---------------------------------------------------------- table4-5

/// One data set of Tables 4 and 5: SNAPS, Attr-Sim, Dep-Graph and
/// Rel-Cluster rows in table order, plus the Magellan summary.
struct BaselineRuns {
  const char* name;
  std::vector<Run> rows;
  std::vector<MagellanSummary> magellan;
  double magellan_seconds = 0.0;
};

BaselineRuns RunBaselines(const char* name, const Dataset& ds,
                          std::vector<Run>* clustered) {
  BaselineRuns out;
  out.name = name;
  const Blocked blocked = Block(name, ds, "lsh");
  out.rows.push_back(RunClusterer(blocked, "SNAPS", SpecFor("graph", true)));

  Run attr;
  attr.label = "Attr-Sim";
  Timer attr_timer;
  attr.matched = AttrSimBaseline().Link(ds);
  attr.cluster_seconds = attr_timer.ElapsedSeconds();
  attr.bp_bp = EvaluatePairs(ds, attr.matched, RolePairClass::kBpBp);
  attr.bp_dp = EvaluatePairs(ds, attr.matched, RolePairClass::kBpDp);
  out.rows.push_back(std::move(attr));

  out.rows.push_back(
      RunClusterer(blocked, "Dep-Graph", SpecFor("depgraph", true)));
  out.rows.push_back(
      RunClusterer(blocked, "Rel-Cluster", SpecFor("relcluster", true)));
  for (Run& r : out.rows) {
    if (!r.clusterer.empty()) clustered->push_back(r);
  }

  out.magellan = MagellanBaseline::Summarize(MagellanBaseline().Run(
      ds, {RolePairClass::kBpBp, RolePairClass::kBpDp},
      &out.magellan_seconds));
  return out;
}

int RunTables45(const Options& opt) {
  std::vector<Run> clustered;
  const BaselineRuns sets[] = {
      RunBaselines("IOS-like", bench::IosData().dataset, &clustered),
      RunBaselines("KIL-like", bench::KilData().dataset, &clustered),
  };

  PrintHeader(
      "Table 4: precision (P), recall (R) and F*-measure of SNAPS compared\n"
      "to the baselines (Magellan substitute: averages ± standard "
      "deviations)");
  for (const BaselineRuns& set : sets) {
    std::printf("\n----- %s -----\n", set.name);
    for (RolePairClass cls : {RolePairClass::kBpBp, RolePairClass::kBpDp}) {
      std::printf("\n%s (%s):\n", set.name, RolePairClassName(cls));
      for (const Run& r : set.rows) {
        PrintQuality(r.label.c_str(),
                     cls == RolePairClass::kBpBp ? r.bp_bp : r.bp_dp);
      }
      for (const MagellanSummary& s : set.magellan) {
        if (s.role_pair != cls) continue;
        std::printf(
            "  %-12s P=%6.1f±%-4.1f R=%6.1f±%-4.1f F*=%6.1f±%-4.1f (%zu "
            "runs)\n",
            "Magellan", s.precision_mean, s.precision_std, s.recall_mean,
            s.recall_std, s.fstar_mean, s.fstar_std, s.runs);
      }
    }
  }
  std::printf(
      "\nShape check vs paper: SNAPS wins on F* everywhere; Attr-Sim has\n"
      "high recall but poor precision; Dep-Graph and Rel-Cluster sit in\n"
      "between; the supervised baseline shows large standard deviations\n"
      "across classifiers and training regimes.\n");

  // Runtimes are blocking plus clustering for the registry techniques;
  // Attr-Sim and Magellan time their own blocking.
  PrintHeader(
      "Table 5: runtime results (seconds) for the offline component of\n"
      "SNAPS and the baselines");
  for (const BaselineRuns& set : sets) {
    std::printf("\n%s:  |N_A|=%zu  |N_R|=%zu\n", set.name,
                set.rows[0].stats.num_atomic_nodes,
                set.rows[0].stats.num_rel_nodes);
    std::printf("  %-12s %10s\n", "Method", "Time (s)");
    for (const Run& r : set.rows) {
      std::printf("  %-12s %10.2f\n", r.label.c_str(), r.Seconds());
    }
    std::printf("  %-12s %10.2f\n", "Magellan", set.magellan_seconds);
  }
  std::printf(
      "\nShape check vs paper: Attr-Sim is the fastest (pairwise only)\n"
      "and SNAPS costs more than Dep-Graph (it addresses all the\n"
      "challenges). Divergences: our Magellan substitute caps training\n"
      "at a labelled sample (Section 10's cost argument), so unlike the\n"
      "paper's full-corpus Python training it is cheap; our Rel-Cluster\n"
      "bounds the re-evaluation rounds, so it does not dominate the\n"
      "runtime as the paper's does on KIL.\n");
  return WritePresetJson(opt, "table4-5", clustered);
}

// ------------------------------------------------------------ params

int RunParams(const Options& opt) {
  PrintHeader(
      "Parameter sensitivity of SNAPS on the IOS-like data set (Bp-Bp)\n"
      "(supplementary: the paper's defaults t_m=0.85, t_a=0.9, gamma=0.6,\n"
      "t_d=0.3 come from such an analysis)");
  const Blocked blocked = Block("IOS-like", bench::IosData().dataset, "lsh");
  const struct {
    const char* param;
    std::vector<double> values;
    void (*apply)(ErConfig*, double);
  } sweeps[] = {
      {"t_m",
       {0.75, 0.80, 0.85, 0.90, 0.95},
       [](ErConfig* cfg, double v) { cfg->merge_threshold = v; }},
      {"gamma",
       {0.4, 0.5, 0.6, 0.7, 0.8, 1.0},
       [](ErConfig* cfg, double v) { cfg->gamma = v; }},
      {"t_a",
       {0.80, 0.85, 0.90, 0.95},
       [](ErConfig* cfg, double v) { cfg->atomic_threshold = v; }},
      {"t_d",
       {0.1, 0.2, 0.3, 0.5},
       [](ErConfig* cfg, double v) { cfg->refine_density = v; }},
  };
  std::vector<Run> runs;
  for (const auto& sweep : sweeps) {
    std::printf("\nSweep of %s:\n", sweep.param);
    std::printf("  %8s %8s %8s %8s\n", sweep.param, "P", "R", "F*");
    for (double v : sweep.values) {
      ClustererSpec spec;
      sweep.apply(&spec.graph, v);
      char label[32];
      std::snprintf(label, sizeof(label), "%s=%.2f", sweep.param, v);
      Run r = RunClusterer(blocked, label, spec);
      std::printf("  %8.2f %8.2f %8.2f %8.2f\n", v, 100 * r.bp_bp.Precision(),
                  100 * r.bp_bp.Recall(), 100 * r.bp_bp.FStar());
      runs.push_back(std::move(r));
    }
  }
  std::printf(
      "\nShape check: quality degrades away from the paper's defaults --\n"
      "low t_m / high gamma trade precision for recall; the defaults sit\n"
      "near the F* optimum.\n");
  return WritePresetJson(opt, "params", runs);
}

// ------------------------------------------------------------ census

int RunCensus(const Options& opt) {
  PrintHeader(
      "Census incorporation (supplementary; the paper's future work):\n"
      "IOS-like statutory linkage quality without vs. with decennial\n"
      "census household snapshots in the record set");
  std::vector<Run> runs;
  for (const bool with_census : {false, true}) {
    const char* label = with_census ? "with census" : "without census";
    SimulatorConfig cfg = SimulatorConfig::IosLike();
    cfg.with_census = with_census;
    const GeneratedData data = PopulationSimulator(cfg).Generate();
    Run r = RunClusterer(Block("IOS-like", data.dataset, "lsh"), label,
                         ClustererSpec());
    std::printf("\n%s: records=%zu  |N_R|=%zu  total=%.1fs\n", label,
                data.dataset.num_records(), r.stats.num_rel_nodes,
                r.Seconds());
    PrintQuality("Bp-Bp", r.bp_bp);
    PrintQuality("Bp-Dp", r.bp_dp);
    PrintQuality("Bb-Dd",
                 EvaluatePairs(data.dataset, r.matched, RolePairClass::kBbDd));
    runs.push_back(std::move(r));
  }
  std::printf(
      "\nReading: census households contribute additional relationship\n"
      "evidence (whole families observed together between vital events)\n"
      "at the cost of a larger dependency graph; the statutory role-pair\n"
      "quality shows how much of that evidence the ER step converts.\n");
  return WritePresetJson(opt, "census", runs);
}

int Main(int argc, char** argv) {
  const struct {
    const char* name;
    int (*run)(const Options&);
  } presets[] = {
      {"matrix", RunMatrix}, {"table3", RunTable3}, {"table4-5", RunTables45},
      {"params", RunParams}, {"census", RunCensus},
  };
  const char* preset = FlagValue(argc, argv, "--preset");
  if (preset == nullptr) preset = "matrix";

  Options opt;
  opt.sim.num_founder_couples = 25;
  if (const char* v = FlagValue(argc, argv, "--couples")) {
    opt.sim.num_founder_couples = static_cast<size_t>(std::atoll(v));
  }
  if (const char* v = FlagValue(argc, argv, "--seed")) {
    opt.sim.seed = static_cast<uint64_t>(std::atoll(v));
  }
  if (const char* v = FlagValue(argc, argv, "--threads")) {
    opt.threads = std::atoi(v);
  }
  if (const char* v = FlagValue(argc, argv, "--min-fstar")) {
    opt.min_fstar = std::atof(v);
  }
  opt.out_path = "BENCH_ablation_" + std::string(preset) + ".json";
  if (const char* v = FlagValue(argc, argv, "--out")) opt.out_path = v;

  std::string names;
  for (const auto& p : presets) {
    if (std::strcmp(p.name, preset) == 0) return p.run(opt);
    names += names.empty() ? p.name : std::string(", ") + p.name;
  }
  std::fprintf(stderr, "[bench] unknown preset '%s' (presets: %s)\n", preset,
               names.c_str());
  return 2;
}

}  // namespace
}  // namespace snaps

int main(int argc, char** argv) { return snaps::Main(argc, argv); }
