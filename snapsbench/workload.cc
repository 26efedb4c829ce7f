// snapsbench: runs one named SNAPS workload end to end and prints its
// metrics as one JSON line. See README.md for the workloads, metrics and
// the checks every run makes.
//
//   snapsbench --workload search-hot --seed 1 --seconds 10 --trace 0
//              --work-dir <scratch dir> --results-dir <dir for traces>

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blocking/blocker_registry.h"
#include "core/er_engine.h"
#include "index/keyword_index.h"
#include "index/similarity_index.h"
#include "inputs.h"
#include "oracle.h"
#include "pedigree/extraction.h"
#include "pedigree/serialization.h"
#include "pipeline/pipeline_runner.h"
#include "pipeline/state_serialization.h"
#include "serve/artifacts.h"
#include "serve/snaps_service.h"
#include "trace.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace snapsbench {
namespace {

namespace fs = std::filesystem;
using snaps::PedigreeGraph;
using snaps::PedigreeNodeId;
using snaps::QueryField;
using snaps::SearchArtifacts;
using snaps::SnapsService;

const Clock::time_point g_process_start = Clock::now();

// Requests run single-threaded before the timed window (the first one
// ends set-up), and the window ends only on a multiple of kRound.
constexpr size_t kWarmup = 200;
constexpr size_t kRound = 50;
constexpr size_t kStreamLength = 30000;
// Enough searches that ten lie beyond the 99th percentile.
constexpr size_t kMinSearches = 1000;
constexpr size_t kMaxReferenceSamples = 150;
constexpr size_t kServiceSamples = 300;
constexpr int kErThreads = 4;
// Index build threads of an offline-kil reload (capped by nproc - 1).
constexpr int kReloadThreads = 3;
constexpr int kPedigreeGenerations = 2;

struct Spec {
  const char* name;
  Preset preset;
  // The offline workload: PipelineRunner writes phase snapshots,
  // generation 1 adopts the pipeline's own indexes, reloads build on
  // kReloadThreads, and the operations are resolved entities rather
  // than requests.
  bool offline;
  bool hot_stream;      // Hot-name searches, else typo traffic.
  int clients;          // Closed-loop client threads (capped by nproc - 1).
  size_t reload_every;  // In-window reloads at multiples of this many
                        // window requests; 0 reloads after the window.
  int reloads;
  size_t min_searches;  // Searches the window must complete.
};

const Spec kSpecs[] = {
    // Three times the floor: KIL-like searches are slow, so this floor,
    // not the run length, ends the window, with 30 searches beyond its
    // 99th percentile.
    {"offline-kil", Preset::kKilLike, true, true, 1, 0, 1, 3 * kMinSearches},
    {"search-hot", Preset::kIosLike, false, true, 1, 0, 3, kMinSearches},
    {"serve-typo-reload", Preset::kIosLike, false, false, 3, 1200, 3, kMinSearches},
};

struct Options {
  const Spec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string results_dir;
};

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Since(Clock::time_point t) { return std::chrono::duration<double>(Clock::now() - t).count(); }

/// Collects failed checks; any entry makes the run incorrect.
struct Checks {
  std::vector<std::string> problems;
  void Expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void ExpectEmpty(const std::string& diff, const std::string& what) {
    if (!diff.empty()) problems.push_back(what + ": " + diff);
  }
};

/// Everything one request returned, kept for the checks after the run.
struct Outcome {
  bool ok = false;
  double latency_us = 0.0;
  uint64_t generation = 0;
  PedigreeNodeId target = 0;
  std::vector<snaps::RankedResult> results;
  snaps::FamilyPedigree pedigree;
  std::vector<snaps::RecordId> lookup_records;
  PedigreeNodeId lookup_id = 0;
};

struct Deployment {
  std::unique_ptr<SnapsService> service;
  size_t num_nodes = 0;
  std::array<std::atomic<uint64_t>, snaps::kNumRequestKinds> sent{};
};

PedigreeNodeId NodeOf(const Request& req, size_t num_nodes) {
  return static_cast<PedigreeNodeId>(
      std::min(num_nodes - 1, static_cast<size_t>(req.node_u * static_cast<double>(num_nodes))));
}

void Execute(Deployment& d, const Request& req, const snaps::SearchRequest& search, Outcome* out) {
  d.sent[static_cast<size_t>(req.op)].fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point start = Clock::now();
  switch (req.op) {
    case Op::kSearch: {
      snaps::SearchResponse r = d.service->Search(search);
      out->latency_us = Since(start) * 1e6;
      out->ok = r.status.ok() && !r.truncated;
      out->generation = r.generation;
      out->results = std::move(r.results);
      break;
    }
    case Op::kLookup: {
      out->target = NodeOf(req, d.num_nodes);
      snaps::LookupResponse r = d.service->Lookup(snaps::LookupRequest{out->target, {}});
      out->latency_us = Since(start) * 1e6;
      out->ok = r.status.ok();
      out->generation = r.generation;
      out->lookup_id = r.node.id;
      out->lookup_records = std::move(r.node.records);
      break;
    }
    case Op::kPedigree: {
      out->target = NodeOf(req, d.num_nodes);
      snaps::PedigreeResponse r =
          d.service->ExtractPedigree(snaps::PedigreeRequest{out->target, kPedigreeGenerations, {}});
      out->latency_us = Since(start) * 1e6;
      out->ok = r.status.ok();
      out->generation = r.generation;
      out->pedigree = std::move(r.pedigree);
      break;
    }
  }
}

struct Window {
  size_t begin = 0;
  size_t end = 0;  // One past the last request run.
  double wall_s = 0.0;
  std::vector<double> reload_s;
};

// Reload() through the service's loader, checking that it succeeds and
// advances the generation by one.
double TimedReload(Deployment& d, SpanLog* log, Checks* checks) {
  const uint64_t before = d.service->generation();
  ScopedSpan span(log, "serve.reload");
  const snaps::Status s = d.service->Reload();
  const double seconds = span.Stop();
  checks->Expect(s.ok(), "reload failed: " + s.ToString());
  checks->Expect(d.service->generation() == before + 1, "reload did not advance the generation by one");
  return seconds;
}

// The timed window: `clients` closed-loop threads walk the stream from
// kWarmup on, while this thread reloads at fixed request counts. The
// window closes once the run length, the search count and the reload
// count are all reached (or the stream runs out), at the end of a whole
// round of requests. Reloads the window could not fit follow it.
Window RunWindow(Deployment& d, const Spec& spec, const Options& opt, int clients,
                 const std::vector<Request>& stream, const std::vector<snaps::SearchRequest>& searches,
                 std::vector<Outcome>* outcomes, SpanLog* main_log,
                 std::vector<std::unique_ptr<SpanLog>>* client_logs, Checks* checks) {
  Window w;
  w.begin = kWarmup;
  std::mutex mu;
  size_t next = kWarmup;
  size_t limit = stream.size();
  bool closing = false;
  std::atomic<size_t> completed{0};
  std::atomic<size_t> searches_done{0};
  std::atomic<int> reloads_done{0};
  const bool reload_in_window = spec.reload_every > 0;
  const Clock::time_point start = Clock::now();

  auto take = [&]() -> size_t {
    std::lock_guard<std::mutex> lock(mu);
    if (!closing && (next == stream.size() ||
                     (Since(start) >= opt.seconds && searches_done.load() >= spec.min_searches &&
                      (!reload_in_window || reloads_done.load() >= spec.reloads)))) {
      closing = true;
      limit = std::min(limit, kWarmup + (next - kWarmup + kRound - 1) / kRound * kRound);
    }
    return next < limit ? next++ : SIZE_MAX;
  };
  auto client = [&](SpanLog* log) {
    for (size_t i = take(); i != SIZE_MAX; i = take()) {
      ScopedSpan span(log, "serve.request", -1, static_cast<int64_t>(i));
      Execute(d, stream[i], searches[i], &(*outcomes)[i]);
      if (stream[i].op == Op::kSearch) searches_done.fetch_add(1);
      completed.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    SpanLog* log = nullptr;
    if (client_logs != nullptr) {
      client_logs->push_back(std::make_unique<SpanLog>(static_cast<uint32_t>(c + 1), g_process_start));
      log = client_logs->back().get();
    }
    threads.emplace_back(client, log);
  }
  if (reload_in_window) {
    for (;;) {
      {
        // Once the window is closing no reload starts: the clients
        // only finish their round.
        std::lock_guard<std::mutex> lock(mu);
        if (closing) break;
      }
      const size_t due = static_cast<size_t>(reloads_done.load() + 1) * spec.reload_every;
      if (reloads_done.load() < spec.reloads && completed.load() >= due) {
        w.reload_s.push_back(TimedReload(d, main_log, checks));
        reloads_done.fetch_add(1);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  for (std::thread& t : threads) t.join();
  w.wall_s = Since(start);
  w.end = limit;
  while (w.reload_s.size() < static_cast<size_t>(spec.reloads)) {
    w.reload_s.push_back(TimedReload(d, main_log, checks));
  }
  return w;
}

// Checks every recorded response: status, wildcard prefixes, lookups,
// pedigrees, and a seeded sample of searches against the reference
// ranker. Returns the number of failed operations.
uint64_t CheckOutcomes(const std::vector<Request>& stream, const std::vector<Outcome>& outcomes, size_t end,
                       const SearchArtifacts& art, uint64_t seed, Checks* checks) {
  const PedigreeGraph& graph = art.graph();
  uint64_t failed = 0;
  size_t sampled = 0;
  snaps::Rng pick(~seed);
  for (size_t i = 0; i < end; ++i) {
    const Request& req = stream[i];
    const Outcome& o = outcomes[i];
    if (!o.ok) {
      ++failed;
      continue;
    }
    checks->Expect(o.generation >= 1, "response without a generation");
    switch (req.op) {
      case Op::kSearch: {
        checks->ExpectEmpty(CheckWildcards(graph, req.query, o.results), "request " + std::to_string(i));
        if (pick.NextUint64(8) == 0 && sampled < kMaxReferenceSamples) {
          ++sampled;
          const std::vector<RefResult> want = ReferenceRank(
              graph, req.query, art.processor().config(), art.similarity_index().threshold());
          checks->ExpectEmpty(CompareRanking(o.results, want),
                              "request " + std::to_string(i) + " vs reference ranker");
        }
        break;
      }
      case Op::kLookup:
        checks->Expect(o.lookup_id == o.target && o.lookup_records == graph.node(o.target).records,
                       "lookup " + std::to_string(i) + " returned another node");
        break;
      case Op::kPedigree:
        checks->ExpectEmpty(CheckPedigree(graph, o.pedigree, o.target, kPedigreeGenerations),
                            "pedigree " + std::to_string(i));
        break;
    }
  }
  checks->Expect(sampled >= std::min<size_t>(20, end / 20), "too few searches checked against the reference");
  return failed;
}

// The layer metrics of the linkage itself, from the benchmark's truth.
void CheckLinkage(const Inputs& in, const snaps::Dataset& loaded, const PairList& pairs,
                  Checks* checks, PartitionReport* partition, double* fstar) {
  bool same = loaded.num_records() == in.truth.size();
  for (snaps::RecordId r = 0; same && r < loaded.num_records(); ++r) {
    same = loaded.record(r).cert_id == in.truth.cert[r] && loaded.record(r).role == in.truth.role[r];
  }
  checks->Expect(same, "the program's records do not line up with the generated ones");
  if (!same) return;
  *partition = CheckPartition(in.truth, pairs);
  checks->Expect(partition->transitive, "matched pairs are not a partition: " + partition->problem);
  checks->ExpectEmpty(CheckFStarFloor(in.truth, pairs, kMinFStarPercent, fstar), "linkage");
}

void CheckValues(const Inputs& in, const SearchArtifacts& art, Checks* checks) {
  for (int f = 0; f < 3; ++f) {
    checks->Expect(art.keyword_index().Values(static_cast<QueryField>(f)) == in.values[f],
                   std::string("indexed ") + snaps::QueryFieldName(static_cast<QueryField>(f)) +
                       " values differ from the data set's");
  }
}

std::vector<snaps::SearchRequest> SearchRequests(const std::vector<Request>& stream) {
  std::vector<snaps::SearchRequest> out(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) out[i].query = stream[i].query;
  return out;
}

using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct PassResult {
  double offline_s = 0.0;
  double qps = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  PairList pairs;
  Metrics metrics;
};

// The loader's build options: the service's default (one thread, as
// offline_online reloads) or a pool beside the client threads.
snaps::ArtifactOptions ReloadOptions(const Spec& spec) {
  snaps::ArtifactOptions options;
  if (spec.offline) {
    options.exec = snaps::ExecutionContext(static_cast<size_t>(std::min(kReloadThreads, std::max(1, Nproc() - 1))));
  }
  return options;
}

snaps::PipelineConfig MakePipelineConfig(const Spec& spec, const std::string& ckpt_dir) {
  snaps::PipelineConfig pc;
  pc.er.num_threads = std::min(kErThreads, Nproc());
  pc.resume = false;
  if (spec.offline) {
    pc.checkpoint_dir = ckpt_dir;
    fs::create_directories(ckpt_dir);
  }
  return pc;
}

// The untraced run: set-up as offline_online does it and the checks of
// the offline output, then the timed window and the checks of its
// requests.
PassResult RunPlain(const Options& opt, const Inputs& in, const std::vector<Request>& stream,
                    const std::string& csv, Checks* checks) {
  const Spec& spec = *opt.spec;
  const std::string snapshot = opt.work_dir + "/pedigree.snap";
  PassResult res;

  // ---- Offline: CSV on disk to indexes built and the snapshot saved.
  const snaps::ArtifactOptions options = ReloadOptions(spec);
  std::unique_ptr<SearchArtifacts> adopted;  // Read by the service's loader.
  Deployment d;
  const std::vector<snaps::SearchRequest> searches = SearchRequests(stream);
  std::vector<Outcome> outcomes(stream.size());
  double setup_s = 0.0;
  PartitionReport partition;
  double fstar = 0.0;
  {
    const Clock::time_point offline_start = Clock::now();
    snaps::LoadReport report;
    std::unique_ptr<snaps::PipelineOutput> out;
    {
      snaps::PipelineRunner runner(MakePipelineConfig(spec, opt.work_dir + "/ckpt"));
      snaps::Result<snaps::PipelineOutput> run = runner.RunCsvFile(csv, &report);
      if (!run.ok()) {
        checks->problems.push_back("pipeline failed: " + run.status().ToString());
        return res;
      }
      out = std::make_unique<snaps::PipelineOutput>(std::move(run).value());
    }
    const snaps::Status saved = snaps::SavePedigreeGraph(*out->pedigree, snapshot);
    res.offline_s = Since(offline_start);
    if (!saved.ok()) {
      checks->problems.push_back("saving the pedigree failed: " + saved.ToString());
      return res;
    }

    // ---- Service start, as offline_online serves: loader-based.
    const snaps::ErResult er = std::move(out->er);
    if (spec.offline) {
      snaps::Result<std::unique_ptr<SearchArtifacts>> a = SearchArtifacts::FromPipeline(std::move(*out));
      if (!a.ok()) {
        checks->problems.push_back("adopting the pipeline output failed: " + a.status().ToString());
        return res;
      }
      adopted = std::move(a).value();
    }
    auto loader = [&adopted, &options, snapshot]() -> snaps::Result<std::unique_ptr<SearchArtifacts>> {
      if (adopted) return std::move(adopted);
      return SearchArtifacts::LoadFromFile(snapshot, options);
    };
    snaps::Result<std::unique_ptr<SnapsService>> created = SnapsService::Create(snaps::ServiceConfig(), loader);
    if (!created.ok()) {
      checks->problems.push_back("service start failed: " + created.status().ToString());
      return res;
    }
    d.service = std::move(created).value();
    Execute(d, stream[0], searches[0], &outcomes[0]);
    setup_s = Since(g_process_start);

    // ---- Checks of the offline output, untimed. The pipeline's output,
    // the ER result and the loaded data set are freed when they are done,
    // as offline_online frees its offline phase before it serves.
    const SnapsService::ArtifactsPtr first_generation = d.service->snapshot();
    d.num_nodes = first_generation->graph().num_nodes();
    CheckValues(in, *first_generation, checks);
    // The graph the pipeline built: adopted by generation 1, or still in
    // the pipeline output when the service loaded the snapshot instead.
    const PedigreeGraph& built = spec.offline ? first_generation->graph() : *out->pedigree;
    snaps::Result<PedigreeGraph> loaded = snaps::LoadPedigreeGraph(snapshot);
    checks->Expect(loaded.ok(), "the saved pedigree does not load");
    if (loaded.ok()) checks->ExpectEmpty(CompareGraphs(built, *loaded), "saved pedigree loads back different");
    res.pairs = er.MatchedPairs();
    CheckLinkage(in, report.dataset, res.pairs, checks, &partition, &fstar);
    checks->Expect(partition.entities == er.stats.num_entities, "entity count differs from the program's ErStats");
    for (const std::string& why : partition.impossible_examples) {
      std::fprintf(stderr, "snapsbench: impossible entity: %s\n", why.c_str());
    }
  }
  for (size_t i = 1; i < kWarmup; ++i) Execute(d, stream[i], searches[i], &outcomes[i]);

  // ---- Timed window.
  const int clients = std::min(spec.clients, std::max(1, Nproc() - 1));
  const Window w = RunWindow(d, spec, opt, clients, stream, searches, &outcomes, nullptr, nullptr, checks);
  const double peak_rss = PeakRssMb();

  // ---- Checks of the requests, all outside the timed window.
  const Clock::time_point checks_start = Clock::now();
  std::vector<double> search_ms;
  for (size_t i = w.begin; i < w.end; ++i) {
    if (stream[i].op == Op::kSearch) search_ms.push_back(outcomes[i].latency_us / 1000.0);
  }
  const std::optional<double> p99 = Quantile(search_ms, 0.99);
  checks->Expect(p99.has_value(), "too few searches for a 99th percentile");
  std::array<uint64_t, snaps::kNumRequestKinds> sent{};
  for (size_t k = 0; k < sent.size(); ++k) sent[k] = d.sent[k].load();
  checks->ExpectEmpty(CheckReconciliation(sent, d.service->Metrics()), "service counters");
  const uint64_t failed_requests = CheckOutcomes(stream, outcomes, w.end, *d.service->snapshot(), opt.seed, checks);

  res.qps = static_cast<double>(w.end - w.begin) / w.wall_s;
  if (spec.offline) {
    res.attempted = partition.entities;
    res.failed = partition.impossible;
    checks->Expect(failed_requests == 0, "requests failed in an entity-counted workload");
  } else {
    res.attempted = w.end;
    res.failed = failed_requests;
  }
  res.metrics = {
      {"offline_s", {res.offline_s, "s"}},
      {"setup_s", {setup_s, "s"}},
      {"linkage_fstar", {fstar, "%"}},
      {"peak_rss_mb", {peak_rss, "MB"}},
      {"qps", {res.qps, "requests/s"}},
      {"search_p50_ms", {Median(search_ms), "ms"}},
      {"search_p99_ms", {p99.value_or(0.0), "ms"}},
      {"reload_s", {Median(w.reload_s), "s"}},
  };
  std::fprintf(stderr, "snapsbench: %s window %zu requests (%zu searches) in %.2fs, %zu reloads; checks %.2fs\n",
               spec.name, w.end - w.begin, search_ms.size(), w.wall_s, w.reload_s.size(), Since(checks_start));
  return res;
}

// Per-layer measurements of one replayed search, from outside the
// program: similar-value lookups, postings and candidate counts.
struct SearchLayers {
  std::vector<double> similar_us;
  size_t fields = 0;
  size_t fallback_fields = 0;
  uint64_t postings = 0;
  uint64_t candidates = 0;
};

void MeasureSearch(const SearchArtifacts& art, const Request& req, std::vector<uint32_t>* stamp, uint32_t mark,
                   SpanLog* log, int64_t parent, SearchLayers* out, uint64_t* candidates) {
  const snaps::KeywordIndex& kw = art.keyword_index();
  uint64_t count = 0;
  auto credit = [&](const std::vector<PedigreeNodeId>* ids) {
    if (ids == nullptr) return;
    out->postings += ids->size();
    for (PedigreeNodeId id : *ids) {
      if ((*stamp)[id] != mark) {
        (*stamp)[id] = mark;
        ++count;
      }
    }
  };
  // Times one similar-value lookup, notes whether the value is unseen
  // (so the lookup fell back to a bigram scan), and hands on the matches.
  auto similar = [&](QueryField field, const std::string& value, auto&& use) {
    const std::vector<std::string>& values = kw.Values(field);
    ++out->fields;
    out->fallback_fields += !std::binary_search(values.begin(), values.end(), value);
    ScopedSpan span(log, "index.similar", parent);
    const snaps::SimilarMatches matches = art.similarity_index().Similar(field, value);
    out->similar_us.push_back(span.Stop() * 1e6);
    use(matches);
  };
  const std::pair<QueryField, const std::string*> names[] = {{QueryField::kFirstName, &req.query.first_name},
                                                             {QueryField::kSurname, &req.query.surname}};
  for (const auto& [field, raw] : names) {
    const bool wildcard = !raw->empty() && raw->back() == '*';
    const std::string value = NormalizeName(wildcard ? raw->substr(0, raw->size() - 1) : *raw);
    if (wildcard) {
      const std::vector<std::string>& values = kw.Values(field);
      for (auto it = std::lower_bound(values.begin(), values.end(), value);
           it != values.end() && it->compare(0, value.size(), value) == 0; ++it) {
        credit(kw.Lookup(field, *it));
      }
      continue;
    }
    similar(field, value, [&](const snaps::SimilarMatches& matches) {
      for (const snaps::SimilarValue& sv : matches) credit(kw.Lookup(field, sv.value));
    });
  }
  if (!req.query.parish.empty()) {
    similar(QueryField::kParish, NormalizeName(req.query.parish), [](const snaps::SimilarMatches&) {});
  }
  out->candidates += count;
  *candidates = count;
}

// The traced run: the same lifecycle with the ER driven through the
// public phase functions and a span around every layer call, then a
// single-threaded replay that times each online layer on its own.
bool RunTraced(const Options& opt, const Inputs& in, const std::vector<Request>& stream, const std::string& csv,
               const PassResult& plain, Checks* checks, Metrics* metrics) {
  const Spec& spec = *opt.spec;
  SpanLog log(0, g_process_start);
  std::map<std::string, double> m;
  const std::string ckpt_dir = opt.work_dir + "/ckpt-traced";
  const std::string snapshot = opt.work_dir + "/pedigree-traced.snap";
  snaps::PipelineConfig pc = MakePipelineConfig(spec, ckpt_dir);

  // ---- Offline, phase by phase.
  ScopedSpan offline(&log, "offline");
  ScopedSpan ingest(&log, "data.ingest", offline.id());
  snaps::Result<snaps::LoadReport> report = snaps::LoadDatasetLenient(csv);
  m["data.ingest_s"] = ingest.Stop();
  if (!report.ok()) {
    checks->problems.push_back("traced ingest failed: " + report.status().ToString());
    return false;
  }
  const snaps::Dataset& ds = report->dataset;
  snaps::ErEngine engine(pc.er);
  {
    snaps::Result<std::unique_ptr<snaps::Blocker>> blocker = snaps::CreateBlocker(pc.er.blocker);
    if (!blocker.ok()) {
      checks->problems.push_back("blocker: " + blocker.status().ToString());
      return false;
    }
    ScopedSpan span(&log, "blocking", offline.id());
    const PairList candidates = (*blocker)->CandidatePairs(ds, engine.exec());
    m["blocking.s"] = span.Stop();
    const BlockingScore bs = ScoreCandidates(in.truth, candidates);
    m["blocking.candidate_pairs"] = static_cast<double>(bs.candidates);
    m["blocking.pair_completeness"] = bs.Completeness();
    m["blocking.pair_quality"] = bs.Quality();
  }
  double checkpoint_s = 0.0, checkpoint_bytes = 0.0;
  auto checkpoint = [&](const std::string& phase, const snaps::ErRunState& st) {
    if (!spec.offline) return;
    ScopedSpan span(&log, "pipeline.checkpoint", offline.id());
    const std::string payload = snaps::SerializeErRunState(st);
    checkpoint_bytes += static_cast<double>(payload.size());
    const snaps::Status s = snaps::SaveSnapshotFile(ckpt_dir + "/phase_" + phase + ".snap", "er_state",
                                                    snaps::kErStateFormatVersion, payload);
    checkpoint_s += span.Stop();
    checks->Expect(s.ok(), "traced checkpoint failed: " + s.ToString());
  };
  snaps::ErRunState st;
  engine.InitState(ds, &st);
  auto phase = [&](const char* span_name, const char* metric, auto&& fn) {
    ScopedSpan span(&log, span_name, offline.id());
    fn();
    m[metric] = span.Stop();
  };
  phase("core.graph", "core.graph_s", [&] { engine.BuildGraphPhase(&st); });
  checkpoint("graph", st);
  phase("core.bootstrap", "core.bootstrap_s", [&] { engine.BootstrapPhase(&st); });
  checkpoint("bootstrap", st);
  for (int p = 0; p < pc.er.merge_passes; ++p) {
    const std::string metric = "core.merge_pass" + std::to_string(p + 1) + "_s";
    phase("core.merge_pass", metric.c_str(), [&] { engine.MergePassPhase(&st, p); });
    checkpoint("merge" + std::to_string(p + 1), st);
  }
  phase("core.refine", "core.refine_s", [&] { engine.FinalRefinePhase(&st); });
  checkpoint("refine", st);
  snaps::ErResult er = engine.FinishState(std::move(st));
  m["core.rel_nodes"] = static_cast<double>(er.stats.num_rel_nodes);
  m["core.groups"] = static_cast<double>(er.stats.num_groups);
  m["core.entities"] = static_cast<double>(er.stats.num_entities);
  const PairList pairs = er.MatchedPairs();
  m["core.matched_pairs"] = static_cast<double>(pairs.size());
  checks->Expect(pairs == plain.pairs, "phase-driven ER pairs differ from PipelineRunner's");

  auto graph = std::make_unique<PedigreeGraph>();
  phase("pedigree.build", "pedigree.build_s", [&] { *graph = PedigreeGraph::Build(ds, er); });
  m["pedigree.nodes"] = static_cast<double>(graph->num_nodes());
  m["pedigree.edges"] = static_cast<double>(graph->num_edges());
  if (spec.offline) {
    ScopedSpan span(&log, "pipeline.checkpoint", offline.id());
    const std::string payload = snaps::SerializePedigreeGraph(*graph);
    checkpoint_bytes += static_cast<double>(payload.size());
    checks->Expect(snaps::SaveSnapshotFile(ckpt_dir + "/phase_pedigree.snap", "pedigree_ckpt",
                                           snaps::kPedigreeFormatVersion, payload)
                       .ok(),
                   "traced pedigree checkpoint failed");
    checkpoint_s += span.Stop();
  }
  std::unique_ptr<snaps::KeywordIndex> keyword;
  phase("index.keyword_build", "index.keyword_build_s",
        [&] { keyword = std::make_unique<snaps::KeywordIndex>(graph.get()); });
  std::unique_ptr<snaps::SimilarityIndex> similarity;
  phase("index.similarity_build", "index.similarity_build_s", [&] {
    similarity = std::make_unique<snaps::SimilarityIndex>(keyword.get(), 0.5, engine.exec());
  });
  double entries = 0.0;
  for (int f = 0; f < 3; ++f) entries += static_cast<double>(similarity->NumEntries(static_cast<QueryField>(f)));
  m["index.similar_entries"] = entries;
  if (spec.offline) {
    ScopedSpan span(&log, "pipeline.checkpoint", offline.id());
    fs::remove_all(ckpt_dir);
    checkpoint_s += span.Stop();
  }
  m["pipeline.checkpoint_s"] = checkpoint_s;
  m["pipeline.checkpoint_bytes"] = checkpoint_bytes;
  phase("pedigree.save", "pedigree.save_s", [&] {
    checks->Expect(snaps::SavePedigreeGraph(*graph, snapshot).ok(), "traced pedigree save failed");
  });
  const double traced_offline_s = offline.Stop() - m["blocking.s"];
  m["pedigree.snapshot_bytes"] = static_cast<double>(fs::file_size(snapshot));
  {
    ScopedSpan span(&log, "pedigree.load");
    snaps::Result<PedigreeGraph> loaded = snaps::LoadPedigreeGraph(snapshot);
    m["pedigree.load_s"] = span.Stop();
    checks->Expect(loaded.ok() && CompareGraphs(*graph, *loaded).empty(), "traced pedigree loads back different");
  }

  // ---- Service: generation 1 from a directly timed LoadFromFile.
  const snaps::ArtifactOptions options = ReloadOptions(spec);
  std::unique_ptr<SearchArtifacts> first;
  {
    ScopedSpan span(&log, "serve.reload_build");
    snaps::Result<std::unique_ptr<SearchArtifacts>> a = SearchArtifacts::LoadFromFile(snapshot, options);
    m["serve.reload_build_s"] = span.Stop();
    if (!a.ok()) {
      checks->problems.push_back("traced load failed: " + a.status().ToString());
      return false;
    }
    first = std::move(a).value();
  }
  Deployment d;
  auto loader = [&first, &options, snapshot]() -> snaps::Result<std::unique_ptr<SearchArtifacts>> {
    if (first) return std::move(first);
    return SearchArtifacts::LoadFromFile(snapshot, options);
  };
  snaps::Result<std::unique_ptr<SnapsService>> created = SnapsService::Create(snaps::ServiceConfig(), loader);
  if (!created.ok()) {
    checks->problems.push_back("traced service start failed: " + created.status().ToString());
    return false;
  }
  d.service = std::move(created).value();
  d.num_nodes = d.service->snapshot()->graph().num_nodes();
  const std::vector<snaps::SearchRequest> searches = SearchRequests(stream);
  std::vector<Outcome> outcomes(stream.size());
  for (size_t i = 0; i < kWarmup; ++i) Execute(d, stream[i], searches[i], &outcomes[i]);

  // ---- Traced window: the same clients, stream and reloads.
  std::vector<std::unique_ptr<SpanLog>> client_logs;
  const int clients = std::min(spec.clients, std::max(1, Nproc() - 1));
  const Window w = RunWindow(d, spec, opt, clients, stream, searches, &outcomes, &log, &client_logs, checks);
  const double traced_qps = static_cast<double>(w.end - w.begin) / w.wall_s;
  CheckOutcomes(stream, outcomes, w.end, *d.service->snapshot(), opt.seed, checks);

  // ---- Swap cost: Reload() with prebuilt artifacts.
  {
    snaps::PipelineOutput built;
    built.pedigree = std::move(graph);
    built.keyword_index = std::move(keyword);
    built.similarity_index = std::move(similarity);
    snaps::Result<std::unique_ptr<SearchArtifacts>> prebuilt = SearchArtifacts::FromPipeline(std::move(built));
    checks->Expect(prebuilt.ok(), "adopting the traced indexes failed");
    if (prebuilt.ok()) {
      const uint64_t before = d.service->generation();
      ScopedSpan span(&log, "serve.reload_swap");
      const snaps::Status s = d.service->Reload(std::move(prebuilt).value());
      m["serve.reload_swap_ms"] = span.Stop() * 1e3;
      checks->Expect(s.ok() && d.service->generation() == before + 1, "prebuilt reload failed");
    }
  }

  // ---- Layer replay, one thread: each online layer timed on its own.
  const SnapsService::ArtifactsPtr art = d.service->snapshot();
  SearchLayers layers;
  std::vector<double> service_us, processor_us, lookup_us, extract_us;
  double members = 0.0;
  uint64_t unseen_parish_candidates = 0, unseen_parish_searches = 0;
  std::vector<uint32_t> stamp(art->graph().num_nodes(), 0);
  uint32_t mark = 0;
  for (size_t i = w.begin; i < w.end && processor_us.size() < kMinSearches; ++i) {
    const Request& req = stream[i];
    ScopedSpan request(&log, "replay.request", -1, static_cast<int64_t>(i));
    if (req.op == Op::kSearch) {
      uint64_t candidates = 0;
      MeasureSearch(*art, req, &stamp, ++mark, &log, request.id(), &layers, &candidates);
      if (req.unindexed_parish) {
        unseen_parish_candidates += candidates;
        ++unseen_parish_searches;
      }
      // The service is timed beside the processor, in alternating order,
      // on the first kServiceSamples searches: its overhead is a median.
      const int passes = service_us.size() < kServiceSamples ? 2 : 1;
      for (int pass = 0; pass < passes; ++pass) {
        if (passes == 1 || (pass == 0) == (i % 2 == 0)) {
          ScopedSpan span(&log, "query.search", request.id(), static_cast<int64_t>(i));
          const snaps::SearchOutcome o = art->processor().Search(req.query);
          processor_us.push_back(span.Stop() * 1e6);
          checks->Expect(!o.truncated, "replayed search truncated");
        } else {
          ScopedSpan span(&log, "serve.search", request.id(), static_cast<int64_t>(i));
          const snaps::SearchResponse r = d.service->Search(searches[i]);
          service_us.push_back(span.Stop() * 1e6);
          checks->Expect(r.status.ok() && !r.truncated, "replayed service search failed");
        }
      }
    } else if (req.op == Op::kLookup) {
      ScopedSpan span(&log, "serve.lookup", request.id(), static_cast<int64_t>(i));
      const snaps::LookupResponse r = d.service->Lookup(snaps::LookupRequest{NodeOf(req, d.num_nodes), {}});
      lookup_us.push_back(span.Stop() * 1e6);
      checks->Expect(r.status.ok(), "replayed lookup failed");
    } else {
      const PedigreeNodeId root = NodeOf(req, d.num_nodes);
      ScopedSpan span(&log, "pedigree.extract", request.id(), static_cast<int64_t>(i));
      const snaps::FamilyPedigree p = snaps::ExtractPedigree(art->graph(), root, kPedigreeGenerations);
      extract_us.push_back(span.Stop() * 1e6);
      members += static_cast<double>(p.members.size());
      checks->ExpectEmpty(CheckPedigree(art->graph(), p, root, kPedigreeGenerations), "replayed pedigree");
    }
  }
  const double searches_run = static_cast<double>(std::max<size_t>(1, processor_us.size()));
  const std::optional<double> p99 = Quantile(processor_us, 0.99);
  checks->Expect(p99.has_value(), "too few replayed searches for a 99th percentile");
  m["index.similar_us"] = Median(layers.similar_us);
  m["index.similar_fallback_share"] =
      layers.fields == 0 ? 0.0 : static_cast<double>(layers.fallback_fields) / static_cast<double>(layers.fields);
  m["index.postings_per_search"] = static_cast<double>(layers.postings) / searches_run;
  m["query.search_p50_us"] = Median(processor_us);
  m["query.search_p99_us"] = p99.value_or(0.0);
  m["query.candidates_per_search"] = static_cast<double>(layers.candidates) / searches_run;
  m["query.unseen_parish_candidates"] =
      unseen_parish_searches == 0 ? 0.0
                                  : static_cast<double>(unseen_parish_candidates) /
                                        static_cast<double>(unseen_parish_searches);
  m["serve.search_overhead_us"] = Median(service_us) - Median(processor_us);
  m["serve.lookup_us"] = Median(lookup_us);
  m["pedigree.extract_us"] = Median(extract_us);
  m["pedigree.members"] = extract_us.empty() ? 0.0 : members / static_cast<double>(extract_us.size());
  m["linkage.fstar_bpbp"] = ScorePairs(in.truth, plain.pairs, PairClass::kBpBp).FStarPercent();
  m["linkage.fstar_bpdp"] = ScorePairs(in.truth, plain.pairs, PairClass::kBpDp).FStarPercent();
  m["trace.overhead_offline_s"] = traced_offline_s - plain.offline_s;
  m["trace.overhead_qps"] = traced_qps - plain.qps;

  std::vector<const SpanLog*> logs = {&log};
  size_t spans = log.spans().size();
  for (const auto& l : client_logs) {
    logs.push_back(l.get());
    spans += l->spans().size();
  }
  m["trace.spans"] = static_cast<double>(spans);
  fs::create_directories(opt.results_dir);
  const std::string trace_path =
      opt.results_dir + "/trace-" + spec.name + "-seed" + std::to_string(opt.seed) + ".json";
  checks->Expect(WriteChromeTrace(trace_path, logs, m), "writing the trace failed");
  std::fprintf(stderr, "snapsbench: trace written to %s\n", trace_path.c_str());

  static const std::map<std::string, std::string> kUnits = {
      {"data.ingest_s", "s"}, {"blocking.s", "s"}, {"blocking.candidate_pairs", "count"},
      {"blocking.pair_completeness", "ratio"}, {"blocking.pair_quality", "ratio"}, {"core.graph_s", "s"},
      {"core.rel_nodes", "count"}, {"core.groups", "count"}, {"core.bootstrap_s", "s"},
      {"core.merge_pass1_s", "s"}, {"core.merge_pass2_s", "s"}, {"core.refine_s", "s"},
      {"core.entities", "count"}, {"core.matched_pairs", "count"}, {"pipeline.checkpoint_s", "s"},
      {"pipeline.checkpoint_bytes", "bytes"}, {"pedigree.build_s", "s"}, {"pedigree.nodes", "count"},
      {"pedigree.edges", "count"}, {"pedigree.save_s", "s"}, {"pedigree.load_s", "s"},
      {"pedigree.snapshot_bytes", "bytes"}, {"pedigree.extract_us", "us"}, {"pedigree.members", "count"},
      {"index.keyword_build_s", "s"}, {"index.similarity_build_s", "s"}, {"index.similar_entries", "count"},
      {"index.similar_us", "us"}, {"index.similar_fallback_share", "ratio"},
      {"index.postings_per_search", "count"}, {"query.search_p50_us", "us"}, {"query.search_p99_us", "us"},
      {"query.candidates_per_search", "count"}, {"query.unseen_parish_candidates", "count"},
      {"serve.search_overhead_us", "us"}, {"serve.lookup_us", "us"}, {"serve.reload_build_s", "s"},
      {"serve.reload_swap_ms", "ms"}, {"linkage.fstar_bpbp", "%"}, {"linkage.fstar_bpdp", "%"},
      {"trace.overhead_offline_s", "s"}, {"trace.overhead_qps", "requests/s"}, {"trace.spans", "count"},
  };
  for (const auto& [name, value] : m) {
    const auto unit = kUnits.find(name);
    (*metrics)[name] = {value, unit == kUnits.end() ? "s" : unit->second};
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt->seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt->seconds = std::stod(value);
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--work-dir") {
      opt->work_dir = value;
    } else if (key == "--results-dir") {
      opt->results_dir = value;
    } else {
      return false;
    }
  }
  for (const Spec& s : kSpecs) {
    if (workload == s.name) opt->spec = &s;
  }
  return opt->spec != nullptr && !opt->work_dir.empty() && !opt->results_dir.empty() && opt->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: snapsbench --workload offline-kil|search-hot|serve-typo-reload --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --results-dir DIR\n");
    return 2;
  }
  const Spec& spec = *opt.spec;
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);

  // Inputs first, from the seed, before any program work.
  Inputs in = MakeInputs(spec.preset);
  const std::vector<Request> stream = spec.hot_stream ? MakeHotStream(in, opt.seed, kStreamLength)
                                                      : MakeTypoStream(in, opt.seed, kStreamLength);
  const std::set<uint32_t> persons(in.truth.person.begin(), in.truth.person.end());
  std::fprintf(stderr, "snapsbench: inputs %zu records, %zu certificates, %zu persons, %zu/%zu/%zu distinct "
               "first-name/surname/parish values\n", in.dataset.num_records(), in.dataset.num_certificates(),
               persons.size(), in.values[kFirstName].size(), in.values[kSurname].size(), in.values[kParish].size());
  const std::string csv = opt.work_dir + "/input.csv";
  if (const snaps::Status s = in.dataset.SaveCsv(csv); !s.ok()) {
    std::fprintf(stderr, "snapsbench: writing the input failed: %s\n", s.ToString().c_str());
    return 1;
  }

  in.dataset = snaps::Dataset();  // The program reads the CSV; the truth is kept apart.

  Checks checks;
  PassResult plain = RunPlain(opt, in, stream, csv, &checks);
  if (plain.attempted == 0) {
    for (const std::string& p : checks.problems) std::fprintf(stderr, "snapsbench: %s\n", p.c_str());
    return 1;
  }
  Metrics traced;
  if (opt.trace && !RunTraced(opt, in, stream, csv, plain, &checks, &traced)) {
    for (const std::string& p : checks.problems) std::fprintf(stderr, "snapsbench: %s\n", p.c_str());
    return 1;
  }
  fs::remove_all(opt.work_dir);
  for (const std::string& p : checks.problems) std::fprintf(stderr, "snapsbench: check failed: %s\n", p.c_str());

  const Metrics& metrics = opt.trace ? traced : plain.metrics;
  std::string json = "{\"correct\": ";
  json += checks.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(plain.attempted);
  json += ", \"failed\": " + std::to_string(plain.failed) + ", \"metrics\": {";
  bool first = true;
  char buf[256];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), value.first, value.second.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace snapsbench

int main(int argc, char** argv) { return snapsbench::Main(argc, argv); }
