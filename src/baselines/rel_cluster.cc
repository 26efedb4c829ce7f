#include "baselines/rel_cluster.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <utility>

#include "core/similarity.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace snaps {

RelClusterBaseline::RelClusterBaseline(RelClusterConfig config)
    : config_(std::move(config)) {}

Result<void> RelClusterConfig::Validate() const {
  const struct {
    const char* name;
    double value;
  } units[] = {
      {"alpha", alpha},
      {"gamma", gamma},
      {"merge_threshold", merge_threshold},
  };
  for (const auto& u : units) {
    if (!std::isfinite(u.value) || u.value < 0.0 || u.value > 1.0) {
      return Status::InvalidArgument(std::string(u.name) +
                                     " must be finite and in [0,1]");
    }
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  return Result<void>::Ok();
}

Result<RelClusterBaseline> RelClusterBaseline::Create(RelClusterConfig config) {
  if (Result<void> v = config.Validate(); !v.ok()) return v.status();
  return RelClusterBaseline(std::move(config));
}

namespace {

/// Mutable clustering state.
struct ClusterState {
  std::vector<uint32_t> cluster_of;                 // Per record.
  std::vector<std::vector<RecordId>> members;       // Per cluster.
  std::vector<ClusterProfile> profiles;             // Per cluster.
  std::vector<uint32_t> version;                    // Per cluster.
  /// Records related to a record through its certificate (family
  /// co-occurrences); fixed for the run.
  std::vector<std::vector<RecordId>> related;
};

/// Jaccard overlap of the two clusters' neighbouring cluster sets.
double RelationalSimilarity(const ClusterState& st, uint32_t ca, uint32_t cb) {
  auto neighbor_set = [&st](uint32_t c) {
    std::vector<uint32_t> out;
    for (RecordId r : st.members[c]) {
      for (RecordId rel : st.related[r]) {
        out.push_back(st.cluster_of[rel]);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  const std::vector<uint32_t> na = neighbor_set(ca);
  const std::vector<uint32_t> nb = neighbor_set(cb);
  if (na.empty() || nb.empty()) return 0.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < na.size() && j < nb.size()) {
    if (na[i] == nb[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (na[i] < nb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(inter) /
         static_cast<double>(na.size() + nb.size() - inter);
}

}  // namespace

ClustererResult RelClusterBaseline::Cluster(
    const Dataset& dataset, const std::vector<CandidatePair>& candidates,
    const ExecutionContext& exec) const {
  const RelClusterConfig& cfg = config_;
  Timer total_timer;
  ClustererResult result;

  const size_t n = dataset.num_records();
  ClusterState st;
  st.cluster_of.resize(n);
  st.members.resize(n);
  st.profiles.resize(n);
  st.version.assign(n, 0);
  st.related.resize(n);

  const LinkConstraints constraints(cfg.temporal);
  for (RecordId r = 0; r < n; ++r) {
    st.cluster_of[r] = r;
    st.members[r].push_back(r);
    st.profiles[r] = ClusterProfile::Empty();
    constraints.AddRecord(&st.profiles[r], dataset.record(r));
  }
  for (const Certificate& cert : dataset.certificates()) {
    const auto& recs = dataset.CertRecords(cert.id);
    for (RecordId a : recs) {
      for (RecordId b : recs) {
        if (a != b) st.related[a].push_back(b);
      }
    }
  }

  // Ambiguity: name-combination frequencies (as in Equation 2).
  std::unordered_map<std::string, int> freq;
  for (const Record& r : dataset.records()) {
    freq[NormalizeValue(r.value(Attr::kFirstName)) + "\x1f" +
         NormalizeValue(r.value(Attr::kSurname))]++;
  }
  const double log_n = std::log2(std::max<double>(2.0, n));
  auto record_freq = [&](RecordId r) {
    const auto it = freq.find(
        NormalizeValue(dataset.record(r).value(Attr::kFirstName)) + "\x1f" +
        NormalizeValue(dataset.record(r).value(Attr::kSurname)));
    return it == freq.end() ? 1 : it->second;
  };

  // Attribute similarity of a record pair with ambiguity mixed in.
  auto pair_attr_sim = [&](RecordId a, RecordId b) {
    const double sa =
        SchemaWeightedSimilarity(cfg.schema, dataset.record(a),
                                 dataset.record(b));
    const double ratio =
        std::max<double>(2.0, n) /
        static_cast<double>(std::max(1, record_freq(a) + record_freq(b)));
    const double sd =
        std::clamp(std::log2(std::max(1.0, ratio)) / log_n, 0.0, 1.0);
    return cfg.gamma * sa + (1.0 - cfg.gamma) * sd;
  };

  result.stats.num_rel_nodes = candidates.size();

  // Cache the attribute similarity per seed record pair (it does not
  // change; only the relational component changes as clusters merge).
  // Pure per-pair computations, fanned out over the pool into
  // per-pair slots; everything after this point is sequential.
  std::vector<double> attr_sim(candidates.size());
  exec.ParallelFor(candidates.size(), [&](size_t i) {
    attr_sim[i] = pair_attr_sim(candidates[i].first, candidates[i].second);
  });

  // Greedy iterative merging: several rounds over the candidate list,
  // highest combined similarity first (the iterative relational
  // clustering of Bhattacharya and Getoor, bounded for tractability).
  Timer merge_timer;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    struct Entry {
      double sim;
      uint32_t idx;
      bool operator<(const Entry& o) const {
        if (sim != o.sim) return sim < o.sim;
        return idx > o.idx;
      }
    };
    std::priority_queue<Entry> queue;
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      const auto [a, b] = candidates[i];
      if (st.cluster_of[a] == st.cluster_of[b]) continue;
      // Upper bound with rel = 1 for queue admission.
      const double upper = (1.0 - cfg.alpha) * attr_sim[i] + cfg.alpha;
      if (upper >= cfg.merge_threshold) queue.push(Entry{upper, i});
    }
    size_t merges = 0;
    while (!queue.empty()) {
      const Entry top = queue.top();
      queue.pop();
      const auto [a, b] = candidates[top.idx];
      const uint32_t ca = st.cluster_of[a];
      const uint32_t cb = st.cluster_of[b];
      if (ca == cb) continue;
      const double sim = (1.0 - cfg.alpha) * attr_sim[top.idx] +
                         cfg.alpha * RelationalSimilarity(st, ca, cb);
      if (sim < cfg.merge_threshold) continue;
      if (cfg.use_constraints &&
          !constraints.CanMerge(st.profiles[ca], st.profiles[cb])) {
        continue;
      }
      // Merge cb into ca.
      for (RecordId r : st.members[cb]) {
        st.cluster_of[r] = ca;
        st.members[ca].push_back(r);
        constraints.AddRecord(&st.profiles[ca], dataset.record(r));
      }
      st.members[cb].clear();
      st.version[ca]++;
      ++merges;
      result.stats.num_merged_nodes++;
    }
    if (merges == 0) break;
  }
  result.stats.merge_seconds = merge_timer.ElapsedSeconds();

  result.cluster_of = std::move(st.cluster_of);
  CanonicalizeClusterLabels(&result.cluster_of);
  size_t entities = 0;
  for (const auto& m : st.members) {
    if (m.size() >= 2) ++entities;
  }
  result.stats.num_entities = entities;
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace snaps
