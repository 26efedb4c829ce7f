#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_map>

namespace snapsbench {

using snaps::Gender;
using snaps::PedigreeGraph;
using snaps::PedigreeNode;
using snaps::PedigreeNodeId;
using snaps::Role;

namespace {

constexpr uint32_t kUnknownPerson = 0xffffffffu;

bool IsBirthParent(Role r) { return r == Role::kBm || r == Role::kBf; }
bool IsDeathParent(Role r) { return r == Role::kDm || r == Role::kDf; }

bool InClass(Role a, Role b, PairClass cls) {
  switch (cls) {
    case PairClass::kAll:
      return true;
    case PairClass::kBpBp:
      return IsBirthParent(a) && IsBirthParent(b);
    case PairClass::kBpDp:
      return (IsBirthParent(a) && IsDeathParent(b)) ||
             (IsDeathParent(a) && IsBirthParent(b));
  }
  return false;
}

bool SamePerson(const Truth& t, uint32_t a, uint32_t b) {
  return t.person[a] != kUnknownPerson && t.person[a] == t.person[b];
}

// Number of true pairs of a class: all record pairs of one person.
uint64_t CountTruePairs(const Truth& truth, PairClass cls) {
  std::unordered_map<uint32_t, std::vector<uint32_t>> by_person;
  for (uint32_t r = 0; r < truth.size(); ++r) {
    if (truth.person[r] != kUnknownPerson) by_person[truth.person[r]].push_back(r);
  }
  uint64_t total = 0;
  for (const auto& [person, recs] : by_person) {
    for (size_t i = 0; i < recs.size(); ++i) {
      for (size_t j = i + 1; j < recs.size(); ++j) {
        if (InClass(truth.role[recs[i]], truth.role[recs[j]], cls)) ++total;
      }
    }
  }
  return total;
}

uint32_t Find(std::vector<uint32_t>& parent, uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

// Why one entity's records cannot all be one person, or empty.
std::string ImpossibleReason(const Truth& truth,
                             const std::vector<uint32_t>& recs) {
  int babies = 0, deceased = 0;
  bool female = false, male = false;
  std::unordered_map<uint32_t, uint32_t> cert_seen;
  for (uint32_t r : recs) {
    const auto [it, fresh] = cert_seen.emplace(truth.cert[r], r);
    if (!fresh) {
      return "records " + std::to_string(it->second) + " and " +
             std::to_string(r) + " share certificate " +
             std::to_string(truth.cert[r]);
    }
    babies += truth.role[r] == Role::kBb;
    deceased += truth.role[r] == Role::kDd;
    const Gender g = RoleGender(truth.role[r]);
    female |= g == Gender::kFemale;
    male |= g == Gender::kMale;
  }
  if (babies > 1) return std::to_string(babies) + " Bb records";
  if (deceased > 1) return std::to_string(deceased) + " Dd records";
  if (female && male) return "roles imply both genders";
  return "";
}

// Sorted distinct bigrams; a shorter string is its own single gram.
std::vector<std::string> Bigrams(std::string_view s) {
  std::vector<std::string> grams;
  if (s.empty()) return grams;
  if (s.size() < 2) {
    grams.emplace_back(s);
    return grams;
  }
  for (size_t i = 0; i + 2 <= s.size(); ++i) grams.emplace_back(s.substr(i, 2));
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

double Jaro(std::string_view a, std::string_view b) {
  if (a == b) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  const int window = std::max(0, std::max(la, lb) / 2 - 1);
  std::vector<char> used_a(a.size(), 0), used_b(b.size(), 0);
  int m = 0;
  for (int i = 0; i < la; ++i) {
    for (int j = std::max(0, i - window); j <= std::min(lb - 1, i + window); ++j) {
      if (used_b[j] == 0 && a[i] == b[j]) {
        used_a[i] = used_b[j] = 1;
        ++m;
        break;
      }
    }
  }
  if (m == 0) return 0.0;
  int half_transpositions = 0;
  for (int i = 0, j = 0; i < la; ++i) {
    if (used_a[i] == 0) continue;
    while (used_b[j] == 0) ++j;
    half_transpositions += a[i] != b[j];
    ++j;
  }
  const double md = m;
  return (md / la + md / lb + (md - half_transpositions / 2.0) / md) / 3.0;
}

struct ParsedField {
  std::string value;
  bool wildcard = false;
};

ParsedField ParseField(std::string_view raw) {
  while (!raw.empty() && std::isspace(static_cast<unsigned char>(raw.front()))) {
    raw.remove_prefix(1);
  }
  while (!raw.empty() && std::isspace(static_cast<unsigned char>(raw.back()))) {
    raw.remove_suffix(1);
  }
  ParsedField f;
  f.wildcard = !raw.empty() && raw.back() == '*';
  if (f.wildcard) raw.remove_suffix(1);
  f.value = NormalizeName(raw);
  return f;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// Best similarity of any of `values` to one query field. Each distinct
// value is scored once per query and remembered.
class FieldScorer {
 public:
  FieldScorer(ParsedField q, double s_t) : q_(std::move(q)), s_t_(s_t) {}

  double Best(const std::vector<std::string>& values) {
    double best = 0.0;
    for (const std::string& v : values) {
      const auto [it, fresh] = memo_.emplace(v, 0.0);
      if (fresh) it->second = Score(v);
      best = std::max(best, it->second);
    }
    return best;
  }

  const ParsedField& query() const { return q_; }

 private:
  double Score(const std::string& v) const {
    if (q_.wildcard) return StartsWith(v, q_.value) ? 1.0 : 0.0;
    if (v == q_.value) return 1.0;
    if (!ShareBigram(q_.value, v)) return 0.0;
    const double jw = JaroWinkler(q_.value, v);
    return jw >= s_t_ ? jw : 0.0;
  }

  ParsedField q_;
  double s_t_;
  std::unordered_map<std::string_view, double> memo_;  // Views of graph values.
};

}  // namespace

double LinkageScore::FStarPercent() const {
  const uint64_t denom = tp + fp + fn;
  return denom == 0 ? 0.0 : 100.0 * static_cast<double>(tp) / static_cast<double>(denom);
}

std::string CheckFStarFloor(const Truth& truth, const PairList& pairs, double floor, double* fstar) {
  *fstar = ScorePairs(truth, pairs).FStarPercent();
  if (*fstar >= floor) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "linkage F* %.2f%% below the floor %.2f%%", *fstar, floor);
  return buf;
}

LinkageScore ScorePairs(const Truth& truth, const PairList& pairs,
                        PairClass cls) {
  LinkageScore s;
  for (const auto& [a, b] : pairs) {
    if (!InClass(truth.role[a], truth.role[b], cls)) continue;
    if (SamePerson(truth, a, b)) {
      ++s.tp;
    } else {
      ++s.fp;
    }
  }
  s.fn = CountTruePairs(truth, cls) - s.tp;
  return s;
}

double BlockingScore::Completeness() const {
  return true_pairs == 0 ? 0.0 : static_cast<double>(true_candidates) / static_cast<double>(true_pairs);
}

double BlockingScore::Quality() const {
  return candidates == 0 ? 0.0 : static_cast<double>(true_candidates) / static_cast<double>(candidates);
}

BlockingScore ScoreCandidates(const Truth& truth, const PairList& candidates) {
  BlockingScore s;
  s.candidates = candidates.size();
  for (const auto& [a, b] : candidates) s.true_candidates += SamePerson(truth, a, b);
  s.true_pairs = CountTruePairs(truth, PairClass::kAll);
  return s;
}

PartitionReport CheckPartition(const Truth& truth, const PairList& pairs) {
  PartitionReport rep;
  const uint32_t n = static_cast<uint32_t>(truth.size());
  PairList sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const auto [a, b] = sorted[i];
    if (a >= b || b >= n) {
      rep.transitive = false;
      rep.problem = "malformed pair (" + std::to_string(a) + "," + std::to_string(b) + ")";
      return rep;
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      rep.transitive = false;
      rep.problem = "duplicated pair (" + std::to_string(a) + "," + std::to_string(b) + ")";
      return rep;
    }
  }
  std::vector<uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  for (const auto& [a, b] : sorted) parent[Find(parent, a)] = Find(parent, b);
  // Records that appear in a pair, grouped by component: each group is
  // one multi-record entity.
  std::vector<char> linked(n, 0);
  for (const auto& [a, b] : sorted) linked[a] = linked[b] = 1;
  std::unordered_map<uint32_t, std::vector<uint32_t>> components;
  for (uint32_t r = 0; r < n; ++r) {
    if (linked[r] != 0) components[Find(parent, r)].push_back(r);
  }
  uint64_t closed_pairs = 0;
  std::vector<uint32_t> roots;
  for (const auto& [root, recs] : components) {
    roots.push_back(root);
    closed_pairs += static_cast<uint64_t>(recs.size()) * (recs.size() - 1) / 2;
  }
  std::sort(roots.begin(), roots.end());
  if (closed_pairs != sorted.size()) {
    rep.transitive = false;
    rep.problem = std::to_string(sorted.size()) + " pairs but their components need " +
                  std::to_string(closed_pairs) + " to be closed";
  }
  for (uint32_t root : roots) {
    const std::vector<uint32_t>& recs = components[root];
    ++rep.entities;
    const std::string why = ImpossibleReason(truth, recs);
    if (why.empty()) continue;
    ++rep.impossible;
    if (rep.impossible_examples.size() < 5) rep.impossible_examples.push_back(why);
  }
  return rep;
}

Gender RoleGender(Role role) {
  switch (role) {
    case Role::kBm:
    case Role::kDm:
    case Role::kMb:
    case Role::kMbm:
    case Role::kMgm:
    case Role::kCw:
      return Gender::kFemale;
    case Role::kBf:
    case Role::kDf:
    case Role::kMg:
    case Role::kMbf:
    case Role::kMgf:
    case Role::kCh:
      return Gender::kMale;
    default:
      return Gender::kUnknown;
  }
}

std::string NormalizeName(std::string_view raw) {
  std::string out;
  bool gap = false;
  for (char ch : raw) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (std::isspace(c)) {
      gap = !out.empty();
    } else if (std::isalnum(c) || c == '-' || c == '\'') {
      if (gap) out.push_back(' ');
      gap = false;
      out.push_back(static_cast<char>(std::tolower(c)));
    }
  }
  return out;
}

double JaroWinkler(std::string_view a, std::string_view b) {
  const double jaro = Jaro(a, b);
  size_t prefix = 0;
  while (prefix < 4 && prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) {
    ++prefix;
  }
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

bool ShareBigram(std::string_view a, std::string_view b) {
  const std::vector<std::string> ga = Bigrams(a), gb = Bigrams(b);
  std::vector<std::string> both;
  std::set_intersection(ga.begin(), ga.end(), gb.begin(), gb.end(), std::back_inserter(both));
  return !both.empty();
}

std::vector<RefResult> ReferenceRank(const PedigreeGraph& graph,
                                     const snaps::Query& query,
                                     const snaps::QueryConfig& config,
                                     double s_t) {
  std::vector<RefResult> out;
  FieldScorer first(ParseField(query.first_name), s_t);
  FieldScorer surname(ParseField(query.surname), s_t);
  FieldScorer parish(ParsedField{NormalizeName(query.parish), false}, s_t);
  for (const FieldScorer* f : {&first, &surname}) {
    if (f->query().value.empty() && !f->query().wildcard) return out;
  }
  const bool has_years = query.year_from.has_value() || query.year_to.has_value();
  for (const PedigreeNode& node : graph.nodes()) {
    const double fsim = first.Best(node.first_names);
    const double ssim = surname.Best(node.surnames);
    if (fsim == 0.0 && ssim == 0.0) continue;
    if (query.kind == snaps::SearchKind::kBirth && node.birth_year == 0) continue;
    if (query.kind == snaps::SearchKind::kDeath && node.death_year == 0) continue;
    double score = config.first_name_weight * fsim + config.surname_weight * ssim;
    double attainable = config.first_name_weight + config.surname_weight;
    if (has_years) {
      int year = node.birth_year != 0 ? node.birth_year : node.first_event_year;
      if (query.kind == snaps::SearchKind::kBirth) year = node.birth_year;
      if (query.kind == snaps::SearchKind::kDeath) year = node.death_year;
      const int lo = query.year_from.value_or(-100000);
      const int hi = query.year_to.value_or(100000);
      double ysim = 0.0;
      if (year != 0) {
        const int dist = year < lo ? lo - year : (year > hi ? year - hi : 0);
        if (dist <= config.year_slack) {
          ysim = 1.0 - static_cast<double>(dist) / (config.year_slack + 1.0);
        }
      }
      score += config.year_weight * ysim;
      attainable += config.year_weight;
    }
    if (query.gender != Gender::kUnknown) {
      score += config.gender_weight * (node.gender == query.gender ? 1.0 : 0.0);
      attainable += config.gender_weight;
    }
    if (!parish.query().value.empty()) {
      score += config.parish_weight * parish.Best(node.parishes);
      attainable += config.parish_weight;
    }
    out.push_back(RefResult{node.id, 100.0 * score / attainable});
  }
  std::sort(out.begin(), out.end(), [](const RefResult& a, const RefResult& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  if (out.size() > config.top_m) out.resize(config.top_m);
  return out;
}

std::string CompareRanking(const std::vector<snaps::RankedResult>& got,
                           const std::vector<RefResult>& want) {
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " results, reference has " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].node != want[i].node || std::fabs(got[i].score - want[i].score) > 1e-9) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "rank %zu: got node %u score %.12f, reference node %u score %.12f",
                    i, got[i].node, got[i].score, want[i].node, want[i].score);
      return buf;
    }
  }
  return "";
}

std::string CheckWildcards(const PedigreeGraph& graph, const snaps::Query& query,
                           const std::vector<snaps::RankedResult>& results) {
  const ParsedField first = ParseField(query.first_name);
  const ParsedField surname = ParseField(query.surname);
  for (const snaps::RankedResult& r : results) {
    const PedigreeNode& node = graph.node(r.node);
    const struct {
      const ParsedField& q;
      snaps::MatchType match;
      const std::string& matched;
      const std::vector<std::string>& values;
    } fields[] = {{first, r.first_name_match, r.matched_first_name, node.first_names},
                  {surname, r.surname_match, r.matched_surname, node.surnames}};
    for (const auto& f : fields) {
      if (!f.q.wildcard) continue;
      const bool any = std::any_of(f.values.begin(), f.values.end(), [&](const std::string& v) {
        return StartsWith(v, f.q.value);
      });
      const bool credited = f.match != snaps::MatchType::kNone;
      if (credited != any ||
          (credited && (f.match != snaps::MatchType::kExact || !StartsWith(f.matched, f.q.value)))) {
        return "node " + std::to_string(r.node) + " does not match prefix '" + f.q.value +
               "*' as its result says";
      }
    }
  }
  return "";
}

std::string CheckPedigree(const PedigreeGraph& graph, const snaps::FamilyPedigree& pedigree,
                          PedigreeNodeId root, int generations) {
  std::unordered_map<PedigreeNodeId, int> hops;
  for (const snaps::PedigreeMember& m : pedigree.members) {
    if (m.node >= graph.num_nodes()) return "member outside the graph";
    if (!hops.emplace(m.node, m.hops).second) {
      return "node " + std::to_string(m.node) + " listed twice";
    }
  }
  const auto it = hops.find(root);
  if (pedigree.root != root || it == hops.end() || it->second != 0) {
    return "root " + std::to_string(root) + " not at 0 hops";
  }
  auto adjacent = [&](PedigreeNodeId a, PedigreeNodeId b) {
    for (const snaps::PedigreeEdge& e : graph.Edges(a)) {
      if (e.target == b) return true;
    }
    for (const snaps::PedigreeEdge& e : graph.Edges(b)) {
      if (e.target == a) return true;
    }
    return false;
  };
  for (const snaps::PedigreeMember& m : pedigree.members) {
    if (m.node == root) continue;
    if (m.hops < 1 || m.hops > 2 * generations) {
      return "node " + std::to_string(m.node) + " at " + std::to_string(m.hops) + " hops";
    }
    bool reached = false;
    for (const auto& [other, h] : hops) {
      if (h == m.hops - 1 && adjacent(m.node, other)) {
        reached = true;
        break;
      }
    }
    if (!reached) {
      return "node " + std::to_string(m.node) + " at " + std::to_string(m.hops) +
             " hops has no neighbour one hop closer";
    }
  }
  return "";
}

std::string CompareGraphs(const PedigreeGraph& a, const PedigreeGraph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return "sizes differ: " + std::to_string(a.num_nodes()) + "/" + std::to_string(a.num_edges()) +
           " vs " + std::to_string(b.num_nodes()) + "/" + std::to_string(b.num_edges());
  }
  for (PedigreeNodeId id = 0; id < a.num_nodes(); ++id) {
    const PedigreeNode& x = a.node(id);
    const PedigreeNode& y = b.node(id);
    const bool same =
        x.records == y.records && x.first_names == y.first_names && x.surnames == y.surnames &&
        x.parishes == y.parishes && x.gender == y.gender && x.birth_year == y.birth_year &&
        x.death_year == y.death_year && x.first_event_year == y.first_event_year &&
        x.has_location == y.has_location && std::fabs(x.lat - y.lat) <= 1e-6 &&
        std::fabs(x.lon - y.lon) <= 1e-6 && x.true_person == y.true_person;
    if (!same) return "node " + std::to_string(id) + " differs";
    std::vector<std::pair<PedigreeNodeId, int>> ex, ey;
    for (const snaps::PedigreeEdge& e : a.Edges(id)) ex.emplace_back(e.target, static_cast<int>(e.rel));
    for (const snaps::PedigreeEdge& e : b.Edges(id)) ey.emplace_back(e.target, static_cast<int>(e.rel));
    std::sort(ex.begin(), ex.end());
    std::sort(ey.begin(), ey.end());
    if (ex != ey) return "edges of node " + std::to_string(id) + " differ";
  }
  return "";
}

std::string CheckReconciliation(const std::array<uint64_t, snaps::kNumRequestKinds>& sent,
                                const snaps::MetricsSnapshot& metrics) {
  for (int k = 0; k < snaps::kNumRequestKinds; ++k) {
    const auto& m = metrics.kinds[static_cast<size_t>(k)];
    if (m.started != sent[static_cast<size_t>(k)] || m.ok != sent[static_cast<size_t>(k)]) {
      return std::string(snaps::RequestKindName(static_cast<snaps::RequestKind>(k))) + ": sent " +
             std::to_string(sent[static_cast<size_t>(k)]) + ", service started " +
             std::to_string(m.started) + " and ok " + std::to_string(m.ok);
    }
  }
  return "";
}

std::optional<double> Quantile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (q > 0.5 && n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1), samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return samples.empty() ? 0.0 : *Quantile(std::move(samples), 0.5);
}

}  // namespace snapsbench
