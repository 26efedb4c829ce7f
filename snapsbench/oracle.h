#ifndef SNAPSBENCH_ORACLE_H_
#define SNAPSBENCH_ORACLE_H_

// Checks that judge the program's outputs against things the benchmark
// computes on its own: the ground truth it withholds from the program,
// a brute-force ranker that uses neither index, and structural
// invariants of pedigrees, pair sets and service counters. Nothing
// here calls into src/eval, the indexes or the string-similarity
// module, so a fault there cannot hide itself.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/role.h"
#include "pedigree/extraction.h"
#include "pedigree/pedigree_graph.h"
#include "query/query.h"
#include "query/query_processor.h"
#include "serve/metrics.h"

namespace snapsbench {

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;

/// What the benchmark knows about every record and the program does
/// not: the person it belongs to. Certificate and role come from the
/// same generated data set and index the impossibility rules.
struct Truth {
  std::vector<uint32_t> person;
  std::vector<uint32_t> cert;
  std::vector<snaps::Role> role;
  size_t size() const { return person.size(); }
};

/// Which record pairs a linkage score counts: all of them, or one of
/// the paper's role-pair classes (birth parents with birth parents,
/// birth parents with death parents).
enum class PairClass { kAll, kBpBp, kBpDp };

struct LinkageScore {
  uint64_t tp = 0;
  uint64_t fp = 0;
  uint64_t fn = 0;
  /// F* = tp / (tp + fp + fn), as a percentage; 0 with no pairs.
  double FStarPercent() const;
};

/// Scores matched pairs (first < second, any order, no duplicates)
/// against the truth.
LinkageScore ScorePairs(const Truth& truth, const PairList& pairs,
                        PairClass cls = PairClass::kAll);

/// Floor on the linkage F* of every workload, in percent.
inline constexpr double kMinFStarPercent = 75.0;

/// Scores the pairs and stores their F* in `fstar`; empty when it
/// reaches `floor` percent, else what fell short.
std::string CheckFStarFloor(const Truth& truth, const PairList& pairs, double floor, double* fstar);

/// Blocking quality over candidate pairs: the share of true pairs that
/// are candidates, and the share of candidates that are true pairs.
struct BlockingScore {
  uint64_t candidates = 0;
  uint64_t true_candidates = 0;
  uint64_t true_pairs = 0;
  double Completeness() const;
  double Quality() const;
};
BlockingScore ScoreCandidates(const Truth& truth, const PairList& candidates);

/// The entities a pair set defines and whether it is a partition.
struct PartitionReport {
  /// Every pair inside a connected component is present, so the pairs
  /// are transitively closed; false also on a duplicated or malformed
  /// pair.
  bool transitive = true;
  std::string problem;
  /// Entities with two or more records.
  uint64_t entities = 0;
  /// Entities holding two records no one person can share.
  uint64_t impossible = 0;
  std::vector<std::string> impossible_examples;  // First few, described.
};
PartitionReport CheckPartition(const Truth& truth, const PairList& pairs);

/// Gender a role implies on its own (mother, bride, ... are female);
/// unknown for roles that do not fix it.
snaps::Gender RoleGender(snaps::Role role);

/// The benchmark's own value normalisation: trim, lower-case, keep
/// letters, digits, '-' and '\'', and collapse inner white space.
std::string NormalizeName(std::string_view raw);

/// Jaro-Winkler similarity (prefix scale 0.1, at most 4 prefix
/// characters).
double JaroWinkler(std::string_view a, std::string_view b);

/// True when the two strings share a bigram; a string shorter than two
/// characters counts as its own single bigram.
bool ShareBigram(std::string_view a, std::string_view b);

/// One entry of a reference ranking.
struct RefResult {
  snaps::PedigreeNodeId node = 0;
  double score = 0.0;
};

/// Brute-force ranking of every pedigree node for `query` with the
/// processor's weights and threshold `s_t`: a value scores 1 when it
/// equals the query value (or starts with a wildcard prefix), the
/// Jaro-Winkler score when the two share a bigram and reach s_t, and 0
/// otherwise. Returns the top `config.top_m`, ties by node id.
std::vector<RefResult> ReferenceRank(const snaps::PedigreeGraph& graph,
                                     const snaps::Query& query,
                                     const snaps::QueryConfig& config,
                                     double s_t);

/// Empty when `got` equals `want` (same nodes in the same order,
/// scores within 1e-9), else what differs.
std::string CompareRanking(const std::vector<snaps::RankedResult>& got,
                           const std::vector<RefResult>& want);

/// Empty when every result of a wildcard field matches its prefix:
/// a result credited on that field carries a value with the prefix,
/// and one not credited has none.
std::string CheckWildcards(const snaps::PedigreeGraph& graph,
                           const snaps::Query& query,
                           const std::vector<snaps::RankedResult>& results);

/// Empty when the pedigree holds its root at 0 hops, no member twice,
/// no member beyond 2 * generations hops, and every other member is
/// adjacent to a member one hop closer.
std::string CheckPedigree(const snaps::PedigreeGraph& graph,
                          const snaps::FamilyPedigree& pedigree,
                          snaps::PedigreeNodeId root, int generations);

/// Empty when the two graphs hold the same nodes and edges (locations
/// within the 1e-6 degrees the snapshot format keeps).
std::string CompareGraphs(const snaps::PedigreeGraph& a,
                          const snaps::PedigreeGraph& b);

/// Empty when, per request kind, the benchmark's own count of requests
/// sent equals the service's started and ok counts.
std::string CheckReconciliation(
    const std::array<uint64_t, snaps::kNumRequestKinds>& sent,
    const snaps::MetricsSnapshot& metrics);

/// Nearest-rank quantile of unsorted samples; nullopt when fewer than
/// ten samples would lie above it (so no tail is claimed from a
/// handful of points).
std::optional<double> Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

}  // namespace snapsbench

#endif  // SNAPSBENCH_ORACLE_H_
