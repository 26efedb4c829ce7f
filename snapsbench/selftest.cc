// Self-test of the benchmark's own checks: each one must pass on a
// correct answer and fail on a planted wrong one. Exits 0 when every
// case behaves, 1 otherwise.
//
//   snapsbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "oracle.h"
#include "pedigree/extraction.h"

namespace snapsbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

snaps::PedigreeNode Node(std::vector<std::string> first, std::vector<std::string> surnames,
                         std::vector<std::string> parishes, snaps::Gender gender, int birth_year) {
  snaps::PedigreeNode n;
  n.first_names = std::move(first);
  n.surnames = std::move(surnames);
  n.parishes = std::move(parishes);
  n.gender = gender;
  n.birth_year = birth_year;
  n.first_event_year = birth_year;
  return n;
}

// Four people: a father (0), a mother (1), their child (2) and an
// unrelated namesake of the child (3).
snaps::PedigreeGraph Family() {
  using snaps::Gender;
  using snaps::Relationship;
  snaps::PedigreeGraph g;
  g.AddNode(Node({"john"}, {"smith"}, {"portree"}, Gender::kMale, 1840));
  g.AddNode(Node({"mary"}, {"smith", "macleod"}, {"portree"}, Gender::kFemale, 1842));
  g.AddNode(Node({"jon"}, {"smith"}, {"snizort"}, Gender::kMale, 1870));
  g.AddNode(Node({"john"}, {"smyth"}, {"kilmuir"}, Gender::kMale, 1871));
  g.AddEdge(2, 0, Relationship::kFather);
  g.AddEdge(2, 1, Relationship::kMother);
  g.AddEdge(0, 2, Relationship::kChild);
  g.AddEdge(1, 2, Relationship::kChild);
  g.AddEdge(0, 1, Relationship::kSpouse);
  g.AddEdge(1, 0, Relationship::kSpouse);
  return g;
}

std::vector<snaps::RankedResult> AsResults(const std::vector<RefResult>& ref) {
  std::vector<snaps::RankedResult> out;
  for (const RefResult& r : ref) {
    snaps::RankedResult x;
    x.node = r.node;
    x.score = r.score;
    out.push_back(x);
  }
  return out;
}

void TestRanking() {
  const snaps::PedigreeGraph g = Family();
  snaps::Query q;
  q.first_name = "John";
  q.surname = "Smith";
  q.year_from = 1869;
  q.year_to = 1872;
  const std::vector<RefResult> want = ReferenceRank(g, q, snaps::QueryConfig(), 0.5);
  // The child (jon smith, born in range) outranks the namesake born out
  // of range; the mother matches on surname only.
  Expect(want.size() == 4 && want[0].node == 2 && want[1].node == 3 && want[2].node == 0 && want[3].node == 1,
         "reference ranking on the hand-made family");
  std::vector<snaps::RankedResult> got = AsResults(want);
  Expect(CompareRanking(got, want).empty(), "ranking check passes the reference's own answer");
  std::swap(got[0], got[1]);
  Expect(!CompareRanking(got, want).empty(), "ranking check fails a swapped ranking");
  got = AsResults(want);
  got[2].score += 1e-6;
  Expect(!CompareRanking(got, want).empty(), "ranking check fails a score off by 1e-6");
  got.pop_back();
  Expect(!CompareRanking(got, want).empty(), "ranking check fails a missing result");

  // Jaro-Winkler against hand-computed textbook values.
  Expect(std::fabs(JaroWinkler("martha", "marhta") - 0.961111111111) < 1e-9, "Jaro-Winkler martha/marhta");
  Expect(std::fabs(JaroWinkler("dwayne", "duane") - 0.84) < 1e-9, "Jaro-Winkler dwayne/duane");
  Expect(ShareBigram("jon", "john") && !ShareBigram("ab", "cd"), "bigram sharing");
}

void TestWildcards() {
  const snaps::PedigreeGraph g = Family();
  snaps::Query q;
  q.first_name = "jo*";
  q.surname = "smith";
  std::vector<snaps::RankedResult> results = AsResults(ReferenceRank(g, q, snaps::QueryConfig(), 0.5));
  for (snaps::RankedResult& r : results) {
    const bool match = g.node(r.node).first_names[0].rfind("jo", 0) == 0;
    r.first_name_match = match ? snaps::MatchType::kExact : snaps::MatchType::kNone;
    r.matched_first_name = match ? g.node(r.node).first_names[0] : "";
  }
  Expect(CheckWildcards(g, q, results).empty(), "wildcard check passes prefix matches");
  results[0].matched_first_name = "mary";
  Expect(!CheckWildcards(g, q, results).empty(), "wildcard check fails a value without the prefix");
}

void TestPedigree() {
  const snaps::PedigreeGraph g = Family();
  snaps::FamilyPedigree p = snaps::ExtractPedigree(g, 2, 2);
  Expect(CheckPedigree(g, p, 2, 2).empty(), "pedigree check passes an extracted pedigree");
  snaps::FamilyPedigree bad = p;
  bad.members.push_back({3, 0, 1});
  Expect(!CheckPedigree(g, bad, 2, 2).empty(), "pedigree check fails a non-adjacent member");
  bad = p;
  for (snaps::PedigreeMember& m : bad.members) {
    if (m.node == 2) m.hops = 1;
  }
  Expect(!CheckPedigree(g, bad, 2, 2).empty(), "pedigree check fails a root not at 0 hops");
}

// Five records: person 7 has records 0, 1 and 2, person 8 has 3 and 4.
Truth FiveRecords() {
  using snaps::Role;
  Truth t;
  t.person = {7, 7, 7, 8, 8};
  t.cert = {0, 1, 2, 3, 4};
  t.role = {Role::kBf, Role::kBf, Role::kDf, Role::kBm, Role::kBm};
  return t;
}

void TestLinkage() {
  const Truth t = FiveRecords();
  // True pairs: (0,1) (0,2) (1,2) (3,4). Predicted: (0,1) right,
  // (2,3) wrong, so tp 1, fp 1, fn 3 and F* = 1/5 = 20%.
  const LinkageScore s = ScorePairs(t, {{0, 1}, {2, 3}});
  Expect(s.tp == 1 && s.fp == 1 && s.fn == 3, "F* counts on the five-record truth set");
  Expect(std::fabs(s.FStarPercent() - 20.0) < 1e-12, "F* is 20% on the five-record truth set");
  double fstar = 0.0;
  Expect(CheckFStarFloor(t, {{0, 1}, {0, 2}, {1, 2}, {3, 4}}, kMinFStarPercent, &fstar).empty() && fstar == 100.0,
         "F* floor check passes the true pairs");
  Expect(!CheckFStarFloor(t, {{0, 1}, {2, 3}}, kMinFStarPercent, &fstar).empty() && fstar == 20.0,
         "F* floor check fails pairs whose F* is 20%");
  const LinkageScore bpdp = ScorePairs(t, {{0, 1}, {0, 2}, {1, 2}}, PairClass::kBpDp);
  Expect(bpdp.tp == 2 && bpdp.fp == 0 && bpdp.fn == 0, "per-class F* counts Bp-Dp pairs only");
  const BlockingScore b = ScoreCandidates(t, {{0, 1}, {0, 3}, {3, 4}});
  Expect(b.true_candidates == 2 && std::fabs(b.Completeness() - 0.5) < 1e-12 &&
             std::fabs(b.Quality() - 2.0 / 3.0) < 1e-12,
         "blocking completeness and quality");
}

void TestPartition() {
  const Truth t = FiveRecords();
  const PartitionReport good = CheckPartition(t, {{0, 1}, {0, 2}, {1, 2}, {3, 4}});
  Expect(good.transitive && good.entities == 2 && good.impossible == 0, "closed pair set is a partition");
  const PartitionReport open = CheckPartition(t, {{0, 1}, {1, 2}});
  Expect(!open.transitive, "partition check fails a non-transitive pair set");
  const PartitionReport dup = CheckPartition(t, {{0, 1}, {0, 1}});
  Expect(!dup.transitive, "partition check fails a duplicated pair");

  Truth same_cert = t;
  same_cert.cert[4] = same_cert.cert[3];  // A planted same-certificate entity.
  const PartitionReport planted = CheckPartition(same_cert, {{0, 1}, {0, 2}, {1, 2}, {3, 4}});
  Expect(planted.transitive && planted.entities == 2 && planted.impossible == 1,
         "a same-certificate entity is counted as failed");
  Truth genders = t;
  genders.role[1] = snaps::Role::kBm;  // Father and mother in one entity.
  Expect(CheckPartition(genders, {{0, 1}}).impossible == 1, "conflicting role genders are counted as failed");
  Truth babies = t;
  babies.role[3] = babies.role[4] = snaps::Role::kBb;
  Expect(CheckPartition(babies, {{3, 4}}).impossible == 1, "two Bb records are counted as failed");
}

void TestReconciliation() {
  snaps::MetricsSnapshot m;
  m.kinds[0].started = m.kinds[0].ok = 10;
  m.kinds[1].started = m.kinds[1].ok = 2;
  m.kinds[2].started = m.kinds[2].ok = 3;
  Expect(CheckReconciliation({10, 2, 3}, m).empty(), "reconciliation passes matching totals");
  Expect(!CheckReconciliation({11, 2, 3}, m).empty(), "reconciliation fails a miscounted total");
  m.kinds[2].ok = 2;
  Expect(!CheckReconciliation({10, 2, 3}, m).empty(), "reconciliation fails a request that was not ok");
}

void TestQuantiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Quantile(v, 0.99) == 990.0 && Median(v) == 500.0, "nearest-rank quantiles");
  v.pop_back();
  Expect(!Quantile(v, 0.99).has_value(), "no 99th percentile with fewer than ten samples beyond it");
  Expect(NormalizeName("  Mac Leod ") == "mac leod" && NormalizeName("O'Brien!") == "o'brien",
         "name normalisation");
}

}  // namespace
}  // namespace snapsbench

int main() {
  snapsbench::TestRanking();
  snapsbench::TestWildcards();
  snapsbench::TestPedigree();
  snapsbench::TestLinkage();
  snapsbench::TestPartition();
  snapsbench::TestReconciliation();
  snapsbench::TestQuantiles();
  std::printf("%s: %d failure(s)\n", snapsbench::g_failures == 0 ? "PASS" : "FAIL", snapsbench::g_failures);
  return snapsbench::g_failures == 0 ? 0 : 1;
}
