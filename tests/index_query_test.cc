#include <gtest/gtest.h>

#include "core/er_engine.h"
#include "index/keyword_index.h"
#include "index/similarity_index.h"
#include "pedigree/pedigree_graph.h"
#include "query/query_processor.h"
#include "util/execution_context.h"

namespace snaps {
namespace {

/// Small searchable universe built through the real offline pipeline.
class IndexQueryTest : public ::testing::Test {
 protected:
  IndexQueryTest() {
    AddBirth(1862, "flora", "mackinnon", "f", "portree");
    AddBirth(1866, "kenneth", "mackinnon", "m", "portree");
    AddBirth(1871, "flora", "nicolson", "f", "snizort");
    AddBirth(1875, "morag", "beaton", "f", "duirinish");
    AddDeath(1884, "flora", "mackinnon", "f", "portree");

    result_ = std::make_unique<ErResult>(ErEngine().Resolve(ds_));
    graph_ = std::make_unique<PedigreeGraph>(
        PedigreeGraph::Build(ds_, *result_));
    keyword_ = std::make_unique<KeywordIndex>(graph_.get());
    similarity_ = std::make_unique<SimilarityIndex>(keyword_.get(), 0.5);
    processor_ = std::make_unique<QueryProcessor>(keyword_.get(),
                                                  similarity_.get());
  }

  void AddBirth(int year, const std::string& first,
                const std::string& surname, const std::string& gender,
                const std::string& parish) {
    const CertId c = ds_.AddCertificate(CertType::kBirth, year);
    Record baby;
    baby.set_value(Attr::kFirstName, first);
    baby.set_value(Attr::kSurname, surname);
    baby.set_value(Attr::kGender, gender);
    baby.set_value(Attr::kParish, parish);
    ds_.AddRecord(c, Role::kBb, baby);
    Record mother;
    mother.set_value(Attr::kFirstName, "mairi");
    mother.set_value(Attr::kSurname, surname);
    mother.set_value(Attr::kGender, "f");
    ds_.AddRecord(c, Role::kBm, mother);
  }

  void AddDeath(int year, const std::string& first,
                const std::string& surname, const std::string& gender,
                const std::string& parish) {
    const CertId c = ds_.AddCertificate(CertType::kDeath, year);
    Record dd;
    dd.set_value(Attr::kFirstName, first);
    dd.set_value(Attr::kSurname, surname);
    dd.set_value(Attr::kGender, gender);
    dd.set_value(Attr::kParish, parish);
    ds_.AddRecord(c, Role::kDd, dd);
  }

  Dataset ds_;
  std::unique_ptr<ErResult> result_;
  std::unique_ptr<PedigreeGraph> graph_;
  std::unique_ptr<KeywordIndex> keyword_;
  std::unique_ptr<SimilarityIndex> similarity_;
  std::unique_ptr<QueryProcessor> processor_;
};

// --------------------------------------------------- KeywordIndex.

TEST_F(IndexQueryTest, KeywordLookupFindsEntities) {
  const auto* ids = keyword_->Lookup(QueryField::kFirstName, "flora");
  ASSERT_NE(ids, nullptr);
  EXPECT_GE(ids->size(), 2u);  // flora mackinnon + flora nicolson.
  EXPECT_EQ(keyword_->Lookup(QueryField::kFirstName, "zebedee"), nullptr);
}

TEST_F(IndexQueryTest, KeywordIndexCoversAllFields) {
  EXPECT_GT(keyword_->NumEntries(QueryField::kFirstName), 0u);
  EXPECT_GT(keyword_->NumEntries(QueryField::kSurname), 0u);
  EXPECT_GT(keyword_->NumEntries(QueryField::kParish), 0u);
}

TEST_F(IndexQueryTest, ValuesAreSortedDistinct) {
  const auto& values = keyword_->Values(QueryField::kSurname);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  EXPECT_EQ(std::adjacent_find(values.begin(), values.end()), values.end());
}

// ------------------------------------------------ SimilarityIndex.

TEST_F(IndexQueryTest, ParallelBuildIdenticalToSerial) {
  SimilarityIndex parallel(keyword_.get(), 0.5, ExecutionContext(4));
  for (int f = 0; f < kNumQueryFields; ++f) {
    const QueryField field = static_cast<QueryField>(f);
    for (const std::string& v : keyword_->Values(field)) {
      const auto& a = similarity_->Similar(field, v);
      const auto& b = parallel.Similar(field, v);
      ASSERT_EQ(a.size(), b.size()) << v;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_DOUBLE_EQ(a[i].similarity, b[i].similarity);
      }
    }
  }
}

TEST_F(IndexQueryTest, ExactValueIsItsOwnBestMatch) {
  const auto& similar =
      similarity_->Similar(QueryField::kSurname, "mackinnon");
  ASSERT_FALSE(similar.empty());
  EXPECT_EQ(similar[0].value, "mackinnon");
  EXPECT_DOUBLE_EQ(similar[0].similarity, 1.0);
}

TEST_F(IndexQueryTest, AllEntriesAboveThreshold) {
  for (const std::string& v : keyword_->Values(QueryField::kFirstName)) {
    for (const SimilarValue& sv :
         similarity_->Similar(QueryField::kFirstName, v)) {
      EXPECT_GE(sv.similarity, similarity_->threshold());
    }
  }
}

TEST_F(IndexQueryTest, UnseenQueryValueComputedOnTheFly) {
  // "floraa" is not an indexed value; the index must still resolve it
  // against values sharing a bigram. The fallback computes into the
  // returned object (no caching: the const read path must stay
  // mutation-free so concurrent readers need no locks), so repeated
  // lookups are deterministic but independent.
  const auto& similar =
      similarity_->Similar(QueryField::kFirstName, "floraa");
  ASSERT_FALSE(similar.empty());
  EXPECT_EQ(similar[0].value, "flora");
  const auto& again = similarity_->Similar(QueryField::kFirstName, "floraa");
  ASSERT_EQ(similar.size(), again.size());
  for (size_t i = 0; i < similar.size(); ++i) {
    EXPECT_EQ(similar[i].value, again[i].value);
    EXPECT_DOUBLE_EQ(similar[i].similarity, again[i].similarity);
  }
}

TEST_F(IndexQueryTest, ResultsSortedBySimilarity) {
  const auto& similar =
      similarity_->Similar(QueryField::kSurname, "mackinnon");
  for (size_t i = 1; i < similar.size(); ++i) {
    EXPECT_GE(similar[i - 1].similarity, similar[i].similarity);
  }
}

// --------------------------------------------------------- Query.

TEST_F(IndexQueryTest, ExactSearchFindsPerson) {
  Query q;
  q.first_name = "Flora";
  q.surname = "Mackinnon";
  const auto results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  const PedigreeNode& top = graph_->node(results[0].node);
  EXPECT_EQ(top.first_names[0], "flora");
  EXPECT_EQ(results[0].first_name_match, MatchType::kExact);
  EXPECT_EQ(results[0].surname_match, MatchType::kExact);
  EXPECT_NEAR(results[0].score, 100.0, 1e-9);
}

TEST_F(IndexQueryTest, TypoQueryFindsApproximateMatch) {
  Query q;
  q.first_name = "flora";
  q.surname = "mackinon";  // Missing 'n'.
  const auto results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].surname_match, MatchType::kApproximate);
  EXPECT_LT(results[0].score, 100.0);
  EXPECT_GT(results[0].score, 80.0);
}

TEST_F(IndexQueryTest, MandatoryNamesRequired) {
  Query q;
  q.first_name = "flora";
  EXPECT_TRUE(processor_->Search(q).results.empty());
  q.first_name = "";
  q.surname = "mackinnon";
  EXPECT_TRUE(processor_->Search(q).results.empty());
}

TEST_F(IndexQueryTest, KindFilterBirthVsDeath) {
  Query q;
  q.first_name = "morag";
  q.surname = "beaton";
  q.kind = SearchKind::kBirth;
  const auto birth_results = processor_->Search(q).results;
  ASSERT_FALSE(birth_results.empty());
  const PedigreeNodeId morag = birth_results[0].node;
  EXPECT_NE(graph_->node(morag).birth_year, 0);

  // Morag has no death record; a death search may still return
  // *approximate* strangers (as in the paper's Figure 6) but never
  // morag's entity, and every result must have a death record.
  q.kind = SearchKind::kDeath;
  for (const RankedResult& r : processor_->Search(q).results) {
    EXPECT_NE(r.node, morag);
    EXPECT_NE(graph_->node(r.node).death_year, 0);
  }
}

TEST_F(IndexQueryTest, GenderRefinementScores) {
  Query q;
  q.first_name = "flora";
  q.surname = "nicolson";
  q.gender = Gender::kFemale;
  auto results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].gender_match, MatchType::kExact);

  q.gender = Gender::kMale;
  results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].gender_match, MatchType::kNone);
  EXPECT_LT(results[0].score, 100.0);
}

TEST_F(IndexQueryTest, YearRangeScoring) {
  Query q;
  q.first_name = "flora";
  q.surname = "nicolson";
  q.kind = SearchKind::kBirth;
  q.year_from = 1870;
  q.year_to = 1872;
  auto results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].year_match, MatchType::kExact);

  q.year_from = 1874;  // Off by 3 years: approximate.
  q.year_to = 1878;
  results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].year_match, MatchType::kApproximate);

  q.year_from = 1900;  // Far away: no year credit.
  q.year_to = 1910;
  results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].year_match, MatchType::kNone);
}

TEST_F(IndexQueryTest, ParishRefinement) {
  Query q;
  q.first_name = "flora";
  q.surname = "mackinnon";
  q.parish = "portree";
  auto results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].parish_match, MatchType::kExact);
  EXPECT_EQ(results[0].matched_parish, "portree");
}

TEST_F(IndexQueryTest, UnindexedParishMatchesApproximately) {
  // "portre" is in no index list: the similar parishes come from one
  // on-the-fly bigram lookup per search, and every candidate is scored
  // against them.
  Query q;
  q.first_name = "flora";
  q.surname = "mackinnon";
  q.parish = "portre";
  const auto results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].parish_match, MatchType::kApproximate);
  EXPECT_EQ(results[0].matched_parish, "portree");
  for (const RankedResult& r : results) {
    if (r.parish_match != MatchType::kNone) {
      EXPECT_EQ(r.matched_parish, "portree");
    }
  }
}

TEST_F(IndexQueryTest, RankingPrefersBetterMatches) {
  Query q;
  q.first_name = "flora";
  q.surname = "mackinnon";
  const auto results = processor_->Search(q).results;
  ASSERT_GE(results.size(), 2u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
  // flora mackinnon ranks above flora nicolson.
  EXPECT_EQ(graph_->node(results[0].node).surnames[0], "mackinnon");
}

TEST_F(IndexQueryTest, WildcardPrefixSearch) {
  Query q;
  q.first_name = "flora";
  q.surname = "mac*";  // Prefix wildcard.
  const auto results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].surname_match, MatchType::kExact);
  EXPECT_EQ(results[0].matched_surname.rfind("mac", 0), 0u);
}

TEST_F(IndexQueryTest, WildcardOnBothFields) {
  Query q;
  q.first_name = "f*";
  q.surname = "*";  // Matches every surname.
  const auto results = processor_->Search(q).results;
  ASSERT_FALSE(results.empty());
  // A match on one name field is enough to enter the result set
  // (Section 7); results whose first name matched must match the
  // prefix, and they must outrank surname-only matches.
  EXPECT_EQ(results[0].first_name_match, MatchType::kExact);
  for (const RankedResult& r : results) {
    if (r.first_name_match == MatchType::kExact) {
      EXPECT_EQ(r.matched_first_name.rfind("f", 0), 0u);
    }
  }
}

TEST_F(IndexQueryTest, WildcardDoesNotMatchOtherPrefixes) {
  Query q;
  q.first_name = "morag";
  q.surname = "nic*";
  const auto results = processor_->Search(q).results;
  for (const RankedResult& r : results) {
    if (r.surname_match == MatchType::kExact) {
      EXPECT_EQ(r.matched_surname.rfind("nic", 0), 0u);
    }
  }
}

TEST_F(IndexQueryTest, TopMLimitsResults) {
  QueryConfig cfg;
  cfg.top_m = 1;
  QueryProcessor limited(keyword_.get(), similarity_.get(), cfg);
  Query q;
  q.first_name = "flora";
  q.surname = "mackinnon";
  EXPECT_EQ(limited.Search(q).results.size(), 1u);
}

}  // namespace
}  // namespace snaps
