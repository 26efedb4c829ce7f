#include "query/query_processor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "strsim/similarity.h"
#include "util/string_util.h"

namespace snaps {

Result<void> QueryConfig::Validate() const {
  const struct {
    const char* name;
    double value;
  } weights[] = {
      {"first_name_weight", first_name_weight},
      {"surname_weight", surname_weight},
      {"year_weight", year_weight},
      {"gender_weight", gender_weight},
      {"parish_weight", parish_weight},
  };
  double sum = 0.0;
  for (const auto& w : weights) {
    if (!std::isfinite(w.value) || w.value < 0.0) {
      return Status::InvalidArgument(std::string(w.name) +
                                     " must be finite and >= 0");
    }
    sum += w.value;
  }
  if (std::fabs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument(
        "attribute weights must sum to 1 (got " + std::to_string(sum) + ")");
  }
  if (top_m == 0) {
    return Status::InvalidArgument("top_m must be > 0");
  }
  if (year_slack < 0) {
    return Status::InvalidArgument("year_slack must be >= 0");
  }
  return Result<void>::Ok();
}

const char* MatchTypeName(MatchType t) {
  switch (t) {
    case MatchType::kNone:
      return "none";
    case MatchType::kApproximate:
      return "approx";
    case MatchType::kExact:
      return "exact";
  }
  return "unknown";
}

namespace {

/// Per-candidate accumulator entry (the accumulator M of Section 7).
struct Accumulated {
  double first_sim = 0.0;
  double surname_sim = 0.0;
  std::string first_value;
  std::string surname_value;
};

MatchType TypeOf(double sim) {
  if (sim >= 1.0) return MatchType::kExact;
  if (sim > 0.0) return MatchType::kApproximate;
  return MatchType::kNone;
}

}  // namespace

QueryProcessor::QueryProcessor(const KeywordIndex* keyword_index,
                               const SimilarityIndex* similarity_index,
                               QueryConfig config)
    : keyword_index_(keyword_index),
      similarity_index_(similarity_index),
      config_(config) {}

Result<QueryProcessor> QueryProcessor::Create(
    const KeywordIndex* keyword_index, const SimilarityIndex* similarity_index,
    QueryConfig config) {
  if (keyword_index == nullptr || similarity_index == nullptr) {
    return Status::InvalidArgument("QueryProcessor requires both indices");
  }
  if (Result<void> v = config.Validate(); !v.ok()) return v.status();
  return QueryProcessor(keyword_index, similarity_index, config);
}

SearchOutcome QueryProcessor::Search(const Query& query,
                                     const Deadline& deadline) const {
  SearchOutcome outcome;
  std::vector<RankedResult>& results = outcome.results;
  // Deadline check, amortised: the clock is read once per 64 units of
  // work (one candidate credited or scored), and a unit in flight is
  // always finished — cooperative cancellation, not preemption.
  size_t work_units = 0;
  auto out_of_time = [&]() {
    if ((++work_units & 63u) != 0 && !outcome.truncated) return false;
    if (!outcome.truncated && deadline.expired()) outcome.truncated = true;
    return outcome.truncated;
  };
  // Wildcards are detected on the raw input (normalisation strips the
  // '*'): a trailing star requests a prefix search on that field.
  auto parse_field = [](const std::string& raw, bool* wildcard) {
    std::string_view v = TrimAscii(raw);
    *wildcard = !v.empty() && v.back() == '*';
    if (*wildcard) v.remove_suffix(1);
    return NormalizeValue(v);
  };
  bool first_wildcard = false, surname_wildcard = false;
  const std::string qfirst = parse_field(query.first_name, &first_wildcard);
  const std::string qsurname =
      parse_field(query.surname, &surname_wildcard);
  if ((qfirst.empty() && !first_wildcard) ||
      (qsurname.empty() && !surname_wildcard)) {
    return outcome;
  }

  const PedigreeGraph& graph = keyword_index_->graph();

  // Name retrieval into the accumulator: entities with an exact or
  // approximate match on first name and/or surname. A trailing '*'
  // turns the field into a prefix wildcard ("mac*" matches every
  // indexed value starting with "mac", scored as an exact match).
  std::unordered_map<PedigreeNodeId, Accumulated> accumulator;
  auto credit = [&](QueryField field, PedigreeNodeId id,
                    const std::string& value, double sim) {
    Accumulated& acc = accumulator[id];
    if (field == QueryField::kFirstName) {
      if (sim > acc.first_sim) {
        acc.first_sim = sim;
        acc.first_value = value;
      }
    } else if (sim > acc.surname_sim) {
      acc.surname_sim = sim;
      acc.surname_value = value;
    }
  };
  auto accumulate = [&](QueryField field, const std::string& qvalue,
                        bool wildcard) {
    if (wildcard) {
      const auto& values = keyword_index_->Values(field);
      // Values are sorted: scan the contiguous prefix range.
      auto it = std::lower_bound(values.begin(), values.end(), qvalue);
      for (; it != values.end() && it->rfind(qvalue, 0) == 0; ++it) {
        if (out_of_time()) return;
        const std::vector<PedigreeNodeId>* ids =
            keyword_index_->Lookup(field, *it);
        if (ids == nullptr) continue;
        for (PedigreeNodeId id : *ids) credit(field, id, *it, 1.0);
      }
      return;
    }
    for (const SimilarValue& sv :
         similarity_index_->Similar(field, qvalue)) {
      if (out_of_time()) return;
      const std::vector<PedigreeNodeId>* ids =
          keyword_index_->Lookup(field, sv.value);
      if (ids == nullptr) continue;
      for (PedigreeNodeId id : *ids) credit(field, id, sv.value, sv.similarity);
    }
  };
  accumulate(QueryField::kFirstName, qfirst, first_wildcard);
  accumulate(QueryField::kSurname, qsurname, surname_wildcard);

  const std::string qparish = NormalizeValue(query.parish);
  // Looked up once per search, not per candidate: a parish missing
  // from the index (a misspelling) costs one bigram scan.
  const SimilarMatches parish_matches = [&] {
    if (qparish.empty()) return SimilarMatches(std::vector<SimilarValue>());
    return similarity_index_->Similar(QueryField::kParish, qparish);
  }();

  // Geographic region limit (future-work feature of Section 12): the
  // named place is resolved through the gazetteer and entities with a
  // known location outside the radius are excluded.
  std::optional<GeoPoint> region_center;
  if (!query.near_place.empty() && gazetteer_ != nullptr) {
    region_center = gazetteer_->FindApprox(query.near_place);
    if (!region_center.has_value()) {
      region_center = gazetteer_->Centroid(query.near_place);
    }
  }

  for (const auto& [id, acc] : accumulator) {
    if (out_of_time()) break;
    const PedigreeNode& node = graph.node(id);

    // Record-kind filter: a birth search needs a birth record, etc.
    if (query.kind == SearchKind::kBirth && node.birth_year == 0) continue;
    if (query.kind == SearchKind::kDeath && node.death_year == 0) continue;
    if (region_center.has_value() && node.has_location &&
        HaversineKm(node.lat, node.lon, region_center->lat,
                    region_center->lon) > query.within_km) {
      continue;
    }

    RankedResult r;
    r.node = id;
    r.first_name_match = TypeOf(acc.first_sim);
    r.surname_match = TypeOf(acc.surname_sim);
    r.matched_first_name = acc.first_value;
    r.matched_surname = acc.surname_value;

    double score = config_.first_name_weight * acc.first_sim +
                   config_.surname_weight * acc.surname_sim;
    double attainable =
        config_.first_name_weight + config_.surname_weight;

    // Year refinement (only when the user supplied a range).
    if (query.year_from.has_value() || query.year_to.has_value()) {
      int year = 0;
      switch (query.kind) {
        case SearchKind::kBirth:
          year = node.birth_year;
          break;
        case SearchKind::kDeath:
          year = node.death_year;
          break;
        case SearchKind::kAny:
          year = node.birth_year != 0 ? node.birth_year
                                      : node.first_event_year;
          break;
      }
      const int lo = query.year_from.value_or(-100000);
      const int hi = query.year_to.value_or(100000);
      double ysim = 0.0;
      if (year != 0) {
        if (year >= lo && year <= hi) {
          ysim = 1.0;
        } else {
          const int dist = year < lo ? lo - year : year - hi;
          if (dist <= config_.year_slack) {
            ysim = 1.0 - static_cast<double>(dist) /
                             (config_.year_slack + 1.0);
          }
        }
      }
      r.year_match = TypeOf(ysim);
      score += config_.year_weight * ysim;
      attainable += config_.year_weight;
    }

    // Gender refinement.
    if (query.gender != Gender::kUnknown) {
      const double gsim =
          node.gender == query.gender ? 1.0 : 0.0;
      r.gender_match = TypeOf(gsim);
      score += config_.gender_weight * gsim;
      attainable += config_.gender_weight;
    }

    // Parish refinement (exact and approximate).
    if (!qparish.empty()) {
      double psim = 0.0;
      for (const SimilarValue& sv : parish_matches) {
        if (std::find(node.parishes.begin(), node.parishes.end(), sv.value) !=
            node.parishes.end()) {
          if (sv.similarity > psim) {
            psim = sv.similarity;
            r.matched_parish = sv.value;
          }
        }
      }
      r.parish_match = TypeOf(psim);
      score += config_.parish_weight * psim;
      attainable += config_.parish_weight;
    }

    r.score = attainable > 0.0 ? 100.0 * score / attainable : 0.0;
    results.push_back(std::move(r));
  }

  std::sort(results.begin(), results.end(),
            [](const RankedResult& a, const RankedResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.node < b.node;  // Deterministic ordering.
            });
  if (results.size() > config_.top_m) {
    results.resize(config_.top_m);
    // The buffer still holds room for every candidate (thousands for
    // a misspelt name); callers that keep responses should not pay
    // for it.
    results.shrink_to_fit();
  }
  return outcome;
}

}  // namespace snaps
