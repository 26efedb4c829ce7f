#include "inputs.h"

#include <algorithm>
#include <map>
#include <set>

#include "datagen/simulator.h"
#include "util/rng.h"

namespace snapsbench {

namespace {

using snaps::Attr;
using snaps::Rng;

constexpr Attr kFieldAttr[3] = {Attr::kFirstName, Attr::kSurname, Attr::kParish};

// One transcription error that yields a value no record carries, or ""
// when 64 tries found none.
std::string Misspell(const std::string& value, const std::vector<std::string>& known, Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::string t = value;
    const char letter = static_cast<char>('a' + rng.NextUint64(26));
    const size_t pos = rng.NextUint64(t.size());
    switch (rng.NextUint64(4)) {
      case 0:
        t[pos] = letter;
        break;
      case 1:
        t.insert(t.begin() + static_cast<long>(pos), letter);
        break;
      case 2:
        t.erase(pos, 1);
        break;
      default:
        if (pos + 1 < t.size()) std::swap(t[pos], t[pos + 1]);
        break;
    }
    t = NormalizeName(t);
    if (t.size() >= 2 && !std::binary_search(known.begin(), known.end(), t)) return t;
  }
  return "";
}

// Kind, gender and year (as a one-year range; the processor's year
// slack widens it) of a uniformly drawn Bb or Dd record, as
// bench/bench_table7_query_latency.cc forms its queries from such records.
const RecordFacts& Refine(const Inputs& in, Rng& rng, snaps::Query* q) {
  const RecordFacts& r = in.searchable[rng.NextUint64(in.searchable.size())];
  q->kind = r.kind;
  q->gender = r.gender;
  if (r.year != 0) q->year_from = q->year_to = r.year;
  return r;
}

}  // namespace

Inputs MakeInputs(Preset preset) {
  const snaps::SimulatorConfig config = preset == Preset::kKilLike
                                            ? snaps::SimulatorConfig::KilLike()
                                            : snaps::SimulatorConfig::IosLike();
  Inputs in;
  in.dataset = snaps::PopulationSimulator(config).Generate().dataset;
  const size_t n = in.dataset.num_records();
  in.truth.person.resize(n);
  in.truth.cert.resize(n);
  in.truth.role.resize(n);
  std::array<std::map<std::string, std::set<uint32_t>>, 3> carriers;
  for (uint32_t r = 0; r < n; ++r) {
    snaps::Record& rec = in.dataset.mutable_record(r);
    in.truth.person[r] = rec.true_person;
    in.truth.cert[r] = rec.cert_id;
    in.truth.role[r] = rec.role;
    for (int f = 0; f < 3; ++f) {
      const std::string v = NormalizeName(rec.value(kFieldAttr[f]));
      if (!v.empty()) carriers[f][v].insert(rec.true_person);
    }
    if (rec.role == snaps::Role::kBb || rec.role == snaps::Role::kDd) {
      in.searchable.push_back({rec.role == snaps::Role::kBb ? snaps::SearchKind::kBirth : snaps::SearchKind::kDeath,
                               rec.gender(), rec.event_year(), NormalizeName(rec.value(Attr::kParish))});
    }
    rec.true_person = snaps::kUnknownPersonId;
  }
  for (int f = 0; f < 3; ++f) {
    for (const auto& [value, people] : carriers[f]) in.values[f].push_back(value);
    in.by_popularity[f] = in.values[f];
    std::stable_sort(in.by_popularity[f].begin(), in.by_popularity[f].end(),
                     [&](const std::string& a, const std::string& b) {
                       return carriers[f][a].size() > carriers[f][b].size();
                     });
  }
  return in;
}

std::vector<Request> MakeHotStream(const Inputs& in, uint64_t seed, size_t n) {
  Rng rng(seed);
  const snaps::ZipfSampler first(in.by_popularity[kFirstName].size(), 1.0);
  const snaps::ZipfSampler surname(in.by_popularity[kSurname].size(), 1.0);
  std::vector<Request> out(n);
  for (Request& req : out) {
    snaps::Query& q = req.query;
    q.first_name = in.by_popularity[kFirstName][first.Sample(rng)];
    q.surname = in.by_popularity[kSurname][surname.Sample(rng)];
    if (rng.NextBool(0.25)) {
      std::string& field = rng.NextBool(0.5) ? q.first_name : q.surname;
      field = field.substr(0, 3) + "*";
    }
    q.parish = Refine(in, rng, &q).parish;
  }
  return out;
}

std::vector<Request> MakeTypoStream(const Inputs& in, uint64_t seed, size_t n) {
  Rng rng(seed);
  auto misspelt = [&](int field) {
    const std::vector<std::string>& known = in.values[field];
    for (;;) {
      const std::string t = Misspell(known[rng.NextUint64(known.size())], known, rng);
      if (!t.empty()) return t;
    }
  };
  std::vector<Request> out(n);
  for (Request& req : out) {
    const double op = rng.NextDouble();
    if (op >= 0.8) {
      req.op = op < 0.9 ? Op::kLookup : Op::kPedigree;
      req.node_u = rng.NextDouble();
      continue;
    }
    snaps::Query& q = req.query;
    q.first_name = misspelt(kFirstName);
    q.surname = misspelt(kSurname);
    Refine(in, rng, &q);
    if (rng.NextBool(0.5)) {
      q.parish = misspelt(kParish);
      req.unindexed_parish = true;
    }
  }
  return out;
}

}  // namespace snapsbench
