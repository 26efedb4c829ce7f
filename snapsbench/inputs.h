#ifndef SNAPSBENCH_INPUTS_H_
#define SNAPSBENCH_INPUTS_H_

// The benchmark's inputs: a synthetic certificate data set (whose
// ground truth the benchmark keeps and the program never sees) and a
// request stream drawn from the run's seed. Both are made before any
// program work starts.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "oracle.h"
#include "query/query.h"

namespace snapsbench {

enum class Preset { kIosLike, kKilLike };

/// Query fields in the order the program indexes them.
inline constexpr int kFirstName = 0;
inline constexpr int kSurname = 1;
inline constexpr int kParish = 2;

/// The refinements one birth (`Bb`) or death (`Dd`) record offers a
/// search: its kind, the person's gender, the event year and parish.
struct RecordFacts {
  snaps::SearchKind kind = snaps::SearchKind::kAny;
  snaps::Gender gender = snaps::Gender::kUnknown;
  int year = 0;        // 0 when the record has none.
  std::string parish;  // Normalised; empty when the record has none.
};

struct Inputs {
  snaps::Dataset dataset;  // Ground-truth column blanked.
  Truth truth;
  /// Per field, the normalised values the program will index (those of
  /// any record), sorted.
  std::array<std::vector<std::string>, 3> values;
  /// The same values ranked by how many true persons carry them (most
  /// first, ties by value): the popularity order of the Zipf draws.
  std::array<std::vector<std::string>, 3> by_popularity;
  /// Every Bb and Dd record, in record order: where searches take their
  /// refinements from.
  std::vector<RecordFacts> searchable;
};

/// Simulates the preset's population (with the preset's own fixed
/// simulator seed), takes the truth out of the records and derives the
/// value universes.
Inputs MakeInputs(Preset preset);

/// Request kinds, numbered as snaps::RequestKind numbers them.
enum class Op : uint8_t { kSearch = 0, kPedigree = 1, kLookup = 2 };

struct Request {
  Op op = Op::kSearch;
  snaps::Query query;   // kSearch.
  double node_u = 0.0;  // kLookup/kPedigree: node = floor(u * nodes).
  bool unindexed_parish = false;
};

/// Hot-name searches: first name and surname drawn from a Zipf law
/// over the popularity ranking; a quarter are prefix wildcards on one
/// field; kind, gender, year and parish come from a uniformly drawn Bb
/// or Dd record.
std::vector<Request> MakeHotStream(const Inputs& in, uint64_t seed, size_t n);

/// Typo traffic: 80% searches, 10% lookups, 10% two-generation
/// pedigrees. Searched names are drawn uniformly and each carries one
/// transcription error (substitution, insertion, deletion or
/// transposition) that makes it a value no record has; half the
/// searches add a misspelt parish. Kind, gender and year come from a
/// uniformly drawn Bb or Dd record.
std::vector<Request> MakeTypoStream(const Inputs& in, uint64_t seed, size_t n);

}  // namespace snapsbench

#endif  // SNAPSBENCH_INPUTS_H_
