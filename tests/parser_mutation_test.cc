// Deterministic mutation test of the parsers that read persisted or
// user-supplied bytes: every single-byte flip and every truncation of
// a small fixture is fed to ParseCsvLenient, UnwrapSnapshotPayload and
// DeserializePedigreeGraph. Pedigree payload mutants are re-wrapped
// with a valid checksum so they get past the snapshot container and
// reach the deserialiser. Every mutant must come back as an error
// Status or as a well-formed value; a crash or sanitizer report fails
// the test.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "pedigree/pedigree_graph.h"
#include "pedigree/serialization.h"
#include "util/csv.h"
#include "util/snapshot.h"

namespace snaps {
namespace {

/// Bit masks applied to each byte: every single-bit flip plus the
/// whole-byte inversion.
constexpr unsigned char kFlips[] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0xff};

/// Calls `check` on every single-byte flip and every strict prefix of
/// `input`, in a fixed order.
void ForEachMutant(const std::string& input,
                   const std::function<void(const std::string&)>& check) {
  for (size_t i = 0; i < input.size(); ++i) {
    for (unsigned char mask : kFlips) {
      std::string mutant = input;
      mutant[i] = static_cast<char>(static_cast<unsigned char>(mutant[i]) ^
                                    mask);
      check(mutant);
    }
  }
  for (size_t len = 0; len < input.size(); ++len) {
    check(input.substr(0, len));
  }
}

PedigreeGraph FixtureGraph() {
  PedigreeGraph g;
  const char* names[] = {"flora", "kenneth", "morag", "donald"};
  for (int i = 0; i < 4; ++i) {
    PedigreeNode n;
    n.gender = i % 2 == 0 ? Gender::kFemale : Gender::kMale;
    n.birth_year = 1850 + 10 * i;
    n.death_year = i == 0 ? 1921 : 0;
    n.first_event_year = n.birth_year;
    n.true_person =
        i == 3 ? kUnknownPersonId : static_cast<PersonId>(40 + i);
    n.first_names = {names[i]};
    n.surnames = {"mackinnon", "nicolson"};
    n.parishes = {"portree"};
    n.records = {static_cast<RecordId>(3 * i),
                 static_cast<RecordId>(3 * i + 1)};
    if (i < 2) {
      n.has_location = true;
      n.lat = 57.41 + i;
      n.lon = -6.19;
    }
    g.AddNode(std::move(n));
  }
  g.AddEdge(0, 1, Relationship::kSpouse);
  g.AddEdge(1, 0, Relationship::kSpouse);
  g.AddEdge(2, 0, Relationship::kMother);
  g.AddEdge(0, 2, Relationship::kChild);
  g.AddEdge(3, 1, Relationship::kFather);
  return g;
}

/// A well-formed graph: node ids are their positions and every edge
/// points at an existing node.
void ExpectWellFormed(const PedigreeGraph& g) {
  for (PedigreeNodeId id = 0; id < g.num_nodes(); ++id) {
    ASSERT_EQ(g.nodes()[id].id, id);
    for (const PedigreeEdge& e : g.Edges(id)) {
      ASSERT_LT(e.target, g.num_nodes());
    }
  }
}

TEST(ParserMutationTest, CsvLenientSurvivesMutants) {
  const std::string csv =
      "kind,name,note\r\n"
      "node,\"mackinnon, flora\",\"said \"\"hello\"\"\"\n"
      "node,kenneth,\n"
      "edge,\"multi\nline\",x\r"
      "node,morag,last\n";
  ASSERT_TRUE(ParseCsvLenient(csv).ok());
  size_t parsed = 0;
  ForEachMutant(csv, [&](const std::string& mutant) {
    Result<CsvParseReport> report = ParseCsvLenient(mutant);
    if (!report.ok()) return;
    ++parsed;
    const CsvTable& table = report->table;
    for (const auto& row : table.rows) {
      ASSERT_EQ(row.size(), table.header.size()) << mutant;
    }
    ASSERT_LE(report->messages.size(), report->rows_quarantined) << mutant;
  });
  EXPECT_GT(parsed, 0u);
}

TEST(ParserMutationTest, SnapshotContainerRejectsOrPreservesPayload) {
  const std::string payload = SerializePedigreeGraph(FixtureGraph());
  const std::string wrapped =
      WrapSnapshotPayload("pedigree", kPedigreeFormatVersion, payload);
  ForEachMutant(wrapped, [&](const std::string& mutant) {
    Result<std::string> out =
        UnwrapSnapshotPayload(mutant, "pedigree", kPedigreeFormatVersion);
    // A header byte may flip to an equivalent spelling (checksum hex
    // case, whitespace kind); the payload itself must never change.
    if (out.ok()) {
      ASSERT_EQ(*out, payload) << mutant;
    }
  });
}

TEST(ParserMutationTest, PedigreeDeserializerSurvivesRewrappedMutants) {
  const std::string payload = SerializePedigreeGraph(FixtureGraph());
  ASSERT_TRUE(DeserializePedigreeGraph(payload).ok());
  size_t parsed = 0;
  ForEachMutant(payload, [&](const std::string& mutant) {
    Result<std::string> unwrapped = UnwrapSnapshotPayload(
        WrapSnapshotPayload("pedigree", kPedigreeFormatVersion, mutant),
        "pedigree", kPedigreeFormatVersion);
    ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
    ASSERT_EQ(*unwrapped, mutant);
    Result<PedigreeGraph> graph = DeserializePedigreeGraph(*unwrapped);
    if (!graph.ok()) return;
    ++parsed;
    ExpectWellFormed(*graph);
  });
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace snaps
