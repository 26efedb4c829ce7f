#include <gtest/gtest.h>

#include "pedigree/extraction.h"
#include "pedigree/pedigree_graph.h"

namespace snaps {
namespace {

/// A five-generation chain: person i is the child of person i+1.
PedigreeGraph MakeChain(int generations) {
  PedigreeGraph g;
  for (int i = 0; i <= generations; ++i) {
    PedigreeNode n;
    n.first_names = {std::string("p").append(std::to_string(i))};
    n.gender = Gender::kFemale;
    g.AddNode(std::move(n));
  }
  for (int i = 0; i < generations; ++i) {
    g.AddEdge(static_cast<PedigreeNodeId>(i),
              static_cast<PedigreeNodeId>(i + 1), Relationship::kMother);
    g.AddEdge(static_cast<PedigreeNodeId>(i + 1),
              static_cast<PedigreeNodeId>(i), Relationship::kChild);
  }
  return g;
}

class ExtractionDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(ExtractionDepthTest, DepthBoundsMembers) {
  const PedigreeGraph g = MakeChain(6);
  const int depth = GetParam();
  const FamilyPedigree p = ExtractPedigree(g, 0, depth);
  // Root + exactly `depth` ancestors along the chain.
  EXPECT_EQ(p.members.size(), static_cast<size_t>(depth) + 1);
  for (const PedigreeMember& m : p.members) {
    EXPECT_LE(m.hops, depth);
    EXPECT_GE(m.generation, -depth);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, ExtractionDepthTest,
                         ::testing::Values(0, 1, 2, 3, 5));

TEST(ExtractionDepthTest2, DepthMonotonicity) {
  const PedigreeGraph g = MakeChain(6);
  size_t previous = 0;
  for (int depth = 0; depth <= 6; ++depth) {
    const size_t members = ExtractPedigree(g, 0, depth).members.size();
    EXPECT_GE(members, previous);
    previous = members;
  }
}

TEST(ExtractionDepthTest2, ZeroGenerationsIsJustTheRoot) {
  const PedigreeGraph g = MakeChain(3);
  const FamilyPedigree p = ExtractPedigree(g, 1, 0);
  ASSERT_EQ(p.members.size(), 1u);
  EXPECT_EQ(p.members[0].node, 1u);
  EXPECT_EQ(p.members[0].generation, 0);
}

TEST(ExtractionDepthTest2, GenerationsSignedCorrectly) {
  const PedigreeGraph g = MakeChain(6);
  // From the middle of the chain both directions are reachable.
  const FamilyPedigree p = ExtractPedigree(g, 3, 2);
  int min_gen = 0, max_gen = 0;
  for (const PedigreeMember& m : p.members) {
    min_gen = std::min(min_gen, m.generation);
    max_gen = std::max(max_gen, m.generation);
  }
  EXPECT_EQ(min_gen, -2);  // Ancestors.
  EXPECT_EQ(max_gen, 2);   // Descendants.
}

TEST(ExtractionDepthTest2, RenderAndGedcomScaleWithDepth) {
  const PedigreeGraph g = MakeChain(6);
  size_t prev_render = 0, prev_ged = 0;
  for (int depth = 0; depth <= 4; ++depth) {
    const FamilyPedigree p = ExtractPedigree(g, 0, depth);
    const size_t render = RenderPedigreeTree(g, p).size();
    const size_t ged = ExportGedcomLike(g, p).size();
    EXPECT_GE(render, prev_render);
    EXPECT_GE(ged, prev_ged);
    prev_render = render;
    prev_ged = ged;
  }
}

}  // namespace
}  // namespace snaps
