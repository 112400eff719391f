#include "tgraph/og.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "tgraph/coalesce.h"
#include "tgraph/convert.h"
#include "tgraph/validate.h"

namespace tgraph {
namespace {

using ::tgraph::testing::Ctx;
using ::tgraph::testing::Figure1;

OgGraph Figure1Og() { return VeToOg(Figure1()); }

TEST(OgGraphTest, ConversionBuildsHistories) {
  OgGraph g = Figure1Og();
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_EQ(g.NumVertexRecords(), 4);  // Bob has two states
  EXPECT_EQ(g.NumEdgeRecords(), 2);
  TG_CHECK_OK(ValidateOg(g));
}

TEST(OgGraphTest, BobHistoryHasTwoStatesInOrder) {
  OgGraph g = Figure1Og();
  for (const OgVertex& v : g.vertices().Collect()) {
    if (v.vid != 2) continue;
    ASSERT_EQ(v.history.size(), 2u);
    EXPECT_EQ(v.history[0].interval, Interval(2, 5));
    EXPECT_FALSE(v.history[0].properties.Has("school"));
    EXPECT_EQ(v.history[1].interval, Interval(5, 9));
    EXPECT_EQ(v.history[1].properties.Get("school")->AsString(), "CMU");
  }
}

TEST(OgGraphTest, EdgesEmbedEndpointCopies) {
  OgGraph g = Figure1Og();
  for (const OgEdge& e : g.edges().Collect()) {
    if (e.eid == 1) {
      EXPECT_EQ(e.v1.vid, 1);
      EXPECT_EQ(e.v2.vid, 2);
      EXPECT_EQ(e.v1.history.size(), 1u);  // Ann: one state
      EXPECT_EQ(e.v2.history.size(), 2u);  // Bob: two states
    }
  }
}

TEST(OgGraphTest, CoalesceMergesWithinHistories) {
  std::vector<OgVertex> vertices = {
      {1,
       {{{1, 3}, Properties{{"type", "n"}}},
        {{3, 6}, Properties{{"type", "n"}}}}},
  };
  OgGraph g = OgGraph::Create(Ctx(), vertices, {});
  OgGraph c = g.Coalesce();
  std::vector<OgVertex> collected = c.vertices().Collect();
  ASSERT_EQ(collected.size(), 1u);
  ASSERT_EQ(collected[0].history.size(), 1u);
  EXPECT_EQ(collected[0].history[0].interval, Interval(1, 6));
}

TEST(EndpointMemoTest, ComputesOncePerDistinctCopy) {
  Properties a{{"type", "n"}, {"v", int64_t{1}}};
  Properties b{{"type", "n"}, {"v", int64_t{2}}};
  OgVertex first{7, {{{1, 4}, a}}};
  OgVertex same{7, {{{1, 4}, a}}};
  OgVertex differing{7, {{{1, 4}, b}}};
  OgVertex other{8, {{{1, 4}, a}}};
  int calls = 0;
  auto span = [&calls](const OgVertex& v) {
    ++calls;
    return HistorySpan(v.history).duration() +
           v.history[0].properties.Get("v")->AsInt();
  };
  EndpointMemo<int64_t> memo;
  EXPECT_EQ(memo.Get(first, span), 4);
  EXPECT_EQ(memo.Get(same, span), 4);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(memo.Get(differing, span), 5);  // same vid, other history
  EXPECT_EQ(memo.Get(other, span), 4);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(memo.Get(differing, span), 5);
  EXPECT_EQ(calls, 3);
}

TEST(OgGraphTest, CoalesceHandlesDifferingEndpointCopiesInOnePartition) {
  // Copies of vertex 1 differ across edges of one partition: each edge's
  // copy must be coalesced on its own, not served from another edge's.
  Properties n{{"type", "n"}};
  Properties m{{"type", "m"}};
  History split = {{{1, 3}, n}, {{3, 6}, n}};
  History other = {{{5, 6}, m}, {{2, 5}, m}};
  OgVertex v2{2, {{{1, 6}, n}}};
  std::vector<OgEdge> edges = {
      {10, {1, split}, v2, {{{1, 6}, n}}},
      {11, {1, other}, v2, {{{2, 6}, n}}},
      {12, {1, split}, v2, {{{1, 2}, n}, {{2, 4}, n}}},
  };
  OgGraph g(dataflow::Dataset<OgVertex>::FromVector(Ctx(), {}, 1),
            dataflow::Dataset<OgEdge>::FromVector(Ctx(), edges, 1),
            Interval(1, 6));
  std::vector<OgEdge> coalesced = g.Coalesce().edges().Collect();
  ASSERT_EQ(coalesced.size(), 3u);
  for (const OgEdge& e : coalesced) {
    const History& expected = e.eid == 11 ? History{{{2, 6}, m}}
                                          : History{{{1, 6}, n}};
    EXPECT_EQ(e.v1.history, expected) << "edge " << e.eid;
    EXPECT_EQ(e.v2.history, v2.history);
    EXPECT_TRUE(IsCoalescedHistory(e.history));
  }
}

TEST(OgGraphTest, ChangePointsMatchVe) {
  EXPECT_EQ(Figure1Og().ChangePoints(), Figure1().ChangePoints());
}

TEST(OgGraphTest, SnapshotAtMatchesVe) {
  OgGraph og = Figure1Og();
  VeGraph ve = Figure1();
  for (TimePoint t : {1, 3, 5, 8}) {
    EXPECT_EQ(og.SnapshotAt(t).NumVertices(), ve.SnapshotAt(t).NumVertices())
        << "t=" << t;
    EXPECT_EQ(og.SnapshotAt(t).NumEdges(), ve.SnapshotAt(t).NumEdges())
        << "t=" << t;
  }
}

TEST(OgGraphTest, LifetimeDerivedFromHistories) {
  std::vector<OgVertex> vertices = {
      {1, {{{5, 9}, Properties{{"type", "n"}}}}},
      {2, {{{2, 4}, Properties{{"type", "n"}}}}},
  };
  OgGraph g = OgGraph::Create(Ctx(), vertices, {});
  EXPECT_EQ(g.lifetime(), Interval(2, 9));
}

}  // namespace
}  // namespace tgraph
