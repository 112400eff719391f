#include "tgraph/wzoom.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "tests/test_util.h"
#include "tgraph/azoom.h"
#include "tgraph/convert.h"
#include "tgraph/tgraph.h"
#include "tgraph/validate.h"

namespace tgraph {
namespace {

using ::tgraph::testing::Figure1;

WZoomSpec Quarterly(Quantifier vq, Quantifier eq) {
  WZoomSpec spec{WindowSpec::TimePoints(3), vq, eq, {}, {}};
  spec.vertex_resolve.default_resolver = Resolver::kLast;
  return spec;
}

std::map<VertexId, std::vector<Interval>> VertexIntervals(const VeGraph& g) {
  std::map<VertexId, std::vector<Interval>> result;
  for (const VeVertex& v : g.vertices().Collect()) {
    result[v.vid].push_back(v.interval);
  }
  for (auto& [vid, intervals] : result) {
    std::sort(intervals.begin(), intervals.end());
  }
  return result;
}

// Figure 3: windows [1,4), [4,7), [7,10); nodes=all, edges=all.
void ExpectFigure3(const VeGraph& zoomed) {
  auto per = VertexIntervals(zoomed);
  ASSERT_EQ(per.size(), 3u);
  EXPECT_EQ(per[1], std::vector<Interval>{Interval(1, 7)});  // Ann: W1+W2
  EXPECT_EQ(per[2], std::vector<Interval>{Interval(4, 7)});  // Bob: W2 only
  EXPECT_EQ(per[3], std::vector<Interval>{Interval(1, 7)});  // Cat: W1+W2
  std::vector<VeEdge> edges = zoomed.edges().Collect();
  ASSERT_EQ(edges.size(), 1u);  // e2 never spans a full window
  EXPECT_EQ(edges[0].eid, 1);
  EXPECT_EQ(edges[0].interval, Interval(4, 7));
}

TEST(WZoomVeTest, ReproducesFigure3AllAll) {
  VeGraph zoomed =
      WZoomVe(Figure1(), Quarterly(Quantifier::All(), Quantifier::All()));
  ExpectFigure3(zoomed);
  TG_CHECK_OK(ValidateVe(zoomed));
  TG_CHECK_OK(CheckCoalescedVe(zoomed));
}

TEST(WZoomOgTest, ReproducesFigure3AllAll) {
  OgGraph zoomed =
      WZoomOg(VeToOg(Figure1()), Quarterly(Quantifier::All(), Quantifier::All()));
  ExpectFigure3(OgToVe(zoomed).Coalesce());
}

TEST(WZoomRgTest, ReproducesFigure3AllAll) {
  RgGraph zoomed =
      WZoomRg(VeToRg(Figure1()), Quarterly(Quantifier::All(), Quantifier::All()));
  ExpectFigure3(RgToVe(zoomed));
}

TEST(WZoomOgcTest, ReproducesFigure3Topology) {
  OgcGraph zoomed = WZoomOgc(VeToOgc(Figure1()),
                             Quarterly(Quantifier::All(), Quantifier::All()));
  ASSERT_EQ(zoomed.intervals().size(), 3u);
  EXPECT_EQ(zoomed.intervals()[2], Interval(7, 10));
  std::map<VertexId, std::string> presence;
  for (const OgcVertex& v : zoomed.vertices().Collect()) {
    presence[v.vid] = v.presence.ToString();
  }
  EXPECT_EQ(presence[1], "[1, 1, 0]");
  EXPECT_EQ(presence[2], "[0, 1, 0]");
  EXPECT_EQ(presence[3], "[1, 1, 0]");
  std::vector<OgcEdge> edges = zoomed.edges().Collect();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].presence.ToString(), "[0, 1, 0]");
}

TEST(WZoomVeTest, ExistsQuantifierExtendsToFullWindows) {
  // Example 2.3 under exists: Cat gets [1,10); Bob exists in all three
  // windows (the paper's prose says [1,7) for Bob but its own rule — Bob
  // covers part of W3 exactly like Cat — gives [1,10), split at 4 where his
  // resolved attributes change).
  WZoomSpec spec{WindowSpec::TimePoints(3), Quantifier::Exists(),
                 Quantifier::Exists(), {}, {}};
  VeGraph zoomed = WZoomVe(Figure1(), spec);
  auto per = VertexIntervals(zoomed);
  EXPECT_EQ(per[3], std::vector<Interval>{Interval(1, 10)});
  EXPECT_EQ(per[1], std::vector<Interval>{Interval(1, 7)});
  EXPECT_EQ(per[2], (std::vector<Interval>{Interval(1, 4), Interval(4, 10)}));
  std::map<EdgeId, Interval> edges;
  for (const VeEdge& e : zoomed.edges().Collect()) edges[e.eid] = e.interval;
  EXPECT_EQ(edges[1], Interval(1, 7));
  EXPECT_EQ(edges[2], Interval(7, 10));
}

TEST(WZoomVeTest, MostQuantifier) {
  // Bob [2,5) in W1=[1,4): covers 2 of 3 > 0.5 -> kept under most.
  WZoomSpec spec{WindowSpec::TimePoints(3), Quantifier::Most(),
                 Quantifier::Most(), {}, {}};
  VeGraph zoomed = WZoomVe(Figure1(), spec);
  auto per = VertexIntervals(zoomed);
  ASSERT_EQ(per[2].size(), 2u);
  EXPECT_EQ(per[2][0], Interval(1, 4));
}

TEST(WZoomVeTest, DanglingEdgeRemovalWhenVertexStricter) {
  // nodes=all, edges=exists: e2 [7,9) exists in W3 but Bob fails all in W3;
  // the semijoin must drop e2 (and e1 outside W2).
  WZoomSpec spec{WindowSpec::TimePoints(3), Quantifier::All(),
                 Quantifier::Exists(), {}, {}};
  VeGraph zoomed = WZoomVe(Figure1(), spec);
  std::vector<VeEdge> edges = zoomed.edges().Collect();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].eid, 1);
  EXPECT_EQ(edges[0].interval, Interval(4, 7));
  TG_CHECK_OK(ValidateVe(zoomed));
}

TEST(WZoomOgTest, DanglingEdgeRemovalMatchesVe) {
  WZoomSpec spec{WindowSpec::TimePoints(3), Quantifier::All(),
                 Quantifier::Exists(), {}, {}};
  VeGraph from_og = OgToVe(WZoomOg(VeToOg(Figure1()), spec)).Coalesce();
  VeGraph from_ve = WZoomVe(Figure1(), spec);
  EXPECT_EQ(testing::Canonical(from_og), testing::Canonical(from_ve));
}

// `graph`'s edges sorted by id, endpoint copies included.
std::vector<OgEdge> SortedEdges(const OgGraph& graph) {
  std::vector<OgEdge> edges = graph.edges().Collect();
  std::sort(edges.begin(), edges.end(), [](const OgEdge& a, const OgEdge& b) {
    return std::tie(a.eid, a.v1.vid, a.v2.vid) <
           std::tie(b.eid, b.v1.vid, b.v2.vid);
  });
  return edges;
}

TEST(WZoomOgTest, EndpointCopiesDifferingWithinAPartitionMatchVe) {
  // aZoom leaves per-edge endpoint copies, so copies of one vid differ
  // across the edges of a partition. WZoomOg (and the Coalesce before it)
  // work on each distinct copy once per partition, so the result must not
  // depend on which edges share a partition: all edges in one partition
  // must give the same records as one edge per partition, and the same
  // graph as VE.
  AZoomSpec zoom;
  zoom.group_of = GroupByProperty("group");
  zoom.aggregator =
      MakeAggregator("cluster", "group", {{"members", AggKind::kCount, ""}});
  WZoomSpec spec{WindowSpec::TimePoints(3), Quantifier::Exists(),
                 Quantifier::Exists(), {}, {}};
  spec.vertex_resolve.default_resolver = Resolver::kLast;
  for (uint64_t seed : {5, 17}) {
    VeGraph base = testing::RandomTGraph(seed);
    OgGraph zoomed = AZoomOg(VeToOg(base), zoom);
    std::vector<OgEdge> edges = zoomed.edges().Collect();
    auto partitioned = [&](int edge_partitions) {
      return TGraph::FromOg(
          OgGraph(dataflow::Dataset<OgVertex>::FromVector(
                      testing::Ctx(), zoomed.vertices().Collect(), 1),
                  dataflow::Dataset<OgEdge>::FromVector(testing::Ctx(), edges,
                                                        edge_partitions),
                  zoomed.lifetime()),
          /*coalesced=*/false);
    };
    TGraph shared = *partitioned(1).WZoom(spec);
    TGraph alone = *partitioned(static_cast<int>(edges.size())).WZoom(spec);
    EXPECT_EQ(SortedEdges(shared.og()), SortedEdges(alone.og()))
        << "seed " << seed;
    TGraph ve = *TGraph::FromVe(base, /*coalesced=*/true).AZoom(zoom);
    EXPECT_EQ(testing::Canonical(shared), testing::Canonical(*ve.WZoom(spec)))
        << "seed " << seed;
  }
}

TEST(WZoomOgcTest, DanglingEdgeRemovalViaBitsetAnd) {
  WZoomSpec spec{WindowSpec::TimePoints(3), Quantifier::All(),
                 Quantifier::Exists(), {}, {}};
  OgcGraph zoomed = WZoomOgc(VeToOgc(Figure1()), spec);
  std::vector<OgcEdge> edges = zoomed.edges().Collect();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].eid, 1);
  EXPECT_EQ(edges[0].presence.ToString(), "[0, 1, 0]");
}

TEST(WZoomVeTest, WindowFinerThanResolutionIsIdentity) {
  // 1-point windows return the input TGraph (Section 2.3).
  WZoomSpec spec{WindowSpec::TimePoints(1), Quantifier::All(),
                 Quantifier::All(), {}, {}};
  VeGraph zoomed = WZoomVe(Figure1(), spec);
  EXPECT_EQ(testing::Canonical(zoomed), testing::Canonical(Figure1()));
}

TEST(WZoomVeTest, ChangeBasedWindows) {
  // Every 2 change points of Figure 1 ({1,2,5,7,9}): windows [1,5), [5,9).
  WZoomSpec spec{WindowSpec::Changes(2), Quantifier::Exists(),
                 Quantifier::Exists(), {}, {}};
  VeGraph zoomed = WZoomVe(Figure1(), spec);
  auto per = VertexIntervals(zoomed);
  EXPECT_EQ(per[1], std::vector<Interval>{Interval(1, 9)});  // Ann exists in both
  EXPECT_EQ(per[3], std::vector<Interval>{Interval(1, 9)});
}

TEST(WZoomVeTest, LastResolverPicksLatestValue) {
  WZoomSpec spec = Quarterly(Quantifier::Exists(), Quantifier::Exists());
  VeGraph zoomed = WZoomVe(Figure1(), spec);
  // Bob in W1 [1,4): only the school-less state; in W2 school=CMU.
  for (const VeVertex& v : zoomed.vertices().Collect()) {
    if (v.vid == 2 && v.interval.Contains(5)) {
      EXPECT_EQ(v.properties.Get("school")->AsString(), "CMU");
    }
  }
}

TEST(WZoomVeTest, FirstResolverPicksEarliestValue) {
  // Vertex with value change inside one window.
  std::vector<VeVertex> vertices = {
      {1, {0, 2}, Properties{{"type", "n"}, {"v", 1}}},
      {1, {2, 4}, Properties{{"type", "n"}, {"v", 2}}}};
  VeGraph g = VeGraph::Create(testing::Ctx(), vertices, {});
  WZoomSpec spec{WindowSpec::TimePoints(4), Quantifier::All(),
                 Quantifier::All(), {}, {}};
  spec.vertex_resolve.default_resolver = Resolver::kFirst;
  VeGraph zoomed = WZoomVe(g, spec);
  std::vector<VeVertex> result = zoomed.vertices().Collect();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].properties.Get("v")->AsInt(), 1);

  spec.vertex_resolve.default_resolver = Resolver::kLast;
  result = WZoomVe(g, spec).vertices().Collect();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].properties.Get("v")->AsInt(), 2);
}

TEST(WZoomFacadeTest, LazyCoalescingBeforeWZoom) {
  // An uncoalesced input must be coalesced by the facade before wZoom^T;
  // a vertex split into two value-equivalent states covering a window must
  // pass nodes=all.
  std::vector<VeVertex> vertices = {
      {1, {0, 2}, Properties{{"type", "n"}}},
      {1, {2, 6}, Properties{{"type", "n"}}},  // value-equivalent, adjacent
  };
  VeGraph g = VeGraph::Create(testing::Ctx(), vertices, {});
  TGraph facade = TGraph::FromVe(g, /*coalesced=*/false);
  WZoomSpec spec{WindowSpec::TimePoints(6), Quantifier::All(),
                 Quantifier::All(), {}, {}};
  Result<TGraph> zoomed = facade.WZoom(spec);
  ASSERT_TRUE(zoomed.ok());
  EXPECT_EQ(zoomed->NumVertexRecords(), 1);
  EXPECT_TRUE(zoomed->coalesced());
}

TEST(WZoomFacadeTest, RejectsNonPositiveWindow) {
  TGraph g = TGraph::FromVe(Figure1(), true);
  WZoomSpec spec{WindowSpec::TimePoints(0), Quantifier::All(),
                 Quantifier::All(), {}, {}};
  EXPECT_TRUE(g.WZoom(spec).status().IsInvalidArgument());
}

}  // namespace
}  // namespace tgraph
