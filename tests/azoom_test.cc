#include "tgraph/azoom.h"

#include <gtest/gtest.h>

#include <map>

#include "tests/test_util.h"
#include "tgraph/convert.h"
#include "tgraph/slice.h"
#include "tgraph/tgraph.h"
#include "tgraph/validate.h"

namespace tgraph {
namespace {

using ::tgraph::testing::Canonical;
using ::tgraph::testing::Figure1;
using ::tgraph::testing::SchoolZoom;

// Figure 2's expected content, independent of representation.
void ExpectFigure2(const VeGraph& zoomed) {
  VertexId mit = HashSkolem(PropertyValue("MIT"));
  VertexId cmu = HashSkolem(PropertyValue("CMU"));
  std::map<std::pair<VertexId, Interval>, int64_t> students;
  for (const VeVertex& v : zoomed.vertices().Collect()) {
    students[{v.vid, v.interval}] = v.properties.Get("students")->AsInt();
    EXPECT_EQ(v.properties.Get("type")->AsString(), "school");
  }
  ASSERT_EQ(students.size(), 3u);
  EXPECT_EQ((students[{mit, Interval(1, 7)}]), 2);  // Ann + Cat
  EXPECT_EQ((students[{mit, Interval(7, 9)}]), 1);  // Cat only
  EXPECT_EQ((students[{cmu, Interval(5, 9)}]), 1);  // Bob from 5

  std::vector<VeEdge> edges = zoomed.edges().Collect();
  ASSERT_EQ(edges.size(), 2u);
  for (const VeEdge& e : edges) {
    EXPECT_EQ(e.properties.Get("type")->AsString(), "collaborate");
    if (e.src == mit) {
      // e1 shrinks to [5,7): Bob was not at CMU during [2,5).
      EXPECT_EQ(e.dst, cmu);
      EXPECT_EQ(e.interval, Interval(5, 7));
    } else {
      EXPECT_EQ(e.src, cmu);
      EXPECT_EQ(e.dst, mit);
      EXPECT_EQ(e.interval, Interval(7, 9));
    }
  }
}

TEST(AZoomVeTest, ReproducesFigure2) {
  VeGraph zoomed = AZoomVe(Figure1(), SchoolZoom()).Coalesce();
  ExpectFigure2(zoomed);
  TG_CHECK_OK(ValidateVe(zoomed));
}

TEST(AZoomOgTest, ReproducesFigure2) {
  OgGraph zoomed = AZoomOg(VeToOg(Figure1()), SchoolZoom());
  ExpectFigure2(OgToVe(zoomed).Coalesce());
}

TEST(AZoomRgTest, ReproducesFigure2) {
  RgGraph zoomed = AZoomRg(VeToRg(Figure1()), SchoolZoom());
  ExpectFigure2(RgToVe(zoomed));
}

TEST(AZoomTest, StatesWithoutGroupProduceNothing) {
  // A graph where no vertex has the grouping attribute.
  std::vector<VeVertex> vertices = {{1, {0, 5}, Properties{{"type", "n"}}}};
  VeGraph g = VeGraph::Create(testing::Ctx(), vertices, {});
  VeGraph zoomed = AZoomVe(g, SchoolZoom());
  EXPECT_EQ(zoomed.NumVertexRecords(), 0);
  EXPECT_EQ(zoomed.NumEdgeRecords(), 0);
}

TEST(AZoomTest, EdgeWithinOneGroupBecomesSelfLoop) {
  std::vector<VeVertex> vertices = {
      {1, {0, 5}, Properties{{"type", "n"}, {"g", "a"}}},
      {2, {0, 5}, Properties{{"type", "n"}, {"g", "a"}}}};
  std::vector<VeEdge> edges = {{1, 1, 2, {0, 5}, Properties{{"type", "e"}}}};
  VeGraph g = VeGraph::Create(testing::Ctx(), vertices, edges);
  AZoomSpec spec;
  spec.group_of = GroupByProperty("g");
  spec.aggregator = MakeAggregator("group", "g", {{"n", AggKind::kCount, ""}});
  VeGraph zoomed = AZoomVe(g, spec).Coalesce();
  std::vector<VeEdge> result = zoomed.edges().Collect();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].src, result[0].dst);
}

TEST(AZoomTest, GroupMembershipChangeRedirectsEdgeOverTime) {
  // Vertex 2 moves from group a to group b at time 5 while edge 1->2 runs
  // [0,10): the output must contain A->A during [0,5) and A->B during [5,10).
  std::vector<VeVertex> vertices = {
      {1, {0, 10}, Properties{{"type", "n"}, {"g", "a"}}},
      {2, {0, 5}, Properties{{"type", "n"}, {"g", "a"}}},
      {2, {5, 10}, Properties{{"type", "n"}, {"g", "b"}}}};
  std::vector<VeEdge> edges = {{1, 1, 2, {0, 10}, Properties{{"type", "e"}}}};
  VeGraph g = VeGraph::Create(testing::Ctx(), vertices, edges);
  AZoomSpec spec;
  spec.group_of = GroupByProperty("g");
  spec.aggregator = MakeAggregator("group", "g", {});
  VertexId a = HashSkolem(PropertyValue("a"));
  VertexId b = HashSkolem(PropertyValue("b"));

  for (bool use_og : {false, true}) {
    VeGraph zoomed =
        use_og ? OgToVe(AZoomOg(VeToOg(g), spec)).Coalesce()
               : AZoomVe(g, spec).Coalesce();
    std::map<std::pair<VertexId, VertexId>, Interval> by_endpoints;
    for (const VeEdge& e : zoomed.edges().Collect()) {
      by_endpoints[{e.src, e.dst}] = e.interval;
    }
    ASSERT_EQ(by_endpoints.size(), 2u) << (use_og ? "OG" : "VE");
    EXPECT_EQ((by_endpoints[{a, a}]), Interval(0, 5));
    EXPECT_EQ((by_endpoints[{a, b}]), Interval(5, 10));
  }
}

TEST(AZoomTest, SumAggregateAcrossGroupMembers) {
  std::vector<VeVertex> vertices = {
      {1, {0, 4}, Properties{{"type", "n"}, {"g", "a"}, {"w", 10}}},
      {2, {2, 6}, Properties{{"type", "n"}, {"g", "a"}, {"w", 5}}}};
  VeGraph g = VeGraph::Create(testing::Ctx(), vertices, {});
  AZoomSpec spec;
  spec.group_of = GroupByProperty("g");
  spec.aggregator =
      MakeAggregator("group", "g", {{"total", AggKind::kSum, "w"}});
  VeGraph zoomed = AZoomVe(g, spec).Coalesce();
  std::map<Interval, int64_t> totals;
  for (const VeVertex& v : zoomed.vertices().Collect()) {
    totals[v.interval] = v.properties.Get("total")->AsInt();
  }
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[Interval(0, 2)], 10);
  EXPECT_EQ(totals[Interval(2, 4)], 15);
  EXPECT_EQ(totals[Interval(4, 6)], 5);
}

TEST(AZoomTest, AvgAggregateAgreesAcrossRepresentations) {
  // kAvg exercises the scratch-key + finalize path, which every
  // representation must apply at the same point (after the full merge).
  std::vector<VeVertex> vertices = {
      {1, {0, 6}, Properties{{"type", "n"}, {"g", "a"}, {"w", 10}}},
      {2, {2, 8}, Properties{{"type", "n"}, {"g", "a"}, {"w", 20}}},
      {3, {0, 8}, Properties{{"type", "n"}, {"g", "a"}, {"w", 60}}}};
  VeGraph g = VeGraph::Create(testing::Ctx(), vertices, {});
  AZoomSpec spec;
  spec.group_of = GroupByProperty("g");
  spec.aggregator =
      MakeAggregator("group", "g", {{"mean", AggKind::kAvg, "w"}});

  VeGraph from_ve = AZoomVe(g, spec).Coalesce();
  VeGraph from_og = OgToVe(AZoomOg(VeToOg(g), spec)).Coalesce();
  VeGraph from_rg = RgToVe(AZoomRg(VeToRg(g), spec));
  EXPECT_EQ(testing::Canonical(from_og), testing::Canonical(from_ve));
  EXPECT_EQ(testing::Canonical(from_rg), testing::Canonical(from_ve));

  std::map<Interval, double> means;
  for (const VeVertex& v : from_ve.vertices().Collect()) {
    means[v.interval] = v.properties.Get("mean")->AsDouble();
  }
  // [0,2): {10,60} -> 35; [2,6): {10,20,60} -> 30; [6,8): {20,60} -> 40.
  ASSERT_EQ(means.size(), 3u);
  EXPECT_DOUBLE_EQ(means[Interval(0, 2)], 35.0);
  EXPECT_DOUBLE_EQ(means[Interval(2, 6)], 30.0);
  EXPECT_DOUBLE_EQ(means[Interval(6, 8)], 40.0);
}

TEST(AZoomTest, CustomSkolemFunction) {
  AZoomSpec spec = SchoolZoom();
  spec.skolem = [](const GroupKey& key) {
    return key.AsString() == "MIT" ? 100 : 200;
  };
  VeGraph zoomed = AZoomVe(Figure1(), spec).Coalesce();
  for (const VeVertex& v : zoomed.vertices().Collect()) {
    EXPECT_TRUE(v.vid == 100 || v.vid == 200);
  }
}

TEST(AZoomTest, RedirectedEdgeIdDeterministicAndDistinct) {
  EXPECT_EQ(RedirectedEdgeId(1, 10, 20), RedirectedEdgeId(1, 10, 20));
  EXPECT_NE(RedirectedEdgeId(1, 10, 20), RedirectedEdgeId(2, 10, 20));
  EXPECT_NE(RedirectedEdgeId(1, 10, 20), RedirectedEdgeId(1, 20, 10));
  EXPECT_GE(RedirectedEdgeId(1, 10, 20), 0);
}

TEST(AZoomTest, FacadeRejectsOgc) {
  TGraph g = TGraph::FromVe(Figure1(), true);
  Result<TGraph> ogc = g.As(Representation::kOgc);
  ASSERT_TRUE(ogc.ok());
  Result<TGraph> zoomed = ogc->AZoom(SchoolZoom());
  EXPECT_TRUE(zoomed.status().IsNotImplemented());
}

TEST(AZoomTest, FacadeRejectsIncompleteSpec) {
  TGraph g = TGraph::FromVe(Figure1(), true);
  AZoomSpec spec;  // no group_of / aggregator
  EXPECT_TRUE(g.AZoom(spec).status().IsInvalidArgument());
}

TEST(AZoomTest, UncoalescedInputGivesSameResultAsCoalesced) {
  // aZoom^T computes per snapshot, so it must not depend on the input
  // being coalesced (the basis for lazy coalescing, Section 4).
  std::vector<VeVertex> split_vertices = {
      {1, {1, 4}, Properties{{"type", "person"}, {"school", "MIT"}}},
      {1, {4, 7}, Properties{{"type", "person"}, {"school", "MIT"}}},  // split
      {2, {2, 5}, Properties{{"type", "person"}}},
      {2, {5, 9}, Properties{{"type", "person"}, {"school", "CMU"}}},
      {3, {1, 9}, Properties{{"type", "person"}, {"school", "MIT"}}},
  };
  std::vector<VeEdge> edges = {
      {1, 1, 2, {2, 7}, Properties{{"type", "co-author"}}},
      {2, 2, 3, {7, 9}, Properties{{"type", "co-author"}}},
  };
  VeGraph uncoalesced = VeGraph::Create(testing::Ctx(), split_vertices, edges);
  EXPECT_EQ(Canonical(AZoomVe(uncoalesced, SchoolZoom()).Coalesce()),
            Canonical(AZoomVe(Figure1(), SchoolZoom()).Coalesce()));
}

TEST(AZoomTest, ChainedAZoomAgreesAcrossRepresentations) {
  // Zooming a zoomed graph again: OG's redirected edges embed endpoint
  // copies, and those copies must carry enough (seeded) state for the
  // second aZoom's group_of to resolve — with presence-only copies, OG
  // silently dropped every edge while VE and RG kept them. Found by
  // optimizer_differential_test.
  AZoomSpec zoom;
  zoom.group_of = GroupByProperty("group");
  zoom.aggregator =
      MakeAggregator("cluster", "group", {{"members", AggKind::kCount, ""}});
  TGraph base = TGraph::FromVe(testing::RandomTGraph(3), /*coalesced=*/true);

  auto chained = [&](Representation rep) {
    TGraph graph = *base.As(rep);
    graph = *graph.AZoom(zoom);
    graph = *graph.AZoom(zoom);
    return Canonical(graph.Coalesce());
  };
  std::vector<std::string> expected = chained(Representation::kVe);
  bool has_edges = false;
  for (const std::string& line : expected) has_edges |= line[0] == 'E';
  EXPECT_TRUE(has_edges);
  EXPECT_EQ(chained(Representation::kRg), expected);
  EXPECT_EQ(chained(Representation::kOg), expected);
}

// All of `graph`'s records in one partition, so the per-partition endpoint
// memos of the OG operators see every copy of a vertex.
OgGraph OnePartition(const OgGraph& graph) {
  return OgGraph(dataflow::Dataset<OgVertex>::FromVector(
                     testing::Ctx(), graph.vertices().Collect(), 1),
                 dataflow::Dataset<OgEdge>::FromVector(
                     testing::Ctx(), graph.edges().Collect(), 1),
                 graph.lifetime());
}

// True iff two endpoint copies of one vertex differ somewhere in `graph`.
bool HasDifferingEndpointCopies(const OgGraph& graph) {
  std::map<VertexId, History> seen;
  for (const OgEdge& e : graph.edges().Collect()) {
    for (const OgVertex* v : {&e.v1, &e.v2}) {
      auto [it, inserted] = seen.emplace(v->vid, v->history);
      if (!inserted && it->second != v->history) return true;
    }
  }
  return false;
}

TEST(AZoomTest, OgEndpointCopiesDifferingWithinAPartitionMatchVe) {
  // After one aZoom, an OG vertex's endpoint copies are per-edge pieces,
  // so copies of one vid differ across the edges of a partition (and
  // Slice keeps them different). The OG operators memoize per-vertex work
  // per partition keyed by vid; a differing copy must be recomputed, not
  // served from the memo.
  AZoomSpec zoom;
  zoom.group_of = GroupByProperty("group");
  zoom.aggregator =
      MakeAggregator("cluster", "group", {{"members", AggKind::kCount, ""}});
  AZoomSpec coarse;
  coarse.group_of = [](VertexId, const Properties& props)
      -> std::optional<GroupKey> {
    const PropertyValue* group = props.Find("group");
    if (group == nullptr) return std::nullopt;
    return PropertyValue(group->AsString() < "g2" ? "low" : "high");
  };
  coarse.aggregator =
      MakeAggregator("band", "band", {{"clusters", AggKind::kCount, ""}});
  coarse.edge_type = "linked";
  const Interval range(4, 15);

  for (uint64_t seed : {3, 11, 29}) {
    VeGraph base = testing::RandomTGraph(seed);
    TGraph ve = *TGraph::FromVe(base, /*coalesced=*/true).AZoom(zoom);
    OgGraph og = OnePartition(AZoomOg(VeToOg(base), zoom));
    ASSERT_TRUE(HasDifferingEndpointCopies(og)) << "seed " << seed;

    for (const AZoomSpec& second : {zoom, coarse}) {
      std::vector<std::string> expected =
          Canonical(ve.AZoom(second)->Coalesce());
      EXPECT_EQ(Canonical(TGraph::FromOg(AZoomOg(og, second), false)
                              .Coalesce()),
                expected)
          << "chained, seed " << seed;

      OgGraph sliced = SliceOg(og, range);
      ASSERT_TRUE(HasDifferingEndpointCopies(sliced)) << "seed " << seed;
      EXPECT_EQ(Canonical(TGraph::FromOg(AZoomOg(sliced, second), false)
                              .Coalesce()),
                Canonical(ve.Slice(range).AZoom(second)->Coalesce()))
          << "slice then aZoom, seed " << seed;
    }
  }
}

}  // namespace
}  // namespace tgraph
