#include "storage/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <tuple>

#include "storage/table.h"
#include "tests/test_util.h"
#include "tgraph/azoom.h"
#include "tgraph/convert.h"
#include "tgraph/slice.h"
#include "tgraph/validate.h"

namespace tgraph::storage {
namespace {

using ::tgraph::testing::Canonical;
using ::tgraph::testing::CanonicalTopology;
using ::tgraph::testing::Ctx;
using ::tgraph::testing::Figure1;
using ::tgraph::testing::RandomTGraph;

std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(GraphIoTest, VeRoundTrip) {
  std::string dir = TempDir("ve_roundtrip");
  VeGraph g = Figure1();
  TG_CHECK_OK(WriteVeGraph(g, dir));
  Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Canonical(*loaded), Canonical(g));
  EXPECT_EQ(loaded->lifetime(), g.lifetime());
}

TEST(GraphIoTest, VeRoundTripBothSortOrders) {
  VeGraph g = RandomTGraph(41);
  for (SortOrder order :
       {SortOrder::kTemporalLocality, SortOrder::kStructuralLocality}) {
    std::string dir = TempDir(std::string("ve_order_") + SortOrderName(order));
    GraphWriteOptions options;
    options.sort_order = order;
    TG_CHECK_OK(WriteVeGraph(g, dir, options));
    Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(Canonical(*loaded), Canonical(g)) << SortOrderName(order);
  }
}

TEST(GraphIoTest, VeTimeRangeFilterClips) {
  std::string dir = TempDir("ve_range");
  TG_CHECK_OK(WriteVeGraph(Figure1(), dir));
  LoadOptions options;
  options.time_range = Interval(3, 6);
  Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->lifetime(), Interval(3, 6));
  for (const VeVertex& v : loaded->vertices().Collect()) {
    EXPECT_TRUE(Interval(3, 6).Contains(v.interval));
  }
  // e2 [7,9) is outside; e1 [2,7) clips to [3,6).
  std::vector<VeEdge> edges = loaded->edges().Collect();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].interval, Interval(3, 6));
  TG_CHECK_OK(ValidateVe(*loaded));
}

TEST(GraphIoTest, PushdownSkipsGroupsOnStructurallySortedFile) {
  VeGraph g = RandomTGraph(42, 200, 400, 100);
  std::string dir = TempDir("ve_pushdown");
  GraphWriteOptions options;
  options.sort_order = SortOrder::kStructuralLocality;
  options.row_group_size = 64;
  TG_CHECK_OK(WriteVeGraph(g, dir, options));
  LoadOptions load;
  load.time_range = Interval(0, 10);
  LoadMetrics metrics;
  Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir, load, &metrics);
  ASSERT_TRUE(loaded.ok());
  EXPECT_GT(metrics.vertex_groups_total, 1u);
  EXPECT_LT(metrics.vertex_groups_scanned, metrics.vertex_groups_total);
}

TEST(GraphIoTest, OgRoundTrip) {
  std::string dir = TempDir("og_roundtrip");
  OgGraph g = VeToOg(Figure1());
  TG_CHECK_OK(WriteOgGraph(g, dir));
  Result<OgGraph> loaded = LoadOgGraph(Ctx(), dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Canonical(OgToVe(*loaded).Coalesce()),
            Canonical(OgToVe(g).Coalesce()));
  TG_CHECK_OK(ValidateOg(*loaded));
}

TEST(GraphIoTest, OgTimeRangeClipsHistoriesAndEmbeddedCopies) {
  std::string dir = TempDir("og_range");
  TG_CHECK_OK(WriteOgGraph(VeToOg(Figure1()), dir));
  LoadOptions options;
  options.time_range = Interval(1, 6);
  Result<OgGraph> loaded = LoadOgGraph(Ctx(), dir, options);
  ASSERT_TRUE(loaded.ok());
  for (const OgVertex& v : loaded->vertices().Collect()) {
    EXPECT_TRUE(Interval(1, 6).Contains(HistorySpan(v.history)));
  }
  for (const OgEdge& e : loaded->edges().Collect()) {
    EXPECT_TRUE(Interval(1, 6).Contains(HistorySpan(e.history)));
    EXPECT_TRUE(Interval(1, 6).Contains(HistorySpan(e.v1.history)));
  }
}

// OG records in eid/vid order, endpoint copies included, for exact
// comparison of two OG graphs' contents.
std::vector<OgEdge> SortedEdges(const OgGraph& g) {
  std::vector<OgEdge> edges = g.edges().Collect();
  std::sort(edges.begin(), edges.end(), [](const OgEdge& a, const OgEdge& b) {
    return std::tie(a.eid, a.v1.vid, a.v2.vid) <
           std::tie(b.eid, b.v1.vid, b.v2.vid);
  });
  return edges;
}

std::vector<OgVertex> SortedVertices(const OgGraph& g) {
  std::vector<OgVertex> vertices = g.vertices().Collect();
  std::sort(vertices.begin(), vertices.end(),
            [](const OgVertex& a, const OgVertex& b) { return a.vid < b.vid; });
  return vertices;
}

TEST(GraphIoTest, OgStoreRangedLoadMatchesInMemorySlice) {
  // The store loader decodes and clips each distinct endpoint cell once
  // per partition. A ranged load must still equal Slice record for record,
  // endpoint copies included — also when copies of one vertex differ
  // (aZoom output), with pushdown on and off.
  AZoomSpec zoom;
  zoom.group_of = GroupByProperty("group");
  zoom.aggregator =
      MakeAggregator("cluster", "group", {{"members", AggKind::kCount, ""}});
  OgGraph plain = VeToOg(RandomTGraph(23, 40, 120, 24));
  OgGraph zoomed = AZoomOg(plain, zoom);
  GraphWriteOptions write;
  write.row_group_size = 32;  // several partitions per table
  for (const OgGraph* graph : {&plain, &zoomed}) {
    std::string dir = TempDir("og_store_ranged");
    TG_CHECK_OK(WriteOgStore(*graph, dir, write));
    for (Interval range : {Interval(0, 24), Interval(3, 11), Interval(9, 30)}) {
      for (bool pushdown : {true, false}) {
        LoadOptions options;
        options.time_range = range;
        options.pushdown = pushdown;
        Result<OgGraph> loaded = LoadOgGraph(Ctx(), dir, options);
        ASSERT_TRUE(loaded.ok()) << loaded.status();
        OgGraph sliced = SliceOg(*graph, range);
        EXPECT_EQ(loaded->lifetime(), sliced.lifetime());
        EXPECT_EQ(SortedVertices(*loaded), SortedVertices(sliced))
            << range.ToString() << " pushdown=" << pushdown;
        EXPECT_EQ(SortedEdges(*loaded), SortedEdges(sliced))
            << range.ToString() << " pushdown=" << pushdown;
      }
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(GraphIoTest, OgcRoundTrip) {
  std::string dir = TempDir("ogc_roundtrip");
  OgcGraph g = VeToOgc(Figure1());
  TG_CHECK_OK(WriteOgcGraph(g, dir));
  Result<OgcGraph> loaded = LoadOgcGraph(Ctx(), dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->intervals(), g.intervals());
  EXPECT_EQ(CanonicalTopology(OgcToVe(*loaded)), CanonicalTopology(OgcToVe(g)));
  TG_CHECK_OK(ValidateOgc(*loaded));
}

TEST(GraphIoTest, OgcTimeRangeSlicesIndexAndBitsets) {
  std::string dir = TempDir("ogc_range");
  TG_CHECK_OK(WriteOgcGraph(VeToOgc(Figure1()), dir));
  LoadOptions options;
  options.time_range = Interval(2, 7);
  Result<OgcGraph> loaded = LoadOgcGraph(Ctx(), dir, options);
  ASSERT_TRUE(loaded.ok());
  // Index entries overlapping [2,7): [2,5) and [5,7).
  ASSERT_EQ(loaded->intervals().size(), 2u);
  EXPECT_EQ(loaded->intervals()[0], Interval(2, 5));
  for (const OgcVertex& v : loaded->vertices().Collect()) {
    EXPECT_EQ(v.presence.size(), 2u);
  }
}

TEST(GraphIoTest, RgLoadsFromVeFiles) {
  std::string dir = TempDir("rg_load");
  TG_CHECK_OK(WriteVeGraph(Figure1(), dir,
                           {SortOrder::kStructuralLocality, 16 * 1024}));
  Result<RgGraph> loaded = LoadRgGraph(Ctx(), dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumSnapshots(), 4u);
  TG_CHECK_OK(ValidateRg(*loaded));
}

TEST(GraphIoTest, RandomGraphRoundTripsExactly) {
  for (uint64_t seed : {51u, 52u}) {
    VeGraph g = RandomTGraph(seed);
    std::string dir = TempDir("ve_random_" + std::to_string(seed));
    TG_CHECK_OK(WriteVeGraph(g, dir));
    Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(Canonical(*loaded), Canonical(g)) << seed;
  }
}

TEST(GraphIoTest, MissingDirectoryIsIoError) {
  EXPECT_TRUE(
      LoadVeGraph(Ctx(), "/nonexistent/path").status().IsIoError());
}

TEST(GraphIoTest, SortOrderRecordedInMetadata) {
  std::string dir = TempDir("ve_meta");
  GraphWriteOptions options;
  options.sort_order = SortOrder::kStructuralLocality;
  TG_CHECK_OK(WriteVeGraph(Figure1(), dir, options));
  auto reader = TableReader::Open(dir + "/vertices.tcol");
  ASSERT_TRUE(reader.ok());
  bool found = false;
  for (const auto& [key, value] : (*reader)->metadata()) {
    if (key == "sort_order") {
      EXPECT_EQ(value, "structural");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace tgraph::storage
