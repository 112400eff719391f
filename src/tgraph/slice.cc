#include "tgraph/slice.h"

#include "obs/trace.h"
#include "tgraph/coalesce.h"

namespace tgraph {

using dataflow::Dataset;

VeGraph SliceVe(const VeGraph& graph, Interval range) {
  TG_SPAN("slice.ve", "zoom");
  auto vertices = graph.vertices().FlatMap<VeVertex>(
      [range](const VeVertex& v, std::vector<VeVertex>* out) {
        Interval clipped = v.interval.Intersect(range);
        if (!clipped.empty()) {
          out->push_back(VeVertex{v.vid, clipped, v.properties});
        }
      });
  auto edges = graph.edges().FlatMap<VeEdge>(
      [range](const VeEdge& e, std::vector<VeEdge>* out) {
        Interval clipped = e.interval.Intersect(range);
        if (!clipped.empty()) {
          out->push_back(VeEdge{e.eid, e.src, e.dst, clipped, e.properties});
        }
      });
  return VeGraph(vertices, edges, graph.lifetime().Intersect(range));
}

OgGraph SliceOg(const OgGraph& graph, Interval range) {
  TG_SPAN("slice.og", "zoom");
  auto vertices = graph.vertices().FlatMap<OgVertex>(
      [range](const OgVertex& v, std::vector<OgVertex>* out) {
        History clipped = ClipHistory(v.history, range);
        if (!clipped.empty()) {
          out->push_back(OgVertex{v.vid, std::move(clipped)});
        }
      });
  auto edges = graph.edges().MapPartitions<OgEdge>(
      [range](const std::vector<OgEdge>& edges, std::vector<OgEdge>* out) {
        EndpointMemo<History> endpoints;
        auto clip = [range](const OgVertex& v) {
          return ClipHistory(v.history, range);
        };
        for (const OgEdge& e : edges) {
          History clipped = ClipHistory(e.history, range);
          if (clipped.empty()) continue;
          out->push_back(OgEdge{e.eid,
                                OgVertex{e.v1.vid, endpoints.Get(e.v1, clip)},
                                OgVertex{e.v2.vid, endpoints.Get(e.v2, clip)},
                                std::move(clipped)});
        }
      });
  return OgGraph(vertices, edges, graph.lifetime().Intersect(range));
}

OgcGraph SliceOgc(const OgcGraph& graph, Interval range) {
  TG_SPAN("slice.ogc", "zoom");
  // Surviving index entries (clipped) and their original positions.
  std::vector<size_t> kept;
  std::vector<Interval> index;
  for (size_t i = 0; i < graph.intervals().size(); ++i) {
    Interval clipped = graph.intervals()[i].Intersect(range);
    if (!clipped.empty()) {
      kept.push_back(i);
      index.push_back(clipped);
    }
  }
  auto slice_bits = [kept](const Bitset& bits) {
    Bitset sliced(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) {
      if (bits.Test(kept[i])) sliced.Set(i);
    }
    return sliced;
  };
  auto vertices = graph.vertices().FlatMap<OgcVertex>(
      [slice_bits](const OgcVertex& v, std::vector<OgcVertex>* out) {
        Bitset sliced = slice_bits(v.presence);
        if (sliced.None()) return;
        out->push_back(OgcVertex{v.vid, v.type, std::move(sliced)});
      });
  auto edges = graph.edges().FlatMap<OgcEdge>(
      [slice_bits](const OgcEdge& e, std::vector<OgcEdge>* out) {
        Bitset sliced = slice_bits(e.presence);
        if (sliced.None()) return;
        out->push_back(OgcEdge{e.eid, e.type,
                               OgcVertex{e.v1.vid, e.v1.type,
                                         slice_bits(e.v1.presence)},
                               OgcVertex{e.v2.vid, e.v2.type,
                                         slice_bits(e.v2.presence)},
                               std::move(sliced)});
      });
  return OgcGraph(std::move(index), vertices, edges,
                  graph.lifetime().Intersect(range));
}

RgGraph SliceRg(const RgGraph& graph, Interval range) {
  TG_SPAN("slice.rg", "zoom");
  std::vector<Interval> intervals;
  std::vector<sg::PropertyGraph> snapshots;
  for (size_t i = 0; i < graph.NumSnapshots(); ++i) {
    Interval clipped = graph.intervals()[i].Intersect(range);
    if (!clipped.empty()) {
      intervals.push_back(clipped);
      snapshots.push_back(graph.snapshots()[i]);
    }
  }
  return RgGraph(graph.context(), std::move(intervals), std::move(snapshots),
                 graph.lifetime().Intersect(range));
}

}  // namespace tgraph
