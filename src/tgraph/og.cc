#include "tgraph/og.h"

#include <algorithm>

#include "tgraph/coalesce.h"

namespace tgraph {

using dataflow::Dataset;

OgGraph OgGraph::Create(dataflow::ExecutionContext* ctx,
                        std::vector<OgVertex> vertices,
                        std::vector<OgEdge> edges,
                        std::optional<Interval> lifetime) {
  Interval life;
  if (lifetime.has_value()) {
    life = *lifetime;
  } else {
    for (const OgVertex& v : vertices) life = life.Merge(HistorySpan(v.history));
    for (const OgEdge& e : edges) life = life.Merge(HistorySpan(e.history));
  }
  return OgGraph(Dataset<OgVertex>::FromVector(ctx, std::move(vertices)),
                 Dataset<OgEdge>::FromVector(ctx, std::move(edges)), life);
}

int64_t OgGraph::NumVertexRecords() const {
  return vertices_
      .Map([](const OgVertex& v) { return static_cast<int64_t>(v.history.size()); })
      .Reduce(0, [](int64_t a, int64_t b) { return a + b; });
}

int64_t OgGraph::NumEdgeRecords() const {
  return edges_
      .Map([](const OgEdge& e) { return static_cast<int64_t>(e.history.size()); })
      .Reduce(0, [](int64_t a, int64_t b) { return a + b; });
}

OgGraph OgGraph::Coalesce() const {
  auto coalesced_vertices = vertices_.Map([](const OgVertex& v) {
    return OgVertex{v.vid, CoalesceHistory(v.history)};
  });
  auto coalesced_edges = edges_.MapPartitions<OgEdge>(
      [](const std::vector<OgEdge>& edges, std::vector<OgEdge>* out) {
        EndpointMemo<History> endpoints;
        auto coalesce = [](const OgVertex& v) {
          return CoalesceHistory(v.history);
        };
        out->reserve(edges.size());
        for (const OgEdge& e : edges) {
          out->push_back(OgEdge{e.eid,
                                OgVertex{e.v1.vid, endpoints.Get(e.v1, coalesce)},
                                OgVertex{e.v2.vid, endpoints.Get(e.v2, coalesce)},
                                CoalesceHistory(e.history)});
        }
      });
  return OgGraph(coalesced_vertices, coalesced_edges, lifetime_);
}

std::vector<TimePoint> OgGraph::ChangePoints() const {
  auto vertex_points = vertices_.FlatMap<TimePoint>(
      [](const OgVertex& v, std::vector<TimePoint>* out) {
        for (const HistoryItem& item : v.history) {
          out->push_back(item.interval.start);
          out->push_back(item.interval.end);
        }
      });
  auto edge_points = edges_.FlatMap<TimePoint>(
      [](const OgEdge& e, std::vector<TimePoint>* out) {
        for (const HistoryItem& item : e.history) {
          out->push_back(item.interval.start);
          out->push_back(item.interval.end);
        }
      });
  std::vector<TimePoint> points =
      vertex_points.Union(edge_points).Distinct().Collect();
  std::sort(points.begin(), points.end());
  return points;
}

namespace {

const HistoryItem* StateAt(const History& history, TimePoint t) {
  for (const HistoryItem& item : history) {
    if (item.interval.Contains(t)) return &item;
  }
  return nullptr;
}

}  // namespace

sg::PropertyGraph OgGraph::SnapshotAt(TimePoint t) const {
  auto snapshot_vertices = vertices_.FlatMap<sg::Vertex>(
      [t](const OgVertex& v, std::vector<sg::Vertex>* out) {
        if (const HistoryItem* state = StateAt(v.history, t)) {
          out->push_back(sg::Vertex{v.vid, state->properties});
        }
      });
  auto snapshot_edges = edges_.FlatMap<sg::Edge>(
      [t](const OgEdge& e, std::vector<sg::Edge>* out) {
        if (const HistoryItem* state = StateAt(e.history, t)) {
          out->push_back(sg::Edge{e.eid, e.v1.vid, e.v2.vid, state->properties});
        }
      });
  return sg::PropertyGraph(snapshot_vertices, snapshot_edges);
}

}  // namespace tgraph
