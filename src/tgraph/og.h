#ifndef TGRAPH_TGRAPH_OG_H_
#define TGRAPH_TGRAPH_OG_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "dataflow/dataset.h"
#include "sg/property_graph.h"
#include "tgraph/types.h"

namespace tgraph {

/// \brief The One Graph (OG) physical representation: each vertex and edge
/// appears exactly once, carrying its evolution as a history array
/// (Figure 6). Edges embed copies of their endpoint vertices, so most
/// operations are per-record maps with no joins.
///
/// OG balances temporal and structural locality — the representation the
/// paper finds fastest overall.
class OgGraph {
 public:
  OgGraph() = default;
  OgGraph(dataflow::Dataset<OgVertex> vertices,
          dataflow::Dataset<OgEdge> edges, Interval lifetime)
      : vertices_(std::move(vertices)),
        edges_(std::move(edges)),
        lifetime_(lifetime) {}

  /// Builds from record vectors. Edge endpoint copies must already be
  /// embedded (use FromVe / convert.h to populate them from a VE graph).
  static OgGraph Create(dataflow::ExecutionContext* ctx,
                        std::vector<OgVertex> vertices,
                        std::vector<OgEdge> edges,
                        std::optional<Interval> lifetime = std::nullopt);

  const dataflow::Dataset<OgVertex>& vertices() const { return vertices_; }
  const dataflow::Dataset<OgEdge>& edges() const { return edges_; }
  Interval lifetime() const { return lifetime_; }
  dataflow::ExecutionContext* context() const { return vertices_.context(); }

  int64_t NumVertices() const { return vertices_.Count(); }
  int64_t NumEdges() const { return edges_.Count(); }
  /// Total number of vertex states across all histories.
  int64_t NumVertexRecords() const;
  int64_t NumEdgeRecords() const;

  /// Coalesces every history array in place. Unlike VE, this needs no
  /// shuffle: an entity's full history is already local to its record.
  OgGraph Coalesce() const;

  std::vector<TimePoint> ChangePoints() const;

  /// The state of the graph at time point `t` as a static property graph.
  sg::PropertyGraph SnapshotAt(TimePoint t) const;

 private:
  dataflow::Dataset<OgVertex> vertices_;
  dataflow::Dataset<OgEdge> edges_;
  Interval lifetime_;
};

/// \brief Per-partition memo of a pure function of an OG endpoint copy.
///
/// Every OG edge embeds copies of both endpoints, so per-vertex work on
/// `e.v1`/`e.v2` would otherwise run once per incident edge (GraphX ships
/// each vertex mirror to an edge partition once for the same reason).
/// Entries are keyed by vid and hit only when the cached input history
/// equals the endpoint's: copies of one vid can differ after Slice or a
/// chained aZoom, and a mismatch recomputes and replaces the entry. A
/// replaced value is kept until the next replacement, so a returned
/// reference survives one further Get: both endpoints of an edge can be
/// looked up before either is used. The cached input is referenced, not
/// copied, so a memo must not outlive the partition it reads. One memo per
/// partition task; never shared across threads.
template <typename V>
class EndpointMemo {
 public:
  /// `compute(const OgVertex&) -> V`.
  template <typename Fn>
  const V& Get(const OgVertex& v, const Fn& compute) {
    Entry& entry = memo_[v.vid];
    if (entry.value == nullptr || *entry.input != v.history) {
      retired_ = std::move(entry.value);
      entry.value = std::make_unique<V>(compute(v));
      entry.input = &v.history;
    }
    return *entry.value;
  }

 private:
  struct Entry {
    const History* input = nullptr;
    std::unique_ptr<V> value;
  };
  std::unordered_map<VertexId, Entry> memo_;
  std::unique_ptr<V> retired_;
};

}  // namespace tgraph

#endif  // TGRAPH_TGRAPH_OG_H_
