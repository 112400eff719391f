#include "storage/graph_io.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>

#include "obs/metrics.h"
#include "storage/predicate.h"
#include "storage/serde.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "storage/table.h"
#include "tgraph/coalesce.h"
#include "tgraph/convert.h"

namespace tgraph::storage {
namespace {

/// Mirrors the per-call LoadMetrics out-params into the process-wide
/// registry, so catalog loads and CLI loads surface in --metrics / STATS
/// output the same way shuffles already do. `new_load` is set by the
/// (once-per-load) vertex-file scan and counts whole graph loads.
void RecordLoadScan(bool new_load, size_t groups_total, size_t groups_scanned) {
  static obs::Counter* loads =
      obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kLoads);
  static obs::Counter* total = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kLoadRowGroupsTotal);
  static obs::Counter* scanned = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kLoadRowGroupsScanned);
  if (new_load) loads->Increment();
  total->Add(static_cast<int64_t>(groups_total));
  scanned->Add(static_cast<int64_t>(groups_scanned));
}

}  // namespace
}  // namespace tgraph::storage

namespace tgraph::storage {

using dataflow::Dataset;

const char* SortOrderName(SortOrder order) {
  return order == SortOrder::kTemporalLocality ? "temporal" : "structural";
}

namespace {

constexpr char kLifetimeStartKey[] = "lifetime_start";
constexpr char kLifetimeEndKey[] = "lifetime_end";
constexpr char kSortOrderKey[] = "sort_order";

std::vector<std::pair<std::string, std::string>> FileMetadata(
    Interval lifetime, SortOrder order) {
  return {{kLifetimeStartKey, std::to_string(lifetime.start)},
          {kLifetimeEndKey, std::to_string(lifetime.end)},
          {kSortOrderKey, SortOrderName(order)}};
}

Result<Interval> LifetimeFromMetadata(const TableReader& reader) {
  TimePoint start = 0, end = 0;
  bool have_start = false, have_end = false;
  for (const auto& [key, value] : reader.metadata()) {
    if (key == kLifetimeStartKey) {
      start = std::stoll(value);
      have_start = true;
    } else if (key == kLifetimeEndKey) {
      end = std::stoll(value);
      have_end = true;
    }
  }
  if (!have_start || !have_end) {
    return Status::IoError("file lacks lifetime metadata");
  }
  return Interval(start, end);
}

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create directory " + dir);
  return Status::OK();
}

// --- VE flat format --------------------------------------------------------

Schema VeVertexSchema() {
  return Schema{{{"vid", ColumnType::kInt64},
                 {"start", ColumnType::kInt64},
                 {"end", ColumnType::kInt64},
                 {"props", ColumnType::kBinary}}};
}

Schema VeEdgeSchema() {
  return Schema{{{"eid", ColumnType::kInt64},
                 {"src", ColumnType::kInt64},
                 {"dst", ColumnType::kInt64},
                 {"start", ColumnType::kInt64},
                 {"end", ColumnType::kInt64},
                 {"props", ColumnType::kBinary}}};
}

/// Sort order decides the locality the file preserves (Section 4).
void SortVeRecords(std::vector<VeVertex>* vertices, std::vector<VeEdge>* edges,
                   SortOrder order) {
  if (order == SortOrder::kTemporalLocality) {
    std::sort(vertices->begin(), vertices->end(),
              [](const VeVertex& a, const VeVertex& b) {
                return std::tie(a.vid, a.interval.start) <
                       std::tie(b.vid, b.interval.start);
              });
    std::sort(edges->begin(), edges->end(),
              [](const VeEdge& a, const VeEdge& b) {
                return std::tie(a.eid, a.interval.start) <
                       std::tie(b.eid, b.interval.start);
              });
  } else {
    std::sort(vertices->begin(), vertices->end(),
              [](const VeVertex& a, const VeVertex& b) {
                return std::tie(a.interval.start, a.vid) <
                       std::tie(b.interval.start, b.vid);
              });
    std::sort(edges->begin(), edges->end(),
              [](const VeEdge& a, const VeEdge& b) {
                return std::tie(a.interval.start, a.eid) <
                       std::tie(b.interval.start, b.eid);
              });
  }
}

RecordBatch MakeVeVertexBatch(const std::vector<VeVertex>& vertices) {
  RecordBatch batch;
  batch.schema = VeVertexSchema();
  batch.columns.resize(4);
  for (const VeVertex& v : vertices) {
    batch.columns[0].ints.push_back(v.vid);
    batch.columns[1].ints.push_back(v.interval.start);
    batch.columns[2].ints.push_back(v.interval.end);
    std::string blob;
    SerializeProperties(v.properties, &blob);
    batch.columns[3].binaries.push_back(std::move(blob));
  }
  batch.num_rows = static_cast<int64_t>(vertices.size());
  return batch;
}

RecordBatch MakeVeEdgeBatch(const std::vector<VeEdge>& edges) {
  RecordBatch batch;
  batch.schema = VeEdgeSchema();
  batch.columns.resize(6);
  for (const VeEdge& e : edges) {
    batch.columns[0].ints.push_back(e.eid);
    batch.columns[1].ints.push_back(e.src);
    batch.columns[2].ints.push_back(e.dst);
    batch.columns[3].ints.push_back(e.interval.start);
    batch.columns[4].ints.push_back(e.interval.end);
    std::string blob;
    SerializeProperties(e.properties, &blob);
    batch.columns[5].binaries.push_back(std::move(blob));
  }
  batch.num_rows = static_cast<int64_t>(edges.size());
  return batch;
}

}  // namespace

Status WriteVeGraph(const VeGraph& graph, const std::string& dir,
                    const GraphWriteOptions& options) {
  TG_RETURN_IF_ERROR(EnsureDir(dir));
  std::vector<VeVertex> vertices = graph.vertices().Collect();
  std::vector<VeEdge> edges = graph.edges().Collect();
  SortVeRecords(&vertices, &edges, options.sort_order);

  WriterOptions writer_options;
  writer_options.row_group_size = options.row_group_size;
  writer_options.metadata = FileMetadata(graph.lifetime(), options.sort_order);

  {
    TG_ASSIGN_OR_RETURN(
        std::unique_ptr<TableWriter> writer,
        TableWriter::Open(dir + "/vertices.tcol", VeVertexSchema(),
                          writer_options));
    TG_RETURN_IF_ERROR(writer->Append(MakeVeVertexBatch(vertices)));
    TG_RETURN_IF_ERROR(writer->Close());
  }
  {
    TG_ASSIGN_OR_RETURN(
        std::unique_ptr<TableWriter> writer,
        TableWriter::Open(dir + "/edges.tcol", VeEdgeSchema(), writer_options));
    TG_RETURN_IF_ERROR(writer->Append(MakeVeEdgeBatch(edges)));
    TG_RETURN_IF_ERROR(writer->Close());
  }
  return Status::OK();
}

Result<VeGraph> LoadVeGraph(dataflow::ExecutionContext* ctx,
                            const std::string& dir, const LoadOptions& options,
                            LoadMetrics* metrics) {
  if (HasStore(dir)) {
    TG_ASSIGN_OR_RETURN(std::unique_ptr<StoreReader> store,
                        StoreReader::Open(StorePath(dir)));
    if (store->FindTable("vertices") >= 0) {
      return LoadVeGraphFromStore(ctx, *store, options, metrics);
    }
  }
  TG_ASSIGN_OR_RETURN(std::unique_ptr<TableReader> vertex_reader,
                      TableReader::Open(dir + "/vertices.tcol"));
  TG_ASSIGN_OR_RETURN(std::unique_ptr<TableReader> edge_reader,
                      TableReader::Open(dir + "/edges.tcol"));
  TG_ASSIGN_OR_RETURN(Interval lifetime, LifetimeFromMetadata(*vertex_reader));

  Predicate predicate;
  const Predicate* predicate_ptr = nullptr;
  Interval clip = lifetime;
  if (options.time_range.has_value()) {
    clip = options.time_range->Intersect(lifetime);
    predicate = Predicate::IntervalOverlaps("start", "end", clip);
    if (options.pushdown) predicate_ptr = &predicate;
  }

  size_t scanned = 0;
  TG_ASSIGN_OR_RETURN(RecordBatch vbatch,
                      vertex_reader->Read(predicate_ptr, &scanned));
  RecordLoadScan(/*new_load=*/true, vertex_reader->num_row_groups(), scanned);
  if (metrics != nullptr) {
    metrics->vertex_groups_total = vertex_reader->num_row_groups();
    metrics->vertex_groups_scanned = scanned;
  }
  std::vector<VeVertex> vertices;
  vertices.reserve(static_cast<size_t>(vbatch.num_rows));
  for (int64_t row = 0; row < vbatch.num_rows; ++row) {
    size_t pos = 0;
    TG_ASSIGN_OR_RETURN(
        Properties props,
        DeserializeProperties(vbatch.columns[3].binaries[row], &pos));
    Interval interval(vbatch.columns[1].ints[row], vbatch.columns[2].ints[row]);
    interval = interval.Intersect(clip);
    if (interval.empty()) continue;
    vertices.push_back(
        VeVertex{vbatch.columns[0].ints[row], interval, std::move(props)});
  }

  TG_ASSIGN_OR_RETURN(RecordBatch ebatch,
                      edge_reader->Read(predicate_ptr, &scanned));
  RecordLoadScan(/*new_load=*/false, edge_reader->num_row_groups(), scanned);
  if (metrics != nullptr) {
    metrics->edge_groups_total = edge_reader->num_row_groups();
    metrics->edge_groups_scanned = scanned;
  }
  std::vector<VeEdge> edges;
  edges.reserve(static_cast<size_t>(ebatch.num_rows));
  for (int64_t row = 0; row < ebatch.num_rows; ++row) {
    size_t pos = 0;
    TG_ASSIGN_OR_RETURN(
        Properties props,
        DeserializeProperties(ebatch.columns[5].binaries[row], &pos));
    Interval interval(ebatch.columns[3].ints[row], ebatch.columns[4].ints[row]);
    interval = interval.Intersect(clip);
    if (interval.empty()) continue;
    edges.push_back(VeEdge{ebatch.columns[0].ints[row],
                           ebatch.columns[1].ints[row],
                           ebatch.columns[2].ints[row], interval,
                           std::move(props)});
  }
  return VeGraph::Create(ctx, std::move(vertices), std::move(edges), clip);
}

Result<RgGraph> LoadRgGraph(dataflow::ExecutionContext* ctx,
                            const std::string& dir, const LoadOptions& options,
                            LoadMetrics* metrics) {
  TG_ASSIGN_OR_RETURN(VeGraph ve, LoadVeGraph(ctx, dir, options, metrics));
  return VeToRg(ve);
}

// --- Nested OG format ------------------------------------------------------

namespace {

Schema OgVertexSchema() {
  return Schema{{{"vid", ColumnType::kInt64},
                 {"first", ColumnType::kInt64},
                 {"last", ColumnType::kInt64},
                 {"history", ColumnType::kBinary}}};
}

Schema OgEdgeSchema() {
  return Schema{{{"eid", ColumnType::kInt64},
                 {"first", ColumnType::kInt64},
                 {"last", ColumnType::kInt64},
                 {"v1", ColumnType::kBinary},
                 {"v2", ColumnType::kBinary},
                 {"history", ColumnType::kBinary}}};
}

void SerializeOgVertex(const OgVertex& v, std::string* out) {
  PutFixed64(out, static_cast<uint64_t>(v.vid));
  SerializeHistory(v.history, out);
}

Result<OgVertex> DeserializeOgVertex(std::string_view data, size_t* pos) {
  TG_ASSIGN_OR_RETURN(uint64_t vid, GetFixed64(data, pos));
  TG_ASSIGN_OR_RETURN(History history, DeserializeHistory(data, pos));
  return OgVertex{static_cast<VertexId>(vid), std::move(history)};
}

/// The nested format sorts on (first, id) or (id, first) like the flat
/// one; pushdown works on the first/last columns (Section 4).
void SortOgRecords(std::vector<OgVertex>* vertices, std::vector<OgEdge>* edges,
                   SortOrder order) {
  auto first_of = [](const History& h) {
    return h.empty() ? int64_t{0} : h.front().interval.start;
  };
  if (order == SortOrder::kTemporalLocality) {
    std::sort(vertices->begin(), vertices->end(),
              [&](const OgVertex& a, const OgVertex& b) { return a.vid < b.vid; });
    std::sort(edges->begin(), edges->end(),
              [&](const OgEdge& a, const OgEdge& b) { return a.eid < b.eid; });
  } else {
    std::sort(vertices->begin(), vertices->end(),
              [&](const OgVertex& a, const OgVertex& b) {
                return std::pair(first_of(a.history), a.vid) <
                       std::pair(first_of(b.history), b.vid);
              });
    std::sort(edges->begin(), edges->end(),
              [&](const OgEdge& a, const OgEdge& b) {
                return std::pair(first_of(a.history), a.eid) <
                       std::pair(first_of(b.history), b.eid);
              });
  }
}

RecordBatch MakeOgVertexBatch(const std::vector<OgVertex>& vertices) {
  RecordBatch batch;
  batch.schema = OgVertexSchema();
  batch.columns.resize(4);
  for (const OgVertex& v : vertices) {
    Interval span = HistorySpan(v.history);
    batch.columns[0].ints.push_back(v.vid);
    batch.columns[1].ints.push_back(span.start);
    batch.columns[2].ints.push_back(span.end);
    std::string blob;
    SerializeHistory(v.history, &blob);
    batch.columns[3].binaries.push_back(std::move(blob));
  }
  batch.num_rows = static_cast<int64_t>(vertices.size());
  return batch;
}

RecordBatch MakeOgEdgeBatch(const std::vector<OgEdge>& edges) {
  RecordBatch batch;
  batch.schema = OgEdgeSchema();
  batch.columns.resize(6);
  for (const OgEdge& e : edges) {
    Interval span = HistorySpan(e.history);
    batch.columns[0].ints.push_back(e.eid);
    batch.columns[1].ints.push_back(span.start);
    batch.columns[2].ints.push_back(span.end);
    std::string v1_blob, v2_blob, history_blob;
    SerializeOgVertex(e.v1, &v1_blob);
    SerializeOgVertex(e.v2, &v2_blob);
    SerializeHistory(e.history, &history_blob);
    batch.columns[3].binaries.push_back(std::move(v1_blob));
    batch.columns[4].binaries.push_back(std::move(v2_blob));
    batch.columns[5].binaries.push_back(std::move(history_blob));
  }
  batch.num_rows = static_cast<int64_t>(edges.size());
  return batch;
}

}  // namespace

Status WriteOgGraph(const OgGraph& graph, const std::string& dir,
                    const GraphWriteOptions& options) {
  TG_RETURN_IF_ERROR(EnsureDir(dir));
  std::vector<OgVertex> vertices = graph.vertices().Collect();
  std::vector<OgEdge> edges = graph.edges().Collect();
  SortOgRecords(&vertices, &edges, options.sort_order);

  WriterOptions writer_options;
  writer_options.row_group_size = options.row_group_size;
  writer_options.metadata = FileMetadata(graph.lifetime(), options.sort_order);

  {
    TG_ASSIGN_OR_RETURN(std::unique_ptr<TableWriter> writer,
                        TableWriter::Open(dir + "/og_vertices.tcol",
                                          OgVertexSchema(), writer_options));
    TG_RETURN_IF_ERROR(writer->Append(MakeOgVertexBatch(vertices)));
    TG_RETURN_IF_ERROR(writer->Close());
  }
  {
    TG_ASSIGN_OR_RETURN(std::unique_ptr<TableWriter> writer,
                        TableWriter::Open(dir + "/og_edges.tcol",
                                          OgEdgeSchema(), writer_options));
    TG_RETURN_IF_ERROR(writer->Append(MakeOgEdgeBatch(edges)));
    TG_RETURN_IF_ERROR(writer->Close());
  }
  return Status::OK();
}

Result<OgGraph> LoadOgGraph(dataflow::ExecutionContext* ctx,
                            const std::string& dir, const LoadOptions& options,
                            LoadMetrics* metrics) {
  if (HasStore(dir)) {
    TG_ASSIGN_OR_RETURN(std::unique_ptr<StoreReader> store,
                        StoreReader::Open(StorePath(dir)));
    if (store->FindTable("og_vertices") >= 0) {
      return LoadOgGraphFromStore(ctx, *store, options, metrics);
    }
  }
  TG_ASSIGN_OR_RETURN(std::unique_ptr<TableReader> vertex_reader,
                      TableReader::Open(dir + "/og_vertices.tcol"));
  TG_ASSIGN_OR_RETURN(std::unique_ptr<TableReader> edge_reader,
                      TableReader::Open(dir + "/og_edges.tcol"));
  TG_ASSIGN_OR_RETURN(Interval lifetime, LifetimeFromMetadata(*vertex_reader));

  Predicate predicate;
  const Predicate* predicate_ptr = nullptr;
  Interval clip = lifetime;
  if (options.time_range.has_value()) {
    clip = options.time_range->Intersect(lifetime);
    // Pushdown on the flattened first/last columns (the nested history
    // column cannot be filtered, Section 4).
    predicate = Predicate::IntervalOverlaps("first", "last", clip);
    if (options.pushdown) predicate_ptr = &predicate;
  }

  size_t scanned = 0;
  TG_ASSIGN_OR_RETURN(RecordBatch vbatch,
                      vertex_reader->Read(predicate_ptr, &scanned));
  RecordLoadScan(/*new_load=*/true, vertex_reader->num_row_groups(), scanned);
  if (metrics != nullptr) {
    metrics->vertex_groups_total = vertex_reader->num_row_groups();
    metrics->vertex_groups_scanned = scanned;
  }
  std::vector<OgVertex> vertices;
  vertices.reserve(static_cast<size_t>(vbatch.num_rows));
  for (int64_t row = 0; row < vbatch.num_rows; ++row) {
    size_t pos = 0;
    TG_ASSIGN_OR_RETURN(History history,
                        DeserializeHistory(vbatch.columns[3].binaries[row], &pos));
    history = ClipHistory(std::move(history), clip);
    if (history.empty()) continue;
    vertices.push_back(OgVertex{vbatch.columns[0].ints[row], std::move(history)});
  }

  TG_ASSIGN_OR_RETURN(RecordBatch ebatch,
                      edge_reader->Read(predicate_ptr, &scanned));
  RecordLoadScan(/*new_load=*/false, edge_reader->num_row_groups(), scanned);
  if (metrics != nullptr) {
    metrics->edge_groups_total = edge_reader->num_row_groups();
    metrics->edge_groups_scanned = scanned;
  }
  std::vector<OgEdge> edges;
  edges.reserve(static_cast<size_t>(ebatch.num_rows));
  for (int64_t row = 0; row < ebatch.num_rows; ++row) {
    size_t pos = 0;
    TG_ASSIGN_OR_RETURN(OgVertex v1,
                        DeserializeOgVertex(ebatch.columns[3].binaries[row], &pos));
    pos = 0;
    TG_ASSIGN_OR_RETURN(OgVertex v2,
                        DeserializeOgVertex(ebatch.columns[4].binaries[row], &pos));
    pos = 0;
    TG_ASSIGN_OR_RETURN(History history,
                        DeserializeHistory(ebatch.columns[5].binaries[row], &pos));
    history = ClipHistory(std::move(history), clip);
    if (history.empty()) continue;
    v1.history = ClipHistory(std::move(v1.history), clip);
    v2.history = ClipHistory(std::move(v2.history), clip);
    edges.push_back(OgEdge{ebatch.columns[0].ints[row], std::move(v1),
                           std::move(v2), std::move(history)});
  }
  return OgGraph(Dataset<OgVertex>::FromVector(ctx, std::move(vertices)),
                 Dataset<OgEdge>::FromVector(ctx, std::move(edges)), clip);
}

// --- Nested OGC format -----------------------------------------------------

namespace {

Schema OgcIndexSchema() {
  return Schema{{{"start", ColumnType::kInt64}, {"end", ColumnType::kInt64}}};
}

Schema OgcVertexSchema() {
  return Schema{{{"vid", ColumnType::kInt64},
                 {"first", ColumnType::kInt64},
                 {"last", ColumnType::kInt64},
                 {"type", ColumnType::kBinary},
                 {"bits", ColumnType::kBinary}}};
}

Schema OgcEdgeSchema() {
  return Schema{{{"eid", ColumnType::kInt64},
                 {"first", ColumnType::kInt64},
                 {"last", ColumnType::kInt64},
                 {"type", ColumnType::kBinary},
                 {"v1", ColumnType::kBinary},
                 {"v2", ColumnType::kBinary},
                 {"bits", ColumnType::kBinary}}};
}

Interval PresenceSpan(const Bitset& presence,
                      const std::vector<Interval>& index) {
  Interval span;
  for (size_t i = 0; i < index.size(); ++i) {
    if (presence.Test(i)) span = span.Merge(index[i]);
  }
  return span;
}

void SerializeOgcVertex(const OgcVertex& v, std::string* out) {
  PutFixed64(out, static_cast<uint64_t>(v.vid));
  PutBytes(out, v.type);
  SerializeBitset(v.presence, out);
}

Result<OgcVertex> DeserializeOgcVertex(std::string_view data, size_t* pos) {
  TG_ASSIGN_OR_RETURN(uint64_t vid, GetFixed64(data, pos));
  TG_ASSIGN_OR_RETURN(std::string_view type, GetBytes(data, pos));
  TG_ASSIGN_OR_RETURN(Bitset bits, DeserializeBitset(data, pos));
  return OgcVertex{static_cast<VertexId>(vid), std::string(type),
                   std::move(bits)};
}

RecordBatch MakeOgcIndexBatch(const std::vector<Interval>& intervals) {
  RecordBatch batch;
  batch.schema = OgcIndexSchema();
  batch.columns.resize(2);
  for (const Interval& i : intervals) {
    batch.columns[0].ints.push_back(i.start);
    batch.columns[1].ints.push_back(i.end);
  }
  batch.num_rows = static_cast<int64_t>(intervals.size());
  return batch;
}

RecordBatch MakeOgcVertexBatch(const std::vector<OgcVertex>& vertices,
                               const std::vector<Interval>& index) {
  RecordBatch batch;
  batch.schema = OgcVertexSchema();
  batch.columns.resize(5);
  for (const OgcVertex& v : vertices) {
    Interval span = PresenceSpan(v.presence, index);
    batch.columns[0].ints.push_back(v.vid);
    batch.columns[1].ints.push_back(span.start);
    batch.columns[2].ints.push_back(span.end);
    batch.columns[3].binaries.push_back(v.type);
    std::string bits;
    SerializeBitset(v.presence, &bits);
    batch.columns[4].binaries.push_back(std::move(bits));
    ++batch.num_rows;
  }
  return batch;
}

RecordBatch MakeOgcEdgeBatch(const std::vector<OgcEdge>& edges,
                             const std::vector<Interval>& index) {
  RecordBatch batch;
  batch.schema = OgcEdgeSchema();
  batch.columns.resize(7);
  for (const OgcEdge& e : edges) {
    Interval span = PresenceSpan(e.presence, index);
    batch.columns[0].ints.push_back(e.eid);
    batch.columns[1].ints.push_back(span.start);
    batch.columns[2].ints.push_back(span.end);
    batch.columns[3].binaries.push_back(e.type);
    std::string v1_blob, v2_blob, bits;
    SerializeOgcVertex(e.v1, &v1_blob);
    SerializeOgcVertex(e.v2, &v2_blob);
    SerializeBitset(e.presence, &bits);
    batch.columns[4].binaries.push_back(std::move(v1_blob));
    batch.columns[5].binaries.push_back(std::move(v2_blob));
    batch.columns[6].binaries.push_back(std::move(bits));
    ++batch.num_rows;
  }
  return batch;
}

}  // namespace

Status WriteOgcGraph(const OgcGraph& graph, const std::string& dir,
                     const GraphWriteOptions& options) {
  TG_RETURN_IF_ERROR(EnsureDir(dir));
  WriterOptions writer_options;
  writer_options.row_group_size = options.row_group_size;
  writer_options.metadata = FileMetadata(graph.lifetime(), options.sort_order);

  const std::vector<Interval>& index = graph.intervals();
  {
    TG_ASSIGN_OR_RETURN(std::unique_ptr<TableWriter> writer,
                        TableWriter::Open(dir + "/ogc_index.tcol",
                                          OgcIndexSchema(), writer_options));
    TG_RETURN_IF_ERROR(writer->Append(MakeOgcIndexBatch(index)));
    TG_RETURN_IF_ERROR(writer->Close());
  }
  {
    TG_ASSIGN_OR_RETURN(std::unique_ptr<TableWriter> writer,
                        TableWriter::Open(dir + "/ogc_vertices.tcol",
                                          OgcVertexSchema(), writer_options));
    TG_RETURN_IF_ERROR(
        writer->Append(MakeOgcVertexBatch(graph.vertices().Collect(), index)));
    TG_RETURN_IF_ERROR(writer->Close());
  }
  {
    TG_ASSIGN_OR_RETURN(std::unique_ptr<TableWriter> writer,
                        TableWriter::Open(dir + "/ogc_edges.tcol",
                                          OgcEdgeSchema(), writer_options));
    TG_RETURN_IF_ERROR(
        writer->Append(MakeOgcEdgeBatch(graph.edges().Collect(), index)));
    TG_RETURN_IF_ERROR(writer->Close());
  }
  return Status::OK();
}

Result<OgcGraph> LoadOgcGraph(dataflow::ExecutionContext* ctx,
                              const std::string& dir,
                              const LoadOptions& options,
                              LoadMetrics* metrics) {
  if (HasStore(dir)) {
    TG_ASSIGN_OR_RETURN(std::unique_ptr<StoreReader> store,
                        StoreReader::Open(StorePath(dir)));
    if (store->FindTable("ogc_vertices") >= 0) {
      return LoadOgcGraphFromStore(ctx, *store, options, metrics);
    }
  }
  TG_ASSIGN_OR_RETURN(std::unique_ptr<TableReader> index_reader,
                      TableReader::Open(dir + "/ogc_index.tcol"));
  TG_ASSIGN_OR_RETURN(RecordBatch index_batch, index_reader->Read());
  std::vector<Interval> full_index;
  for (int64_t row = 0; row < index_batch.num_rows; ++row) {
    full_index.push_back(Interval(index_batch.columns[0].ints[row],
                                  index_batch.columns[1].ints[row]));
  }
  TG_ASSIGN_OR_RETURN(Interval lifetime, LifetimeFromMetadata(*index_reader));

  Interval clip = lifetime;
  Predicate predicate;
  const Predicate* predicate_ptr = nullptr;
  // Index entries kept after the range filter, with their original slots.
  std::vector<size_t> kept;
  std::vector<Interval> index;
  for (size_t i = 0; i < full_index.size(); ++i) {
    if (!options.time_range.has_value() ||
        full_index[i].Overlaps(*options.time_range)) {
      kept.push_back(i);
      index.push_back(options.time_range.has_value()
                          ? full_index[i].Intersect(*options.time_range)
                          : full_index[i]);
    }
  }
  if (options.time_range.has_value()) {
    clip = options.time_range->Intersect(lifetime);
    predicate = Predicate::IntervalOverlaps("first", "last", clip);
    if (options.pushdown) predicate_ptr = &predicate;
  }

  auto slice_bits = [&kept](const Bitset& bits) {
    Bitset sliced(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) {
      if (kept[i] < bits.size() && bits.Test(kept[i])) sliced.Set(i);
    }
    return sliced;
  };

  size_t scanned = 0;
  TG_ASSIGN_OR_RETURN(std::unique_ptr<TableReader> vertex_reader,
                      TableReader::Open(dir + "/ogc_vertices.tcol"));
  TG_ASSIGN_OR_RETURN(RecordBatch vbatch,
                      vertex_reader->Read(predicate_ptr, &scanned));
  RecordLoadScan(/*new_load=*/true, vertex_reader->num_row_groups(), scanned);
  if (metrics != nullptr) {
    metrics->vertex_groups_total = vertex_reader->num_row_groups();
    metrics->vertex_groups_scanned = scanned;
  }
  std::vector<OgcVertex> vertices;
  for (int64_t row = 0; row < vbatch.num_rows; ++row) {
    size_t pos = 0;
    TG_ASSIGN_OR_RETURN(Bitset bits,
                        DeserializeBitset(vbatch.columns[4].binaries[row], &pos));
    Bitset sliced = slice_bits(bits);
    if (sliced.None()) continue;
    vertices.push_back(OgcVertex{vbatch.columns[0].ints[row],
                                 vbatch.columns[3].binaries[row],
                                 std::move(sliced)});
  }

  TG_ASSIGN_OR_RETURN(std::unique_ptr<TableReader> edge_reader,
                      TableReader::Open(dir + "/ogc_edges.tcol"));
  TG_ASSIGN_OR_RETURN(RecordBatch ebatch,
                      edge_reader->Read(predicate_ptr, &scanned));
  RecordLoadScan(/*new_load=*/false, edge_reader->num_row_groups(), scanned);
  if (metrics != nullptr) {
    metrics->edge_groups_total = edge_reader->num_row_groups();
    metrics->edge_groups_scanned = scanned;
  }
  std::vector<OgcEdge> edges;
  for (int64_t row = 0; row < ebatch.num_rows; ++row) {
    size_t pos = 0;
    TG_ASSIGN_OR_RETURN(OgcVertex v1,
                        DeserializeOgcVertex(ebatch.columns[4].binaries[row], &pos));
    pos = 0;
    TG_ASSIGN_OR_RETURN(OgcVertex v2,
                        DeserializeOgcVertex(ebatch.columns[5].binaries[row], &pos));
    pos = 0;
    TG_ASSIGN_OR_RETURN(Bitset bits,
                        DeserializeBitset(ebatch.columns[6].binaries[row], &pos));
    Bitset sliced = slice_bits(bits);
    if (sliced.None()) continue;
    v1.presence = slice_bits(v1.presence);
    v2.presence = slice_bits(v2.presence);
    edges.push_back(OgcEdge{ebatch.columns[0].ints[row],
                            ebatch.columns[3].binaries[row], std::move(v1),
                            std::move(v2), std::move(sliced)});
  }
  return OgcGraph(std::move(index),
                  Dataset<OgcVertex>::FromVector(ctx, std::move(vertices)),
                  Dataset<OgcEdge>::FromVector(ctx, std::move(edges)), clip);
}

// --- tgraph-store v2/v3 -------------------------------------------------------

namespace {

Result<Interval> StoreLifetime(const StoreReader& store) {
  const std::string* start = store.FindMetadata(kLifetimeStartKey);
  const std::string* end = store.FindMetadata(kLifetimeEndKey);
  if (start == nullptr || end == nullptr) {
    return Status::IoError(store.path() + " lacks lifetime metadata");
  }
  return Interval(std::stoll(*start), std::stoll(*end));
}

Result<int> RequireStoreTable(const StoreReader& store,
                              const std::string& name) {
  int t = store.FindTable(name);
  if (t < 0) {
    return Status::IoError(store.path() + " has no '" + name + "' table");
  }
  return t;
}

/// The loader fan-out: prunes partitions against the predicate's zone
/// maps (footer-only — skipped partitions never fault their pages in),
/// then decodes the survivors in parallel, one output partition each, so
/// the partition structure on disk becomes the Dataset's partition
/// structure in memory. `decode(p, out)` decodes store partition `p`.
template <typename T, typename Decode>
Result<dataflow::Partitions<T>> ScanStoreTable(dataflow::ExecutionContext* ctx,
                                               const StoreReader& store,
                                               int table,
                                               const Predicate* predicate,
                                               size_t* total, size_t* scanned,
                                               const Decode& decode) {
  const TableMeta& meta = store.table(table);
  std::vector<size_t> kept;
  kept.reserve(meta.partitions.size());
  for (size_t p = 0; p < meta.partitions.size(); ++p) {
    if (predicate == nullptr ||
        store.PartitionMaybeMatches(table, p, *predicate)) {
      kept.push_back(p);
    }
  }
  *total = meta.partitions.size();
  *scanned = kept.size();
  static obs::Counter* pruned = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kStorePartitionsPruned);
  static obs::Counter* decoded = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kStorePartitionsDecoded);
  pruned->Add(static_cast<int64_t>(meta.partitions.size() - kept.size()));
  decoded->Add(static_cast<int64_t>(kept.size()));
  dataflow::Partitions<T> parts(kept.size());
  std::vector<Status> statuses(kept.size());
  ctx->ParallelFor(kept.size(), [&](size_t i) {
    statuses[i] = decode(kept[i], &parts[i]);
  });
  for (const Status& status : statuses) TG_RETURN_IF_ERROR(status);
  return parts;
}

template <typename T>
Dataset<T> DatasetFromStoreParts(dataflow::ExecutionContext* ctx,
                                 dataflow::Partitions<T> parts) {
  if (parts.empty()) return Dataset<T>::FromVector(ctx, std::vector<T>{});
  return Dataset<T>::FromPartitions(ctx, std::move(parts));
}

std::vector<std::pair<std::string, std::string>> StoreMetadata(
    Interval lifetime, SortOrder order, const char* representation) {
  auto metadata = FileMetadata(lifetime, order);
  metadata.emplace_back(kStoreMetaRepresentation, representation);
  return metadata;
}

/// Decodes and clips each distinct OG endpoint-copy cell once per store
/// partition. Every edge embeds copies of both endpoints, so one vertex's
/// cell repeats once per incident edge; a repeat costs one History copy
/// (its property sets are shared under copy-on-write) instead of a parse
/// and a clip. Keyed by the cell's vertex id and hit only on identical
/// bytes: the copies of one vertex can differ (a stored Slice or chained
/// aZoom result). Holds views into the partition's columns, so it lives
/// within one partition's decode; never shared across threads.
class EndpointBlobMemo {
 public:
  explicit EndpointBlobMemo(Interval clip) : clip_(clip) {}

  Result<OgVertex> Decode(std::string_view blob) {
    size_t pos = 0;
    TG_ASSIGN_OR_RETURN(uint64_t vid, GetFixed64(blob, &pos));
    // A new entry's empty blob never matches: a cell holds at least its id.
    Entry& entry = memo_[static_cast<VertexId>(vid)];
    bool same = entry.blob.size() == blob.size() &&
                (entry.blob.data() == blob.data() || entry.blob == blob);
    if (!same) {
      TG_ASSIGN_OR_RETURN(History history,
                          DeserializeHistory(blob, &pos, &cache_));
      entry.vertex = OgVertex{static_cast<VertexId>(vid),
                              ClipHistory(std::move(history), clip_)};
      entry.blob = blob;
    }
    return entry.vertex;
  }

 private:
  struct Entry {
    std::string_view blob;
    OgVertex vertex;
  };
  Interval clip_;
  PropsRunCache cache_;
  std::unordered_map<VertexId, Entry> memo_;
};

}  // namespace

std::string StorePath(const std::string& dir) { return dir + "/graph.tgs"; }

bool HasStore(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::is_regular_file(StorePath(dir), ec);
}

Status WriteVeStore(const VeGraph& graph, const std::string& dir,
                    const GraphWriteOptions& options) {
  TG_RETURN_IF_ERROR(EnsureDir(dir));
  return WriteVeStoreFile(graph, StorePath(dir), options, {});
}

Status WriteVeStoreFile(
    const VeGraph& graph, const std::string& path,
    const GraphWriteOptions& options,
    const std::vector<std::pair<std::string, std::string>>& extra_metadata) {
  std::vector<VeVertex> vertices = graph.vertices().Collect();
  std::vector<VeEdge> edges = graph.edges().Collect();
  SortVeRecords(&vertices, &edges, options.sort_order);

  StoreWriterOptions writer_options;
  writer_options.partition_rows = options.row_group_size;
  writer_options.version = options.store_version;
  writer_options.metadata =
      StoreMetadata(graph.lifetime(), options.sort_order, "ve");
  writer_options.metadata.insert(writer_options.metadata.end(),
                                 extra_metadata.begin(), extra_metadata.end());
  TG_ASSIGN_OR_RETURN(std::unique_ptr<StoreWriter> writer,
                      StoreWriter::Open(path, writer_options));
  int vt = writer->AddTable("vertices", VeVertexSchema());
  int et = writer->AddTable("edges", VeEdgeSchema());
  TG_RETURN_IF_ERROR(writer->Append(vt, MakeVeVertexBatch(vertices)));
  TG_RETURN_IF_ERROR(writer->Append(et, MakeVeEdgeBatch(edges)));
  return writer->Close();
}

Status WriteOgStore(const OgGraph& graph, const std::string& dir,
                    const GraphWriteOptions& options) {
  TG_RETURN_IF_ERROR(EnsureDir(dir));
  std::vector<OgVertex> vertices = graph.vertices().Collect();
  std::vector<OgEdge> edges = graph.edges().Collect();
  SortOgRecords(&vertices, &edges, options.sort_order);

  StoreWriterOptions writer_options;
  writer_options.partition_rows = options.row_group_size;
  writer_options.version = options.store_version;
  writer_options.metadata =
      StoreMetadata(graph.lifetime(), options.sort_order, "og");
  TG_ASSIGN_OR_RETURN(std::unique_ptr<StoreWriter> writer,
                      StoreWriter::Open(StorePath(dir), writer_options));
  int vt = writer->AddTable("og_vertices", OgVertexSchema());
  int et = writer->AddTable("og_edges", OgEdgeSchema());
  TG_RETURN_IF_ERROR(writer->Append(vt, MakeOgVertexBatch(vertices)));
  TG_RETURN_IF_ERROR(writer->Append(et, MakeOgEdgeBatch(edges)));
  return writer->Close();
}

Status WriteOgcStore(const OgcGraph& graph, const std::string& dir,
                     const GraphWriteOptions& options) {
  TG_RETURN_IF_ERROR(EnsureDir(dir));
  StoreWriterOptions writer_options;
  writer_options.partition_rows = options.row_group_size;
  writer_options.version = options.store_version;
  writer_options.metadata =
      StoreMetadata(graph.lifetime(), options.sort_order, "ogc");
  TG_ASSIGN_OR_RETURN(std::unique_ptr<StoreWriter> writer,
                      StoreWriter::Open(StorePath(dir), writer_options));
  const std::vector<Interval>& index = graph.intervals();
  int it = writer->AddTable("ogc_index", OgcIndexSchema());
  int vt = writer->AddTable("ogc_vertices", OgcVertexSchema());
  int et = writer->AddTable("ogc_edges", OgcEdgeSchema());
  TG_RETURN_IF_ERROR(writer->Append(it, MakeOgcIndexBatch(index)));
  TG_RETURN_IF_ERROR(
      writer->Append(vt, MakeOgcVertexBatch(graph.vertices().Collect(), index)));
  TG_RETURN_IF_ERROR(
      writer->Append(et, MakeOgcEdgeBatch(graph.edges().Collect(), index)));
  return writer->Close();
}

Result<VeGraph> LoadVeGraphFromStore(dataflow::ExecutionContext* ctx,
                                     const StoreReader& store,
                                     const LoadOptions& options,
                                     LoadMetrics* metrics) {
  TG_ASSIGN_OR_RETURN(int vt, RequireStoreTable(store, "vertices"));
  TG_ASSIGN_OR_RETURN(int et, RequireStoreTable(store, "edges"));
  TG_ASSIGN_OR_RETURN(Interval lifetime, StoreLifetime(store));

  Predicate predicate;
  const Predicate* predicate_ptr = nullptr;
  Interval clip = lifetime;
  if (options.time_range.has_value()) {
    clip = options.time_range->Intersect(lifetime);
    predicate = Predicate::IntervalOverlaps("start", "end", clip);
    if (options.pushdown) predicate_ptr = &predicate;
  }

  size_t total = 0, scanned = 0;
  TG_ASSIGN_OR_RETURN(
      dataflow::Partitions<VeVertex> vertex_parts,
      (ScanStoreTable<VeVertex>(
          ctx, store, vt, predicate_ptr, &total, &scanned,
          [&](size_t p, std::vector<VeVertex>* out) -> Status {
            TG_ASSIGN_OR_RETURN(auto vids, store.Int64Column(vt, p, 0));
            TG_ASSIGN_OR_RETURN(auto starts, store.Int64Column(vt, p, 1));
            TG_ASSIGN_OR_RETURN(auto ends, store.Int64Column(vt, p, 2));
            TG_ASSIGN_OR_RETURN(auto props, store.BinaryColumn(vt, p, 3));
            out->reserve(vids.size());
            PropsRunCache cache;
            for (size_t i = 0; i < vids.size(); ++i) {
              Interval interval =
                  Interval(starts[i], ends[i]).Intersect(clip);
              if (interval.empty()) continue;
              TG_ASSIGN_OR_RETURN(Properties properties,
                                  cache.Decode(props.Value(i)));
              out->push_back(
                  VeVertex{vids[i], interval, std::move(properties)});
            }
            return Status::OK();
          })));
  RecordLoadScan(/*new_load=*/true, total, scanned);
  if (metrics != nullptr) {
    metrics->vertex_groups_total = total;
    metrics->vertex_groups_scanned = scanned;
  }

  TG_ASSIGN_OR_RETURN(
      dataflow::Partitions<VeEdge> edge_parts,
      (ScanStoreTable<VeEdge>(
          ctx, store, et, predicate_ptr, &total, &scanned,
          [&](size_t p, std::vector<VeEdge>* out) -> Status {
            TG_ASSIGN_OR_RETURN(auto eids, store.Int64Column(et, p, 0));
            TG_ASSIGN_OR_RETURN(auto srcs, store.Int64Column(et, p, 1));
            TG_ASSIGN_OR_RETURN(auto dsts, store.Int64Column(et, p, 2));
            TG_ASSIGN_OR_RETURN(auto starts, store.Int64Column(et, p, 3));
            TG_ASSIGN_OR_RETURN(auto ends, store.Int64Column(et, p, 4));
            TG_ASSIGN_OR_RETURN(auto props, store.BinaryColumn(et, p, 5));
            out->reserve(eids.size());
            PropsRunCache cache;
            for (size_t i = 0; i < eids.size(); ++i) {
              Interval interval =
                  Interval(starts[i], ends[i]).Intersect(clip);
              if (interval.empty()) continue;
              TG_ASSIGN_OR_RETURN(Properties properties,
                                  cache.Decode(props.Value(i)));
              out->push_back(VeEdge{eids[i], srcs[i], dsts[i], interval,
                                    std::move(properties)});
            }
            return Status::OK();
          })));
  RecordLoadScan(/*new_load=*/false, total, scanned);
  if (metrics != nullptr) {
    metrics->edge_groups_total = total;
    metrics->edge_groups_scanned = scanned;
  }
  return VeGraph(DatasetFromStoreParts(ctx, std::move(vertex_parts)),
                 DatasetFromStoreParts(ctx, std::move(edge_parts)), clip);
}

Result<RgGraph> LoadRgGraphFromStore(dataflow::ExecutionContext* ctx,
                                     const StoreReader& store,
                                     const LoadOptions& options,
                                     LoadMetrics* metrics) {
  TG_ASSIGN_OR_RETURN(VeGraph ve,
                      LoadVeGraphFromStore(ctx, store, options, metrics));
  return VeToRg(ve);
}

Result<OgGraph> LoadOgGraphFromStore(dataflow::ExecutionContext* ctx,
                                     const StoreReader& store,
                                     const LoadOptions& options,
                                     LoadMetrics* metrics) {
  TG_ASSIGN_OR_RETURN(int vt, RequireStoreTable(store, "og_vertices"));
  TG_ASSIGN_OR_RETURN(int et, RequireStoreTable(store, "og_edges"));
  TG_ASSIGN_OR_RETURN(Interval lifetime, StoreLifetime(store));

  Predicate predicate;
  const Predicate* predicate_ptr = nullptr;
  Interval clip = lifetime;
  if (options.time_range.has_value()) {
    clip = options.time_range->Intersect(lifetime);
    predicate = Predicate::IntervalOverlaps("first", "last", clip);
    if (options.pushdown) predicate_ptr = &predicate;
  }

  size_t total = 0, scanned = 0;
  TG_ASSIGN_OR_RETURN(
      dataflow::Partitions<OgVertex> vertex_parts,
      (ScanStoreTable<OgVertex>(
          ctx, store, vt, predicate_ptr, &total, &scanned,
          [&](size_t p, std::vector<OgVertex>* out) -> Status {
            TG_ASSIGN_OR_RETURN(auto vids, store.Int64Column(vt, p, 0));
            TG_ASSIGN_OR_RETURN(auto histories, store.BinaryColumn(vt, p, 3));
            out->reserve(vids.size());
            PropsRunCache cache;
            for (size_t i = 0; i < vids.size(); ++i) {
              size_t pos = 0;
              TG_ASSIGN_OR_RETURN(
                  History history,
                  DeserializeHistory(histories.Value(i), &pos, &cache));
              history = ClipHistory(std::move(history), clip);
              if (history.empty()) continue;
              out->push_back(OgVertex{vids[i], std::move(history)});
            }
            return Status::OK();
          })));
  RecordLoadScan(/*new_load=*/true, total, scanned);
  if (metrics != nullptr) {
    metrics->vertex_groups_total = total;
    metrics->vertex_groups_scanned = scanned;
  }

  TG_ASSIGN_OR_RETURN(
      dataflow::Partitions<OgEdge> edge_parts,
      (ScanStoreTable<OgEdge>(
          ctx, store, et, predicate_ptr, &total, &scanned,
          [&](size_t p, std::vector<OgEdge>* out) -> Status {
            TG_ASSIGN_OR_RETURN(auto eids, store.Int64Column(et, p, 0));
            TG_ASSIGN_OR_RETURN(auto v1s, store.BinaryColumn(et, p, 3));
            TG_ASSIGN_OR_RETURN(auto v2s, store.BinaryColumn(et, p, 4));
            TG_ASSIGN_OR_RETURN(auto histories, store.BinaryColumn(et, p, 5));
            out->reserve(eids.size());
            PropsRunCache cache;
            EndpointBlobMemo endpoints(clip);
            for (size_t i = 0; i < eids.size(); ++i) {
              size_t pos = 0;
              TG_ASSIGN_OR_RETURN(
                  History history,
                  DeserializeHistory(histories.Value(i), &pos, &cache));
              history = ClipHistory(std::move(history), clip);
              if (history.empty()) continue;
              TG_ASSIGN_OR_RETURN(OgVertex v1, endpoints.Decode(v1s.Value(i)));
              TG_ASSIGN_OR_RETURN(OgVertex v2, endpoints.Decode(v2s.Value(i)));
              out->push_back(OgEdge{eids[i], std::move(v1), std::move(v2),
                                    std::move(history)});
            }
            return Status::OK();
          })));
  RecordLoadScan(/*new_load=*/false, total, scanned);
  if (metrics != nullptr) {
    metrics->edge_groups_total = total;
    metrics->edge_groups_scanned = scanned;
  }
  return OgGraph(DatasetFromStoreParts(ctx, std::move(vertex_parts)),
                 DatasetFromStoreParts(ctx, std::move(edge_parts)), clip);
}

Result<OgcGraph> LoadOgcGraphFromStore(dataflow::ExecutionContext* ctx,
                                       const StoreReader& store,
                                       const LoadOptions& options,
                                       LoadMetrics* metrics) {
  TG_ASSIGN_OR_RETURN(int it, RequireStoreTable(store, "ogc_index"));
  TG_ASSIGN_OR_RETURN(int vt, RequireStoreTable(store, "ogc_vertices"));
  TG_ASSIGN_OR_RETURN(int et, RequireStoreTable(store, "ogc_edges"));
  TG_ASSIGN_OR_RETURN(Interval lifetime, StoreLifetime(store));

  // The interval index is small and always needed in full.
  std::vector<Interval> full_index;
  for (size_t p = 0; p < store.table(it).partitions.size(); ++p) {
    TG_ASSIGN_OR_RETURN(auto starts, store.Int64Column(it, p, 0));
    TG_ASSIGN_OR_RETURN(auto ends, store.Int64Column(it, p, 1));
    for (size_t i = 0; i < starts.size(); ++i) {
      full_index.push_back(Interval(starts[i], ends[i]));
    }
  }

  Interval clip = lifetime;
  Predicate predicate;
  const Predicate* predicate_ptr = nullptr;
  // Index entries kept after the range filter, with their original slots.
  std::vector<size_t> kept;
  std::vector<Interval> index;
  for (size_t i = 0; i < full_index.size(); ++i) {
    if (!options.time_range.has_value() ||
        full_index[i].Overlaps(*options.time_range)) {
      kept.push_back(i);
      index.push_back(options.time_range.has_value()
                          ? full_index[i].Intersect(*options.time_range)
                          : full_index[i]);
    }
  }
  if (options.time_range.has_value()) {
    clip = options.time_range->Intersect(lifetime);
    predicate = Predicate::IntervalOverlaps("first", "last", clip);
    if (options.pushdown) predicate_ptr = &predicate;
  }

  auto slice_bits = [&kept](const Bitset& bits) {
    Bitset sliced(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) {
      if (kept[i] < bits.size() && bits.Test(kept[i])) sliced.Set(i);
    }
    return sliced;
  };

  size_t total = 0, scanned = 0;
  TG_ASSIGN_OR_RETURN(
      dataflow::Partitions<OgcVertex> vertex_parts,
      (ScanStoreTable<OgcVertex>(
          ctx, store, vt, predicate_ptr, &total, &scanned,
          [&](size_t p, std::vector<OgcVertex>* out) -> Status {
            TG_ASSIGN_OR_RETURN(auto vids, store.Int64Column(vt, p, 0));
            TG_ASSIGN_OR_RETURN(auto types, store.BinaryColumn(vt, p, 3));
            TG_ASSIGN_OR_RETURN(auto bits, store.BinaryColumn(vt, p, 4));
            out->reserve(vids.size());
            for (size_t i = 0; i < vids.size(); ++i) {
              size_t pos = 0;
              TG_ASSIGN_OR_RETURN(Bitset presence,
                                  DeserializeBitset(bits.Value(i), &pos));
              Bitset sliced = slice_bits(presence);
              if (sliced.None()) continue;
              out->push_back(OgcVertex{vids[i],
                                       std::string(types.Value(i)),
                                       std::move(sliced)});
            }
            return Status::OK();
          })));
  RecordLoadScan(/*new_load=*/true, total, scanned);
  if (metrics != nullptr) {
    metrics->vertex_groups_total = total;
    metrics->vertex_groups_scanned = scanned;
  }

  TG_ASSIGN_OR_RETURN(
      dataflow::Partitions<OgcEdge> edge_parts,
      (ScanStoreTable<OgcEdge>(
          ctx, store, et, predicate_ptr, &total, &scanned,
          [&](size_t p, std::vector<OgcEdge>* out) -> Status {
            TG_ASSIGN_OR_RETURN(auto eids, store.Int64Column(et, p, 0));
            TG_ASSIGN_OR_RETURN(auto types, store.BinaryColumn(et, p, 3));
            TG_ASSIGN_OR_RETURN(auto v1s, store.BinaryColumn(et, p, 4));
            TG_ASSIGN_OR_RETURN(auto v2s, store.BinaryColumn(et, p, 5));
            TG_ASSIGN_OR_RETURN(auto bits, store.BinaryColumn(et, p, 6));
            out->reserve(eids.size());
            for (size_t i = 0; i < eids.size(); ++i) {
              size_t pos = 0;
              TG_ASSIGN_OR_RETURN(Bitset presence,
                                  DeserializeBitset(bits.Value(i), &pos));
              Bitset sliced = slice_bits(presence);
              if (sliced.None()) continue;
              pos = 0;
              TG_ASSIGN_OR_RETURN(OgcVertex v1,
                                  DeserializeOgcVertex(v1s.Value(i), &pos));
              pos = 0;
              TG_ASSIGN_OR_RETURN(OgcVertex v2,
                                  DeserializeOgcVertex(v2s.Value(i), &pos));
              v1.presence = slice_bits(v1.presence);
              v2.presence = slice_bits(v2.presence);
              out->push_back(OgcEdge{eids[i], std::string(types.Value(i)),
                                     std::move(v1), std::move(v2),
                                     std::move(sliced)});
            }
            return Status::OK();
          })));
  RecordLoadScan(/*new_load=*/false, total, scanned);
  if (metrics != nullptr) {
    metrics->edge_groups_total = total;
    metrics->edge_groups_scanned = scanned;
  }
  return OgcGraph(std::move(index),
                  DatasetFromStoreParts(ctx, std::move(vertex_parts)),
                  DatasetFromStoreParts(ctx, std::move(edge_parts)), clip);
}

}  // namespace tgraph::storage
