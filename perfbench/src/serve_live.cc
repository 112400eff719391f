// serve-live: writes beside reads on a live graph. One open-loop writer
// sends fixed-size ingest batches on a fixed schedule while three
// closed-loop readers query the graph (three no-cache zooms per VIEW
// read). tgraphd keeps its defaults: the WAL is fdatasync'd per batch,
// the compactor folds the delta at 4096 events, and a registered view
// refreshes synchronously before each ack. ingest and views do most of
// the work here and none in the other two workloads.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "dataflow/context.h"
#include "ingest/delta.h"
#include "ingest/live_graph.h"
#include "obs/metrics.h"
#include "oracles.h"
#include "server/client.h"
#include "server/server.h"
#include "streams.h"
#include "tgraph/builder.h"
#include "tql/parser.h"
#include "tql/pipeline_build.h"
#include "workloads.h"

namespace tgraph::perfbench {
namespace {

namespace fs = std::filesystem;
namespace mn = obs::metric_names;

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;
constexpr int kReaders = 3;
/// Writer rate: about half the rate at which ack latency starts to climb
/// on a 4-core machine (README.md, "serve-live writer rate"). To
/// recalibrate, edit this and rerun the sweep described there.
constexpr double kWriterBatchesPerSecond = 3;
constexpr char kView[] = "tiers";
/// Upper bound on requests per reader in one window.
constexpr size_t kMaxRequests = 1 << 16;

/// Offline reference: one builder over every acknowledged event.
Result<VeGraph> OfflineBuild(dataflow::ExecutionContext* ctx,
                             const LiveStream& stream, size_t acked_batches,
                             TimePoint horizon) {
  TGraphBuilder builder(ctx);
  for (const auto& batch : stream.prefix) {
    for (const ingest::Event& e : batch) {
      ingest::ApplyEventToBuilder(e, &builder);
    }
  }
  for (size_t b = 0; b < acked_batches; ++b) {
    for (const ingest::Event& e : stream.batches[b]) {
      ingest::ApplyEventToBuilder(e, &builder);
    }
  }
  return builder.Finish(horizon);
}

struct ReadSample {
  double latency_ms = 0;
  int script = -1;  ///< -1: a VIEW read
  bool view = false;
  bool traced = false;
  int64_t delta_events = 0;
};

}  // namespace

void RunServeLive(const Args& args, Report* report) {
  dataflow::ExecutionContext ctx;
  const std::string root = fs::absolute(args.work_dir + "/serve-live").string();
  const std::string dir = root + "/live";
  LiveStreamConfig config;
  config.batches = static_cast<int64_t>(
      std::ceil(args.seconds * kWriterBatchesPerSecond));
  const LiveStream stream = MakeLiveStream(args.seed, config);
  const TimePoint horizon = stream.last_time + 1;
  const std::vector<std::string> scripts = LiveReadScripts(dir, horizon);

  // Set-up, several times: ingest and compact the stream's prefix, start
  // tgraphd over it, register the view and warm one read of each kind.
  std::unique_ptr<server::Server> server;
  WindowResult window;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server != nullptr) server->Drain();
    server.reset();
    fs::remove_all(root);
    fs::create_directories(root);
    double start = NowMs();
    {
      ingest::LiveGraph::Options options;
      options.horizon = horizon;
      options.delta_events_threshold = 0;
      auto live = ingest::LiveGraph::Open(&ctx, dir, options);
      TG_CHECK_OK(live.status());
      for (const auto& batch : stream.prefix) {
        TG_CHECK_OK((*live)->Append(batch).status());
      }
      TG_CHECK_OK((*live)->Compact());
      TG_CHECK_OK((*live)->Close());
    }
    server::ServerOptions options;
    options.port = 0;
    server = std::make_unique<server::Server>(&ctx, options);
    TG_CHECK_OK(server->Start());
    server::Client client;
    TG_CHECK_OK(client.Connect("127.0.0.1", server->port()));
    TG_CHECK_OK(client.Query(LiveViewDdl(kView, dir)).status());
    for (const std::string& script : scripts) {
      TG_CHECK_OK(client.Query(script, /*no_cache=*/true).status());
    }
    TG_CHECK_OK(client.View(kView).status());
    window.setup_ms.push_back(NowMs() - start);
  }

  // Timed window.
  SpanLog log(args.trace);
  const int port = server->port();
  const double interval_ms = 1e3 / kWriterBatchesPerSecond;
  obs::Gauge* delta_gauge =
      obs::MetricsRegistry::Global().GetGauge(mn::kIngestDeltaEvents);
  std::vector<std::vector<ReadSample>> reads(kReaders);
  std::vector<OpenLoopSample> writes;
  std::atomic<size_t> acked{0};  // leading batches acknowledged

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  RssSampler rss;
  const double cpu_start = ProcessCpuMs();
  const double start = NowMs();
  const double end = start + args.seconds * 1e3;
  std::thread writer([&] {
    server::Client client;
    Status connected = client.Connect("127.0.0.1", port);
    if (!connected.ok()) {
      report->Attempted();
      report->FailedOp("writer: " + connected.ToString());
      return;
    }
    bool in_order = true;
    writes = RunOpenLoop(
        start, interval_ms, stream.batches.size(), [&](size_t k) {
          report->Attempted();
          Result<server::Response> response =
              client.Ingest(dir, stream.batches[k], horizon);
          if (!response.ok()) {
            in_order = false;
            report->FailedOp("ingest batch " + std::to_string(k) + ": " +
                             response.status().ToString());
            return;
          }
          if (in_order) acked.store(k + 1);
        });
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      server::Client client;
      Status connected = client.Connect("127.0.0.1", port);
      if (!connected.ok()) {
        report->Attempted();
        report->FailedOp("reader: " + connected.ToString());
        return;
      }
      std::vector<int> requests =
          LiveReadRequests(args.seed, r, kMaxRequests, scripts.size());
      for (size_t i = 0; i < requests.size() && NowMs() < end; ++i) {
        const bool view = requests[i] < 0;
        const bool traced = args.trace && (i / 4) % 2 == 1;
        const uint64_t op = (static_cast<uint64_t>(r + 1) << 32) | (i + 1);
        ReadSample sample;
        sample.view = view;
        sample.script = requests[i];
        sample.traced = traced;
        sample.delta_events = delta_gauge->value();
        report->Attempted();
        std::optional<Result<server::Response>> response;
        uint64_t rtt_id = 0;
        double t0 = NowMs();
        {
          ScopedSpan span(traced ? &log : nullptr, op, 0, "bench", r);
          ScopedSpan rtt(traced ? &log : nullptr, op, span.id(), "client", r);
          rtt_id = rtt.id();
          response.emplace(view ? client.View(kView)
                                : client.Query(scripts[requests[i]],
                                               /*no_cache=*/true, traced));
        }
        sample.latency_ms = NowMs() - t0;
        if (!response->ok()) {
          report->FailedOp("read: " + response->status().ToString());
          continue;
        }
        if (traced && !view) {
          AddProgramTrace(&log, op, rtt_id, r, (*response)->trace);
        }
        const std::string& body = (*response)->body;
        // Live results change with every epoch; the content is checked
        // once the writer is done. Here: the expected kind of answer.
        if (view ? body.rfind("view ", 0) != 0
                 : body.find("\nz [") == std::string::npos) {
          report->FailedOp("read: unexpected body '" + body.substr(0, 80) +
                           "'");
          continue;
        }
        reads[r].push_back(sample);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  writer.join();
  window.elapsed_ms = NowMs() - start;
  window.cpu_ms = ProcessCpuMs() - cpu_start;
  window.rss_p90_mb = rss.StopP90Mb();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();

  // Oracles: the view after the last ack equals the same zoom recomputed
  // offline, and the graph reopened after Drain equals an offline build of
  // every acknowledged event.
  Result<VeGraph> offline = OfflineBuild(&ctx, stream, acked.load(), horizon);
  report->Attempted();
  if (!offline.ok()) {
    report->FailedOp("offline build: " + offline.status().ToString());
  } else {
    server::Client client;
    Result<server::Response> view = client.Connect("127.0.0.1", port).ok()
                                        ? client.View(kView)
                                        : Status::IoError("connect failed");
    Result<std::vector<tql::Statement>> ddl =
        tql::Parse(LiveViewDdl(kView, dir));
    Status check = view.status();
    if (check.ok() && ddl.ok()) {
      const auto& create = std::get<tql::CreateViewStatement>(ddl->front());
      Result<Pipeline> pipeline = tql::BuildViewPipeline(create.stages);
      Result<TGraph> zoomed =
          pipeline.ok() ? pipeline->Run(TGraph::FromVe(*offline, true))
                        : Result<TGraph>(pipeline.status());
      check = zoomed.ok() ? CheckViewBody(*zoomed, view->body)
                          : zoomed.status();
    }
    if (!check.ok()) report->FailedOp("view oracle: " + check.ToString());
  }
  server->Drain();
  uint64_t generation_bytes = 0;
  {
    ingest::LiveGraph::Options options;
    options.horizon = horizon;
    options.delta_events_threshold = 0;
    auto live = ingest::LiveGraph::Open(&ctx, dir, options);
    report->Attempted();
    Status check = live.status();
    if (check.ok() && offline.ok()) {
      Result<const VeGraph*> graph = (*live)->snapshot()->Graph();
      check = graph.ok()
                  ? CheckLiveEqualsOffline(TGraph::FromVe(*offline, true),
                                           TGraph::FromVe(**graph, true))
                  : graph.status();
    }
    if (check.ok()) check = (*live)->Compact();
    if (check.ok()) check = (*live)->Close();
    if (!check.ok()) report->FailedOp("live oracle: " + check.ToString());
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".tgs") {
        generation_bytes += entry.file_size();
      }
    }
  }
  std::vector<double> zoom_reads, view_reads;
  std::vector<double> delta_events;
  std::vector<std::vector<double>> per_script(scripts.size());
  for (const auto& per_reader : reads) {
    for (const ReadSample& s : per_reader) {
      delta_events.push_back(static_cast<double>(s.delta_events));
      if (s.traced) {
        window.traced_latency_ms.push_back(s.latency_ms);
        continue;
      }
      window.latency_ms.push_back(s.latency_ms);
      (s.view ? view_reads : zoom_reads).push_back(s.latency_ms);
      if (!s.view) per_script[s.script].push_back(s.latency_ms);
    }
  }
  for (size_t i = 0; i < per_script.size(); ++i) {
    report->Note("serve-live read script " + std::to_string(i) + ": p50 " +
                 std::to_string(Median(per_script[i])) + " ms over " +
                 std::to_string(per_script[i].size()));
  }
  std::vector<double> write_latency, append, lateness;
  for (const OpenLoopSample& w : writes) {
    write_latency.push_back(w.latency_ms());
    append.push_back(w.done_ms - w.sent_ms);
    lateness.push_back(w.lateness_ms());
  }
  const double lateness_max = CheckOnSchedule(writes, interval_ms, report);
  // End-to-end metrics cover the reads only.
  window.store_bytes = DirBytes(dir);
  ReportWindow(args, window, log, report);

  report->Add("write_p50_ms", Median(write_latency), "ms");
  report->AddPercentile("write_p80_ms", write_latency, 0.80, true);
  report->Add("ingest.append_ms", Median(append), "ms");
  report->Add("gen.lateness_p50_ms", Median(lateness), "ms");
  report->Add("gen.lateness_max_ms", lateness_max, "ms");
  report->Note("serve-live prefix: " + std::to_string(config.prefix_events) +
               " events, compacted in set-up; horizon " +
               std::to_string(horizon));
  report->Note("serve-live writer: " + std::to_string(writes.size()) +
               " batches of " + std::to_string(config.batch_events) +
               " events at " + std::to_string(kWriterBatchesPerSecond) +
               " batches/s (every " + std::to_string(interval_ms) + " ms)");
  const int64_t events = CounterDelta(before, after, mn::kIngestEvents);
  report->Add("ingest.wal_bytes_per_event",
              events > 0 ? static_cast<double>(CounterDelta(
                               before, after, mn::kIngestWalBytes)) /
                               static_cast<double>(events)
                         : 0,
              "B");
  report->Add("ingest.compactions",
              static_cast<double>(
                  CounterDelta(before, after, mn::kIngestCompactions)),
              "count");
  report->Add(
      "ingest.compaction_ms",
      HistogramDelta(before, after, mn::kIngestCompactionMicros).Mean() / 1e3,
      "ms");
  report->Add("ingest.delta_events", Median(delta_events), "count");
  report->Add("server.live_read_ms", Median(zoom_reads), "ms");
  report->Add("views.read_ms", Median(view_reads), "ms");
  report->Add("views.refreshes",
              static_cast<double>(
                  CounterDelta(before, after, mn::kViewRefreshes)),
              "count");
  report->Add("views.applied_deltas",
              static_cast<double>(
                  CounterDelta(before, after, mn::kViewAppliedDeltas)),
              "count");
  report->Add("views.full_rebuilds",
              static_cast<double>(
                  CounterDelta(before, after, mn::kViewFullRebuilds)),
              "count");
  report->Add("views.apply_ms",
              HistogramDelta(before, after, mn::kViewApplyMicros).Mean() / 1e3,
              "ms");
  obs::HistogramSnapshot staleness =
      HistogramDelta(before, after, mn::kViewStalenessMicros);
  report->Add("views.staleness_p50_ms",
              static_cast<double>(staleness.ApproxPercentile(0.5)) / 1e3,
              "ms");
  report->Add("views.staleness_p99_ms",
              static_cast<double>(staleness.ApproxPercentile(0.99)) / 1e3,
              "ms");
  report->Add("storage.generation_mb",
              static_cast<double>(generation_bytes) / 1e6, "MB");
  report->Add("dataflow.cpu_util",
              window.cpu_ms / (window.elapsed_ms *
                               static_cast<double>(ctx.num_workers())),
              "ratio");
}

}  // namespace tgraph::perfbench
