// serve-zoom: read-only tgraphd traffic over resident stores. Four
// closed-loop clients send seeded streams of TQL zoom scripts; three
// requests in four bypass the result cache and execute, the fourth repeats
// a small hot set the cache answers. Storage does no work once the
// catalog is warm, while tql, server and the result cache sit in every
// request. Four clients, not one: a single client's latency swings with
// thread wake-ups.

#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "dataflow/context.h"
#include "gen/generators.h"
#include "gen/stats.h"
#include "obs/metrics.h"
#include "oracles.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/graph_io.h"
#include "streams.h"
#include "tql/canonical.h"
#include "tql/interpreter.h"
#include "tql/parser.h"
#include "workloads.h"

namespace tgraph::perfbench {
namespace {

namespace fs = std::filesystem;
namespace mn = obs::metric_names;

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;
constexpr int kClients = 4;
/// Dataset size relative to bench/bench_util.h.
constexpr double kScale = 0.25;
/// Upper bound on requests per client in one window.
constexpr size_t kMaxRequests = 1 << 16;

struct Sample {
  double latency_ms = 0;
  bool hit = false;
  bool no_cache = false;
  bool traced = false;
  size_t script = 0;
};

}  // namespace

void RunServeZoom(const Args& args, Report* report) {
  dataflow::ExecutionContext ctx;
  const std::string root =
      fs::absolute(args.work_dir + "/serve-zoom").string();
  const std::string snb_dir = root + "/snb_ve";
  const std::string wiki_dir = root + "/wikitalk_ve";
  const gen::SnbConfig snb_config = SnbConfig(args.seed, kScale);
  const gen::WikiTalkConfig wiki_config = WikiTalkConfig(args.seed, kScale);
  const ScriptSet scripts =
      ServeZoomScripts(snb_dir, wiki_dir, snb_config.num_months,
                       wiki_config.num_months);

  // Set-up, several times: generate, write the VE stores, start tgraphd
  // and warm its catalog. The last repetition's server is measured.
  std::unique_ptr<server::Server> server;
  WindowResult window;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server != nullptr) server->Drain();
    server.reset();
    fs::remove_all(root);
    double start = NowMs();
    fs::create_directories(snb_dir);
    fs::create_directories(wiki_dir);
    VeGraph snb = gen::GenerateSnb(&ctx, snb_config);
    VeGraph wiki = gen::GenerateWikiTalk(&ctx, wiki_config);
    TG_CHECK_OK(storage::WriteVeStore(snb, snb_dir));
    TG_CHECK_OK(storage::WriteVeStore(wiki, wiki_dir));

    server::ServerOptions options;
    options.port = 0;
    server = std::make_unique<server::Server>(&ctx, options);
    TG_CHECK_OK(server->Start());
    server::Client warm;
    TG_CHECK_OK(warm.Connect("127.0.0.1", server->port()));
    for (const std::string& dir : {snb_dir, wiki_dir}) {
      TG_CHECK_OK(warm.Query("LOAD '" + dir + "' AS g;\nINFO g;",
                             /*no_cache=*/true)
                      .status());
    }
    window.setup_ms.push_back(NowMs() - start);
    if (rep == 0) {
      report->Note("serve-zoom SNB: " + gen::ComputeStats(snb).ToString());
      report->Note("serve-zoom WikiTalk: " +
                   gen::ComputeStats(wiki).ToString());
    }
  }

  // Oracle: every body the server returns must equal what an in-process
  // interpreter produces for the same script. Each script is also sent
  // once before the window (hot ones fill the cache).
  std::vector<std::string> expected_miss, expected_hot;
  {
    server::Client client;
    TG_CHECK_OK(client.Connect("127.0.0.1", server->port()));
    auto expect = [&](const std::string& script, bool hot,
                      std::vector<std::string>* out) {
      tql::Interpreter interpreter(&ctx);
      Result<std::string> body = interpreter.ExecuteScript(script);
      report->Attempted();
      if (!body.ok()) {
        report->FailedOp("interpreter: " + body.status().ToString());
        out->push_back("");
        return;
      }
      out->push_back(*body);
      Result<server::Response> response = client.Query(script, !hot);
      Status check = response.ok() ? CheckBody(*body, response->body)
                                   : response.status();
      if (!check.ok()) report->FailedOp("warm-up: " + check.ToString());
    };
    for (const std::string& s : scripts.miss) expect(s, false, &expected_miss);
    for (const std::string& s : scripts.hot) expect(s, true, &expected_hot);
  }

  // Timed window.
  SpanLog log(args.trace);
  std::vector<std::vector<Sample>> samples(kClients);
  const int port = server->port();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  RssSampler rss;
  const double cpu_start = ProcessCpuMs();
  const double start = NowMs();
  const double end = start + args.seconds * 1e3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto fail = [&](const std::string& what) {
        report->FailedOp("client " + std::to_string(c) + ": " + what);
      };
      server::Client client;
      Status connected = client.Connect("127.0.0.1", port);
      if (!connected.ok()) {
        report->Attempted();
        fail(connected.ToString());
        return;
      }
      std::vector<ScriptRequest> stream =
          ServeZoomRequests(args.seed, c, kMaxRequests, scripts);
      for (size_t i = 0; i < stream.size() && NowMs() < end; ++i) {
        const ScriptRequest& request = stream[i];
        const std::string& script = request.hot ? scripts.hot[request.script]
                                                : scripts.miss[request.script];
        const std::string& expected = request.hot
                                          ? expected_hot[request.script]
                                          : expected_miss[request.script];
        // In a traced run every other round of four requests is traced,
        // so traced and untraced latencies come from the same mix.
        const bool traced = args.trace && (i / 4) % 2 == 1;
        const uint64_t op = (static_cast<uint64_t>(c) << 32) | (i + 1);
        report->Attempted();
        std::optional<Result<server::Response>> response;
        uint64_t rtt_id = 0;
        double t0 = NowMs();
        {
          ScopedSpan root(traced ? &log : nullptr, op, 0, "bench", c);
          ScopedSpan rtt(traced ? &log : nullptr, op, root.id(), "client", c);
          rtt_id = rtt.id();
          response.emplace(
              client.Query(script, /*no_cache=*/!request.hot, traced));
        }
        double t1 = NowMs();
        if (traced && response->ok()) {
          AddProgramTrace(&log, op, rtt_id, c, (*response)->trace);
        }
        Status check = response->ok()
                           ? CheckBody(expected, (*response)->body)
                           : response->status();
        if (!check.ok()) {
          fail(check.ToString());
          continue;
        }
        samples[c].push_back(Sample{t1 - t0, (*response)->cache_hit(),
                                    !request.hot, traced, request.script});
      }
    });
  }
  for (std::thread& t : clients) t.join();
  window.elapsed_ms = NowMs() - start;
  window.cpu_ms = ProcessCpuMs() - cpu_start;
  window.rss_p90_mb = rss.StopP90Mb();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  server->Drain();

  std::vector<double> hit, miss;
  // Round trips of every no-cache request, traced ones too: the same
  // requests the server's uncached-query histogram counts.
  double no_cache_rtt_sum = 0;
  int64_t no_cache_count = 0;
  std::vector<std::vector<double>> per_script(scripts.miss.size());
  for (const auto& per_client : samples) {
    for (const Sample& s : per_client) {
      if (s.no_cache) {
        no_cache_rtt_sum += s.latency_ms;
        ++no_cache_count;
      }
      if (s.traced) {
        window.traced_latency_ms.push_back(s.latency_ms);
        continue;
      }
      window.latency_ms.push_back(s.latency_ms);
      (s.hit ? hit : miss).push_back(s.latency_ms);
      if (!s.hit) per_script[s.script].push_back(s.latency_ms);
    }
  }
  for (size_t i = 0; i < per_script.size(); ++i) {
    report->Note("serve-zoom miss script " + std::to_string(i) + ": p50 " +
                 std::to_string(Median(per_script[i])) + " ms over " +
                 std::to_string(per_script[i].size()));
  }
  const int64_t catalog_loads = CounterDelta(before, after, mn::kCatalogLoads);
  if (catalog_loads != 0) {
    report->Fail("catalog loaded " + std::to_string(catalog_loads) +
                 " graphs in the timed window");
  }

  window.store_bytes = DirBytes(snb_dir) + DirBytes(wiki_dir);
  ReportWindow(args, window, log, report);
  report->Add("server.hit_ms", Median(hit), "ms");
  report->Add("server.miss_ms", Median(miss), "ms");
  // Mean server-side time against mean round trip over the same no-cache
  // requests; their difference is queueing plus wire time.
  const obs::HistogramSnapshot uncached =
      HistogramDelta(before, after, mn::kQueryUncachedMicros);
  if (uncached.count != no_cache_count) {
    report->Fail("server counted " + std::to_string(uncached.count) +
                 " no-cache queries, the clients " +
                 std::to_string(no_cache_count));
  }
  report->Add("server.exec_ms", uncached.Mean() / 1e3, "ms");
  report->Add("server.no_cache_rtt_ms",
              no_cache_count > 0
                  ? no_cache_rtt_sum / static_cast<double>(no_cache_count)
                  : 0,
              "ms");
  report->Add("server.cache_hit_ratio",
              static_cast<double>(hit.size()) /
                  static_cast<double>(hit.size() + miss.size()),
              "ratio");
  report->Add("server.catalog_loads", static_cast<double>(catalog_loads),
              "count");
  report->Add("server.rejected",
              static_cast<double>(CounterDelta(before, after,
                                               mn::kServerRejected)),
              "count");
  report->Add("server.errors",
              static_cast<double>(CounterDelta(before, after,
                                               mn::kServerErrors)),
              "count");
  const double misses = static_cast<double>(
      CounterDelta(before, after, mn::kQueryCount) -
      CounterDelta(before, after, mn::kCacheHits));
  report->Add("dataflow.stages_per_miss",
              static_cast<double>(CounterDelta(before, after, mn::kStages)) /
                  misses,
              "count");
  report->Add("dataflow.shuffle_mb_per_miss",
              static_cast<double>(
                  CounterDelta(before, after, mn::kShuffleBytes)) /
                  1e6 / misses,
              "MB");
  report->Add("dataflow.cpu_util",
              window.cpu_ms / (window.elapsed_ms *
                               static_cast<double>(ctx.num_workers())),
              "ratio");
  if (!args.trace) return;

  // TQL front end, timed directly on the same scripts.
  std::vector<double> parse_us, canonical_us;
  for (int round = 0; round < 20; ++round) {
    for (const std::string& script : scripts.miss) {
      double t0 = NowMs();
      bool parsed = tql::Parse(script).ok();
      double t1 = NowMs();
      bool canonical = tql::CanonicalizeScript(script).ok();
      double t2 = NowMs();
      if (!parsed || !canonical) report->Fail("tql rejected " + script);
      parse_us.push_back((t1 - t0) * 1e3);
      canonical_us.push_back((t2 - t1) * 1e3);
    }
  }
  report->Add("tql.parse_us", Median(parse_us), "us");
  report->Add("tql.canonicalize_us", Median(canonical_us), "us");
}

}  // namespace tgraph::perfbench
