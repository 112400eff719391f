// zoom-batch: one closed-loop caller runs the paper's zoom queries from
// stores on disk to materialized results (Figures 10/14/16/17 at the
// scale of bench/bench_util.h). tgraph and dataflow do about two thirds
// of each operation and storage the rest, so this is where changes to
// the zoom operators, the dataflow engine and the store reader show.

#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "dataflow/context.h"
#include "gen/generators.h"
#include "gen/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracles.h"
#include "storage/graph_io.h"
#include "storage/store_reader.h"
#include "streams.h"
#include "tgraph/pipeline.h"
#include "workloads.h"

namespace tgraph::perfbench {
namespace {

namespace fs = std::filesystem;
namespace mn = obs::metric_names;

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;
constexpr int kClasses = 5;
/// Dataset size relative to bench/bench_util.h: small enough that one
/// caller completes well over 200 queries (the p95 floor) in a 20 s
/// window.
constexpr double kScale = 0.125;

/// The five query classes, rotated in order. Odd, so that p50 falls inside
/// one class rather than between two.
enum Class { kAZoomOg, kAZoomVe, kWZoomOgc, kWZoomOg, kChainVe };
const char* const kClassMetric[kClasses] = {
    "tgraph.azoom_og_ms", "tgraph.azoom_ve_ms", "tgraph.wzoom_ogc_ms",
    "tgraph.wzoom_og_ms", "tgraph.chain_ve_ms"};

AZoomSpec WikiTalkAZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("name");
  spec.aggregator =
      MakeAggregator("account", "name", {{"entities", AggKind::kCount, ""}});
  return spec;
}

AZoomSpec SnbAZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("firstName");
  spec.aggregator = MakeAggregator("cohort", "firstName",
                                   {{"people", AggKind::kCount, ""}});
  return spec;
}

WZoomSpec Windows(int64_t n, Quantifier q) {
  return WZoomSpec{WindowSpec::TimePoints(n), q, q, {}, {}};
}

/// The in-memory graphs set-up generates; kept only for the set-up
/// oracle of the last repetition.
struct Sources {
  VeGraph wiki_ve, snb_ve, ngrams_ve;
  std::optional<TGraph> wiki_og, snb_og, ngrams_ogc;
};

struct Stores {
  std::string dir[kClasses];
  Interval chain_range;  ///< Ranged load of the chain class.
  uint64_t ve_bytes = 0, og_bytes = 0, ogc_bytes = 0;
};

struct SetupTimes {
  double generate_ms = 0, convert_ms = 0, write_ms = 0, total_ms = 0;
};

TGraph Converted(const VeGraph& ve, Representation rep) {
  Result<TGraph> out = TGraph::FromVe(ve, /*coalesced=*/true).As(rep);
  TG_CHECK(out.ok()) << out.status();
  out->Materialize();
  return *out;
}

/// Generates the three datasets, converts them, and writes the five
/// stores under `root`.
SetupTimes BuildStores(dataflow::ExecutionContext* ctx, uint64_t seed,
                       const std::string& root, Stores* stores,
                       Sources* sources) {
  SetupTimes times;
  double start = NowMs();
  Sources s;
  s.wiki_ve = gen::GenerateWikiTalk(ctx, WikiTalkConfig(seed, kScale));
  s.snb_ve = gen::GenerateSnb(ctx, SnbConfig(seed, kScale));
  s.ngrams_ve = gen::GenerateNGrams(ctx, NGramsConfig(seed, kScale));
  double generated = NowMs();
  s.wiki_og = Converted(s.wiki_ve, Representation::kOg);
  s.snb_og = Converted(s.snb_ve, Representation::kOg);
  s.ngrams_ogc = Converted(s.ngrams_ve, Representation::kOgc);
  double converted = NowMs();

  const char* names[kClasses] = {"wikitalk_og", "wikitalk_ve", "ngrams_ogc",
                                 "snb_og", "snb_ve"};
  for (int c = 0; c < kClasses; ++c) {
    stores->dir[c] = root + "/" + names[c];
    fs::create_directories(stores->dir[c]);
  }
  // Partitions shrink with the data, so a store holds about as many
  // partitions as at the figures' scale and zone-map pruning has
  // something to skip.
  storage::GraphWriteOptions options;
  options.row_group_size = static_cast<int64_t>(
      static_cast<double>(options.row_group_size) * kScale);
  TG_CHECK_OK(
      storage::WriteOgStore(s.wiki_og->og(), stores->dir[kAZoomOg], options));
  TG_CHECK_OK(
      storage::WriteVeStore(s.wiki_ve, stores->dir[kAZoomVe], options));
  TG_CHECK_OK(storage::WriteOgcStore(s.ngrams_ogc->ogc(),
                                     stores->dir[kWZoomOgc], options));
  TG_CHECK_OK(
      storage::WriteOgStore(s.snb_og->og(), stores->dir[kWZoomOg], options));
  // The chain's ranged load prunes by time, which needs rows sorted by
  // start (structural locality); temporal locality groups each entity's
  // history and prunes nothing.
  storage::GraphWriteOptions by_start = options;
  by_start.sort_order = storage::SortOrder::kStructuralLocality;
  TG_CHECK_OK(
      storage::WriteVeStore(s.snb_ve, stores->dir[kChainVe], by_start));
  double written = NowMs();

  // The first half of SNB's history: growth-only entities that join later
  // sit in partitions whose zone maps start after it, so pushdown prunes.
  Interval life = s.snb_ve.lifetime();
  stores->chain_range =
      Interval(life.start, life.start + (life.end - life.start) / 2);
  auto bytes = [&](int c) { return DirBytes(stores->dir[c]); };
  stores->ve_bytes = bytes(kAZoomVe) + bytes(kChainVe);
  stores->og_bytes = bytes(kAZoomOg) + bytes(kWZoomOg);
  stores->ogc_bytes = bytes(kWZoomOgc);
  if (sources != nullptr) *sources = std::move(s);

  times.generate_ms = generated - start;
  times.convert_ms = converted - generated;
  times.write_ms = written - converted;
  times.total_ms = written - start;
  return times;
}

Pipeline ClassPipeline(int cls, const Stores& stores) {
  Pipeline pipeline;
  switch (cls) {
    case kAZoomOg:
    case kAZoomVe:
      pipeline.AZoom(WikiTalkAZoom());
      break;
    case kWZoomOgc:
      pipeline.WZoom(Windows(10, Quantifier::Exists()));
      break;
    case kWZoomOg:
      pipeline.WZoom(Windows(3, Quantifier::Exists()));
      break;
    case kChainVe:
      pipeline.Slice(stores.chain_range)
          .AZoom(SnbAZoom())
          .WZoom(Windows(6, Quantifier::All()));
      break;
  }
  return pipeline;
}

/// One operation's layer timings and counters.
struct OpSample {
  double open_ms = 0, load_ms = 0, optimize_us = 0, plan_ms = 0,
         exec_ms = 0, total_ms = 0;
  int64_t records = 0;
  // Registry deltas (traced ops only).
  int64_t pruned = 0, decoded = 0, decoded_bytes = 0;
  int64_t stages = 0, tasks = 0, shuffle_records = 0, shuffle_bytes = 0;
  double exec_cpu_ms = 0;
};

/// Runs one query of class `cls`: open the store, load (the chain class
/// with a ranged, pushed-down load), optimize, plan, materialize.
Result<TGraph> RunOp(dataflow::ExecutionContext* ctx, int cls,
                     const Stores& stores, SpanLog* log, uint64_t op,
                     OpSample* sample) {
  const bool traced = log->enabled();
  std::optional<ScopedSpan> root;
  root.emplace(log, op, 0, "bench", 0);
  obs::MetricsSnapshot before;
  if (traced) before = obs::MetricsRegistry::Global().Snapshot();
  double t0 = NowMs();
  std::unique_ptr<storage::StoreReader> reader;
  {
    ScopedSpan span(log, op, root->id(), "storage", 0);
    auto opened =
        storage::StoreReader::Open(storage::StorePath(stores.dir[cls]));
    if (!opened.ok()) return opened.status();
    reader = std::move(*opened);
  }
  double t1 = NowMs();
  std::optional<TGraph> input;
  {
    ScopedSpan span(log, op, root->id(), "storage", 0);
    storage::LoadOptions options;
    if (cls == kChainVe) options.time_range = stores.chain_range;
    switch (cls) {
      case kAZoomOg:
      case kWZoomOg: {
        auto g = storage::LoadOgGraphFromStore(ctx, *reader, options);
        if (!g.ok()) return g.status();
        input = TGraph::FromOg(std::move(*g), /*coalesced=*/true);
        break;
      }
      case kAZoomVe:
      case kChainVe: {
        auto g = storage::LoadVeGraphFromStore(ctx, *reader, options);
        if (!g.ok()) return g.status();
        input = TGraph::FromVe(std::move(*g), /*coalesced=*/true);
        break;
      }
      case kWZoomOgc: {
        auto g = storage::LoadOgcGraphFromStore(ctx, *reader, options);
        if (!g.ok()) return g.status();
        input = TGraph::FromOgc(std::move(*g));
        break;
      }
    }
  }
  double t2 = NowMs();
  obs::MetricsSnapshot loaded;
  if (traced) loaded = obs::MetricsRegistry::Global().Snapshot();
  double t3 = NowMs();
  Pipeline optimized;
  {
    ScopedSpan span(log, op, root->id(), "opt", 0);
    optimized = ClassPipeline(cls, stores).Optimized();
  }
  double t4 = NowMs();
  std::optional<TGraph> result;
  {
    ScopedSpan span(log, op, root->id(), "tgraph", 0);
    auto planned = optimized.Run(*input);
    if (!planned.ok()) return planned.status();
    result = std::move(*planned);
  }
  double t5 = NowMs();
  double cpu0 = traced ? ProcessCpuMs() : 0;
  uint64_t exec_span = 0;
  {
    // In a traced op the program's own tracer runs during Materialize, so
    // the dataflow stages and tasks inside it show up as its children.
    ScopedSpan span(log, op, root->id(), "tgraph", 0);
    exec_span = span.id();
    if (traced) obs::Tracer::Global().Enable();
    sample->records = result->Materialize();
    if (traced) obs::Tracer::Global().Disable();
  }
  double t6 = NowMs();
  // Before the trace export and the snapshot, so the CPU is Materialize's.
  if (traced) sample->exec_cpu_ms = ProcessCpuMs() - cpu0;
  root.reset();
  if (traced) {
    AddProgramTrace(log, op, exec_span, 0,
                    obs::Tracer::Global().ToChromeTraceJson());
    obs::Tracer::Global().Clear();
    obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
    sample->pruned = CounterDelta(before, loaded, mn::kStorePartitionsPruned);
    sample->decoded =
        CounterDelta(before, loaded, mn::kStorePartitionsDecoded);
    sample->decoded_bytes =
        CounterDelta(before, loaded, mn::kStoreDecodedBytes);
    sample->stages = CounterDelta(loaded, after, mn::kStages);
    sample->tasks = CounterDelta(loaded, after, mn::kTasks);
    sample->shuffle_records = CounterDelta(loaded, after, mn::kShuffleRecords);
    sample->shuffle_bytes = CounterDelta(loaded, after, mn::kShuffleBytes);
  }
  sample->open_ms = t1 - t0;
  sample->load_ms = t2 - t1;
  sample->optimize_us = (t4 - t3) * 1e3;
  sample->plan_ms = t5 - t4;
  sample->exec_ms = t6 - t5;
  sample->total_ms = t6 - t0;
  return std::move(*result);
}

/// Reference result of class `cls` from the in-memory graphs, in a
/// different representation than the store the class loads.
Result<TGraph> Reference(int cls, const Stores& stores, const Sources& s) {
  Pipeline pipeline = ClassPipeline(cls, stores);
  switch (cls) {
    case kAZoomOg:
      return pipeline.Run(TGraph::FromVe(s.wiki_ve, true));
    case kAZoomVe:
      return pipeline.Run(*s.wiki_og);
    case kWZoomOgc:
      return pipeline.Convert(Representation::kOgc)
          .Run(TGraph::FromVe(s.ngrams_ve, true));
    case kWZoomOg:
      return pipeline.Run(TGraph::FromVe(s.snb_ve, true));
    case kChainVe:
      return pipeline.Run(*s.snb_og);
  }
  return Status::Internal("unknown class");
}

}  // namespace

void RunZoomBatch(const Args& args, Report* report) {
  dataflow::ExecutionContext ctx;  // default pool: one worker per core
  const std::string root = args.work_dir + "/zoom-batch";

  // Set-up, several times; the last repetition's stores are used.
  WindowResult window;
  std::vector<double> generate_ms, convert_ms, write_ms;
  Stores stores;
  Sources sources;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fs::remove_all(root);
    bool last = rep + 1 == kSetupReps;
    SetupTimes t = BuildStores(&ctx, args.seed, root, &stores,
                               last ? &sources : nullptr);
    window.setup_ms.push_back(t.total_ms);
    generate_ms.push_back(t.generate_ms);
    convert_ms.push_back(t.convert_ms);
    write_ms.push_back(t.write_ms);
  }

  // Set-up oracle: each class's canonical result from its store must equal
  // the same pipeline on another representation in memory. The store
  // result's record count and fingerprint become the expectations.
  SpanLog untraced(false);
  int64_t expected_records[kClasses];
  uint64_t expected_fp[kClasses];
  for (int c = 0; c < kClasses; ++c) {
    OpSample sample;
    Result<TGraph> got = RunOp(&ctx, c, stores, &untraced, 0, &sample);
    Result<TGraph> want = Reference(c, stores, sources);
    report->Attempted();
    if (!got.ok() || !want.ok()) {
      report->FailedOp(std::string("set-up oracle ") + kClassMetric[c] +
                       ": " +
                       (got.ok() ? want.status() : got.status()).ToString());
      expected_records[c] = -1;
      expected_fp[c] = 0;
      continue;
    }
    expected_records[c] = sample.records;
    expected_fp[c] = Fingerprint(*got);
    uint64_t reference_fp = Fingerprint(*want);
    if (reference_fp != expected_fp[c]) {
      report->FailedOp(std::string("set-up oracle ") + kClassMetric[c] +
                       ": store result differs across representations");
    }
  }
  report->Note("zoom-batch WikiTalk: " +
               gen::ComputeStats(sources.wiki_ve).ToString());
  report->Note("zoom-batch SNB: " +
               gen::ComputeStats(sources.snb_ve).ToString());
  report->Note("zoom-batch NGrams: " +
               gen::ComputeStats(sources.ngrams_ve).ToString());
  sources = Sources();  // drop the in-memory copies

  // Timed window. In a traced run every other rotation is traced, so the
  // traced and untraced p50 come from the same window and mix.
  SpanLog log(args.trace);
  std::vector<OpSample> samples;
  std::vector<int> sample_class;
  std::vector<bool> sample_traced;
  std::optional<TGraph> last_result[kClasses];
  RssSampler rss;
  const double cpu_start = ProcessCpuMs();
  const double start = NowMs();
  const double end = start + args.seconds * 1e3;
  for (uint64_t op = 0; NowMs() < end || op % kClasses != 0; ++op) {
    int cls = static_cast<int>(op % kClasses);
    bool traced = args.trace && (op / kClasses) % 2 == 1;
    OpSample sample;
    report->Attempted();
    Result<TGraph> result =
        RunOp(&ctx, cls, stores, traced ? &log : &untraced, op + 1, &sample);
    Status check = result.ok()
                       ? CheckRecordCount(expected_records[cls], sample.records)
                       : result.status();
    if (!check.ok()) {
      report->FailedOp(std::string(kClassMetric[cls]) + ": " +
                       check.ToString());
      continue;
    }
    last_result[cls] = std::move(*result);
    samples.push_back(sample);
    sample_class.push_back(cls);
    sample_traced.push_back(traced);
  }
  window.elapsed_ms = NowMs() - start;
  window.cpu_ms = ProcessCpuMs() - cpu_start;
  window.rss_p90_mb = rss.StopP90Mb();

  // Full fingerprints, outside the timed window.
  for (int c = 0; c < kClasses; ++c) {
    if (!last_result[c].has_value()) continue;
    report->Attempted();
    Status fp = CheckFingerprint(expected_fp[c], *last_result[c]);
    if (!fp.ok()) {
      report->FailedOp(std::string(kClassMetric[c]) + ": " + fp.ToString());
    }
  }

  std::vector<double> per_class[kClasses];
  for (size_t i = 0; i < samples.size(); ++i) {
    if (sample_traced[i]) {
      window.traced_latency_ms.push_back(samples[i].total_ms);
    } else {
      window.latency_ms.push_back(samples[i].total_ms);
      per_class[sample_class[i]].push_back(samples[i].total_ms);
    }
  }
  window.store_bytes = stores.ve_bytes + stores.og_bytes + stores.ogc_bytes;
  ReportWindow(args, window, log, report);
  for (int c = 0; c < kClasses; ++c) {
    report->Add(kClassMetric[c], Median(per_class[c]), "ms");
  }

  // Set-up layers and store sizes (also in untraced runs: they are free).
  report->Add("gen.generate_ms", Median(generate_ms), "ms");
  report->Add("tgraph.convert_ms", Median(convert_ms), "ms");
  report->Add("storage.write_ms", Median(write_ms), "ms");
  report->Add("storage.ve_mb", static_cast<double>(stores.ve_bytes) / 1e6,
              "MB");
  report->Add("storage.og_mb", static_cast<double>(stores.og_bytes) / 1e6,
              "MB");
  report->Add("storage.ogc_mb", static_cast<double>(stores.ogc_bytes) / 1e6,
              "MB");
  if (!args.trace) return;

  // Per-layer metrics from the traced operations.
  std::vector<double> open, load, optimize, plan, exec, util;
  std::map<int, OpSample> per_class_counts;  // one traced op per class
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!sample_traced[i]) continue;
    const OpSample& s = samples[i];
    open.push_back(s.open_ms);
    load.push_back(s.load_ms);
    optimize.push_back(s.optimize_us);
    plan.push_back(s.plan_ms);
    exec.push_back(s.exec_ms);
    util.push_back(s.exec_cpu_ms / (s.exec_ms * ctx.num_workers()));
    per_class_counts[sample_class[i]] = s;
  }
  report->Add("storage.open_ms", Median(open), "ms");
  report->Add("storage.load_ms", Median(load), "ms");
  report->Add("opt.optimize_us", Median(optimize), "us");
  report->Add("tgraph.plan_ms", Median(plan), "ms");
  report->Add("tgraph.exec_ms", Median(exec), "ms");
  report->Add("dataflow.cpu_util", Median(util), "ratio");
  // Counts are exact per operation; reported per rotation (one query of
  // each class).
  OpSample rotation;
  for (const auto& [cls, s] : per_class_counts) {
    rotation.pruned += s.pruned;
    rotation.decoded += s.decoded;
    rotation.decoded_bytes += s.decoded_bytes;
    rotation.stages += s.stages;
    rotation.tasks += s.tasks;
    rotation.shuffle_records += s.shuffle_records;
    rotation.shuffle_bytes += s.shuffle_bytes;
  }
  report->Add("storage.partitions_pruned",
              static_cast<double>(rotation.pruned), "count");
  report->Add("storage.partitions_decoded",
              static_cast<double>(rotation.decoded), "count");
  report->Add("storage.decoded_mb",
              static_cast<double>(rotation.decoded_bytes) / 1e6, "MB");
  report->Add("dataflow.stages", static_cast<double>(rotation.stages),
              "count");
  report->Add("dataflow.tasks", static_cast<double>(rotation.tasks), "count");
  report->Add("dataflow.shuffle_records",
              static_cast<double>(rotation.shuffle_records), "count");
  report->Add("dataflow.shuffle_mb",
              static_cast<double>(rotation.shuffle_bytes) / 1e6, "MB");
}

}  // namespace tgraph::perfbench
