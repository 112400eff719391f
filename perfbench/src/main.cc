// perfbench: the repository benchmark program.
//
//   perfbench --workload zoom-batch|serve-zoom|serve-live --seed N
//             --seconds S --trace 0|1 [--work-dir D] [--out-dir D]
//
// Prints every metric as a "# name value unit" line, then one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits non-zero
// when any correctness check failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace tgraph::perfbench {
namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// The end-to-end metrics (BENCHMARK.json "end_to_end"); every workload
/// measures all of them.
const MetricList& EndToEnd() {
  static const MetricList list = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"p50_ms", "ms"},         {"p95_ms", "ms"},
      {"cpu_ms_per_op", "ms"},  {"rss_p90_mb", "MB"},
      {"store_mb", "MB"},
  };
  return list;
}

/// The per-layer metrics (BENCHMARK.json "per_layer"). A layer a workload
/// does not exercise reads 0 there.
MetricList PerLayer() {
  MetricList list = {
      {"samples", "count"},
      // zoom-batch
      {"gen.generate_ms", "ms"},
      {"tgraph.convert_ms", "ms"},
      {"storage.write_ms", "ms"},
      {"storage.ve_mb", "MB"},
      {"storage.og_mb", "MB"},
      {"storage.ogc_mb", "MB"},
      {"storage.open_ms", "ms"},
      {"storage.load_ms", "ms"},
      {"storage.partitions_pruned", "count"},
      {"storage.partitions_decoded", "count"},
      {"storage.decoded_mb", "MB"},
      {"opt.optimize_us", "us"},
      {"tgraph.plan_ms", "ms"},
      {"tgraph.exec_ms", "ms"},
      {"tgraph.azoom_og_ms", "ms"},
      {"tgraph.azoom_ve_ms", "ms"},
      {"tgraph.wzoom_ogc_ms", "ms"},
      {"tgraph.wzoom_og_ms", "ms"},
      {"tgraph.chain_ve_ms", "ms"},
      {"dataflow.stages", "count"},
      {"dataflow.tasks", "count"},
      {"dataflow.shuffle_records", "count"},
      {"dataflow.shuffle_mb", "MB"},
      {"dataflow.cpu_util", "ratio"},
      // serve-zoom
      {"tql.parse_us", "us"},
      {"tql.canonicalize_us", "us"},
      {"server.hit_ms", "ms"},
      {"server.miss_ms", "ms"},
      {"server.exec_ms", "ms"},
      {"server.no_cache_rtt_ms", "ms"},
      {"server.cache_hit_ratio", "ratio"},
      {"server.catalog_loads", "count"},
      {"server.rejected", "count"},
      {"server.errors", "count"},
      {"dataflow.stages_per_miss", "count"},
      {"dataflow.shuffle_mb_per_miss", "MB"},
      // serve-live
      {"write_p50_ms", "ms"},
      {"write_p80_ms", "ms"},
      {"ingest.append_ms", "ms"},
      {"gen.lateness_p50_ms", "ms"},
      {"gen.lateness_max_ms", "ms"},
      {"ingest.wal_bytes_per_event", "B"},
      {"ingest.compactions", "count"},
      {"ingest.compaction_ms", "ms"},
      {"ingest.delta_events", "count"},
      {"server.live_read_ms", "ms"},
      {"views.read_ms", "ms"},
      {"views.refreshes", "count"},
      {"views.applied_deltas", "count"},
      {"views.full_rebuilds", "count"},
      {"views.apply_ms", "ms"},
      {"views.staleness_p50_ms", "ms"},
      {"views.staleness_p99_ms", "ms"},
      {"storage.generation_mb", "MB"},
      // tracing
      {"trace.untraced_p50_ms", "ms"},
      {"trace.p50_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"trace.attributed_p50_ms", "ms"},
  };
  for (const std::string& layer : TraceLayers()) {
    list.push_back({"trace." + layer + "_self_ms", "ms"});
    list.push_back({"trace." + layer + "_share", "ratio"});
  }
  return list;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "zoom-batch|serve-zoom|serve-live --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--out-dir DIR]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  // A private scratch directory per process: stores and live graphs never
  // leak between runs.
  args.work_dir += "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);

  Report report;
  if (args.workload == "zoom-batch") {
    RunZoomBatch(args, &report);
  } else if (args.workload == "serve-zoom") {
    RunServeZoom(args, &report);
  } else if (args.workload == "serve-live") {
    RunServeLive(args, &report);
  } else {
    std::filesystem::remove_all(args.work_dir);
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::filesystem::remove_all(args.work_dir);

  if (!args.trace) {
    for (const auto& [name, unit] : EndToEnd()) {
      if (!report.Has(name)) {
        report.Fail("end-to-end metric " + name + " missing");
      }
    }
  }
  return report.Print(args.trace ? PerLayer() : EndToEnd());
}

}  // namespace
}  // namespace tgraph::perfbench

int main(int argc, char** argv) {
  return tgraph::perfbench::Main(argc, argv);
}
