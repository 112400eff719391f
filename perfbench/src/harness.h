#ifndef TGRAPH_PERFBENCH_HARNESS_H_
#define TGRAPH_PERFBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace tgraph::perfbench {

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores, live graphs and trace files; created
  /// fresh per run and removed at exit (traces are kept in `out_dir`).
  std::string work_dir = ".bench_work";
  std::string out_dir = ".bench_out";
};

// --- clocks and process counters ---------------------------------------------

/// Monotonic wall clock in milliseconds.
double NowMs();
/// User + system CPU time of the whole process (getrusage), milliseconds.
double ProcessCpuMs();

/// Samples the process's resident set size every 50 ms from a background
/// thread, from construction until StopP90Mb().
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling and returns the 90th percentile of the samples, MB.
  /// A high percentile of many samples, not the single highest reading:
  /// the maximum of a concurrent workload depends on which allocations
  /// happen to coincide and moves 10-15% between identical runs.
  double StopP90Mb();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_mb_;
  std::thread thread_;
};

/// Total bytes of the regular files under `path`.
uint64_t DirBytes(const std::string& path);

// --- open-loop load ----------------------------------------------------------

/// One open-loop request: when it was due, sent and acknowledged.
struct OpenLoopSample {
  double due_ms = 0;
  double sent_ms = 0;
  double done_ms = 0;
  /// Latency as the schedule sees it: from the due time, so a stall also
  /// counts against every request it delayed.
  double latency_ms() const { return done_ms - due_ms; }
  /// How late the generator sent the request.
  double lateness_ms() const { return sent_ms - due_ms; }
};

/// Sends `count` requests on a fixed schedule from one thread: request k
/// is due at `start_ms + k * interval_ms` and goes out at its due time, or
/// as soon as the previous one returns when the sender is behind.
std::vector<OpenLoopSample> RunOpenLoop(
    double start_ms, double interval_ms, size_t count,
    const std::function<void(size_t)>& send);

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile `p` in (0, 1) of `samples`. Refuses (returns
/// nullopt) when fewer than 10 samples lie above the rank, so a reported
/// tail always rests on at least ten observations.
std::optional<double> Percentile(std::vector<double> samples, double p);
/// Median of `samples`, 0 when empty (no tail requirement).
double Median(std::vector<double> samples);

/// Counter and histogram movement between two registry snapshots.
int64_t CounterDelta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, const char* name);
obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      const char* name);

// --- result line -------------------------------------------------------------

/// Collects one run's outcome and prints it: every metric as a
/// human-readable line, then the one-line JSON result (the last line of
/// stdout). The operation counters and Fail are safe to
/// call from several threads.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Lines printed before the JSON (sample counts, per-class detail).
  void Note(const std::string& line);

  /// Counts an operation (a query, request, batch or oracle check).
  void Attempted() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  /// An attempted operation that failed or returned a wrong result.
  void FailedOp(const std::string& what);
  /// A failed check that is not one operation (a missing metric, a
  /// counter that must be 0): fails the run without counting an op.
  void Fail(const std::string& what);

  /// Adds percentile `p` of `samples` as `name` (ms). When the sample
  /// leaves fewer than 10 beyond it, the metric is left out, and if it is
  /// `required` the run fails.
  void AddPercentile(const std::string& name,
                     const std::vector<double>& samples, double p,
                     bool required);

  bool correct() const {
    return failed_.load() == 0 && fail_messages_.load() == 0;
  }
  bool Has(const std::string& name) const;
  /// Prints every metric as a comment line, then the JSON result holding
  /// exactly `selected` (name, unit) — a selected metric the workload did
  /// not measure reads 0. Returns the exit code: 0 only when every check
  /// passed.
  int Print(
      const std::vector<std::pair<std::string, std::string>>& selected) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
  std::vector<std::string> notes_;
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> fail_messages_{0};
};

/// Open-loop latencies hold only while the sender keeps its schedule: a
/// request sent more than one interval late means the sender fell behind,
/// and its latencies then measure the backlog. Fails the run in that case.
/// Returns the largest lateness, ms (0 when there are no samples).
double CheckOnSchedule(const std::vector<OpenLoopSample>& samples,
                       double interval_ms, Report* report);

/// What every workload measures over its timed window.
struct WindowResult {
  std::vector<double> setup_ms;           ///< One per set-up repetition.
  std::vector<double> latency_ms;         ///< Untraced operations.
  std::vector<double> traced_latency_ms;  ///< Traced operations.
  double elapsed_ms = 0;
  double cpu_ms = 0;
  double rss_p90_mb = 0;
  uint64_t store_bytes = 0;
};

// --- benchmark-side spans ----------------------------------------------------

/// \brief In-memory spans recorded by the benchmark around its calls into
/// each layer. Spans of one operation share `op`; `parent` links a span to
/// the span that caused it. Written as a Chrome trace at exit.
class SpanLog {
 public:
  struct Span {
    uint64_t op = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string layer;
    int thread = 0;
    double start_ms = 0;
    double end_ms = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Reserves a span id, so children can name a parent that is still
  /// open.
  uint64_t NewId();
  /// Records a finished span under an id from NewId (no-op when disabled).
  void Add(Span span);

  /// Each operation's time on its blocking path, by layer: every instant
  /// of an operation goes to its innermost active span, so a layer's time
  /// is its spans' duration minus what their children cover, and parallel
  /// tasks count once. Per op, the layers' times add up to the op's root
  /// span. Keyed by op.
  std::map<uint64_t, std::map<std::string, double>> TimeByOpAndLayer() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Times one layer call into a SpanLog (no-op when the log is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint64_t op, uint64_t parent, std::string layer,
             int thread);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id children should name as their parent (reserved at construction).
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t op_;
  uint64_t parent_;
  std::string layer_;
  int thread_;
  uint64_t id_ = 0;
  double start_ms_ = 0;
};

/// Adds the spans of a Chrome trace the program recorded (tgraphd's
/// Response::trace, or obs::Tracer's export) to `log`, attributed to
/// layers by span category. Spans whose parent is not in the trace hang
/// off `parent`. Returns the number of spans added.
size_t AddProgramTrace(SpanLog* log, uint64_t op, uint64_t parent, int thread,
                      const std::string& chrome_json);

/// The layers spans are attributed to: the benchmark itself ("bench",
/// the unattributed remainder of an operation), "client" (request
/// encode, socket and queueing as the caller sees them) and the src/
/// modules.
const std::vector<std::string>& TraceLayers();

/// Adds the end-to-end metrics (setup_s, ops_per_s, p50_ms, p95_ms,
/// cpu_ms_per_op, rss_p90_mb, store_mb) and `samples`. In a traced run it
/// also adds the tracing overhead and ReportTraceBreakdown(log), and
/// writes `log` to `<out_dir>/<workload>-<seed>.trace.json`.
void ReportWindow(const Args& args, const WindowResult& window,
                  const SpanLog& log, Report* report);

/// Adds, for every layer of TraceLayers, its median time per operation
/// that reaches it ("trace.<layer>_self_ms") and its share of all traced
/// operations' time ("trace.<layer>_share"); a layer absent from the
/// workload reads 0. Also adds the median per-op time the src/ layers and
/// the client account for ("trace.attributed_p50_ms"): the rest of an op
/// is the benchmark's own work.
void ReportTraceBreakdown(const SpanLog& log, Report* report);

}  // namespace tgraph::perfbench

#endif  // TGRAPH_PERFBENCH_HARNESS_H_
