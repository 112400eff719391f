#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "obs/trace.h"

namespace tgraph::perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

namespace {

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

}  // namespace

RssSampler::RssSampler() {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      samples_mb_.push_back(CurrentRssMb());
      cv_.wait_for(lock, std::chrono::milliseconds(50),
                   [this] { return stop_; });
    }
  });
}

RssSampler::~RssSampler() { StopP90Mb(); }

double RssSampler::StopP90Mb() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::vector<double> samples = samples_mb_;
  if (samples.empty()) samples.push_back(CurrentRssMb());
  std::sort(samples.begin(), samples.end());
  size_t index =
      static_cast<size_t>(0.9 * static_cast<double>(samples.size() - 1));
  return samples[index];
}

uint64_t DirBytes(const std::string& path) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

namespace {

void SleepUntilMs(double deadline_ms) {
  double wait = deadline_ms - NowMs();
  if (wait > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait));
  }
}

}  // namespace

std::vector<OpenLoopSample> RunOpenLoop(
    double start_ms, double interval_ms, size_t count,
    const std::function<void(size_t)>& send) {
  std::vector<OpenLoopSample> samples;
  samples.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    OpenLoopSample sample;
    sample.due_ms = start_ms + static_cast<double>(k) * interval_ms;
    SleepUntilMs(sample.due_ms);
    sample.sent_ms = NowMs();
    send(k);
    sample.done_ms = NowMs();
    samples.push_back(sample);
  }
  return samples;
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  if (n == 0 || p <= 0 || p >= 1) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

int64_t CounterDelta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, const char* name) {
  auto value = [name](const obs::MetricsSnapshot& s) -> int64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(after) - value(before);
}

obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      const char* name) {
  obs::MetricsSnapshot delta = after.DeltaSince(before);
  auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? obs::HistogramSnapshot()
                                      : it->second;
}

// --- Report ------------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, Entry{value, unit}});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::AddPercentile(const std::string& name,
                           const std::vector<double>& samples, double p,
                           bool required) {
  std::optional<double> value = Percentile(samples, p);
  if (value.has_value()) {
    Add(name, *value, "ms");
  } else if (required) {
    Fail(name + ": " + std::to_string(samples.size()) +
         " samples leave fewer than 10 beyond the percentile");
  }
}

void Report::FailedOp(const std::string& what) {
  failed_.fetch_add(1);
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Report::Fail(const std::string& what) {
  fail_messages_.fetch_add(1);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

double CheckOnSchedule(const std::vector<OpenLoopSample>& samples,
                       double interval_ms, Report* report) {
  double max_ms = 0;
  for (const OpenLoopSample& s : samples) {
    max_ms = std::max(max_ms, s.lateness_ms());
  }
  if (max_ms > interval_ms) {
    report->Fail("open-loop sender fell " + std::to_string(max_ms) +
                 " ms behind its " + std::to_string(interval_ms) +
                 " ms schedule; its latencies measure the backlog");
  }
  return max_ms;
}

bool Report::Has(const std::string& name) const {
  for (const auto& [key, entry] : metrics_) {
    if (key == name) return true;
  }
  return false;
}

int Report::Print(
    const std::vector<std::pair<std::string, std::string>>& selected) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const auto& [name, entry] : metrics_) {
    std::printf("# %-34s %14.6f %s\n", name.c_str(), entry.value,
                entry.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_.load()) +
          ", \"failed\": " + std::to_string(failed_.load()) +
          ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : selected) {
    double measured = 0;
    for (const auto& [key, entry] : metrics_) {
      if (key == name) measured = entry.value;
    }
    char value[64];
    // %.17g keeps every digit the double carries.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(measured) ? measured : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// --- SpanLog -----------------------------------------------------------------

uint64_t SpanLog::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Add(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::map<uint64_t, std::map<std::string, double>> SpanLog::TimeByOpAndLayer()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::vector<const Span*>> by_op;
  for (const Span& span : spans_) by_op[span.op].push_back(&span);
  std::map<uint64_t, std::map<std::string, double>> out;
  for (const auto& [op, spans] : by_op) {
    // Depth of each span below the op's root.
    std::unordered_map<uint64_t, const Span*> by_id;
    for (const Span* s : spans) by_id[s->id] = s;
    std::vector<int> depth(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      for (uint64_t p = spans[i]->parent; p != 0 && depth[i] < 64;
           ++depth[i]) {
        auto it = by_id.find(p);
        if (it == by_id.end()) break;
        p = it->second->parent;
      }
    }
    // Sweep the op's timeline: each instant belongs to the innermost
    // active span (the later-started one on a tie), so the layers' times
    // add up to the op's duration even when tasks run in parallel.
    std::vector<double> cuts;
    for (const Span* s : spans) {
      cuts.push_back(s->start_ms);
      cuts.push_back(s->end_ms);
    }
    std::sort(cuts.begin(), cuts.end());
    std::map<std::string, double>& per_layer = out[op];
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      double lo = cuts[c], hi = cuts[c + 1];
      if (hi <= lo) continue;
      int best = -1;
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i]->start_ms > lo || spans[i]->end_ms < hi) continue;
        if (best < 0 || depth[i] > depth[best] ||
            (depth[i] == depth[best] &&
             spans[i]->start_ms > spans[best]->start_ms)) {
          best = static_cast<int>(i);
        }
      }
      if (best >= 0) per_layer[spans[best]->layer] += hi - lo;
    }
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"op\":%llu,\"id\":%llu,\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.layer.c_str(), s.start_ms * 1e3,
                 (s.end_ms - s.start_ms) * 1e3, s.thread,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(file, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, uint64_t op, uint64_t parent,
                       std::string layer, int thread)
    : log_(log), op_(op), parent_(parent), layer_(std::move(layer)),
      thread_(thread) {
  if (log_ != nullptr && log_->enabled()) {
    id_ = log_->NewId();
    start_ms_ = NowMs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  double end = NowMs();
  log_->Add(SpanLog::Span{op_, id_, parent_, std::move(layer_), thread_,
                          start_ms_, end});
}

const std::vector<std::string>& TraceLayers() {
  static const std::vector<std::string> layers = {
      "bench", "client",  "server", "tql",    "storage",
      "opt",   "tgraph",  "dataflow", "ingest", "views"};
  return layers;
}

namespace {

/// Layer of a tgraphd span category.
std::string LayerOfCategory(const std::string& category) {
  if (category == "zoom" || category == "pipeline" || category == "convert" ||
      category == "tgraph") {
    return "tgraph";
  }
  if (category == "dataflow" || category == "ingest" || category == "views") {
    return category;
  }
  return "server";
}

/// Value of `"key":` in one flat JSON event line ("" when absent).
std::string JsonField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  if (pos < line.size() && line[pos] == '"') {
    std::string out;
    for (++pos; pos < line.size() && line[pos] != '"'; ++pos) {
      if (line[pos] == '\\' && pos + 1 < line.size()) ++pos;
      out += line[pos];
    }
    return out;
  }
  size_t end = line.find_first_of(",}", pos);
  return line.substr(pos, end - pos);
}

}  // namespace

size_t AddProgramTrace(SpanLog* log, uint64_t op, uint64_t parent, int thread,
                      const std::string& chrome_json) {
  if (!log->enabled()) return 0;
  struct Event {
    std::string layer;
    uint64_t id, parent;
    double start_ms, end_ms;
  };
  std::vector<Event> events;
  size_t pos = 0;
  while ((pos = chrome_json.find("{\"name\":", pos)) != std::string::npos) {
    size_t end = chrome_json.find('\n', pos);
    std::string line = chrome_json.substr(pos, end - pos);
    pos = end == std::string::npos ? chrome_json.size() : end;
    std::string ts = JsonField(line, "ts");
    std::string dur = JsonField(line, "dur");
    if (ts.empty() || dur.empty()) continue;
    Event event;
    event.layer = LayerOfCategory(JsonField(line, "cat"));
    event.id = std::stoull("0" + JsonField(line, "id"));
    event.parent = std::stoull("0" + JsonField(line, "parent"));
    // The program runs in this process: its trace clock is steady_clock
    // microseconds since the tracer epoch, so only the offset differs.
    event.start_ms = std::stod(ts) / 1e3;
    event.end_ms = event.start_ms + std::stod(dur) / 1e3;
    events.push_back(std::move(event));
  }
  // Program span ids -> SpanLog ids; spans whose parent is not in the
  // trace hang off `parent`.
  std::unordered_map<uint64_t, uint64_t> ids;
  for (const Event& e : events) ids[e.id] = log->NewId();
  double offset = 0;
  if (!events.empty()) {
    // Align the earliest server span with the tracer-epoch clock.
    offset = NowMs() - static_cast<double>(obs::Tracer::NowMicros()) / 1e3;
  }
  for (const Event& e : events) {
    auto it = ids.find(e.parent);
    log->Add(SpanLog::Span{op, ids[e.id],
                           it == ids.end() ? parent : it->second, e.layer,
                           thread, e.start_ms + offset, e.end_ms + offset});
  }
  return events.size();
}

void ReportWindow(const Args& args, const WindowResult& window,
                  const SpanLog& log, Report* report) {
  const double ops = static_cast<double>(window.latency_ms.size() +
                                         window.traced_latency_ms.size());
  report->Add("setup_s", Median(window.setup_ms) / 1e3, "s");
  report->Add("ops_per_s", ops / (window.elapsed_ms / 1e3), "1/s");
  report->Add("p50_ms", Median(window.latency_ms), "ms");
  // A traced run times only half its operations untraced.
  report->AddPercentile("p95_ms", window.latency_ms, 0.95, !args.trace);
  report->Add("cpu_ms_per_op", window.cpu_ms / ops, "ms");
  report->Add("rss_p90_mb", window.rss_p90_mb, "MB");
  report->Add("store_mb", static_cast<double>(window.store_bytes) / 1e6,
              "MB");
  report->Add("samples", static_cast<double>(window.latency_ms.size()),
              "count");
  if (!args.trace) return;

  const double untraced = Median(window.latency_ms);
  const double traced = Median(window.traced_latency_ms);
  report->Add("trace.untraced_p50_ms", untraced, "ms");
  report->Add("trace.p50_ms", traced, "ms");
  report->Add("trace.overhead_ms", traced - untraced, "ms");
  ReportTraceBreakdown(log, report);
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + ".trace.json";
  if (!log.WriteChromeTrace(path)) report->Fail("cannot write " + path);
}

void ReportTraceBreakdown(const SpanLog& log, Report* report) {
  std::map<std::string, std::vector<double>> per_layer;
  std::map<std::string, double> sum;
  std::vector<double> attributed;
  double total = 0;
  for (const auto& [op, layers] : log.TimeByOpAndLayer()) {
    double op_total = 0;
    for (const auto& [layer, ms] : layers) {
      per_layer[layer].push_back(ms);
      sum[layer] += ms;
      op_total += ms;
    }
    total += op_total;
    auto bench = layers.find("bench");
    attributed.push_back(op_total -
                         (bench == layers.end() ? 0 : bench->second));
  }
  for (const std::string& layer : TraceLayers()) {
    report->Add("trace." + layer + "_self_ms", Median(per_layer[layer]),
                "ms");
    report->Add("trace." + layer + "_share",
                total > 0 ? sum[layer] / total : 0, "ratio");
  }
  report->Add("trace.attributed_p50_ms", Median(attributed), "ms");
}

}  // namespace tgraph::perfbench
