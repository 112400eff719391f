// Tests of the benchmark itself: seeded inputs, the percentile helper,
// the correctness oracles and open-loop timing.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "dataflow/context.h"
#include "gen/generators.h"
#include "harness.h"
#include "ingest/delta.h"
#include "oracles.h"
#include "streams.h"
#include "tgraph/builder.h"

namespace tgraph::perfbench {
namespace {

dataflow::ExecutionContext* Ctx() {
  static auto* ctx = new dataflow::ExecutionContext();
  return ctx;
}

std::string RequestImage(const std::vector<ScriptRequest>& requests,
                         const ScriptSet& scripts) {
  std::string out;
  for (const ScriptRequest& r : requests) {
    out += r.hot ? scripts.hot[r.script] : scripts.miss[r.script];
    out += '\x1f';
  }
  return out;
}

TEST(Streams, SameSeedSameInputsOtherSeedOtherInputs) {
  LiveStreamConfig config;
  config.prefix_events = 2000;
  config.batches = 20;
  std::string a = EncodeBatches(MakeLiveStream(7, config).prefix) +
                  EncodeBatches(MakeLiveStream(7, config).batches);
  std::string b = EncodeBatches(MakeLiveStream(7, config).prefix) +
                  EncodeBatches(MakeLiveStream(7, config).batches);
  std::string c = EncodeBatches(MakeLiveStream(8, config).prefix) +
                  EncodeBatches(MakeLiveStream(8, config).batches);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);

  ScriptSet scripts = ServeZoomScripts("snb", "wiki", 36, 60);
  EXPECT_EQ(RequestImage(ServeZoomRequests(7, 1, 500, scripts), scripts),
            RequestImage(ServeZoomRequests(7, 1, 500, scripts), scripts));
  EXPECT_NE(RequestImage(ServeZoomRequests(7, 1, 500, scripts), scripts),
            RequestImage(ServeZoomRequests(8, 1, 500, scripts), scripts));
  EXPECT_EQ(LiveReadRequests(7, 0, 500, 3), LiveReadRequests(7, 0, 500, 3));
  EXPECT_NE(LiveReadRequests(7, 0, 500, 3), LiveReadRequests(8, 0, 500, 3));

  auto snb = [](uint64_t seed) {
    return Fingerprint(TGraph::FromVe(
        gen::GenerateSnb(Ctx(), SnbConfig(seed, 0.02)), true));
  };
  EXPECT_EQ(snb(7), snb(7));
  EXPECT_NE(snb(7), snb(8));
}

TEST(Streams, LiveStreamIsValidInOrder) {
  LiveStreamConfig config;
  config.prefix_events = 3000;
  config.batches = 10;
  LiveStream stream = MakeLiveStream(3, config);
  TGraphBuilder builder(Ctx());
  TimePoint last = 0;
  for (const auto* part : {&stream.prefix, &stream.batches}) {
    for (const auto& batch : *part) {
      for (const ingest::Event& e : batch) {
        EXPECT_GT(e.at, last);
        last = e.at;
        ingest::ApplyEventToBuilder(e, &builder);
      }
    }
  }
  EXPECT_EQ(last, stream.last_time);
  EXPECT_TRUE(builder.Finish(stream.last_time + 1).ok());
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 199; ++i) samples.push_back(i);
  EXPECT_FALSE(Percentile(samples, 0.95).has_value());
  samples.push_back(200);
  ASSERT_TRUE(Percentile(samples, 0.95).has_value());
  EXPECT_EQ(*Percentile(samples, 0.95), 190);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(Percentile(small, 0.5).has_value());
  small.push_back(1.0);
  EXPECT_TRUE(Percentile(small, 0.5).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

VeGraph SmallGraph(int64_t extra_vertex) {
  TGraphBuilder builder(Ctx());
  builder.AddVertex(1, 0, Properties{{"type", "n"}, {"g", "a"}});
  builder.AddVertex(2, 1, Properties{{"type", "n"}, {"g", "b"}});
  builder.AddEdge(10, 1, 2, 2, Properties{{"type", "e"}});
  if (extra_vertex > 0) {
    builder.AddVertex(extra_vertex, 3, Properties{{"type", "n"}, {"g", "a"}});
  }
  Result<VeGraph> graph = builder.Finish(10);
  TG_CHECK(graph.ok()) << graph.status();
  return *graph;
}

TEST(Oracles, ZoomBatchChecksCatchCorruption) {
  TGraph good = TGraph::FromVe(SmallGraph(0), true);
  TGraph corrupted = TGraph::FromVe(SmallGraph(3), true);
  EXPECT_TRUE(CheckRecordCount(good.Materialize(), good.Materialize()).ok());
  EXPECT_FALSE(
      CheckRecordCount(good.Materialize(), corrupted.Materialize()).ok());
  uint64_t expected = Fingerprint(good);
  EXPECT_TRUE(CheckFingerprint(expected, good).ok());
  // The same content in another representation has the same fingerprint.
  EXPECT_TRUE(CheckFingerprint(expected, *good.As(Representation::kOg)).ok());
  EXPECT_FALSE(CheckFingerprint(expected, corrupted).ok());
}

TEST(Oracles, ServeZoomBodyCheckCatchesCorruption) {
  EXPECT_TRUE(CheckBody("z [VE] 3 vertices\n", "z [VE] 3 vertices\n").ok());
  EXPECT_FALSE(CheckBody("z [VE] 3 vertices\n", "z [VE] 4 vertices\n").ok());
  EXPECT_FALSE(CheckBody("z [VE] 3 vertices\n", "").ok());
}

TEST(Oracles, ServeLiveChecksCatchCorruption) {
  TGraph offline = TGraph::FromVe(SmallGraph(0), true);
  TGraph reopened = TGraph::FromVe(SmallGraph(0), true);
  TGraph lost_event = TGraph::FromVe(SmallGraph(3), true);
  EXPECT_TRUE(CheckLiveEqualsOffline(offline, reopened).ok());
  EXPECT_FALSE(CheckLiveEqualsOffline(offline, lost_event).ok());

  // A VIEW body in the server's rendering of the same content.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fingerprint(offline)));
  std::string body = "view tiers [VE] lifetime [0,10): 2 vertex records, "
                     "1 edge records\ncontent " + std::string(hex) + "\n";
  EXPECT_TRUE(CheckViewBody(offline, body).ok());
  std::string wrong_hash = body;
  wrong_hash[wrong_hash.size() - 2] =
      wrong_hash[wrong_hash.size() - 2] == '0' ? '1' : '0';
  EXPECT_FALSE(CheckViewBody(offline, wrong_hash).ok());
  EXPECT_FALSE(CheckViewBody(lost_event, body).ok());
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  const double interval_ms = 20;
  const double start = NowMs() + 5;
  std::vector<OpenLoopSample> samples =
      RunOpenLoop(start, interval_ms, 4, [](size_t k) {
        // The first request stalls for three intervals.
        if (k == 0) std::this_thread::sleep_for(std::chrono::milliseconds(70));
      });
  ASSERT_EQ(samples.size(), 4u);
  for (size_t k = 0; k < samples.size(); ++k) {
    EXPECT_DOUBLE_EQ(samples[k].due_ms, start + k * interval_ms);
    EXPECT_GE(samples[k].sent_ms, samples[k].due_ms);
  }
  // Request 1 was due at +20 ms but could only go out after the stall
  // (+70 ms): its latency counts the 50 ms it waited, although its own
  // round trip took almost nothing.
  EXPECT_GE(samples[1].latency_ms(), 45);
  EXPECT_GE(samples[1].lateness_ms(), 45);
  EXPECT_LT(samples[1].done_ms - samples[1].sent_ms, 10);
  EXPECT_GE(samples[0].latency_ms(), 70);
}

TEST(OpenLoop, SenderBehindScheduleFailsTheRun) {
  const double interval_ms = 10;
  // Every send takes two and a half intervals: the backlog grows with
  // each request, so the later ones go out more than an interval late.
  std::vector<OpenLoopSample> behind =
      RunOpenLoop(NowMs(), interval_ms, 4, [](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      });
  Report late;
  EXPECT_GT(CheckOnSchedule(behind, interval_ms, &late), interval_ms);
  EXPECT_FALSE(late.correct());

  // Instant sends keep a looser schedule (wake-up jitter stays far below
  // 50 ms).
  std::vector<OpenLoopSample> kept =
      RunOpenLoop(NowMs(), 5 * interval_ms, 4, [](size_t) {});
  Report on_time;
  EXPECT_LE(CheckOnSchedule(kept, 5 * interval_ms, &on_time),
            5 * interval_ms);
  EXPECT_TRUE(on_time.correct());
}

}  // namespace
}  // namespace tgraph::perfbench
