#ifndef TGRAPH_PERFBENCH_STREAMS_H_
#define TGRAPH_PERFBENCH_STREAMS_H_

// Seeded inputs of every workload. The benchmark derives everything the
// program receives from --seed through these functions, so the same seed
// replays byte-identical datasets, query streams and event streams.

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "ingest/event.h"

namespace tgraph::perfbench {

/// Per-dataset generator seed derived from the run seed.
uint64_t DatasetSeed(uint64_t seed, int dataset);

// The three datasets of the repository's figure benchmarks
// (bench/bench_util.h), seeded; `scale` multiplies their entity counts
// (1 = the figures' size). History lengths stay as in the figures.
gen::WikiTalkConfig WikiTalkConfig(uint64_t seed, double scale);
gen::SnbConfig SnbConfig(uint64_t seed, double scale);
gen::NGramsConfig NGramsConfig(uint64_t seed, double scale);

// --- serve-zoom --------------------------------------------------------------

/// The TQL scripts serve-zoom sends: `miss` scripts go out with the
/// no-cache flag, `hot` scripts are the small repeated set the result
/// cache serves.
struct ScriptSet {
  std::vector<std::string> miss;
  std::vector<std::string> hot;
};

/// aZoom / wZoom / slice / convert templates over the SNB- and
/// WikiTalk-like stores. `snb_months` and `wiki_months` bound the slice
/// ranges. The set is fixed (no seed); the request stream draws from it.
ScriptSet ServeZoomScripts(const std::string& snb_dir,
                           const std::string& wiki_dir, int64_t snb_months,
                           int64_t wiki_months);

/// One request of a closed-loop client: index into ScriptSet::miss or
/// ::hot.
struct ScriptRequest {
  bool hot = false;
  size_t script = 0;
};

/// Client `client`'s request stream: every 4th request is hot, the other
/// three walk the miss scripts in rounds, each round a seeded permutation
/// (so every run sends the same mix; the seed sets the order).
std::vector<ScriptRequest> ServeZoomRequests(uint64_t seed, int client,
                                             size_t count,
                                             const ScriptSet& scripts);

// --- serve-live --------------------------------------------------------------

struct LiveStreamConfig {
  /// Events ingested (and compacted) during set-up.
  int64_t prefix_events = 12000;
  /// Events per writer batch in the timed window.
  int64_t batch_events = 160;
  /// Writer batches the stream holds after the prefix.
  int64_t batches = 400;
  /// Cardinality of the `tier` vertex attribute the view groups by.
  int64_t tiers = 4;
};

/// A WikiTalk-like change stream: users join (name, tier, editCount),
/// exchange short-lived messages (edge add, later removed), update their
/// editCount, and occasionally leave. Every event has its own timestamp,
/// strictly increasing from 1, and the stream is valid when ingested in
/// order. Returned as the set-up prefix (one batch per 512 events)
/// followed by `config.batches` writer batches.
struct LiveStream {
  std::vector<std::vector<ingest::Event>> prefix;
  std::vector<std::vector<ingest::Event>> batches;
  /// Timestamp of the last event of the whole stream.
  TimePoint last_time = 0;
};
LiveStream MakeLiveStream(uint64_t seed, const LiveStreamConfig& config);

/// Zoom scripts the serve-live readers send over the live graph in `dir`
/// (no-cache); `horizon` bounds the wZoom windows.
std::vector<std::string> LiveReadScripts(const std::string& dir,
                                         TimePoint horizon);

/// The view serve-live maintains: an aZoom over the `tier` attribute.
std::string LiveViewDdl(const std::string& name, const std::string& dir);

/// Reader `reader`'s stream: entries >= 0 index LiveReadScripts (in
/// rounds of seeded permutations), -1 is a View read (one in four).
std::vector<int> LiveReadRequests(uint64_t seed, int reader, size_t count,
                                  size_t num_scripts);

/// Serializes event batches (the kIngest wire form) — the byte image the
/// determinism test compares.
std::string EncodeBatches(const std::vector<std::vector<ingest::Event>>& b);

}  // namespace tgraph::perfbench

#endif  // TGRAPH_PERFBENCH_STREAMS_H_
