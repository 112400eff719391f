#include "streams.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/hash.h"
#include "common/rng.h"

namespace tgraph::perfbench {

uint64_t DatasetSeed(uint64_t seed, int dataset) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(dataset));
}

gen::WikiTalkConfig WikiTalkConfig(uint64_t seed, double scale) {
  gen::WikiTalkConfig config;
  config.num_users = static_cast<int64_t>(8000 * scale);
  config.num_months = 60;
  config.events_per_user_month = 0.6;
  config.seed = DatasetSeed(seed, 0);
  return config;
}

gen::SnbConfig SnbConfig(uint64_t seed, double scale) {
  gen::SnbConfig config;
  config.num_persons = static_cast<int64_t>(8000 * scale);
  config.num_months = 36;
  config.avg_friendships = 12;
  config.num_first_names = 500;
  config.seed = DatasetSeed(seed, 1);
  return config;
}

gen::NGramsConfig NGramsConfig(uint64_t seed, double scale) {
  gen::NGramsConfig config;
  config.num_words = static_cast<int64_t>(6000 * scale);
  config.num_years = 100;
  config.appearances_per_year = 1800 * scale;
  config.seed = DatasetSeed(seed, 2);
  return config;
}

// --- serve-zoom --------------------------------------------------------------

namespace {

/// A seeded permutation of 0..n-1.
std::vector<size_t> Shuffled(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  return order;
}

}  // namespace

ScriptSet ServeZoomScripts(const std::string& snb_dir,
                           const std::string& wiki_dir, int64_t snb_months,
                           int64_t wiki_months) {
  const std::string snb = "LOAD '" + snb_dir + "' AS g;\n";
  const std::string wiki = "LOAD '" + wiki_dir + "' AS g;\n";
  auto azoom = [](const std::string& source) {
    return "AZOOM " + source + " BY firstName AGGREGATE COUNT() AS people";
  };
  auto wzoom = [](const std::string& source, int64_t window) {
    return "WZOOM " + source + " WINDOW " + std::to_string(window) +
           " NODES EXISTS EDGES EXISTS";
  };
  // Misses. The request mix puts p50 at the 1/3 quantile of the miss
  // latencies, so the scripts are chosen to have similar costs around
  // that point (no large gap between neighbours).
  ScriptSet set;
  // A slice, then aZoom.
  set.miss.push_back(snb + "SET s = SLICE g FROM " +
                     std::to_string(snb_months / 4) + " TO " +
                     std::to_string(snb_months * 3 / 4) + ";\nSET z = " +
                     azoom("s") + ";\nINFO z;");
  // aZoom after a representation switch.
  set.miss.push_back(snb + "SET o = CONVERT g TO OG;\nSET z = " + azoom("o") +
                     ";\nINFO z;");
  // wZoom on both datasets at three window sizes.
  for (int64_t window : {3, 6, 12}) {
    set.miss.push_back(snb + "SET z = " + wzoom("g", window) + ";\nINFO z;");
    set.miss.push_back(wiki + "SET z = " + wzoom("g", window) + ";\nINFO z;");
  }
  // Chains: slice -> aZoom -> wZoom, and wZoom on a WikiTalk slice.
  set.miss.push_back(snb + "SET s = SLICE g FROM " +
                     std::to_string(snb_months / 2) + " TO " +
                     std::to_string(snb_months) + ";\nSET a = " + azoom("s") +
                     ";\nSET z = " + wzoom("a", 6) + ";\nINFO z;");
  set.miss.push_back(wiki + "SET s = SLICE g FROM 0 TO " +
                     std::to_string(wiki_months / 2) + ";\nSET z = " +
                     wzoom("s", 6) + ";\nINFO z;");
  // The hot set: two of the same shapes, repeated and cacheable.
  set.hot.push_back(snb + "SET hz = " + azoom("g") + ";\nINFO hz;");
  set.hot.push_back(wiki + "SET hz = " + wzoom("g", 12) + ";\nINFO hz;");
  return set;
}

std::vector<ScriptRequest> ServeZoomRequests(uint64_t seed, int client,
                                             size_t count,
                                             const ScriptSet& scripts) {
  Rng rng(Mix64(seed ^ (0x5e77e000ULL + static_cast<uint64_t>(client))));
  std::vector<size_t> miss_order = Shuffled(scripts.miss.size(), &rng);
  std::vector<size_t> hot_order = Shuffled(scripts.hot.size(), &rng);
  std::vector<ScriptRequest> out;
  out.reserve(count);
  size_t misses = 0, hits = 0;
  for (size_t i = 0; i < count; ++i) {
    ScriptRequest request;
    request.hot = i % 4 == 3;
    // Rounds of each script once, in a seeded order: the seed changes the
    // order, never the mix, so every run weighs the scripts equally.
    if (request.hot) {
      request.script = hot_order[hits++ % hot_order.size()];
    } else {
      if (misses > 0 && misses % miss_order.size() == 0) {
        miss_order = Shuffled(scripts.miss.size(), &rng);
      }
      request.script = miss_order[misses++ % miss_order.size()];
    }
    out.push_back(request);
  }
  return out;
}

// --- serve-live --------------------------------------------------------------

namespace {

ingest::Event MakeEvent(ingest::EventKind kind, int64_t id, TimePoint at) {
  ingest::Event event;
  event.kind = kind;
  event.id = id;
  event.at = at;
  return event;
}

}  // namespace

LiveStream MakeLiveStream(uint64_t seed, const LiveStreamConfig& config) {
  Rng rng(DatasetSeed(seed, 3));
  TimePoint t = 0;
  int64_t next_vid = 1;
  int64_t next_eid = 1;
  std::vector<VertexId> users;  // present users
  std::map<EdgeId, TimePoint> open_edges;  // edge -> planned removal time
  std::map<VertexId, std::set<EdgeId>> edges_of;
  std::map<EdgeId, std::pair<VertexId, VertexId>> endpoints;

  auto next_event = [&]() -> ingest::Event {
    ++t;
    // Close a message whose time has come first: edges are short-lived.
    if (!open_edges.empty()) {
      auto due = std::min_element(
          open_edges.begin(), open_edges.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      if (due->second <= t) {
        EdgeId eid = due->first;
        open_edges.erase(due);
        auto [src, dst] = endpoints[eid];
        edges_of[src].erase(eid);
        edges_of[dst].erase(eid);
        return MakeEvent(ingest::EventKind::kRemoveEdge, eid, t);
      }
    }
    double roll = rng.NextDouble();
    if (users.size() < 50 || roll < 0.22) {
      ingest::Event event =
          MakeEvent(ingest::EventKind::kAddVertex, next_vid, t);
      event.props = Properties{
          {"type", "user"},
          {"name", "user" + std::to_string(next_vid)},
          {"tier", "t" + std::to_string(rng.NextBounded(
                             static_cast<uint64_t>(config.tiers)))},
          {"editCount", static_cast<int64_t>(rng.NextBounded(1000))}};
      users.push_back(next_vid++);
      return event;
    }
    if (roll < 0.80) {
      size_t a = static_cast<size_t>(rng.NextBounded(users.size()));
      size_t b = static_cast<size_t>(rng.NextBounded(users.size() - 1));
      if (b >= a) ++b;
      ingest::Event event = MakeEvent(ingest::EventKind::kAddEdge, next_eid, t);
      event.src = users[a];
      event.dst = users[b];
      event.props = Properties{{"type", "message"}};
      endpoints[next_eid] = {event.src, event.dst};
      edges_of[event.src].insert(next_eid);
      edges_of[event.dst].insert(next_eid);
      open_edges[next_eid] =
          t + 1 + static_cast<TimePoint>(rng.NextBounded(40));
      ++next_eid;
      return event;
    }
    size_t u = static_cast<size_t>(rng.NextBounded(users.size()));
    if (roll < 0.985) {
      ingest::Event event =
          MakeEvent(ingest::EventKind::kSetVertexProperty, users[u], t);
      event.props = Properties{
          {"editCount", static_cast<int64_t>(rng.NextBounded(1000))}};
      return event;
    }
    // A user leaves; removing the vertex ends its open messages.
    VertexId vid = users[u];
    users[u] = users.back();
    users.pop_back();
    for (EdgeId eid : edges_of[vid]) {
      open_edges.erase(eid);
      auto [src, dst] = endpoints[eid];
      edges_of[src == vid ? dst : src].erase(eid);
    }
    edges_of.erase(vid);
    return MakeEvent(ingest::EventKind::kRemoveVertex, vid, t);
  };

  LiveStream stream;
  constexpr int64_t kPrefixBatch = 512;
  for (int64_t done = 0; done < config.prefix_events;) {
    std::vector<ingest::Event> batch;
    for (int64_t i = 0; i < kPrefixBatch && done < config.prefix_events;
         ++i, ++done) {
      batch.push_back(next_event());
    }
    stream.prefix.push_back(std::move(batch));
  }
  for (int64_t b = 0; b < config.batches; ++b) {
    std::vector<ingest::Event> batch;
    for (int64_t i = 0; i < config.batch_events; ++i) {
      batch.push_back(next_event());
    }
    stream.batches.push_back(std::move(batch));
  }
  stream.last_time = t;
  return stream;
}

std::vector<std::string> LiveReadScripts(const std::string& dir,
                                         TimePoint horizon) {
  // Three scripts of similar cost: p50 of the reads sits at the 1/3
  // quantile of the zoom latencies (one read in four is a fast VIEW), and
  // a cheap script there would put it on the boundary between two.
  // Each query zooms into the second half of the history, where the
  // writer's events land.
  const std::string slice = "LOAD '" + dir + "' AS g;\nSET s = SLICE g FROM " +
                            std::to_string(horizon / 2) + " TO " +
                            std::to_string(horizon) + ";\n";
  std::vector<std::string> scripts;
  scripts.push_back(slice +
                    "SET z = AZOOM s BY tier AGGREGATE COUNT() AS users;\n"
                    "INFO z;");
  scripts.push_back(slice +
                    "SET z = AZOOM s BY tier AGGREGATE COUNT() AS users, "
                    "MAX(editCount) AS top;\nINFO z;");
  scripts.push_back(slice + "SET z = WZOOM s WINDOW " +
                    std::to_string(std::max<TimePoint>(1, horizon / 40)) +
                    " NODES EXISTS EDGES EXISTS;\nINFO z;");
  return scripts;
}

std::string LiveViewDdl(const std::string& name, const std::string& dir) {
  return "CREATE VIEW " + name + " ON '" + dir +
         "' AS AZOOM BY tier AGGREGATE COUNT() AS users;";
}

std::vector<int> LiveReadRequests(uint64_t seed, int reader, size_t count,
                                  size_t num_scripts) {
  Rng rng(Mix64(seed ^ (0x11fe0000ULL + static_cast<uint64_t>(reader))));
  std::vector<int> out;
  out.reserve(count);
  std::vector<size_t> order;
  size_t queries = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % 4 == 3) {
      out.push_back(-1);
      continue;
    }
    // Rounds of each script once, in a seeded order (as in serve-zoom).
    if (queries % num_scripts == 0) order = Shuffled(num_scripts, &rng);
    out.push_back(static_cast<int>(order[queries++ % num_scripts]));
  }
  return out;
}

std::string EncodeBatches(
    const std::vector<std::vector<ingest::Event>>& batches) {
  std::string out;
  for (const auto& batch : batches) ingest::EncodeEvents(batch, &out);
  return out;
}

}  // namespace tgraph::perfbench
