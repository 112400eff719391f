#include "tgraph/coalesce.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgraph {

History CoalesceHistory(History history) {
  std::erase_if(history,
                [](const HistoryItem& item) { return item.interval.empty(); });
  auto by_interval = [](const HistoryItem& a, const HistoryItem& b) {
    return a.interval < b.interval;
  };
  if (!std::is_sorted(history.begin(), history.end(), by_interval)) {
    std::sort(history.begin(), history.end(), by_interval);
  }
  // Compacts in place: `kept` items of the prefix are final, each later
  // item either extends the last kept one or becomes the next kept one.
  size_t kept = 0;
  int64_t merged = 0;
  for (size_t i = 0; i < history.size(); ++i) {
    if (kept > 0 && history[kept - 1].interval.Mergeable(history[i].interval) &&
        history[kept - 1].properties == history[i].properties) {
      history[kept - 1].interval =
          history[kept - 1].interval.Merge(history[i].interval);
      ++merged;
    } else {
      if (kept != i) history[kept] = std::move(history[i]);
      ++kept;
    }
  }
  history.erase(history.begin() + static_cast<ptrdiff_t>(kept), history.end());
  // Merge accounting only under tracing: this runs once per entity, so an
  // unconditional shared atomic would contend on the default hot path.
  if (merged > 0 && obs::Tracer::enabled()) {
    static obs::Counter* merges = obs::MetricsRegistry::Global().GetCounter(
        obs::metric_names::kCoalesceMergedItems);
    merges->Add(merged);
  }
  return history;
}

bool IsCoalescedHistory(const History& history) {
  for (size_t i = 0; i < history.size(); ++i) {
    if (history[i].interval.empty()) return false;
    if (i == 0) continue;
    const Interval& prev = history[i - 1].interval;
    const Interval& cur = history[i].interval;
    if (!(prev < cur) || prev.Overlaps(cur)) return false;
    if (prev.Meets(cur) && history[i - 1].properties == history[i].properties) {
      return false;
    }
  }
  return true;
}

namespace {

// Finds the item of a sorted, disjoint history covering time point t, or
// nullptr. Linear scan with a moving cursor would be faster in the sweeps
// below, but histories are short (a handful of states per entity).
const HistoryItem* FindCovering(const History& history, TimePoint t) {
  auto it = std::upper_bound(
      history.begin(), history.end(), t,
      [](TimePoint tp, const HistoryItem& item) { return tp < item.interval.start; });
  if (it == history.begin()) return nullptr;
  --it;
  return it->interval.Contains(t) ? &*it : nullptr;
}

}  // namespace

History MergeHistories(const History& a, const History& b,
                       const PropertiesMerge& merge) {
  // Elementary segments: between consecutive boundary points of both inputs.
  std::set<TimePoint> boundaries;
  for (const HistoryItem& item : a) {
    boundaries.insert(item.interval.start);
    boundaries.insert(item.interval.end);
  }
  for (const HistoryItem& item : b) {
    boundaries.insert(item.interval.start);
    boundaries.insert(item.interval.end);
  }
  History result;
  if (boundaries.size() < 2) return result;
  auto it = boundaries.begin();
  TimePoint prev = *it;
  for (++it; it != boundaries.end(); ++it) {
    Interval segment(prev, *it);
    prev = *it;
    const HistoryItem* in_a = FindCovering(a, segment.start);
    const HistoryItem* in_b = FindCovering(b, segment.start);
    if (in_a == nullptr && in_b == nullptr) continue;
    Properties props;
    if (in_a != nullptr && in_b != nullptr) {
      props = merge(in_a->properties, in_b->properties);
    } else if (in_a != nullptr) {
      props = in_a->properties;
    } else {
      props = in_b->properties;
    }
    result.push_back(HistoryItem{segment, std::move(props)});
  }
  return CoalesceHistory(std::move(result));
}

History ClipHistory(History history, const Interval& window) {
  size_t kept = 0;
  for (size_t i = 0; i < history.size(); ++i) {
    Interval clipped = history[i].interval.Intersect(window);
    if (clipped.empty()) continue;
    if (kept != i) history[kept] = std::move(history[i]);
    history[kept].interval = clipped;
    ++kept;
  }
  history.erase(history.begin() + static_cast<ptrdiff_t>(kept), history.end());
  return history;
}

History IntersectHistoryPresence(const History& history, const History& mask) {
  History result;
  for (const HistoryItem& item : history) {
    for (const HistoryItem& m : mask) {
      Interval overlap = item.interval.Intersect(m.interval);
      if (!overlap.empty()) {
        result.push_back(HistoryItem{overlap, item.properties});
      }
    }
  }
  return CoalesceHistory(std::move(result));
}

History SubtractHistoryPresence(const History& history, const History& mask) {
  History result;
  for (const HistoryItem& item : history) {
    std::vector<Interval> remaining = {item.interval};
    for (const HistoryItem& m : mask) {
      std::vector<Interval> next;
      for (const Interval& piece : remaining) {
        IntervalDifference(piece, m.interval, &next);
      }
      remaining = std::move(next);
      if (remaining.empty()) break;
    }
    for (const Interval& piece : remaining) {
      result.push_back(HistoryItem{piece, item.properties});
    }
  }
  return CoalesceHistory(std::move(result));
}

History IntersectHistories(const History& a, const History& b,
                           const PropertiesMerge& merge) {
  History result;
  for (const HistoryItem& item_a : a) {
    for (const HistoryItem& item_b : b) {
      Interval overlap = item_a.interval.Intersect(item_b.interval);
      if (!overlap.empty()) {
        result.push_back(
            HistoryItem{overlap, merge(item_a.properties, item_b.properties)});
      }
    }
  }
  return CoalesceHistory(std::move(result));
}

int64_t HistoryCoveredDuration(const History& history) {
  std::vector<Interval> intervals;
  intervals.reserve(history.size());
  for (const HistoryItem& item : history) intervals.push_back(item.interval);
  return CoveredDuration(intervals);
}

Interval HistorySpan(const History& history) {
  Interval span;
  for (const HistoryItem& item : history) {
    span = span.Merge(item.interval);
  }
  return span;
}

}  // namespace tgraph
