#ifndef TGRAPH_PERFBENCH_ORACLES_H_
#define TGRAPH_PERFBENCH_ORACLES_H_

// Correctness oracles. Each returns a non-OK Status describing the first
// mismatch; the workloads count one as a failed operation and make the
// run exit non-zero.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tgraph/tgraph.h"

namespace tgraph::perfbench {

/// Canonical, order-independent rendering of a graph's content: the
/// sorted "V ..."/"E ..." lines of its coalesced VE form.
std::vector<std::string> CanonicalLines(const TGraph& graph);
/// FNV hash of the joined canonical lines (the same hash a materialized
/// view prints as its "content" line).
uint64_t Fingerprint(const std::vector<std::string>& lines);
uint64_t Fingerprint(const TGraph& graph);

/// zoom-batch, per timed operation: the materialized record count.
Status CheckRecordCount(int64_t expected, int64_t got);
/// zoom-batch, outside the timed window: the full content fingerprint.
Status CheckFingerprint(uint64_t expected, const TGraph& got);

/// serve-zoom: a response body must equal the in-process interpreter's.
Status CheckBody(const std::string& expected, const std::string& got);

/// serve-live: the reopened live graph must equal the offline build of
/// every acknowledged event.
Status CheckLiveEqualsOffline(const TGraph& offline, const TGraph& live);

/// serve-live: a `VIEW` response must name the record counts and content
/// hash of the same zoom recomputed offline (`zoomed`).
Status CheckViewBody(const TGraph& zoomed, const std::string& body);

}  // namespace tgraph::perfbench

#endif  // TGRAPH_PERFBENCH_ORACLES_H_
