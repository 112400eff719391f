#ifndef TGRAPH_PERFBENCH_WORKLOADS_H_
#define TGRAPH_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace tgraph::perfbench {

// Each workload sets itself up (several times, for setup_s), runs its
// timed window, checks every result, and adds its metrics to `report`.
// With args.trace it also records benchmark-side spans and adds the
// per-layer metrics.

/// An analyst's zoom queries, store on disk -> materialized result.
void RunZoomBatch(const Args& args, Report* report);
/// Read-only tgraphd traffic over resident stores, 4 closed-loop clients.
void RunServeZoom(const Args& args, Report* report);
/// An open-loop ingest writer beside 3 closed-loop readers of a live
/// graph with a materialized view.
void RunServeLive(const Args& args, Report* report);

}  // namespace tgraph::perfbench

#endif  // TGRAPH_PERFBENCH_WORKLOADS_H_
