// ShardedQueryService — scatter-gather serving across N graph shards
// (DESIGN.md §13): a ShardedBackend behind the shared serving front end
// (serve/front_end.h).
//
// The backend scatters each query to every shard engine on the shared
// thread pool and merges the per-shard top-K streams.  Every shard returns
// its exact top-K under MatchBetter with canonical scores and global node
// ids, and pivot ownership (shard/shard_engine.h) partitions the global
// match set, so concatenate + sort + trim is bit-identical to one engine
// for every shard count and both partitioning policies.  The snapshot cut
// is a VERSION VECTOR with one component per shard, so one stale shard
// invalidates a cached entry.  Degradation: the first shard to exceed the
// deadline cancels its siblings (reported as deadline_exceeded, not
// cancelled); a shard failed by the ShardFaultHook test seam contributes
// StopReason::kShardUnavailable.

#ifndef OSQ_SHARD_SHARDED_QUERY_SERVICE_H_
#define OSQ_SHARD_SHARDED_QUERY_SERVICE_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/index_maintenance.h"
#include "core/options.h"
#include "graph/graph.h"
#include "ontology/ontology_graph.h"
#include "serve/front_end.h"
#include "serve/serve_stats.h"
#include "shard/partitioner.h"
#include "shard/shard_engine.h"

namespace osq {

// A merged QueryResult plus per-request serving metadata: the cut is the
// per-shard version vector and `shards_failed` counts the shards that
// contributed nothing.
using ShardedServedResult = FrontEndResult;

// Test seam: called at the start of each shard's scatter task; a non-OK
// status fails that shard for this request (the coordinator degrades
// instead of hanging).  Install before serving traffic.
using ShardFaultHook = std::function<Status(size_t shard)>;

// The scatter-gather backend: the shard engines, the update router and the
// fault hook.
class ShardedBackend final : public ServeBackend {
 public:
  // `g` and `ontology` are copied (each shard owns its slice); `plan` must
  // have been computed over `g`.
  ShardedBackend(const Graph& g, const OntologyGraph& ontology,
                 const IndexOptions& index_options, const ShardPlan& plan);

  // Queries whose pivot eccentricity exceeds the configured halo_radius
  // are rejected with kInvalidArgument (a shard could miss match nodes).
  QueryResult Evaluate(const Graph& query, const QueryOptions& options,
                       size_t* shards_failed) const override;
  // Routes each update to the shard(s) holding its endpoints.
  // applied/skipped/invalid are the router's global counts; aff_blocks,
  // splits and merges are summed over the shard engines that took each
  // update.
  MaintenanceStats Apply(const std::vector<GraphUpdate>& batch) override;
  NodeId AddNode(LabelId label) override;
  VersionVector Version() const override;

  size_t num_shards() const { return shards_.size(); }
  void set_fault_hook(ShardFaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  // Adds the engines' maintenance counts to *stats when given.
  void ApplyDeltas(const std::vector<ShardDelta>& deltas,
                   MaintenanceStats* stats);

  ShardOptions shard_options_;
  std::vector<ShardEngine> shards_;
  UpdateRouter router_;
  ShardFaultHook fault_hook_;
};

// One ShardedBackend behind the serving front end.
class ShardedQueryService {
 public:
  // Partitions `g` per `shard_options` and builds one engine per shard.
  ShardedQueryService(const Graph& g, const OntologyGraph& ontology,
                      const IndexOptions& index_options,
                      const ShardOptions& shard_options,
                      const ServeOptions& serve_options = ServeOptions{})
      : backend_(g, ontology, index_options,
                 GraphPartitioner(g, shard_options).Partition()),
        front_end_(&backend_, serve_options) {}

  ShardedQueryService(const ShardedQueryService&) = delete;
  ShardedQueryService& operator=(const ShardedQueryService&) = delete;

  // Scatter-gather evaluation against the current snapshot cut.  Safe to
  // call concurrently with itself and with the mutating calls below.
  [[nodiscard]] ShardedServedResult Query(const Graph& query,
                                          const QueryOptions& options) {
    return front_end_.Query(query, options);
  }

  // Mutations: routed to the owning shard(s) and applied atomically with
  // respect to Query — readers see the whole routed batch or none of it.
  bool ApplyUpdate(const GraphUpdate& update) {
    return front_end_.ApplyUpdates({update}).applied > 0;
  }
  [[nodiscard]] MaintenanceStats ApplyUpdates(
      const std::vector<GraphUpdate>& updates) {
    return front_end_.ApplyUpdates(updates);
  }
  NodeId AddNode(LabelId label) { return front_end_.AddNode(label); }

  // Current per-shard snapshot cut; ServeStats::version is its sum.
  VersionVector version() const { return front_end_.version(); }
  ServeStats Stats() const { return front_end_.Stats(); }
  size_t num_shards() const { return backend_.num_shards(); }
  size_t cache_size() const { return front_end_.cache_size(); }
  size_t inflight() const { return front_end_.inflight(); }
  ServeFrontEnd* front_end() { return &front_end_; }

  // Install the fault-injection seam.  Not synchronized against in-flight
  // queries — call before serving traffic (tests only).
  void set_fault_hook(ShardFaultHook hook) {
    backend_.set_fault_hook(std::move(hook));
  }

 private:
  ShardedBackend backend_;  // before front_end_, which borrows it
  ServeFrontEnd front_end_;
};

}  // namespace osq

#endif  // OSQ_SHARD_SHARDED_QUERY_SERVICE_H_
