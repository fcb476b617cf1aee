// ServeFrontEnd — the serving shell both tiers share (DESIGN.md §8).
//
// A single-threaded backend (ServeBackend: one engine, or N shards behind
// a scatter-gather coordinator) evaluates queries and applies updates.
// The front end makes it safe to query from any number of threads while
// update batches apply atomically:
//
//   * Readers hold a std::shared_mutex in shared mode for the whole
//     evaluation, writers hold it exclusively: every query observes one
//     snapshot cut, the backend's VersionVector, never a half-applied
//     batch.
//   * A write-intent gate bounds a writer's wait under closed-loop reads
//     (DESIGN.md §14): writers hold it across the exclusive acquisition,
//     readers pass through it before taking the shared lock.
//   * A versioned LRU cache (serve/result_cache.h) serves a result only
//     if its stamp equals the cut the reader observes; only complete, OK
//     results are cached.
//   * ServeOptions::max_inflight sheds excess requests before the lock;
//     ServeOptions::default_deadline_ms applies to requests without one
//     (DESIGN.md §9).
//   * Relaxed counters and latency histograms feed Stats() at any time.

#ifndef OSQ_SERVE_FRONT_END_H_
#define OSQ_SERVE_FRONT_END_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/annotations.h"
#include "core/index_maintenance.h"
#include "core/options.h"
#include "core/query_engine.h"
#include "graph/graph.h"
#include "serve/result_cache.h"
#include "serve/serve_stats.h"

namespace osq {

// What the front end serves from.  Not synchronized: the front end calls
// Evaluate under its shared snapshot lock and the mutating calls under its
// exclusive one.
class ServeBackend {
 public:
  ServeBackend() = default;
  // The front end holds a backend by address.
  ServeBackend(const ServeBackend&) = delete;
  ServeBackend& operator=(const ServeBackend&) = delete;
  virtual ~ServeBackend() = default;

  // Evaluates `query`; adds the shards that contributed nothing to
  // *shards_failed.
  [[nodiscard]] virtual QueryResult Evaluate(const Graph& query,
                                             const QueryOptions& options,
                                             size_t* shards_failed) const = 0;
  // Applies `batch` in order as one snapshot cut.
  [[nodiscard]] virtual MaintenanceStats Apply(
      const std::vector<GraphUpdate>& batch) = 0;
  virtual NodeId AddNode(LabelId label) = 0;
  // The current snapshot cut.
  [[nodiscard]] virtual VersionVector Version() const = 0;
};

// A QueryResult plus per-request serving metadata.
struct FrontEndResult {
  QueryResult result;
  // True when the result came out of the cache without touching the
  // backend.
  bool cache_hit = false;
  // True when the request was shed at admission: result.status is
  // kUnavailable, nothing was evaluated and `version` is empty.
  bool shed = false;
  // Snapshot cut the result reflects.
  VersionVector version;
  // Shards that contributed nothing (fault hook); always 0 on one engine.
  size_t shards_failed = 0;
  // Time spent waiting for the shared snapshot lock, microseconds.
  double wait_us = 0.0;
  // End-to-end service time (wait + cache probe + evaluation), us.
  double serve_us = 0.0;
};

class ServeFrontEnd {
 public:
  // `backend` is borrowed and must outlive the front end.
  ServeFrontEnd(ServeBackend* backend, const ServeOptions& options);

  ServeFrontEnd(const ServeFrontEnd&) = delete;
  ServeFrontEnd& operator=(const ServeFrontEnd&) = delete;

  // Evaluates `query` against the current snapshot cut.  Safe to call
  // from any number of threads, concurrently with the mutating calls.
  [[nodiscard]] FrontEndResult Query(const Graph& query,
                                     const QueryOptions& options);

  // Mutations, each atomic with respect to Query.  [[nodiscard]]: the
  // stats carry the applied/skipped/invalid split — dropping them hides a
  // batch that silently no-opped.
  [[nodiscard]] MaintenanceStats ApplyUpdates(
      const std::vector<GraphUpdate>& updates);
  NodeId AddNode(LabelId label);

  // Current snapshot cut.
  VersionVector version() const;

  // Point-in-time counters; callable concurrently with traffic.
  // ServeStats::version is the sum of the cut's components.
  ServeStats Stats() const;

  size_t cache_size() const { return cache_.size(); }
  // Queries currently admitted and executing (instantaneous gauge).
  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  // The write path of ApplyUpdates and AddNode: applies `*batch`, or adds
  // one node labelled `node_label` (returned via *added) when `batch` is
  // null.
  MaintenanceStats Write(const std::vector<GraphUpdate>* batch,
                         LabelId node_label, NodeId* added);

  ServeOptions options_;
  // Write-intent gate: see the fairness note in the file comment.
  // Ordering is always gate THEN mu_; readers never hold both.
  std::mutex writer_gate_ OSQ_ACQUIRED_BEFORE(mu_);
  mutable std::shared_mutex mu_;
  // Borrowed; readers call it under the shared lock, writers under the
  // exclusive one.
  ServeBackend* const backend_ OSQ_GUARDED_BY(mu_);
  // backend_->Version() as of the last write, so a read makes no backend
  // call on a cache hit.
  VersionVector version_ OSQ_GUARDED_BY(mu_);
  // Internally synchronized (own mutex) — deliberately not GUARDED_BY.
  ResultCache cache_;

  // Admission gauge: queries past the shed check and not yet finished.
  std::atomic<size_t> inflight_{0};
  // Writers pending or writing: incremented before a writer queues on the
  // gate, decremented after its locks release.  Readers sample it to
  // classify themselves into the write-burst latency split.
  std::atomic<uint64_t> writers_pending_{0};

  // Counters (relaxed; see serve_stats.h for the rationale).
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> complete_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> shard_unavailable_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> update_batches_{0};
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> nodes_added_{0};
  std::atomic<uint64_t> read_wait_tenth_us_{0};
  std::atomic<uint64_t> write_wait_tenth_us_{0};
  std::atomic<uint64_t> write_apply_tenth_us_{0};
  LatencyHistogram hit_latency_;
  LatencyHistogram miss_latency_;
  LatencyHistogram degraded_latency_;
  LatencyHistogram burst_read_latency_;
};

}  // namespace osq

#endif  // OSQ_SERVE_FRONT_END_H_
