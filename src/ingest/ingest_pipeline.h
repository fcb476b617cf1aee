// IngestPipeline — the live write path (DESIGN.md §14).
//
// Producers Submit() individual GraphUpdates; a single background worker
// drains them into batches under a write-batching policy and applies each
// batch through an UpdateSink as ONE snapshot cut.  Batching is what makes
// incremental maintenance affordable online: every cut pays a fixed cost
// (exclusive lock acquisition, version advance, result-cache sweep), so
// amortizing it over max_batch updates divides the fixed overhead — and
// the reader-visible invalidation rate — by the batch size, at the price
// of bounded staleness (max_linger_ms).
//
// Batching policy: an update waits at most max_linger_ms from the moment
// the OLDEST pending update was accepted; the worker cuts a batch as soon
// as max_batch updates are pending, the linger expires, or a Flush/Stop
// demands immediate drain.  Backpressure: at most max_pending accepted-
// but-unapplied updates; beyond that Submit() rejects (returns false)
// rather than queueing unboundedly — callers see overload explicitly,
// mirroring the read path's admission shed.
//
// Coalescing: with coalesce_duplicates on, a submitted update is dropped
// when the LAST pending update on the same edge triple has the same kind.
// This is exactly the set of safe drops: graph mutations are idempotent
// (AddEdge/RemoveEdge skip duplicates/missing edges), so back-to-back
// same-kind updates on a triple leave the second a guaranteed no-op.  An
// intervening opposite-kind update on the triple makes the later
// duplicate meaningful again (insert–delete–insert must keep the final
// insert), which the last-kind rule preserves; see
// IngestPipelineTest.CoalescingPreservesInsertDeleteInsert.
//
// Threading: all queue state is guarded by one mutex; the sink is invoked
// OUTSIDE it (the serving tiers have their own snapshot locks), so
// producers and Flush waiters are never blocked behind index maintenance.
// At most one ApplyBatch is in flight at any time.

#ifndef OSQ_INGEST_INGEST_PIPELINE_H_
#define OSQ_INGEST_INGEST_PIPELINE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/annotations.h"
#include "core/index_maintenance.h"
#include "ingest/update_sink.h"

namespace osq {

struct IngestOptions {
  // Cut a batch as soon as this many updates are pending.
  size_t max_batch = 64;
  // ... or when the oldest pending update has waited this long.
  double max_linger_ms = 2.0;
  // Backpressure bound on accepted-but-unapplied updates; 0 = unbounded.
  size_t max_pending = 8192;
  // Drop updates that are guaranteed no-ops given the pending queue (see
  // file comment for the exact rule and its safety argument).
  bool coalesce_duplicates = true;
};

// Point-in-time pipeline counters (monotonic unless noted).
struct IngestStats {
  // Producer side.
  uint64_t submitted = 0;   // Submit() calls
  uint64_t accepted = 0;    // enqueued (submitted - rejected - coalesced)
  uint64_t rejected = 0;    // backpressure rejections
  uint64_t coalesced = 0;   // dropped as guaranteed no-ops
  // Consumer side.
  uint64_t batches = 0;     // snapshot cuts taken
  uint64_t applied = 0;     // updates that changed the graph
  uint64_t skipped = 0;     // no-ops that reached the sink anyway
  uint64_t invalid = 0;     // rejected: an endpoint id out of range
  double apply_ms = 0.0;    // total wall time inside the sink
  // Gauges.
  uint64_t backlog = 0;         // accepted, not yet applied
  double applied_lag_ms = 0.0;  // age of the last applied batch's oldest
                                // update when its cut became visible
  double max_applied_lag_ms = 0.0;

  // Updates absorbed per snapshot cut: how much write-side work each
  // reader-visible invalidation amortizes.  >1 means batching is earning
  // its keep; includes coalesced drops since they also rode this cut.
  double coalescing_ratio() const {
    return batches > 0 ? static_cast<double>(applied + skipped + invalid +
                                                 coalesced) /
                             static_cast<double>(batches)
                       : 0.0;
  }

  std::string ToString() const;
};

class IngestPipeline {
 public:
  // `sink` is borrowed and must outlive the pipeline.  The worker thread
  // starts immediately.
  explicit IngestPipeline(UpdateSink* sink,
                          const IngestOptions& options = IngestOptions{});
  ~IngestPipeline();  // Stop()s if the caller has not

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  // Enqueues one update.  Returns false when the pipeline is stopped or
  // the backpressure bound is hit (the update is NOT queued); returns
  // true when the update was accepted or safely coalesced away.
  // [[nodiscard]]: a dropped return value hides backpressure.
  [[nodiscard]] bool Submit(const GraphUpdate& update);

  // Convenience fan-in; returns how many of `updates` were accepted or
  // coalesced (a partial count < size() means backpressure kicked in).
  [[nodiscard]] size_t SubmitAll(const std::vector<GraphUpdate>& updates);

  // Blocks until every update accepted before this call has been applied
  // (linger is bypassed for the flushed prefix).  Safe from any thread
  // except the worker itself.
  void Flush();

  // Flush, then join the worker.  Idempotent; Submit() after Stop()
  // returns false.
  void Stop();

  IngestStats Stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    GraphUpdate update;
    Clock::time_point accepted_at;
  };
  // Coalescing key: edge triple + update kind of the LAST pending update
  // on that triple, with a pending count so entries die when the queue
  // drains past them.
  struct TripleState {
    GraphUpdate::Kind last_kind;
    size_t pending = 0;
  };
  using TripleKey = std::tuple<NodeId, NodeId, LabelId>;

  void WorkerLoop();

  UpdateSink* sink_;
  const IngestOptions options_;

  mutable std::mutex mu_;
  std::condition_variable worker_cv_;   // wakes the worker
  std::condition_variable retired_cv_;  // wakes Flush waiters
  std::deque<Pending> pending_ OSQ_GUARDED_BY(mu_);
  std::map<TripleKey, TripleState> triple_states_ OSQ_GUARDED_BY(mu_);
  // Accepted (enqueued) vs retired (applied through a cut) sequence
  // numbers; Flush(target) waits for retired_seq_ >= target.
  uint64_t accepted_seq_ OSQ_GUARDED_BY(mu_) = 0;
  uint64_t retired_seq_ OSQ_GUARDED_BY(mu_) = 0;
  // Worker bypasses linger while retired_seq_ < flush_target_.
  uint64_t flush_target_ OSQ_GUARDED_BY(mu_) = 0;
  bool stop_ OSQ_GUARDED_BY(mu_) = false;

  // Counters (Stats() snapshots under the lock).
  IngestStats stats_ OSQ_GUARDED_BY(mu_);

  // The handle is claimed (moved out) under mu_ by Stop(); the thread
  // itself runs WorkerLoop.
  std::thread worker_ OSQ_GUARDED_BY(mu_);
};

}  // namespace osq

#endif  // OSQ_INGEST_INGEST_PIPELINE_H_
