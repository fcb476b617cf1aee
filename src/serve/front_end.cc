#include "serve/front_end.h"

#include <mutex>
#include <string>

#include "common/status.h"
#include "common/timer.h"

namespace osq {

ServeFrontEnd::ServeFrontEnd(ServeBackend* backend,
                             const ServeOptions& options)
    : options_(options),
      backend_(backend),
      version_(backend->Version()),
      cache_(options.cache_capacity) {}

FrontEndResult ServeFrontEnd::Query(const Graph& query,
                                    const QueryOptions& options) {
  FrontEndResult served;
  WallTimer total;

  // Admission control: count this request against the in-flight bound and
  // shed before taking the lock or touching the backend, so overload
  // cannot pile up lock waiters.  The gauge may transiently overshoot the
  // bound between the fetch_add and the rollback; admitted requests never
  // do.
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (options_.max_inflight > 0 &&
      inflight_.load(std::memory_order_relaxed) > options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    served.shed = true;
    served.result.status = Status::Unavailable(
        "query shed: service at max_inflight capacity");
    served.serve_us = total.ElapsedMicros();
    shed_.fetch_add(1, std::memory_order_relaxed);
    return served;
  }

  // A request without its own deadline inherits the configured default.
  // The cache signature ignores deadlines (a complete result is
  // deadline-invariant), so this never splits keys.
  QueryOptions effective = options;
  if (effective.deadline_ms <= 0.0 && options_.default_deadline_ms > 0.0) {
    effective.deadline_ms = options_.default_deadline_ms;
  }
  // A pure function of the inputs: build it before taking the lock.
  std::string key = QuerySignature(query, effective);

  WallTimer wait;
  // Burst classification: sample the writer gauge on arrival and again
  // after acquiring the shared lock, so a read that either waited behind a
  // writer or ran concurrently with one lands in the burst latency split.
  bool write_burst = writers_pending_.load(std::memory_order_relaxed) > 0;
  {
    // Passing through the gate stalls this reader behind any writer that
    // holds it, which is what bounds the writer's wait.
    std::scoped_lock<std::mutex> gate(writer_gate_);
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  served.wait_us = wait.ElapsedMicros();
  read_wait_tenth_us_.fetch_add(ToTenthUs(served.wait_us),
                                std::memory_order_relaxed);
  write_burst =
      write_burst || writers_pending_.load(std::memory_order_relaxed) > 0;
  served.version = version_;

  if (cache_.Lookup(key, served.version, &served.result)) {
    served.cache_hit = true;
  } else {
    served.result =
        backend_->Evaluate(query, effective, &served.shards_failed);
    if (served.result.status.ok() && served.result.complete()) {
      cache_.Insert(key, served.version, served.result);
    }
  }
  lock.unlock();
  inflight_.fetch_sub(1, std::memory_order_relaxed);

  served.serve_us = total.ElapsedMicros();
  queries_.fetch_add(1, std::memory_order_relaxed);
  switch (served.result.completeness) {
    case StopReason::kNone:
      complete_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StopReason::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StopReason::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StopReason::kShardUnavailable:
      shard_unavailable_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (served.cache_hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_latency_.Record(served.serve_us);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (served.result.complete()) {
      miss_latency_.Record(served.serve_us);
    } else {
      degraded_latency_.Record(served.serve_us);
    }
  }
  if (write_burst) burst_read_latency_.Record(served.serve_us);
  return served;
}

MaintenanceStats ServeFrontEnd::ApplyUpdates(
    const std::vector<GraphUpdate>& updates) {
  return Write(&updates, 0, nullptr);
}

NodeId ServeFrontEnd::AddNode(LabelId label) {
  NodeId added = kInvalidNode;
  Write(nullptr, label, &added);
  return added;
}

MaintenanceStats ServeFrontEnd::Write(const std::vector<GraphUpdate>* batch,
                                      LabelId node_label, NodeId* added) {
  WallTimer wait;
  writers_pending_.fetch_add(1, std::memory_order_relaxed);
  GaugeDecrementGuard pending(writers_pending_);
  std::scoped_lock<std::mutex> gate(writer_gate_);
  std::unique_lock<std::shared_mutex> lock(mu_);
  write_wait_tenth_us_.fetch_add(ToTenthUs(wait.ElapsedMicros()),
                                 std::memory_order_relaxed);
  WallTimer apply;
  update_batches_.fetch_add(1, std::memory_order_relaxed);
  MaintenanceStats stats;
  bool changed = true;
  if (batch != nullptr) {
    stats = backend_->Apply(*batch);
    updates_applied_.fetch_add(stats.applied, std::memory_order_relaxed);
    changed = stats.applied > 0;
  } else {
    // A new node is observable (a single-node query can match it), so the
    // add is a cut of its own, counted apart from edge churn.
    *added = backend_->AddNode(node_label);
    nodes_added_.fetch_add(1, std::memory_order_relaxed);
  }
  // A no-op batch leaves the snapshot cut, and so the cache, unchanged.
  if (changed) {
    // Copied into version_'s own storage, not moved: adopting the
    // temporary's buffer keeps one more small block live after every write,
    // which moves the adjacency the engine grows on the next write; that
    // made KMatch ~10% slower on osqbench's flickr-verify (4-vCPU x86-64).
    const VersionVector cut = backend_->Version();
    version_ = cut;
    invalidations_.fetch_add(cache_.Invalidate(version_),
                             std::memory_order_relaxed);
  }
  write_apply_tenth_us_.fetch_add(ToTenthUs(apply.ElapsedMicros()),
                                  std::memory_order_relaxed);
  return stats;
}

VersionVector ServeFrontEnd::version() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return version_;
}

ServeStats ServeFrontEnd::Stats() const {
  ServeStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.cache_hits = hits_.load(std::memory_order_relaxed);
  s.cache_misses = misses_.load(std::memory_order_relaxed);
  s.complete = complete_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.shard_unavailable = shard_unavailable_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.cache_evictions = cache_.evictions();
  // Invalidations = writer's eager sweeps plus entries dropped lazily at
  // lookup time when their version stamp no longer matched.
  s.cache_invalidations = invalidations_.load(std::memory_order_relaxed) +
                          cache_.stale_drops();
  s.update_batches = update_batches_.load(std::memory_order_relaxed);
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  s.nodes_added = nodes_added_.load(std::memory_order_relaxed);
  for (uint64_t component : version().v) s.version += component;
  auto us = [](const std::atomic<uint64_t>& tenth_us) {
    return static_cast<double>(tenth_us.load(std::memory_order_relaxed)) /
           10.0;
  };
  s.read_wait_us = us(read_wait_tenth_us_);
  s.write_wait_us = us(write_wait_tenth_us_);
  s.write_apply_us = us(write_apply_tenth_us_);
  s.hit_latency = hit_latency_.Summarize();
  s.miss_latency = miss_latency_.Summarize();
  s.degraded_latency = degraded_latency_.Summarize();
  s.burst_read_latency = burst_read_latency_.Summarize();
  return s;
}

}  // namespace osq
