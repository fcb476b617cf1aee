// QueryService — the single-engine serving tier: one QueryEngine behind
// the shared serving front end (serve/front_end.h, DESIGN.md §8), which
// supplies snapshot isolation, writer fairness, the versioned result
// cache, admission control and ServeStats.  The snapshot cut is the
// one-component vector {QueryEngine::version()}.

#ifndef OSQ_SERVE_QUERY_SERVICE_H_
#define OSQ_SERVE_QUERY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/index_maintenance.h"
#include "core/options.h"
#include "core/query_engine.h"
#include "graph/graph.h"
#include "serve/front_end.h"
#include "serve/serve_stats.h"

namespace osq {

// A QueryResult plus per-request serving metadata.
struct ServedResult {
  QueryResult result;
  // True when the result came out of the cache without touching the engine.
  bool cache_hit = false;
  // True when the request was rejected at admission (max_inflight exceeded);
  // result.status is kUnavailable, no evaluation happened and `version` is
  // 0.
  bool shed = false;
  // Snapshot version the result reflects (monotone; one mutating batch
  // advances it by one).
  uint64_t version = 0;
  // Time spent waiting to acquire the shared snapshot lock, microseconds.
  double wait_us = 0.0;
  // End-to-end service time (wait + cache probe + engine), microseconds.
  double serve_us = 0.0;
};

// The single-engine backend.  QueryEngine::version() advances on exactly
// the mutating calls that changed the graph, so it is the snapshot cut.
class EngineBackend final : public ServeBackend {
 public:
  explicit EngineBackend(QueryEngine engine) : engine_(std::move(engine)) {}

  QueryResult Evaluate(const Graph& query, const QueryOptions& options,
                       size_t* /*shards_failed*/) const override {
    return engine_.Query(query, options);
  }
  MaintenanceStats Apply(const std::vector<GraphUpdate>& batch) override {
    return engine_.ApplyUpdates(batch);
  }
  NodeId AddNode(LabelId label) override { return engine_.AddNode(label); }
  VersionVector Version() const override {
    return VersionVector::Scalar(engine_.version());
  }

  const QueryEngine& engine() const { return engine_; }

 private:
  QueryEngine engine_;
};

class QueryService {
 public:
  // Takes ownership of a fully built engine.
  explicit QueryService(QueryEngine engine,
                        const ServeOptions& options = ServeOptions{})
      : backend_(std::move(engine)), front_end_(&backend_, options) {}

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Evaluates `query` against the current snapshot; safe to call from any
  // number of threads concurrently with the mutating calls below.
  // [[nodiscard]]: the result carries the status (including Unavailable
  // shed signals) — dropping it hides overload.
  [[nodiscard]] ServedResult Query(const Graph& query,
                                   const QueryOptions& options) {
    FrontEndResult r = front_end_.Query(query, options);
    return ServedResult{std::move(r.result), r.cache_hit, r.shed,
                        r.version.v.empty() ? 0 : r.version.v.front(),
                        r.wait_us, r.serve_us};
  }

  // Mutations.  Each call that changes the graph applies atomically with
  // respect to Query and advances the snapshot version by one.
  bool ApplyUpdate(const GraphUpdate& update) {
    return front_end_.ApplyUpdates({update}).applied > 0;
  }
  [[nodiscard]] MaintenanceStats ApplyUpdates(
      const std::vector<GraphUpdate>& updates) {
    return front_end_.ApplyUpdates(updates);
  }
  NodeId AddNode(LabelId label) { return front_end_.AddNode(label); }

  // Current snapshot version: the engine's version() (0 for a freshly
  // built or loaded engine).
  uint64_t version() const { return front_end_.version().v.front(); }
  ServeStats Stats() const { return front_end_.Stats(); }
  size_t cache_size() const { return front_end_.cache_size(); }
  size_t inflight() const { return front_end_.inflight(); }
  ServeFrontEnd* front_end() { return &front_end_; }

  // Direct engine access for setup / inspection.  NOT synchronized —
  // callers must guarantee no concurrent Query/Apply* is in flight.
  const QueryEngine& engine_unsynchronized() const {
    return backend_.engine();
  }

 private:
  EngineBackend backend_;  // before front_end_, which borrows it
  ServeFrontEnd front_end_;
};

}  // namespace osq

#endif  // OSQ_SERVE_QUERY_SERVICE_H_
