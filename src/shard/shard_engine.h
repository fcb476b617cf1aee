// Per-shard engine adapter for the sharded serving tier (DESIGN.md §13).
//
// ShardEngine is the ONLY shard-layer component allowed to touch
// QueryEngine / Graph internals (enforced by the osq-shard-isolation lint
// rule): it owns one QueryEngine built over the shard's induced subgraph
// and translates between the shard's local id space and global ids.
//
// Query(query, pivot, options) runs the standard filter-and-verify
// pipeline on the shard with ONE extra step: the pivot query node's
// candidate list is restricted to nodes this shard *owns* before
// verification.  Every global match maps the pivot to exactly one data
// node, and that node is owned by exactly one shard — so the restriction
// partitions the global match set across shards with no duplicates and no
// gaps (halo replication guarantees the rest of each match is present;
// see shard/partitioner.h).  Returned matches use GLOBAL node ids and
// canonical scores, so the coordinator's merge is bit-identical to a
// single-engine evaluation.

#ifndef OSQ_SHARD_SHARD_ENGINE_H_
#define OSQ_SHARD_SHARD_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "core/options.h"
#include "core/query_engine.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "ontology/ontology_graph.h"
#include "shard/partitioner.h"

namespace osq {

class ShardEngine {
 public:
  // Builds the shard's QueryEngine over spec.sub with the shared ontology
  // (copied — engines own their graphs) and index options.
  ShardEngine(const ShardSpec& spec, const OntologyGraph& ontology,
              const IndexOptions& index_options);

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;
  ShardEngine(ShardEngine&&) = default;
  ShardEngine& operator=(ShardEngine&&) = default;

  // Precomputes the query's label-similarity tables (ontology balls) for
  // reuse across the whole scatter: the tables depend only on the shared
  // ontology / similarity function / theta, so the coordinator calls this
  // ONCE per request on any shard and passes the result to every
  // Query(...) call — query preprocessing cost stays O(1) in the shard
  // count.
  [[nodiscard]] QuerySimTables PrepareQuery(const Graph& query,
                                            const QueryOptions& options) const;

  // Evaluates `query` against this shard, keeping only matches whose
  // `pivot` image is owned here.  Matches come back in global ids.
  // `deadline` is the ABSOLUTE deadline fixed once by the coordinator
  // before the scatter, so a shard that starts late (stalled sibling,
  // queueing) sees the same expiry as the rest of the fan-out instead of
  // a fresh budget.  `shared_sims` (optional) carries PrepareQuery's
  // tables.  NOT synchronized — the coordinator serializes via its
  // snapshot lock.
  [[nodiscard]] QueryResult Query(const Graph& query, NodeId pivot,
                                  const QueryOptions& options,
                                  const Deadline& deadline,
                                  const QuerySimTables* shared_sims =
                                      nullptr) const;

  // Applies one delta op, translating global ids to shard-local ones.
  // Unknown endpoints are a routing bug upstream and are skipped.
  // ApplyUpdateGlobal adds the engine's maintenance counts to *stats when
  // given.
  void AddNodeGlobal(NodeId global, LabelId label, bool owned);
  bool ApplyUpdateGlobal(const GraphUpdate& update,
                         MaintenanceStats* stats = nullptr);

  // Monotone per-shard snapshot version (one component of the service's
  // VersionVector); advances on every mutating call that changed the
  // shard graph.
  uint64_t version() const { return engine_.version(); }

  size_t num_nodes() const { return engine_.graph().num_nodes(); }
  size_t num_owned() const { return num_owned_; }

 private:
  NodeId LocalOf(NodeId global) const {
    return global < from_global_.size() ? from_global_[global]
                                        : kInvalidNode;
  }

  QueryEngine engine_;
  // local -> global id, parallel to the shard graph's nodes.
  std::vector<NodeId> to_global_;
  // global -> local id (kInvalidNode when not a member); grows with the
  // global id space.
  std::vector<NodeId> from_global_;
  // owned_[local] != 0 iff this shard owns the node (pivot restriction).
  std::vector<char> owned_;
  size_t num_owned_ = 0;
};

}  // namespace osq

#endif  // OSQ_SHARD_SHARD_ENGINE_H_
