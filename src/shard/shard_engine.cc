#include "shard/shard_engine.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "core/filtering.h"
#include "core/kmatch.h"
#include "graph/query_graph.h"

namespace osq {

ShardEngine::ShardEngine(const ShardSpec& spec, const OntologyGraph& ontology,
                         const IndexOptions& index_options)
    : engine_(spec.sub.graph, ontology, index_options),
      to_global_(spec.members),
      from_global_(spec.sub.from_original),
      owned_(spec.owned.begin(), spec.owned.end()) {
  for (char o : owned_) num_owned_ += o != 0 ? 1 : 0;
}

QuerySimTables ShardEngine::PrepareQuery(const Graph& query,
                                         const QueryOptions& options) const {
  return ComputeQuerySimTables(engine_.index().ontology(),
                               engine_.index().sim(), query, options.theta);
}

QueryResult ShardEngine::Query(const Graph& query, NodeId pivot,
                               const QueryOptions& options,
                               const Deadline& deadline,
                               const QuerySimTables* shared_sims) const {
  QueryResult result;
  result.status = ValidateQuery(query);
  if (!result.status.ok()) return result;

  // Mirror QueryEngine::Query: one control block carries the absolute
  // deadline (fixed by the coordinator) so filtering and verification on
  // every shard share one budget.
  ExecControl exec;
  exec.deadline = deadline;
  exec.cancel = options.cancel;
  // A shard that starts past the shared deadline (stalled sibling, queue
  // delay) must not burn a fresh budget: report the degradation without
  // doing any work.  The amortized in-loop polls would otherwise let a
  // small shard run to completion before the first stride fires.
  StopReason early = exec.Check();
  if (early != StopReason::kNone) {
    result.completeness = early;
    return result;
  }
  WallTimer timer;
  // The ownership restriction is pushed INTO the filter: seeding the pivot
  // from owned nodes only lets both refinement fixpoints propagate the cut
  // to the other query nodes, so per-shard filter cost tracks the shard's
  // partition instead of re-running the full filter on the halo-inflated
  // subgraph (this is what keeps N-shard scatter overhead structural).
  PivotRestriction restriction;
  restriction.query_node = pivot;
  restriction.allowed = &owned_;
  FilterResult filter = GviewFilter(engine_.index(), query, options, &exec,
                                    &restriction, shared_sims);
  result.filter_ms = timer.ElapsedMillis();
  result.filter_stats = filter.stats;

  // Belt-and-braces dedup: the restriction above already confined pivot
  // candidates to owned nodes; keep the explicit erase so ownership never
  // silently leaks even if the filter path changes.  Candidate node ids
  // are G_v-local; hop through gv.to_original to shard-local ids.
  if (!filter.no_match && pivot < filter.candidates.size()) {
    std::vector<Candidate>& pivots = filter.candidates[pivot];
    pivots.erase(std::remove_if(pivots.begin(), pivots.end(),
                                [&](const Candidate& c) {
                                  NodeId local =
                                      filter.gv.to_original[c.node];
                                  return owned_[local] == 0;
                                }),
                 pivots.end());
  }

  timer.Restart();
  result.matches = KMatch(query, filter, options, &result.verify_stats, &exec);
  result.verify_ms = timer.ElapsedMillis();
  result.completeness =
      MergeStopReason(filter.stats.stopped, result.verify_stats.stopped);

  // KMatch translated G_v-local to shard-local ids; lift to global ids so
  // the coordinator's merge compares matches in one shared namespace.
  // Scores are canonical per-label sums, already shard-invariant.
  for (Match& m : result.matches) {
    for (NodeId& v : m.mapping) {
      if (v != kInvalidNode) v = to_global_[v];
    }
  }
  return result;
}

void ShardEngine::AddNodeGlobal(NodeId global, LabelId label, bool owned) {
  if (LocalOf(global) != kInvalidNode) return;  // already a member
  NodeId local = engine_.AddNode(label);
  if (to_global_.size() <= local) to_global_.resize(local + 1, kInvalidNode);
  to_global_[local] = global;
  if (from_global_.size() <= global) {
    from_global_.resize(global + 1, kInvalidNode);
  }
  from_global_[global] = local;
  if (owned_.size() <= local) owned_.resize(local + 1, 0);
  owned_[local] = owned ? 1 : 0;
  if (owned) ++num_owned_;
}

bool ShardEngine::ApplyUpdateGlobal(const GraphUpdate& update,
                                    MaintenanceStats* stats) {
  NodeId from = LocalOf(update.edge.from);
  NodeId to = LocalOf(update.edge.to);
  if (from == kInvalidNode || to == kInvalidNode) return false;
  GraphUpdate local = update;
  local.edge.from = from;
  local.edge.to = to;
  return engine_.ApplyUpdate(local, stats);
}

}  // namespace osq
