// Incremental ontology-index maintenance — algorithm incIdx (paper §VI).
//
// Given a batch of edge insertions/deletions ΔG, incIdx repairs every
// concept graph of the index in place instead of rebuilding it: the blocks
// containing the edge endpoints are re-split to restore the signature
// invariant, violations are propagated to neighboring blocks (the paper's
// propUp/propDown), and blocks satisfying the merge condition (same concept
// label, same successor- and predecessor-block sets) are merged back.  The
// cost is measured in AFF — the number of blocks touched — matching the
// paper's O(|AFF|^2 + |I|) bound rather than the size of G.
//
// Protocol: these functions mutate BOTH the data graph and the index; the
// graph passed must be the exact graph instance the index was built over.

#ifndef OSQ_CORE_INDEX_MAINTENANCE_H_
#define OSQ_CORE_INDEX_MAINTENANCE_H_

#include <cstddef>
#include <vector>

#include "core/ontology_index.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace osq {

// One element of ΔG.
struct GraphUpdate {
  enum class Kind { kInsertEdge, kDeleteEdge };
  Kind kind = Kind::kInsertEdge;
  EdgeTriple edge;

  static GraphUpdate Insert(NodeId from, NodeId to,
                            LabelId label = kDefaultEdgeLabel) {
    return {Kind::kInsertEdge, {from, to, label}};
  }
  static GraphUpdate Delete(NodeId from, NodeId to,
                            LabelId label = kDefaultEdgeLabel) {
    return {Kind::kDeleteEdge, {from, to, label}};
  }
};

struct MaintenanceStats {
  // Updates applied to the data graph (duplicates/missing edges skipped).
  size_t applied = 0;
  size_t skipped = 0;
  // Updates rejected because an endpoint is not a node of the graph.
  size_t invalid = 0;
  // Total AFF blocks summed over updates and concept graphs.
  size_t aff_blocks = 0;
  size_t splits = 0;
  size_t merges = 0;
};

// Applies one update; returns false (and leaves everything unchanged) when
// the update is a no-op (duplicate insertion / missing deletion) or
// invalid (an endpoint id >= g->num_nodes(); counted in stats->invalid).
bool ApplyUpdate(Graph* g, OntologyIndex* index, const GraphUpdate& update,
                 MaintenanceStats* stats = nullptr);

// Applies a batch of updates in order.
MaintenanceStats ApplyUpdates(Graph* g, OntologyIndex* index,
                              const std::vector<GraphUpdate>& updates);

// Adds a node to the graph and registers it with every concept graph.
NodeId AddNodeWithIndex(Graph* g, OntologyIndex* index, LabelId label);

}  // namespace osq

#endif  // OSQ_CORE_INDEX_MAINTENANCE_H_
