// Independent answer checker for the end-to-end benchmark.
//
// Nothing here calls into the engine's matching code: similarities come
// from the checker's own BFS over the ontology graph, edges are read
// through the data graph's adjacency accessors, and the top-K oracle is a
// separate adjacency-driven branch-and-bound search.  It shares no search
// kernel with KMatch, so a KMatch fault cannot hide in both.

#ifndef OSQBENCH_CHECKER_H_
#define OSQBENCH_CHECKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/match.h"
#include "graph/graph.h"
#include "ontology/ontology_graph.h"

namespace osqbench {

class Checker {
 public:
  // Borrows both graphs; they must outlive the checker and stay unchanged
  // while it is used.  Answers are checked under induced ("iff")
  // semantics, the engine's default.
  Checker(const osq::Graph& data, const osq::OntologyGraph& ontology);

  // Validates one engine answer: injective mappings onto existing nodes,
  // every node similarity >= theta, query edges equal to data edges
  // between matched nodes (labels included, both directions, self-loops
  // too), score == sum of similarities, at most k matches, sorted
  // non-increasing by score, no mapping twice.  Returns "" when valid,
  // else a description of the first violation.  With check_edges false
  // the edge test is skipped (for answers taken while the edges were
  // changing; node labels never change).
  std::string Validate(const osq::Graph& query, double theta, size_t k,
                       const std::vector<osq::Match>& matches,
                       bool check_edges = true) const;

  // The exact top-k score multiset (sorted non-increasing) of `query`,
  // from the checker's own branch-and-bound enumerator.
  std::vector<double> OracleTopScores(const osq::Graph& query, double theta,
                                      size_t k) const;

  // Validate() plus a comparison of the answer's scores with the oracle's
  // multiset.  Returns "" when the answer is right.
  std::string Check(const osq::Graph& query, double theta, size_t k,
                    const std::vector<osq::Match>& matches) const;

 private:
  const osq::Graph& data_;
  const osq::OntologyGraph& ontology_;
  // nodes_by_label_[l] = data nodes labelled l, ascending.
  std::vector<std::vector<osq::NodeId>> nodes_by_label_;
};

}  // namespace osqbench

#endif  // OSQBENCH_CHECKER_H_
