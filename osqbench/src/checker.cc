#include "checker.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <queue>
#include <set>
#include <sstream>
#include <unordered_map>

namespace osqbench {

using osq::AdjEntry;
using osq::Graph;
using osq::LabelId;
using osq::Match;
using osq::NodeId;

namespace {

// Similarity base of the engine's default (exponential) model.
constexpr double kSimBase = 0.9;

// Scores are sums of at most a handful of powers of 0.9, so any two
// summation orders agree far inside this tolerance.
constexpr double kScoreTol = 1e-9;

// Largest hop distance whose similarity still clears theta.
uint32_t RadiusFor(double theta) {
  uint32_t d = 0;
  while (d < 64 && std::pow(kSimBase, d + 1) >= theta - 1e-12) ++d;
  return d;
}

// True when the edges from -> to carry the same labels in both graphs.
// EdgeLabelRange is the run of `from`'s sorted out-adjacency that points
// at `to`, so equal runs mean equal label sets.
bool SameEdges(const Graph& a, NodeId a_from, NodeId a_to, const Graph& b,
               NodeId b_from, NodeId b_to) {
  Graph::EdgeLabelView x = a.EdgeLabelRange(a_from, a_to);
  Graph::EdgeLabelView y = b.EdgeLabelRange(b_from, b_to);
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].label != y[i].label) return false;
  }
  return true;
}

// Query node u's similarity table plus the largest similarity any data
// label offers it (the optimistic per-node bound).
struct NodeSims {
  std::unordered_map<LabelId, double> sims;
  double best = 0.0;
};

struct Anchor {
  size_t placed_pos;  // position in the order of the already-placed node
  bool out;           // true: edge placed -> u, false: u -> placed
  LabelId label;
};

// Label -> similarity for one query label, for every data label whose
// similarity clears theta: kSimBase^dist, dist from an unweighted BFS over
// the ontology's relations.
std::unordered_map<LabelId, double> SimilarLabels(
    const osq::OntologyGraph& ontology, LabelId query_label, double theta) {
  std::unordered_map<LabelId, double> out;
  out[query_label] = 1.0;
  if (!ontology.ContainsLabel(query_label)) return out;
  uint32_t radius = RadiusFor(theta);
  std::unordered_map<LabelId, uint32_t> dist{{query_label, 0}};
  std::deque<LabelId> frontier{query_label};
  while (!frontier.empty()) {
    LabelId l = frontier.front();
    frontier.pop_front();
    uint32_t d = dist[l];
    if (d == radius) continue;
    for (LabelId n : ontology.Neighbors(l)) {
      if (dist.emplace(n, d + 1).second) {
        out[n] = std::pow(kSimBase, d + 1);
        frontier.push_back(n);
      }
    }
  }
  return out;
}

}  // namespace

Checker::Checker(const Graph& data, const osq::OntologyGraph& ontology)
    : data_(data), ontology_(ontology) {
  for (NodeId v = 0; v < data_.num_nodes(); ++v) {
    LabelId l = data_.NodeLabel(v);
    if (l >= nodes_by_label_.size()) nodes_by_label_.resize(l + 1);
    nodes_by_label_[l].push_back(v);
  }
}

std::string Checker::Validate(const Graph& query, double theta, size_t k,
                              const std::vector<Match>& matches,
                              bool check_edges) const {
  const size_t nq = query.num_nodes();
  std::ostringstream err;
  if (k > 0 && matches.size() > k) {
    err << matches.size() << " matches for k=" << k;
    return err.str();
  }
  std::vector<std::unordered_map<LabelId, double>> sims(nq);
  for (NodeId u = 0; u < nq; ++u) {
    sims[u] = SimilarLabels(ontology_, query.NodeLabel(u), theta);
  }
  std::set<std::vector<NodeId>> seen;
  for (size_t i = 0; i < matches.size(); ++i) {
    const Match& m = matches[i];
    if (m.mapping.size() != nq) {
      err << "match " << i << " maps " << m.mapping.size() << " of " << nq
          << " query nodes";
      return err.str();
    }
    if (!seen.insert(m.mapping).second) {
      err << "match " << i << " repeats an earlier mapping";
      return err.str();
    }
    std::set<NodeId> image;
    double score = 0.0;
    for (NodeId u = 0; u < nq; ++u) {
      NodeId v = m.mapping[u];
      if (v >= data_.num_nodes()) {
        err << "match " << i << " maps query node " << u
            << " to missing node " << v;
        return err.str();
      }
      if (!image.insert(v).second) {
        err << "match " << i << " is not injective (node " << v << ")";
        return err.str();
      }
      auto it = sims[u].find(data_.NodeLabel(v));
      if (it == sims[u].end()) {
        err << "match " << i << " maps query node " << u
            << " below theta";
        return err.str();
      }
      score += it->second;
    }
    if (std::abs(score - m.score) > kScoreTol) {
      err << "match " << i << " scores " << m.score << ", recomputed "
          << score;
      return err.str();
    }
    for (NodeId u = 0; check_edges && u < nq; ++u) {
      for (NodeId w = 0; w < nq; ++w) {
        if (!SameEdges(query, u, w, data_, m.mapping[u], m.mapping[w])) {
          err << "match " << i << " breaks the edge iff between query nodes "
              << u << " and " << w;
          return err.str();
        }
      }
    }
    if (i > 0 && m.score > matches[i - 1].score + kScoreTol) {
      err << "match " << i << " outscores match " << i - 1;
      return err.str();
    }
  }
  return "";
}

std::vector<double> Checker::OracleTopScores(const Graph& query, double theta,
                                             size_t k) const {
  const size_t nq = query.num_nodes();
  std::vector<NodeSims> node_sims(nq);
  std::vector<size_t> cand_count(nq, 0);
  for (NodeId u = 0; u < nq; ++u) {
    node_sims[u].sims = SimilarLabels(ontology_, query.NodeLabel(u), theta);
    for (const auto& [label, sim] : node_sims[u].sims) {
      if (label < nodes_by_label_.size() && !nodes_by_label_[label].empty()) {
        cand_count[u] += nodes_by_label_[label].size();
        node_sims[u].best = std::max(node_sims[u].best, sim);
      }
    }
  }
  // Matching order: the rarest node first, then always a node adjacent to
  // the placed prefix (queries are connected), preferring the one with
  // the most placed neighbours.  Each later node is reached through the
  // adjacency of one placed neighbour (its anchor).
  std::vector<NodeId> order;
  std::vector<Anchor> anchors;
  std::vector<int> pos(nq, -1);
  NodeId first = 0;
  for (NodeId u = 1; u < nq; ++u) {
    if (cand_count[u] < cand_count[first]) first = u;
  }
  order.push_back(first);
  anchors.push_back({0, false, 0});
  pos[first] = 0;
  while (order.size() < nq) {
    NodeId best = osq::kInvalidNode;
    size_t best_links = 0;
    Anchor best_anchor{0, false, 0};
    for (NodeId u = 0; u < nq; ++u) {
      if (pos[u] >= 0) continue;
      size_t links = 0;
      Anchor anchor{0, false, 0};
      for (const AdjEntry& e : query.InEdges(u)) {  // placed -> u
        if (pos[e.node] >= 0) {
          anchor = {static_cast<size_t>(pos[e.node]), true, e.label};
          ++links;
        }
      }
      for (const AdjEntry& e : query.OutEdges(u)) {  // u -> placed
        if (pos[e.node] >= 0) {
          anchor = {static_cast<size_t>(pos[e.node]), false, e.label};
          ++links;
        }
      }
      if (links == 0) continue;
      if (best == osq::kInvalidNode || links > best_links ||
          (links == best_links && cand_count[u] < cand_count[best])) {
        best = u;
        best_links = links;
        best_anchor = anchor;
      }
    }
    if (best == osq::kInvalidNode) return {};  // disconnected query
    pos[best] = static_cast<int>(order.size());
    order.push_back(best);
    anchors.push_back(best_anchor);
  }
  std::vector<double> suffix(nq + 1, 0.0);
  for (size_t i = nq; i > 0; --i) {
    suffix[i - 1] = suffix[i] + node_sims[order[i - 1]].best;
  }

  // Root candidates, most similar first so the bound bites early.
  std::vector<std::pair<double, NodeId>> roots;
  for (const auto& [label, sim] : node_sims[first].sims) {
    if (label >= nodes_by_label_.size()) continue;
    for (NodeId v : nodes_by_label_[label]) roots.push_back({sim, v});
  }
  std::sort(roots.begin(), roots.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });

  std::vector<NodeId> assign(nq, osq::kInvalidNode);
  std::vector<char> used(data_.num_nodes(), 0);
  // Min-heap of the best k scores found so far.
  std::priority_queue<double, std::vector<double>, std::greater<double>> top;

  auto full = [&] { return k > 0 && top.size() == k; };
  // Edges between the candidate v for order[i] and every placed node must
  // equal the query's, in both directions, self-loops included.
  auto consistent = [&](size_t i, NodeId v) {
    NodeId u = order[i];
    if (!SameEdges(query, u, u, data_, v, v)) return false;
    for (size_t j = 0; j < i; ++j) {
      NodeId w = order[j];
      if (!SameEdges(query, u, w, data_, v, assign[w]) ||
          !SameEdges(query, w, u, data_, assign[w], v)) {
        return false;
      }
    }
    return true;
  };
  std::function<void(size_t, double)> extend = [&](size_t i, double score) {
    if (i == nq) {
      if (!full()) {
        top.push(score);
      } else if (score > top.top() + kScoreTol) {
        top.pop();
        top.push(score);
      }
      return;
    }
    const NodeId u = order[i];
    const Anchor& a = anchors[i];
    NodeId from = assign[order[a.placed_pos]];
    Graph::AdjSpan adj = a.out ? data_.OutEdges(from) : data_.InEdges(from);
    for (const AdjEntry& e : adj) {
      if (e.label != a.label || used[e.node]) continue;
      auto it = node_sims[u].sims.find(data_.NodeLabel(e.node));
      if (it == node_sims[u].sims.end()) continue;
      // A branch that can at best tie the k-th score cannot change the
      // top-k score multiset.
      if (full() && score + it->second + suffix[i + 1] <=
                        top.top() + kScoreTol) {
        continue;
      }
      if (!consistent(i, e.node)) continue;
      assign[u] = e.node;
      used[e.node] = 1;
      extend(i + 1, score + it->second);
      used[e.node] = 0;
      assign[u] = osq::kInvalidNode;
    }
  };
  for (const auto& [sim, v] : roots) {
    if (full() && sim + suffix[1] <= top.top() + kScoreTol) break;
    if (!consistent(0, v)) continue;
    assign[first] = v;
    used[v] = 1;
    extend(1, sim);
    used[v] = 0;
    assign[first] = osq::kInvalidNode;
  }
  std::vector<double> scores;
  while (!top.empty()) {
    scores.push_back(top.top());
    top.pop();
  }
  std::reverse(scores.begin(), scores.end());
  return scores;
}

std::string Checker::Check(const Graph& query, double theta, size_t k,
                           const std::vector<Match>& matches) const {
  std::string err = Validate(query, theta, k, matches);
  if (!err.empty()) return err;
  std::vector<double> want = OracleTopScores(query, theta, k);
  std::ostringstream msg;
  if (want.size() != matches.size()) {
    msg << "engine returned " << matches.size() << " matches, oracle "
        << want.size();
    return msg.str();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::abs(want[i] - matches[i].score) > kScoreTol) {
      msg << "score " << i << " is " << matches[i].score << ", oracle "
          << want[i];
      return msg.str();
    }
  }
  return "";
}

}  // namespace osqbench
