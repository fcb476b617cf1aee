// The checker's own test: an engine answer on a small hand-made graph must
// pass, and the same answer with a corrupted mapping, a wrong score or a
// dropped match must be rejected.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "checker.h"

namespace osqbench {

namespace {

struct Case {
  const char* name;
  std::vector<osq::Match> answer;
  bool want_pass;
};

}  // namespace

int RunSelfTest() {
  osq::LabelDictionary dict;
  auto L = [&](const char* name) { return dict.Intern(name); };
  osq::OntologyGraph o;
  o.AddRelation(L("animal"), L("cat"));
  o.AddRelation(L("animal"), L("dog"));
  o.AddRelation(L("place"), L("park"));
  const osq::LabelId at = L("at");
  const osq::LabelId near = L("near");

  // Two cats and two dogs, each at one of two parks; one cat is near a dog.
  osq::Graph g;
  osq::NodeId cat0 = g.AddNode(L("cat"));
  osq::NodeId dog1 = g.AddNode(L("dog"));
  osq::NodeId park2 = g.AddNode(L("park"));
  osq::NodeId cat3 = g.AddNode(L("cat"));
  osq::NodeId park4 = g.AddNode(L("park"));
  osq::NodeId dog5 = g.AddNode(L("dog"));
  g.AddEdge(cat0, park2, at);
  g.AddEdge(dog1, park2, at);
  g.AddEdge(cat3, park4, at);
  g.AddEdge(dog5, park4, at);
  g.AddEdge(cat0, dog1, near);

  // (x:cat)-[at]->(p:park); at theta 0.8 dogs match x with sim 0.81.
  osq::Graph q;
  q.AddNode(L("cat"));
  q.AddNode(L("park"));
  q.AddEdge(0, 1, at);
  const double theta = 0.8;
  const size_t k = 10;

  osq::QueryEngine engine(g, o, osq::IndexOptions{});
  osq::QueryOptions options;
  options.theta = theta;
  options.k = k;
  osq::QueryResult r = engine.Query(q, options);
  if (!r.status.ok() || r.matches.size() != 4) {
    std::printf("selftest: engine returned %zu matches, expected 4\n",
                r.matches.size());
    return 1;
  }
  Checker checker(g, o);

  std::vector<Case> cases;
  cases.push_back({"engine answer", r.matches, true});
  {
    std::vector<osq::Match> a = r.matches;
    // Keep the labels right but point at a cat with no edge to the park.
    a[0].mapping[0] = a[0].mapping[0] == cat0 ? cat3 : cat0;
    cases.push_back({"corrupted mapping (edge)", a, false});
  }
  {
    std::vector<osq::Match> a = r.matches;
    a[1].mapping[1] = a[1].mapping[0];
    cases.push_back({"corrupted mapping (not injective)", a, false});
  }
  {
    std::vector<osq::Match> a = r.matches;
    a[2].score += 0.05;
    cases.push_back({"wrong score", a, false});
  }
  {
    std::vector<osq::Match> a = r.matches;
    a.erase(a.begin() + 1);
    cases.push_back({"dropped match", a, false});
  }
  {
    std::vector<osq::Match> a = r.matches;
    std::swap(a[0], a[3]);
    cases.push_back({"unsorted answer", a, false});
  }

  int failures = 0;
  for (const Case& c : cases) {
    std::string err = checker.Check(q, theta, k, c.answer);
    bool passed = err.empty();
    bool ok = passed == c.want_pass;
    std::printf("selftest %-34s %s%s%s\n", c.name,
                passed ? "accepted" : "rejected", err.empty() ? "" : ": ",
                err.c_str());
    if (!ok) {
      std::printf("selftest FAILED: %s was %s\n", c.name,
                  passed ? "accepted" : "rejected");
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace osqbench
