// osq_cli — command-line front end for the OSQ library.
//
//   osq_cli generate --type crossdomain --scale 5000 --seed 7
//           --graph g.txt --ontology o.txt
//   osq_cli index    --graph g.txt --ontology o.txt --out idx.txt
//           [--beta 0.81] [--n 2] [--seed 42] [--threads N]
//   osq_cli snapshot --graph g.txt --ontology o.txt --out engine.snp
//           [index flags]          (build engine, save binary v2 snapshot)
//   osq_cli query    --graph g.txt --ontology o.txt
//           --pattern '(t:tourists)-[guide]->(m:museum)'
//           [--index idx.txt] [--theta 0.9] [--k 10] [--explain]
//           [--semantics induced|homomorphic] [--threads N]
//           [--deadline-ms 0]
//   osq_cli query    --snapshot engine.snp --pattern ...
//           (cold start from the binary snapshot; no text parsing,
//            no index build)
//   osq_cli bench    --graph g.txt --ontology o.txt --queries q.txt
//           [--theta 0.9] [--k 10] [--reps 3] [--threads N]
//   osq_cli serve-bench --graph g.txt --ontology o.txt --queries q.txt
//           [--snapshot engine.snp]   (start from the binary snapshot
//            instead of building the index)
//           [--theta 0.9] [--k 10] [--threads 4] [--requests 200]
//           [--cache 256] [--update-interval-ms 0] [--deadline-ms 0]
//           [--max-inflight 0]
//           [--shards N] [--shard-policy hash|range] [--halo 2]
//           (--shards > 0 serves through the scatter-gather
//            ShardedQueryService: N partitioned engines, merged top-K
//            bit-identical to a single engine, vector-stamped cache;
//            requires --graph/--ontology, not --snapshot)
//   osq_cli ingest-bench --graph g.txt --ontology o.txt --queries q.txt
//           [--steps 400] [--batch 64] [--linger-ms 2] [--max-pending 8192]
//           [--churn-seed 1448] [--threads 2] [--deadline-ms 100]
//           [--theta 0.9] [--k 10] [--cache 256]
//           [--shards N] [--shard-policy hash|range] [--halo 2]
//           (stream a churn workload through the live-ingest pipeline —
//            batched, coalesced, one snapshot cut per batch — while
//            --threads reader threads serve the patterns closed-loop;
//            prints pipeline + service stats: backlog, applied lag,
//            coalescing ratio, in-lock apply cost, burst-read p99)
//   osq_cli stats    --graph g.txt --ontology o.txt
//
// --threads N parallelizes index build and query evaluation over N threads
// (0 = all hardware threads); results are identical for every N.
// serve-bench instead uses --threads as the number of concurrent client
// threads driving a QueryService closed-loop (snapshot-isolated reads,
// LRU result cache); --update-interval-ms > 0 adds a writer thread
// toggling an edge update at that period.
// --deadline-ms > 0 bounds each query's evaluation time; an interrupted
// query returns the (valid) matches found so far, flagged as
// deadline_exceeded.  serve-bench's --max-inflight > 0 bounds admitted
// concurrent queries — excess requests are shed with UNAVAILABLE.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime errors.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/explain.h"
#include "core/index_io.h"
#include "core/query_engine.h"
#include "core/snapshot.h"
#include "gen/churn.h"
#include "gen/scenarios.h"
#include "gen/synthetic.h"
#include "graph/graph_algorithms.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_sink.h"
#include "shard/sharded_query_service.h"
#include "graph/graph_io.h"
#include "query/pattern_parser.h"
#include "serve/front_end.h"
#include "serve/query_service.h"

namespace {

using namespace osq;

using FlagMap = std::map<std::string, std::string>;

// Parses "--flag value" pairs; returns false on malformed input.
bool ParseFlags(int argc, char** argv, int start, FlagMap* flags) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return false;
    }
    std::string name = arg.substr(2);
    // Boolean flags may omit the value.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      (*flags)[name] = argv[++i];
    } else {
      (*flags)[name] = "1";
    }
  }
  return true;
}

std::string GetFlag(const FlagMap& flags, const std::string& name,
                    const std::string& def) {
  auto it = flags.find(name);
  return it == flags.end() ? def : it->second;
}

double GetDouble(const FlagMap& flags, const std::string& name, double def) {
  auto it = flags.find(name);
  return it == flags.end() ? def : std::atof(it->second.c_str());
}

size_t GetSize(const FlagMap& flags, const std::string& name, size_t def) {
  auto it = flags.find(name);
  return it == flags.end() ? def
                           : static_cast<size_t>(
                                 std::strtoull(it->second.c_str(), nullptr,
                                               10));
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

int Usage() {
  std::fprintf(stderr,
               "usage: osq_cli "
               "<generate|index|snapshot|query|bench|serve-bench|"
               "ingest-bench|stats> [--flags]\n"
               "see the header of tools/osq_cli.cc for details\n");
  return 1;
}

int CmdGenerate(const FlagMap& flags) {
  std::string type = GetFlag(flags, "type", "crossdomain");
  std::string graph_path = GetFlag(flags, "graph", "");
  std::string ontology_path = GetFlag(flags, "ontology", "");
  if (graph_path.empty() || ontology_path.empty()) {
    std::fprintf(stderr, "generate needs --graph and --ontology paths\n");
    return 1;
  }
  gen::ScenarioParams params;
  params.scale = GetSize(flags, "scale", 2000);
  params.seed = GetSize(flags, "seed", 7);

  gen::Dataset ds;
  if (type == "crossdomain") {
    ds = gen::MakeCrossDomainLike(params);
  } else if (type == "flickr") {
    ds = gen::MakeFlickrLike(params);
  } else if (type == "random") {
    gen::SyntheticGraphParams gp;
    gp.num_nodes = params.scale;
    gp.num_edges = params.scale * 4;
    gp.num_labels = GetSize(flags, "labels", 100);
    gp.seed = params.seed;
    ds.graph = gen::MakeRandomGraph(gp, &ds.dict);
    gen::SyntheticOntologyParams op;
    op.num_labels = gp.num_labels;
    op.seed = params.seed + 1;
    ds.ontology = gen::MakeTaxonomyOntology(op, &ds.dict);
  } else {
    std::fprintf(stderr, "unknown --type '%s'\n", type.c_str());
    return 1;
  }
  Status s = SaveGraphToFile(ds.graph, ds.dict, graph_path);
  if (!s.ok()) return Fail(s);
  s = SaveOntology(ds.ontology, ds.dict, ontology_path);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s (%zu nodes, %zu edges) and %s (%zu concepts, %zu "
              "relations)\n",
              graph_path.c_str(), ds.graph.num_nodes(), ds.graph.num_edges(),
              ontology_path.c_str(), ds.ontology.num_labels(),
              ds.ontology.num_relations());
  return 0;
}

// Loads the graph + ontology named by --graph/--ontology into one dataset.
int LoadDataset(const FlagMap& flags, gen::Dataset* ds) {
  std::string graph_path = GetFlag(flags, "graph", "");
  std::string ontology_path = GetFlag(flags, "ontology", "");
  if (graph_path.empty() || ontology_path.empty()) {
    std::fprintf(stderr, "need --graph and --ontology paths\n");
    return 1;
  }
  Status s = LoadGraphFromFile(graph_path, &ds->dict, &ds->graph);
  if (!s.ok()) return Fail(s);
  s = LoadOntologyFromFile(ontology_path, &ds->dict, &ds->ontology);
  if (!s.ok()) return Fail(s);
  return 0;
}

IndexOptions IndexOptionsFromFlags(const FlagMap& flags) {
  IndexOptions idx;
  idx.beta = GetDouble(flags, "beta", idx.beta);
  idx.num_concept_graphs = GetSize(flags, "n", idx.num_concept_graphs);
  idx.seed = GetSize(flags, "seed", idx.seed);
  idx.similarity_base = GetDouble(flags, "base", idx.similarity_base);
  idx.edge_label_aware = GetFlag(flags, "edge-label-aware", "0") == "1";
  idx.num_threads = GetSize(flags, "threads", idx.num_threads);
  return idx;
}

int CmdIndex(const FlagMap& flags) {
  gen::Dataset ds;
  if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
  std::string out_path = GetFlag(flags, "out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "index needs --out path\n");
    return 1;
  }
  IndexOptions idx = IndexOptionsFromFlags(flags);
  WallTimer timer;
  IndexBuildStats stats;
  OntologyIndex index = OntologyIndex::Build(ds.graph, ds.ontology, idx,
                                             &stats);
  std::printf("built index in %.1f ms: %zu concept graphs, %zu blocks, "
              "|I|=%zu\n",
              timer.ElapsedMillis(), index.num_concept_graphs(),
              stats.total_blocks, index.TotalSize());
  Status s = SaveIndexToFile(index, ds.dict, out_path);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int CmdSnapshot(const FlagMap& flags) {
  gen::Dataset ds;
  if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
  std::string out_path = GetFlag(flags, "out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "snapshot needs --out path\n");
    return 1;
  }
  IndexOptions idx = IndexOptionsFromFlags(flags);
  WallTimer timer;
  QueryEngine engine(std::move(ds.graph), std::move(ds.ontology), idx);
  double build_ms = timer.ElapsedMillis();
  Status s = SaveEngineSnapshot(engine, ds.dict, out_path);
  if (!s.ok()) return Fail(s);
  std::printf("built engine in %.1f ms (%zu concept graphs, |I|=%zu); "
              "wrote %s\n",
              build_ms, engine.index().num_concept_graphs(),
              engine.index().TotalSize(), out_path.c_str());
  return 0;
}

int CmdQuery(const FlagMap& flags) {
  std::string pattern = GetFlag(flags, "pattern", "");
  if (pattern.empty()) {
    std::fprintf(stderr, "query needs --pattern '(a:label)-[rel]->(b:label)'\n");
    return 1;
  }

  // Data + index come either from a binary snapshot (the cold-start path:
  // mmap, validate, serve — no text parsing, no index build) or from text
  // files with the index built here (optionally overlaid from a v1 file).
  gen::Dataset ds;
  std::unique_ptr<QueryEngine> snapshot_engine;
  std::optional<OntologyIndex> built;
  LabelDictionary* dict = nullptr;
  const Graph* graph = nullptr;
  const OntologyIndex* index = nullptr;
  std::string snapshot_path = GetFlag(flags, "snapshot", "");
  if (!snapshot_path.empty()) {
    SnapshotLoadStats load_stats;
    WallTimer load_timer;
    Status s = LoadEngineSnapshot(snapshot_path, &ds.dict, &snapshot_engine,
                                  &load_stats);
    if (!s.ok()) return Fail(s);
    std::printf("loaded snapshot in %.1f ms (%zu bytes, %s)\n",
                load_timer.ElapsedMillis(), load_stats.file_bytes,
                load_stats.mapped ? "mmap" : "read");
    dict = &ds.dict;
    graph = &snapshot_engine->graph();
    index = &snapshot_engine->index();
  } else {
    if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
    IndexOptions idx = IndexOptionsFromFlags(flags);
    built.emplace(OntologyIndex::Build(ds.graph, ds.ontology, idx));
    std::string index_path = GetFlag(flags, "index", "");
    if (!index_path.empty()) {
      Status s = LoadIndexFromFile(index_path, ds.graph, ds.ontology,
                                   &ds.dict, &*built);
      if (!s.ok()) return Fail(s);
    }
    dict = &ds.dict;
    graph = &ds.graph;
    index = &*built;
  }

  ParsedPattern parsed;
  Status s = ParsePattern(pattern, dict, &parsed);
  if (!s.ok()) return Fail(s);

  QueryOptions options;
  options.theta = GetDouble(flags, "theta", options.theta);
  options.k = GetSize(flags, "k", options.k);
  options.num_threads = GetSize(flags, "threads", options.num_threads);
  options.deadline_ms = GetDouble(flags, "deadline-ms", 0.0);
  std::string semantics = GetFlag(flags, "semantics", "induced");
  if (semantics == "homomorphic") {
    options.semantics = MatchSemantics::kHomomorphicEdges;
  } else if (semantics != "induced") {
    std::fprintf(stderr, "unknown --semantics '%s'\n", semantics.c_str());
    return 1;
  }

  if (GetFlag(flags, "explain", "0") == "1") {
    std::fputs(
        ExplainQuery(*index, parsed.query, options, *dict).c_str(),
        stdout);
    return 0;
  }

  WallTimer timer;
  ExecControl exec;
  exec.deadline = Deadline::AfterMillis(options.deadline_ms);
  KMatchStats kstats;
  FilterResult filter = GviewFilter(*index, parsed.query, options, &exec);
  std::vector<Match> matches = KMatch(parsed.query, filter, options, &kstats,
                                      &exec);
  double ms = timer.ElapsedMillis();
  StopReason stopped =
      MergeStopReason(filter.stats.stopped, kstats.stopped);

  // Invert the pattern's name map for printing.
  std::vector<std::string> names(parsed.query.num_nodes());
  for (const auto& [name, id] : parsed.node_ids) {
    names[id] = name;
  }
  std::printf("%zu match(es) in %.2f ms (G_v: %zu nodes)", matches.size(),
              ms, filter.stats.gv_nodes);
  if (stopped != StopReason::kNone) {
    std::printf(" [%s: partial result]", StopReasonName(stopped));
  }
  std::printf("\n");
  for (const Match& m : matches) {
    std::printf("  score %.4f: ", m.score);
    for (NodeId u = 0; u < parsed.query.num_nodes(); ++u) {
      std::printf(" %s=%s(v%u)", names[u].c_str(),
                  dict->Name(graph->NodeLabel(m.mapping[u])).c_str(),
                  m.mapping[u]);
    }
    std::printf("\n");
  }
  return 0;
}

// Parses the --queries patterns file against `dict`; returns the exit
// status (0 on success) with the error printed.
int LoadPatternsFromFlags(const FlagMap& flags, const char* command,
                          LabelDictionary* dict,
                          std::vector<ParsedPattern>* patterns) {
  std::string path = GetFlag(flags, "queries", "");
  if (path.empty()) {
    std::fprintf(stderr, "%s needs --queries <patterns file>\n", command);
    return 1;
  }
  Status s = LoadPatternsFromFile(path, dict, patterns);
  if (!s.ok()) return Fail(s);
  if (patterns->empty()) {
    std::fprintf(stderr, "no patterns in %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int CmdBench(const FlagMap& flags) {
  gen::Dataset ds;
  if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
  std::vector<ParsedPattern> patterns;
  int rc = LoadPatternsFromFlags(flags, "bench", &ds.dict, &patterns);
  if (rc != 0) return rc;

  IndexOptions idx = IndexOptionsFromFlags(flags);
  WallTimer build_timer;
  OntologyIndex index = OntologyIndex::Build(ds.graph, ds.ontology, idx);
  std::printf("index built in %.1f ms; %zu queries from %s\n",
              build_timer.ElapsedMillis(), patterns.size(),
              GetFlag(flags, "queries", "").c_str());

  QueryOptions options;
  options.theta = GetDouble(flags, "theta", options.theta);
  options.k = GetSize(flags, "k", options.k);
  options.num_threads = GetSize(flags, "threads", options.num_threads);
  size_t reps = GetSize(flags, "reps", 3);

  std::printf("%-6s %10s %10s %10s %10s\n", "query", "ms", "|Gv|",
              "matches", "best");
  double total_ms = 0.0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Graph& q = patterns[i].query;
    size_t gv = 0;
    size_t found = 0;
    double best = 0.0;
    WallTimer timer;
    for (size_t r = 0; r < reps; ++r) {
      FilterResult filter = GviewFilter(index, q, options);
      std::vector<Match> matches = KMatch(q, filter, options);
      gv = filter.stats.gv_nodes;
      found = matches.size();
      best = matches.empty() ? 0.0 : matches[0].score;
    }
    double ms = timer.ElapsedMillis() / static_cast<double>(reps);
    total_ms += ms;
    std::printf("%-6zu %10.3f %10zu %10zu %10.3f\n", i + 1, ms, gv, found,
                best);
  }
  std::printf("total %.3f ms, avg %.3f ms/query\n", total_ms,
              total_ms / static_cast<double>(patterns.size()));
  return 0;
}

// --shards / --shard-policy / --halo, shared by serve-bench and
// ingest-bench.  Returns false (after printing why) on a bad policy.
// Without --shards the other two flags are unused and not parsed.
bool ShardOptionsFromFlags(const FlagMap& flags, ShardOptions* out) {
  out->num_shards = GetSize(flags, "shards", 0);
  if (out->num_shards == 0) return true;
  std::string policy = GetFlag(flags, "shard-policy", "hash");
  if (policy == "range") {
    out->policy = ShardPolicy::kRange;
  } else if (policy != "hash") {
    std::fprintf(stderr, "--shard-policy must be hash or range\n");
    return false;
  }
  out->halo_radius =
      static_cast<uint32_t>(GetSize(flags, "halo", out->halo_radius));
  return true;
}

int CmdServeBench(const FlagMap& flags) {
  ShardOptions shard_options;
  if (!ShardOptionsFromFlags(flags, &shard_options)) return 1;
  const bool sharded = shard_options.num_shards > 0;
  // The single-engine service starts either from a binary snapshot
  // (sub-second cold start) or by loading text files and building the
  // index here; the sharded one builds per-shard engines from the files.
  std::string snapshot_path = GetFlag(flags, "snapshot", "");
  if (sharded && !snapshot_path.empty()) {
    std::fprintf(stderr,
                 "--shards builds per-shard engines from --graph/--ontology;"
                 " --snapshot is not supported\n");
    return 1;
  }
  gen::Dataset ds;
  std::optional<QueryEngine> engine;
  WallTimer startup_timer;
  if (!snapshot_path.empty()) {
    std::unique_ptr<QueryEngine> loaded;
    Status s = LoadEngineSnapshot(snapshot_path, &ds.dict, &loaded);
    if (!s.ok()) return Fail(s);
    engine.emplace(std::move(*loaded));
  } else {
    if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
    if (!sharded) {
      engine.emplace(std::move(ds.graph), std::move(ds.ontology),
                     IndexOptionsFromFlags(flags));
    }
  }
  double startup_ms = startup_timer.ElapsedMillis();

  std::vector<ParsedPattern> patterns;
  int rc = LoadPatternsFromFlags(flags, "serve-bench", &ds.dict, &patterns);
  if (rc != 0) return rc;

  QueryOptions options;
  options.theta = GetDouble(flags, "theta", options.theta);
  options.k = GetSize(flags, "k", options.k);
  size_t threads = GetSize(flags, "threads", 4);
  if (threads == 0) threads = 1;
  size_t requests = GetSize(flags, "requests", 200);

  ServeOptions serve;
  serve.cache_capacity = GetSize(flags, "cache", serve.cache_capacity);
  serve.default_deadline_ms = GetDouble(flags, "deadline-ms", 0.0);
  serve.max_inflight = GetSize(flags, "max-inflight", 0);

  // One closed loop over the front end of either tier: --threads clients
  // issue --requests queries each while, with --update-interval-ms > 0, a
  // writer toggles the first edge (kept before the service takes the
  // graph) at that period.
  std::vector<EdgeTriple> edges =
      sharded ? ds.graph.EdgeList() : engine->graph().EdgeList();
  std::optional<ShardedQueryService> sharded_service;
  std::optional<QueryService> single_service;
  ServeFrontEnd* front = nullptr;
  if (sharded) {
    WallTimer build_timer;
    sharded_service.emplace(ds.graph, ds.ontology,
                            IndexOptionsFromFlags(flags), shard_options,
                            serve);
    std::printf("%zu shard engines (%s, halo %u) built in %.1f ms; serving "
                "%zu patterns on %zu client threads (%zu requests each, "
                "cache %zu)\n",
                sharded_service->num_shards(),
                shard_options.policy == ShardPolicy::kRange ? "range"
                                                            : "hash",
                shard_options.halo_radius, build_timer.ElapsedMillis(),
                patterns.size(), threads, requests, serve.cache_capacity);
    front = sharded_service->front_end();
  } else {
    single_service.emplace(std::move(*engine), serve);
    std::printf("engine %s in %.1f ms; serving %zu patterns on %zu "
                "client threads (%zu requests each, cache %zu)\n",
                snapshot_path.empty() ? "built" : "loaded from snapshot",
                startup_ms, patterns.size(), threads, requests,
                serve.cache_capacity);
    front = single_service->front_end();
  }

  size_t update_interval_ms = GetSize(flags, "update-interval-ms", 0);
  std::atomic<bool> stop{false};
  std::thread writer;
  uint64_t toggles = 0;
  if (update_interval_ms > 0 && !edges.empty()) {
    EdgeTriple e = edges.front();
    writer = std::thread([front, &stop, &toggles, e, update_interval_ms] {
      while (!stop.load(std::memory_order_acquire)) {
        GraphUpdate update =
            toggles % 2 == 0 ? GraphUpdate::Delete(e.from, e.to, e.label)
                             : GraphUpdate::Insert(e.from, e.to, e.label);
        (void)front->ApplyUpdates({update});
        ++toggles;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(update_interval_ms));
      }
      if (toggles % 2 == 1) {  // leave the graph as we found it
        (void)front->ApplyUpdates(
            {GraphUpdate::Insert(e.from, e.to, e.label)});
        ++toggles;
      }
    });
  }

  WallTimer run_timer;
  RunConcurrently(threads, [&](size_t tid) {
    for (size_t it = 0; it < requests; ++it) {
      const Graph& q = patterns[(it + tid * 7) % patterns.size()].query;
      (void)front->Query(q, options);
    }
  });
  double run_ms = run_timer.ElapsedMillis();
  stop.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();

  ServeStats stats = front->Stats();
  std::printf("served %llu queries in %.1f ms (%.0f qps)",
              static_cast<unsigned long long>(stats.queries), run_ms,
              run_ms > 0.0 ? 1000.0 * static_cast<double>(stats.queries) /
                                 run_ms
                           : 0.0);
  if (toggles > 0) {
    std::printf(", %llu %supdate batches",
                static_cast<unsigned long long>(toggles),
                sharded ? "routed " : "");
  }
  std::printf("\n");
  std::fputs(stats.ToString().c_str(), stdout);
  return 0;
}

int CmdIngestBench(const FlagMap& flags) {
  ShardOptions shard_options;
  if (!ShardOptionsFromFlags(flags, &shard_options)) return 1;
  gen::Dataset ds;
  if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
  if (ds.graph.num_edges() == 0) {
    std::fprintf(stderr, "ingest-bench needs a graph with edges\n");
    return 1;
  }

  std::vector<ParsedPattern> patterns;
  int rc = LoadPatternsFromFlags(flags, "ingest-bench", &ds.dict, &patterns);
  if (rc != 0) return rc;

  QueryOptions options;
  options.theta = GetDouble(flags, "theta", options.theta);
  options.k = GetSize(flags, "k", options.k);

  ServeOptions serve;
  serve.cache_capacity = GetSize(flags, "cache", serve.cache_capacity);
  serve.default_deadline_ms = GetDouble(flags, "deadline-ms", 100.0);
  serve.max_inflight = GetSize(flags, "max-inflight", 0);

  // The churn stream needs the seed graph after the service takes it.
  Graph seed_graph = ds.graph;

  // A producer thread streams churn updates through an IngestPipeline
  // into the front end of either tier while reader threads run closed-loop
  // over the patterns; the pipeline and service stats print on drain.
  size_t threads = GetSize(flags, "threads", 2);
  WallTimer startup_timer;
  std::optional<ShardedQueryService> sharded_service;
  std::optional<QueryService> single_service;
  ServeFrontEnd* front = nullptr;
  if (shard_options.num_shards > 0) {
    sharded_service.emplace(ds.graph, ds.ontology,
                            IndexOptionsFromFlags(flags), shard_options,
                            serve);
    std::printf("%zu shard engines built in %.1f ms; churning under "
                "%zu reader threads\n",
                sharded_service->num_shards(), startup_timer.ElapsedMillis(),
                threads);
    front = sharded_service->front_end();
  } else {
    single_service.emplace(
        QueryEngine(std::move(ds.graph), std::move(ds.ontology),
                    IndexOptionsFromFlags(flags)),
        serve);
    std::printf("engine built in %.1f ms; churning under %zu reader "
                "threads\n",
                startup_timer.ElapsedMillis(), threads);
    front = single_service->front_end();
  }
  if (threads == 0) threads = 1;
  size_t steps = GetSize(flags, "steps", 400);

  ServiceSink sink(front);
  IngestOptions io;
  io.max_batch = GetSize(flags, "batch", io.max_batch);
  io.max_linger_ms = GetDouble(flags, "linger-ms", io.max_linger_ms);
  io.max_pending = GetSize(flags, "max-pending", io.max_pending);
  IngestPipeline pipeline(&sink, io);

  gen::ChurnParams cp;
  cp.seed = GetSize(flags, "churn-seed", 1448);
  gen::ChurnStream churn(seed_graph, cp);

  std::atomic<bool> done{false};
  WallTimer run_timer;
  RunConcurrently(threads + 1, [&](size_t tid) {
    if (tid == 0) {
      const size_t chunk = 25;
      for (size_t offset = 0; offset < steps; offset += chunk) {
        size_t n = steps - offset < chunk ? steps - offset : chunk;
        for (const GraphUpdate& update : churn.Next(n)) {
          while (!pipeline.Submit(update)) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      }
      pipeline.Flush();
      done.store(true, std::memory_order_release);
      return;
    }
    size_t it = 0;
    while (!done.load(std::memory_order_acquire)) {
      const Graph& q = patterns[(it + tid * 7) % patterns.size()].query;
      (void)front->Query(q, options);
      ++it;
    }
  });
  double run_ms = run_timer.ElapsedMillis();
  pipeline.Stop();

  IngestStats ingest = pipeline.Stats();
  ServeStats stats = front->Stats();
  AugmentServeStats(pipeline, &stats);
  std::printf("drained %llu updates in %llu batches over %.1f ms wall "
              "(%.4f ms/batch in-lock apply)\n",
              static_cast<unsigned long long>(
                  ingest.applied + ingest.skipped + ingest.invalid),
              static_cast<unsigned long long>(ingest.batches), run_ms,
              stats.update_batches > 0
                  ? stats.write_apply_us / 1000.0 /
                        static_cast<double>(stats.update_batches)
                  : 0.0);
  std::fputs(ingest.ToString().c_str(), stdout);
  std::fputs(stats.ToString().c_str(), stdout);
  return 0;
}

int CmdStats(const FlagMap& flags) {
  gen::Dataset ds;
  if (int rc = LoadDataset(flags, &ds); rc != 0) return rc;
  size_t components = 0;
  WeakComponents(ds.graph, &components);
  std::printf("graph:    %zu nodes, %zu edges, %zu weak components\n",
              ds.graph.num_nodes(), ds.graph.num_edges(), components);
  std::printf("ontology: %zu concepts, %zu relations\n",
              ds.ontology.num_labels(), ds.ontology.num_relations());
  std::printf("labels:   %zu distinct strings interned\n", ds.dict.size());
  IndexOptions idx = IndexOptionsFromFlags(flags);
  WallTimer timer;
  IndexBuildStats stats;
  OntologyIndex index =
      OntologyIndex::Build(ds.graph, ds.ontology, idx, &stats);
  std::printf("index:    %zu concept graphs, %zu blocks, |I|=%zu "
              "(built in %.1f ms)\n",
              index.num_concept_graphs(), stats.total_blocks,
              index.TotalSize(), timer.ElapsedMillis());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  FlagMap flags;
  if (!ParseFlags(argc, argv, 2, &flags)) return 1;
  if (command == "generate") return CmdGenerate(flags);
  if (command == "index") return CmdIndex(flags);
  if (command == "snapshot") return CmdSnapshot(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "bench") return CmdBench(flags);
  if (command == "serve-bench") return CmdServeBench(flags);
  if (command == "ingest-bench") return CmdIngestBench(flags);
  if (command == "stats") return CmdStats(flags);
  return Usage();
}
