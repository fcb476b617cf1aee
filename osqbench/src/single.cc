// xdomain-read and flickr-verify: one QueryService, closed-loop readers.
//
// A run is a sequence of rounds.  Each round is one read lap over the
// workload's fixed query set (in a fresh per-seed order) by closed-loop
// clients, then one write burst: the next updates of a fixed churn
// stream, submitted at a fixed rate through an IngestPipeline and
// flushed.  The burst advances the snapshot version, so every read of the
// next lap misses the result cache even though the query set repeats.
// Rounds repeat until the run's time is up.  Answers are checked
// afterwards against the checker's own copy of the graph, replayed burst
// by burst.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench.h"
#include "checker.h"
#include "common/rng.h"
#include "core/snapshot.h"
#include "gen/churn.h"
#include "gen/scenarios.h"
#include "serve/query_service.h"
#include "shard/sharded_query_service.h"

namespace osqbench {

using osq::Graph;
using osq::gen::QueryGenParams;

namespace {

struct SingleConfig {
  bool from_snapshot;
  // The dataset is fixed: the same graph, query set and churn on every
  // seed; the seed draws only the order of each lap.
  osq::gen::Dataset (*make)(const osq::gen::ScenarioParams&);
  size_t scale;
  std::vector<QueryGenParams> templates;
  size_t per_template;
  size_t clients;
  // Write burst after each read lap, and the pipeline's batching linger.
  size_t burst_steps;
  double burst_rate;
  double linger_ms;
};

constexpr uint64_t kDatasetSeed = 1;
constexpr uint64_t kPoolSeed = 1001;
// The churn is part of the dataset: a per-seed stream rewrote the
// 1,000-node flickr-verify graph differently on each seed, which moved the
// cost of its heavy queries; query_p90_ms spread 23% over five seeds.
constexpr uint64_t kChurnSeed = 2001;
constexpr size_t kHitProbeQueries = 8;
constexpr size_t kShardProbeQueries = 32;

const osq::QueryOptions kQueryOptions = BenchQueryOptions();

SingleConfig ConfigFor(const std::string& workload) {
  if (workload == "xdomain-read") {
    // The paper's CrossDomain templates QT1-QT5 (gen/workload.cc).
    return {true,
            osq::gen::MakeCrossDomainLike,
            200000,
            {{4, 0.5, 1}, {4, 0.5, 1}, {4, 0.7, 1}, {4, 1.0, 2}, {5, 0.5, 1}},
            100,
            4,
            100,
            1000.0,
            2.0};
  }
  // flickr-verify: the Flickr templates QT6-QT9.  Its updates cost ~0.45 ms
  // of maintenance each, so bursts run at 500/s, well below saturation, and
  // a 10 ms linger batches several: each update's lag then spreads over
  // 2-13 ms, and p90 no longer sits at the edge of the few late wake-ups of
  // a busy machine (with a 2 ms linger it read 3 ms on most runs, 6 ms on
  // some).
  return {false,
          osq::gen::MakeFlickrLike,
          1000,
          {{3, 0.5, 1}, {4, 0.5, 1}, {4, 0.8, 2}, {5, 0.5, 1}},
          10,
          1,
          50,
          500.0,
          10.0};
}

std::string SnapshotPath(const std::string& data_dir) {
  return data_dir + "/xdomain-read.snap";
}

// Per-client samples of the read laps.
struct ClientSamples {
  std::vector<double> latency_ms;
  std::vector<double> wait_us;
  size_t hits = 0;
  size_t failed = 0;
  CoreSamples core;
};

}  // namespace

int PrepareXdomain(const std::string& path) {
  SingleConfig cfg = ConfigFor("xdomain-read");
  osq::gen::Dataset d = cfg.make({cfg.scale, kDatasetSeed});
  Clock::time_point t0 = Clock::now();
  osq::QueryEngine engine(std::move(d.graph), std::move(d.ontology),
                          osq::IndexOptions{});
  double build_ms = MsBetween(t0, Clock::now());
  osq::Status st = osq::SaveEngineSnapshot(engine, d.dict, path);
  if (!st.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::ofstream(path + ".build_ms") << build_ms << "\n";
  return 0;
}

Report RunSingleEngine(const RunArgs& args) {
  Report report;
  SingleConfig cfg = ConfigFor(args.workload);

  // ---- Set-up (timed) ----
  osq::LabelDictionary dict;
  std::unique_ptr<osq::QueryEngine> engine;
  osq::SnapshotLoadStats load_stats;
  double setup_s = 0;
  double load_ms = 0;
  double build_ms = 0;
  if (cfg.from_snapshot) {
    Clock::time_point t0 = Clock::now();
    osq::Status st = osq::LoadEngineSnapshot(SnapshotPath(args.data_dir),
                                             &dict, &engine, &load_stats);
    Clock::time_point t1 = Clock::now();
    if (!st.ok()) {
      report.Fail("snapshot load: " + st.ToString());
      return report;
    }
    load_ms = MsBetween(t0, t1);
    setup_s = MsBetween(args.process_start, t1) / 1000.0;
    std::ifstream(SnapshotPath(args.data_dir) + ".build_ms") >> build_ms;
  } else {
    osq::gen::Dataset d = cfg.make({cfg.scale, kDatasetSeed});
    dict = std::move(d.dict);
    Clock::time_point t0 = Clock::now();
    engine = std::make_unique<osq::QueryEngine>(
        std::move(d.graph), std::move(d.ontology), osq::IndexOptions{});
    Clock::time_point t1 = Clock::now();
    build_ms = MsBetween(t0, t1);
    setup_s = MsBetween(args.process_start, t1) / 1000.0;
  }
  osq::QueryService service(std::move(*engine));
  engine.reset();
  const osq::QueryEngine& served = service.engine_unsynchronized();
  const osq::OntologyGraph& ontology = served.ontology();
  const Graph initial = served.graph();

  // ---- Inputs (untimed) ----
  std::vector<Graph> pool = MakeQueryPool(initial, ontology, cfg.templates,
                                          cfg.per_template, kPoolSeed);
  const size_t P = pool.size();
  std::vector<size_t> order(P);
  for (size_t i = 0; i < P; ++i) order[i] = i;
  osq::Rng order_rng(args.seed);

  double snapshot_mb = 0;
  if (cfg.from_snapshot) {
    snapshot_mb = FileMb(SnapshotPath(args.data_dir));
    if (args.trace) AddSnapshotMetrics(load_stats, load_ms, &report);
  } else {
    std::string path = args.data_dir + "/" + args.workload + ".snap";
    snapshot_mb = SaveSnapshot(served, dict, path, &report);
    if (args.trace) TimeSnapshotLoad(path, &report);
    std::remove(path.c_str());
  }

  // ---- Traced set-up: layers this workload does not route through ----
  ShardSamples shard_samples;
  if (args.trace) {
    std::vector<const Graph*> probe;
    for (size_t i = 0; i < std::min(P, kShardProbeQueries); ++i) {
      probe.push_back(&pool[i]);
    }
    shard_samples =
        ProbeShards(initial, ontology, BenchShardOptions(), probe,
                    kQueryOptions);
    osq::ShardedQueryService sharded(initial, ontology, osq::IndexOptions{},
                                     BenchShardOptions());
    for (size_t i = 0; i < probe.size(); ++i) {
      osq::ShardedServedResult r = sharded.Query(*probe[i], kQueryOptions);
      shard_samples.scatter_merge_us.push_back(r.serve_us - r.wait_us -
                                               shard_samples.engine_max_us[i]);
    }
  }

  // ---- Measured rounds ----
  osq::QueryServiceSink service_sink(&service);
  TimedSink sink(&service_sink);
  osq::IngestOptions ingest_options;
  ingest_options.max_linger_ms = cfg.linger_ms;
  osq::IngestPipeline pipeline(&sink, ingest_options);
  osq::gen::ChurnParams churn_params;
  churn_params.seed = kChurnSeed;
  osq::gen::ChurnStream churn(initial, churn_params);

  std::vector<ClientSamples> clients(cfg.clients);
  std::vector<std::vector<std::vector<osq::Match>>> answers;  // [lap][query]
  std::vector<std::vector<osq::GraphUpdate>> bursts;
  std::vector<RoundStats> rounds;
  size_t rejected = 0;
  size_t submitted = 0;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    // A fresh order every lap, so which light query follows a heavy one
    // (and finds the CPU caches cold) averages out over the laps.
    order_rng.Shuffle(&order);
    answers.emplace_back(P);
    std::vector<std::vector<osq::Match>>& lap = answers.back();
    std::vector<size_t> done_before;
    for (const ClientSamples& cs : clients) {
      done_before.push_back(cs.latency_ms.size());
    }
    Clock::time_point lap_start = Clock::now();
    RunClosedLoop(cfg.clients, P, lap_start, [&](size_t c, size_t i) {
      size_t qi = order[i % P];
      ClientSamples& cs = clients[c];
      Clock::time_point t0 = Clock::now();
      osq::ServedResult r = service.Query(pool[qi], kQueryOptions);
      Clock::time_point t1 = Clock::now();
      cs.latency_ms.push_back(MsBetween(t0, t1));
      cs.wait_us.push_back(r.wait_us);
      if (r.cache_hit) ++cs.hits;
      if (!r.result.status.ok() || !r.result.complete()) ++cs.failed;
      if (args.trace) {
        ProbeCore(served, pool[qi], kQueryOptions,
                  r.cache_hit ? nullptr : &r.result, UsBetween(t0, t1),
                  &cs.core);
      }
      lap[qi] = std::move(r.result.matches);
    });
    double lap_ms = MsBetween(lap_start, Clock::now());
    std::vector<double> lap_latency;
    for (size_t c = 0; c < clients.size(); ++c) {
      lap_latency.insert(lap_latency.end(),
                         clients[c].latency_ms.begin() +
                             static_cast<std::ptrdiff_t>(done_before[c]),
                         clients[c].latency_ms.end());
    }
    rounds.push_back(MakeRound(lap_ms, lap_latency));

    bursts.push_back(churn.Next(cfg.burst_steps));
    rejected += RunWriter(&pipeline, &sink, bursts.back(), cfg.burst_rate,
                          Clock::now());
    submitted += bursts.back().size();
    pipeline.Flush();
  } while (Clock::now() < deadline);
  pipeline.Stop();
  const double peak_rss = PeakRssMb();
  const size_t laps = answers.size();

  // ---- Hit probe: a repeated request must come from the cache, unchanged.
  std::vector<double> hit_us;
  std::vector<std::vector<osq::Match>> final_answers;
  for (size_t i = 0; i < std::min(P, kHitProbeQueries); ++i) {
    osq::ServedResult miss = service.Query(pool[i], kQueryOptions);
    Clock::time_point t0 = Clock::now();
    osq::ServedResult hit = service.Query(pool[i], kQueryOptions);
    hit_us.push_back(UsBetween(t0, Clock::now()));
    if (!hit.cache_hit) report.Fail("repeated request missed the cache");
    if (hit.result.matches != miss.result.matches) {
      report.Fail("cache hit differs from the miss it repeats");
    }
    final_answers.push_back(std::move(miss.result.matches));
  }

  // ---- Checks: accounting, then every answer against the replayed graph.
  osq::IngestStats ingest = pipeline.Stats();
  if (ingest.submitted != submitted ||
      ingest.accepted + ingest.coalesced + ingest.rejected != submitted ||
      rejected != 0 || ingest.rejected != 0) {
    report.Fail("ingest accounting: submitted " + std::to_string(submitted) +
                ", pipeline " + ingest.ToString());
  }
  // Lap L read the graph after L bursts: check every lap's answers
  // against the checker's own copy of it, then the final probe's.
  Graph g = initial;
  Checker checker(g, ontology);
  for (size_t lap = 0; lap < laps; ++lap) {
    for (size_t qi = 0; qi < P; ++qi) {
      std::string err = checker.Check(pool[qi], kQueryOptions.theta,
                                      kQueryOptions.k, answers[lap][qi]);
      if (!err.empty()) {
        report.Fail("lap " + std::to_string(lap) + " query " +
                    std::to_string(qi) + ": " + err);
      }
    }
    Replay(bursts[lap], &g);
  }
  for (size_t i = 0; i < final_answers.size(); ++i) {
    std::string err = checker.Check(pool[i], kQueryOptions.theta,
                                    kQueryOptions.k, final_answers[i]);
    if (!err.empty()) {
      report.Fail("final query " + std::to_string(i) + ": " + err);
    }
  }

  // ---- Metrics ----
  RunFigures f;
  f.setup_s = setup_s;
  f.peak_rss_mb = peak_rss;
  f.snapshot_mb = snapshot_mb;
  f.build_ms = build_ms;
  f.rounds = std::move(rounds);
  f.hit_us = std::move(hit_us);
  f.invalidations_per_batch = service.Stats().cache_invalidation_rate();
  f.shards = std::move(shard_samples);
  size_t reads = 0;
  size_t hits = 0;
  for (const ClientSamples& cs : clients) {
    reads += cs.latency_ms.size();
    hits += cs.hits;
    report.failed += cs.failed;
    f.wait_us.insert(f.wait_us.end(), cs.wait_us.begin(), cs.wait_us.end());
    f.core.Merge(cs.core);
  }
  f.hit_ratio = static_cast<double>(hits) / static_cast<double>(reads);
  report.attempted = reads + submitted;
  AddRunMetrics(f, sink, ingest.coalesced, args.trace, &report);
  return report;
}

}  // namespace osqbench
