// community-churn: a 4-shard range-partitioned ShardedQueryService read
// by closed-loop clients while one writer pushes churn through an
// IngestPipeline at a fixed rate.
//
// The writer submits exactly rate * seconds updates on a fixed schedule;
// the readers run rounds of Zipf-skewed requests over a query set that
// fits the result cache until the writer is done.  Afterwards the update
// history is replayed onto the initial graph with the Graph API, a fresh
// single QueryEngine is built on the result, and its answers must equal
// the sharded service's exactly.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "checker.h"
#include "common/rng.h"
#include "gen/scenarios.h"
#include "serve/query_service.h"
#include "shard/sharded_query_service.h"

namespace osqbench {

using osq::Graph;

namespace {

constexpr uint64_t kDatasetSeed = 1;
constexpr uint64_t kPoolSeed = 3001;
constexpr size_t kScale = 50000;
constexpr size_t kPerTemplate = 32;
// Three readers and the writer: one client thread per core.
constexpr size_t kReaders = 3;
// The request sequence: kSequence draws Zipf(kZipfS) over the query set,
// issued in order and cycled.  Reads stop at a multiple of kRound, and
// the read metrics are medians over windows of kRound completions.
constexpr size_t kSequence = 3000;
constexpr size_t kRound = 300;
constexpr double kZipfS = 1.0;
constexpr double kUpdateRate = 200.0;  // updates per second

const osq::QueryOptions kQueryOptions = BenchQueryOptions();

struct ReaderSamples {
  std::vector<double> latency_ms;
  std::vector<Clock::time_point> done_at;
  std::vector<double> wait_us;
  std::vector<double> hit_us;
  // (query, service time minus lock wait) of every miss.
  std::vector<std::pair<size_t, double>> miss_us;
  std::vector<std::pair<size_t, std::vector<osq::Match>>> answers;
  size_t failed = 0;
};

}  // namespace

Report RunCommunityChurn(const RunArgs& args) {
  Report report;
  // ---- Set-up (timed from process start): the dataset, partitioning and
  // the four shard builds ----
  osq::gen::Dataset d = osq::gen::MakeCommunityLike({kScale, kDatasetSeed});
  const Graph& initial = d.graph;
  osq::ShardedQueryService service(initial, d.ontology, osq::IndexOptions{},
                                   BenchShardOptions());
  const double setup_s = MsBetween(args.process_start, Clock::now()) / 1000.0;

  // ---- Inputs (untimed) ----
  std::vector<Graph> pool = MakeQueryPool(
      initial, d.ontology,
      {{4, 0.5, 1}, {4, 0.5, 1}, {4, 0.7, 1}, {5, 0.5, 1}}, kPerTemplate,
      kPoolSeed);
  const size_t P = pool.size();
  // Which queries are popular is part of the dataset; the seed draws the
  // request sequence and the churn.
  std::vector<size_t> rank_to_query(P);
  for (size_t i = 0; i < P; ++i) rank_to_query[i] = i;
  osq::Rng popularity(kPoolSeed);
  popularity.Shuffle(&rank_to_query);
  osq::Rng rng(args.seed);
  std::vector<size_t> requests(kSequence);
  for (size_t& r : requests) {
    r = rank_to_query[static_cast<size_t>(rng.Zipf(P, kZipfS))];
  }
  const size_t num_updates =
      static_cast<size_t>(kUpdateRate * args.seconds + 0.5);
  // Only updates inside one shard's id range: churn that crosses a shard
  // boundary sends the routed shards out of step with a fresh build on
  // some seeds (see CHANGES.md, FOUND), which would fail the differential
  // check below on those seeds only.
  osq::GraphPartitioner owners(initial, BenchShardOptions());
  const std::vector<osq::GraphUpdate> updates = MakeChurn(
      initial, args.seed, num_updates, [&](const osq::GraphUpdate& u) {
        return owners.OwnerOf(u.edge.from) == owners.OwnerOf(u.edge.to);
      });

  RunFigures f;
  f.setup_s = setup_s;
  if (args.trace) {
    std::vector<const Graph*> probe;
    for (const Graph& q : pool) probe.push_back(&q);
    f.shards = ProbeShards(initial, d.ontology, BenchShardOptions(), probe,
                           kQueryOptions);
  }

  // ---- Measured phase: readers and the writer together ----
  osq::ShardedServiceSink service_sink(&service);
  TimedSink sink(&service_sink);
  osq::IngestOptions ingest_options;
  ingest_options.max_linger_ms = 20.0;
  osq::IngestPipeline pipeline(&sink, ingest_options);
  std::atomic<bool> writer_done{false};
  size_t rejected = 0;

  std::vector<ReaderSamples> readers(kReaders);
  Clock::time_point start = Clock::now();
  std::thread writer([&] {
    rejected = RunWriter(&pipeline, &sink, updates, kUpdateRate, start);
    writer_done.store(true);
  });
  RunClosedLoop(
      kReaders, kRound, Clock::time_point::max(),
      [&](size_t c, size_t i) {
        size_t qi = requests[i % kSequence];
        ReaderSamples& rs = readers[c];
        Clock::time_point q0 = Clock::now();
        osq::ShardedServedResult r = service.Query(pool[qi], kQueryOptions);
        Clock::time_point q1 = Clock::now();
        double ms = MsBetween(q0, q1);
        rs.latency_ms.push_back(ms);
        rs.done_at.push_back(q1);
        rs.wait_us.push_back(r.wait_us);
        if (r.cache_hit) {
          rs.hit_us.push_back(ms * 1000.0);
        } else {
          rs.miss_us.push_back({qi, r.serve_us - r.wait_us});
        }
        if (!r.result.status.ok() || !r.result.complete()) ++rs.failed;
        rs.answers.push_back({qi, std::move(r.result.matches)});
      },
      [&] { return writer_done.load(); });
  writer.join();
  pipeline.Flush();
  pipeline.Stop();
  f.peak_rss_mb = PeakRssMb();

  // ---- Checks ----
  osq::IngestStats ingest = pipeline.Stats();
  if (ingest.submitted != updates.size() ||
      ingest.accepted + ingest.coalesced + ingest.rejected != updates.size() ||
      rejected != 0 || ingest.rejected != 0) {
    report.Fail("ingest accounting: writer submitted " +
                std::to_string(updates.size()) + ", pipeline " +
                ingest.ToString());
  }
  // Live answers were taken while edges changed: check them against the
  // labels only.
  Checker initial_checker(initial, d.ontology);
  for (const ReaderSamples& rs : readers) {
    for (const auto& [qi, matches] : rs.answers) {
      std::string err = initial_checker.Validate(
          pool[qi], kQueryOptions.theta, kQueryOptions.k, matches, false);
      if (!err.empty()) {
        report.Fail("live query " + std::to_string(qi) + ": " + err);
      }
    }
  }
  // Replay the accepted history and rebuild from scratch.
  Graph replayed = initial;
  Replay(updates, &replayed);
  Clock::time_point b0 = Clock::now();
  osq::QueryEngine fresh(replayed, d.ontology, osq::IndexOptions{});
  f.build_ms = MsBetween(b0, Clock::now());
  const std::string snap_path = args.data_dir + "/community-churn.snap";
  f.snapshot_mb = SaveSnapshot(fresh, d.dict, snap_path, &report);
  if (args.trace) TimeSnapshotLoad(snap_path, &report);
  std::remove(snap_path.c_str());
  osq::QueryService oracle_service(std::move(fresh));
  Checker checker(replayed, d.ontology);
  for (size_t qi = 0; qi < P; ++qi) {
    osq::ShardedServedResult live = service.Query(pool[qi], kQueryOptions);
    Clock::time_point s0 = Clock::now();
    osq::ServedResult single = oracle_service.Query(pool[qi], kQueryOptions);
    double service_us = UsBetween(s0, Clock::now());
    if (live.result.matches != single.result.matches) {
      report.Fail("sharded answer differs from replay for query " +
                  std::to_string(qi));
    }
    std::string err = checker.Check(pool[qi], kQueryOptions.theta,
                                    kQueryOptions.k, single.result.matches);
    if (!err.empty()) {
      report.Fail("replay query " + std::to_string(qi) + ": " + err);
    }
    if (args.trace) {
      ProbeCore(oracle_service.engine_unsynchronized(), pool[qi],
                kQueryOptions, single.cache_hit ? nullptr : &single.result,
                service_us, &f.core);
    }
  }

  // ---- Metrics ----
  // Rounds: windows of kRound consecutive completions.
  std::vector<std::pair<Clock::time_point, double>> completions;
  for (const ReaderSamples& rs : readers) {
    for (size_t i = 0; i < rs.latency_ms.size(); ++i) {
      completions.push_back({rs.done_at[i], rs.latency_ms[i]});
    }
  }
  std::sort(completions.begin(), completions.end());
  std::vector<RoundStats> rounds;
  Clock::time_point window_start = start;
  for (size_t i = 0; i + kRound <= completions.size(); i += kRound) {
    std::vector<double> window;
    for (size_t j = i; j < i + kRound; ++j) {
      window.push_back(completions[j].second);
    }
    Clock::time_point window_end = completions[i + kRound - 1].first;
    rounds.push_back(MakeRound(MsBetween(window_start, window_end), window));
    window_start = window_end;
  }
  size_t reads = 0;
  for (const ReaderSamples& rs : readers) {
    reads += rs.latency_ms.size();
    f.wait_us.insert(f.wait_us.end(), rs.wait_us.begin(), rs.wait_us.end());
    f.hit_us.insert(f.hit_us.end(), rs.hit_us.begin(), rs.hit_us.end());
    report.failed += rs.failed;
    if (args.trace) {
      for (const auto& [qi, us] : rs.miss_us) {
        f.shards.scatter_merge_us.push_back(us - f.shards.engine_max_us[qi]);
      }
    }
  }
  f.rounds = std::move(rounds);
  f.hit_ratio =
      static_cast<double>(f.hit_us.size()) / static_cast<double>(reads);
  f.invalidations_per_batch = service.Stats().cache_invalidation_rate();
  report.attempted = reads + updates.size();
  AddRunMetrics(f, sink, ingest.coalesced, args.trace, &report);
  return report;
}

}  // namespace osqbench
