#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/filtering.h"
#include "core/kmatch.h"
#include "gen/churn.h"
#include "shard/shard_engine.h"

namespace osqbench {

using osq::Graph;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string QueryKey(const Graph& q) {
  std::ostringstream key;
  for (osq::NodeId u = 0; u < q.num_nodes(); ++u) key << q.NodeLabel(u) << ',';
  for (const osq::EdgeTriple& e : q.Edges()) {
    key << ';' << e.from << '>' << e.to << ':' << e.label;
  }
  return key.str();
}

}  // namespace

std::vector<Graph> MakeQueryPool(
    const Graph& g, const osq::OntologyGraph& o,
    const std::vector<osq::gen::QueryGenParams>& templates,
    size_t per_template, uint64_t seed) {
  osq::Rng rng(seed);
  std::vector<Graph> pool;
  std::set<std::string> seen;
  for (const osq::gen::QueryGenParams& t : templates) {
    size_t made = 0;
    for (size_t attempt = 0; made < per_template && attempt < per_template * 20;
         ++attempt) {
      Graph q = osq::gen::ExtractQuery(g, o, t, &rng);
      if (q.empty() || !seen.insert(QueryKey(q)).second) continue;
      pool.push_back(std::move(q));
      ++made;
    }
  }
  return pool;
}

void RunClosedLoop(size_t clients, size_t round, Clock::time_point deadline,
                     const std::function<void(size_t, size_t)>& op,
                     const std::function<bool()>& stop_early) {
  std::mutex mu;
  size_t next = 0;
  size_t limit = std::numeric_limits<size_t>::max();
  auto claim = [&](size_t* index) {
    std::lock_guard<std::mutex> lock(mu);
    if (limit == std::numeric_limits<size_t>::max() &&
        (Clock::now() >= deadline || (stop_early && stop_early()))) {
      limit = (next + round - 1) / round * round;
      if (limit == 0) limit = round;  // at least one round
    }
    if (next >= limit) return false;
    *index = next++;
    return true;
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t i = 0;
      while (claim(&i)) op(c, i);
    });
  }
  for (std::thread& t : threads) t.join();
}

osq::MaintenanceStats TimedSink::ApplyBatch(
    const std::vector<osq::GraphUpdate>& batch) {
  Clock::time_point start = Clock::now();
  osq::MaintenanceStats stats = inner_->ApplyBatch(batch);
  Clock::time_point done = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  apply_ms.push_back(MsBetween(start, done));
  batch_sizes.push_back(static_cast<double>(batch.size()));
  // The pipeline applies accepted updates in submit order, so this batch
  // holds the oldest batch.size() accepted updates not yet visible.
  for (size_t i = 0; i < batch.size() && !scheduled_.empty(); ++i) {
    Clock::time_point due = scheduled_.front();
    scheduled_.pop_front();
    lag_ms.push_back(MsBetween(due, done));
    queue_wait_ms.push_back(MsBetween(due, start));
  }
  maint.applied += stats.applied;
  maint.skipped += stats.skipped;
  maint.aff_blocks += stats.aff_blocks;
  maint.splits += stats.splits;
  maint.merges += stats.merges;
  return stats;
}

size_t RunWriter(osq::IngestPipeline* pipeline, TimedSink* sink,
                 const std::vector<osq::GraphUpdate>& updates, double rate,
                 Clock::time_point start) {
  size_t rejected = 0;
  for (size_t i = 0; i < updates.size(); ++i) {
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
    std::this_thread::sleep_until(due);
    // Held across Submit so the worker cannot apply this update before
    // its scheduled time is queued.
    std::lock_guard<std::mutex> lock(sink->lock());
    uint64_t accepted_before = pipeline->Stats().accepted;
    if (!pipeline->Submit(updates[i])) {
      ++rejected;
      continue;
    }
    if (pipeline->Stats().accepted > accepted_before) sink->NoteAccepted(due);
  }
  return rejected;
}

std::vector<osq::GraphUpdate> MakeChurn(
    const Graph& g, uint64_t seed, size_t count,
    const std::function<bool(const osq::GraphUpdate&)>& keep) {
  osq::gen::ChurnParams params;
  params.seed = seed;
  osq::gen::ChurnStream stream(g, params);
  std::vector<osq::GraphUpdate> out;
  while (out.size() < count) {
    for (const osq::GraphUpdate& u : stream.Next(count - out.size())) {
      if (!keep || keep(u)) out.push_back(u);
    }
  }
  out.resize(count);
  return out;
}

RoundStats MakeRound(double wall_ms, const std::vector<double>& latency_ms) {
  RoundStats r;
  r.qps = static_cast<double>(latency_ms.size()) / (wall_ms / 1000.0);
  r.p50_ms = Quantile(latency_ms, 0.5);
  r.p90_ms = Quantile(latency_ms, 0.9);
  return r;
}

namespace {

void AddReadMetrics(const std::vector<RoundStats>& rounds,
                    const std::string& prefix, Report* report) {
  std::vector<double> qps, p50, p90;
  for (const RoundStats& r : rounds) {
    qps.push_back(r.qps);
    p50.push_back(r.p50_ms);
    p90.push_back(r.p90_ms);
  }
  report->Add(prefix + "qps", Quantile(qps, 0.5), "queries/s");
  report->Add(prefix + "query_p50_ms", Quantile(p50, 0.5), "ms");
  report->Add(prefix + "query_p90_ms", Quantile(p90, 0.5), "ms");
}

}  // namespace

osq::QueryOptions BenchQueryOptions() {
  // theta 0.9 admits labels one ontology hop away; top-10 answers.
  osq::QueryOptions o;
  o.theta = 0.9;
  o.k = 10;
  return o;
}

osq::ShardOptions BenchShardOptions() {
  // Four id-range shards with halo 2: every query of at most 5 nodes has
  // a pivot of eccentricity <= 2, so none is rejected.
  osq::ShardOptions so;
  so.num_shards = 4;
  so.policy = osq::ShardPolicy::kRange;
  so.halo_radius = 2;
  return so;
}

void Replay(const std::vector<osq::GraphUpdate>& updates, Graph* g) {
  for (const osq::GraphUpdate& u : updates) {
    if (u.kind == osq::GraphUpdate::Kind::kInsertEdge) {
      g->AddEdge(u.edge.from, u.edge.to, u.edge.label);
    } else {
      g->RemoveEdge(u.edge.from, u.edge.to, u.edge.label);
    }
  }
}

void CoreSamples::Merge(const CoreSamples& o) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&overhead_us, o.overhead_us);
  cat(&sim_tables_us, o.sim_tables_us);
  cat(&gview_us, o.gview_us);
  cat(&kmatch_us, o.kmatch_us);
  cat(&kmatch_steps, o.kmatch_steps);
  cat(&ns_per_step, o.ns_per_step);
  cat(&root_partitions, o.root_partitions);
  cat(&partitions_skipped, o.partitions_skipped);
  for (const auto& [name, v] : o.filter_counts) cat(&filter_counts[name], v);
  useful_nodes += o.useful_nodes;
  gv_nodes += o.gv_nodes;
}

void ProbeCore(const osq::QueryEngine& engine, const Graph& query,
               const osq::QueryOptions& options,
               const osq::QueryResult* served, double service_us,
               CoreSamples* out) {
  Clock::time_point t1 = Clock::now();
  osq::QuerySimTables sims = osq::ComputeQuerySimTables(
      engine.ontology(), engine.index().sim(), query, options.theta);
  Clock::time_point t2 = Clock::now();
  osq::FilterResult filter =
      osq::GviewFilter(engine.index(), query, options, nullptr, nullptr, &sims);
  Clock::time_point t3 = Clock::now();
  osq::KMatchStats kstats;
  std::vector<osq::Match> matches;
  if (!filter.no_match) {
    matches = osq::KMatch(query, filter, options, &kstats);
  }
  Clock::time_point t4 = Clock::now();

  if (served != nullptr) {
    out->overhead_us.push_back(
        service_us - 1000.0 * (served->filter_ms + served->verify_ms));
  }
  out->sim_tables_us.push_back(UsBetween(t1, t2));
  out->gview_us.push_back(UsBetween(t2, t3));
  double kmatch_us = UsBetween(t3, t4);
  out->kmatch_us.push_back(kmatch_us);
  out->kmatch_steps.push_back(static_cast<double>(kstats.search_steps));
  if (kstats.search_steps > 0) {
    out->ns_per_step.push_back(kmatch_us * 1000.0 /
                               static_cast<double>(kstats.search_steps));
  }
  out->root_partitions.push_back(static_cast<double>(kstats.root_partitions));
  out->partitions_skipped.push_back(
      static_cast<double>(kstats.partitions_skipped));
  const osq::FilterStats& fs = filter.stats;
  auto& fc = out->filter_counts;
  fc["filter.initial_blocks"].push_back(static_cast<double>(fs.initial_blocks));
  fc["filter.pruned_blocks"].push_back(static_cast<double>(fs.pruned_blocks));
  fc["filter.sig_block_rejections"].push_back(
      static_cast<double>(fs.sig_block_rejections));
  fc["filter.sig_node_rejections"].push_back(
      static_cast<double>(fs.sig_node_rejections));
  fc["filter.pruned_nodes"].push_back(static_cast<double>(fs.pruned_nodes));
  fc["filter.gv_nodes"].push_back(static_cast<double>(fs.gv_nodes));
  std::set<osq::NodeId> useful;
  for (const osq::Match& m : matches) {
    useful.insert(m.mapping.begin(), m.mapping.end());
  }
  out->useful_nodes += static_cast<double>(useful.size());
  out->gv_nodes += static_cast<double>(fs.gv_nodes);
}

ShardSamples ProbeShards(const Graph& g, const osq::OntologyGraph& o,
                         const osq::ShardOptions& shard_options,
                         const std::vector<const Graph*>& queries,
                         const osq::QueryOptions& options) {
  ShardSamples s;
  Clock::time_point t0 = Clock::now();
  osq::ShardPlan plan = osq::GraphPartitioner(g, shard_options).Partition();
  s.partition_ms = MsBetween(t0, Clock::now());
  size_t members = 0;
  for (const osq::ShardSpec& spec : plan.shards) members += spec.members.size();
  s.halo_ratio =
      static_cast<double>(members) / static_cast<double>(g.num_nodes());

  std::vector<osq::QuerySimTables> sims(queries.size());
  std::vector<osq::NodeId> pivots(queries.size());
  s.engine_max_us.assign(queries.size(), 0.0);
  s.engine_sum_us.assign(queries.size(), 0.0);
  for (size_t shard = 0; shard < plan.shards.size(); ++shard) {
    osq::ShardEngine engine(plan.shards[shard], o, osq::IndexOptions{});
    for (size_t i = 0; i < queries.size(); ++i) {
      if (shard == 0) {
        pivots[i] = osq::ChoosePivot(*queries[i]).pivot;
        Clock::time_point p0 = Clock::now();
        sims[i] = engine.PrepareQuery(*queries[i], options);
        s.prepare_us.push_back(UsBetween(p0, Clock::now()));
      }
      Clock::time_point q0 = Clock::now();
      osq::QueryResult r = engine.Query(*queries[i], pivots[i], options,
                                        osq::Deadline(), &sims[i]);
      double us = UsBetween(q0, Clock::now());
      s.engine_max_us[i] = std::max(s.engine_max_us[i], us);
      s.engine_sum_us[i] += us;
    }
  }
  return s;
}

void AddSnapshotMetrics(const osq::SnapshotLoadStats& stats, double load_ms,
                        Report* report) {
  report->Add("snapshot.load_ms", load_ms, "ms");
  report->Add("snapshot.hash_ms", stats.hash_ms, "ms");
  report->Add("snapshot.graph_ms", stats.graph_ms, "ms");
  report->Add("snapshot.concept_graphs_ms", stats.concept_graphs_ms, "ms");
  report->Add("snapshot.candidate_index_ms", stats.candidate_index_ms, "ms");
}

double FileMb(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<double>(f.tellg()) / (1024.0 * 1024.0) : 0.0;
}

double SaveSnapshot(const osq::QueryEngine& engine,
                    const osq::LabelDictionary& dict, const std::string& path,
                    Report* report) {
  osq::Status st = osq::SaveEngineSnapshot(engine, dict, path);
  if (!st.ok()) report->Fail("snapshot save: " + st.ToString());
  return FileMb(path);
}

void TimeSnapshotLoad(const std::string& path, Report* report) {
  osq::LabelDictionary dict;
  std::unique_ptr<osq::QueryEngine> engine;
  osq::SnapshotLoadStats stats;
  Clock::time_point t0 = Clock::now();
  osq::Status st = osq::LoadEngineSnapshot(path, &dict, &engine, &stats);
  double load_ms = MsBetween(t0, Clock::now());
  if (!st.ok()) {
    report->Fail("snapshot load: " + st.ToString());
    return;
  }
  AddSnapshotMetrics(stats, load_ms, report);
}

namespace {

void AddCoreMetrics(const CoreSamples& s, Report* report) {
  report->Add("serve.overhead_us", Quantile(s.overhead_us, 0.5), "us");
  report->Add("filter.sim_tables_us", Quantile(s.sim_tables_us, 0.5), "us");
  report->Add("filter.gview_us", Quantile(s.gview_us, 0.5), "us");
  for (const char* name :
       {"filter.initial_blocks", "filter.pruned_blocks",
        "filter.sig_block_rejections", "filter.sig_node_rejections",
        "filter.pruned_nodes", "filter.gv_nodes"}) {
    auto it = s.filter_counts.find(name);
    report->Add(name, it == s.filter_counts.end() ? 0.0 : Mean(it->second),
                "count");
  }
  report->Add("filter.useful_ratio",
              s.gv_nodes > 0 ? s.useful_nodes / s.gv_nodes : 0.0, "ratio");
  report->Add("kmatch.us", Quantile(s.kmatch_us, 0.5), "us");
  report->Add("kmatch.steps", Mean(s.kmatch_steps), "count");
  report->Add("kmatch.ns_per_step", Quantile(s.ns_per_step, 0.5), "ns");
  report->Add("kmatch.root_partitions", Mean(s.root_partitions), "count");
  report->Add("kmatch.partitions_skipped", Mean(s.partitions_skipped),
              "count");
}

void AddShardMetrics(const ShardSamples& s, Report* report) {
  report->Add("shard.partition_ms", s.partition_ms, "ms");
  report->Add("shard.halo_ratio", s.halo_ratio, "ratio");
  report->Add("shard.prepare_us", Quantile(s.prepare_us, 0.5), "us");
  report->Add("shard.engine_max_us", Quantile(s.engine_max_us, 0.5), "us");
  report->Add("shard.engine_sum_us", Quantile(s.engine_sum_us, 0.5), "us");
  report->Add("shard.scatter_merge_us", Quantile(s.scatter_merge_us, 0.5),
              "us");
}

void AddIngestMetrics(const TimedSink& sink, uint64_t coalesced,
                      Report* report) {
  double submitted = 0;
  for (double b : sink.batch_sizes) submitted += b;
  submitted += static_cast<double>(coalesced);
  double applied = static_cast<double>(sink.maint.applied);
  report->Add("ingest.batch_apply_ms", Quantile(sink.apply_ms, 0.5), "ms");
  report->Add("ingest.updates_per_batch", Mean(sink.batch_sizes), "count");
  report->Add("ingest.coalesced",
              submitted > 0 ? static_cast<double>(coalesced) / submitted : 0.0,
              "ratio");
  report->Add("ingest.queue_wait_ms", Quantile(sink.queue_wait_ms, 0.5), "ms");
  auto per_update = [&](size_t n) {
    return applied > 0 ? static_cast<double>(n) / applied : 0.0;
  };
  report->Add("maint.aff_blocks_per_update", per_update(sink.maint.aff_blocks),
              "1/update");
  report->Add("maint.splits", per_update(sink.maint.splits), "1/update");
  report->Add("maint.merges", per_update(sink.maint.merges), "1/update");
}

// Lag percentiles are taken per group of this many consecutive updates, and
// the median over the groups is reported: a stall of the machine then moves
// the groups it falls in, not the run's figure.  A whole-run p90 of
// flickr-verify's lag (bursts at 100 updates/s) read 3 ms on most runs and
// 9-14 ms on some, with the same updates, because a stall held more than a
// tenth of them.
constexpr size_t kLagGroup = 50;

double GroupedQuantile(const std::vector<double>& v, double q) {
  if (v.size() < 2 * kLagGroup) return Quantile(v, q);
  std::vector<double> per_group;
  for (size_t i = 0; i + kLagGroup <= v.size(); i += kLagGroup) {
    per_group.push_back(Quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i),
                            v.begin() + static_cast<std::ptrdiff_t>(
                                            i + kLagGroup)),
        q));
  }
  return Quantile(per_group, 0.5);
}

}  // namespace

void AddRunMetrics(const RunFigures& f, const TimedSink& sink,
                   uint64_t coalesced, bool trace, Report* report) {
  if (!trace) {
    report->Add("setup_s", f.setup_s, "s");
    report->Add("peak_rss_mb", f.peak_rss_mb, "MiB");
    AddReadMetrics(f.rounds, "", report);
    report->Add("snapshot_mb", f.snapshot_mb, "MiB");
    report->Add("update_lag_p50_ms", GroupedQuantile(sink.lag_ms, 0.5), "ms");
    report->Add("update_lag_p90_ms", GroupedQuantile(sink.lag_ms, 0.9), "ms");
    return;
  }
  report->Add("index.build_ms", f.build_ms, "ms");
  report->Add("serve.lock_wait_p50_us", Quantile(f.wait_us, 0.5), "us");
  report->Add("serve.lock_wait_p90_us", Quantile(f.wait_us, 0.9), "us");
  report->Add("serve.hit_ratio", f.hit_ratio, "ratio");
  report->Add("serve.hit_us", Quantile(f.hit_us, 0.5), "us");
  report->Add("serve.invalidations_per_batch", f.invalidations_per_batch,
              "count");
  AddCoreMetrics(f.core, report);
  AddShardMetrics(f.shards, report);
  AddIngestMetrics(sink, coalesced, report);
  AddReadMetrics(f.rounds, "trace.", report);
}

}  // namespace osqbench
