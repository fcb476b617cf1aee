// Shared pieces of the end-to-end benchmark: run arguments, metric
// collection and output, the closed-loop client runner, the timed ingest
// writer, and the per-layer probes the traced mode runs.

#ifndef OSQBENCH_BENCH_H_
#define OSQBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/index_maintenance.h"
#include "core/options.h"
#include "core/query_engine.h"
#include "core/snapshot.h"
#include "gen/query_gen.h"
#include "graph/graph.h"
#include "graph/label_dictionary.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_sink.h"
#include "ontology/ontology_graph.h"
#include "shard/partitioner.h"

namespace osqbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for files the benchmark writes (snapshots).
  std::string data_dir;
  // Time the process started, for setup_s.
  Clock::time_point process_start;
};

// The result of one run: the metrics to print plus the operation counts
// and the verdict of the answer checks.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Empty when every check passed.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& what) { errors.push_back(what); }
};

// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);
// Peak resident set of this process so far, MiB (getrusage).
double PeakRssMb();

// Fixed query sets: `per_template` queries extracted from `g` for each
// template profile, duplicates (same labels and edges) dropped.
std::vector<osq::Graph> MakeQueryPool(
    const osq::Graph& g, const osq::OntologyGraph& o,
    const std::vector<osq::gen::QueryGenParams>& templates,
    size_t per_template, uint64_t seed);

// Closed-loop load: `clients` threads each claim the next operation index
// and run op(client, index) until the deadline has passed; the run then
// completes the current round, so the operation count is always a whole
// number of rounds.  `stop_early`
// (optional) ends the run at the next round boundary once it returns
// true, whatever the deadline.
void RunClosedLoop(size_t clients, size_t round, Clock::time_point deadline,
                     const std::function<void(size_t, size_t)>& op,
                     const std::function<bool()>& stop_early = nullptr);

// UpdateSink wrapper that times every batch and records, for each update
// that reached the sink, the lag from its scheduled submit time to the
// return of the ApplyBatch that made it visible.
class TimedSink final : public osq::UpdateSink {
 public:
  explicit TimedSink(osq::UpdateSink* inner) : inner_(inner) {}

  osq::MaintenanceStats ApplyBatch(
      const std::vector<osq::GraphUpdate>& batch) override;

  // Called by the writer, under lock(), for each update the pipeline
  // accepted (in submit order).
  void NoteAccepted(Clock::time_point scheduled) {
    scheduled_.push_back(scheduled);
  }
  std::mutex& lock() { return mu_; }

  // Samples, read after the pipeline has been flushed.
  std::vector<double> lag_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> apply_ms;
  std::vector<double> batch_sizes;
  osq::MaintenanceStats maint;  // summed over batches

 private:
  osq::UpdateSink* inner_;
  std::mutex mu_;
  std::deque<Clock::time_point> scheduled_;
};

// Submits `updates` to `pipeline` at `rate` updates per second from
// `start`, telling `sink` which ones were accepted.  Returns the number
// the pipeline rejected.
size_t RunWriter(osq::IngestPipeline* pipeline, TimedSink* sink,
                 const std::vector<osq::GraphUpdate>& updates, double rate,
                 Clock::time_point start);

// Updates from a ChurnStream over `g`, exactly `count` of them, keeping
// only those `keep` accepts (all when it is empty).
std::vector<osq::GraphUpdate> MakeChurn(
    const osq::Graph& g, uint64_t seed, size_t count,
    const std::function<bool(const osq::GraphUpdate&)>& keep = nullptr);
// Applies `updates` to `g` through the plain Graph API.
void Replay(const std::vector<osq::GraphUpdate>& updates, osq::Graph* g);

// Throughput and latency of one round of reads.  The end-to-end read
// metrics are medians over a run's rounds, so a short stall of the
// machine moves one round, not the run's figure.
struct RoundStats {
  double qps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
};
RoundStats MakeRound(double wall_ms, const std::vector<double>& latency_ms);

// Per-layer samples of the core read path (filter + verify), gathered by
// calling the layers' public functions directly.
struct CoreSamples {
  std::vector<double> overhead_us;  // QueryService::Query - QueryEngine::Query
  std::vector<double> sim_tables_us;
  std::vector<double> gview_us;
  std::vector<double> kmatch_us;
  std::vector<double> kmatch_steps;
  std::vector<double> ns_per_step;
  std::vector<double> root_partitions;
  std::vector<double> partitions_skipped;
  std::map<std::string, std::vector<double>> filter_counts;
  double useful_nodes = 0;
  double gv_nodes = 0;

  void Merge(const CoreSamples& other);
};

// Runs one query through ComputeQuerySimTables, GviewFilter and KMatch,
// the calls QueryEngine::Query is made of, timing each.
// `served` (null when none) is QueryService's answer to the same query on
// a cache miss and `service_us` the time of that call; the serve overhead
// is that time minus the filter and verify time the served answer records.
void ProbeCore(const osq::QueryEngine& engine, const osq::Graph& query,
               const osq::QueryOptions& options,
               const osq::QueryResult* served, double service_us,
               CoreSamples* out);

// Per-layer samples of the sharded tier.
struct ShardSamples {
  double partition_ms = 0;
  double halo_ratio = 0;
  std::vector<double> prepare_us;
  // engine_max_us[i] / engine_sum_us[i] belong to probe query i.
  std::vector<double> engine_max_us;
  std::vector<double> engine_sum_us;
  std::vector<double> scatter_merge_us;
};

// Partitions `g` (timed), then builds each shard's engine in turn and
// times ShardEngine::PrepareQuery and ShardEngine::Query for every probe
// query.  Only one shard engine is alive at a time.
ShardSamples ProbeShards(const osq::Graph& g, const osq::OntologyGraph& o,
                         const osq::ShardOptions& shard_options,
                         const std::vector<const osq::Graph*>& queries,
                         const osq::QueryOptions& options);

// Size of the file at `path` in MiB (0 when it cannot be read).
double FileMb(const std::string& path);
// Writes `engine`'s v2 snapshot to `path`; returns its size in MiB.
double SaveSnapshot(const osq::QueryEngine& engine,
                    const osq::LabelDictionary& dict, const std::string& path,
                    Report* report);
// Loads the snapshot at `path`, timed, and adds the snapshot.* metrics.
void TimeSnapshotLoad(const std::string& path, Report* report);

// Adds the snapshot.* metrics of one timed load.
void AddSnapshotMetrics(const osq::SnapshotLoadStats& stats, double load_ms,
                        Report* report);

// What a workload measured, turned into metrics by AddRunMetrics.
struct RunFigures {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double snapshot_mb = 0;
  double build_ms = 0;  // index.build_ms
  std::vector<RoundStats> rounds;
  std::vector<double> wait_us;  // lock wait of every read
  std::vector<double> hit_us;
  double hit_ratio = 0;
  double invalidations_per_batch = 0;
  CoreSamples core;
  ShardSamples shards;
};

// Adds the end-to-end metrics (untraced run) or the per-layer ones
// (traced run); `coalesced` is the pipeline's coalesced count.
void AddRunMetrics(const RunFigures& f, const TimedSink& sink,
                   uint64_t coalesced, bool trace, Report* report);

// The query options, and the sharding the benchmark uses and probes.
osq::QueryOptions BenchQueryOptions();
osq::ShardOptions BenchShardOptions();

// Workload entry points.
Report RunSingleEngine(const RunArgs& args);
Report RunCommunityChurn(const RunArgs& args);
// Writes the xdomain-read snapshot to `path` (untimed preparation).
int PrepareXdomain(const std::string& path);

// The checker's own test; returns 0 when every corruption was caught.
int RunSelfTest();

}  // namespace osqbench

#endif  // OSQBENCH_BENCH_H_
