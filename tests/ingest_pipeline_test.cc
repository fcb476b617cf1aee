// Unit tests for the ingest pipeline's batching policy: max-batch cuts,
// linger expiry, flush bypass, backpressure rejection, and the last-kind
// duplicate-coalescing rule (including the insert-delete-insert case that
// makes naive duplicate dropping unsound).  A recording sink stands in
// for the serving tiers; the end-to-end path through a real QueryService
// is covered here too (one batch = one snapshot cut) and under load by
// tests/ingest_differential_test.cc.

#include "ingest/ingest_pipeline.h"

#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_maintenance.h"
#include "ingest/update_sink.h"
#include "serve/query_service.h"
#include "shard/sharded_query_service.h"
#include "test_util.h"

namespace osq {
namespace {

// Applies batches to a set-of-triples model of the graph, with the same
// skip semantics as Graph::AddEdge/RemoveEdge.  Only the pipeline worker
// touches it while the pipeline runs; tests read it after Flush()/Stop(),
// which synchronize via the pipeline's queue mutex.
class RecordingSink final : public UpdateSink {
 public:
  MaintenanceStats ApplyBatch(
      const std::vector<GraphUpdate>& batch) override {
    batches.push_back(batch);
    MaintenanceStats stats;
    for (const GraphUpdate& u : batch) {
      auto key = std::make_tuple(u.edge.from, u.edge.to, u.edge.label);
      bool changed = u.kind == GraphUpdate::Kind::kInsertEdge
                         ? live.insert(key).second
                         : live.erase(key) > 0;
      if (changed) {
        ++stats.applied;
      } else {
        ++stats.skipped;
      }
    }
    return stats;
  }

  std::vector<std::vector<GraphUpdate>> batches;
  std::set<std::tuple<NodeId, NodeId, LabelId>> live;
};

GraphUpdate InsertN(uint32_t i) { return GraphUpdate::Insert(i, i + 1, 0); }

TEST(IngestPipelineTest, BatchesRespectMaxBatchAndDrainOnFlush) {
  RecordingSink sink;
  IngestOptions opts;
  opts.max_batch = 4;
  opts.max_linger_ms = 200.0;  // only max-batch and flush cut batches here
  IngestPipeline pipeline(&sink, opts);

  for (uint32_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(pipeline.Submit(InsertN(10 * i)));
  }
  pipeline.Flush();

  size_t total = 0;
  for (const auto& batch : sink.batches) {
    EXPECT_LE(batch.size(), opts.max_batch);
    total += batch.size();
  }
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(sink.live.size(), 12u);

  IngestStats stats = pipeline.Stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.accepted, 12u);
  EXPECT_EQ(stats.applied, 12u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.backlog, 0u);
  EXPECT_GE(stats.batches, 3u);  // 12 updates can't fit in 2 cuts of 4
  EXPECT_GT(stats.coalescing_ratio(), 1.0);
}

TEST(IngestPipelineTest, LingerExpiryCutsWithoutFlush) {
  RecordingSink sink;
  IngestOptions opts;
  opts.max_batch = 1024;  // never fills
  opts.max_linger_ms = 5.0;
  IngestPipeline pipeline(&sink, opts);

  EXPECT_TRUE(pipeline.Submit(InsertN(0)));
  EXPECT_TRUE(pipeline.Submit(InsertN(10)));

  // No Flush: only the linger timer can cut the batch.
  for (int spin = 0; spin < 2000 && pipeline.Stats().batches == 0; ++spin) {
    std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  IngestStats stats = pipeline.Stats();
  // One cut normally; two only if the scheduler stalls between submits
  // past the linger.  Either way everything applied without a Flush.
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.backlog, 0u);
  EXPECT_GT(stats.applied_lag_ms, 0.0);
  EXPECT_GE(stats.max_applied_lag_ms, stats.applied_lag_ms);
}

TEST(IngestPipelineTest, SameKindDuplicatesCoalesce) {
  RecordingSink sink;
  IngestOptions opts;
  opts.max_batch = 1024;
  opts.max_linger_ms = 500.0;  // hold the queue open while we submit
  IngestPipeline pipeline(&sink, opts);

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pipeline.Submit(InsertN(0)));  // accepted or coalesced
  }
  EXPECT_TRUE(pipeline.Submit(InsertN(10)));
  pipeline.Flush();

  IngestStats stats = pipeline.Stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.coalesced, 4u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(sink.live.size(), 2u);
}

TEST(IngestPipelineTest, CoalescingPreservesInsertDeleteInsert) {
  RecordingSink sink;
  IngestOptions opts;
  opts.max_batch = 1024;
  opts.max_linger_ms = 500.0;
  IngestPipeline pipeline(&sink, opts);

  // The last pending update on the triple alternates kind each time, so
  // nothing may coalesce: dropping the final insert would flip the final
  // state from present to absent.
  EXPECT_TRUE(pipeline.Submit(InsertN(0)));
  EXPECT_TRUE(pipeline.Submit(GraphUpdate::Delete(0, 1, 0)));
  EXPECT_TRUE(pipeline.Submit(InsertN(0)));
  pipeline.Flush();

  IngestStats stats = pipeline.Stats();
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.applied, 3u);
  EXPECT_EQ(sink.live.count(std::make_tuple(0u, 1u, 0u)), 1u);

  // After the drain the triple-state map restarts empty: a delete
  // followed by a duplicate delete coalesces the second only.
  EXPECT_TRUE(pipeline.Submit(GraphUpdate::Delete(0, 1, 0)));
  EXPECT_TRUE(pipeline.Submit(GraphUpdate::Delete(0, 1, 0)));
  pipeline.Flush();
  stats = pipeline.Stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(sink.live.count(std::make_tuple(0u, 1u, 0u)), 0u);
}

TEST(IngestPipelineTest, BackpressureRejectsBeyondMaxPending) {
  RecordingSink sink;
  IngestOptions opts;
  opts.max_batch = 8;
  opts.max_pending = 1;
  opts.max_linger_ms = 500.0;  // first update lingers, keeping the slot full
  IngestPipeline pipeline(&sink, opts);

  EXPECT_TRUE(pipeline.Submit(InsertN(0)));
  EXPECT_FALSE(pipeline.Submit(InsertN(10)));  // queue full -> rejected
  pipeline.Flush();

  IngestStats stats = pipeline.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(sink.live.size(), 1u);
}

TEST(IngestPipelineTest, StopDrainsAndRejectsLaterSubmits) {
  RecordingSink sink;
  IngestOptions opts;
  opts.max_linger_ms = 500.0;
  IngestPipeline pipeline(&sink, opts);

  EXPECT_TRUE(pipeline.Submit(InsertN(0)));
  EXPECT_TRUE(pipeline.Submit(InsertN(10)));
  pipeline.Stop();

  EXPECT_EQ(pipeline.Stats().applied, 2u);
  EXPECT_EQ(pipeline.Stats().backlog, 0u);
  EXPECT_FALSE(pipeline.Submit(InsertN(20)));
  EXPECT_EQ(pipeline.Stats().rejected, 1u);
  pipeline.Stop();  // idempotent
}

// End-to-end through a real QueryService: one pipeline batch must land as
// ONE snapshot cut (a single version advance), and the pipeline gauges
// must surface through ServeStats.
TEST(IngestPipelineTest, QueryServiceSinkTakesOneSnapshotCutPerBatch) {
  test::TravelFixture f = test::MakeTravelFixture();
  Graph query = f.query;
  QueryOptions qo;
  qo.theta = 0.9;
  qo.k = 10;
  QueryService service(
      QueryEngine(std::move(f.g), std::move(f.o), IndexOptions{}),
      ServeOptions{});
  const uint64_t version_before = service.version();

  QueryServiceSink sink(&service);
  IngestOptions opts;
  opts.max_batch = 8;
  opts.max_linger_ms = 500.0;
  IngestPipeline pipeline(&sink, opts);

  // Two applied edge updates + one duplicate (coalesced away), one batch.
  EXPECT_TRUE(pipeline.Submit(GraphUpdate::Insert(f.ct, f.hp, f.fav)));
  EXPECT_TRUE(pipeline.Submit(GraphUpdate::Insert(f.ct, f.hp, f.fav)));
  EXPECT_TRUE(pipeline.Submit(GraphUpdate::Insert(f.hp, f.rg, f.near)));
  pipeline.Flush();

  EXPECT_EQ(service.version(), version_before + 1);
  ServedResult served = service.Query(query, qo);
  ASSERT_TRUE(served.result.status.ok());
  EXPECT_EQ(served.result.matches.size(), 2u);  // post-batch state

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.update_batches, 1u);
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_EQ(stats.nodes_added, 0u);

  AugmentServeStats(pipeline, &stats);
  EXPECT_EQ(stats.ingest_backlog, 0u);
  EXPECT_GT(stats.ingest_coalescing_ratio, 1.0);  // 3 submitted / 1 cut
  pipeline.Stop();
}

// An update naming a node the graph does not have reaches either tier's
// sink, is counted invalid there and never applied.
TEST(IngestPipelineTest, OutOfRangeUpdateIsCountedInvalid) {
  test::TravelFixture f = test::MakeTravelFixture();
  QueryService single(QueryEngine(f.g, f.o, IndexOptions{}));
  ShardOptions two_shards;
  two_shards.num_shards = 2;
  ShardedQueryService sharded(f.g, f.o, IndexOptions{}, two_shards);
  QueryServiceSink single_sink(&single);
  ShardedServiceSink sharded_sink(&sharded);

  for (UpdateSink* sink : {&single_sink, &sharded_sink}) {
    IngestPipeline pipeline(sink, IngestOptions{});
    EXPECT_TRUE(pipeline.Submit(GraphUpdate::Insert(3, 5000000, 0)));
    pipeline.Flush();
    IngestStats stats = pipeline.Stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.invalid, 1u);
    EXPECT_EQ(stats.applied, 0u);
    EXPECT_EQ(stats.skipped, 0u);
    pipeline.Stop();
  }
  EXPECT_EQ(single.version(), 0u);
  EXPECT_EQ(sharded.version(), (VersionVector{{0, 0}}));
}

}  // namespace
}  // namespace osq
