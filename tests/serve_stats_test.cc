// Pins the ServeStats accounting invariant (serve_stats.h):
//
//   queries == cache_hits + cache_misses
//   total_requests() == queries + shed
//   queries == hit_latency.count + miss_latency.count
//              + degraded_latency.count   (shed requests record NO latency)
//
// plus the ToTenthUs rounding fix: tick conversion must round to nearest,
// not truncate — truncation made every sub-0.1 us lock wait vanish, so
// read_wait_us/write_wait_us undercounted systematically under high QPS.

#include "serve/serve_stats.h"

#include <string>

#include <gtest/gtest.h>

#include "core/index_maintenance.h"
#include "serve/query_service.h"
#include "shard/sharded_query_service.h"
#include "test_util.h"

namespace osq {
namespace {

TEST(ToTenthUsTest, RoundsToNearestTick) {
  EXPECT_EQ(ToTenthUs(0.0), 0u);
  EXPECT_EQ(ToTenthUs(-1.0), 0u);
  // Regression: truncation turned both of these into 0 ticks.
  EXPECT_EQ(ToTenthUs(0.06), 1u);
  EXPECT_EQ(ToTenthUs(0.05), 1u);  // half rounds up
  EXPECT_EQ(ToTenthUs(0.04), 0u);
  EXPECT_EQ(ToTenthUs(0.96), 10u);
  EXPECT_EQ(ToTenthUs(1.0), 10u);
  EXPECT_EQ(ToTenthUs(12.34), 123u);
}

TEST(ToTenthUsTest, SubTickLatenciesSurviveHistogramAccumulation) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Record(0.06);
  LatencySummary s = h.Summarize();
  EXPECT_EQ(s.count, 10u);
  // 10 x 0.06us rounds to 10 ticks = 1.0us total -> mean 0.1us; the old
  // truncating conversion reported mean 0.
  EXPECT_NEAR(s.mean_us, 0.1, 1e-9);
  EXPECT_NEAR(s.max_us, 0.1, 1e-9);
}

TEST(ServeStatsTest, TotalRequestsAndInvalidationRateAccessors) {
  ServeStats s;
  s.queries = 90;
  s.cache_hits = 60;
  s.cache_misses = 30;
  s.shed = 10;
  EXPECT_EQ(s.queries, s.cache_hits + s.cache_misses);
  EXPECT_EQ(s.total_requests(), 100u);

  EXPECT_EQ(s.cache_invalidation_rate(), 0.0);  // no batches yet
  s.update_batches = 4;
  s.cache_invalidations = 6;
  EXPECT_DOUBLE_EQ(s.cache_invalidation_rate(), 1.5);
}

TEST(ServeStatsTest, ToStringRendersNewFields) {
  ServeStats s;
  s.queries = 2;
  s.shed = 1;
  std::string out = s.ToString();
  EXPECT_NE(out.find("3 total requests"), std::string::npos);
  EXPECT_NE(out.find("nodes added"), std::string::npos);
  EXPECT_NE(out.find("burst"), std::string::npos);
  // Ingest block only appears once a pipeline reported gauges.
  EXPECT_EQ(out.find("ingest:"), std::string::npos);
  s.ingest_backlog = 5;
  s.ingest_applied_lag_ms = 2.5;
  s.ingest_coalescing_ratio = 3.0;
  out = s.ToString();
  EXPECT_NE(out.find("ingest:"), std::string::npos);
}

// Miss, hit, one node add, one edge update, miss again.
template <typename Service>
ServeStats DriveLiveService(Service* service, const test::TravelFixture& f) {
  QueryOptions qo;
  qo.theta = 0.9;
  qo.k = 10;
  EXPECT_TRUE(service->Query(f.query, qo).result.status.ok());  // miss
  EXPECT_TRUE(service->Query(f.query, qo).result.status.ok());  // hit
  (void)service->AddNode(f.guide);
  EXPECT_TRUE(service->ApplyUpdate(GraphUpdate::Insert(f.ct, f.hp, f.fav)));
  EXPECT_TRUE(service->Query(f.query, qo).result.status.ok());  // miss again
  return service->Stats();
}

// The invariant on a live service of either tier: admitted queries split
// exactly into hits and misses, every admitted query records exactly one
// latency sample, and mutations keep edge vs node counters separate.
TEST(ServeStatsTest, LiveServiceCountersReconcile) {
  test::TravelFixture f = test::MakeTravelFixture();
  ShardOptions two_shards;
  two_shards.num_shards = 2;
  ShardedQueryService sharded(f.g, f.o, IndexOptions{}, two_shards);
  QueryService service(QueryEngine(f.g, f.o, IndexOptions{}),
                       ServeOptions{});
  const ServeStats single_stats = DriveLiveService(&service, f);
  // A sharded update can advance more than one version component, so the
  // version sum is pinned for the single tier only.
  EXPECT_EQ(single_stats.version, 2u);

  for (const ServeStats& s : {single_stats, DriveLiveService(&sharded, f)}) {
    EXPECT_EQ(s.queries, 3u);
    EXPECT_EQ(s.cache_hits, 1u);
    EXPECT_EQ(s.cache_misses, 2u);
    EXPECT_EQ(s.queries, s.cache_hits + s.cache_misses);
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.total_requests(), s.queries);
    EXPECT_EQ(s.queries, s.hit_latency.count + s.miss_latency.count +
                             s.degraded_latency.count);
    // Counter split: one node add, one edge update, two batches.
    EXPECT_EQ(s.nodes_added, 1u);
    EXPECT_EQ(s.updates_applied, 1u);
    EXPECT_EQ(s.update_batches, 2u);
  }
}

}  // namespace
}  // namespace osq
