// UpdateSink — the ingest pipeline's application boundary.
//
// IngestPipeline (ingest_pipeline.h) batches a stream of GraphUpdates and
// hands each batch to an UpdateSink, which must apply it ATOMICALLY with
// respect to concurrent readers: one ApplyBatch call is one snapshot cut.
// The serving front end's ApplyUpdates (serve/front_end.h) provides
// exactly that contract for both serving tiers, so one thin non-owning
// sink serves either.  The indirection gives tests a seam for
// counting/faulting batch applications.

#ifndef OSQ_INGEST_UPDATE_SINK_H_
#define OSQ_INGEST_UPDATE_SINK_H_

#include <vector>

#include "core/index_maintenance.h"
#include "serve/front_end.h"
#include "serve/serve_stats.h"

namespace osq {

class UpdateSink {
 public:
  virtual ~UpdateSink() = default;

  // Applies `batch` as one atomic snapshot cut.  Must be safe to call
  // concurrently with the sink's readers (the pipeline serializes its own
  // ApplyBatch calls — at most one is in flight at a time).
  virtual MaintenanceStats ApplyBatch(
      const std::vector<GraphUpdate>& batch) = 0;
};

// Sink over a serving front end.  Does not own it.
class ServiceSink final : public UpdateSink {
 public:
  explicit ServiceSink(ServeFrontEnd* front_end) : front_end_(front_end) {}
  // Either serving tier (QueryService, ShardedQueryService).
  template <typename Service>
  explicit ServiceSink(Service* service)
      : ServiceSink(service->front_end()) {}

  MaintenanceStats ApplyBatch(
      const std::vector<GraphUpdate>& batch) override {
    return front_end_->ApplyUpdates(batch);
  }

 private:
  ServeFrontEnd* front_end_;
};

// The names each serving tier's callers know the sink by.
using QueryServiceSink = ServiceSink;
using ShardedServiceSink = ServiceSink;

class IngestPipeline;

// Copies the pipeline gauges into a serving-layer stats snapshot
// (ServeStats::ingest_*), joining write-path and read-path observability in
// one report.  Lives here — not on IngestPipeline — because update_sink is
// the one sanctioned ingest<->serving bridge (osq-layering); the rest of
// src/ingest stays free of serving-tier includes.
void AugmentServeStats(const IngestPipeline& pipeline, ServeStats* stats);

}  // namespace osq

#endif  // OSQ_INGEST_UPDATE_SINK_H_
