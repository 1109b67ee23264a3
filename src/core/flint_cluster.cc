#include "src/core/flint_cluster.h"

#include "src/trace/market_catalog.h"

// flint-lint: allow-file(det-wallclock) job wall-time is report telemetry; it never feeds partition data

namespace flint {

FlintCluster::FlintCluster(FlintOptions options) : options_(std::move(options)) {
  if (options_.markets.empty()) {
    options_.markets = RegionMarkets(16, options_.seed);
  }
  marketplace_ = std::make_unique<Marketplace>(options_.markets, options_.on_demand_price,
                                               options_.seed ^ 0x5eedULL);
  cluster_ = std::make_unique<ClusterManager>(options_.time);
  dfs_ = std::make_unique<Dfs>(options_.dfs);
  ctx_ = std::make_unique<FlintContext>(cluster_.get(), dfs_.get(), options_.engine);
  CheckpointConfig ckpt = options_.checkpoint;
  ckpt.time = options_.time;
  ft_ = std::make_unique<FaultToleranceManager>(ctx_.get(), ckpt);
  node_manager_ = std::make_unique<NodeManager>(ctx_.get(), marketplace_.get(), ft_.get(),
                                                options_.nodes);
}

FlintCluster::~FlintCluster() {
  ft_->Stop();
  cluster_->DrainEvents();
}

Status FlintCluster::Start() {
  FLINT_RETURN_IF_ERROR(node_manager_->Start());
  ft_->Start();
  return Status::Ok();
}

JobReport FlintCluster::RunMeasured(const std::function<Status(FlintContext&)>& job) {
  JobReport report;
  EngineCounters& c = ctx_->counters();
  const uint64_t tasks0 = c.tasks_run.load();
  const uint64_t fail0 = c.task_failures.load();
  const uint64_t rec0 = c.partitions_recomputed.load();
  const uint64_t ckw0 = c.checkpoint_writes.load();
  const uint64_t ckb0 = c.checkpoint_bytes.load();
  const uint64_t rcr0 = c.remote_cache_reads.load();
  const uint64_t rcb0 = c.remote_cache_read_bytes.load();
  const int64_t acq0 = c.acquisition_wait_nanos.load();
  const double cost0 = node_manager_->TotalCost();
  const double od0 = node_manager_->OnDemandEquivalentCost();

  const auto t0 = WallClock::now();
  report.status = job(*ctx_);
  report.wall_seconds = WallDuration(WallClock::now() - t0).count();

  report.tasks_run = c.tasks_run.load() - tasks0;
  report.task_failures = c.task_failures.load() - fail0;
  report.partitions_recomputed = c.partitions_recomputed.load() - rec0;
  report.checkpoint_writes = c.checkpoint_writes.load() - ckw0;
  report.checkpoint_bytes = c.checkpoint_bytes.load() - ckb0;
  report.remote_cache_reads = c.remote_cache_reads.load() - rcr0;
  report.remote_cache_read_bytes = c.remote_cache_read_bytes.load() - rcb0;
  report.acquisition_wait_seconds =
      static_cast<double>(c.acquisition_wait_nanos.load() - acq0) * 1e-9;
  report.cost_dollars = node_manager_->TotalCost() - cost0;
  report.on_demand_cost_dollars = node_manager_->OnDemandEquivalentCost() - od0;
  return report;
}

}  // namespace flint
