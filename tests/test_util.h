// Shared helpers for Flint tests: a self-contained engine harness (cluster +
// DFS + context) with latency modelling off by default so unit tests run
// fast, plus small factories for crafted traces and markets.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "src/cluster/cluster_manager.h"
#include "src/dfs/dfs.h"
#include "src/dfs/retry.h"
#include "src/engine/context.h"
#include "src/engine/typed_rdd.h"
#include "src/trace/price_trace.h"

namespace flint {
namespace testing {

struct EngineHarnessOptions {
  int num_nodes = 4;
  uint64_t node_memory = 64 * kMiB;
  int executor_threads = 1;
  bool model_latency = false;
  EvictionMode eviction = EvictionMode::kDrop;
  // Narrow-chain operator fusion; differential tests and the unfused
  // benchmark baselines switch it off.
  bool operator_fusion = true;
  // Wide-stage pipelining: fused map-side bucketing (see EngineConfig).
  // Differential tests toggle it to prove the fused and unfused paths
  // bit-identical.
  bool shuffle_fusion = true;
  // Lock shards per node's BlockManager (see BlockManagerConfig::num_shards).
  int block_shards = 8;
  // Fast time scale so warnings/acquisitions take milliseconds in tests.
  double seconds_per_model_hour = 0.05;
  // Retry/backoff applied to checkpoint writes and verified restores; DFS
  // fault tests shrink the budget so exhaustion paths run in milliseconds.
  DfsRetryPolicy checkpoint_retry{};
  // Straggler mitigation knobs (deadlines, speculative attempts, watchdog);
  // straggler tests tighten the deadlines so scenarios run in milliseconds.
  SpeculationConfig speculation{};
  // Network plane (slow-link tests): modelled per-node NIC capacity plus the
  // hardened fetch path's timeout/retry knobs. Negative values keep the
  // EngineConfig defaults.
  double link_bandwidth_bytes_per_s = -1.0;
  double fetch_timeout_multiplier = -1.0;
  double fetch_timeout_min_seconds = -1.0;
  int fetch_retry_limit = -1;
  double fetch_retry_backoff_seconds = -1.0;
  // Origin-store bandwidth for source partitions (latency tests); negative
  // keeps the EngineConfig default.
  double origin_read_bandwidth_bytes_per_s = -1.0;
};

// Owns a full engine-plane stack. Nodes are added synchronously at
// construction from pseudo-market 0.
class EngineHarness {
 public:
  explicit EngineHarness(EngineHarnessOptions options = {}) : options_(options) {
    TimeConfig tc;
    tc.seconds_per_model_hour = options.seconds_per_model_hour;
    cluster_ = std::make_unique<ClusterManager>(tc);
    DfsConfig dfs_config;
    dfs_ = std::make_unique<Dfs>(dfs_config);
    EngineConfig engine;
    engine.model_latency = options.model_latency;
    engine.operator_fusion = options.operator_fusion;
    engine.shuffle_fusion = options.shuffle_fusion;
    engine.block_defaults.eviction = options.eviction;
    engine.block_defaults.num_shards = options.block_shards;
    engine.checkpoint_retry = options.checkpoint_retry;
    engine.speculation = options.speculation;
    if (options.link_bandwidth_bytes_per_s >= 0.0) {
      engine.default_link_bandwidth_bytes_per_s = options.link_bandwidth_bytes_per_s;
    }
    if (options.fetch_timeout_multiplier >= 0.0) {
      engine.fetch_timeout_multiplier = options.fetch_timeout_multiplier;
    }
    if (options.fetch_timeout_min_seconds >= 0.0) {
      engine.fetch_timeout_min_seconds = options.fetch_timeout_min_seconds;
    }
    if (options.fetch_retry_limit >= 0) {
      engine.fetch_retry_limit = options.fetch_retry_limit;
    }
    if (options.fetch_retry_backoff_seconds >= 0.0) {
      engine.fetch_retry_backoff_seconds = options.fetch_retry_backoff_seconds;
    }
    if (options.origin_read_bandwidth_bytes_per_s >= 0.0) {
      engine.origin_read_bandwidth_bytes_per_s = options.origin_read_bandwidth_bytes_per_s;
    }
    ctx_ = std::make_unique<FlintContext>(cluster_.get(), dfs_.get(), engine);
    for (int i = 0; i < options.num_nodes; ++i) {
      node_ids_.push_back(cluster_->AddNode(0, options.node_memory, options.executor_threads));
    }
  }

  FlintContext& ctx() { return *ctx_; }
  ClusterManager& cluster() { return *cluster_; }
  Dfs& dfs() { return *dfs_; }
  const std::vector<NodeId>& node_ids() const { return node_ids_; }

  // Hard-revokes `count` nodes (no warning) and waits for delivery.
  void RevokeNodes(int count, bool with_warning = false) {
    std::vector<NodeId> victims;
    auto live = cluster_->LiveNodes();
    for (int i = 0; i < count && i < static_cast<int>(live.size()); ++i) {
      victims.push_back(live[static_cast<size_t>(i)].node_id);
    }
    cluster_->Revoke(victims, with_warning);
    cluster_->DrainEvents();
  }

  NodeId AddNode() {
    NodeId id = cluster_->AddNode(0, options_.node_memory, options_.executor_threads);
    node_ids_.push_back(id);
    return id;
  }

 private:
  EngineHarnessOptions options_;
  std::unique_ptr<ClusterManager> cluster_;
  std::unique_ptr<Dfs> dfs_;
  std::unique_ptr<FlintContext> ctx_;
  std::vector<NodeId> node_ids_;
};

// A trace with explicit prices, step = 1 hour by default.
inline PriceTrace MakeTrace(std::vector<double> prices, SimDuration step = Hours(1)) {
  return PriceTrace(step, std::move(prices));
}

// A market whose price is `base` except `spike` during [spike_begin,
// spike_end) hour indices.
inline MarketDesc MakeSpikyMarket(const std::string& name, double on_demand, double base,
                                  double spike, size_t hours, size_t spike_begin,
                                  size_t spike_end) {
  std::vector<double> prices(hours, base);
  for (size_t i = spike_begin; i < spike_end && i < hours; ++i) {
    prices[i] = spike;
  }
  MarketDesc desc;
  desc.name = name;
  desc.on_demand_price = on_demand;
  desc.trace = MakeTrace(std::move(prices));
  return desc;
}

}  // namespace testing
}  // namespace flint

#endif  // TESTS_TEST_UTIL_H_
