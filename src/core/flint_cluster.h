// FlintCluster: the managed-service facade (paper Sec 2.3) that wires every
// subsystem together: marketplace (spot pools), cluster manager (node
// lifecycle), DFS (checkpoint store), engine context, fault-tolerance
// manager, and node manager. Most examples and benches only need this class.

#ifndef SRC_CORE_FLINT_CLUSTER_H_
#define SRC_CORE_FLINT_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/ft_manager.h"
#include "src/cluster/cluster_manager.h"
#include "src/core/node_manager.h"
#include "src/dfs/dfs.h"
#include "src/engine/context.h"
#include "src/market/marketplace.h"

namespace flint {

struct FlintOptions {
  // Markets. If empty, RegionMarkets(16, seed) is generated.
  std::vector<MarketDesc> markets;
  double on_demand_price = 0.35;
  uint64_t seed = 42;

  TimeConfig time;
  EngineConfig engine;
  DfsConfig dfs;
  CheckpointConfig checkpoint;
  NodeManagerConfig nodes;
};

// End-to-end result of one measured job.
struct JobReport {
  Status status;
  double wall_seconds = 0.0;
  double cost_dollars = 0.0;             // accrued over the job
  double on_demand_cost_dollars = 0.0;   // same node-hours at on-demand price
  uint64_t tasks_run = 0;
  uint64_t task_failures = 0;
  uint64_t partitions_recomputed = 0;
  uint64_t checkpoint_writes = 0;
  uint64_t checkpoint_bytes = 0;
  // Cached blocks a task read off another node, and their bytes.
  uint64_t remote_cache_reads = 0;
  uint64_t remote_cache_read_bytes = 0;
  double acquisition_wait_seconds = 0.0;
};

class FlintCluster {
 public:
  explicit FlintCluster(FlintOptions options);
  ~FlintCluster();

  FlintCluster(const FlintCluster&) = delete;
  FlintCluster& operator=(const FlintCluster&) = delete;

  // Provisions the initial nodes and starts the checkpoint signal thread.
  Status Start();

  FlintContext& ctx() { return *ctx_; }
  ClusterManager& cluster() { return *cluster_; }
  Marketplace& marketplace() { return *marketplace_; }
  Dfs& dfs() { return *dfs_; }
  FaultToleranceManager& ft() { return *ft_; }
  NodeManager& nodes() { return *node_manager_; }
  const FlintOptions& options() const { return options_; }

  // Runs `job` against the context and reports wall time, cost, and engine
  // counter deltas for just that job.
  JobReport RunMeasured(const std::function<Status(FlintContext&)>& job);

 private:
  FlintOptions options_;
  std::unique_ptr<Marketplace> marketplace_;
  std::unique_ptr<ClusterManager> cluster_;
  std::unique_ptr<Dfs> dfs_;
  std::unique_ptr<FlintContext> ctx_;
  std::unique_ptr<FaultToleranceManager> ft_;
  std::unique_ptr<NodeManager> node_manager_;
};

}  // namespace flint

#endif  // SRC_CORE_FLINT_CLUSTER_H_
