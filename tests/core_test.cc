// End-to-end tests for the managed-service layer: FlintCluster wiring, node
// manager provisioning/restoration, billing, and full jobs under policy
// control with market revocations.

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "src/core/flint_cluster.h"
#include "src/engine/typed_rdd.h"
#include "src/workloads/kmeans.h"
#include "tests/test_util.h"

namespace flint {
namespace {

FlintOptions FastOptions(SelectionPolicyKind policy) {
  FlintOptions options;
  options.seed = 77;
  options.time.seconds_per_model_hour = 0.05;  // fast lifecycle events
  options.engine.model_latency = false;
  options.nodes.cluster_size = 6;
  options.nodes.policy = policy;
  options.checkpoint.policy = CheckpointPolicyKind::kFlint;
  options.checkpoint.mttf_hours = 50.0;
  return options;
}

TEST(FlintClusterTest, StartProvisionsRequestedClusterSize) {
  FlintCluster cluster(FastOptions(SelectionPolicyKind::kFlintBatch));
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.cluster().NumLiveNodes(), 6u);
  // Batch policy: homogeneous cluster (one market).
  EXPECT_EQ(cluster.nodes().ActiveMarkets().size(), 1u);
}

TEST(FlintClusterTest, InteractivePolicySpansMarkets) {
  FlintCluster cluster(FastOptions(SelectionPolicyKind::kFlintInteractive));
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.cluster().NumLiveNodes(), 6u);
  EXPECT_GE(cluster.nodes().ActiveMarkets().size(), 2u);
}

TEST(FlintClusterTest, DoubleStartFails) {
  FlintCluster cluster(FastOptions(SelectionPolicyKind::kFlintBatch));
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.nodes().Start().code(), StatusCode::kFailedPrecondition);
}

TEST(FlintClusterTest, RevocationTriggersReplacement) {
  FlintCluster cluster(FastOptions(SelectionPolicyKind::kFlintBatch));
  ASSERT_TRUE(cluster.Start().ok());
  const auto before = cluster.nodes().ActiveMarkets();
  ASSERT_EQ(before.size(), 1u);
  cluster.cluster().RevokeMarket(before.front(), /*with_warning=*/true);
  cluster.cluster().DrainEvents();
  // Replacements restore the cluster to size N from a different market.
  EXPECT_EQ(cluster.cluster().NumLiveNodes(), 6u);
  const auto after = cluster.nodes().ActiveMarkets();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after.front(), before.front());
}

TEST(FlintClusterTest, CostsAccrueAndSpotBeatsOnDemand) {
  FlintCluster cluster(FastOptions(SelectionPolicyKind::kFlintBatch));
  ASSERT_TRUE(cluster.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // > 1 model hour
  const double spot = cluster.nodes().TotalCost();
  const double od = cluster.nodes().OnDemandEquivalentCost();
  EXPECT_GT(spot, 0.0);
  EXPECT_GT(od, 0.0);
  EXPECT_LT(spot, od);  // the whole point of the system
}

TEST(FlintClusterTest, RunMeasuredReportsJobDeltas) {
  FlintCluster cluster(FastOptions(SelectionPolicyKind::kFlintBatch));
  ASSERT_TRUE(cluster.Start().ok());
  JobReport report = cluster.RunMeasured([](FlintContext& ctx) {
    std::vector<int> data(5000);
    std::iota(data.begin(), data.end(), 0);
    auto count = Parallelize(&ctx, data, 6)
                     .Filter([](const int& x) { return x % 2 == 0; })
                     .Count();
    if (!count.ok()) {
      return count.status();
    }
    return *count == 2500 ? Status::Ok() : Internal("wrong count");
  });
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GT(report.tasks_run, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(FlintClusterTest, JobSurvivesWholeClusterRevocationUnderManagement) {
  FlintCluster cluster(FastOptions(SelectionPolicyKind::kFlintBatch));
  ASSERT_TRUE(cluster.Start().ok());
  KMeansParams params;
  params.num_points = 5000;
  params.k = 3;
  params.partitions = 6;
  params.iterations = 3;

  // Reference answer on an untouched cluster.
  double expect_inertia = 0.0;
  {
    FlintCluster reference(FastOptions(SelectionPolicyKind::kFlintBatch));
    ASSERT_TRUE(reference.Start().ok());
    auto r = RunKMeans(reference.ctx(), params);
    ASSERT_TRUE(r.ok());
    expect_inertia = r->inertia;
  }

  std::thread chaos([&cluster] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    auto markets = cluster.nodes().ActiveMarkets();
    if (!markets.empty()) {
      cluster.cluster().RevokeMarket(markets.front(), /*with_warning=*/true);
    }
  });
  auto result = RunKMeans(cluster.ctx(), params);
  chaos.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->inertia, expect_inertia);
  // Replacements can join before the originals' revocation timers fire, so
  // settle the lifecycle queue before counting.
  cluster.cluster().DrainEvents();
  EXPECT_EQ(cluster.cluster().NumLiveNodes(), 6u);
}

TEST(FlintClusterTest, MarketDrivenRevocationsReplaceNodesAutomatically) {
  FlintOptions options = FastOptions(SelectionPolicyKind::kFlintBatch);
  options.nodes.market_driven_revocations = true;
  // Volatile single-market region so revocations happen within the test.
  SyntheticTraceParams params;
  params.duration = Hours(24.0 * 30);
  params.spikes_per_hour = 1.0 / 2.0;  // every ~2 model hours = 0.1 s here
  params.seed = 5;
  MarketDesc desc;
  desc.name = "volatile";
  desc.on_demand_price = 0.35;
  desc.trace = GenerateSyntheticTrace(params);
  options.markets = {desc};
  FlintCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  cluster.cluster().DrainEvents();
  // Nodes were revoked by the market and replaced; the cluster holds at N.
  EXPECT_EQ(cluster.cluster().NumLiveNodes(), 6u);
}

// Restoration exclusion is per-market: an unrelated node joining must not
// re-admit a market whose own replacement is still pending (the old code
// cleared the entire exclusion set on any join).
TEST(FlintClusterTest, ExclusionClearsPerMarketNotGlobally) {
  FlintOptions options = FastOptions(SelectionPolicyKind::kFlintBatch);
  options.time.seconds_per_model_hour = 10.0;  // replacements stay pending during the test
  FlintCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  auto live = cluster.cluster().LiveNodes();
  ASSERT_FALSE(live.empty());
  const NodeInfo victim = live.front();
  ASSERT_NE(victim.market, kOnDemandMarket);

  cluster.nodes().OnNodeWarning(victim);
  EXPECT_EQ(cluster.nodes().ExcludedMarkets(), std::vector<MarketId>{victim.market});

  NodeInfo unrelated;
  unrelated.node_id = 424242;  // no pending replacement maps to this node
  unrelated.market = victim.market + 1;
  cluster.nodes().OnNodeAdded(unrelated);
  EXPECT_EQ(cluster.nodes().ExcludedMarkets(), std::vector<MarketId>{victim.market});
}

// The exclusion also lapses after the configured cooldown even if the
// market's replacement never lands (e.g. it fell back to on-demand).
TEST(FlintClusterTest, ExclusionLapsesAfterCooldown) {
  FlintOptions options = FastOptions(SelectionPolicyKind::kFlintBatch);
  options.time.seconds_per_model_hour = 10.0;
  options.nodes.revocation_exclusion_cooldown = Hours(0.0002);  // 20 ms wall
  FlintCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  auto live = cluster.cluster().LiveNodes();
  ASSERT_FALSE(live.empty());
  const NodeInfo victim = live.front();

  cluster.nodes().OnNodeWarning(victim);
  ASSERT_EQ(cluster.nodes().ExcludedMarkets().size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  NodeInfo unrelated;
  unrelated.node_id = 424243;
  unrelated.market = victim.market;
  cluster.nodes().OnNodeAdded(unrelated);  // triggers lazy pruning
  EXPECT_TRUE(cluster.nodes().ExcludedMarkets().empty());
}

}  // namespace
}  // namespace flint
