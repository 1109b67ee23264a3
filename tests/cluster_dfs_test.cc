// Tests for the cluster-lifecycle substrate (timer queue, node manager
// mechanics) and the DFS checkpoint store.

#include <gtest/gtest.h>

#include <atomic>

#include "src/cluster/cluster_manager.h"
#include "src/cluster/timer_queue.h"
#include "src/dfs/dfs.h"
#include "tests/test_util.h"

namespace flint {
namespace {

// --- TimerQueue ---

TEST(TimerQueueTest, FiresInDeadlineOrder) {
  TimerQueue timers;
  std::mutex mu;
  std::vector<int> order;
  timers.ScheduleAfter(WallDuration(0.05), [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
  });
  timers.ScheduleAfter(WallDuration(0.01), [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  timers.Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerQueueTest, CancelPreventsFiring) {
  TimerQueue timers;
  std::atomic<int> fired{0};
  const uint64_t id = timers.ScheduleAfter(WallDuration(0.2), [&] { fired.fetch_add(1); });
  EXPECT_TRUE(timers.Cancel(id));
  EXPECT_FALSE(timers.Cancel(id));  // already gone
  timers.Drain();
  EXPECT_EQ(fired.load(), 0);
}

TEST(TimerQueueTest, DrainWaitsForCallbacks) {
  TimerQueue timers;
  std::atomic<bool> done{false};
  timers.ScheduleAfter(WallDuration(0.02), [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    done.store(true);
  });
  timers.Drain();
  EXPECT_TRUE(done.load());
}

// --- ClusterManager ---

class RecordingListener : public ClusterListener {
 public:
  void OnNodeAdded(const NodeInfo& node) override {
    std::lock_guard<std::mutex> lock(mu_);
    added_.push_back(node.node_id);
  }
  void OnNodeWarning(const NodeInfo& node) override {
    std::lock_guard<std::mutex> lock(mu_);
    warned_.push_back(node.node_id);
  }
  void OnNodeRevoked(const NodeInfo& node) override {
    std::lock_guard<std::mutex> lock(mu_);
    revoked_.push_back(node.node_id);
  }
  std::vector<NodeId> added() {
    std::lock_guard<std::mutex> lock(mu_);
    return added_;
  }
  std::vector<NodeId> warned() {
    std::lock_guard<std::mutex> lock(mu_);
    return warned_;
  }
  std::vector<NodeId> revoked() {
    std::lock_guard<std::mutex> lock(mu_);
    return revoked_;
  }

 private:
  std::mutex mu_;
  std::vector<NodeId> added_;
  std::vector<NodeId> warned_;
  std::vector<NodeId> revoked_;
};

TimeConfig FastTime() {
  TimeConfig tc;
  tc.seconds_per_model_hour = 0.05;  // warning/acquisition in milliseconds
  return tc;
}

TEST(ClusterManagerTest, WarningPrecedesRevocation) {
  ClusterManager cluster(FastTime());
  RecordingListener listener;
  cluster.SetListener(&listener);
  const NodeId id = cluster.AddNode(0, 1 * kMiB);
  EXPECT_TRUE(cluster.IsLive(id));
  cluster.Revoke({id}, /*with_warning=*/true);
  // Warning is synchronous; the node is still live during the notice period.
  EXPECT_EQ(listener.warned(), (std::vector<NodeId>{id}));
  EXPECT_TRUE(cluster.IsLive(id));
  cluster.DrainEvents();
  EXPECT_FALSE(cluster.IsLive(id));
  EXPECT_EQ(listener.revoked(), (std::vector<NodeId>{id}));
}

TEST(ClusterManagerTest, HardRevocationSkipsWarning) {
  ClusterManager cluster(FastTime());
  RecordingListener listener;
  cluster.SetListener(&listener);
  const NodeId id = cluster.AddNode(0, 1 * kMiB);
  cluster.Revoke({id}, /*with_warning=*/false);
  EXPECT_TRUE(listener.warned().empty());
  EXPECT_EQ(listener.revoked(), (std::vector<NodeId>{id}));
}

TEST(ClusterManagerTest, RevokeMarketHitsOnlyThatMarket) {
  ClusterManager cluster(FastTime());
  RecordingListener listener;
  cluster.SetListener(&listener);
  cluster.AddNode(/*market=*/0, 1 * kMiB);
  cluster.AddNode(/*market=*/1, 1 * kMiB);
  cluster.AddNode(/*market=*/0, 1 * kMiB);
  cluster.RevokeMarket(0, /*with_warning=*/false);
  cluster.DrainEvents();
  EXPECT_EQ(cluster.NumLiveNodes(), 1u);
  EXPECT_EQ(cluster.LiveNodes().front().market, 1);
}

TEST(ClusterManagerTest, DelayedAddHonorsAcquisitionDelay) {
  ClusterManager cluster(FastTime());
  RecordingListener listener;
  cluster.SetListener(&listener);
  const NodeId pending = cluster.AddNodeAfterDelay(2, 1 * kMiB);
  EXPECT_FALSE(cluster.IsLive(pending));
  cluster.DrainEvents();
  EXPECT_TRUE(cluster.IsLive(pending));
  EXPECT_EQ(cluster.LiveNodes().front().market, 2);
}

TEST(ClusterManagerTest, RevokingUnknownNodeIsANoop) {
  ClusterManager cluster(FastTime());
  cluster.Revoke({12345}, true);
  cluster.DrainEvents();
  EXPECT_EQ(cluster.NumLiveNodes(), 0u);
}

// --- Dfs ---

// A standalone Dfs has no latency model, so its transfers take no time.
std::unique_ptr<Dfs> FastDfs() { return std::make_unique<Dfs>(DfsConfig{}); }

DfsObject BytesObject(size_t n) {
  auto vec = std::make_shared<const std::vector<uint8_t>>(n, 0xab);
  return MakeDfsObject(vec);
}

TEST(DfsTest, PutGetRoundTrips) {
  auto dfs_ptr = FastDfs();
  Dfs& dfs = *dfs_ptr;
  ASSERT_TRUE(dfs.Put("a/b", BytesObject(100)).ok());
  auto got = dfs.Get("a/b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size_bytes, 100u);
  EXPECT_TRUE(dfs.Exists("a/b"));
  EXPECT_FALSE(dfs.Exists("a/c"));
}

TEST(DfsTest, GetMissingIsNotFound) {
  auto dfs_ptr = FastDfs();
  Dfs& dfs = *dfs_ptr;
  EXPECT_EQ(dfs.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(DfsTest, OverwriteReplacesAccounting) {
  auto dfs_ptr = FastDfs();
  Dfs& dfs = *dfs_ptr;
  ASSERT_TRUE(dfs.Put("x", BytesObject(100)).ok());
  ASSERT_TRUE(dfs.Put("x", BytesObject(40)).ok());
  EXPECT_EQ(dfs.TotalBytes(), 40u);
  EXPECT_EQ(dfs.PeakBytes(), 100u);
  EXPECT_EQ(dfs.NumObjects(), 1u);
}

TEST(DfsTest, DeletePrefixRemovesSubtree) {
  auto dfs_ptr = FastDfs();
  Dfs& dfs = *dfs_ptr;
  ASSERT_TRUE(dfs.Put("ckpt/rdd_1/p0", BytesObject(10)).ok());
  ASSERT_TRUE(dfs.Put("ckpt/rdd_1/p1", BytesObject(10)).ok());
  ASSERT_TRUE(dfs.Put("ckpt/rdd_2/p0", BytesObject(10)).ok());
  EXPECT_EQ(dfs.DeletePrefix("ckpt/rdd_1/"), 2u);
  EXPECT_EQ(dfs.NumObjects(), 1u);
  EXPECT_EQ(dfs.TotalBytes(), 10u);
  EXPECT_EQ(dfs.List("ckpt/").size(), 1u);
}

TEST(DfsTest, EmptyPathRejected) {
  auto dfs_ptr = FastDfs();
  Dfs& dfs = *dfs_ptr;
  EXPECT_EQ(dfs.Put("", BytesObject(1)).code(), StatusCode::kInvalidArgument);
}

TEST(DfsTest, StorageCostUsesPeakAndReplication) {
  DfsConfig config;
  config.replication = 3;
  config.storage_price_gb_month = 0.10;
  Dfs dfs(config);
  ASSERT_TRUE(dfs.Put("x", BytesObject(512 * 1024 * 1024)).ok());  // 0.5 GB
  EXPECT_NEAR(dfs.MonthlyStorageCost(), 0.5 * 3 * 0.10, 1e-9);
}

TEST(DfsTest, TrafficCountersAccumulate) {
  auto dfs_ptr = FastDfs();
  Dfs& dfs = *dfs_ptr;
  ASSERT_TRUE(dfs.Put("x", BytesObject(100)).ok());
  (void)dfs.Get("x");
  (void)dfs.Get("x");
  EXPECT_EQ(dfs.BytesWritten(), 100u);
  EXPECT_EQ(dfs.BytesRead(), 200u);
}

}  // namespace
}  // namespace flint
