// Latency-model tests: the one wait (cancellation, the model_latency switch,
// per-layer accounts), the engine routing its modelled I/O through the
// context's model, and compute time excluding the waits and the nested
// computes inside it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/latency.h"
#include "src/core/flint_cluster.h"
#include "src/engine/typed_rdd.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace flint {
namespace {

constexpr Layer kAllLayers[] = {Layer::kOriginRead, Layer::kCacheRemote, Layer::kSpill,
                                Layer::kDfsWrite,   Layer::kDfsRead,     Layer::kShuffleFetch,
                                Layer::kInjectedSlow};

double SecondsSince(WallTime t0) { return WallDuration(WallClock::now() - t0).count(); }

TEST(LatencyModelTest, CancelledWaitReturnsUnavailableWithinAFewMs) {
  LatencyModel model(/*enabled=*/true);
  std::atomic<bool> cancel{false};
  std::atomic<int64_t> cancelled_at{0};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancelled_at.store(WallClock::now().time_since_epoch().count());
    cancel.store(true);
  });
  const Status st =
      model.Wait(Layer::kShuffleFetch, /*seconds=*/10.0, [&] { return cancel.load(); });
  const WallTime returned = WallClock::now();
  canceller.join();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  const WallTime cancel_time{WallClock::duration(cancelled_at.load())};
  // The poll runs every millisecond; the bound leaves room for a loaded host.
  EXPECT_LT(WallDuration(returned - cancel_time).count(), 0.1);
  // Only the part waited before cancellation is charged.
  EXPECT_GT(model.Seconds(Layer::kShuffleFetch), 0.0);
  EXPECT_LT(model.Seconds(Layer::kShuffleFetch), 1.0);

  // Already cancelled: no wait at all.
  const WallTime t0 = WallClock::now();
  EXPECT_EQ(model.Wait(Layer::kInjectedSlow, 10.0, [] { return true; }).code(),
            StatusCode::kUnavailable);
  EXPECT_LT(SecondsSince(t0), 0.1);
}

TEST(LatencyModelTest, SwitchOffZeroesModelledLayersButInjectedSlowStillWaits) {
  LatencyModel off(/*enabled=*/false);
  EXPECT_EQ(off.TransferSeconds(kMiB, 1.0 * kMiB), 0.0);
  const WallTime t0 = WallClock::now();
  for (Layer layer : kAllLayers) {
    if (layer != Layer::kInjectedSlow) {
      EXPECT_TRUE(off.Wait(layer, /*seconds=*/1.0).ok());
      off.Transfer(layer, kMiB, 1.0 * kMiB);
    }
  }
  EXPECT_LT(SecondsSince(t0), 1.0);
  for (Layer layer : kAllLayers) {
    EXPECT_EQ(off.Seconds(layer), 0.0) << LayerName(layer);
  }

  const WallTime t1 = WallClock::now();
  EXPECT_TRUE(off.Wait(Layer::kInjectedSlow, 0.02).ok());
  EXPECT_GE(SecondsSince(t1), 0.02);
  EXPECT_DOUBLE_EQ(off.Seconds(Layer::kInjectedSlow), 0.02);

  LatencyModel on(/*enabled=*/true);
  EXPECT_DOUBLE_EQ(on.TransferSeconds(kMiB, 1.0 * kMiB), 1.0);
  EXPECT_DOUBLE_EQ(on.TransferSeconds(kMiB, 4.0 * kMiB, /*slow_factor=*/2.0), 0.5);
  EXPECT_EQ(on.TransferSeconds(kMiB, 0.0), 0.0);
  EXPECT_EQ(on.TransferSeconds(kMiB, -1.0), 0.0);
}

TEST(LatencyModelTest, EachLayerIsChargedToItsOwnAccount) {
  LatencyModel model(/*enabled=*/true);
  const double waited0 = ThreadWaitedSeconds();
  double total = 0.0;
  std::set<std::string> names;
  for (size_t i = 0; i < kNumLayers; ++i) {
    const double seconds = 1e-3 * static_cast<double>(i + 1);
    EXPECT_TRUE(model.Wait(kAllLayers[i], seconds).ok());
    total += seconds;
    names.insert(LayerName(kAllLayers[i]));
  }
  for (size_t i = 0; i < kNumLayers; ++i) {
    EXPECT_NEAR(model.Seconds(kAllLayers[i]), 1e-3 * static_cast<double>(i + 1), 1e-9)
        << LayerName(kAllLayers[i]);
  }
  EXPECT_EQ(names.size(), kNumLayers);
  // The thread's own total sees every wait once, as time really slept.
  EXPECT_GE(ThreadWaitedSeconds() - waited0, total);
  EXPECT_LT(ThreadWaitedSeconds() - waited0, total + 1.0);
}

// The last 200 us of a wait yield instead of sleeping; a wait still lasts
// its whole length, cancellable or not.
TEST(LatencyModelTest, ShortWaitsLastTheirWholeLength) {
  for (const bool cancellable : {false, true}) {
    for (const double seconds : {5e-6, 20e-6, 150e-6, 450e-6, 2.5e-3}) {
      const double waited0 = ThreadWaitedSeconds();
      const WallTime t0 = WallClock::now();
      double waited = 0.0;
      const Status st = cancellable ? WaitSeconds(seconds, [] { return false; }, &waited)
                                    : WaitSeconds(seconds, nullptr, &waited);
      EXPECT_TRUE(st.ok());
      EXPECT_GE(SecondsSince(t0), seconds) << seconds;
      EXPECT_GE(ThreadWaitedSeconds() - waited0, seconds) << seconds;
      EXPECT_DOUBLE_EQ(waited, seconds);
    }
  }
}

// BackoffSeconds replaced four hand-written formulas; each must keep its
// exact values, caps included.
TEST(LatencyModelTest, BackoffMatchesTheFormulasItReplaced) {
  // The DFS retry loop: multiply, then cap, once per retry (jitter is
  // applied on top by the caller).
  auto dfs_loop = [](const DfsRetryPolicy& policy, int step) {
    double backoff = policy.initial_backoff_seconds;
    for (int i = 0; i < step; ++i) {
      backoff = std::min(backoff * policy.backoff_multiplier, policy.max_backoff_seconds);
    }
    return backoff;
  };
  DfsRetryPolicy odd;
  odd.initial_backoff_seconds = 0.003;
  odd.backoff_multiplier = 1.7;
  odd.max_backoff_seconds = 0.05;
  DfsRetryPolicy above_cap;  // a first backoff above the cap is not clamped
  above_cap.initial_backoff_seconds = 0.5;
  for (const DfsRetryPolicy& policy : {DfsRetryPolicy{}, odd, above_cap}) {
    for (int step = 0; step < 12; ++step) {
      EXPECT_EQ(BackoffSeconds(step, policy.initial_backoff_seconds, policy.max_backoff_seconds,
                               policy.backoff_multiplier),
                dfs_loop(policy, step))
          << "initial " << policy.initial_backoff_seconds << " step " << step;
    }
  }
  // The stage loop's stall backoff: 50 us doubled per stalled round, at most
  // 8 times.
  for (int rounds = 1; rounds < 14; ++rounds) {
    EXPECT_EQ(BackoffSeconds(rounds, 50e-6, 50e-6 * 256),
              50e-6 * static_cast<double>(1 << std::min(rounds, 8)))
        << "stalled rounds " << rounds;
  }
  // The slot retry (per failure) and the fetch retry (per attempt): the base
  // doubled per prior try, at most 10 times.
  for (double base : {SpeculationConfig{}.retry_backoff_seconds,
                      EngineConfig{}.fetch_retry_backoff_seconds, 0.02, 0.0}) {
    for (int tries = 1; tries < 16; ++tries) {
      EXPECT_EQ(BackoffSeconds(tries - 1, base, base * 1024),
                base * static_cast<double>(1 << std::min(tries - 1, 10)))
          << "base " << base << " tries " << tries;
    }
  }
}

// Origin reads are waits, not compute: with the model on, a Parallelize
// source pays bytes / origin bandwidth (2 MiB/s here, ~125 ms per 256 KiB
// partition) while slicing its rows takes microseconds, and at most tens of
// milliseconds under a sanitizer. Counting the wait as compute would put
// compute above the origin account.
TEST(LatencyAccountsTest, ComputeSecondsExcludeOriginReadWaits) {
  testing::EngineHarnessOptions options;
  options.model_latency = true;
  options.origin_read_bandwidth_bytes_per_s = 2.0 * kMiB;
  testing::EngineHarness h(options);
  std::vector<int> data(4 * 64 * 1024);
  std::iota(data.begin(), data.end(), 0);
  auto out = Parallelize(&h.ctx(), data, 4).Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), data.size());

  const double origin_s = h.ctx().latency().Seconds(Layer::kOriginRead);
  const double compute_s =
      static_cast<double>(h.ctx().counters().compute_nanos.load()) * 1e-9;
  EXPECT_GT(origin_s, 0.015);
  EXPECT_LT(compute_s, origin_s);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.Value("flint_engine_latency_origin_read_seconds"), origin_s);
}

// Each compute second counts once. Collecting an uncached Generate -> Map ->
// Map computes Generate inside the chain's window (the two Maps fuse over
// it), and Generate reports its own seconds; counting them again in the
// window around it would put the summed compute above the task spans that
// contain every window. The generator's busy loop makes that double count
// tens of milliseconds, far above timer noise.
TEST(LatencyAccountsTest, NestedComputesCountOnce) {
  Tracer::Global().Configure(ObsConfig{.tracing = true, .trace_capacity = 1 << 12});
  testing::EngineHarness h;
  constexpr int kParts = 2;
  auto rows = Generate(&h.ctx(), kParts, [](int p) {
    std::vector<uint64_t> out(1 << 16);
    uint64_t x = static_cast<uint64_t>(p) + 1;
    for (uint64_t& v : out) {
      for (int i = 0; i < 200; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      v = x;
    }
    return out;
  });
  auto out = rows.Map([](const uint64_t& v) { return v >> 3; })
                 .Map([](const uint64_t& v) { return v ^ 5; })
                 .Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), size_t{kParts} << 16);

  uint64_t task_ns = 0;
  int tasks = 0;
  for (const TraceEvent& event : Tracer::Global().Drain()) {
    if (std::string(event.name) == "task") {
      task_ns += event.dur_ns;
      ++tasks;
    }
  }
  Tracer::Global().Configure(ObsConfig{});
  const EngineCounters& counters = h.ctx().counters();
  EXPECT_EQ(tasks, kParts);
  // Generate and the head Map each computed every partition; the middle Map
  // streamed through without being built.
  EXPECT_EQ(counters.partitions_computed.load(), 2u * kParts);
  EXPECT_GT(counters.compute_nanos.load(), 0);
  EXPECT_LE(static_cast<uint64_t>(counters.compute_nanos.load()), task_ns);
}

// A spilling, checkpointing job through FlintCluster: the context's one
// switch governs the DFS and every node's spill disk, with no per-subsystem
// bandwidth zeroing.
void RunSpillAndCheckpointJob(bool model_latency) {
  FlintOptions options;
  options.seed = 7;
  options.time.seconds_per_model_hour = 0.05;
  options.engine.model_latency = model_latency;
  options.engine.block_defaults.eviction = EvictionMode::kSpill;
  options.engine.block_defaults.num_shards = 1;
  options.nodes.cluster_size = 2;
  options.nodes.node_memory_bytes = kMiB;  // four 256 KiB partitions per node
  options.checkpoint.policy = CheckpointPolicyKind::kNone;
  FlintCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());

  std::vector<int> data(16 * 64 * 1024);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&cluster.ctx(), data, 16);
  rdd.Cache();
  ASSERT_TRUE(rdd.raw()->MarkForCheckpoint());
  ASSERT_TRUE(rdd.Count().ok());
  ASSERT_TRUE(rdd.Count().ok());  // second pass reads the spilled partitions back
  ASSERT_TRUE(cluster.dfs().Get(rdd.raw()->CheckpointPath(0)).ok());

  ASSERT_GT(cluster.dfs().BytesWritten(), 0u);
  ASSERT_GT(cluster.dfs().BytesRead(), 0u);
  uint64_t spills = 0;
  for (const auto& node : cluster.ctx().LiveNodeStates()) {
    spills += static_cast<uint64_t>(node->blocks->metrics().Value("flint_block_spills"));
  }
  ASSERT_GT(spills, 0u);

  const LatencyModel& latency = cluster.ctx().latency();
  for (Layer layer : {Layer::kOriginRead, Layer::kSpill, Layer::kDfsWrite, Layer::kDfsRead}) {
    if (model_latency) {
      EXPECT_GT(latency.Seconds(layer), 0.0) << LayerName(layer);
    } else {
      EXPECT_EQ(latency.Seconds(layer), 0.0) << LayerName(layer);
    }
  }
}

TEST(LatencyAccountsTest, EngineSwitchOffAloneLeavesDfsAndSpillAtZero) {
  RunSpillAndCheckpointJob(/*model_latency=*/false);
}

TEST(LatencyAccountsTest, EngineSwitchOnChargesDfsAndSpill) {
  RunSpillAndCheckpointJob(/*model_latency=*/true);
}

}  // namespace
}  // namespace flint
