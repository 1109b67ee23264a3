// Network-plane scenarios (ISSUE 10): scripted kSlowLink injections exercise
// the per-node bandwidth model, the hardened shuffle-fetch path (per-fetch
// timeout -> bounded retry -> recompute fallback) and link-driven node-health
// quarantine. The acceptance case pins the paper-style bound: with one of
// eight nodes serving its shuffle output over a 4x-degraded link, job
// latency stays within 1.6x fault-free and the results match the clean run
// bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/node_manager.h"
#include "src/engine/partition.h"
#include "src/engine/shuffle_manager.h"
#include "src/engine/typed_rdd.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/inject/fault_injector.h"
#include "src/market/marketplace.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

// Sanitizers stretch compute (but not sleeps) unpredictably, which breaks
// wall-clock ratio assertions; keep correctness and counters, drop timing.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FLINT_TIMING_ASSERTS 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FLINT_TIMING_ASSERTS 0
#else
#define FLINT_TIMING_ASSERTS 1
#endif
#else
#define FLINT_TIMING_ASSERTS 1
#endif

namespace flint {
namespace {

using testing::EngineHarness;
using testing::EngineHarnessOptions;

// Installs the injector as the context's probe for the guard's lifetime and
// settles all injected activity before the injector or harness dies (same
// contract as straggler_test.cc).
class ProbeGuard {
 public:
  ProbeGuard(FlintContext* ctx, FaultInjector* injector) : ctx_(ctx), injector_(injector) {
    ctx_->SetProbe(injector_);
  }
  ~ProbeGuard() {
    ctx_->SetProbe(nullptr);
    injector_->Drain();
    ctx_->DrainExecutors();
  }

  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;

 private:
  FlintContext* ctx_;
  FaultInjector* injector_;
};

// Slow-link scenarios double as a lock-order regression net: the fetch path
// adds link-EWMA updates and health samples on top of the
// engine/injector/node-manager locking.
class SlowLinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = SetMutexDebug(true);
    violations_before_ = GetLockOrderViolations().size();
  }
  void TearDown() override {
    const auto violations = GetLockOrderViolations();
    EXPECT_EQ(violations.size(), violations_before_)
        << "lock-order cycle detected: "
        << (violations.empty() ? "" : violations.back().description);
    SetMutexDebug(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
  size_t violations_before_ = 0;
};

SpeculationConfig FastSpec(bool enabled = true) {
  SpeculationConfig spec;
  spec.enabled = enabled;
  spec.quorum = 3;
  spec.spec_multiplier = 3.0;
  spec.min_deadline_seconds = 0.05;
  spec.max_attempts_per_task = 6;
  spec.retry_backoff_seconds = 0.02;
  return spec;
}

double MeasureMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A wide shuffle whose reduce side must pull a bucket from every map node:
// `pairs` records over `keys` distinct keys, `maps` map and `reduces` reduce
// partitions, sorted so runs compare independent of reduce completion order.
// Timeout-path tests use keys == pairs: map-side combine then cannot shrink
// the buckets, so transfers are big enough to blow a pinned fetch timeout.
std::vector<std::pair<int, int>> WideCounts(FlintContext* ctx, int pairs, int keys, int maps,
                                            int reduces, Status* status_out = nullptr) {
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(pairs));
  for (int i = 0; i < pairs; ++i) {
    data.emplace_back(i % keys, 1);
  }
  auto counts = ReduceByKey(Parallelize(ctx, data, maps), reduces,
                            [](int a, int b) { return a + b; });
  auto out = counts.Collect();
  if (status_out != nullptr) {
    *status_out = out.status();
  }
  std::vector<std::pair<int, int>> got = out.ok() ? *out : std::vector<std::pair<int, int>>{};
  std::sort(got.begin(), got.end());
  return got;
}

// The acceptance scenario: one of eight nodes serves its shuffle output over
// a 4x-degraded link (the node computes fine, its NIC is sick). Transfers
// are modelled against a 1 MiB/s fleet so a healthy pull takes single-digit
// milliseconds and a degraded pull stays under the fetch-timeout floor: the
// job absorbs the slow link as latency, stays within 1.6x fault-free, and
// produces bit-identical results. Each degraded pull takes 4x its
// full-speed time, past spec_multiplier (3) times it, so it is late and
// scores 0 on the victim's health; the link-driven samples quarantine the
// victim within a few jobs.
TEST_F(SlowLinkTest, DegradedLinkLatencyBoundedAndQuarantined) {
  constexpr int kPairs = 24000;
  constexpr int kMaps = 8;
  constexpr int kReduces = 8;
  const EngineHarnessOptions base{.num_nodes = 8,
                                  .model_latency = true,
                                  .speculation = FastSpec(true),
                                  .link_bandwidth_bytes_per_s = 1.0 * kMiB};

  // Timing bounds are re-measured up to 3 times: the suite runs under ctest
  // -j alongside CPU-heavy tests, and one contended iteration must not fail
  // the gate. Correctness and counter assertions stay strict every pass.
  double fault_free_ms = 0.0, degraded_ms = 0.0;
  for (int tries = 0; tries < 3; ++tries) {
    std::vector<std::pair<int, int>> reference;
    {
      EngineHarness h{base};
      fault_free_ms =
          MeasureMs([&] { reference = WideCounts(&h.ctx(), kPairs, kPairs, kMaps, kReduces); });
      ASSERT_EQ(reference.size(), static_cast<size_t>(kPairs));
      ASSERT_GT(h.ctx().counters().net_fetches.load(), 0u);
      ASSERT_GT(h.ctx().counters().net_fetch_bytes.load(), 0u);
    }

    EngineHarness h{base};
    Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                       /*on_demand_price=*/1.0, /*seed=*/7);
    NodeManagerConfig nm_cfg;
    nm_cfg.health.ewma_alpha = 0.5;
    nm_cfg.health.min_samples = 2;
    nm_cfg.health.quarantine_threshold = 0.5;
    // Fast ticks + tiny rate: the quarantine persists seconds (so the
    // assertions below see it) while ~NodeManager's timer drain still
    // finishes promptly once the score recovers.
    nm_cfg.health.decay_interval_seconds = 0.02;
    nm_cfg.health.decay_rate = 0.01;
    NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
    const NodeId victim = h.node_ids().front();

    FaultPlan plan;
    plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                     /*node_ordinal=*/0, /*slow_factor=*/4.0,
                                     /*duration_seconds=*/30.0));
    FaultInjector injector(&h.cluster(), plan);
    ProbeGuard guard(&h.ctx(), &injector);

    std::vector<std::pair<int, int>> degraded;
    degraded_ms =
        MeasureMs([&] { degraded = WideCounts(&h.ctx(), kPairs, kPairs, kMaps, kReduces); });
    EXPECT_EQ(degraded, reference);
    EXPECT_TRUE(injector.AllEventsFired());
    EXPECT_GT(injector.GetStats().fetches_slowed, 0u);

    // Link samples alone must sink the victim's health: loop a few more jobs
    // if the first one's samples were not enough.
    for (int job = 0; job < 5 && !nm.Quarantined(victim); ++job) {
      WideCounts(&h.ctx(), kPairs / 4, kPairs / 4, kMaps, kReduces);
    }
    EXPECT_TRUE(nm.Quarantined(victim))
        << "link-driven health samples never quarantined the victim, score "
        << nm.HealthScore(victim);
    EXPECT_LT(nm.HealthScore(victim), 1.0);

    if (degraded_ms <= 1.6 * fault_free_ms) {
      break;  // bound met; no need to burn another iteration
    }
  }

#if FLINT_TIMING_ASSERTS
  EXPECT_LE(degraded_ms, 1.6 * fault_free_ms)
      << "fault-free " << fault_free_ms << " ms, degraded link " << degraded_ms << " ms";
#else
  (void)fault_free_ms;
  (void)degraded_ms;
#endif
}

// A link degraded inside the speculation rule is a cost, not a health
// signal: at 2x each pull from the victim takes twice its full-speed time,
// under spec_multiplier (3) times it, so no pull is late and the producer
// keeps a score of exactly 1.0. Every degraded pull still reaches market
// selection, whose observed throughput for the victim's market falls.
TEST_F(SlowLinkTest, ModeratelySlowLinkKeepsFullHealthButChargesItsMarket) {
  constexpr int kPairs = 24000;
  EngineHarness h{EngineHarnessOptions{.num_nodes = 0,
                                       .model_latency = true,
                                       .speculation = FastSpec(true),
                                       .link_bandwidth_bytes_per_s = 1.0 * kMiB}};
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManagerConfig nm_cfg;
  nm_cfg.cluster_size = 4;
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
  ASSERT_TRUE(nm.Start().ok());
  const std::vector<MarketId> markets = nm.ActiveMarkets();
  ASSERT_EQ(markets.size(), 1u);
  const std::vector<NodeInfo> nodes = h.cluster().LiveNodes();
  ASSERT_EQ(nodes.size(), 4u);

  FaultPlan plan;
  plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/2.0,
                                   /*duration_seconds=*/30.0));
  FaultInjector injector(&h.cluster(), plan);
  {
    ProbeGuard guard(&h.ctx(), &injector);
    Status status;
    ASSERT_EQ(WideCounts(&h.ctx(), kPairs, kPairs, 8, 8, &status).size(),
              static_cast<size_t>(kPairs))
        << status.ToString();
  }
  EXPECT_GT(injector.GetStats().fetches_slowed, 0u);
  EXPECT_EQ(h.ctx().counters().net_fetches_slow.load(), 0u);
  for (const NodeInfo& node : nodes) {
    EXPECT_EQ(nm.HealthScore(node.node_id), 1.0) << "node " << node.node_id;
  }
  EXPECT_EQ(nm.metrics().Value("flint_node_quarantines"), 0.0);
  EXPECT_LT(nm.selector().ObservedThroughput(markets.front()), 1.0);
}

// The timeout/retry half of the hardened fetch path: a 64x-degraded link
// pushes a pull past the fetch timeout, the consumer abandons it, backs
// off, and the retry succeeds once the fault window lapses. No recompute is
// needed and the result matches the clean run.
TEST_F(SlowLinkTest, FetchTimeoutRetriesThenSucceedsWhenWindowLapses) {
  constexpr int kPairs = 12000;
  constexpr int kMaps = 8;
  constexpr int kReduces = 4;
  SpeculationConfig spec = FastSpec(true);
  // Keep quantiles published (a published stage P95 is what arms the
  // timeout) but raise the deadline floor so millisecond tasks are never
  // speculated — this test isolates the fetch path's own retry, not
  // task-level duplication.
  spec.min_deadline_seconds = 0.5;
  // Pin the timeout at the 30 ms floor: with modelled block/DFS latencies
  // the map stage's P95 is itself tens of milliseconds, and the default
  // 4 x P95 term would swallow the degraded transfer. A healthy ~3 KB pull
  // at 1 MiB/s takes ~3 ms (never trips); the 64x-degraded one takes
  // ~190 ms (always trips).
  const EngineHarnessOptions opts{.num_nodes = 4,
                                  .model_latency = true,
                                  .speculation = spec,
                                  .link_bandwidth_bytes_per_s = 1.0 * kMiB,
                                  .fetch_timeout_multiplier = 0.001,
                                  .fetch_timeout_min_seconds = 0.03,
                                  .fetch_retry_limit = 5,
                                  .fetch_retry_backoff_seconds = 0.02};

  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness clean{opts};
    reference = WideCounts(&clean.ctx(), kPairs, kPairs, kMaps, kReduces);
    ASSERT_EQ(reference.size(), static_cast<size_t>(kPairs));
  }

  EngineHarness h{opts};
  FaultPlan plan;
  // Armed at kShuffleFetch: the window opens on the first pull and that same
  // pull is already degraded (the injector applies the directive after
  // arming). 120 ms outlives the first timed-out pull plus one backoff, and
  // lapses before the retry budget runs out.
  plan.events.push_back(SlowLinkAt(EnginePoint::kShuffleFetch, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/64.0,
                                   /*duration_seconds=*/0.12));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  Status status;
  std::vector<std::pair<int, int>> got = WideCounts(&h.ctx(), kPairs, kPairs, kMaps, kReduces, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, reference);
  EXPECT_TRUE(injector.AllEventsFired());
  EXPECT_GE(injector.GetStats().fetches_slowed, 1u);
  EXPECT_GE(h.ctx().counters().net_fetches_slow.load(), 1u);
  EXPECT_GE(h.ctx().counters().net_fetch_retries.load(), 1u);
  EXPECT_EQ(h.ctx().counters().net_fetch_recomputes.load(), 0u);
}

// The recompute half: the slow-link window never lapses, the retry budget
// (one retry) exhausts, and the consumer drops the victim's outputs to force
// the scheduler's kDataLoss recompute fallback. Timed-out pulls classify the
// producer link-slow (zero health samples), the node manager quarantines it,
// and the recomputed map outputs land on healthy nodes so the job completes
// with clean-run results.
TEST_F(SlowLinkTest, PersistentSlowLinkFallsBackToRecompute) {
  constexpr int kPairs = 12000;
  constexpr int kMaps = 4;
  constexpr int kReduces = 4;
  SpeculationConfig spec = FastSpec(true);
  spec.min_deadline_seconds = 0.5;  // as above: no task-level speculation
  const EngineHarnessOptions opts{.num_nodes = 4,
                                  .model_latency = true,
                                  .speculation = spec,
                                  .link_bandwidth_bytes_per_s = 1.0 * kMiB,
                                  .fetch_timeout_multiplier = 0.001,  // as above: 30 ms pin
                                  .fetch_timeout_min_seconds = 0.03,
                                  .fetch_retry_limit = 1,
                                  .fetch_retry_backoff_seconds = 0.01};

  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness clean{opts};
    reference = WideCounts(&clean.ctx(), kPairs, kPairs, kMaps, kReduces);
    ASSERT_EQ(reference.size(), static_cast<size_t>(kPairs));
  }

  EngineHarness h{opts};
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManagerConfig nm_cfg;
  nm_cfg.health.ewma_alpha = 0.5;
  nm_cfg.health.min_samples = 2;
  nm_cfg.health.quarantine_threshold = 0.5;
  nm_cfg.health.decay_interval_seconds = 0.02;  // see the acceptance test
  nm_cfg.health.decay_rate = 0.01;
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
  const NodeId victim = h.node_ids().front();

  FaultPlan plan;
  plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/64.0,
                                   /*duration_seconds=*/30.0));
  FaultInjector injector(&h.cluster(), plan);
  Status status;
  std::vector<std::pair<int, int>> got;
  {
    ProbeGuard guard(&h.ctx(), &injector);
    got = WideCounts(&h.ctx(), kPairs, kPairs, kMaps, kReduces, &status);
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, reference);
  EXPECT_GE(h.ctx().counters().net_fetches_slow.load(), 2u);
  EXPECT_GE(h.ctx().counters().net_fetch_recomputes.load(), 1u);
  EXPECT_GE(injector.GetStats().fetches_slowed, 2u);
  EXPECT_TRUE(nm.Quarantined(victim))
      << "timed-out pulls never quarantined the slow producer, score "
      << nm.HealthScore(victim);
}

// Composition: the slow link stays correct when a whole-cluster revocation
// storm lands mid shuffle-map stage on top of it. The stage re-dispatches
// onto replacements (whose links are healthy — the window pins the original
// victim) and the result matches a clean cluster's bit for bit.
TEST_F(SlowLinkTest, SlowLinkComposesWithRevocationStorm) {
  auto workload = [](FlintContext* ctx, Status* status_out = nullptr) {
    return WideCounts(ctx, 400, /*keys=*/64, /*maps=*/8, /*reduces=*/4, status_out);
  };

  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness clean;
    reference = workload(&clean.ctx());
    ASSERT_EQ(reference.size(), 64u);
  }

  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
  FaultPlan plan;
  plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/4.0,
                                   /*duration_seconds=*/30.0));
  plan.events.push_back(RevokeAllAt(EnginePoint::kShuffleMapTaskRun, /*after_hits=*/2,
                                    /*with_warning=*/false, /*replacements=*/4,
                                    /*delay_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  Status status;
  std::vector<std::pair<int, int>> got = workload(&h.ctx(), &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, reference);
  EXPECT_TRUE(injector.AllEventsFired());
}

// Replayability across both map-side bucketing paths: the same plan + seed
// must make identical injection decisions and produce identical output on
// two runs of each cell, and every run must equal the driver-side count (a
// fold over the input in order). A Map sits on the map side; uncached it
// streams into the bucket sinks, cached it is built first and its rows are
// driven into the same sinks. Injector stats are compared field by field
// EXCEPT points_observed: the kSchedulerRound probe fires once per scheduler
// retry round, and the number of rounds a stage needs is timing-dependent
// even when every injection decision is identical.
TEST_F(SlowLinkTest, SeedDeterminismAcrossFusionGrid) {
  constexpr int kPairs = 2000;
  constexpr int kMaps = 8;
  constexpr int kReduces = 4;

  constexpr int kKeys = 64;
  std::vector<std::pair<int, int>> data;
  std::vector<std::pair<int, int>> oracle(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    oracle[static_cast<size_t>(k)] = {k, 0};
  }
  for (int i = 0; i < kPairs; ++i) {
    data.emplace_back(i % kKeys, 1);
    ++oracle[static_cast<size_t>(i % kKeys)].second;  // the input, folded in order
  }

  auto run_cell = [&](bool cached, FaultInjector::Stats* stats_out) {
    EngineHarness h;
    FaultPlan plan;  // seed = 42 (FaultPlan default)
    plan.events.push_back(SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                                     /*node_ordinal=*/0, /*slow_factor=*/4.0,
                                     /*duration_seconds=*/30.0));
    FaultInjector injector(&h.cluster(), plan);
    Status status;
    std::vector<std::pair<int, int>> got;
    {
      ProbeGuard guard(&h.ctx(), &injector);
      auto mapped = Parallelize(&h.ctx(), data, kMaps).Map([](const std::pair<int, int>& kv) {
        return std::make_pair(kv.first, kv.second * 2 - 1);
      });
      if (cached) {
        mapped.Cache();
      }
      auto out = ReduceByKey(mapped, kReduces, [](int a, int b) { return a + b; }).Collect();
      status = out.status();
      if (out.ok()) {
        got = *out;
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(h.ctx().counters().shuffle_fused_bucket_chains.load() > 0, !cached);
    if (stats_out != nullptr) {
      *stats_out = injector.GetStats();
    }
    return got;
  };

  for (bool cached : {false, true}) {
    FaultInjector::Stats a{}, b{};
    std::vector<std::pair<int, int>> first = run_cell(cached, &a);
    std::vector<std::pair<int, int>> second = run_cell(cached, &b);
    EXPECT_EQ(first, oracle) << "cached=" << cached;
    EXPECT_EQ(second, oracle) << "cached=" << cached;
    EXPECT_EQ(a.events_fired, b.events_fired);
    EXPECT_EQ(a.nodes_revoked, b.nodes_revoked);
    EXPECT_EQ(a.replacements_scheduled, b.replacements_scheduled);
    EXPECT_EQ(a.writes_failed_injected, b.writes_failed_injected);
    EXPECT_EQ(a.reads_failed_injected, b.reads_failed_injected);
    EXPECT_EQ(a.objects_corrupted, b.objects_corrupted);
    EXPECT_EQ(a.ops_slowed, b.ops_slowed);
    EXPECT_EQ(a.tasks_slowed, b.tasks_slowed);
    EXPECT_EQ(a.tasks_hung_injected, b.tasks_hung_injected);
    EXPECT_EQ(a.tasks_failed_injected, b.tasks_failed_injected);
    EXPECT_EQ(a.fetches_slowed, b.fetches_slowed) << "cached=" << cached;
    EXPECT_GT(a.fetches_slowed, 0u) << "cached=" << cached;
  }
}

// flint_net_fetch_seconds must resolve the engine's real fetch scale. Each
// pull here moves ~12 KiB over a 64 MiB/s link and waits ~0.2 ms: below the
// 1 ms floor of the default latency buckets, so it needs the fetch
// histogram's own buckets, which start at 10 us.
TEST_F(SlowLinkTest, FetchHistogramResolvesSubMillisecondPulls) {
  constexpr int kPairs = 24000;
  EngineHarness h{EngineHarnessOptions{.model_latency = true,
                                       .link_bandwidth_bytes_per_s = 64.0 * kMiB}};
  ASSERT_EQ(WideCounts(&h.ctx(), kPairs, kPairs, 4, 4).size(), static_cast<size_t>(kPairs));
  const Histogram& hist = h.ctx().counters().net_fetch_seconds;
  ASSERT_FALSE(hist.bounds().empty());
  EXPECT_DOUBLE_EQ(hist.bounds().front(), 1e-5);

  const std::vector<uint64_t> before = hist.Counts();
  ASSERT_EQ(WideCounts(&h.ctx(), kPairs, kPairs, 4, 4).size(), static_cast<size_t>(kPairs));
  const std::vector<uint64_t> after = hist.Counts();
  uint64_t sub_ms = 0;  // pulls that waited (10 us, 1 ms]
  for (size_t b = 1; b < hist.bounds().size() && hist.bounds()[b] <= 1e-3; ++b) {
    sub_ms += after[b] - before[b];
  }
  EXPECT_GT(sub_ms, 0u);
}

// Concurrency hammer over the shuffle map-output tracker: registrations,
// detailed fetches, node revocations, and targeted output drops race while
// readers poll the aggregate views. Every kDataLoss the fetchers observe
// must be counted in flint_shuffle_fetch_waits — no lost increments, no
// phantom waits.
// (Runs under TSan via the sanitizer test filter.)
TEST(ShuffleConcTest, ConcurrentFetchDropRevokeAccounting) {
  constexpr int kShuffle = 1;
  constexpr int kNumMaps = 8;
  constexpr int kNumReduces = 4;
  constexpr int kRounds = 200;

  ShuffleManager sm;
  sm.RegisterShuffle(kShuffle, kNumMaps, kNumReduces);
  auto make_buckets = [] {
    std::vector<PartitionPtr> buckets;
    for (int r = 0; r < kNumReduces; ++r) {
      buckets.push_back(MakePartition(std::vector<int>{r, r + 1, r + 2}));
    }
    return buckets;
  };
  auto register_all = [&] {
    for (int m = 0; m < kNumMaps; ++m) {
      sm.RegisterMapOutput(kShuffle, m, /*node=*/m % 4, make_buckets());
    }
  };
  register_all();

  std::atomic<uint64_t> data_losses{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Fetchers: alternate plain and detailed fetches over valid reduce
  // indices, tallying every kDataLoss (each one bumped fetch_waits_).
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const int reduce = (t + i) % kNumReduces;
        if ((i & 1) == 0) {
          auto r = sm.Fetch(kShuffle, reduce);
          if (!r.ok() && r.status().code() == StatusCode::kDataLoss) {
            data_losses.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          auto r = sm.FetchDetailed(kShuffle, reduce);
          if (!r.ok() && r.status().code() == StatusCode::kDataLoss) {
            data_losses.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Chaos: revoke / drop a node's outputs, then re-register everything so
  // fetchers keep seeing both complete and torn states.
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds / 4; ++i) {
      if ((i & 1) == 0) {
        sm.OnNodeRevoked(/*node=*/i % 4);
      } else {
        sm.DropNodeOutputs(kShuffle, /*node=*/i % 4);
      }
      register_all();
    }
  });
  // Readers: aggregate views must never crash or deadlock mid-race.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)sm.MissingMaps(kShuffle);
      (void)sm.IsComplete(kShuffle);
      (void)sm.TotalBytes();
      (void)sm.RecentShuffleBytes(2);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  for (size_t t = 0; t + 1 < threads.size(); ++t) {
    threads[t].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(sm.metrics().Value("flint_shuffle_fetch_waits"),
            static_cast<double>(data_losses.load()));
  // Settle to a complete state and prove the tracker recovered.
  register_all();
  EXPECT_TRUE(sm.IsComplete(kShuffle));
  EXPECT_TRUE(sm.MissingMaps(kShuffle).empty());
  auto final_fetch = sm.FetchDetailed(kShuffle, 0);
  ASSERT_TRUE(final_fetch.ok());
  EXPECT_EQ(final_fetch->size(), static_cast<size_t>(kNumMaps));
}

// The market-selection fold: observed link throughput reported through
// RecordObservedThroughput penalizes a market's expected unit cost, flipping
// a near-tie, and the EWMA recovers as healthy samples arrive.
TEST(SelectorLinkTest, ObservedThroughputPenalizesMarket) {
  std::vector<MarketDesc> markets;
  markets.push_back(testing::MakeSpikyMarket("a", 1.0, 0.10, 0.10, 24 * 40, 0, 0));
  markets.push_back(testing::MakeSpikyMarket("b", 1.0, 0.11, 0.11, 24 * 40, 0, 0));
  Marketplace mp(std::move(markets), /*on_demand_price=*/1.0, /*seed=*/1);
  ServerSelector selector(&mp, SelectionConfig{});
  JobProfile job;
  job.delta_hours = Minutes(1);
  job.rd_hours = Minutes(2);

  auto cost_of = [&](MarketId id) {
    auto evs = selector.EvaluateMarkets(Hours(24.0 * 7), job);
    for (const auto& ev : evs) {
      if (ev.id == id) {
        return ev.expected_unit_cost;
      }
    }
    ADD_FAILURE() << "market " << id << " missing from evaluation";
    return 0.0;
  };

  // Pristine: the marginally cheaper market wins.
  EXPECT_LT(cost_of(0), cost_of(1));
  EXPECT_DOUBLE_EQ(selector.ObservedThroughput(0), 1.0);

  // Market 0's nodes serve shuffle pulls at a quarter speed: its effective
  // cost must now exceed market 1's.
  for (int i = 0; i < 8; ++i) {
    selector.RecordObservedThroughput(0, 0.25);
  }
  EXPECT_LT(selector.ObservedThroughput(0), 0.35);
  EXPECT_GT(cost_of(0), cost_of(1));

  // Healthy samples fold the EWMA back toward 1.0 and the order recovers.
  for (int i = 0; i < 32; ++i) {
    selector.RecordObservedThroughput(0, 1.0);
  }
  EXPECT_GT(selector.ObservedThroughput(0), 0.95);
  EXPECT_LT(cost_of(0), cost_of(1));
}

}  // namespace
}  // namespace flint
