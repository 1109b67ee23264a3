// Straggler-mitigation scenarios (ISSUE 7): scripted kSlowNode / kHangTask /
// kFlakyNode injections exercise task deadlines, speculative execution, the
// stage watchdog, and node-health quarantine. The acceptance case pins the
// paper-style bound: with one of four nodes computing 8x slow, speculation
// keeps stage latency within 1.5x of fault-free while the no-speculation
// control degrades to >= 4x.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/core/node_manager.h"
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
// contract as fault_injection_test.cc).
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

// Straggler scenarios double as a lock-order regression net, like the storm
// suite: speculation adds cancellation tokens and deadline scans on top of
// the engine/injector locking.
class StragglerTest : public ::testing::Test {
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

// One record per partition; each task sleeps `task_ms` so per-task runtime is
// controlled and kSlowNode's stretch is measurable.
std::vector<int> SleepyCollect(FlintContext* ctx, int partitions, int task_ms,
                               Status* status_out = nullptr) {
  std::vector<int> data(static_cast<size_t>(partitions));
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(ctx, data, partitions).Map([task_ms](const int& x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(task_ms));
    return x * 3 + 1;
  });
  auto out = rdd.Collect();
  if (status_out != nullptr) {
    *status_out = out.status();
  }
  return out.ok() ? *out : std::vector<int>{};
}

double MeasureMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

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

// The acceptance scenario: node 0 of 4 computes 8x slow for the whole run.
// With speculation, every task stranded behind the slow node is duplicated
// onto a fast one once its deadline (3x the stage's streaming P50) expires,
// and stage latency stays within 1.5x fault-free. With speculation disabled
// the slow node serializes its whole queue at 8x and latency degrades >= 4x.
// Results are bit-identical in all three runs.
TEST_F(StragglerTest, SlowNodeLatencyBoundedBySpeculation) {
  constexpr int kParts = 24;
  constexpr int kTaskMs = 40;

  // Timing bounds are re-measured up to 3 times: the suite runs under ctest
  // -j alongside CPU-heavy tests, and one contended iteration must not fail
  // the gate. Correctness and counter assertions stay strict every pass.
  double fault_free_ms = 0.0, with_spec_ms = 0.0, without_spec_ms = 0.0;
  for (int tries = 0; tries < 3; ++tries) {
    std::vector<int> reference;
    {
      EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
      fault_free_ms =
          MeasureMs([&] { reference = SleepyCollect(&h.ctx(), kParts, kTaskMs); });
      ASSERT_EQ(reference.size(), static_cast<size_t>(kParts));
    }

    std::vector<int> with_spec;
    {
      EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
      FaultPlan plan;
      plan.events.push_back(SlowNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                       /*node_ordinal=*/0, /*slow_factor=*/8.0,
                                       /*duration_seconds=*/30.0));
      FaultInjector injector(&h.cluster(), plan);
      ProbeGuard guard(&h.ctx(), &injector);
      with_spec_ms =
          MeasureMs([&] { with_spec = SleepyCollect(&h.ctx(), kParts, kTaskMs); });
      EXPECT_TRUE(injector.AllEventsFired());
      EXPECT_GT(injector.GetStats().tasks_slowed, 0u);
      EXPECT_GT(h.ctx().counters().tasks_speculated.load(), 0u);
      EXPECT_GT(h.ctx().counters().speculative_wins.load(), 0u);
      EXPECT_GT(h.ctx().counters().tasks_cancelled.load(), 0u);
      EXPECT_GT(h.ctx().counters().task_deadline_misses.load(), 0u);
    }
    EXPECT_EQ(with_spec, reference);

    std::vector<int> without_spec;
    {
      EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(false)}};
      FaultPlan plan;
      plan.events.push_back(SlowNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                       /*node_ordinal=*/0, /*slow_factor=*/8.0,
                                       /*duration_seconds=*/30.0));
      FaultInjector injector(&h.cluster(), plan);
      ProbeGuard guard(&h.ctx(), &injector);
      without_spec_ms =
          MeasureMs([&] { without_spec = SleepyCollect(&h.ctx(), kParts, kTaskMs); });
      EXPECT_EQ(h.ctx().counters().tasks_speculated.load(), 0u);
    }
    EXPECT_EQ(without_spec, reference);

    if (with_spec_ms <= 1.5 * fault_free_ms && without_spec_ms >= 4.0 * fault_free_ms) {
      break;  // bounds met; no need to burn another iteration
    }
  }

#if FLINT_TIMING_ASSERTS
  EXPECT_LE(with_spec_ms, 1.5 * fault_free_ms)
      << "fault-free " << fault_free_ms << " ms, with speculation " << with_spec_ms << " ms";
  EXPECT_GE(without_spec_ms, 4.0 * fault_free_ms)
      << "fault-free " << fault_free_ms << " ms, without speculation " << without_spec_ms
      << " ms";
  EXPECT_LT(with_spec_ms, without_spec_ms);
#else
  (void)fault_free_ms;
  (void)with_spec_ms;
  (void)without_spec_ms;
#endif
}

// A task that hangs forever is rescued by speculation: its deadline expires,
// a duplicate lands on another node and wins, and the hung attempt is
// cancelled cooperatively (it unblocks from its hang poll and reports itself
// cancelled, which the scheduler ignores).
TEST_F(StragglerTest, HungTaskCancelledAndRescuedBySpeculation) {
  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
  FaultPlan plan;
  plan.events.push_back(
      HangTaskAt(EnginePoint::kTaskRun, /*after_hits=*/0, /*node_ordinal=*/0, /*count=*/1));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  Status status;
  std::vector<int> out = SleepyCollect(&h.ctx(), 12, /*task_ms=*/10, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<int> expect;
  for (int x = 0; x < 12; ++x) {
    expect.push_back(x * 3 + 1);
  }
  EXPECT_EQ(out, expect);
  EXPECT_EQ(injector.GetStats().tasks_hung_injected, 1u);
  EXPECT_GE(h.ctx().counters().tasks_speculated.load(), 1u);
  EXPECT_GE(h.ctx().counters().speculative_wins.load(), 1u);
  EXPECT_GE(h.ctx().counters().tasks_cancelled.load(), 1u);
}

// With speculation off, the stage watchdog is the backstop: a hung task
// surfaces as kDeadlineExceeded naming the stage, task, and node instead of
// wedging the run forever.
TEST_F(StragglerTest, HungTaskSurfacesAsWatchdogTimeout) {
  SpeculationConfig spec = FastSpec(false);
  spec.stage_watchdog_seconds = 0.3;
  EngineHarness h{EngineHarnessOptions{.speculation = spec}};
  FaultPlan plan;
  plan.events.push_back(
      HangTaskAt(EnginePoint::kTaskRun, /*after_hits=*/0, /*node_ordinal=*/0, /*count=*/1));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  Status status;
  SleepyCollect(&h.ctx(), 8, /*task_ms=*/5, &status);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_NE(status.message().find("exceeded its watchdog"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("task"), std::string::npos) << status.ToString();
  EXPECT_NE(status.message().find("node"), std::string::npos) << status.ToString();
  EXPECT_EQ(h.ctx().counters().stage_watchdog_timeouts.load(), 1u);
}

// A node whose every attempt fails is quarantined by the health scorer after
// a handful of zero samples (EWMA sinks below threshold), the job completes
// on the remaining nodes, and timer-driven decay lifts the quarantine once
// the score recovers.
TEST_F(StragglerTest, FlakyNodeQuarantinedThenRecovered) {
  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManagerConfig nm_cfg;
  nm_cfg.health.min_samples = 3;
  nm_cfg.health.decay_interval_seconds = 0.02;
  nm_cfg.health.decay_rate = 0.5;
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);

  const NodeId victim = h.node_ids().front();
  FaultPlan plan;
  plan.events.push_back(FlakyNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                    /*node_ordinal=*/0, /*probability=*/1.0,
                                    /*duration_seconds=*/0.25));
  FaultInjector injector(&h.cluster(), plan);
  {
    ProbeGuard guard(&h.ctx(), &injector);
    Status status;
    std::vector<int> out = SleepyCollect(&h.ctx(), 16, /*task_ms=*/5, &status);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(out.size(), 16u);
    EXPECT_GT(injector.GetStats().tasks_failed_injected, 0u);
    EXPECT_GT(h.ctx().counters().task_retries.load(), 0u);
  }
  EXPECT_LT(nm.HealthScore(victim), 1.0);

  // The quarantine must lift by decay within a generous bound (ticks are
  // 20 ms; recovery needs two). It may already have begun and lifted during
  // the job, so the node manager's own counts say whether it happened, not
  // a sample of Quarantined() taken now.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (nm.Quarantined(victim) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(nm.Quarantined(victim));
  const double quarantines = nm.metrics().Value("flint_node_quarantines");
  EXPECT_GT(quarantines, 0.0) << "health scorer never quarantined the flaky node";
  EXPECT_EQ(nm.metrics().Value("flint_node_unquarantines"), quarantines);
}

// Health judges a task against its own stage. Light stages followed by a
// stage of 30x heavier tasks on healthy nodes must quarantine nobody: the
// heavy stage is not scored until it has its own P50, so the light stages'
// runtimes never become the yardstick.
TEST_F(StragglerTest, LightThenHeavyStageQuarantinesNoHealthyNode) {
  EngineHarness h;
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, NodeManagerConfig{});
  for (int job = 0; job < 3; ++job) {
    ASSERT_EQ(SleepyCollect(&h.ctx(), 16, /*task_ms=*/1).size(), 16u);
  }
  ASSERT_EQ(SleepyCollect(&h.ctx(), 32, /*task_ms=*/30).size(), 32u);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().Value("flint_node_quarantines"), 0.0);
  for (NodeId id : h.node_ids()) {
    EXPECT_FALSE(nm.Quarantined(id)) << "node " << id << " score " << nm.HealthScore(id);
  }
}

// The runtime path alone quarantines a straggler: with speculation off there
// are no deadline misses, so only its successes sink node 0's score. Each
// takes about 8x its stage's P50 (80 ms), past the 50 ms deadline floor and
// 3x the P50, so the completion judge calls every one late.
TEST_F(StragglerTest, SlowNodeQuarantinedByRuntimeWithSpeculationOff) {
  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(false)}};
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManagerConfig nm_cfg;
  // Slow enough that the quarantine outlasts the job, fast enough that the
  // teardown drain is prompt.
  nm_cfg.health.decay_interval_seconds = 0.05;
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
  const NodeId victim = h.node_ids().front();
  FaultPlan plan;
  plan.events.push_back(SlowNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/8.0,
                                   /*duration_seconds=*/30.0));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  Status status;
  std::vector<int> out = SleepyCollect(&h.ctx(), 48, /*task_ms=*/10, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(out.size(), 48u);
  EXPECT_GT(injector.GetStats().tasks_slowed, 0u);
  EXPECT_EQ(h.ctx().counters().task_deadline_misses.load(), 0u);
  EXPECT_TRUE(nm.Quarantined(victim)) << "score " << nm.HealthScore(victim);
  for (NodeId id : h.node_ids()) {
    if (id != victim) {
      EXPECT_FALSE(nm.Quarantined(id)) << "node " << id << " score " << nm.HealthScore(id);
    }
  }
}

// Slowness inside the speculation deadline is not a health signal: a node
// computing 2x slow (20 ms tasks against a 10 ms P50, inside the 50 ms
// deadline floor) finishes every attempt on time, so every node keeps a
// score of exactly 1.0 and nobody is quarantined.
TEST_F(StragglerTest, ModeratelySlowNodeKeepsFullHealth) {
  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(false)}};
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, NodeManagerConfig{});
  FaultPlan plan;
  plan.events.push_back(SlowNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/2.0,
                                   /*duration_seconds=*/30.0));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  Status status;
  ASSERT_EQ(SleepyCollect(&h.ctx(), 48, /*task_ms=*/10, &status).size(), 48u)
      << status.ToString();
  EXPECT_GT(injector.GetStats().tasks_slowed, 0u);
  h.ctx().DrainExecutors();
  for (NodeId id : h.node_ids()) {
    EXPECT_EQ(nm.HealthScore(id), 1.0) << "node " << id;
  }
  EXPECT_EQ(nm.metrics().Value("flint_node_quarantines"), 0.0);
}

// Health belongs to one cluster. Node ids restart at 0 in every cluster, so
// a node quarantined (then revoked) in one cluster must not taint node 0 of
// the next cluster built in the same process.
TEST_F(StragglerTest, QuarantineDoesNotLeakIntoTheNextCluster) {
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManagerConfig nm_cfg;
  nm_cfg.health.min_samples = 3;
  nm_cfg.health.decay_interval_seconds = 0.02;
  nm_cfg.health.decay_rate = 0.05;
  NodeId victim = -1;
  {
    EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
    NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
    victim = h.node_ids().front();
    FaultPlan plan;
    plan.events.push_back(FlakyNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                      /*node_ordinal=*/0, /*probability=*/1.0,
                                      /*duration_seconds=*/0.25));
    FaultInjector injector(&h.cluster(), plan);
    {
      ProbeGuard guard(&h.ctx(), &injector);
      Status status;
      ASSERT_EQ(SleepyCollect(&h.ctx(), 16, /*task_ms=*/5, &status).size(), 16u)
          << status.ToString();
    }
    ASSERT_TRUE(nm.Quarantined(victim)) << "score " << nm.HealthScore(victim);
    // The lease ends with the node still quarantined.
    h.cluster().Revoke({victim}, /*with_warning=*/false);
    h.cluster().DrainEvents();
  }

  EngineHarness h;
  ASSERT_EQ(h.node_ids().front(), victim);
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, nm_cfg);
  EXPECT_FALSE(nm.Quarantined(victim));
  EXPECT_EQ(nm.HealthScore(victim), 1.0);
  ASSERT_EQ(SleepyCollect(&h.ctx(), 16, /*task_ms=*/1).size(), 16u);
  EXPECT_FALSE(nm.Quarantined(victim)) << "score " << nm.HealthScore(victim);
}

// A stage parked with no schedulable node is bounded by the watchdog: every
// node revoked and none coming back surfaces as kDeadlineExceeded instead of
// an endless wait for a replacement.
TEST_F(StragglerTest, ParkWithNoNodeLeftEndsAtTheWatchdog) {
  SpeculationConfig spec = FastSpec(true);
  spec.stage_watchdog_seconds = 0.5;
  EngineHarness h{EngineHarnessOptions{.speculation = spec}};
  h.cluster().Revoke(h.node_ids(), /*with_warning=*/false);
  h.cluster().DrainEvents();

  Status status;
  const double ms = MeasureMs([&] { SleepyCollect(&h.ctx(), 8, /*task_ms=*/1, &status); });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_NE(status.message().find("exceeded its watchdog"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("parked with no schedulable node"), std::string::npos)
      << status.ToString();
  EXPECT_GE(h.ctx().counters().stage_parks.load(), 1u);
  EXPECT_EQ(h.ctx().counters().stage_watchdog_timeouts.load(), 1u);
  EXPECT_LT(ms, 5000.0);
}

// Composition: speculation stays correct when a whole-cluster revocation
// storm lands mid shuffle-map stage on top of a slow node. The stage
// re-dispatches onto replacements and the shuffle result matches a clean
// cluster's bit for bit.
TEST_F(StragglerTest, SpeculationComposesWithRevocationStorm) {
  auto workload = [](FlintContext* ctx) {
    std::vector<std::pair<int, int>> data;
    for (int i = 0; i < 400; ++i) {
      data.emplace_back(i % 10, 1);
    }
    auto counts = ReduceByKey(Parallelize(ctx, data, 8).Map([](const std::pair<int, int>& kv) {
                                std::this_thread::sleep_for(std::chrono::microseconds(50));
                                return kv;
                              }),
                              4, [](int a, int b) { return a + b; });
    return counts.Collect();
  };

  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness clean;
    auto out = workload(&clean.ctx());
    ASSERT_TRUE(out.ok());
    reference = *out;
    std::sort(reference.begin(), reference.end());
  }

  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
  FaultPlan plan;
  plan.events.push_back(SlowNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/8.0,
                                   /*duration_seconds=*/30.0));
  plan.events.push_back(RevokeAllAt(EnginePoint::kShuffleMapTaskRun, /*after_hits=*/2,
                                    /*with_warning=*/false, /*replacements=*/4,
                                    /*delay_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  auto out = workload(&h.ctx());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::vector<std::pair<int, int>> got = *out;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, reference);
  EXPECT_TRUE(injector.AllEventsFired());
}

// Bit-identity over a fused narrow chain: a slow node forces speculative
// re-execution of fused tasks (including the per-partition sampling RNG
// stream) and the output matches a clean, speculation-off run byte for byte.
TEST_F(StragglerTest, FusedChainBitIdenticalUnderSpeculation) {
  std::vector<int> data(8000);
  std::iota(data.begin(), data.end(), 0);
  auto run = [&data](EngineHarness& h) {
    auto mapped = Parallelize(&h.ctx(), data, 8)
                      .Map([](const int& x) {
                        std::this_thread::sleep_for(std::chrono::microseconds(20));
                        return x * 31 + 7;
                      })
                      .Map([](const int& x) { return x ^ (x >> 3); });
    return Sample(mapped, 0.5, /*seed=*/13)
        .Filter([](const int& x) { return (x & 1) == 0; })
        .Collect();
  };

  std::vector<int> reference;
  {
    EngineHarness clean{EngineHarnessOptions{.speculation = FastSpec(false)}};
    auto out = run(clean);
    ASSERT_TRUE(out.ok());
    reference = *out;
    ASSERT_GT(clean.ctx().counters().fused_chains.load(), 0u);
  }

  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
  FaultPlan plan;
  plan.events.push_back(SlowNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                   /*node_ordinal=*/0, /*slow_factor=*/8.0,
                                   /*duration_seconds=*/30.0));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  auto out = run(h);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, reference);
  EXPECT_GT(h.ctx().counters().fused_chains.load(), 0u);
}

// Cross-stage quantile carry-over: a stage with fewer tasks than the quorum
// can never arm deadlines from its own samples, so it arms from the previous
// stage's carried P50. The counter proves the seeded arming happened; the
// fresh-context control proves it is attributable to the carry-over.
TEST_F(StragglerTest, CarriedQuantileArmsSubQuorumStage) {
  {
    SpeculationConfig spec = FastSpec(true);  // quorum = 3
    EngineHarness h{EngineHarnessOptions{.speculation = spec}};
    // First job: 12 tasks >= quorum populate the carried distribution. No
    // carried state exists yet, so nothing is seeded.
    ASSERT_EQ(SleepyCollect(&h.ctx(), 12, /*task_ms=*/5).size(), 12u);
    EXPECT_EQ(h.ctx().counters().stage_quantile_seeded.load(), 0u);
    // Second job: 2 tasks < quorum — deadlines arm from the carried P50.
    ASSERT_EQ(SleepyCollect(&h.ctx(), 2, /*task_ms=*/5).size(), 2u);
    EXPECT_GE(h.ctx().counters().stage_quantile_seeded.load(), 1u);
  }
  {
    // Control: a fresh context's 2-task stage has no carried distribution,
    // so it seeds nothing.
    EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
    ASSERT_EQ(SleepyCollect(&h.ctx(), 2, /*task_ms=*/5).size(), 2u);
    EXPECT_EQ(h.ctx().counters().stage_quantile_seeded.load(), 0u);
  }
}

// The behavioural half: a hang on a 2-task stage (sub-quorum) is only
// rescuable because the carried estimate armed the deadline — the live
// quantile can never reach quorum with one of two tasks wedged. Pre-fix
// this scenario sat until the stage watchdog killed the job.
TEST_F(StragglerTest, CarriedQuantileRescuesHangOnSubQuorumStage) {
  EngineHarness h{EngineHarnessOptions{.speculation = FastSpec(true)}};
  // Establish the carried distribution before any fault is scripted.
  ASSERT_EQ(SleepyCollect(&h.ctx(), 12, /*task_ms=*/10).size(), 12u);

  FaultPlan plan;
  plan.events.push_back(
      HangTaskAt(EnginePoint::kTaskRun, /*after_hits=*/0, /*node_ordinal=*/-1, /*count=*/1));
  FaultInjector injector(&h.cluster(), plan);
  ProbeGuard guard(&h.ctx(), &injector);

  Status status;
  std::vector<int> out = SleepyCollect(&h.ctx(), 2, /*task_ms=*/10, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, (std::vector<int>{1, 4}));
  EXPECT_EQ(injector.GetStats().tasks_hung_injected, 1u);
  EXPECT_GE(h.ctx().counters().stage_quantile_seeded.load(), 1u);
  EXPECT_GE(h.ctx().counters().tasks_speculated.load(), 1u);
  EXPECT_GE(h.ctx().counters().speculative_wins.load(), 1u);
  EXPECT_GE(h.ctx().counters().tasks_cancelled.load(), 1u);
}

}  // namespace
}  // namespace flint
