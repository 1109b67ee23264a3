// What every task attempt reports, pinned from the outside: the probe
// points and TaskRunInfo a recording EngineProbe sees, and the task spans
// the tracer keeps. A shuffle map attempt fires kShuffleMapTaskRun, then
// kTaskRun (carrying its shuffle and map index), then kShuffleMapTaskDone
// once its output is registered; a result attempt reports its RDD; a retry
// carries its attempt number; each attempt opens exactly one span with its
// node and attempt number, closed inside its stage's span before the attempt
// reports; and a reaped result-stage loser is not judged.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/checkpoint/ft_manager.h"
#include "src/common/mutex.h"
#include "src/engine/typed_rdd.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/inject/fault_injector.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;
using testing::EngineHarnessOptions;

// One executor-side probe arrival.
struct ProbeRecord {
  EnginePoint point = EnginePoint::kTaskRun;
  TaskRunInfo info;  // set for kTaskRun
};

// Records the executor-side probe points per thread, in arrival order, and
// forwards everything to an optional inner probe (a fault injector). An
// executor thread runs one attempt at a time, so each thread's record is its
// attempts' sequences back to back.
class RecordingProbe : public EngineProbe {
 public:
  explicit RecordingProbe(EngineProbe* inner = nullptr) : inner_(inner) {}

  void AtPoint(EnginePoint point) override {
    if (point == EnginePoint::kShuffleMapTaskRun || point == EnginePoint::kShuffleMapTaskDone) {
      Record(ProbeRecord{point, TaskRunInfo{}});
    }
    if (inner_ != nullptr) {
      inner_->AtPoint(point);
    }
  }
  TaskFaultDirective OnTaskRun(const TaskRunInfo& info) override {
    Record(ProbeRecord{EnginePoint::kTaskRun, info});
    return inner_ != nullptr ? inner_->OnTaskRun(info) : TaskFaultDirective{};
  }
  FetchFaultDirective OnShuffleFetch(const ShuffleFetchInfo& info) override {
    return inner_ != nullptr ? inner_->OnShuffleFetch(info) : FetchFaultDirective{};
  }

  std::map<std::thread::id, std::vector<ProbeRecord>> ByThread() const {
    MutexLock lock(&mutex_);
    return by_thread_;
  }
  // Every kTaskRun arrival, in no particular order.
  std::vector<TaskRunInfo> TaskRuns() const {
    std::vector<TaskRunInfo> out;
    for (const auto& [thread, records] : ByThread()) {
      for (const ProbeRecord& r : records) {
        if (r.point == EnginePoint::kTaskRun) {
          out.push_back(r.info);
        }
      }
    }
    return out;
  }

 private:
  void Record(ProbeRecord record) {
    MutexLock lock(&mutex_);
    by_thread_[std::this_thread::get_id()].push_back(std::move(record));
  }

  EngineProbe* inner_;
  mutable Mutex mutex_{"RecordingProbe::mutex_"};
  std::map<std::thread::id, std::vector<ProbeRecord>> by_thread_ GUARDED_BY(mutex_);
};

// Installs `probe` for the guard's lifetime; on exit settles every attempt
// (and the injector's scheduled actions) before the probe can die.
class ProbeGuard {
 public:
  ProbeGuard(FlintContext* ctx, EngineProbe* probe, FaultInjector* injector = nullptr)
      : ctx_(ctx), injector_(injector) {
    ctx_->SetProbe(probe);
  }
  ~ProbeGuard() {
    ctx_->SetProbe(nullptr);
    if (injector_ != nullptr) {
      injector_->Drain();
    }
    ctx_->DrainExecutors();
  }
  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;

 private:
  FlintContext* ctx_;
  FaultInjector* injector_;
};

// Speculation off, so no attempt is a cancelled duplicate and every map
// attempt that starts also registers its output. Retries stay fast.
EngineHarnessOptions NoSpeculation() {
  EngineHarnessOptions options;
  options.speculation.enabled = false;
  options.speculation.max_attempts_per_task = 8;
  options.speculation.retry_backoff_seconds = 0.01;
  return options;
}

constexpr int kMaps = 5;
constexpr int kReduces = 3;

// A one-shuffle job: kMaps map tasks feeding kReduces result tasks.
struct ShuffleJob {
  int result_rdd_id = -1;
  std::vector<std::pair<int, int>> rows;
};

ShuffleJob RunShuffleJob(FlintContext* ctx) {
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 400; ++i) {
    data.emplace_back(i % 13, 1);
  }
  auto counts = ReduceByKey(Parallelize(ctx, data, kMaps), kReduces,
                            [](int a, int b) { return a + b; });
  ShuffleJob job;
  job.result_rdd_id = counts.raw()->id();
  auto out = counts.Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (out.ok()) {
    job.rows = *out;
    std::sort(job.rows.begin(), job.rows.end());
  }
  return job;
}

// Splits `records` (one thread's arrivals) into attempts: a map attempt is
// kShuffleMapTaskRun followed by its kTaskRun (and kShuffleMapTaskDone when
// it registered an output); a result attempt is a lone kTaskRun.
struct Attempts {
  std::vector<TaskRunInfo> map;
  std::vector<TaskRunInfo> result;
  int map_done = 0;
  int out_of_order = 0;
};

Attempts SplitAttempts(const RecordingProbe& probe) {
  Attempts attempts;
  for (const auto& [thread, records] : probe.ByThread()) {
    for (size_t i = 0; i < records.size(); ++i) {
      const ProbeRecord& r = records[i];
      if (r.point == EnginePoint::kShuffleMapTaskRun) {
        if (i + 1 >= records.size() || records[i + 1].point != EnginePoint::kTaskRun) {
          ++attempts.out_of_order;
          continue;
        }
        attempts.map.push_back(records[++i].info);
        if (i + 1 < records.size() && records[i + 1].point == EnginePoint::kShuffleMapTaskDone) {
          ++attempts.map_done;
          ++i;
        }
      } else if (r.point == EnginePoint::kTaskRun) {
        attempts.result.push_back(r.info);
      } else {
        ++attempts.out_of_order;  // a kShuffleMapTaskDone with no map attempt before it
      }
    }
  }
  return attempts;
}

TEST(AttemptPath, MapAttemptFiresRunTaskRunDoneInOrder) {
  EngineHarness h{NoSpeculation()};
  RecordingProbe probe;
  ShuffleJob job;
  {
    ProbeGuard guard(&h.ctx(), &probe);
    job = RunShuffleJob(&h.ctx());
  }
  ASSERT_EQ(job.rows.size(), 13u);

  const Attempts attempts = SplitAttempts(probe);
  EXPECT_EQ(attempts.out_of_order, 0);
  ASSERT_EQ(attempts.map.size(), static_cast<size_t>(kMaps));
  EXPECT_EQ(attempts.map_done, kMaps);
  std::set<int> maps;
  for (const TaskRunInfo& info : attempts.map) {
    EXPECT_GE(info.shuffle_id, 0);
    EXPECT_EQ(info.shuffle_id, attempts.map.front().shuffle_id);
    EXPECT_EQ(info.rdd_id, -1);
    EXPECT_EQ(info.attempt, 0);
    EXPECT_GE(info.node, 0);
    maps.insert(info.partition);
  }
  EXPECT_EQ(maps, (std::set<int>{0, 1, 2, 3, 4}));
}

TEST(AttemptPath, ResultAttemptReportsItsRdd) {
  EngineHarness h{NoSpeculation()};
  RecordingProbe probe;
  ShuffleJob job;
  {
    ProbeGuard guard(&h.ctx(), &probe);
    job = RunShuffleJob(&h.ctx());
  }
  const Attempts attempts = SplitAttempts(probe);
  ASSERT_EQ(attempts.result.size(), static_cast<size_t>(kReduces));
  std::set<int> partitions;
  for (const TaskRunInfo& info : attempts.result) {
    EXPECT_EQ(info.rdd_id, job.result_rdd_id);
    EXPECT_EQ(info.shuffle_id, -1);
    EXPECT_EQ(info.attempt, 0);
    partitions.insert(info.partition);
  }
  EXPECT_EQ(partitions, (std::set<int>{0, 1, 2}));
}

// Node 0 fails every attempt for a while; each failed slot is retried and
// the retry's TaskRunInfo carries its attempt number.
TEST(AttemptPath, RetriedAttemptCarriesAttemptNumber) {
  EngineHarness h{NoSpeculation()};
  FaultPlan plan;
  plan.events.push_back(FlakyNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                    /*node_ordinal=*/0, /*probability=*/1.0,
                                    /*duration_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  RecordingProbe probe(&injector);
  ShuffleJob job;
  {
    ProbeGuard guard(&h.ctx(), &probe, &injector);
    job = RunShuffleJob(&h.ctx());
  }
  ASSERT_EQ(job.rows.size(), 13u);
  ASSERT_GT(injector.GetStats().tasks_failed_injected, 0u);
  EXPECT_GT(h.ctx().counters().task_retries.load(), 0u);

  // Attempt numbers count up per slot: (stage, partition) -> attempts seen.
  std::map<std::tuple<int, int, int>, std::set<int>> per_slot;
  for (const TaskRunInfo& info : probe.TaskRuns()) {
    per_slot[{info.rdd_id, info.shuffle_id, info.partition}].insert(info.attempt);
  }
  bool saw_retry = false;
  for (const auto& [slot, numbers] : per_slot) {
    // Numbers are 0..n-1 for n attempts of the slot.
    EXPECT_EQ(*numbers.begin(), 0);
    EXPECT_EQ(*numbers.rbegin(), static_cast<int>(numbers.size()) - 1);
    saw_retry = saw_retry || numbers.size() > 1;
  }
  EXPECT_TRUE(saw_retry) << "no slot was retried";
}

const TraceArg* FindArg(const TraceEvent& event, const char* key) {
  for (int i = 0; i < event.num_args; ++i) {
    if (std::strcmp(event.args[static_cast<size_t>(i)].key, key) == 0) {
      return &event.args[static_cast<size_t>(i)];
    }
  }
  return nullptr;
}

class AttemptPathTraced : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Configure(ObsConfig{.tracing = true, .trace_capacity = 1 << 16});
  }
  void TearDown() override { Tracer::Global().Configure(ObsConfig{}); }
};

// Each attempt, failed ones included, opens exactly one task span whose
// partition, node and attempt args match what the attempt told the probe.
TEST_F(AttemptPathTraced, EachAttemptEmitsOneSpanWithNodeAndAttempt) {
  EngineHarness h{NoSpeculation()};
  FaultPlan plan;
  plan.events.push_back(FlakyNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                                    /*node_ordinal=*/0, /*probability=*/1.0,
                                    /*duration_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  RecordingProbe probe(&injector);
  {
    ProbeGuard guard(&h.ctx(), &probe, &injector);
    ASSERT_EQ(RunShuffleJob(&h.ctx()).rows.size(), 13u);
  }

  // (is a map task, partition, node, attempt) per attempt, from each side.
  using Key = std::tuple<bool, int, int, int>;
  std::multiset<Key> from_probe;
  for (const TaskRunInfo& info : probe.TaskRuns()) {
    from_probe.insert({info.shuffle_id >= 0, info.partition, info.node, info.attempt});
  }
  std::multiset<Key> from_spans;
  for (const TraceEvent& event : Tracer::Global().Drain()) {
    const bool map_task = std::strcmp(event.name, "shuffle_map_task") == 0;
    if (!map_task && std::strcmp(event.name, "task") != 0) {
      continue;
    }
    EXPECT_EQ(event.phase, TracePhase::kComplete);
    const TraceArg* scope = FindArg(event, map_task ? "shuffle" : "rdd");
    const TraceArg* partition = FindArg(event, map_task ? "map" : "partition");
    const TraceArg* node = FindArg(event, "node");
    const TraceArg* attempt = FindArg(event, "attempt");
    ASSERT_NE(scope, nullptr) << event.name;
    ASSERT_NE(partition, nullptr) << event.name;
    ASSERT_NE(node, nullptr) << event.name;
    ASSERT_NE(attempt, nullptr) << event.name;
    from_spans.insert({map_task, static_cast<int>(partition->value),
                       static_cast<int>(node->value), static_cast<int>(attempt->value)});
  }
  EXPECT_EQ(Tracer::Global().GetStats().dropped, 0u);
  EXPECT_EQ(from_spans.size(), h.ctx().counters().tasks_run.load());
  EXPECT_EQ(from_spans, from_probe);
  EXPECT_TRUE(std::any_of(from_spans.begin(), from_spans.end(),
                          [](const Key& k) { return std::get<3>(k) > 0; }))
      << "no retried attempt in the trace";
}

// A task span closes before its attempt reports its outcome: drained right
// after Collect, with no wait for the executors, the trace holds every task
// span of the job, each inside a span of its own stage.
TEST_F(AttemptPathTraced, TaskSpansCloseInsideTheirStageBeforeCollectReturns) {
  EngineHarness h{NoSpeculation()};
  struct Span {
    bool map = false;
    int scope = -1;  // the shuffle a map stage writes, or a result stage's rdd
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  for (int round = 0; round < 1000; ++round) {
    Tracer::Global().Clear();
    const uint64_t tasks_before = h.ctx().counters().tasks_run.load();
    ASSERT_EQ(RunShuffleJob(&h.ctx()).rows.size(), 13u);
    const std::vector<TraceEvent> events = Tracer::Global().Drain();
    const uint64_t tasks = h.ctx().counters().tasks_run.load() - tasks_before;

    std::vector<Span> stages;
    std::vector<Span> task_spans;
    for (const TraceEvent& event : events) {
      const bool map_stage = std::strcmp(event.name, "shuffle_stage") == 0;
      const bool map_task = std::strcmp(event.name, "shuffle_map_task") == 0;
      const bool stage = map_stage || std::strcmp(event.name, "result_stage") == 0;
      if (!stage && !map_task && std::strcmp(event.name, "task") != 0) {
        continue;
      }
      const TraceArg* scope = FindArg(event, map_stage || map_task ? "shuffle" : "rdd");
      ASSERT_NE(scope, nullptr) << event.name;
      const Span span{map_stage || map_task, static_cast<int>(scope->value), event.ts_ns,
                      event.ts_ns + event.dur_ns};
      (stage ? stages : task_spans).push_back(span);
    }
    ASSERT_EQ(task_spans.size(), tasks) << "round " << round;
    for (const Span& task : task_spans) {
      EXPECT_TRUE(std::any_of(stages.begin(), stages.end(), [&task](const Span& stage) {
        return stage.map == task.map && stage.scope == task.scope &&
               stage.begin <= task.begin && task.end <= stage.end;
      })) << "round " << round << ": a " << (task.map ? "map" : "result")
          << " task span ends outside its stage";
    }
  }
}

// Counts the on-time OnTaskJudged verdicts.
class JudgmentRecorder : public EngineObserver {
 public:
  void OnTaskJudged(NodeId node, double seconds, bool on_time) override {
    (void)node;
    (void)seconds;
    MutexLock lock(&mutex_);
    on_time_ += on_time ? 1 : 0;
  }
  int on_time() const {
    MutexLock lock(&mutex_);
    return on_time_;
  }

 private:
  mutable Mutex mutex_{"JudgmentRecorder::mutex_"};
  int on_time_ GUARDED_BY(mutex_) = 0;
};

// Speculation on, node 0 of 2 computes 2x slow, and every task reads a
// checkpointed partition back from the DFS, which takes 160 ms (a degraded
// store). The slow node's attempts take 320 ms and blow the 240 ms deadline,
// so each is duplicated onto the fast node, where the duplicate restores
// until 400 ms, inside its own deadline. The slow original wins at 320 ms
// and the duplicate is reaped mid-read; a restore does not poll
// cancellation, so its body then finishes with the rows. Partition 0
// restores three times slower and holds the stage open past 400 ms, so the
// stage loop sees those outcomes.
//
// A reaped result-stage loser must not be judged (EngineObserver::
// OnTaskJudged), so the on-time verdicts are at most the slots that were
// never speculated, each won by its first attempt. (A speculated slot's
// first attempt was judged late at its deadline miss.)
TEST(AttemptPath, ReapedResultLoserIsNotJudged) {
  constexpr int kParts = 8;
  constexpr double kRestoreSeconds = 0.16;
  EngineHarnessOptions options;
  options.num_nodes = 2;
  options.executor_threads = 8;
  options.model_latency = true;
  options.speculation.quorum = 2;
  options.speculation.spec_multiplier = 1.0;
  options.speculation.min_deadline_seconds = 0.24;
  EngineHarness h{options};

  std::vector<int> data(kParts * 2048);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, kParts).Map([](const int& x) { return x + 1; });
  {
    CheckpointConfig ckpt;
    ckpt.policy = CheckpointPolicyKind::kFlint;
    FaultToleranceManager ft(&h.ctx(), ckpt);
    ft.CheckpointRddNow(rdd.raw());
    for (int i = 0; i < 600 && rdd.raw()->checkpoint_state() != CheckpointState::kSaved; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    h.ctx().DrainExecutors();
  }
  ASSERT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);

  FaultPlan plan;
  plan.events.push_back(SlowNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0, /*node_ordinal=*/0,
                                   /*slow_factor=*/2.0, /*duration_seconds=*/30.0));
  for (int p = 0; p < kParts; ++p) {
    const std::string path = rdd.raw()->CheckpointPath(p);
    auto stat = h.dfs().Stat(path);
    ASSERT_TRUE(stat.ok()) << stat.status().ToString();
    const double base_seconds = static_cast<double>(stat->size_bytes) /
                                h.dfs().config().read_bandwidth_bytes_per_s;
    const double seconds = (p == 0 ? 3.0 : 1.0) * kRestoreSeconds;
    plan.events.push_back(DfsSlowAt(EnginePoint::kTaskRun, /*after_hits=*/0, path,
                                    /*duration_seconds=*/30.0, seconds / base_seconds));
  }
  FaultInjector injector(&h.cluster(), plan, &h.dfs());
  JudgmentRecorder judgments;
  h.ctx().AddObserver(&judgments);
  Result<std::vector<int>> out = InvalidArgument("not run");
  {
    ProbeGuard guard(&h.ctx(), &injector, &injector);
    out = rdd.Collect();
  }
  h.ctx().RemoveObserver(&judgments);

  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::vector<int> expect(data.size());
  std::iota(expect.begin(), expect.end(), 1);
  EXPECT_EQ(*out, expect);
  const EngineCounters& counters = h.ctx().counters();
  EXPECT_EQ(counters.checkpoint_reads.load(), counters.tasks_run.load());
  ASSERT_GT(counters.tasks_speculated.load(), 1u) << "no slow-node slot was speculated";
  EXPECT_LE(judgments.on_time(), kParts - static_cast<int>(counters.tasks_speculated.load()));
}

}  // namespace
}  // namespace flint
