// Tests for the unified observability layer (ISSUE 6): the metrics registry
// under thread contention, the tracer's bounded ring semantics, Chrome
// trace_event JSON validity (checked with a real parser, not substring
// matching), and an end-to-end storm run whose trace must agree event-for-
// event with the engine's own counters.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/checkpoint/ft_manager.h"
#include "src/engine/typed_rdd.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/inject/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;
using testing::EngineHarnessOptions;

// ---------------------------------------------------------------------------
// A minimal JSON value + recursive-descent parser, enough to *actually parse*
// the tracer's export instead of grepping for substrings. Strict on
// structure: unexpected characters fail the whole parse.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();  // trailing garbage is a failure
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) {
      return false;
    }
    SkipWs();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      return Consume('}');
    }
  }
  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) {
      return false;
    }
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      return Consume(']');
    }
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // unescaped control character: invalid JSON
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          out->push_back('?');  // fidelity not needed, validity is
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }
  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metric sets under contention.

// Eight writers bump one set counter while a reader snapshots the registry:
// no increment is lost, and every snapshot sees a value in range.
TEST(ObsMetricsTest, SetCounterCountsEveryIncrementFromEightThreads) {
  MetricsRegistry registry;
  MetricSet set(registry);
  std::atomic<uint64_t>& counter = set.AddCounter("flint_test_events");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      const double v = registry.Snapshot().Value("flint_test_events");
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, static_cast<double>(kThreads * kPerThread));
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(registry.Snapshot().Value("flint_test_events"),
            static_cast<double>(kThreads * kPerThread));
}

TEST(ObsMetricsTest, HistogramBucketsAndSumSurviveContention) {
  // Bounds 1, 2, 4: observing v in {0.5, 1.5, 3, 100} lands one observation
  // in each bucket (including overflow) per round.
  Histogram hist({1.0, 2.0, 4.0});
  constexpr int kThreads = 8;
  constexpr int kRounds = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kRounds; ++i) {
        hist.Observe(0.5);
        hist.Observe(1.5);
        hist.Observe(3.0);
        hist.Observe(100.0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const uint64_t per_bucket = static_cast<uint64_t>(kThreads) * kRounds;
  const std::vector<uint64_t> counts = hist.Counts();
  ASSERT_EQ(counts.size(), 4u);
  for (const uint64_t c : counts) {
    EXPECT_EQ(c, per_bucket);
  }
  EXPECT_EQ(hist.TotalCount(), 4 * per_bucket);
  EXPECT_NEAR(hist.Sum(), static_cast<double>(per_bucket) * (0.5 + 1.5 + 3.0 + 100.0),
              1e-6 * static_cast<double>(per_bucket));
}

TEST(ObsMetricsTest, SetSeriesLeaveTheSnapshotWithTheSet) {
  MetricsRegistry registry;
  {
    MetricSet set(registry);
    set.AddCounter("flint_test_events").fetch_add(2);
    set.AddGauge("flint_test_level", [] { return 42.0; });
    set.AddHistogram("flint_test_latency", {1.0}).Observe(0.5);
    const MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.Value("flint_test_events"), 2.0);
    EXPECT_DOUBLE_EQ(snap.Value("flint_test_level"), 42.0);
    EXPECT_EQ(snap.histograms.size(), 1u);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.samples.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(ObsMetricsTest, SameNamedSeriesFromLiveSetsAreSummed) {
  MetricsRegistry registry;
  MetricSet a(registry);
  MetricSet b(registry);
  a.AddCounter("flint_test_events").fetch_add(3);
  b.AddCounter("flint_test_events").fetch_add(4);
  a.AddNanos("flint_test_wait_seconds").fetch_add(500'000'000);
  b.AddNanos("flint_test_wait_seconds").fetch_add(250'000'000);
  a.AddHistogram("flint_test_latency", {1.0}).Observe(0.5);
  b.AddHistogram("flint_test_latency", {1.0}).Observe(2.0);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  EXPECT_EQ(snap.Value("flint_test_events"), 7.0);
  EXPECT_DOUBLE_EQ(snap.Value("flint_test_wait_seconds"), 0.75);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].counts, (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(snap.histograms[0].total_count, 2u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum, 2.5);
  // Each set still reads its own value.
  EXPECT_EQ(a.Value("flint_test_events"), 3.0);
  EXPECT_EQ(b.Value("flint_test_events"), 4.0);
}

TEST(ObsMetricsTest, PrometheusTextHasTypedFamiliesAndCumulativeBuckets) {
  MetricsRegistry registry;
  MetricSet set(registry);
  set.AddCounter("flint_test_events").fetch_add(3);
  set.AddGauge("flint_test_level", [] { return 1.5; });
  Histogram& hist = set.AddHistogram("flint_test_latency", {0.1, 1.0});
  hist.Observe(0.05);
  hist.Observe(0.5);
  hist.Observe(10.0);
  const std::string text = registry.FormatPrometheusText();
  EXPECT_NE(text.find("# TYPE flint_test_events counter"), std::string::npos);
  EXPECT_NE(text.find("flint_test_events 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE flint_test_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE flint_test_latency histogram"), std::string::npos);
  // Buckets are cumulative; +Inf carries the total.
  EXPECT_NE(text.find("flint_test_latency_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("flint_test_latency_count 3"), std::string::npos);
}

// Two live clusters in one process export each series once, valued at the
// sum of what each counted.
TEST(ObsMetricsTest, TwoLiveClustersExportEachSeriesOnceAsTheirSum) {
  EngineHarness a;
  EngineHarness b;
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE(Parallelize(&a.ctx(), data, 4).Collect().ok());
  ASSERT_TRUE(Parallelize(&b.ctx(), data, 3).Collect().ok());

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::map<std::string, int> seen;
  for (const MetricSample& s : snap.samples) {
    ++seen[s.name];
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    ++seen[h.name];
  }
  for (const auto& [name, n] : seen) {
    EXPECT_EQ(n, 1) << name;
  }
  const uint64_t tasks =
      a.ctx().counters().tasks_run.load() + b.ctx().counters().tasks_run.load();
  EXPECT_EQ(tasks, 7u);
  EXPECT_EQ(snap.Value("flint_engine_tasks_run"), static_cast<double>(tasks));
  EXPECT_EQ(snap.Value("flint_engine_partitions_computed"),
            static_cast<double>(a.ctx().counters().partitions_computed.load() +
                                b.ctx().counters().partitions_computed.load()));
}

// A retry one cluster counts goes with that cluster: the next cluster built
// in the same process starts from zero.
TEST(ObsMetricsTest, RetryCountedByOneClusterIsNotSeenByTheNext) {
  {
    EngineHarness h;
    FaultPlan plan;
    plan.events.push_back(FailWritesAt(EnginePoint::kDfsPut, /*after_hits=*/0, "", 1));
    FaultInjector injector(&h.cluster(), plan, &h.dfs());
    auto rdd = Parallelize(&h.ctx(), std::vector<int>{1, 2, 3}, 1);
    auto parts = h.ctx().Materialize(rdd.raw());
    ASSERT_TRUE(parts.ok()) << parts.status().ToString();
    ASSERT_TRUE(h.ctx().WriteCheckpointData(rdd.raw(), 0, parts->front()).ok());
    EXPECT_EQ(MetricsRegistry::Global().Snapshot().Value("flint_dfs_retry_attempts"), 1.0);
  }
  EngineHarness next;
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(snap.Has("flint_dfs_retry_attempts"));
  EXPECT_EQ(snap.Value("flint_dfs_retry_attempts"), 0.0);
}

// ---------------------------------------------------------------------------
// Tracer ring semantics.

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  Tracer tracer(64);
  tracer.RecordInstant("ignored", "test");
  const Tracer::Stats stats = tracer.GetStats();
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.buffered, 0u);
}

TEST(ObsTraceTest, RingWrapsAndCountsDropped) {
  // 16 total slots across 8 stripes = 2 per stripe; a single thread maps to
  // one stripe, so at most 2 of its events are retained.
  Tracer tracer(16);
  tracer.SetEnabled(true);
  constexpr uint64_t kEvents = 100;
  for (uint64_t i = 0; i < kEvents; ++i) {
    tracer.RecordInstant("evt", "test", {{"i", static_cast<double>(i)}});
  }
  const Tracer::Stats stats = tracer.GetStats();
  EXPECT_EQ(stats.recorded, kEvents);
  EXPECT_LE(stats.buffered, 16u);
  EXPECT_EQ(stats.dropped, stats.recorded - stats.buffered);
  // The retained events are the newest ones, in order.
  const std::vector<TraceEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), stats.buffered);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
  EXPECT_EQ(events.back().args[0].value, static_cast<double>(kEvents - 1));
}

TEST(ObsTraceTest, ConcurrentRecordingKeepsEveryEventWithCapacityToSpare) {
  Tracer tracer(1 << 14);
  tracer.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        tracer.RecordInstant("concurrent", "test", {{"i", static_cast<double>(i)}});
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const Tracer::Stats stats = tracer.GetStats();
  EXPECT_EQ(stats.recorded, kThreads * kPerThread);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(tracer.CountEvents("concurrent"), kThreads * kPerThread);
}

TEST(ObsTraceTest, ExportJsonParsesWithHostileDetailStrings) {
  Tracer tracer(256);
  tracer.SetEnabled(true);
  tracer.RecordInstant("instant", "test", {{"x", 1.5}, {"nan", std::nan("")}},
                       "quotes \" backslash \\ newline \n tab \t control \x01 end");
  const uint64_t start = tracer.NowNs();
  tracer.RecordComplete("span", "test", start, 1000, {{"y", 2.0}});
  const std::string json = tracer.ExportJson();

  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  ASSERT_TRUE(root.is_object());
  const JsonValue* display = root.Find("displayTimeUnit");
  ASSERT_NE(display, nullptr);
  EXPECT_EQ(display->str, "ms");
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);

  for (const JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("ph"), nullptr);
    ASSERT_NE(event.Find("ts"), nullptr);
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
  }
  const JsonValue& instant = events->array[0];
  EXPECT_EQ(instant.Find("name")->str, "instant");
  EXPECT_EQ(instant.Find("ph")->str, "i");
  const JsonValue* args = instant.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->Find("x")->number, 1.5);
  // Non-finite numeric args must be stringified, not emitted as bare NaN
  // (which is invalid JSON) — the parse above would have failed otherwise.
  EXPECT_EQ(args->Find("nan")->kind, JsonValue::Kind::kString);
  ASSERT_NE(args->Find("detail"), nullptr);
  const JsonValue& span = events->array[1];
  EXPECT_EQ(span.Find("ph")->str, "X");
  ASSERT_NE(span.Find("dur"), nullptr);
  EXPECT_GT(span.Find("dur")->number, 0.0);
}

TEST(ObsTraceTest, TraceSpanRecordsCompleteEventWithArgs) {
  Tracer& tracer = Tracer::Global();
  tracer.Configure(ObsConfig{.tracing = true, .trace_capacity = 1024});
  {
    TraceSpan span("obs_test_span", "test");
    span.AddArg("k", 7.0);
    span.SetDetail("hello");
  }
  EXPECT_EQ(tracer.CountEvents("obs_test_span"), 1u);
  const std::vector<TraceEvent> events = tracer.Drain();
  const TraceEvent* found = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "obs_test_span") {
      found = &e;
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->phase, TracePhase::kComplete);
  ASSERT_EQ(found->num_args, 1);
  EXPECT_DOUBLE_EQ(found->args[0].value, 7.0);
  EXPECT_EQ(found->detail, "hello");
  tracer.Configure(ObsConfig{});  // disable + clear for any later test
}

// ---------------------------------------------------------------------------
// End-to-end: a storm run's trace must agree with the engine's counters.

class ObsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Configure(ObsConfig{.tracing = true, .trace_capacity = 1 << 16});
  }
  void TearDown() override { Tracer::Global().Configure(ObsConfig{}); }
};

// Installs the injector as the context's probe for the guard's lifetime (same
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

std::vector<std::pair<int, int>> KeyedRecords(int records, int keys) {
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(records));
  for (int i = 0; i < records; ++i) {
    data.emplace_back(i % keys, 1);
  }
  return data;
}

TEST_F(ObsEndToEndTest, StormRunTraceMatchesEngineCounters) {
  uint64_t revocations = 0;
  uint64_t recomputes = 0;
  {
    EngineHarness h;
    CheckpointConfig cfg;
    cfg.policy = CheckpointPolicyKind::kFlint;
    cfg.mttf_hours = 1.0;
    cfg.time.seconds_per_model_hour = 0.05;
    cfg.initial_delta_seconds = 0.001;
    FaultToleranceManager ft(&h.ctx(), cfg);

    FaultPlan plan;
    plan.events.push_back(RevokeAllAt(EnginePoint::kShuffleMapTaskRun, /*after_hits=*/0,
                                      /*with_warning=*/false, /*replacements=*/4,
                                      /*delay_seconds=*/0.05));
    FaultInjector injector(&h.cluster(), plan);
    ProbeGuard guard(&h.ctx(), &injector);

    auto input = Parallelize(&h.ctx(), KeyedRecords(600, 17), 5);
    input.Cache();
    ft.CheckpointRddNow(input.raw());
    auto counts = ReduceByKey(input, 4, [](int a, int b) { return a + b; });
    auto out = counts.Collect();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (int i = 0; i < 400 && input.raw()->checkpoint_state() != CheckpointState::kSaved;
         ++i) {
      ft.FireCheckpointRound();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(input.raw()->checkpoint_state(), CheckpointState::kSaved);
    EXPECT_TRUE(injector.AllEventsFired());

    revocations = injector.GetStats().nodes_revoked;
    recomputes = h.ctx().counters().partitions_recomputed.load();
    ASSERT_EQ(revocations, 4u);

    // While the cluster is alive its owners' sets feed the registry: every
    // subsystem must surface under the unified namespace.
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    for (const char* name :
         {"flint_engine_tasks_run", "flint_engine_partitions_computed",
          "flint_engine_partitions_recomputed", "flint_block_hits", "flint_block_misses",
          "flint_shuffle_fetch_waits", "flint_ft_rdds_checkpointed",
          "flint_ft_partitions_written", "flint_ft_delta_seconds", "flint_ft_tau_seconds"}) {
      EXPECT_TRUE(snap.Has(name)) << name;
    }
    EXPECT_GT(snap.Value("flint_engine_tasks_run"), 0.0);
    EXPECT_GT(snap.Value("flint_ft_partitions_written"), 0.0);
    EXPECT_EQ(snap.Value("flint_engine_partitions_recomputed"),
              static_cast<double>(recomputes));
  }

  Tracer& tracer = Tracer::Global();
  // One revocation instant per revoked node; one recompute instant per
  // recomputed partition — the trace and the counters tell the same story.
  EXPECT_EQ(tracer.CountEvents("revocation"), revocations);
  EXPECT_EQ(tracer.CountEvents("recompute"), recomputes);
  EXPECT_GE(tracer.CountEvents("shuffle_stage"), 1u);
  EXPECT_GE(tracer.CountEvents("checkpoint"), 1u);

  // The checkpoint instant carries the measured delta sample and the tau the
  // EWMA produced (the paper's two governing quantities).
  bool found_checkpoint = false;
  for (const TraceEvent& e : tracer.Drain()) {
    if (std::string(e.name) != "checkpoint") {
      continue;
    }
    found_checkpoint = true;
    bool has_delta = false;
    bool has_tau = false;
    for (int i = 0; i < e.num_args; ++i) {
      if (std::string(e.args[i].key) == "delta_sample_s") {
        has_delta = true;
      }
      if (std::string(e.args[i].key) == "tau_s") {
        has_tau = true;
      }
    }
    EXPECT_TRUE(has_delta);
    EXPECT_TRUE(has_tau);
  }
  EXPECT_TRUE(found_checkpoint);

  // And the whole thing still exports as valid Chrome trace JSON.
  JsonValue root;
  ASSERT_TRUE(JsonParser(tracer.ExportJson()).Parse(&root));
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(events->array.size(), revocations + recomputes);
}

TEST_F(ObsEndToEndTest, TracingOffRecordsNoEventsDuringARun) {
  Tracer::Global().Configure(ObsConfig{});  // off
  EngineHarness h;
  std::vector<int> data(500);
  std::iota(data.begin(), data.end(), 0);
  auto sum = Parallelize(&h.ctx(), data, 4)
                 .Map([](const int& x) { return x + 1; })
                 .Reduce([](int a, int b) { return a + b; });
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(Tracer::Global().GetStats().recorded, 0u);
}

}  // namespace
}  // namespace flint
