// Google-benchmark microbenchmarks for the engine primitives: narrow
// transformation throughput, shuffle (ReduceByKey) throughput, block manager
// put/get, trace statistics, and the policy closed forms. These are not
// paper figures; they track the substrate's own performance.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/checkpoint/checkpoint_policy.h"
#include "src/engine/block_manager.h"
#include "src/engine/typed_rdd.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/obs/trace.h"
#include "src/trace/price_trace.h"
#include "tests/test_util.h"

namespace flint {
namespace {

void BM_MapCollect(benchmark::State& state) {
  testing::EngineHarness h;
  std::vector<int64_t> data(static_cast<size_t>(state.range(0)));
  std::iota(data.begin(), data.end(), 0);
  auto base = Parallelize(&h.ctx(), data, 8);
  base.Cache();
  (void)base.Materialize();
  for (auto _ : state) {
    auto out = base.Map([](const int64_t& x) { return x * 3 + 1; }).Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// Engine benchmarks use real time: the driver thread blocks while executor
// pools do the work, so its CPU time says nothing about throughput.
BENCHMARK(BM_MapCollect)->Arg(1 << 14)->Arg(1 << 17)->UseRealTime();

// The narrow-chain hot path (TaskContext::RunChain): a Map->Map->Filter->Count
// job whose two lower operators stream through without building a partition.
Result<uint64_t> NarrowChainJob(const TypedRdd<int64_t>& base) {
  return base.Map([](const int64_t& x) { return x * 3 + 1; })
      .Map([](const int64_t& x) { return x ^ (x >> 7); })
      .Filter([](const int64_t& x) { return (x & 1) == 0; })
      .Count();
}

// A cached 8-partition source of `n` consecutive integers on `h`.
TypedRdd<int64_t> NarrowChainSource(testing::EngineHarness& h, int64_t n) {
  std::vector<int64_t> data(static_cast<size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto base = Parallelize(&h.ctx(), data, 8);
  base.Cache();
  (void)base.Materialize();
  return base;
}

void RunNarrowChain(benchmark::State& state) {
  testing::EngineHarness h;
  const auto base = NarrowChainSource(h, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(NarrowChainJob(base));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_NarrowChainFused(benchmark::State& state) { RunNarrowChain(state); }
BENCHMARK(BM_NarrowChainFused)->Arg(1 << 20)->UseRealTime();

// Same fused chain with the global tracer enabled: per stage/task span the
// tracer costs two clock reads and one striped ring write, which must stay
// invisible next to the actual work.
void BM_NarrowChainFusedTraced(benchmark::State& state) {
  ObsConfig obs;
  obs.tracing = true;
  obs.trace_capacity = 1 << 16;
  ConfigureObservability(obs);
  RunNarrowChain(state);
  ConfigureObservability(ObsConfig{});
}
BENCHMARK(BM_NarrowChainFusedTraced)->Arg(1 << 20)->UseRealTime();

// The tracer-overhead gate of tools/check.sh --obs. Each iteration is one
// pair: the fused chain run untraced and traced, kJobsPerSide jobs each, in
// an order that flips every pair so neither side always runs second. Host
// noise that slows both halves of a pair cancels out of its ratio, which
// two separately timed benchmarks cannot offer. Reports quantiles of the
// per-pair overhead (traced / untraced - 1) and a distribution-free 95%
// confidence interval for its median (order statistics of a binomial(n,
// 1/2) count).
void BM_NarrowChainTracerPairs(benchmark::State& state) {
  constexpr int kJobsPerSide = 2;
  testing::EngineHarness h;
  const auto base = NarrowChainSource(h, state.range(0));
  ObsConfig obs;
  obs.tracing = true;
  obs.trace_capacity = 1 << 16;
  ConfigureObservability(obs);
  auto timed_side = [&base](bool traced) {
    Tracer::Global().SetEnabled(traced);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kJobsPerSide; ++i) {
      benchmark::DoNotOptimize(NarrowChainJob(base));
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  std::vector<double> overheads;
  for (auto _ : state) {
    const bool traced_first = overheads.size() % 2 == 1;
    const double first = timed_side(traced_first);
    const double second = timed_side(!traced_first);
    const double untraced = traced_first ? second : first;
    const double traced = traced_first ? first : second;
    overheads.push_back(traced / untraced - 1.0);
    state.SetIterationTime(first + second);
  }
  ConfigureObservability(ObsConfig{});
  std::sort(overheads.begin(), overheads.end());
  const size_t n = overheads.size();
  auto quantile = [&overheads, n](double q) {
    return overheads[static_cast<size_t>(q * static_cast<double>(n - 1) + 0.5)];
  };
  const auto ci_rank = static_cast<size_t>(
      std::max(0.0, std::floor((static_cast<double>(n) - 1.96 * std::sqrt(n)) / 2.0)));
  state.counters["pairs"] = static_cast<double>(n);
  state.counters["overhead_p25"] = quantile(0.25);
  state.counters["overhead_median"] = quantile(0.5);
  state.counters["overhead_p75"] = quantile(0.75);
  state.counters["overhead_ci_lo"] = overheads[ci_rank];
  state.counters["overhead_ci_hi"] = overheads[n - 1 - ci_rank];
  state.SetItemsProcessed(state.iterations() * 2 * kJobsPerSide * state.range(0));
}
BENCHMARK(BM_NarrowChainTracerPairs)->Arg(1 << 20)->Iterations(241)->UseManualTime();

// Sampled range-partitioned sort: the argument is num_output partitions, so
// the sweep shows wall time dropping as the sort spreads across executors.
void BM_SortBy(benchmark::State& state) {
  testing::EngineHarnessOptions options;
  options.executor_threads = 2;  // 4 nodes x 2 threads: real sort parallelism
  testing::EngineHarness h{options};
  Rng rng(42);
  std::vector<int64_t> data(1 << 19);  // big enough that the local sorts dominate
  for (auto& x : data) {
    x = static_cast<int64_t>(rng.UniformInt(1u << 30));
  }
  auto base = Parallelize(&h.ctx(), data, 8);
  base.Cache();
  (void)base.Materialize();
  for (auto _ : state) {
    auto out = SortBy(base, [](const int64_t& x) { return x; },
                      static_cast<int>(state.range(0)))
                   .Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_SortBy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Reduce with the per-partition partial fold pushed down into the fused
// chain: the driver only folds one partial per partition.
void BM_Reduce(benchmark::State& state) {
  testing::EngineHarness h;
  std::vector<int64_t> data(static_cast<size_t>(state.range(0)));
  std::iota(data.begin(), data.end(), 0);
  auto base = Parallelize(&h.ctx(), data, 8);
  base.Cache();
  (void)base.Materialize();
  for (auto _ : state) {
    auto out = base.Map([](const int64_t& x) { return x * 2; })
                   .Reduce([](int64_t a, int64_t b) { return a + b; });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Reduce)->Arg(1 << 17)->UseRealTime();

void BM_ReduceByKey(benchmark::State& state) {
  testing::EngineHarness h;
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(state.range(0)));
  for (int64_t i = 0; i < state.range(0); ++i) {
    data.emplace_back(static_cast<int>(i % 97), 1);
  }
  auto base = Parallelize(&h.ctx(), data, 8);
  base.Cache();
  (void)base.Materialize();
  for (auto _ : state) {
    auto out = ReduceByKey(base, 4, [](int a, int b) { return a + b; }).Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceByKey)->Arg(1 << 14)->Arg(1 << 16)->UseRealTime();

// The wide-stage analogue of the narrow chain: a Map between the cached
// source and the shuffle streams its rows straight into the reduce-side
// buckets, and the map-side partition is never built.
void BM_ReduceByKeyFused(benchmark::State& state) {
  testing::EngineHarness h;
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(state.range(0)));
  for (int64_t i = 0; i < state.range(0); ++i) {
    data.emplace_back(static_cast<int>(i % 97), 1);
  }
  auto base = Parallelize(&h.ctx(), data, 8);
  base.Cache();
  (void)base.Materialize();
  for (auto _ : state) {
    auto mapped = base.Map([](const std::pair<int, int>& kv) {
      return std::make_pair(kv.first, kv.second * 2 + 1);
    });
    auto out = ReduceByKey(mapped, 4, [](int a, int b) { return a + b; }).Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceByKeyFused)->Arg(1 << 16)->UseRealTime();

// Grouping without a combiner: dominated by the plain bucket sort plus the
// reduce-side k-way walk over the sorted buckets (KeyRunWalker, through
// MergeGroupBuckets).
void BM_GroupByKey(benchmark::State& state) {
  testing::EngineHarness h;
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(state.range(0)));
  for (int64_t i = 0; i < state.range(0); ++i) {
    data.emplace_back(static_cast<int>((i * 7) % 512), static_cast<int>(i));
  }
  auto base = Parallelize(&h.ctx(), data, 8);
  base.Cache();
  (void)base.Materialize();
  for (auto _ : state) {
    auto out = GroupByKey(base, 4).Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByKey)->Arg(1 << 16)->UseRealTime();

// Two-sided shuffle with the reduce-side merge-join over key-sorted buckets.
// Items/s counts rows pushed through both shuffles.
void BM_Join(benchmark::State& state) {
  testing::EngineHarness h;
  const int64_t n = state.range(0);
  std::vector<std::pair<int, int>> left_rows, right_rows;
  left_rows.reserve(static_cast<size_t>(n));
  right_rows.reserve(static_cast<size_t>(n / 2));
  for (int64_t i = 0; i < n; ++i) {
    left_rows.emplace_back(static_cast<int>(i % 1024), static_cast<int>(i));
  }
  for (int64_t i = 0; i < n / 2; ++i) {
    right_rows.emplace_back(static_cast<int>((i * 3) % 1024), static_cast<int>(i));
  }
  auto left = Parallelize(&h.ctx(), left_rows, 6);
  auto right = Parallelize(&h.ctx(), right_rows, 4);
  left.Cache();
  right.Cache();
  (void)left.Materialize();
  (void)right.Materialize();
  for (auto _ : state) {
    auto out = Join(left, right, 4).Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * (n + n / 2));
}
BENCHMARK(BM_Join)->Arg(1 << 15)->UseRealTime();

// BM_Join's rows pre-aggregated by ReduceByKey(…, 4) on both sides, so the
// inputs are co-partitioned and the Join runs shuffle-free: partition j
// merge-joins partition j of each cached side. Items/s counts the
// aggregated rows the join reads.
void BM_JoinCopartitioned(benchmark::State& state) {
  testing::EngineHarness h;
  const int64_t n = state.range(0);
  std::vector<std::pair<int, int>> left_rows, right_rows;
  left_rows.reserve(static_cast<size_t>(n));
  right_rows.reserve(static_cast<size_t>(n / 2));
  for (int64_t i = 0; i < n; ++i) {
    left_rows.emplace_back(static_cast<int>(i % 1024), static_cast<int>(i));
  }
  for (int64_t i = 0; i < n / 2; ++i) {
    right_rows.emplace_back(static_cast<int>((i * 3) % 1024), static_cast<int>(i));
  }
  auto sum = [](int a, int b) { return a + b; };
  auto left = ReduceByKey(Parallelize(&h.ctx(), left_rows, 6), 4, sum);
  auto right = ReduceByKey(Parallelize(&h.ctx(), right_rows, 4), 4, sum);
  left.Cache();
  right.Cache();
  const uint64_t rows = left.Count().value_or(0) + right.Count().value_or(0);
  for (auto _ : state) {
    auto out = Join(left, right, 4).Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_JoinCopartitioned)->Arg(1 << 15)->UseRealTime();

// The TPC-H lineitem -> orders join shape: the left side holds 1 to 7 rows
// per key (an order's line items), the right side one (the order). Both are
// generated already key-partitioned into 4 and declared so (KeyPartitioned),
// so partition j merge-joins the key runs of partition j of each cached
// side. Items/s counts the rows the join reads.
void BM_JoinCopartitionedOneToMany(benchmark::State& state) {
  testing::EngineHarness h;
  const int keys = static_cast<int>(state.range(0));
  constexpr int kParts = 4;
  auto rows_of = [keys](int p, bool many) {
    std::vector<std::pair<int, int>> rows;
    for (int k = 0; k < keys; ++k) {
      if (KeyPartitionOf(k, kParts) != p) {
        continue;
      }
      for (int i = 0; i < (many ? k % 7 + 1 : 1); ++i) {
        rows.emplace_back(k, k * 8 + i);
      }
    }
    return rows;
  };
  auto left = KeyPartitioned(Generate(&h.ctx(), kParts, [=](int p) { return rows_of(p, true); }));
  auto right =
      KeyPartitioned(Generate(&h.ctx(), kParts, [=](int p) { return rows_of(p, false); }));
  left.Cache();
  right.Cache();
  const uint64_t rows = left.Count().value_or(0) + right.Count().value_or(0);
  for (auto _ : state) {
    auto out = Join(left, right, kParts).Count();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_JoinCopartitionedOneToMany)->Arg(1 << 13)->UseRealTime();

void BM_BlockManagerPutGet(benchmark::State& state) {
  BlockManagerConfig config;
  config.memory_budget_bytes = 64 * kMiB;
  BlockManager bm(config);
  std::vector<double> rows(4096);
  PartitionPtr part = MakePartition(rows);
  int i = 0;
  for (auto _ : state) {
    const BlockKey key{1, i++ % 512};
    bool stored = false;
    bm.Put(key, part, &stored);
    benchmark::DoNotOptimize(bm.Get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockManagerPutGet);

// Lock-striping contention: 4 threads hammer ONE shared hot key set (the
// cluster-cache pattern — every executor re-reads the same cached base
// partitions), so with 1 shard every access fights for the same mutex while
// 8 shards spread the hot keys across stripes. Per-thread stride offsets
// decorrelate the walk so threads are not in lockstep on a single key.
BlockManager* g_sharded_bm = nullptr;

void BM_BlockManagerPutGetSharded(benchmark::State& state) {
  constexpr int kHotKeys = 64;
  if (state.thread_index() == 0) {
    BlockManagerConfig config;
    config.memory_budget_bytes = 64 * kMiB;
    config.num_shards = static_cast<int>(state.range(0));
    g_sharded_bm = new BlockManager(config);
    // Pre-populate the hot set so the loop measures steady-state hits.
    std::vector<double> rows(4096);
    PartitionPtr part = MakePartition(rows);
    for (int k = 0; k < kHotKeys; ++k) {
      bool stored = false;
      g_sharded_bm->Put(BlockKey{2, k}, part, &stored);
    }
  }
  std::vector<double> rows(4096);
  PartitionPtr part = MakePartition(rows);
  int i = state.thread_index() * (kHotKeys / 4 + 1);
  for (auto _ : state) {
    const BlockKey key{2, i++ % kHotKeys};
    bool stored = false;
    g_sharded_bm->Put(key, part, &stored);
    benchmark::DoNotOptimize(g_sharded_bm->Get(key));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete g_sharded_bm;
    g_sharded_bm = nullptr;
  }
}
BENCHMARK(BM_BlockManagerPutGetSharded)->Arg(1)->Arg(8)->Threads(4)->UseRealTime();

void BM_BidStats(benchmark::State& state) {
  SyntheticTraceParams params;
  params.duration = Hours(24.0 * 30);
  PriceTrace trace = GenerateSyntheticTrace(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBidStats(trace, params.on_demand_price));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_BidStats);

void BM_ExpectedRuntimeFactor(benchmark::State& state) {
  double mttf = 1.0;
  for (auto _ : state) {
    mttf += 0.001;
    benchmark::DoNotOptimize(ExpectedRuntimeFactor(0.033, 0.033, mttf, 4));
  }
}
BENCHMARK(BM_ExpectedRuntimeFactor);

}  // namespace
}  // namespace flint

#ifndef FLINT_BENCH_BUILD_TYPE
#define FLINT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLINT_BENCH_COMPILER
#define FLINT_BENCH_COMPILER "unknown"
#endif

// BENCHMARK_MAIN plus the build context tools/bench_baseline.py records as
// the baseline's host (google-benchmark's own context gives num_cpus).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("flint_build_type", FLINT_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("flint_compiler", FLINT_BENCH_COMPILER);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
