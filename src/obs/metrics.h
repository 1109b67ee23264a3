// Process-wide metrics registry (ISSUE 6): one namespace for every counter
// Flint maintains, replacing the per-subsystem silos (EngineCounters,
// FaultToleranceManager::Stats, DFS retry counts, fusion counters,
// BlockManager shard accounting, NodeManager lease history, MutexStats).
//
// Two kinds of instruments coexist:
//
//   - Native instruments (Counter / Gauge / Histogram) created on demand by
//     name. Counters and histograms stripe their cells across cache-line-
//     padded atomics so concurrent writers on different threads do not
//     false-share; reads sum the stripes. These are for *new* metrics
//     (shuffle_reregistered, dfs retry counts, selector sanitization, ...).
//
//   - Collectors: callbacks that adapt an existing subsystem's own counters
//     into the registry namespace at Snapshot() time. Subsystems keep their
//     hot-path atomics exactly as they are (EngineCounters stays an array of
//     relaxed atomics); the collector only runs when somebody asks for a
//     snapshot. Register with a ScopedCollector member so the callback is
//     unhooked before the subsystem dies.
//
// Snapshot() merges both into a sorted sample list; FormatPrometheusText()
// renders the Prometheus text exposition format for scraping or file export.
//
// Naming convention: flint_<subsystem>_<what>[_<unit>], e.g.
// flint_engine_tasks_run, flint_ft_delta_seconds, flint_block_cache_hits.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace flint {

namespace obs_internal {
// Stable small per-thread index used to pick a stripe. Threads are assigned
// round-robin on first use; the modulo by the stripe count spreads them.
size_t ThreadStripe();

// Portable atomic double accumulation (CAS loop; std::atomic<double>::
// fetch_add is C++20 but not universally lock-free on older toolchains).
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}
}  // namespace obs_internal

// Monotonic counter. Increment is wait-free: one relaxed fetch_add on the
// calling thread's stripe.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    cells_[obs_internal::ThreadStripe() % kStripes].value.fetch_add(n,
                                                                    std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Cell& c : cells_) {
      c.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kStripes> cells_{};
};

// Last-write-wins scalar (plus Add for accumulating doubles).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { obs_internal::AtomicAddDouble(value_, delta); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds; an
// implicit +inf bucket catches the rest. Observe is wait-free on the calling
// thread's stripe.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  // counts() has bounds().size() + 1 entries (last = overflow bucket).
  std::vector<uint64_t> Counts() const;
  uint64_t TotalCount() const;
  double Sum() const;
  void Reset();

  // Bounds first, 2*first, 4*first, ... while below `limit` (first > 0).
  static std::vector<double> DoublingBounds(double first, double limit);
  // Exponential default buckets for second-valued latencies: 1ms .. ~65s.
  static std::vector<double> DefaultLatencyBounds();

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Stripe {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Stripe, kStripes> stripes_;
};

enum class MetricType { kCounter, kGauge };

struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries
  uint64_t total_count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // sorted by name
  std::vector<HistogramSnapshot> histograms;

  bool Has(const std::string& name) const;
  double Value(const std::string& name, double missing = 0.0) const;
  std::string FormatPrometheusText() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  // The process-wide registry every subsystem reports into.
  static MetricsRegistry& Global();

  // Creates or fetches the named instrument. Returned pointers stay valid for
  // the registry's lifetime (ResetForTest zeroes values, never frees). A name
  // registered as one kind must not be reused as another.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `bounds` applies only on first creation.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  // Snapshot-time adapters for pre-existing subsystem counters. The callback
  // appends fully-named samples; it runs without the registry lock held, so
  // it may take its subsystem's own locks freely.
  using CollectorFn = std::function<void(std::vector<MetricSample>&)>;
  uint64_t RegisterCollector(CollectorFn fn);
  void UnregisterCollector(uint64_t id);

  MetricsSnapshot Snapshot() const;
  std::string FormatPrometheusText() const { return Snapshot().FormatPrometheusText(); }

  // Zeroes every native instrument (pointers stay valid) and leaves
  // collectors untouched; for test isolation.
  void ResetForTest();

 private:
  mutable Mutex mutex_{"MetricsRegistry::mutex_"};
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mutex_);
  std::unordered_map<uint64_t, CollectorFn> collectors_ GUARDED_BY(mutex_);
  uint64_t next_collector_id_ GUARDED_BY(mutex_) = 1;
};

// RAII collector registration: unhooks in the destructor, so a subsystem can
// hold one as its last member and never leave a dangling callback behind.
class ScopedCollector {
 public:
  ScopedCollector() = default;
  ScopedCollector(MetricsRegistry* registry, MetricsRegistry::CollectorFn fn)
      : registry_(registry), id_(registry->RegisterCollector(std::move(fn))) {}
  ~ScopedCollector() { Release(); }

  ScopedCollector(ScopedCollector&& other) noexcept
      : registry_(other.registry_), id_(other.id_) {
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  ScopedCollector& operator=(ScopedCollector&& other) noexcept {
    if (this != &other) {
      Release();
      registry_ = other.registry_;
      id_ = other.id_;
      other.registry_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

 private:
  void Release() {
    if (registry_ != nullptr) {
      registry_->UnregisterCollector(id_);
      registry_ = nullptr;
    }
  }
  MetricsRegistry* registry_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace flint

#endif  // SRC_OBS_METRICS_H_
