// Metrics (DESIGN.md "Observability"). Every series is declared once, by the
// object that counts it, in that object's MetricSet: by literal name, next to
// the storage it counts. A counter is a plain relaxed atomic the owner bumps
// on its hot path; a value computed when read (a cost, a health minimum, the
// live delta/tau estimate) is a gauge function; histograms live in the set
// too.
//
// The registry keeps only the list of live sets. Snapshot() reads every set
// and sums same-named series across them, so two live clusters export each
// series once, and a series leaves the export with its owner — nothing one
// cluster counts survives into the next. FormatPrometheusText() renders the
// Prometheus text exposition format for scraping or file export.
//
// Naming convention: flint_<subsystem>_<what>[_<unit>], e.g.
// flint_engine_tasks_run, flint_ft_delta_seconds, flint_block_hits.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace flint {

// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds; an
// implicit +inf bucket catches the rest. Observe takes no lock: relaxed
// atomic adds, and a CAS loop for the sum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  // counts() has bounds().size() + 1 entries (last = overflow bucket).
  std::vector<uint64_t> Counts() const;
  uint64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  // Bounds first, 2*first, 4*first, ... while below `limit` (first > 0).
  static std::vector<double> DoublingBounds(double first, double limit);
  // Exponential default buckets for second-valued latencies: 1ms .. ~65s.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
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
  std::vector<MetricSample> samples;  // sorted by name, one per name
  std::vector<HistogramSnapshot> histograms;

  bool Has(const std::string& name) const;
  double Value(const std::string& name, double missing = 0.0) const;
  std::string FormatPrometheusText() const;
};

class MetricSet;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // The process-wide list every MetricSet joins by default.
  static MetricsRegistry& Global();

  // Every live set's series; same-named series are summed (histograms
  // bucket by bucket, so same-named histograms must share their bounds).
  MetricsSnapshot Snapshot() const;
  std::string FormatPrometheusText() const { return Snapshot().FormatPrometheusText(); }

 private:
  friend class MetricSet;

  mutable Mutex mutex_{"MetricsRegistry::mutex_"};
  std::vector<const MetricSet*> sets_ GUARDED_BY(mutex_);
};

// One owner's series. Joining the registry takes its lock once; destroying
// the set takes them out of every later snapshot. Declare the set after the
// state its gauges read (so it leaves the registry before that state dies)
// and before the members that hold references to its cells.
//
// Declaring takes no lock: declare from one thread at a time (owners declare
// in their constructors) while snapshots read concurrently. A series and its
// cell are published by one release store, and never move.
class MetricSet {
 public:
  explicit MetricSet(MetricsRegistry& registry = MetricsRegistry::Global());
  ~MetricSet();

  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  // Every `name` must be a string literal: the set keeps the pointer.
  std::atomic<uint64_t>& AddCounter(const char* name);
  // A duration in nanoseconds, exported as a counter in seconds.
  std::atomic<int64_t>& AddNanos(const char* name);
  // The same for an account kept elsewhere that outlives the set (the
  // latency model's); returns the account.
  std::atomic<int64_t>& AddNanos(const char* name, std::atomic<int64_t>& account);
  // A value computed when read. `read` runs under the registry lock, so it
  // may take its owner's locks but must not take one that is held while a
  // MetricSet is built or destroyed.
  void AddGauge(const char* name, std::function<double()> read);
  Histogram& AddHistogram(const char* name, std::vector<double> bounds);

  // This set's own value of a counter or gauge (0 if undeclared).
  double Value(std::string_view name) const;

 private:
  friend class MetricsRegistry;

  enum class Kind : uint8_t { kCounter, kNanos, kGauge, kHistogram };
  // Fields stay uninitialized until the slot is declared, so a block's
  // unused slots are never touched. A gauge's function is destroyed with the
  // set.
  struct Series {
    Series() {}
    ~Series() {}
    const char* name;
    Kind kind;
    union {
      std::atomic<uint64_t> count;  // kCounter
      std::atomic<int64_t> nanos;   // kNanos declared without an account
    };
    union {
      const std::atomic<int64_t>* account;  // kNanos: `nanos` or one kept elsewhere
      std::function<double()> read;         // kGauge
      const Histogram* hist;                // kHistogram
    };
  };
  // Series live in fixed-size blocks, so declaring one never moves another.
  static constexpr size_t kBlockSize = 16;
  struct Block {
    std::array<Series, kBlockSize> series;
    std::unique_ptr<Block> next;
  };

  // The next unpublished slot (declaring thread only), and its publication.
  Series& Next(const char* name, Kind kind);
  void Publish();
  // Calls f on every published series, in declaration order.
  template <typename F>
  void ForEach(F f) const;
  static double Read(const Series& s);
  void AppendTo(MetricsSnapshot& snap) const;

  MetricsRegistry& registry_;
  Block head_;
  Block* tail_ = &head_;              // declaring thread only
  size_t declared_ = 0;               // declaring thread only
  std::atomic<size_t> published_{0};  // series snapshots may read
  std::vector<std::unique_ptr<Histogram>> histograms_;  // declaring thread only
};

}  // namespace flint

#endif  // SRC_OBS_METRICS_H_
