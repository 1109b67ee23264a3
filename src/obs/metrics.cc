#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

namespace flint {

namespace {

// Prometheus sample values: integers render without a fractional part so
// counters stay exact; everything else uses shortest-round-trip-ish %g.
std::string FormatValue(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else if (std::isinf(v)) {
    return v > 0 ? "+Inf" : "-Inf";
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1)) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double value) {
  const size_t bucket =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value, std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::Counts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<double> Histogram::DoublingBounds(double first, double limit) {
  std::vector<double> bounds;
  for (double b = first; b < limit; b *= 2.0) {
    bounds.push_back(b);
  }
  return bounds;
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  // 1ms doubling up through ~65s: covers model-time checkpoint writes and
  // wall-time DFS retries alike.
  return DoublingBounds(0.001, 100.0);
}

bool MetricsSnapshot::Has(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) {
      return true;
    }
  }
  return false;
}

double MetricsSnapshot::Value(const std::string& name, double missing) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) {
      return s.value;
    }
  }
  return missing;
}

std::string MetricsSnapshot::FormatPrometheusText() const {
  std::string out;
  out.reserve(samples.size() * 48);
  for (const MetricSample& s : samples) {
    out += "# TYPE ";
    out += s.name;
    out += s.type == MetricType::kCounter ? " counter\n" : " gauge\n";
    out += s.name;
    out += ' ';
    out += FormatValue(s.value);
    out += '\n';
  }
  for (const HistogramSnapshot& h : histograms) {
    out += "# TYPE ";
    out += h.name;
    out += " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out += h.name;
      out += "_bucket{le=\"";
      out += i < h.bounds.size() ? FormatValue(h.bounds[i]) : "+Inf";
      out += "\"} ";
      out += FormatValue(static_cast<double>(cumulative));
      out += '\n';
    }
    out += h.name;
    out += "_sum ";
    out += FormatValue(h.sum);
    out += '\n';
    out += h.name;
    out += "_count ";
    out += FormatValue(static_cast<double>(h.total_count));
    out += '\n';
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

// Sorts by name, then folds each run of same-named entries into its first.
template <typename T, typename Fold>
void SortAndMerge(std::vector<T>& v, Fold fold) {
  std::stable_sort(v.begin(), v.end(), [](const T& a, const T& b) { return a.name < b.name; });
  size_t out = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (out > 0 && v[out - 1].name == v[i].name) {
      fold(v[out - 1], v[i]);
    } else {
      if (out != i) {
        v[out] = std::move(v[i]);
      }
      ++out;
    }
  }
  v.resize(out);
}

}  // namespace

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    MutexLock lock(&mutex_);
    for (const MetricSet* set : sets_) {
      set->AppendTo(snap);
    }
  }
  SortAndMerge(snap.samples,
               [](MetricSample& into, const MetricSample& s) { into.value += s.value; });
  SortAndMerge(snap.histograms, [](HistogramSnapshot& into, const HistogramSnapshot& h) {
    for (size_t i = 0; i < into.counts.size() && i < h.counts.size(); ++i) {
      into.counts[i] += h.counts[i];
    }
    into.total_count += h.total_count;
    into.sum += h.sum;
  });
  return snap;
}

MetricSet::MetricSet(MetricsRegistry& registry) : registry_(registry) {
  MutexLock lock(&registry_.mutex_);
  registry_.sets_.push_back(this);
}

MetricSet::~MetricSet() {
  {
    MutexLock lock(&registry_.mutex_);
    std::erase(registry_.sets_, this);
  }
  Block* block = &head_;
  for (size_t i = 0; i < declared_; ++i) {
    if (i > 0 && i % kBlockSize == 0) {
      block = block->next.get();
    }
    Series& s = block->series[i % kBlockSize];
    if (s.kind == Kind::kGauge) {
      std::destroy_at(&s.read);
    }
  }
}

MetricSet::Series& MetricSet::Next(const char* name, Kind kind) {
  if (declared_ > 0 && declared_ % kBlockSize == 0) {
    tail_->next = std::make_unique_for_overwrite<Block>();
    tail_ = tail_->next.get();
  }
  Series& s = tail_->series[declared_ % kBlockSize];
  s.name = name;
  s.kind = kind;
  return s;
}

void MetricSet::Publish() {
  // Orders the slot's fields and any new block before readers see them.
  published_.store(++declared_, std::memory_order_release);
}

template <typename F>
void MetricSet::ForEach(F f) const {
  const size_t n = published_.load(std::memory_order_acquire);
  const Block* block = &head_;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && i % kBlockSize == 0) {
      block = block->next.get();
    }
    f(block->series[i % kBlockSize]);
  }
}

std::atomic<uint64_t>& MetricSet::AddCounter(const char* name) {
  Series& s = Next(name, Kind::kCounter);
  std::construct_at(&s.count, 0);
  Publish();
  return s.count;
}

std::atomic<int64_t>& MetricSet::AddNanos(const char* name) {
  Series& s = Next(name, Kind::kNanos);
  s.account = std::construct_at(&s.nanos, 0);
  Publish();
  return s.nanos;
}

std::atomic<int64_t>& MetricSet::AddNanos(const char* name, std::atomic<int64_t>& account) {
  Series& s = Next(name, Kind::kNanos);
  s.account = &account;
  Publish();
  return account;
}

void MetricSet::AddGauge(const char* name, std::function<double()> read) {
  Series& s = Next(name, Kind::kGauge);
  std::construct_at(&s.read, std::move(read));
  Publish();
}

Histogram& MetricSet::AddHistogram(const char* name, std::vector<double> bounds) {
  Series& s = Next(name, Kind::kHistogram);
  Histogram& hist = *histograms_.emplace_back(std::make_unique<Histogram>(std::move(bounds)));
  s.hist = &hist;
  Publish();
  return hist;
}

double MetricSet::Read(const Series& s) {
  switch (s.kind) {
    case Kind::kCounter:
      return static_cast<double>(s.count.load(std::memory_order_relaxed));
    case Kind::kNanos:
      return static_cast<double>(s.account->load(std::memory_order_relaxed)) * 1e-9;
    case Kind::kGauge:
      return s.read();
    case Kind::kHistogram:
      break;
  }
  return 0.0;
}

double MetricSet::Value(std::string_view name) const {
  double value = 0.0;
  ForEach([&](const Series& s) {
    if (name == s.name && s.kind != Kind::kHistogram) {
      value += Read(s);
    }
  });
  return value;
}

void MetricSet::AppendTo(MetricsSnapshot& snap) const {
  ForEach([&snap](const Series& s) {
    if (s.kind == Kind::kHistogram) {
      snap.histograms.push_back(
          {s.name, s.hist->bounds(), s.hist->Counts(), s.hist->TotalCount(), s.hist->Sum()});
    } else {
      snap.samples.push_back(
          {s.name, s.kind == Kind::kGauge ? MetricType::kGauge : MetricType::kCounter, Read(s)});
    }
  });
}

}  // namespace flint
