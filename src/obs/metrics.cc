#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace flint {

namespace obs_internal {

size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe = next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

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
}  // namespace obs_internal

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  for (Stripe& s : stripes_) {
    s.buckets = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::Observe(double value) {
  Stripe& s = stripes_[obs_internal::ThreadStripe() % kStripes];
  const size_t bucket =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  s.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  obs_internal::AtomicAddDouble(s.sum, value);
}

std::vector<uint64_t> Histogram::Counts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1, 0);
  for (const Stripe& s : stripes_) {
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Stripe& s : stripes_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Reset() {
  for (Stripe& s : stripes_) {
    for (std::atomic<uint64_t>& b : s.buckets) {
      b.store(0, std::memory_order_relaxed);
    }
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
  }
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
    out += obs_internal::FormatValue(s.value);
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
      out += i < h.bounds.size() ? obs_internal::FormatValue(h.bounds[i]) : "+Inf";
      out += "\"} ";
      out += obs_internal::FormatValue(static_cast<double>(cumulative));
      out += '\n';
    }
    out += h.name;
    out += "_sum ";
    out += obs_internal::FormatValue(h.sum);
    out += '\n';
    out += h.name;
    out += "_count ";
    out += obs_internal::FormatValue(static_cast<double>(h.total_count));
    out += '\n';
  }
  return out;
}

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(&mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

uint64_t MetricsRegistry::RegisterCollector(CollectorFn fn) {
  MutexLock lock(&mutex_);
  const uint64_t id = next_collector_id_++;
  collectors_[id] = std::move(fn);
  return id;
}

void MetricsRegistry::UnregisterCollector(uint64_t id) {
  MutexLock lock(&mutex_);
  collectors_.erase(id);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::vector<CollectorFn> collectors;
  {
    MutexLock lock(&mutex_);
    for (const auto& [name, counter] : counters_) {
      snap.samples.push_back({name, MetricType::kCounter,
                              static_cast<double>(counter->Value())});
    }
    for (const auto& [name, gauge] : gauges_) {
      snap.samples.push_back({name, MetricType::kGauge, gauge->Value()});
    }
    for (const auto& [name, histogram] : histograms_) {
      HistogramSnapshot h;
      h.name = name;
      h.bounds = histogram->bounds();
      h.counts = histogram->Counts();
      h.total_count = histogram->TotalCount();
      h.sum = histogram->Sum();
      snap.histograms.push_back(std::move(h));
    }
    collectors.reserve(collectors_.size());
    for (const auto& [id, fn] : collectors_) {
      collectors.push_back(fn);
    }
  }
  // Collectors run without the registry lock so they can take their own
  // subsystem locks (and call GetCounter) without ordering constraints.
  for (const CollectorFn& fn : collectors) {
    fn(snap.samples);
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(&mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace flint
