#include "src/common/latency.h"

#include <algorithm>
#include <thread>

#include "src/common/units.h"

namespace flint {

namespace {
thread_local double t_waited_seconds = 0.0;

// The last stretch of every wait yields instead of sleeping. A sleep ends
// late by the kernel's timer slack plus the wake-up latency of an idle CPU,
// tens of microseconds on an idle host and more on a busy one, while most
// modelled transfers are shorter than that: sleeping them would stretch
// each by an amount the host, not the model, decides.
constexpr double kYieldSeconds = 200e-6;
}  // namespace

Status WaitSeconds(double seconds, const CancelCheck& cancelled, double* waited) {
  double done = seconds > 0.0 ? seconds : 0.0;
  Status status = Status::Ok();
  const WallTime t0 = WallClock::now();
  double elapsed = 0.0;
  while (elapsed < done) {
    if (cancelled != nullptr && cancelled()) {
      done = elapsed;
      status = Unavailable("wait cancelled");
      break;
    }
    // Uncancellable waits sleep once; cancellable ones poll every millisecond.
    const double rest = done - elapsed;
    if (rest <= kYieldSeconds) {
      std::this_thread::yield();
    } else {
      const double sleep = rest - kYieldSeconds;
      std::this_thread::sleep_for(
          WallDuration(cancelled == nullptr ? sleep : std::min(1e-3, sleep)));
    }
    elapsed = WallDuration(WallClock::now() - t0).count();
  }
  // The thread total takes the time really slept (oversleep included), so a
  // compute window minus it leaves compute only.
  t_waited_seconds += elapsed;
  if (waited != nullptr) {
    *waited = done;
  }
  return status;
}

double ThreadWaitedSeconds() { return t_waited_seconds; }

double BackoffSeconds(int step, double initial, double cap, double multiplier) {
  double seconds = initial;
  for (int i = 0; i < step; ++i) {
    seconds = std::min(seconds * multiplier, cap);
  }
  return seconds;
}

double LatencyModel::TransferSeconds(uint64_t bytes, double bytes_per_s,
                                     double slow_factor) const {
  return enabled_ && bytes_per_s > 0.0 ? slow_factor * static_cast<double>(bytes) / bytes_per_s
                                       : 0.0;
}

Status LatencyModel::Wait(Layer layer, double seconds, const CancelCheck& cancelled) {
  if (!enabled_ && layer != Layer::kInjectedSlow) {
    return Status::Ok();
  }
  double waited = 0.0;
  Status status = WaitSeconds(seconds, cancelled, &waited);
  Account(layer).fetch_add(static_cast<int64_t>(waited * 1e9), std::memory_order_relaxed);
  return status;
}

void LatencyModel::Transfer(Layer layer, uint64_t bytes, double bytes_per_s,
                            double slow_factor) {
  // Without a cancel check the wait always completes and returns OK.
  (void)Wait(layer, TransferSeconds(bytes, bytes_per_s, slow_factor));
}

double LatencyModel::Seconds(Layer layer) const {
  return static_cast<double>(nanos_[static_cast<size_t>(layer)].load()) * 1e-9;
}

}  // namespace flint
