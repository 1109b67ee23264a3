// One latency model for every modelled wait (DESIGN.md "Latency model"). It
// turns bytes / bandwidth x slow factor into seconds (0 when the model is off
// or the bandwidth is unset), sleeps them on the calling thread, and charges
// them to one account per Layer. Injected faults wait even when the model is
// off: they are faults, not modelled I/O.

#ifndef SRC_COMMON_LATENCY_H_
#define SRC_COMMON_LATENCY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/common/status.h"

namespace flint {

enum class Layer {
  kOriginRead,    // source partition re-read from the origin store
  kCacheRemote,   // cached block read off another node
  kSpill,         // node-local spill write or read
  kDfsWrite,      // checkpoint-store write
  kDfsRead,       // checkpoint-store read
  kShuffleFetch,  // shuffle bucket pulled over the producer's link
  kInjectedSlow,  // injected slow-node stretch or hang
};
inline constexpr size_t kNumLayers = 7;
inline constexpr const char* kLayerNames[kNumLayers] = {
    "origin_read", "cache_remote", "spill", "dfs_write", "dfs_read", "shuffle_fetch",
    "injected_slow"};
inline const char* LayerName(Layer layer) { return kLayerNames[static_cast<size_t>(layer)]; }

// Polled every millisecond during a cancellable wait; true stops it.
using CancelCheck = std::function<bool()>;

// The one wait: sleeps `seconds`, or until `cancelled` fires (kUnavailable).
// *waited gets `seconds`, or the part before cancellation; the time really
// slept goes to the thread's ThreadWaitedSeconds, so a timed compute window
// can subtract it. Retry backoff calls it directly; modelled waits go
// through LatencyModel::Wait.
Status WaitSeconds(double seconds, const CancelCheck& cancelled = nullptr,
                   double* waited = nullptr);
double ThreadWaitedSeconds();

// Exponential backoff before retry `step` (0 = the first retry): `initial`,
// then times `multiplier` and clamped to `cap` once per step.
double BackoffSeconds(int step, double initial, double cap, double multiplier = 2.0);

class LatencyModel {
 public:
  explicit LatencyModel(bool enabled) : enabled_(enabled) {}
  // The Dfs and every BlockManager hold its address.
  LatencyModel(const LatencyModel&) = delete;
  LatencyModel& operator=(const LatencyModel&) = delete;

  double TransferSeconds(uint64_t bytes, double bytes_per_s, double slow_factor = 1.0) const;
  // Waits and charges `layer`; modelled layers wait nothing while off.
  Status Wait(Layer layer, double seconds, const CancelCheck& cancelled = nullptr);
  void Transfer(Layer layer, uint64_t bytes, double bytes_per_s, double slow_factor = 1.0);

  double Seconds(Layer layer) const;
  std::atomic<int64_t>& Account(Layer layer) { return nanos_[static_cast<size_t>(layer)]; }

 private:
  const bool enabled_;
  std::array<std::atomic<int64_t>, kNumLayers> nanos_{};
};

}  // namespace flint

#endif  // SRC_COMMON_LATENCY_H_
