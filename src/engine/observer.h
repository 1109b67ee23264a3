// Observation points the engine exposes to Flint's policy layers. The
// fault-tolerance manager (checkpoint/) and the node manager (select/, core/)
// subscribe here rather than being compiled into the engine.

#ifndef SRC_ENGINE_OBSERVER_H_
#define SRC_ENGINE_OBSERVER_H_

#include "src/cluster/cluster_manager.h"
#include "src/engine/rdd.h"

namespace flint {

// Precise execution points the engine exposes to a fault-injection probe
// (src/inject/). The probe is called synchronously on the thread reaching
// the point, so scripted faults (e.g. revoke every node) land exactly there
// and the engine observes the loss deterministically.
enum class EnginePoint {
  kSchedulerRound,            // top of every stage retry round
  kBeforeShuffleMapDispatch,  // shuffle stage: about to submit a round of map tasks
  kShuffleMapTaskRun,         // executor: a shuffle map task started
  kShuffleMapTaskDone,        // executor: a map output was registered
  kCheckpointWrite,           // a checkpoint write is about to reach the DFS
  kDfsPut,                    // storage: a Put is about to execute (via DfsFaultHook)
  kDfsGet,                    // storage: a Get is about to execute (via DfsFaultHook)
  kTaskRun,                   // executor: any task attempt started (via OnTaskRun)
  kShuffleFetch,              // reduce side: about to pull one producer's bucket
};
inline constexpr size_t kEnginePointCount = 9;

// Identity of one task attempt, handed to the probe as it starts executing.
struct TaskRunInfo {
  NodeId node = -1;
  int rdd_id = -1;     // result-stage tasks; -1 for shuffle map tasks
  int shuffle_id = -1; // shuffle map tasks; -1 for result-stage tasks
  int partition = -1;  // partition (result) or map partition (shuffle)
  int attempt = 0;     // 0 = first attempt, >0 = retry or speculative duplicate
};

// What the probe wants done to the attempt that just started. The engine
// enforces the directive cooperatively: a hang parks the attempt until its
// cancellation token fires, a slowdown stretches the attempt's compute time,
// and a failure aborts the attempt with the given status. All three model
// degraded-but-alive nodes (throttled I/O, contended cores, hung executors)
// as opposed to the binary revocation faults.
struct TaskFaultDirective {
  double slow_factor = 1.0;  // stretch compute by this factor (>= 1)
  bool hang = false;         // never complete; park until cancelled
  Status fail;               // when non-OK, fail the attempt with this status
};

// Identity of one shuffle-fetch pull: `node` is the consuming (reduce-side)
// node, `producer` the node whose map output is being pulled over its link.
struct ShuffleFetchInfo {
  NodeId node = -1;      // consumer running the reduce-side task
  NodeId producer = -1;  // node whose link the transfer is charged against
  int shuffle_id = -1;
  int reduce_part = -1;
  uint64_t bytes = 0;    // transfer size for this producer's bucket
};

// What the probe wants done to the fetch that is about to run. A slow link
// divides the producing node's modelled bandwidth, and a failure aborts the
// pull with the given status (forcing the retry/recompute fallback path).
struct FetchFaultDirective {
  double slow_factor = 1.0;  // divide the producer's link bandwidth (>= 1)
  Status fail;               // when non-OK, fail this pull with this status
};

// Implemented by the fault injector. May be called concurrently from the
// scheduler, executor, and checkpoint threads; must be thread-safe and must
// not call back into the engine context (cluster-level operations are fine).
class EngineProbe {
 public:
  virtual ~EngineProbe() = default;
  virtual void AtPoint(EnginePoint point) = 0;
  // Called as a task attempt starts; counts as a kTaskRun arrival for plan
  // triggers. The default directive is benign.
  virtual TaskFaultDirective OnTaskRun(const TaskRunInfo& info) {
    (void)info;
    return TaskFaultDirective{};
  }
  // Called as a reduce-side task pulls one producer's bucket; counts as a
  // kShuffleFetch arrival for plan triggers. The default directive is benign.
  virtual FetchFaultDirective OnShuffleFetch(const ShuffleFetchInfo& info) {
    (void)info;
    return FetchFaultDirective{};
  }
};

// All callbacks may fire on executor or timer threads; implementations must
// be thread-safe and quick.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void OnRddCreated(const RddPtr& rdd) { (void)rdd; }
  // Every partition of `rdd` has been computed at least once.
  virtual void OnRddMaterialized(const RddPtr& rdd) { (void)rdd; }
  // A checkpoint write for (rdd, partition) completed durably.
  virtual void OnCheckpointWritten(const RddPtr& rdd, int partition, uint64_t bytes) {
    (void)rdd;
    (void)partition;
    (void)bytes;
  }
  // A checkpoint write for (rdd, partition) exhausted its retry budget and
  // was abandoned. The fault-tolerance manager uses a run of these to enter
  // degraded mode instead of wedging on a dead store.
  virtual void OnCheckpointWriteFailed(const RddPtr& rdd, int partition, const Status& status) {
    (void)rdd;
    (void)partition;
    (void)status;
  }
  virtual void OnNodeAdded(const NodeInfo& node) { (void)node; }
  virtual void OnNodeWarning(const NodeInfo& node) { (void)node; }
  virtual void OnNodeRevoked(const NodeInfo& node) { (void)node; }

  // --- straggler telemetry (feeds the node-health scorer) ---
  // A task attempt on `node` was judged, once, by the speculation deadline
  // (SpeculationConfig::DeadlineSeconds of its stage's live P50):
  //   - a success is late (`on_time` false) when the stage's live P50 has
  //     reached quorum and the attempt took longer than that deadline, and
  //     on time otherwise;
  //   - an attempt that blows its deadline while running is late at the
  //     miss and is not judged again when it completes;
  //   - a budgeted failure is late.
  // Cancelled speculative losers and attempts that died with their node are
  // not judged. `seconds` is the attempt's service time (its run time so far
  // at a miss), excluding executor-queue wait.
  virtual void OnTaskJudged(NodeId node, double seconds, bool on_time) {
    (void)node;
    (void)seconds;
    (void)on_time;
  }
  // A shuffle pull over `node`'s link ran below full speed.
  // `throughput_ratio` is observed bytes/s over the link's modelled capacity
  // (in (0, 1]); `late` marks a pull that blew the fetch timeout or took more
  // than spec_multiplier times its full-speed time, the link's form of the
  // task deadline.
  virtual void OnLinkSample(NodeId node, double throughput_ratio, bool late) {
    (void)node;
    (void)throughput_ratio;
    (void)late;
  }

 protected:
  EngineObserver() = default;
};

}  // namespace flint

#endif  // SRC_ENGINE_OBSERVER_H_
