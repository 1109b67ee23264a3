// TaskContext: the per-task handle through which RDD computations fetch their
// inputs. It implements the full materialization order Spark uses: cluster
// cache, then saved checkpoint, then recursive recomputation from lineage.

#ifndef SRC_ENGINE_TASK_CONTEXT_H_
#define SRC_ENGINE_TASK_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>

#include "src/common/status.h"
#include "src/engine/context.h"
#include "src/engine/rdd.h"

namespace flint {

// Attempt-scoped cancellation flag. The scheduler hands one to every task
// attempt it launches; cancelling the token (losing speculative duplicate,
// watchdog abort) asks the attempt to stop at its next Cancelled() poll.
using CancelToken = std::shared_ptr<std::atomic<bool>>;

inline CancelToken MakeCancelToken() { return std::make_shared<std::atomic<bool>>(false); }

class TaskContext {
 public:
  TaskContext(FlintContext* ctx, std::shared_ptr<NodeState> node,
              CancelToken cancel = nullptr)
      : ctx_(ctx), node_(std::move(node)), cancel_(std::move(cancel)) {}

  // Materializes (rdd, partition): cache -> checkpoint -> recursive compute.
  // On success the partition is cached if the RDD requests caching, and an
  // asynchronous checkpoint write is enqueued if the RDD is marked.
  Result<PartitionPtr> GetPartition(const RddPtr& rdd, int partition);

  // Gathers all map-output buckets of `shuffle_id` for `reduce_part`,
  // charging each remote bucket's transfer time against the PRODUCING node's
  // link (bytes / (capacity / injected slow_factor)) when latency modelling
  // is on. A pull whose modelled transfer would blow the fetch timeout
  // (derived from the stage's P2 quantiles, see EngineConfig) is abandoned,
  // classified link-slow (feeding the producer's health EWMA), and retried
  // with exponential backoff; an exhausted retry budget drops the slow
  // producer's outputs and returns kDataLoss so the scheduler recomputes
  // them on a healthy node. On kDataLoss, failed_shuffle() reports which
  // shuffle must be re-run.
  Result<std::vector<PartitionPtr>> FetchShuffle(int shuffle_id, int reduce_part);

  // Runs the map side of one shuffle task: produces the reduce-side buckets
  // of (map_rdd, partition) through `info`'s bucket sink, as a chain run
  // with the bucket sink as its terminal. When the map RDD is a streaming
  // operator nothing else needs (uncached, unmarked, sole consumer is the
  // shuffle), the chain above it streams directly into the sink and the
  // map-side partition is never built; otherwise the map partition is the
  // barrier and its rows are driven into the same sink.
  Result<std::vector<PartitionPtr>> ComputeShuffleBuckets(const RddPtr& map_rdd, int partition,
                                                          const ShuffleInfo& info);

  // One chain run: the RDD partitions it streamed through without building
  // them, and the compute seconds of the drive (barrier excluded).
  struct ChainRun {
    size_t elided = 0;
    double seconds = 0.0;
  };
  // Builds the chain's terminal sink from the barrier's row count and
  // whether every operator in the chain keeps the row count.
  using TerminalFn = std::function<FusionSink&(size_t barrier_rows, bool rows_kept)>;

  // The one chain runner. `head` is the streaming operator whose output the
  // terminal collects (null for a shuffle map side), `below` the RDD under
  // it. The chain extends down through `below` while it is a streaming
  // operator over one narrow parent whose output nothing else needs
  // (uncached, unmarked, at most one live consumer); the first RDD that is
  // not is the barrier, materialized through GetPartition. The runner then
  // builds the terminal, stacks every operator's sink on it and drives the
  // barrier rows through the stack with one Flush. An operator whose
  // status() is then non-OK fails the run with that status.
  Result<ChainRun> RunChain(const FusionOps* head, const RddPtr& below, int partition,
                            const TerminalFn& make_terminal);

  // True once this task's node has been revoked or its attempt cancelled
  // (speculative loser, watchdog abort); computations poll this at partition
  // boundaries and abort with kUnavailable.
  bool Cancelled() const {
    return node_->revoked.load(std::memory_order_acquire) ||
           (cancel_ != nullptr && cancel_->load(std::memory_order_acquire));
  }

  // True for an attempt the scheduler launched (it holds a cancel token);
  // false for a background reader such as a checkpoint writer, whose reads
  // never move a cached block.
  bool scheduled() const { return cancel_ != nullptr; }

  FlintContext& context() { return *ctx_; }
  NodeId node_id() const { return node_->info.node_id; }
  const std::shared_ptr<NodeState>& node() const { return node_; }
  int failed_shuffle() const { return failed_shuffle_; }

 private:
  FlintContext* ctx_;
  std::shared_ptr<NodeState> node_;
  CancelToken cancel_;
  int failed_shuffle_ = -1;

  // Per-fetch timeout in seconds: max(fetch_timeout_min_seconds,
  // fetch_timeout_multiplier x stage P95). 0 = no timeout (quantiles not
  // armed yet, or timeouts disabled).
  double FetchTimeoutSeconds() const;

  // Charges one remote bucket transfer against `producer`'s link. Returns
  // kDeadlineExceeded when the modelled transfer blows `timeout_seconds`
  // (after waiting out the timeout), kUnavailable when cancelled
  // mid-transfer, OK otherwise.
  Status ChargeLinkTransfer(NodeId producer, uint64_t bytes, double slow_factor,
                            double timeout_seconds, int shuffle_id, int reduce_part);
};

}  // namespace flint

#endif  // SRC_ENGINE_TASK_CONTEXT_H_
