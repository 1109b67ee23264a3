#include "src/engine/task_context.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/log.h"
#include "src/engine/fusion.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

// flint-lint: allow-file(det-wallclock) compute timing feeds metrics and the health scorer, never partition contents

namespace flint {

namespace {

// True if `rdd` can be elided as an intermediate of a fused chain: a
// streaming operator over exactly one narrow parent whose output nothing
// else needs — not cached, not checkpoint-marked, and no other live
// consumer. (A cached/marked/shared intermediate must be materialized on its
// own so the cache, the checkpoint writer, or the other consumer sees it.)
bool FusableIntermediate(const RddPtr& rdd) {
  return rdd->fusion_ops() != nullptr && rdd->deps().size() == 1 &&
         rdd->deps()[0].type == DepType::kNarrowOneToOne && rdd->deps()[0].parent != nullptr &&
         !rdd->should_cache() && rdd->checkpoint_state() == CheckpointState::kNone &&
         rdd->consumer_count() <= 1;
}

// Compute seconds this thread has reported. A compute window subtracts what
// the windows nested in it reported (a narrow RDD computing its uncached
// parent), so each second counts once, in the innermost window.
thread_local double t_computed_seconds = 0.0;

// Wall seconds since `t0` minus the latency waits (origin and remote cache
// reads, spill, shuffle fetch) the thread made since `waited0` and the
// nested compute reported since `computed0`: this window's compute only.
double ComputeSeconds(WallTime t0, double waited0, double computed0) {
  return WallDuration(WallClock::now() - t0).count() - (ThreadWaitedSeconds() - waited0) -
         (t_computed_seconds - computed0);
}

void ReportComputed(FlintContext* ctx, const RddPtr& rdd, int partition, double seconds) {
  t_computed_seconds += seconds;
  ctx->NotifyPartitionComputed(rdd, partition, seconds);
}

// UnpersistRdd turns should_cache() off before it erases the RDD's blocks,
// so a block stored (or moved by a remote read) after the erase finds the
// flag off here and is erased again: no block outlives an unpersist.
void EraseIfUnpersisted(FlintContext* ctx, const RddPtr& rdd) {
  if (!rdd->should_cache()) {
    ctx->UnpersistRdd(rdd);
  }
}

void StoreIfCached(FlintContext* ctx, const RddPtr& rdd, const BlockKey& key, NodeId node,
                   const PartitionPtr& data) {
  if (rdd->should_cache()) {
    ctx->StoreBlock(key, node, data);
    EraseIfUnpersisted(ctx, rdd);
  }
}

}  // namespace

Result<PartitionPtr> TaskContext::GetPartition(const RddPtr& rdd, int partition) {
  if (Cancelled()) {
    return Unavailable("node revoked");
  }
  if (partition < 0 || partition >= rdd->num_partitions()) {
    return InvalidArgument("partition " + std::to_string(partition) + " out of range for rdd " +
                           rdd->name());
  }
  EngineCounters& counters = ctx_->counters();

  // 1. Cluster cache, for an RDD that asks to be cached: blocks are stored
  // only while should_cache() holds, so no other RDD has one to find, and
  // only these lookups count as hits or misses. A scheduled task's remote
  // read takes the block, so the next task on this partition finds it here.
  const BlockKey key{rdd->id(), partition};
  if (rdd->should_cache()) {
    if (PartitionPtr cached = ctx_->LookupBlock(key, node_id(), /*take=*/scheduled());
        cached != nullptr) {
      counters.cache_hits.fetch_add(1, std::memory_order_relaxed);
      EraseIfUnpersisted(ctx_, rdd);
      return cached;
    }
    counters.cache_misses.fetch_add(1, std::memory_order_relaxed);
  }

  // 2. Saved checkpoint in the DFS. The restore is verified (manifest +
  // per-partition checksum); a missing or corrupt checkpoint demotes the RDD
  // back to kNone inside RestoreFromCheckpoint and we fall through to
  // lineage recomputation below.
  if (rdd->checkpoint_state() == CheckpointState::kSaved) {
    auto restored = ctx_->RestoreFromCheckpoint(rdd, partition);
    if (restored.ok()) {
      PartitionPtr data = std::move(restored).value();
      StoreIfCached(ctx_, rdd, key, node_id(), data);
      return data;
    }
  }

  // 3. Recompute from lineage. A streaming operator's Compute runs its
  // chain (RunChain), so this one call covers the fused case too.
  const auto t0 = WallClock::now();
  const double waited0 = ThreadWaitedSeconds();
  const double computed0 = t_computed_seconds;
  Result<PartitionPtr> computed = rdd->Compute(partition, *this);
  if (!computed.ok()) {
    return computed.status();
  }
  const double seconds = ComputeSeconds(t0, waited0, computed0);
  if (Cancelled()) {
    return Unavailable("node revoked during compute");
  }
  ReportComputed(ctx_, rdd, partition, seconds);

  PartitionPtr data = std::move(computed).value();
  StoreIfCached(ctx_, rdd, key, node_id(), data);
  if (rdd->checkpoint_state() == CheckpointState::kMarked &&
      !ctx_->dfs().Exists(rdd->CheckpointPath(partition))) {
    // Partition-level checkpoint write at task completion (paper Sec 4). The
    // paper spawns an asynchronous checkpoint task; since those tasks
    // "consume CPU and I/O resources that proportionally degrade the
    // performance of other tasks", we charge the DFS transfer inline, which
    // models the same resource consumption deterministically.
    (void)ctx_->WriteCheckpointData(rdd, partition, data);
  }
  return data;
}

Result<TaskContext::ChainRun> TaskContext::RunChain(const FusionOps* head, const RddPtr& below,
                                                    int partition,
                                                    const TerminalFn& make_terminal) {
  // Operators top first: the head (whose output the terminal collects, so
  // it is built), then every intermediate below it that nothing else needs.
  // The first RDD that is not such an intermediate is the barrier.
  std::vector<const FusionOps*> ops;
  if (head != nullptr) {
    ops.push_back(head);
  }
  RddPtr barrier = below;
  while (FusableIntermediate(barrier)) {
    ops.push_back(barrier->fusion_ops());
    barrier = barrier->deps()[0].parent;
  }
  // Materialize the barrier through the regular path (cluster cache,
  // checkpoint restore, recursive lineage — possibly another chain below
  // the barrier).
  FLINT_ASSIGN_OR_RETURN(PartitionPtr input, GetPartition(barrier, partition));

  // Sinks compose top-down: the head's adapter feeds the terminal, each
  // deeper operator's adapter feeds the one above, and the barrier rows are
  // driven into the bottom of the stack (one Flush sweep).
  const auto t0 = WallClock::now();
  const double waited0 = ThreadWaitedSeconds();
  const double computed0 = t_computed_seconds;
  const bool rows_kept =
      std::all_of(ops.begin(), ops.end(), [](const FusionOps* op) { return op->keeps_rows; });
  FusionSink* down = &make_terminal(input->NumRecords(), rows_kept);
  std::vector<std::unique_ptr<FusionSink>> adapters;
  adapters.reserve(ops.size());
  for (const FusionOps* op : ops) {
    adapters.push_back(op->adapt(partition, *down));
    down = adapters.back().get();
  }
  down->DriveRows(*input);
  const double seconds = ComputeSeconds(t0, waited0, computed0);
  if (Cancelled()) {
    return Unavailable("node revoked during compute");
  }
  for (const auto& adapter : adapters) {
    FLINT_RETURN_IF_ERROR(adapter->status());
  }

  // Every operator but the head streamed its rows without building its
  // partition.
  const size_t elided = ops.size() - (head != nullptr ? 1 : 0);
  EngineCounters& counters = ctx_->counters();
  if (head != nullptr && elided > 0) {
    counters.fused_chains.fetch_add(1, std::memory_order_relaxed);
  }
  counters.fused_operators_elided.fetch_add(elided, std::memory_order_relaxed);
  return ChainRun{elided, seconds};
}

Result<std::vector<PartitionPtr>> TaskContext::ComputeShuffleBuckets(const RddPtr& map_rdd,
                                                                     int partition,
                                                                     const ShuffleInfo& info) {
  if (Cancelled()) {
    return Unavailable("node revoked");
  }
  if (info.make_bucket_sink == nullptr) {
    return Internal("shuffle " + std::to_string(info.shuffle_id) + " has no bucket sink");
  }
  // The bucket sink is the chain's terminal and there is no head: a map RDD
  // that is a fusable intermediate streams straight into the buckets, any
  // other map RDD is the barrier and materializes through GetPartition.
  BucketTerminal terminal;
  FLINT_ASSIGN_OR_RETURN(
      ChainRun run,
      RunChain(/*head=*/nullptr, map_rdd, partition, [&](size_t rows, bool) -> FusionSink& {
        terminal = info.make_bucket_sink(info.num_reduce_partitions, rows);
        return *terminal.sink;
      }));
  EngineCounters& counters = ctx_->counters();
  if (run.elided == 0) {
    counters.shuffle_rows_bucketed_unfused.fetch_add(terminal.rows_in(),
                                                     std::memory_order_relaxed);
    return terminal.finish();
  }
  // The map RDD still "computed" this partition as far as the rest of the
  // engine is concerned (recompute counters, FT-manager checkpoint signals);
  // only the materialization was elided.
  ReportComputed(ctx_, map_rdd, partition, run.seconds);
  counters.shuffle_fused_bucket_chains.fetch_add(1, std::memory_order_relaxed);
  counters.shuffle_rows_bucketed_fused.fetch_add(terminal.rows_in(), std::memory_order_relaxed);
  return terminal.finish();
}

double TaskContext::FetchTimeoutSeconds() const {
  const EngineConfig& cfg = ctx_->config();
  if (cfg.fetch_timeout_multiplier <= 0.0) {
    return 0.0;
  }
  const double p95 = ctx_->StageP95Seconds();
  if (p95 <= 0.0) {
    return 0.0;  // no stage quantile armed yet; nothing sane to derive from
  }
  return std::max(cfg.fetch_timeout_min_seconds, cfg.fetch_timeout_multiplier * p95);
}

Status TaskContext::ChargeLinkTransfer(NodeId producer, uint64_t bytes, double slow_factor,
                                       double timeout_seconds, int shuffle_id, int reduce_part) {
  const EngineConfig& cfg = ctx_->config();
  EngineCounters& counters = ctx_->counters();
  std::shared_ptr<NodeState> producer_state = ctx_->GetNodeState(producer);
  double capacity = producer_state != nullptr
                        ? producer_state->link_bandwidth_bytes_per_s.load(std::memory_order_relaxed)
                        : cfg.default_link_bandwidth_bytes_per_s;
  if (capacity <= 0.0) {
    capacity = cfg.default_link_bandwidth_bytes_per_s;
  }
  const double factor = std::max(1.0, slow_factor);
  const double effective = capacity > 0.0 ? capacity / factor : 0.0;
  counters.net_fetches.fetch_add(1, std::memory_order_relaxed);
  counters.net_fetch_bytes.fetch_add(bytes, std::memory_order_relaxed);
  LatencyModel& latency = ctx_->latency();
  const double transfer_s = latency.TransferSeconds(bytes, capacity, factor);
  const bool timed_out = timeout_seconds > 0.0 && transfer_s > timeout_seconds;
  // A timed-out pull still waits out the timeout (the consumer cannot know
  // the transfer is doomed until the deadline passes), then abandons it.
  const double wait_s = timed_out ? timeout_seconds : transfer_s;
  if (!latency.Wait(Layer::kShuffleFetch, wait_s, [this] { return Cancelled(); }).ok()) {
    return Unavailable("cancelled during shuffle fetch");
  }
  counters.net_fetch_seconds.Observe(wait_s);
  const double ratio = capacity > 0.0 ? std::clamp(effective / capacity, 0.0, 1.0) : 0.0;
  if (!timed_out) {
    // Degraded but within budget: market costing sees the observed ratio
    // even in runs with timeouts disarmed. By the speculation rule the pull
    // is late only past spec_multiplier x its full-speed time. Full-speed
    // pulls stay silent — flooding observers with ratio-1.0 samples would
    // just dilute real signal.
    if (ratio < 0.999) {
      ctx_->NotifyLinkSample(producer, ratio,
                             /*late=*/ratio * cfg.speculation.spec_multiplier < 1.0);
    }
    return Status::Ok();
  }
  // Classified link-slow: this producer's NIC, not its CPU, is the problem.
  // The pull is late, so a network-sick node quarantines too.
  counters.net_fetches_slow.fetch_add(1, std::memory_order_relaxed);
  Tracer::Global().RecordInstant("shuffle_fetch_slow", "net",
                                 {{"producer", static_cast<double>(producer)},
                                  {"consumer", static_cast<double>(node_id())},
                                  {"shuffle", static_cast<double>(shuffle_id)},
                                  {"reduce_part", static_cast<double>(reduce_part)},
                                  {"bytes", static_cast<double>(bytes)},
                                  {"timeout_s", timeout_seconds},
                                  {"transfer_s", transfer_s}});
  ctx_->NotifyLinkSample(producer, ratio, /*late=*/true);
  return DeadlineExceeded("shuffle " + std::to_string(shuffle_id) + " fetch from node " +
                          std::to_string(producer) + " blew the " +
                          std::to_string(timeout_seconds) + "s fetch timeout");
}

Result<std::vector<PartitionPtr>> TaskContext::FetchShuffle(int shuffle_id, int reduce_part) {
  if (Cancelled()) {
    return Unavailable("node revoked");
  }
  const EngineConfig& cfg = ctx_->config();
  EngineCounters& counters = ctx_->counters();
  const int max_tries = 1 + std::max(0, cfg.fetch_retry_limit);
  NodeId slow_producer = -1;
  Status last_timeout;
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff before the retry: the slow-link window may lapse,
      // or a recovery round may land the outputs somewhere healthier.
      counters.net_fetch_retries.fetch_add(1, std::memory_order_relaxed);
      Tracer::Global().RecordInstant("fetch_retry", "net",
                                     {{"shuffle", static_cast<double>(shuffle_id)},
                                      {"reduce_part", static_cast<double>(reduce_part)},
                                      {"attempt", static_cast<double>(attempt)},
                                      {"producer", static_cast<double>(slow_producer)}});
      const double backoff = BackoffSeconds(attempt - 1, cfg.fetch_retry_backoff_seconds,
                                            cfg.fetch_retry_backoff_seconds * 1024);
      if (!WaitSeconds(backoff, [this] { return Cancelled(); }).ok()) {
        return Unavailable("cancelled during fetch backoff");
      }
    }
    auto fetched = ctx_->shuffles().FetchDetailed(shuffle_id, reduce_part);
    if (!fetched.ok()) {
      if (fetched.status().code() == StatusCode::kDataLoss) {
        failed_shuffle_ = shuffle_id;
      }
      return fetched.status();
    }
    const double timeout = FetchTimeoutSeconds();
    Status pull = Status::Ok();
    std::vector<PartitionPtr> buckets;
    buckets.reserve(fetched->size());
    for (auto& fb : *fetched) {
      const uint64_t bytes = fb.bucket != nullptr ? fb.bucket->SizeBytes() : 0;
      // Local buckets never cross the network; only remote pulls are charged
      // against the producer's link (and visible to the fetch probe).
      if (fb.node >= 0 && fb.node != node_id()) {
        ShuffleFetchInfo finfo;
        finfo.node = node_id();
        finfo.producer = fb.node;
        finfo.shuffle_id = shuffle_id;
        finfo.reduce_part = reduce_part;
        finfo.bytes = bytes;
        const FetchFaultDirective directive = ctx_->FireFetchProbe(finfo);
        if (!directive.fail.ok()) {
          pull = directive.fail;
          slow_producer = fb.node;
          break;
        }
        pull = ChargeLinkTransfer(fb.node, bytes, directive.slow_factor, timeout, shuffle_id,
                                  reduce_part);
        if (!pull.ok()) {
          slow_producer = fb.node;
          break;
        }
      }
      buckets.push_back(std::move(fb.bucket));
    }
    if (pull.ok()) {
      return buckets;
    }
    if (pull.code() == StatusCode::kUnavailable) {
      return pull;  // cancelled mid-transfer; this attempt is dead anyway
    }
    last_timeout = pull;
  }
  // Retry budget exhausted against a persistently slow link: drop the slow
  // producer's outputs so the scheduler's FetchFailed recovery recomputes
  // them on a healthy node instead of refetching into the same black hole.
  size_t dropped = 0;
  if (slow_producer >= 0) {
    dropped = ctx_->shuffles().DropNodeOutputs(shuffle_id, slow_producer);
  }
  counters.net_fetch_recomputes.fetch_add(1, std::memory_order_relaxed);
  failed_shuffle_ = shuffle_id;
  return DataLoss("shuffle " + std::to_string(shuffle_id) + " fetch from node " +
                  std::to_string(slow_producer) + " gave up after " +
                  std::to_string(max_tries) + " attempt(s); dropped " + std::to_string(dropped) +
                  " output(s) for recompute: " + last_timeout.ToString());
}

}  // namespace flint
