#include "src/engine/task_context.h"

#include <algorithm>
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

// Wall seconds since `t0` minus the latency waits (origin and remote cache
// reads, spill, shuffle fetch) the thread made since `waited0`: compute only.
double ComputeSeconds(WallTime t0, double waited0) {
  return WallDuration(WallClock::now() - t0).count() - (ThreadWaitedSeconds() - waited0);
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

  // 1. Cluster cache.
  const BlockKey key{rdd->id(), partition};
  if (PartitionPtr cached = ctx_->LookupBlock(key, node_id()); cached != nullptr) {
    counters.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  counters.cache_misses.fetch_add(1, std::memory_order_relaxed);

  // 2. Saved checkpoint in the DFS. The restore is verified (manifest +
  // per-partition checksum); a missing or corrupt checkpoint demotes the RDD
  // back to kNone inside RestoreFromCheckpoint and we fall through to
  // lineage recomputation below.
  if (rdd->checkpoint_state() == CheckpointState::kSaved) {
    auto restored = ctx_->RestoreFromCheckpoint(rdd, partition);
    if (restored.ok()) {
      PartitionPtr data = std::move(restored).value();
      if (rdd->should_cache()) {
        ctx_->StoreBlock(key, node_id(), data);
      }
      return data;
    }
  }

  // 3. Recompute from lineage (fused when the chain allows it).
  const auto t0 = WallClock::now();
  const double waited0 = ThreadWaitedSeconds();
  Result<PartitionPtr> computed = ComputeFromLineage(rdd, partition);
  if (!computed.ok()) {
    return computed.status();
  }
  const double seconds = ComputeSeconds(t0, waited0);
  if (Cancelled()) {
    return Unavailable("node revoked during compute");
  }
  ctx_->NotifyPartitionComputed(rdd, partition, seconds);

  PartitionPtr data = std::move(computed).value();
  if (rdd->should_cache()) {
    ctx_->StoreBlock(key, node_id(), data);
  }
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

Result<PartitionPtr> TaskContext::ComputeFromLineage(const RddPtr& rdd, int partition) {
  // The chain head itself must be a streaming operator over one narrow
  // parent; its own cache/checkpoint/consumer state is irrelevant (the head's
  // output IS materialized — GetPartition handles storing it).
  if (!ctx_->config().operator_fusion || rdd->fusion_ops() == nullptr ||
      rdd->deps().size() != 1 || rdd->deps()[0].type != DepType::kNarrowOneToOne ||
      rdd->deps()[0].parent == nullptr) {
    return rdd->Compute(partition, *this);
  }
  // chain[0] = head; extend downward through transparent intermediates until
  // a barrier: a source, shuffle consumer, cached/marked RDD, or one with
  // another live consumer.
  std::vector<RddPtr> chain{rdd};
  RddPtr barrier = rdd->deps()[0].parent;
  while (FusableIntermediate(barrier)) {
    chain.push_back(barrier);
    barrier = barrier->deps()[0].parent;
  }
  if (chain.size() == 1) {
    return rdd->Compute(partition, *this);  // nothing to elide
  }

  // Materialize the barrier input through the regular path (cluster cache,
  // checkpoint restore, recursive lineage — possibly another fused chain
  // below the barrier), then stream it through the composed operators.
  FLINT_ASSIGN_OR_RETURN(PartitionPtr input, GetPartition(barrier, partition));

  // Sinks compose top-down: the head's adapter feeds the terminal, each
  // deeper operator's adapter feeds the one above, and the bottom operator
  // drives the barrier rows through the whole stack (and issues the single
  // Flush sweep).
  FusionTerminal terminal = chain.front()->fusion_ops()->make_terminal();
  FusionSink* down = terminal.sink.get();
  std::vector<std::unique_ptr<FusionSink>> adapters;
  adapters.reserve(chain.size() - 1);
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    adapters.push_back(chain[i]->fusion_ops()->adapt(partition, *down));
    down = adapters.back().get();
  }
  chain.back()->fusion_ops()->drive(partition, *input, *down);

  EngineCounters& counters = ctx_->counters();
  counters.fused_chains.fetch_add(1, std::memory_order_relaxed);
  counters.fused_operators_elided.fetch_add(chain.size() - 1, std::memory_order_relaxed);
  return terminal.finish();
}

Result<std::vector<PartitionPtr>> TaskContext::ComputeShuffleBuckets(const RddPtr& map_rdd,
                                                                     int partition,
                                                                     const ShuffleInfo& info) {
  if (Cancelled()) {
    return Unavailable("node revoked");
  }
  if (info.make_bucket_sink == nullptr || info.drive_rows == nullptr) {
    return Internal("shuffle " + std::to_string(info.shuffle_id) + " has no bucket sink");
  }
  EngineCounters& counters = ctx_->counters();

  // Fused path: the map RDD qualifies as an elidable streaming intermediate
  // (same predicate as narrow-chain fusion — its sole consumer is the
  // shuffle, and neither the cache nor the checkpoint writer needs its
  // output), so the chain above it drives records straight into the bucket
  // sink and the map-side partition is never built.
  if (ctx_->config().operator_fusion && ctx_->config().shuffle_fusion &&
      FusableIntermediate(map_rdd)) {
    std::vector<RddPtr> chain{map_rdd};
    RddPtr barrier = map_rdd->deps()[0].parent;
    while (FusableIntermediate(barrier)) {
      chain.push_back(barrier);
      barrier = barrier->deps()[0].parent;
    }
    FLINT_ASSIGN_OR_RETURN(PartitionPtr input, GetPartition(barrier, partition));

    const auto t0 = WallClock::now();
    const double waited0 = ThreadWaitedSeconds();
    BucketTerminal terminal =
        info.make_bucket_sink(info.num_reduce_partitions, input->NumRecords());
    FusionSink* down = terminal.sink.get();
    std::vector<std::unique_ptr<FusionSink>> adapters;
    adapters.reserve(chain.size() - 1);
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      adapters.push_back(chain[i]->fusion_ops()->adapt(partition, *down));
      down = adapters.back().get();
    }
    chain.back()->fusion_ops()->drive(partition, *input, *down);
    const double seconds = ComputeSeconds(t0, waited0);
    if (Cancelled()) {
      return Unavailable("node revoked during compute");
    }
    // The map RDD still "computed" this partition as far as the rest of the
    // engine is concerned (recompute counters, FT-manager checkpoint
    // signals); only the materialization was elided.
    ctx_->NotifyPartitionComputed(map_rdd, partition, seconds);
    counters.shuffle_fused_bucket_chains.fetch_add(1, std::memory_order_relaxed);
    counters.shuffle_rows_bucketed_fused.fetch_add(terminal.rows_in(),
                                                   std::memory_order_relaxed);
    counters.fused_operators_elided.fetch_add(chain.size() - 1, std::memory_order_relaxed);
    return terminal.finish();
  }

  // Unfused fallback: materialize (cache -> checkpoint -> lineage) and
  // stream the rows through the same bucket sink.
  FLINT_ASSIGN_OR_RETURN(PartitionPtr input, GetPartition(map_rdd, partition));
  BucketTerminal terminal =
      info.make_bucket_sink(info.num_reduce_partitions, input->NumRecords());
  info.drive_rows(*input, *terminal.sink);
  if (Cancelled()) {
    return Unavailable("node revoked during compute");
  }
  counters.shuffle_rows_bucketed_unfused.fetch_add(terminal.rows_in(),
                                                   std::memory_order_relaxed);
  return terminal.finish();
}

namespace {

// A bucket fetch takes microseconds to milliseconds, below the default
// latency buckets' 1 ms floor; 10 us doubling through ~84 s resolves it.
Histogram* FetchSecondsHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "flint_net_fetch_seconds", Histogram::DoublingBounds(1e-5, 100.0));
  return h;
}

}  // namespace

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
  // The throughput this pull observes over the producer's link; folded into
  // the link EWMA whether or not the wait itself is modelled, so market
  // costing sees degraded links even in fast test runs.
  if (effective > 0.0) {
    ctx_->RecordLinkThroughput(producer, effective);
  }
  LatencyModel& latency = ctx_->latency();
  const double transfer_s = latency.TransferSeconds(bytes, capacity, factor);
  const bool timed_out = timeout_seconds > 0.0 && transfer_s > timeout_seconds;
  // A timed-out pull still waits out the timeout (the consumer cannot know
  // the transfer is doomed until the deadline passes), then abandons it.
  const double wait_s = timed_out ? timeout_seconds : transfer_s;
  if (!latency.Wait(Layer::kShuffleFetch, wait_s, [this] { return Cancelled(); }).ok()) {
    return Unavailable("cancelled during shuffle fetch");
  }
  FetchSecondsHistogram()->Observe(wait_s);
  const double ratio = capacity > 0.0 ? std::clamp(effective / capacity, 0.0, 1.0) : 0.0;
  if (!timed_out) {
    // Degraded but within budget: report the observed ratio as a healthy
    // sample so health scoring and market costing see the slow link even in
    // runs with timeouts disarmed. Full-speed pulls stay silent — flooding
    // observers with ratio-1.0 samples would just dilute real signal.
    if (ratio < 0.999) {
      ctx_->NotifyLinkSample(producer, ratio, /*slow=*/false);
    }
    return Status::Ok();
  }
  // Classified link-slow: this producer's NIC, not its CPU, is the problem.
  // Feed the health scorer so a network-sick node quarantines too.
  counters.net_fetches_slow.fetch_add(1, std::memory_order_relaxed);
  Tracer::Global().RecordInstant("shuffle_fetch_slow", "net",
                                 {{"producer", static_cast<double>(producer)},
                                  {"consumer", static_cast<double>(node_id())},
                                  {"shuffle", static_cast<double>(shuffle_id)},
                                  {"reduce_part", static_cast<double>(reduce_part)},
                                  {"bytes", static_cast<double>(bytes)},
                                  {"timeout_s", timeout_seconds},
                                  {"transfer_s", transfer_s}});
  ctx_->NotifyLinkSample(producer, ratio, /*slow=*/true);
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
