// flintctl: command-line front end for the Flint managed service (the paper:
// "Users interact with Flint via the command-line to submit, monitor, and
// interact with their Spark programs"). Subcommands:
//
//   flintctl markets   [--count N] [--seed S]          inspect a spot region
//   flintctl simulate  [--policy P] [--trials N]       trace-driven cost sim
//   flintctl mc        [--mttf H] [--no-checkpoint]    fixed-MTTF Monte-Carlo
//   flintctl run       [--workload W] [--policy P] [--failures K]
//                                                      engine-plane run with
//                                                      optional fault injection
//   flintctl trace     [--out FILE] [--volatility V]   export a price trace
//
// Policies P: batch | interactive | cheapest | stable | ondemand.
// Workloads W: pagerank | kmeans | als | tpch.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>

#include "src/core/flint_cluster.h"
#include "src/inject/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/select/selection.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/trace_sim.h"
#include "src/trace/market_catalog.h"
#include "src/workloads/als.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/tpch.h"

namespace flint {
namespace {

// Minimal flag parser: `--key value` pairs and bare `--flag`s after the
// subcommand. A flag the subcommand does not take, or a stray word that is
// not a flag's value, is remembered in error(); Main rejects it before the
// subcommand starts.
class Args {
 public:
  Args(int argc, char** argv, int first, const std::set<std::string>& known) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        Fail(std::string("unexpected argument '") + argv[i] + "'");
        continue;
      }
      const std::string key = argv[i] + 2;
      if (known.count(key) == 0) {
        Fail("unknown flag --" + key);
      }
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        flags_.insert(key);
      }
    }
  }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // Numeric values parse strictly (the whole value, in range). A malformed
  // one yields `fallback` and is remembered in error(), which each command
  // checks before it starts any work.
  long GetInt(const std::string& key, long fallback) const {
    return Parse(key, fallback, "an integer",
                 [](const char* s, char** end) { return std::strtol(s, end, 10); });
  }
  double GetDouble(const std::string& key, double fallback) const {
    return Parse(key, fallback, "a number",
                 [](const char* s, char** end) { return std::strtod(s, end); });
  }
  // The first unknown flag, stray argument or malformed numeric value read
  // so far; empty if none.
  const std::string& error() const { return error_; }
  bool Has(const std::string& flag) const { return flags_.count(flag) > 0; }
  // Whether the flag appeared at all, with or without a value.
  bool Given(const std::string& key) const {
    return values_.count(key) > 0 || flags_.count(key) > 0;
  }

 private:
  template <typename T, typename StrTo>
  T Parse(const std::string& key, T fallback, const char* what, StrTo str_to) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const T v = str_to(s, &end);
    bool bad = end == s || *end != '\0' || errno == ERANGE;
    if constexpr (std::is_floating_point_v<T>) {
      bad = bad || !std::isfinite(v);
    }
    if (bad) {
      Fail("--" + key + ": '" + it->second + "' is not " + what);
      return fallback;
    }
    return v;
  }

  void Fail(const std::string& message) const {
    if (error_.empty()) {
      error_ = message;
    }
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  mutable std::string error_;
};

// Exit code 2 (usage error) for an unknown flag or a malformed flag value.
int BadFlag(const std::string& message) {
  std::fprintf(stderr, "flintctl: %s\n", message.c_str());
  return 2;
}

SelectionPolicyKind ParsePolicy(const std::string& s) {
  if (s == "interactive") {
    return SelectionPolicyKind::kFlintInteractive;
  }
  if (s == "cheapest") {
    return SelectionPolicyKind::kSpotFleetCheapest;
  }
  if (s == "stable") {
    return SelectionPolicyKind::kSpotFleetLeastVolatile;
  }
  if (s == "ondemand") {
    return SelectionPolicyKind::kOnDemand;
  }
  return SelectionPolicyKind::kFlintBatch;
}

int CmdMarkets(const Args& args) {
  const auto count = static_cast<size_t>(args.GetInt("count", 16));
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  if (!args.error().empty()) {
    return BadFlag(args.error());
  }
  Marketplace mp(RegionMarkets(count, seed), 0.35, seed);
  ServerSelector selector(&mp, SelectionConfig{});
  JobProfile job;
  std::printf("%-12s %10s %10s %10s %12s\n", "market", "avg $/h", "MTTF(h)", "E[T]/T",
              "E[cost]/h");
  for (const auto& ev : selector.EvaluateMarkets(Hours(24.0 * 30), job)) {
    std::printf("%-12s %10.4f %10.1f %10.4f %12.4f\n",
                ev.id == kOnDemandMarket ? "on-demand" : mp.market(ev.id).name().c_str(),
                ev.avg_price, ev.mttf_hours, ev.expected_factor, ev.expected_unit_cost);
  }
  return 0;
}

int CmdSimulate(const Args& args) {
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 11));
  Marketplace mp(RegionMarkets(16, seed), 0.35, seed);
  TraceSimulator sim(&mp);
  StrategyConfig cfg;
  cfg.policy = ParsePolicy(args.Get("policy", "batch"));
  cfg.checkpointing = !args.Has("no-checkpoint");
  cfg.fee_fraction_of_on_demand = args.GetDouble("fee", 0.0);
  cfg.trials = static_cast<int>(args.GetInt("trials", 200));
  cfg.seed = seed;
  CanonicalJob job;
  job.base_hours = args.GetDouble("hours", job.base_hours);
  if (!args.error().empty()) {
    return BadFlag(args.error());
  }
  const StrategyResult r = sim.Run(job, cfg);
  std::printf("policy=%s checkpointing=%s trials=%d\n", args.Get("policy", "batch").c_str(),
              cfg.checkpointing ? "on" : "off", cfg.trials);
  std::printf("  normalized unit cost : %.3f (on-demand = 1.0)\n", r.normalized_unit_cost);
  std::printf("  runtime factor       : %.3f +- %.3f\n", r.mean_factor, r.factor_stddev);
  std::printf("  revocations per job  : %.2f across %.1f markets\n", r.mean_revocation_events,
              r.mean_markets_used);
  return 0;
}

int CmdMc(const Args& args) {
  CanonicalJob job;
  job.base_hours = args.GetDouble("hours", job.base_hours);
  McConfig cfg;
  cfg.mttf_hours = args.GetDouble("mttf", 20.0);
  cfg.checkpointing = !args.Has("no-checkpoint");
  cfg.num_markets = static_cast<int>(args.GetInt("markets", 1));
  cfg.trials = static_cast<int>(args.GetInt("trials", 4000));
  if (!args.error().empty()) {
    return BadFlag(args.error());
  }
  const McResult r = SimulateCanonicalJob(job, cfg);
  std::printf("MTTF %.1fh, m=%d, checkpointing %s:\n", cfg.mttf_hours, cfg.num_markets,
              cfg.checkpointing ? "on" : "off");
  std::printf("  mean runtime factor : %.4f (p95 %.4f)\n", r.mean_factor, r.p95_factor);
  std::printf("  mean revocations    : %.2f\n", r.mean_revocations);
  if (r.truncated_trials > 0) {
    std::printf("  truncated trials    : %d of %d hit the 200x horizon (factor stats "
                "exclude them)\n",
                r.truncated_trials, cfg.trials);
  }
  return 0;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

int CmdRun(const Args& args) {
  // Observability exports: --trace-out turns the tracer on for the run and
  // writes Chrome trace_event JSON (chrome://tracing / Perfetto);
  // --metrics-out writes a Prometheus text snapshot. Tracing stays off (and
  // zero-cost) unless requested.
  const std::string trace_out = args.Get("trace-out", "");
  const std::string metrics_out = args.Get("metrics-out", "");
  if (!trace_out.empty()) {
    ObsConfig obs;
    obs.tracing = true;
    obs.trace_capacity = static_cast<size_t>(args.GetInt("trace-capacity", 1 << 16));
    ConfigureObservability(obs);
  }
  FlintOptions options;
  const long nodes = args.GetInt("nodes", 10);
  options.nodes.cluster_size = static_cast<int>(nodes);
  options.nodes.policy = ParsePolicy(args.Get("policy", "batch"));
  options.checkpoint.policy =
      args.Has("no-checkpoint") ? CheckpointPolicyKind::kNone : CheckpointPolicyKind::kFlint;
  options.checkpoint.mttf_hours = args.GetDouble("mttf", 20.0);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  // Speculation floor: the default 200 ms is sized for real stages; demo
  // workloads with millisecond tasks tighten it so injected stragglers
  // actually trip deadlines (tools/check.sh obs-straggler leg).
  options.engine.speculation.min_deadline_seconds =
      args.GetDouble("spec-deadline", options.engine.speculation.min_deadline_seconds);
  // Modelled per-node NIC capacity in MiB/s. The default is fast enough that
  // demo transfers are microseconds; constrain it so injected link faults
  // (--slow-link) produce transfers long enough to trip the fetch timeout.
  if (args.Given("link-bandwidth")) {
    options.engine.default_link_bandwidth_bytes_per_s =
        args.GetDouble("link-bandwidth", 512.0) * 1024.0 * 1024.0;
  }
  // Scripted fault injection, replayable via the printed seed: the plan's
  // RNG (flaky coin flips) derives from it. Node pick is by ordinal over live
  // node ids at fire time.
  FaultPlan plan;
  plan.seed = options.seed;
  if (args.Given("slow-node")) {
    plan.events.push_back(
        SlowNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                   static_cast<int>(args.GetInt("slow-node", 0)),
                   args.GetDouble("slow-factor", 8.0), args.GetDouble("fault-secs", 30.0)));
  }
  if (args.Given("hang-tasks")) {
    plan.events.push_back(
        HangTaskAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                   static_cast<int>(args.GetInt("hang-node", 0)),
                   static_cast<int>(args.GetInt("hang-tasks", 1))));
  }
  if (args.Given("flaky-node")) {
    plan.events.push_back(
        FlakyNodeAt(EnginePoint::kTaskRun, /*after_hits=*/0,
                    static_cast<int>(args.GetInt("flaky-node", 0)),
                    args.GetDouble("flaky-prob", 0.5), args.GetDouble("fault-secs", 30.0)));
  }
  if (args.Given("slow-link")) {
    // Armed at the first scheduler round so the window covers the whole run:
    // every fetch from the victim's link sees the degraded bandwidth.
    plan.events.push_back(
        SlowLinkAt(EnginePoint::kSchedulerRound, /*after_hits=*/0,
                   static_cast<int>(args.GetInt("slow-link", 0)),
                   args.GetDouble("link-factor", 4.0), args.GetDouble("fault-secs", 30.0)));
  }
  const int failures = static_cast<int>(args.GetInt("failures", 0));
  if (failures > 0) {
    // The storm lands mid-job at a fixed engine point, not after a wall-clock
    // delay, so it hits the job however fast the build runs it: the
    // lowest-id `failures` nodes get a revocation warning as the 101st task
    // attempt starts. Every workload runs at least 200 attempts. The node
    // manager provisions the replacements, as after a market revocation.
    FaultEvent storm = RevokeCountAt(EnginePoint::kTaskRun, /*after_hits=*/100, failures,
                                     /*with_warning=*/true, /*delay_seconds=*/0.0);
    storm.replacement_count = 0;
    plan.events.push_back(storm);
  }
  if (!args.error().empty()) {
    return BadFlag(args.error());
  }
  if (nodes <= 0 || nodes > std::numeric_limits<int>::max()) {
    return BadFlag("--nodes must be a positive node count, got " + std::to_string(nodes));
  }
  // Every run prints its effective seed so any run — including one that used
  // the default — can be replayed exactly with --seed.
  std::printf("seed: %llu\n", static_cast<unsigned long long>(options.seed));
  FlintCluster cluster(options);
  if (Status st = cluster.Start(); !st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::string workload = args.Get("workload", "pagerank");
  const uint64_t seed = options.seed;
  std::unique_ptr<FaultInjector> injector;
  if (!plan.events.empty()) {
    injector = std::make_unique<FaultInjector>(&cluster.cluster(), plan);
    cluster.ctx().SetProbe(injector.get());
  }
  JobReport report = cluster.RunMeasured([&workload, seed](FlintContext& ctx) -> Status {
    if (workload == "kmeans") {
      KMeansParams p;
      p.num_points = 400000;
      p.partitions = 20;
      p.seed = seed;
      auto r = RunKMeans(ctx, p);
      if (r.ok()) {
        std::printf("kmeans inertia: %.3f\n", r->inertia);
      }
      return r.status();
    }
    if (workload == "als") {
      AlsParams p;
      p.num_users = 10000;
      p.num_items = 2000;
      p.partitions = 20;
      p.seed = seed;
      auto r = RunAls(ctx, p);
      if (r.ok()) {
        std::printf("als rmse: %.4f\n", r->rmse);
      }
      return r.status();
    }
    if (workload == "tpch") {
      TpchParams p;
      p.num_orders = 50000;
      p.num_customers = 2000;
      p.partitions = 20;
      p.seed = seed;
      auto db = TpchDatabase::Load(ctx, p);
      if (!db.ok()) {
        return db.status();
      }
      auto q1 = db->RunQ1();
      auto q3 = db->RunQ3();
      auto q10 = db->RunQ10();
      std::printf("tpch: q1 groups=%zu q3 rows=%zu q10 rows=%zu\n",
                  q1.ok() ? q1->size() : 0, q3.ok() ? q3->size() : 0,
                  q10.ok() ? q10->size() : 0);
      FLINT_RETURN_IF_ERROR(q1.status());
      FLINT_RETURN_IF_ERROR(q3.status());
      return q10.status();
    }
    PageRankParams p;
    p.num_vertices = 40000;
    p.edges_per_vertex = 15;
    p.partitions = 20;
    p.seed = seed;
    auto r = RunPageRank(ctx, p, 5);
    if (r.ok() && !r->top.empty()) {
      std::printf("pagerank top vertex: v%d (%.3f)\n", r->top[0].first, r->top[0].second);
    }
    return r.status();
  });
  if (injector != nullptr) {
    cluster.ctx().SetProbe(nullptr);
    injector->Drain();
    const FaultInjector::Stats fs = injector->GetStats();
    std::printf(
        "injected: %llu revoked, %llu slowed, %llu hung, %llu failed, %llu fetches slowed\n",
        static_cast<unsigned long long>(fs.nodes_revoked),
        static_cast<unsigned long long>(fs.tasks_slowed),
        static_cast<unsigned long long>(fs.tasks_hung_injected),
        static_cast<unsigned long long>(fs.tasks_failed_injected),
        static_cast<unsigned long long>(fs.fetches_slowed));
  }
  if (failures > 0) {
    // The injected revocations trail their warnings by the model warning
    // window; let them (and the replacement churn) land so the export shows
    // the full storm, not just its leading edge.
    const double warning_s = options.time.ToEngineSeconds(options.time.revocation_warning);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(warning_s * 1000.0) + 200));
    cluster.cluster().DrainEvents();
  }
  // Export while the cluster (and its metric sets) is still alive; a
  // failed run's telemetry is exactly what you want to look at.
  if (!trace_out.empty()) {
    const Tracer::Stats stats = Tracer::Global().GetStats();
    if (WriteFile(trace_out, Tracer::Global().ExportJson())) {
      std::printf("trace: %llu events to %s (%llu dropped)\n",
                  static_cast<unsigned long long>(stats.buffered), trace_out.c_str(),
                  static_cast<unsigned long long>(stats.dropped));
    }
  }
  if (!metrics_out.empty()) {
    if (WriteFile(metrics_out, MetricsRegistry::Global().FormatPrometheusText())) {
      std::printf("metrics: snapshot to %s\n", metrics_out.c_str());
    }
  }
  if (!report.status.ok()) {
    std::fprintf(stderr, "job failed: %s\n", report.status.ToString().c_str());
    return 1;
  }
  std::printf(
      "wall %.2fs | tasks %llu (%llu failed) | recomputed %llu | checkpoints %llu (%.1f MiB) | "
      "remote cache reads %llu (%.1f MiB)\n",
      report.wall_seconds, static_cast<unsigned long long>(report.tasks_run),
      static_cast<unsigned long long>(report.task_failures),
      static_cast<unsigned long long>(report.partitions_recomputed),
      static_cast<unsigned long long>(report.checkpoint_writes),
      static_cast<double>(report.checkpoint_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(report.remote_cache_reads),
      static_cast<double>(report.remote_cache_read_bytes) / (1024.0 * 1024.0));
  std::printf("cluster bill: $%.4f spot vs $%.4f on-demand\n", cluster.nodes().TotalCost(),
              cluster.nodes().OnDemandEquivalentCost());
  return 0;
}

int CmdTrace(const Args& args) {
  MarketVolatility volatility = MarketVolatility::kModerate;
  const std::string v = args.Get("volatility", "moderate");
  if (v == "calm") {
    volatility = MarketVolatility::kCalm;
  } else if (v == "volatile") {
    volatility = MarketVolatility::kVolatile;
  } else if (v == "extreme") {
    volatility = MarketVolatility::kExtreme;
  }
  SyntheticTraceParams params =
      ParamsForVolatility(volatility, args.GetDouble("od", 0.35),
                          static_cast<uint64_t>(args.GetInt("seed", 1)));
  params.duration = Hours(24.0 * args.GetDouble("days", 30.0));
  if (!args.error().empty()) {
    return BadFlag(args.error());
  }
  const PriceTrace trace = GenerateSyntheticTrace(params);
  const std::string out = args.Get("out", "trace.csv");
  if (Status st = SaveTraceCsv(trace, out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const BidStats stats = ComputeBidStats(trace, params.on_demand_price);
  std::printf("wrote %zu samples to %s (avg $%.4f/h, MTTF %.1fh at on-demand bid)\n",
              trace.size(), out.c_str(), stats.avg_price, stats.mttf_hours);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: flintctl <markets|simulate|mc|run|trace> [--flags]\n"
               "  markets  --count N --seed S\n"
               "  simulate --policy batch|interactive|cheapest|stable|ondemand\n"
               "           --trials N --fee F --hours H --seed S [--no-checkpoint]\n"
               "  mc       --mttf H --markets M --trials N --hours H [--no-checkpoint]\n"
               "  run      --workload pagerank|kmeans|als|tpch --policy P\n"
               "           --nodes N --failures K --mttf H --seed S [--no-checkpoint]\n"
               "           --slow-node ORD --slow-factor F --fault-secs S\n"
               "           --hang-tasks K --hang-node ORD --spec-deadline S\n"
               "           --flaky-node ORD --flaky-prob P\n"
               "           --slow-link ORD --link-factor F --link-bandwidth MIBPS\n"
               "           --trace-out FILE --metrics-out FILE --trace-capacity N\n"
               "  trace    --out FILE --volatility calm|moderate|volatile|extreme\n"
               "           --days D --od PRICE --seed S\n");
  return 2;
}

// Each subcommand with the flags it reads; Main rejects any other flag.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::set<std::string> flags;
};

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const Command commands[] = {
      {"markets", CmdMarkets, {"count", "seed"}},
      {"simulate", CmdSimulate, {"policy", "trials", "fee", "hours", "seed", "no-checkpoint"}},
      {"mc", CmdMc, {"mttf", "markets", "trials", "hours", "no-checkpoint"}},
      {"run",
       CmdRun,
       {"workload", "policy", "nodes", "failures", "mttf", "seed", "no-checkpoint",
        "spec-deadline", "slow-node", "slow-factor", "fault-secs", "hang-tasks", "hang-node",
        "flaky-node", "flaky-prob", "slow-link", "link-factor", "link-bandwidth", "trace-out",
        "metrics-out", "trace-capacity"}},
      {"trace", CmdTrace, {"out", "volatility", "days", "od", "seed"}},
  };
  const std::string cmd = argv[1];
  for (const Command& command : commands) {
    if (cmd == command.name) {
      const Args args(argc, argv, 2, command.flags);
      if (!args.error().empty()) {
        return BadFlag(cmd + ": " + args.error());
      }
      return command.run(args);
    }
  }
  return Usage();
}

}  // namespace
}  // namespace flint

int main(int argc, char** argv) { return flint::Main(argc, argv); }
