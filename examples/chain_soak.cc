// chain_soak: an in-network compute pipeline behind a ScenarioSpec (emu-chain).
//
// Builds filter -> NAT -> L1 cache -> memcached pool from a declarative
// scenario spec (soak::kChainSoakSpec by default, checked in as
// specs/chain_soak.spec), each stage on its own simulated host and PDES
// shard, and drives a memaslap-style 90/10 GET/SET workload through the
// whole chain from the source host. For each seed the soak runs three
// times — threads=1, threads=T, and a threads=T replay — and gates on:
//
//   - flow integrity: every admitted request produced exactly one reply at
//     the source; the head stage serviced exactly the admitted count; no
//     stage lost backpressure (LOSTBACKPRESSURE / CHAINMISROUTE findings
//     from ChainRuntime::CollectFindings are failures);
//   - determinism: the chain counter digest, the fault registry's injection
//     log digest, and the exported Perfetto trace are bit-exact across
//     thread counts and across a same-seed replay — the trace comparison is
//     byte equality of the JSON;
//   - decomposition: the trace recovers a per-stage latency decomposition
//     (Table 4 shape) with a populated queue and service row for every
//     stage on the chain.
//
// --log-dir writes one artifact per seed (digests, per-stage counters, the
// decomposition table) plus the threads=T Perfetto trace — the CI uploads
// the directory.
//
// emu-pulse additions: every run samples source-side telemetry (reply
// throughput, shed, in-flight window, FIFO-matched source RTT p50/p99) into
// a bounded TimeSeriesRecorder and records the parallel runner's per-epoch
// wall-clock profile. --log-dir then also gets, per seed, the soak
// dashboard HTML, the series JSON, and the epoch profile JSON + wall-clock
// trace. All of these are separate artifacts from the deterministic trace —
// the byte-compare below still covers the deterministic stream only, and
// still passes with pulse attached. --slo CLAUSES evaluates declarative SLO
// gates (e.g. "chain.source.rtt_us.p99 <= 400; chain.loss_rate <= 0.01")
// against the threads=T run of every seed and makes a breach exit nonzero.
//
// Flags, seed lattice, artifacts and SLO exit codes: src/soak/soak.h.
//
// Usage:
//   chain_soak [--seed N] [--seeds N] [--threads N] [--requests N]
//              [--spec FILE] [--log-dir DIR] [--slo CLAUSES] [--prom FILE]
//              [--verbose]
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chain/scenario_build.h"
#include "src/core/histogram.h"
#include "src/core/metrics.h"
#include "src/fault/fault_registry.h"
#include "src/obs/decompose.h"
#include "src/obs/sampler.h"
#include "src/obs/trace.h"
#include "src/soak/soak.h"
#include "src/soak/workloads.h"

namespace emu {
namespace {

constexpr char kTool[] = "chain_soak";
constexpr usize kPrewarmKeys = 200;

struct SoakOptions {
  soak::CommonOptions common;  // --slo evaluated on every threads=T run
  usize requests = 300;
  // Four stages each serve a request twice (forward and reply), so 25 us
  // between requests puts per-stage load at ~80% of the 10 us CPU service
  // time: queues visibly fill (nonzero decomposition queue rows) while the
  // source's credit window keeps it from shedding in steady state.
  u64 gap_us = 25;
  std::string spec_text = soak::kChainSoakSpec;
};

struct RunOutcome {
  bool ok = true;
  std::string detail;
  u64 events_executed = 0;
  u64 chain_digest = 0;
  u64 log_digest = 0;
  u64 attempts = 0;
  u64 source_shed = 0;
  u64 source_replies = 0;
  std::vector<Finding> findings;
  std::string counters;       // per-stage counter table
  std::string decomposition;  // per-stage latency table
  std::string trace_json;     // Perfetto export (byte-compared across runs)
  std::vector<obs::StageDecomposition> stage_rows;  // the decomposition gate's input
  // Source telemetry registry: series, end-of-run snapshot, exposition.
  soak::Telemetry telemetry{2048};
};

RunOutcome RunOnce(u64 seed, usize threads, const SoakOptions& opt) {
  RunOutcome out;
  FaultRegistry registry(seed);
  Expected<std::unique_ptr<Scenario>> built =
      BuildScenarioFromText(opt.spec_text, &registry);
  if (!built.ok()) {
    out.ok = false;
    out.detail = built.status().ToString();
    return out;
  }
  Scenario& scenario = **built;
  if (!scenario.has_chain) {
    out.ok = false;
    out.detail = "spec declares no chain";
    return out;
  }

  obs::TraceSession trace;
  trace.Install();

  std::vector<Packet> frames = soak::ChainWorkloadFrames(seed, kPrewarmKeys, opt.requests);
  out.attempts = frames.size();

  ChainRuntime& chain = scenario.chain;
  EventScheduler& clock = scenario.topology.host(scenario.source_host).scheduler();
  const Picoseconds gap = static_cast<Picoseconds>(opt.gap_us) * kPicosPerMicro;

  // --- emu-pulse telemetry (source shard only) ---
  // Everything sampled here is mutated exclusively by events on the source
  // host's scheduler (sends, the reply handler, the sampler itself), so the
  // mid-run sampling is shard-safe and its values — including the counter
  // events it adds to the deterministic trace — are bit-identical for any
  // thread count. RTT is FIFO-matched at the source: memaslap frames carry
  // no request id (fixed UDP ports), so each reply is paired with the oldest
  // outstanding send. Sums and means are exact under any matching; the p50/
  // p99 are the standard passive-measurement approximation.
  Histogram rtt_us;
  soak::SourceLedger ledger;
  MetricsRegistry source_metrics;
  source_metrics.Register("chain.source.sent", &ledger.sent);
  source_metrics.Register("chain.source.shed", [&chain] { return chain.source_shed(); });
  source_metrics.Register("chain.source.replies", [&chain] { return chain.source_replies(); });
  source_metrics.RegisterGauge("chain.source.in_flight",
                               [&ledger] { return static_cast<u64>(ledger.in_flight.size()); });
  source_metrics.RegisterHistogram("chain.source.rtt_us", &rtt_us);
  chain.SetSourceReplyHandler([&ledger, &rtt_us, &clock](Packet) {
    if (!ledger.in_flight.empty()) {
      const Picoseconds sent_at = ledger.in_flight.front();
      ledger.in_flight.pop_front();
      rtt_us.Observe(static_cast<u64>((clock.now() - sent_at) / kPicosPerMicro));
    }
  });
  soak::PaceChainSource(scenario, std::move(frames), gap, ledger);

  MetricsSampler sampler(source_metrics, static_cast<Picoseconds>(opt.common.sample_interval_us) *
                                             kPicosPerMicro);
  sampler.AttachRecorder(&out.telemetry.series);
  // Sample through the send schedule plus a drain tail for the last replies.
  const Picoseconds sample_until =
      static_cast<Picoseconds>(out.attempts + 1) * gap + 500 * kPicosPerMicro;
  sampler.SchedulePeriodic(clock, sample_until);

  out.events_executed = soak::RunWithPulse(scenario.topology, threads, out.telemetry);
  out.telemetry.final_metrics = source_metrics.Snapshot();
  out.telemetry.prom_text = source_metrics.PrometheusText();

  out.chain_digest = chain.Digest();
  out.log_digest = registry.LogDigest();
  out.source_shed = chain.source_shed();
  out.source_replies = chain.source_replies();
  chain.CollectFindings(out.findings);
  out.trace_json = trace.ExportChromeJson();

  std::vector<std::string> stage_order;
  for (usize i = 0; i < chain.stage_count(); ++i) {
    stage_order.push_back(chain.stage(i).name());
  }
  out.stage_rows = obs::DecomposeChainLatency(trace.MergedEvents(), stage_order);
  out.decomposition = obs::FormatDecompositionTable(out.stage_rows);

  std::ostringstream counters;
  for (usize i = 0; i < chain.stage_count(); ++i) {
    ChainStageNode& stage = chain.stage(i);
    counters << stage.name() << ": fwd=" << stage.serviced_forward()
             << " reply=" << stage.serviced_reply()
             << " lost_bp=" << stage.lost_backpressure()
             << " misrouted=" << stage.misrouted()
             << " flood_dropped=" << stage.flood_dropped()
             << " ignored=" << stage.ignored()
             << " stalls=" << stage.egress_stalls() << "\n";
  }
  counters << "source: attempts=" << out.attempts << " shed=" << out.source_shed
           << " replies=" << out.source_replies << "\n";
  out.counters = counters.str();

  if (opt.common.verbose) {
    MetricsRegistry metrics;
    chain.RegisterMetrics(metrics, "chain");
    registry.RegisterMetrics(metrics, "faults");
    std::printf("%s", metrics.Format().c_str());
  }
  obs::TraceSession::Detach();
  return out;
}

std::vector<std::string> CheckInvariants(const RunOutcome& run) {
  std::vector<std::string> violations;
  if (!run.ok) {
    violations.push_back(run.detail);
    return violations;
  }
  for (const Finding& f : run.findings) {
    violations.push_back(f.ToString());
  }
  const u64 admitted = run.attempts - run.source_shed;
  if (run.source_replies != admitted) {
    violations.push_back("flow: " + std::to_string(admitted) + " requests admitted but " +
                         std::to_string(run.source_replies) + " replies returned");
  }
#ifdef EMU_TRACE  // with tracing compiled out there are no spans to decompose
  for (const obs::StageDecomposition& row : run.stage_rows) {
    if (row.queue.count == 0 || row.service.count == 0) {
      violations.push_back("decomposition: stage '" + row.stage +
                           "' has an empty queue or service row (queue=" +
                           std::to_string(row.queue.count) +
                           " service=" + std::to_string(row.service.count) + ")");
    }
  }
#endif
  return violations;
}

soak::Fingerprint Fingerprint(const RunOutcome& run) {
  return {{run.chain_digest, run.log_digest}, &run.trace_json};
}

// The SLO gate's harness-derived metric (loss_rate) ahead of the source
// telemetry snapshot.
obs::SloLookup MakeSoakLookup(const RunOutcome& run) {
  const double loss_rate = run.attempts == 0 ? 0.0
                                             : static_cast<double>(run.source_shed) /
                                                   static_cast<double>(run.attempts);
  return soak::SnapshotLookup({{"chain.loss_rate", loss_rate}}, run.telemetry.final_metrics);
}

void WriteSeedArtifacts(const SoakOptions& opt, u64 seed, const soak::Lattice<RunOutcome>& runs,
                        const std::vector<std::string>& violations,
                        const obs::SloReport& slo) {
  const RunOutcome& serial = runs.serial;
  const RunOutcome& parallel = runs.parallel;
  const RunOutcome& replay = runs.replay;
  char trace_bytes[128];
  std::snprintf(trace_bytes, sizeof(trace_bytes),
                "trace bytes:  serial=%zu threads=%zu replay=%zu identical=%s\n",
                serial.trace_json.size(), parallel.trace_json.size(), replay.trace_json.size(),
                serial.trace_json == parallel.trace_json && parallel.trace_json == replay.trace_json
                    ? "yes"
                    : "NO");
  std::string text = "seed " + std::to_string(seed) + "\n" +
                     soak::DigestRow("chain digest:", serial.chain_digest, parallel.chain_digest,
                                     replay.chain_digest) +
                     soak::DigestRow("log digest:  ", serial.log_digest, parallel.log_digest,
                                     replay.log_digest) +
                     trace_bytes +
                     "\nper-stage counters (threads run):\n" + parallel.counters +
                     "\nlatency decomposition (threads run):\n" + parallel.decomposition;
  if (!violations.empty()) {
    text += "\nviolations:\n";
    for (const std::string& v : violations) {
      text += "  " + v + "\n";
    }
  }
  const std::string base = opt.common.log_dir + "/seed" + std::to_string(seed);
  soak::WriteFileOrWarn(kTool, base + ".txt", text);
  soak::WriteFileOrWarn(kTool, base + ".trace.json", parallel.trace_json);

  // Telemetry of the threads run: dashboard, series, epoch profile.
  obs::DashboardOptions dash;
  dash.title = "chain_soak seed " + std::to_string(seed);
  dash.subtitle = "filter->nat->cache->pool, threads run; source-side telemetry";
  const std::vector<obs::ChartSpec> charts = {
      {"Reply throughput", "replies/s", {"chain.source.replies"}, true},
      {"Source shed (cumulative)", "frames", {"chain.source.shed"}, false},
      {"In-flight window", "requests", {"chain.source.in_flight"}, false},
      {"Source RTT", "us", {"chain.source.rtt_us.p50", "chain.source.rtt_us.p99"}, false},
  };
  soak::WriteTelemetry(kTool, base, dash, charts, parallel.telemetry, slo);
}

int Usage() {
  std::printf(
      "usage: chain_soak [--seed N] [--seeds N] [--threads N] [--requests N]\n"
      "                  [--gap-us N] [--spec FILE] [--log-dir DIR]\n"
      "                  [--slo CLAUSES] [--prom FILE] [--sample-us N] [--verbose]\n"
      "--spec replaces the built-in filter->nat->cache->pool scenario;\n"
      "--log-dir must already exist; per-seed artifacts (digests, counters,\n"
      "latency decomposition, Perfetto trace, soak dashboard HTML, series +\n"
      "epoch-profile JSON) are written there.\n"
      "--slo takes ';'-separated clauses like \"chain.source.rtt_us.p99 <= 400;\n"
      "chain.loss_rate <= 0.02\"; any breach on any seed's threads run makes\n"
      "the exit status nonzero. --prom writes the source telemetry registry\n"
      "of the last seed's threads run in Prometheus exposition format.\n");
  return 2;
}

int Main(int argc, char** argv) {
  SoakOptions opt;
  opt.common.seed_count = 3;
  opt.common.sample_interval_us = 100;
  std::string spec_path;
  soak::Flags flags;
  soak::AddCommonFlags(flags, opt.common);
  soak::AddLatticeFlags(flags, opt.common);
  flags.Number("--requests", &opt.requests);
  flags.Number("--gap-us", &opt.gap_us);
  flags.Text("--spec", &spec_path);
  if (!flags.Parse(argc, argv)) {
    return Usage();
  }
  if (!spec_path.empty()) {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "chain_soak: cannot read %s\n", spec_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    opt.spec_text = text.str();
  }
  const soak::CommonOptions& common = opt.common;
  if (common.threads == 0 || common.seed_count == 0 || opt.requests == 0 || opt.gap_us == 0 ||
      common.sample_interval_us == 0) {
    return Usage();
  }
  const auto slo_clauses = soak::ParseSlo(kTool, common.slo_text);
  if (!slo_clauses) {
    return 2;
  }

  std::printf("chain_soak: seeds=[%llu..%llu] threads={1,%zu} requests=%zu (+%zu prewarm)\n",
              static_cast<unsigned long long>(common.first_seed),
              static_cast<unsigned long long>(common.first_seed + common.seed_count - 1),
              common.threads, opt.requests, kPrewarmKeys);

  bool all_ok = true;
  for (u64 k = 0; k < common.seed_count; ++k) {
    const u64 seed = common.first_seed + k;
    const soak::Lattice<RunOutcome> runs = soak::RunLattice(
        seed, common.threads, [&opt](u64 s, usize threads) { return RunOnce(s, threads, opt); });
    const RunOutcome& parallel = runs.parallel;

    std::vector<std::string> violations = CheckInvariants(parallel);
    if (runs.serial.ok && runs.replay.ok && violations.empty()) {
      soak::CompareLattice(Fingerprint(runs.serial), Fingerprint(parallel),
                           Fingerprint(runs.replay), common.threads, violations);
    } else if (!runs.serial.ok) {
      violations.push_back(runs.serial.detail);
    } else if (!runs.replay.ok) {
      violations.push_back(runs.replay.detail);
    }
    // SLO gate on the threads run: a breach is a failure in its own right,
    // even with every determinism/flow invariant intact.
    const obs::SloReport slo = obs::EvaluateSlo(*slo_clauses, MakeSoakLookup(parallel));
    if (!slo.ok) {
      violations.push_back("slo: breach (see clause report)");
    }
    all_ok = all_ok && violations.empty();

    std::printf("seed=%llu  events=%llu  chain=%016llx log=%016llx  %s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(parallel.events_executed),
                static_cast<unsigned long long>(parallel.chain_digest),
                static_cast<unsigned long long>(parallel.log_digest),
                violations.empty() ? "ok" : "VIOLATIONS");
    for (const std::string& v : violations) {
      std::printf("  %s\n", v.c_str());
    }
    if (!slo.checks.empty()) {
      std::printf("%s", obs::FormatSloReport(slo).c_str());
    }
    if (k == 0 || !violations.empty()) {
      std::printf("%s", parallel.decomposition.c_str());
    }
    if (!common.log_dir.empty()) {
      WriteSeedArtifacts(opt, seed, runs, violations, slo);
    }
    if (!common.prom_path.empty() && k + 1 == common.seed_count) {
      all_ok = soak::WritePrometheus(kTool, common.prom_path, parallel.telemetry.prom_text, "  ") &&
               all_ok;
    }
  }
  return soak::Finish(kTool, all_ok);
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
