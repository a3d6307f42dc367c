// chaos_soak: every Table-4 service under randomized, seeded fault schedules.
//
// For each service (ICMP echo, TCP ping, DNS, NAT, Memcached) the harness
// builds a fresh FpgaTarget, registers the service's fault points with a
// FaultRegistry seeded from --seed, arms a fault plan (randomized from the
// seed unless --faults overrides it), and drives seeded traffic through an
// impaired ingress tap for --cycles cycles. The plan spans the fault classes
// the subsystem supports: link drop/corrupt/duplicate/reorder/delay at the
// tap, SEU bit flips in table state, FIFO stalls in the Memcached worker
// queues, NAT table exhaustion, and the §5.5 checksum fold bug.
//
// Invariants checked per service run (any violation exits nonzero):
//   - no crash and, under a sanitizer build, no sanitizer finding;
//   - no hazard report from the attached HazardMonitor (faults must surface
//     as degradation or counted drops, never as kernel-rule violations);
//   - counters balance: frames injected == egressed + pipeline drops +
//     service drops (nothing vanishes unaccounted);
//   - bounded recovery: after the plan is disarmed and the pipeline drains,
//     fresh requests are answered again within a bounded cycle budget.
//
// Determinism: with the same --seed every injection (site, cycle, detail)
// and every response byte replays exactly; --replay runs each soak twice and
// compares the fault-log and egress digests.
//
// emu-pulse additions: the soak loop samples each case's registry every
// ~1/256th of the run into a bounded TimeSeriesRecorder (the FpgaTarget has
// no EventScheduler, so sampling is manual, keyed to the cycle clock at the
// nominal 1 cycle = 1 ns the dashboards assume); --log-dir gets a dashboard
// HTML + series JSON per case. --slo CLAUSES gates each case's end-of-run
// metrics (e.g. "chaos.loss_rate <= 0.05; chaos.hazards <= 0"); --prom
// writes the last case's registry in Prometheus format, self-linted.
//
// Flags, seed lattice, artifacts and SLO exit codes: src/soak/soak.h.
//
// Usage:
//   chaos_soak [--seed N] [--cycles N] [--faults "<plan>"] [--replay]
//              [--service <name>] [--slo CLAUSES] [--prom FILE] [--verbose]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/chain/stage_factory.h"
#include "src/common/rng.h"
#include "src/core/metrics.h"
#include "src/core/targets.h"
#include "src/fault/fault_registry.h"
#include "src/fault/frame_impairer.h"
#include "src/net/dns.h"
#include "src/net/icmp.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/sim/loadgen.h"
#include "src/sim/memaslap.h"
#include "src/soak/soak.h"
#include "src/soak/workloads.h"

#ifdef EMU_ANALYSIS
#include "src/analysis/hazard_monitor.h"
#endif

namespace emu {
namespace {

constexpr char kTool[] = "chaos_soak";
const MacAddress kClientMac = MacAddress::FromU48(0x02'00'00'00'cc'99);
const Ipv4Address kClientIp(10, 0, 0, 9);

// One service under soak: construction, optional prewarm, traffic factory,
// and the metrics name of its drop counter (read through MetricsRegistry —
// the uniform counter surface, so no per-service getter plumbing).
//
// Services come from the stage factory (src/chain/stage_factory.h) and the
// traffic factories read addresses from the same Canonical*Config getters
// that configured them — one definition of each service's identity, shared
// with the chain scenarios.
struct SoakCase {
  std::unique_ptr<Service> service;
  std::function<void(FpgaTarget&)> prewarm;
  FrameFactory factory;
  std::vector<u8> ports = {0, 1, 2, 3};
  std::string dropped_metric;
};

// The kinds and attrs below are compile-time constants the factory always
// accepts; a failure is a programming error, not an input error.
std::unique_ptr<Service> MustMakeService(const std::string& kind, const StageAttrs& attrs) {
  Expected<std::unique_ptr<Service>> service = MakeStageService(kind, attrs);
  if (!service.ok()) {
    std::fprintf(stderr, "chaos_soak: cannot build %s: %s\n", kind.c_str(),
                 service.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*service);
}

SoakCase MakeIcmpCase() {
  SoakCase c;
  c.service = MustMakeService("icmp_echo", {});
  c.dropped_metric = "icmp.dropped";
  const IcmpEchoConfig config = CanonicalIcmpEchoConfig();
  c.factory = [config](usize i, u8) {
    return MakeIcmpEchoRequest(
        {config.mac, kClientMac, kClientIp, config.ip, static_cast<u16>(i), 0}, {});
  };
  return c;
}

SoakCase MakeTcpPingCase() {
  SoakCase c;
  c.service = MustMakeService("tcp_ping", {});
  c.dropped_metric = "tcp_ping.dropped";
  const TcpPingConfig config = CanonicalTcpPingConfig();
  c.factory = [config](usize i, u8) {
    TcpSegmentSpec spec{config.mac,
                        kClientMac,
                        kClientIp,
                        config.ip,
                        static_cast<u16>(20000 + (i % 20000)),
                        80,
                        static_cast<u32>(i),
                        0,
                        TcpFlags::kSyn};
    return MakeTcpSegment(spec);
  };
  return c;
}

SoakCase MakeDnsCase() {
  SoakCase c;
  // records=4 installs the same svc<i>.lab -> 10.1.0.<1+i> records the
  // factory below queries.
  c.service = MustMakeService("dns", {{"records", "4"}});
  c.dropped_metric = "dns.dropped";
  const DnsServiceConfig config = CanonicalDnsConfig();
  c.factory = [config](usize i, u8) {
    const std::string name = "svc" + std::to_string(i % 4) + ".lab";
    return MakeUdpPacket({config.mac, kClientMac, kClientIp, config.ip,
                          static_cast<u16>(5000 + i % 1000), kDnsPort},
                         BuildDnsQuery(static_cast<u16>(i), name));
  };
  return c;
}

SoakCase MakeNatCase() {
  SoakCase c;
  // max_mappings=256: reachable exhaustion within one soak;
  // evict_idle=10000: evict-idle-first under pressure.
  c.service = MustMakeService("nat", {{"max_mappings", "256"}, {"evict_idle", "10000"}});
  c.dropped_metric = "nat.dropped";
  const NatConfig config = CanonicalNatConfig();
  const MacAddress internal_mac = MacAddress::FromU48(0x02'00'00'00'11'10);
  c.factory = [config, internal_mac](usize i, u8 port) {
    const u8 in_port = static_cast<u8>(1 + port % 3);
    Packet frame = MakeUdpPacket(
        {config.internal_mac, internal_mac,
         Ipv4Address(192, 168, 1, static_cast<u8>(2 + i % 200)),
         Ipv4Address(8, 8, 8, 8), static_cast<u16>(1024 + i % 30000), 53},
        std::vector<u8>{'q'});
    frame.set_src_port(in_port);
    return frame;
  };
  c.ports = {1, 2, 3};
  return c;
}

SoakCase MakeMemcachedCase() {
  SoakCase c;
  c.service = MustMakeService("memcached", {});
  c.dropped_metric = "memcached.dropped";
  MemaslapConfig workload;
  const MemcachedConfig config = CanonicalMemcachedConfig();
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  auto loadgen = std::make_shared<MemaslapLoadgen>(workload);
  c.prewarm = [loadgen](FpgaTarget& target) {
    for (usize i = 0; i < loadgen->prewarm_count(); ++i) {
      target.SendAndCollect(0, loadgen->PrewarmFrame(i));
    }
    target.TakeEgress();
  };
  c.factory = [loadgen](usize i, u8) { return loadgen->WorkloadFrame(i); };
  return c;
}

// Randomized per-seed plan covering every fault class the services expose.
// Probabilities stay modest so most traffic flows and recovery is checkable;
// the burst window (table exhaustion + queue stalls) sits mid-run so the
// tail of the soak exercises recovery.
std::string RandomPlanText(u64 seed, u64 cycles) {
  Rng rng(seed ^ 0xC7A0'55ED'FA17'0001ull);
  const u64 burst_from = cycles / 4 + rng.NextBelow(cycles / 8 + 1);
  const u64 burst_until = burst_from + cycles / 8 + rng.NextBelow(cycles / 8 + 1);
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "ingress.drop bernoulli %.4f; "
      "ingress.corrupt bernoulli %.4f; "
      "ingress.dup bernoulli %.4f; "
      "ingress.reorder bernoulli %.4f; "
      "ingress.delay bernoulli %.4f %llu; "
      "nat.table_full burst %llu %llu 0.8; "
      "nat.flows bernoulli 0.00001; "
      "dns.table bernoulli 0.00001; "
      "memcached.queue* burst %llu %llu %.4f %llu; "
      "memcached.csum.fold oneshot %llu",
      0.002 + rng.NextDouble() * 0.008, 0.002 + rng.NextDouble() * 0.008,
      rng.NextDouble() * 0.004, rng.NextDouble() * 0.004,
      0.005 + rng.NextDouble() * 0.01,
      static_cast<unsigned long long>(1 + rng.NextBelow(40)),  // delay, cycles
      static_cast<unsigned long long>(burst_from),
      static_cast<unsigned long long>(burst_until),
      static_cast<unsigned long long>(burst_from),
      static_cast<unsigned long long>(burst_until),
      0.001 + rng.NextDouble() * 0.002,
      static_cast<unsigned long long>(200 + rng.NextBelow(1800)),  // stall len
      static_cast<unsigned long long>(cycles / 2));
  return buffer;
}

struct SoakOutcome {
  bool ok = true;
  u64 generated = 0;
  u64 tap_dropped = 0;
  u64 injected = 0;
  u64 egressed = 0;
  u64 pipeline_drops = 0;
  u64 service_dropped = 0;
  u64 faults_fired = 0;
  u64 fault_digest = 0;
  u64 egress_digest = 0;
  usize hazards = 0;
  bool balanced = false;
  bool recovered = false;
  std::string detail;
  // Carried for --log-dir artifacts: the exact plan that ran and the
  // registry's injection log, so a CI failure is replayable from the
  // uploaded file alone.
  std::string plan_used;
  std::string injection_log;
  // emu-pulse: sampled case telemetry + the end-of-run snapshot the SLO
  // gate evaluates, and the registry's Prometheus exposition.
  soak::Telemetry telemetry{512};
};

struct SoakOptions {
  // --seed; --log-dir gets per-case dashboards and failure artifacts; --slo
  // gates each case's end of run; --prom exposes the last case's registry.
  soak::CommonOptions common;
  u64 cycles = 1'000'000;
  std::string plan_text;  // empty: randomized from seed
};

SoakOutcome RunSoak(SoakCase c, const SoakOptions& opt) {
  SoakOutcome out;
  FpgaTarget target(*c.service);

#ifdef EMU_ANALYSIS
  HazardMonitor monitor(target.sim());
#endif

  if (c.prewarm) {
    c.prewarm(target);
  }

  const u64 seed = opt.common.first_seed;
  FaultRegistry registry(seed);
  c.service->RegisterFaultPoints(registry);
  FrameImpairer tap(registry, "ingress");
  // The simulator ticks the registry once per executed edge (and books
  // skipped-tick opportunities across quiescent jumps), so the soak loop no
  // longer single-steps the clock.
  target.sim().AttachFaultRegistry(&registry);

  MetricsRegistry metrics;
  c.service->RegisterMetrics(metrics);
  metrics.Register("faults.fired", [&registry] { return registry.fired_total(); });

  const std::string plan_text =
      opt.plan_text.empty() ? RandomPlanText(seed, opt.cycles) : opt.plan_text;
  out.plan_used = plan_text;
  const Expected<FaultPlan> plan = ParseFaultPlan(plan_text);
  if (!plan.ok()) {
    out.ok = false;
    out.detail = "bad fault plan: " + plan.status().ToString();
    return out;
  }
  registry.ArmPlan(*plan);
  if (opt.common.verbose) {
    std::printf("  plan: %s\n", plan_text.c_str());
  }

  // Baselines so prewarm traffic does not enter the balance.
  NetFpgaPipeline& pipe = target.pipeline();
  const u64 base_in = pipe.injected();
  const u64 base_out = pipe.egressed();
  const u64 base_pipe_drop = pipe.rx_drops() + pipe.tx_drops();
  // TryGet: a typo'd drop-counter name must fail the case, not silently read
  // 0 and let an unbalanced soak pass.
  const std::optional<u64> base_svc_drop = metrics.TryGet(c.dropped_metric);
  if (!base_svc_drop.has_value()) {
    out.ok = false;
    out.detail = "unknown drop metric: " + c.dropped_metric;
    return out;
  }

  // --- Soak loop: traffic through the impaired tap; the attached registry
  // samples the SEU/stall callback targets per edge inside Run(). ---
  constexpr u64 kFrameGap = 197;  // prime, avoids beating with burst windows
  usize frame_index = 0;
  std::optional<std::pair<u8, Packet>> held;  // reorder: overtaken frame
  const auto emit = [&](u8 port, Packet frame, Cycle at) {
    target.Inject(port, std::move(frame), at);
    ++out.injected;
  };
  // Manual telemetry sampling (no EventScheduler on an FpgaTarget): one
  // registry snapshot every ~1/256th of the soak, timestamped at the
  // nominal 1 cycle = 1 ns so the dashboard's per-second rates read as
  // per-gigacycle. The extra getters make the flow visible alongside the
  // service counters.
  metrics.Register("chaos.injected", [&pipe] { return pipe.injected(); });
  metrics.Register("chaos.egressed", [&pipe] { return pipe.egressed(); });
  const u64 sample_every = std::max<u64>(kFrameGap, opt.cycles / 256);
  u64 next_sample = 0;
  for (u64 cycle = 0; cycle < opt.cycles; cycle += kFrameGap) {
    const Cycle now = target.sim().now();
    if (cycle >= next_sample) {
      out.telemetry.series.Record(static_cast<Picoseconds>(now) * kPicosPerNano,
                                  metrics.Snapshot());
      next_sample += sample_every;
    }
    {
      const u8 port = c.ports[frame_index % c.ports.size()];
      Packet frame = c.factory(frame_index, port);
      ++frame_index;
      ++out.generated;
      const FrameImpairer::Decision d = tap.Decide(now, frame.size());
      if (d.drop) {
        ++out.tap_dropped;
      } else {
        if (d.corrupt_bit != FrameImpairer::kNoCorrupt) {
          FrameImpairer::FlipBit(frame, d.corrupt_bit);
        }
        // The tap runs on the cycle clock, so delay magnitudes are cycles.
        const Cycle at = now + static_cast<Cycle>(d.extra_delay_ps);
        if (d.duplicate) {
          emit(port, frame, at);
        }
        if (d.reorder && !held.has_value()) {
          held = {port, std::move(frame)};  // next frame overtakes this one
        } else {
          emit(port, std::move(frame), at);
          if (held.has_value()) {
            emit(held->first, std::move(held->second), at);
            held.reset();
          }
        }
      }
    }
    target.Run(std::min(kFrameGap, opt.cycles - cycle));
  }
  if (held.has_value()) {
    emit(held->first, std::move(held->second), target.sim().now());
  }

  // --- Recovery: disarm everything, drain, then fresh requests must flow. ---
  registry.DisarmAll();
  target.Run(300'000);  // covers the longest stall magnitude plus queue drain

  const u64 in = pipe.injected() - base_in;
  const u64 egress_count = pipe.egressed() - base_out;
  out.egressed = egress_count;
  out.pipeline_drops = pipe.rx_drops() + pipe.tx_drops() - base_pipe_drop;
  out.service_dropped =
      metrics.TryGet(c.dropped_metric).value_or(*base_svc_drop) - *base_svc_drop;
  out.faults_fired = registry.fired_total();
  out.fault_digest = registry.LogDigest();
  out.injection_log = registry.Summary();
  out.telemetry.series.Record(static_cast<Picoseconds>(target.sim().now()) * kPicosPerNano,
                              metrics.Snapshot());
  out.telemetry.final_metrics = metrics.Snapshot();
  out.telemetry.prom_text = metrics.PrometheusText();
  out.balanced =
      in == out.injected &&
      in == egress_count + out.pipeline_drops + out.service_dropped;

  out.egress_digest = soak::EgressDigest(target.TakeEgress());

  usize probe_ok = 0;
  constexpr usize kProbes = 10;
  for (usize i = 0; i < kProbes; ++i) {
    const u8 port = c.ports[i % c.ports.size()];
    if (target.SendAndCollect(port, c.factory(frame_index + i, port), 100'000).ok()) {
      ++probe_ok;
    }
  }
  out.recovered = probe_ok >= 8;

#ifdef EMU_ANALYSIS
  out.hazards = monitor.reports().size();
  if (out.hazards != 0) {
    out.detail = monitor.Summary();
  }
#endif

  out.ok = out.balanced && out.recovered && out.hazards == 0;
  if (!out.balanced) {
    out.detail += "counter imbalance: injected=" + std::to_string(in) +
                  " egressed=" + std::to_string(egress_count) +
                  " pipeline_drops=" + std::to_string(out.pipeline_drops) +
                  " service_dropped=" + std::to_string(out.service_dropped) + "\n";
  }
  if (!out.recovered) {
    out.detail += "recovery failed: " + std::to_string(probe_ok) + "/" +
                  std::to_string(kProbes) + " probes answered\n";
  }
  if (opt.common.verbose) {
    std::printf("%s", registry.Summary().c_str());
    std::printf("%s", metrics.Format().c_str());
  }
  return out;
}

// SLO lookup per case: harness-derived values first, then the end-of-run
// registry snapshot (histogram derived views already expanded).
obs::SloLookup MakeCaseLookup(const SoakOutcome& out) {
  const u64 lost = out.tap_dropped + out.pipeline_drops + out.service_dropped;
  const double loss_rate =
      out.generated == 0 ? 0.0 : static_cast<double>(lost) / static_cast<double>(out.generated);
  return soak::SnapshotLookup({{"chaos.loss_rate", loss_rate},
                               {"chaos.recovered", out.recovered ? 1.0 : 0.0},
                               {"chaos.hazards", static_cast<double>(out.hazards)},
                               {"chaos.faults_fired", static_cast<double>(out.faults_fired)}},
                              out.telemetry.final_metrics);
}

// Dashboard + series JSON for one case (written for every case when
// --log-dir is set, not just failures — a green soak's telemetry is the
// baseline the red one is diffed against).
void WriteCaseDashboard(const SoakOptions& opt, const std::string& name,
                        const SoakOutcome& out, const obs::SloReport& slo) {
  const std::string seed = std::to_string(opt.common.first_seed);
  obs::DashboardOptions dash;
  dash.title = "chaos_soak " + name + " seed " + seed;
  dash.subtitle = std::to_string(opt.cycles) + " cycles; plan: " + out.plan_used;
  const std::vector<obs::ChartSpec> charts = {
      {"Flow", "frames/s (1 cyc = 1 ns)", {"chaos.injected", "chaos.egressed"}, true},
      {"Faults fired (cumulative)", "injections", {"faults.fired"}, false},
  };
  soak::WriteTelemetry(kTool, opt.common.log_dir + "/" + name + "_seed" + seed, dash, charts,
                       out.telemetry, slo);
}

void PrintOutcome(const std::string& name, const SoakOutcome& out, u64 seed) {
  std::printf(
      "%-10s seed=%llu  frames=%llu (tap-dropped %llu)  egress=%llu  "
      "drops[pipe %llu, svc %llu]  faults=%llu  hazards=%zu  %s%s\n",
      name.c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(out.generated),
      static_cast<unsigned long long>(out.tap_dropped),
      static_cast<unsigned long long>(out.egressed),
      static_cast<unsigned long long>(out.pipeline_drops),
      static_cast<unsigned long long>(out.service_dropped),
      static_cast<unsigned long long>(out.faults_fired), out.hazards,
      out.balanced ? "balanced" : "IMBALANCED",
      out.ok ? (out.recovered ? ", recovered" : "") : " -- FAIL");
  if (!out.detail.empty()) {
    std::printf("%s", out.detail.c_str());
  }
}

// One file per failing case under --log-dir (the directory must exist; CI
// creates it and uploads it as an artifact): the plan, both digests, the
// injection log, and the failure detail — everything a replay needs.
void WriteFailureArtifact(const SoakOptions& opt, const std::string& name,
                          const SoakOutcome& out, const SoakOutcome* replay) {
  const std::string seed = std::to_string(opt.common.first_seed);
  char digests[160];
  std::snprintf(digests, sizeof(digests), "fault digest: %016llx\negress digest: %016llx\n",
                static_cast<unsigned long long>(out.fault_digest),
                static_cast<unsigned long long>(out.egress_digest));
  std::string text = "case " + name + " seed " + seed + " cycles " +
                     std::to_string(opt.cycles) + "\nplan: " + out.plan_used + "\n" + digests;
  if (replay != nullptr) {
    char replayed[160];
    std::snprintf(replayed, sizeof(replayed),
                  "REPLAY DIVERGED\nreplay fault digest: %016llx\nreplay egress digest: "
                  "%016llx\n",
                  static_cast<unsigned long long>(replay->fault_digest),
                  static_cast<unsigned long long>(replay->egress_digest));
    text += replayed;
  }
  if (!out.detail.empty()) {
    text += "detail:\n" + out.detail;
  }
  text += "\ninjection log:\n" + out.injection_log;
  soak::WriteFileOrWarn(kTool, opt.common.log_dir + "/" + name + "_seed" + seed + ".txt", text);
}

int Usage() {
  std::printf(
      "usage: chaos_soak [--seed N] [--cycles N] [--faults \"<plan>\"]\n"
      "                  [--replay] [--service <name>] [--log-dir DIR]\n"
      "                  [--slo CLAUSES] [--prom FILE] [--verbose]\n"
      "services: icmp_echo tcp_ping dns nat memcached (default: all)\n"
      "--slo gates every case's end-of-run metrics, e.g.\n"
      "  \"chaos.loss_rate <= 0.05; chaos.hazards <= 0; chaos.recovered >= 1\"\n"
      "plan: \"<point> oneshot <tick> | bernoulli <p> | burst <from> <until> <p>"
      " [magnitude]\" entries, ';'-separated\n");
  return 2;
}

int Main(int argc, char** argv) {
  SoakOptions opt;
  bool replay = false;
  std::string only_service;
  soak::Flags flags;
  soak::AddCommonFlags(flags, opt.common);
  flags.Number("--cycles", &opt.cycles);
  flags.Text("--faults", &opt.plan_text);
  flags.Switch("--replay", &replay);
  flags.Text("--service", &only_service);
  if (!flags.Parse(argc, argv)) {
    return Usage();
  }
  const soak::CommonOptions& common = opt.common;
  const auto slo_clauses = soak::ParseSlo(kTool, common.slo_text);
  if (!slo_clauses) {
    return 2;
  }

  using CaseMaker = SoakCase (*)();
  const std::pair<const char*, CaseMaker> cases[] = {
      {"icmp_echo", MakeIcmpCase}, {"tcp_ping", MakeTcpPingCase},
      {"dns", MakeDnsCase},        {"nat", MakeNatCase},
      {"memcached", MakeMemcachedCase},
  };

  std::printf("chaos_soak: seed=%llu cycles=%llu%s\n",
              static_cast<unsigned long long>(common.first_seed),
              static_cast<unsigned long long>(opt.cycles), replay ? " (replay check)" : "");
  bool all_ok = true;
  bool matched = false;
  for (const auto& [name, make] : cases) {
    if (!only_service.empty() && only_service != name) {
      continue;
    }
    matched = true;
    const SoakOutcome first = RunSoak(make(), opt);
    PrintOutcome(name, first, common.first_seed);
    all_ok = all_ok && first.ok;

    const obs::SloReport slo = obs::EvaluateSlo(*slo_clauses, MakeCaseLookup(first));
    if (!slo.checks.empty()) {
      std::printf("%s", obs::FormatSloReport(slo).c_str());
    }
    all_ok = all_ok && slo.ok;

    if (!common.log_dir.empty()) {
      WriteCaseDashboard(opt, name, first, slo);
    }
    if (!first.ok && !common.log_dir.empty()) {
      WriteFailureArtifact(opt, name, first, nullptr);
    }
    if (!common.prom_path.empty()) {
      char indent[32];
      std::snprintf(indent, sizeof(indent), "%-10s ", name);
      all_ok =
          soak::WritePrometheus(kTool, common.prom_path, first.telemetry.prom_text, indent) &&
          all_ok;
    }
    if (replay && first.ok) {
      const SoakOutcome second = RunSoak(make(), opt);
      const bool same = second.fault_digest == first.fault_digest &&
                        second.egress_digest == first.egress_digest;
      std::printf("%-10s replay: %s (faults %016llx, egress %016llx)\n", name,
                  same ? "bit-exact" : "DIVERGED",
                  static_cast<unsigned long long>(second.fault_digest),
                  static_cast<unsigned long long>(second.egress_digest));
      all_ok = all_ok && same;
      if (!same && !common.log_dir.empty()) {
        WriteFailureArtifact(opt, name, first, &second);
      }
    }
  }
  if (!matched) {
    return Usage();
  }
  return soak::Finish(kTool, all_ok);
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
