// chain_t1: the specs/chain_soak.spec pipeline (filter on the FPGA target ->
// nat -> l1cache -> memcached pool, one host each around a hub) at
// threads=1, below saturation. Host time goes to simulator events, the
// chain's credit flow and the runner's epoch planning; the FPGA filter stage
// sits mostly idle, so the kernel's fast-forward path runs instead of its
// busy path.
#include <deque>
#include <fstream>
#include <optional>
#include <sstream>

#include "hostbench/bench.h"
#include "src/chain/scenario_build.h"
#include "src/chain/stage_factory.h"
#include "src/obs/decompose.h"
#include "src/obs/pulse.h"
#include "src/obs/trace.h"
#include "src/services/l3l4_filter.h"
#include "src/services/memcached_service.h"
#include "src/sim/memaslap.h"

namespace hostbench {
namespace {

using emu::Packet;

constexpr const char* kSpecPath = "specs/chain_soak.spec";
constexpr usize kFullRequests = 50'000;
constexpr usize kTimedRequests = 2'000;
// Several times the cache stage's 64 entries, so GETs take both the L1 hit
// path and the miss path to the pool.
constexpr usize kKeySpace = 200;
// Each of the four stages serves a request twice (forward and reply) at
// 10 us per frame; one request every 25 us keeps the busiest stage below
// saturation, so the source never sheds.
constexpr Picoseconds kGap = 25 * emu::kPicosPerMicro;

// Chain counters summed over the stages.
struct ChainCounters {
  u64 serviced = 0;
  u64 wasted = 0;  // ignored + flood_dropped
  u64 credits = 0;
  u64 lost_backpressure = 0;
};

ChainCounters ReadChain(emu::ChainRuntime& chain) {
  ChainCounters c;
  for (usize i = 0; i < chain.stage_count(); ++i) {
    emu::ChainStageNode& s = chain.stage(i);
    c.serviced += s.serviced_forward() + s.serviced_reply();
    c.wasted += s.ignored() + s.flood_dropped();
    c.credits += s.credits_sent();
    c.lost_backpressure += s.lost_backpressure();
  }
  return c;
}

u64 LinkFrames(emu::TopologyBuilder& topo) {
  u64 frames = 0;
  for (usize i = 0; i < topo.host_count(); ++i) {
    if (const emu::Link* link = topo.uplink(i)) {
      frames += link->delivered();
    }
  }
  return frames;
}

}  // namespace

RoundResult RunChainT1(const RoundConfig& config) {
  RoundResult r;
  SpanLog* log = config.spans;
  const usize requests = config.full ? kFullRequests : kTimedRequests;
  r.attempted = requests;

  double t = WallSeconds();
  Scope parse(log, "setup.parse", Layer::kSetup);
  std::ifstream in(kSpecPath);
  std::ostringstream text;
  text << in.rdbuf();
  const emu::Expected<emu::ScenarioSpec> spec = emu::ParseScenarioSpec(text.str());
  parse.End();
  r.parse_s = WallSeconds() - t;
  if (!in || !spec.ok()) {
    r.error = std::string("chain_t1: cannot parse ") + kSpecPath +
              (spec.ok() ? "" : ": " + spec.status().ToString());
    return r;
  }

  t = WallSeconds();
  Scope build(log, "setup.build", Layer::kSetup);
  emu::Expected<std::unique_ptr<emu::Scenario>> built = emu::BuildScenario(*spec);
  build.End();
  r.build_s = WallSeconds() - t;
  if (!built.ok() || !(*built)->has_chain) {
    r.error = "chain_t1: cannot build the scenario" +
              (built.ok() ? std::string() : ": " + built.status().ToString());
    return r;
  }
  emu::Scenario& scenario = **built;
  emu::ChainRuntime& chain = scenario.chain;
  // The FPGA filter stage's simulator is reached through the filter's
  // embedded switch table, a Module on that simulator.
  emu::Simulator* filter_sim = nullptr;
  emu::MemcachedService* l1 = nullptr;
  for (usize i = 0; i < scenario.spec.stages.size(); ++i) {
    const std::string& kind = scenario.spec.stages[i].kind;
    if (kind == "filter") {
      auto& filter = dynamic_cast<emu::L3L4Filter&>(*scenario.services[i]);
      filter_sim = &dynamic_cast<const emu::Module&>(filter.embedded_switch().table()).sim();
    } else if (kind == "l1cache") {
      l1 = dynamic_cast<emu::MemcachedService*>(scenario.services[i].get());
    }
  }
  if (filter_sim == nullptr || l1 == nullptr) {
    r.error = "chain_t1: the spec has no filter or l1cache stage";
    return r;
  }
  if (config.traced()) {
    filter_sim->SetProfilingMode(emu::ProfilingMode::kSampled);
  }

  emu::MemaslapConfig mc;
  mc.server_mac = emu::CanonicalMemcachedConfig().mac;
  mc.server_ip = emu::CanonicalMemcachedConfig().ip;
  mc.client_ip = emu::Ipv4Address(192, 168, 1, 10);
  mc.key_space = kKeySpace;
  mc.seed = config.seed;
  emu::MemaslapLoadgen gen(mc);
  emu::EventScheduler& clock = scenario.topology.host(scenario.source_host).scheduler();
  const emu::ParallelRunOptions run_options{.threads = config.threads,
                                            .max_events = 1'000'000'000};

  // Memcached prewarm: one SET per key through the whole chain.
  t = WallSeconds();
  Scope warm(log, "setup.warm", Layer::kSetup);
  u64 warm_replies = 0;
  u64 warm_shed = 0;
  chain.SetSourceReplyHandler([&warm_replies](Packet) { ++warm_replies; });
  OpenLoop prewarm(clock, kGap, gen.prewarm_count(), [&](usize i, Picoseconds) {
    warm_shed += chain.SourceSend(gen.PrewarmFrame(i)) ? 0 : 1;
  });
  prewarm.Start(clock.now() + kGap);
  scenario.Run(run_options);
  warm.End();
  r.warm_s = WallSeconds() - t;
  if (warm_shed != 0 || warm_replies != gen.prewarm_count()) {
    r.error = "chain_t1: prewarm got " + std::to_string(warm_replies) + " replies for " +
              std::to_string(gen.prewarm_count()) + " SETs";
    return r;
  }

  emu::ParallelRunner& runner = scenario.topology.runner();
  const u64 epochs0 = runner.epochs();
  const u64 sweeps0 = runner.relax_sweeps();
  const u64 drained0 = runner.frames_drained();
  const ChainCounters chain0 = ReadChain(chain);
  const u64 shed0 = chain.source_shed();
  const u64 link0 = LinkFrames(scenario.topology);
  const u64 forwarded0 = scenario.topology.hub().forwarded();
  const u64 flooded0 = scenario.topology.hub().flooded();
  const u64 gets0 = l1->gets();
  const u64 hits0 = l1->get_hits();
  const emu::SimProfile kernel0 = filter_sim->ProfileReport();

  std::deque<Picoseconds> in_flight;
  r.latency_ps.reserve(requests);
  Fnv replies_digest;
  chain.SetSourceReplyHandler([&](Packet reply) {
    Scope span(log, "harness.reply", Layer::kHarness,
               static_cast<std::int64_t>(r.completed));
    ++r.completed;
    if (!in_flight.empty()) {
      r.latency_ps.push_back(clock.now() - in_flight.front());
      in_flight.pop_front();
    }
    replies_digest.Add(static_cast<u64>(clock.now()));
    replies_digest.Add(reply.size());
  });
  OpenLoop client(clock, kGap, requests, [&](usize i, Picoseconds due) {
    const auto id = static_cast<std::int64_t>(i);
    Scope load(log, "loadgen.next", Layer::kLoadgen, id);
    Packet frame = gen.WorkloadFrame(i);
    load.End();
    Scope send(log, "chain.source_send", Layer::kChain, id);
    if (chain.SourceSend(std::move(frame))) {
      in_flight.push_back(due);
    }
  });
  client.Start(clock.now() + kGap);

  // The chain's emulated-time trace (for the per-stage queue waits).
  std::optional<emu::obs::TraceSession> trace;
  emu::obs::RunnerPulse pulse;
  if (config.traced()) {
    trace.emplace();
    trace->Install();
    runner.AttachPulse(&pulse);
  }
  const double cpu0 = ProcessCpuSeconds();
  t = WallSeconds();
  Scope run(log, "sim.run", Layer::kSim);
  if (log != nullptr) {
    log->Adopt(run.handle());
  }
  const u64 events = scenario.Run(run_options);
  if (log != nullptr) {
    log->Unadopt();
  }
  run.End();
  r.measure_s = WallSeconds() - t;
  r.measure_cpu_s = ProcessCpuSeconds() - cpu0;
  if (config.traced()) {
    runner.AttachPulse(nullptr);
    emu::obs::TraceSession::Detach();
  }

  Scope check(log, "check.outputs", Layer::kCheck);
  std::vector<emu::Finding> findings;
  chain.CollectFindings(findings);
  // The load is below saturation, so a shed request is a failure like an
  // unanswered one, never a lighter round.
  const u64 shed = chain.source_shed() - shed0;
  if (!findings.empty()) {
    r.error = "chain_t1: " + findings.front().ToString();
  } else if (shed != 0) {
    r.error = "chain_t1: the source shed " + std::to_string(shed) + " of " +
              std::to_string(requests) + " requests";
  } else if (r.completed != requests || !in_flight.empty()) {
    r.error = "chain_t1: " + std::to_string(requests) + " requests sent but " +
              std::to_string(r.completed) + " answered";
  }
  // The chain's counters and the reply stream.
  Fnv digest;
  digest.Add(chain.Digest());
  digest.Add(replies_digest.value());
  r.digest = digest.value();
  check.End();

  const double req = static_cast<double>(requests);
  const u64 epochs = runner.epochs() - epochs0;
  const ChainCounters chain1 = ReadChain(chain);
  KernelDelta kernel;
  AddKernelDelta(kernel0, filter_sim->ProfileReport(), kernel);
  r.counts["hdl.edges_per_req"] = static_cast<double>(kernel.edges) / req;
  r.counts["sim.events_per_req"] = static_cast<double>(events) / req;
  r.counts["sim.runner.epochs_per_req"] = static_cast<double>(epochs) / req;
  r.counts["chain.credits_per_req"] = static_cast<double>(chain1.credits - chain0.credits) / req;

  if (config.traced()) {
    Scope analyze(log, "harness.analyze", Layer::kHarness);
    auto& L = r.layers;
    PutKernelLayers(kernel, requests, r.measure_s, L);
    const u64 gets = l1->gets() - gets0;
    L["services.l1_hit_ratio"] =
        gets == 0 ? 0.0 : static_cast<double>(l1->get_hits() - hits0) / static_cast<double>(gets);
    L["sim.ns_per_event"] = log->TotalNs("sim.run") / static_cast<double>(events);
    const u64 forwarded = scenario.topology.hub().forwarded() - forwarded0;
    const u64 flooded = scenario.topology.hub().flooded() - flooded0;
    L["sim.hub.flood_ratio"] = forwarded + flooded == 0
                                   ? 0.0
                                   : static_cast<double>(flooded) /
                                         static_cast<double>(forwarded + flooded);
    L["sim.link.frames_per_req"] =
        static_cast<double>(LinkFrames(scenario.topology) - link0) / req;
    L["sim.loadgen.ns_per_req"] = log->TotalNs("loadgen.next") / req;
    PutRunnerLayers(pulse, epochs, runner.relax_sweeps() - sweeps0,
                    runner.frames_drained() - drained0, events, requests, r.measure_s, L);
    const u64 serviced = chain1.serviced - chain0.serviced;
    const u64 wasted = chain1.wasted - chain0.wasted;
    L["chain.useful_frame_ratio"] =
        static_cast<double>(serviced) / static_cast<double>(serviced + wasted);
    L["chain.source_send_ns"] = log->TotalNs("chain.source_send") / req;
    L["chain.shed"] = static_cast<double>(shed);
    L["chain.lost_backpressure"] =
        static_cast<double>(chain1.lost_backpressure - chain0.lost_backpressure);
    std::vector<std::string> stage_order;
    for (usize i = 0; i < chain.stage_count(); ++i) {
      stage_order.push_back(chain.stage(i).name());
    }
    for (const emu::obs::StageDecomposition& row :
         emu::obs::DecomposeChainLatency(trace->MergedEvents(), stage_order)) {
      L["chain." + row.stage + ".queue_wait_us"] =
          row.queue.count == 0 ? 0.0
                               : emu::ToMicroseconds(row.queue.total) /
                                     static_cast<double>(row.queue.count);
    }
  }
  return r;
}

}  // namespace hostbench
