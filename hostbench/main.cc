// hostbench: one workload of the emulator's host-time benchmark per run.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1 [--git-sha SHA]
//
// Runs one full round of the workload untimed (the emulated latencies and
// counts), then repeats shorter timed rounds (at least three, then until S
// seconds have passed), checks every round's outputs and that all timed
// rounds agree on everything emulated, and prints a human-readable report
// followed by one JSON result line. --trace 0 reports the end-to-end metrics with tracing
// and profiling off; --trace 1 records spans and the sampled kernel profiler
// and reports the per-layer metrics instead. See README.md.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hostbench/bench.h"

namespace hostbench {
namespace {

constexpr usize kMinRounds = 3;

// Every workload runs at threads=1. One that runs on the ParallelRunner also
// runs one timed-size round, untimed, at `twin_threads`, which must agree
// exactly with its threads=1 rounds; 0 means no twin.
struct Workload {
  const char* name;
  RoundResult (*run)(const RoundConfig&);
  usize twin_threads;
};

constexpr Workload kWorkloads[] = {
    {"switch_linerate", RunSwitchLinerate, 0},
    {"chain_t1", RunChainT1, 2},
};

// Per-layer metrics that only mean something with more than one runner
// thread; the traced run takes them from the twin round.
constexpr const char* kTwinLayers[] = {"sim.runner.barrier_wait_share",
                                       "sim.runner.parallel_efficiency"};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Per-layer metrics of the traced run; a workload that does not exercise a
// layer reports 0 for it.
constexpr MetricDef kLayerMetrics[] = {
    {"hdl.edges_per_req", "count"},
    {"hdl.ns_per_edge", "ns"},
    {"hdl.ff_cycle_ratio", "ratio"},
    {"hdl.jumps_per_req", "count"},
    {"hdl.resume_dispatch_share", "ratio"},
    {"hdl.commit_sweep_share", "ratio"},
    {"hdl.quiescence_scan_share", "ratio"},
    {"hdl.fast_forward_share", "ratio"},
    {"hdl.poll_useful_ratio", "ratio"},
    {"netfpga.busy_share", "ratio"},
    {"netfpga.drops", "count"},
    {"services.busy_share", "ratio"},
    {"services.switch_hit_ratio", "ratio"},
    {"services.l1_hit_ratio", "ratio"},
    {"sim.events_per_req", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.hub.flood_ratio", "ratio"},
    {"sim.link.frames_per_req", "count"},
    {"sim.loadgen.ns_per_req", "ns"},
    {"sim.runner.epochs_per_req", "count"},
    {"sim.runner.events_per_epoch", "count"},
    {"sim.runner.relax_sweeps_per_epoch", "count"},
    {"sim.runner.plan_share", "ratio"},
    {"sim.runner.barrier_wait_share", "ratio"},
    {"sim.runner.parallel_efficiency", "ratio"},
    {"sim.runner.frames_drained_per_req", "count"},
    {"chain.credits_per_req", "count"},
    {"chain.useful_frame_ratio", "ratio"},
    {"chain.source_send_ns", "ns"},
    {"chain.shed", "count"},
    {"chain.lost_backpressure", "count"},
    {"chain.filter.queue_wait_us", "emu_us"},
    {"chain.nat.queue_wait_us", "emu_us"},
    {"chain.cache.queue_wait_us", "emu_us"},
    {"chain.pool.queue_wait_us", "emu_us"},
    {"setup.parse_ns", "ns"},
    {"setup.build_ns", "ns"},
    {"setup.warm_ns", "ns"},
    {"self.unattributed_s", "s"},
    {"self.setup_s", "s"},
    {"self.harness_s", "s"},
    {"self.loadgen_s", "s"},
    {"self.hdl_s", "s"},
    {"self.sim_s", "s"},
    {"self.chain_s", "s"},
    {"self.check_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.req_per_s", "1/s"},
};

// The four counts every run reports; they must repeat exactly per seed.
constexpr const char* kCounts[] = {"hdl.edges_per_req", "sim.events_per_req",
                                   "sim.runner.epochs_per_req", "chain.credits_per_req"};

// Nearest-rank quantile, so the result is always one of the samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const usize rank = static_cast<usize>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<usize>(rank, 1) - 1];
}

// Nearest-rank percentile of emulated latency, in microseconds.
double PercentileUs(const std::vector<Picoseconds>& samples, double p) {
  std::vector<double> us;
  us.reserve(samples.size());
  for (Picoseconds s : samples) {
    us.push_back(emu::ToMicroseconds(s));
  }
  return Quantile(std::move(us), p);
}

// --- host stamp ---

u64 SpinFor(double seconds) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  u64 x = 88172645463325252ull;
  u64 iterations = 0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iterations += 4096;
  }
  return iterations + (x & 1);
}

// How many cores' worth of ALU work `threads` spinning threads get done
// relative to one thread alone: the parallelism the host actually delivers.
double EffectiveParallelism(unsigned threads) {
  constexpr double kSpinS = 0.1;
  const double single = static_cast<double>(SpinFor(kSpinS));
  std::atomic<u64> total{0};
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([&total] { total += SpinFor(kSpinS); });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return static_cast<double>(total.load()) / single;
}

// Peak resident memory of this process image, in MiB. The kernel's VmHWM
// starts afresh at exec, unlike getrusage's ru_maxrss, which would also count
// the launcher's memory.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string HostStamp(const std::string& git_sha) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
#ifdef EMU_ANALYSIS
  const bool analysis = true;
#else
  const bool analysis = false;
#endif
#ifdef EMU_TRACE
  const bool trace = true;
#else
  const bool trace = false;
#endif
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"hardware_concurrency\": " + std::to_string(hw) +
         ", \"effective_parallelism\": " + JsonNumber(EffectiveParallelism(hw)) +
         ", \"compiler\": " + JsonString(__VERSION__) +
         ", \"build_type\": " + JsonString(HOSTBENCH_BUILD_TYPE) +
         ", \"emu_analysis\": " + (analysis ? "true" : "false") +
         ", \"emu_trace\": " + (trace ? "true" : "false") +
         ", \"git_sha\": " + JsonString(git_sha) + "}";
}

// --- comparison of emulated outputs ---

struct Emulated {
  u64 digest = 0;
  u64 attempted = 0;
  u64 completed = 0;
  double p50_us = 0;
  double p999_us = 0;
  std::map<std::string, double> counts;

  bool operator==(const Emulated&) const = default;
};

Emulated EmulatedOf(const RoundResult& r) {
  return {r.digest,
          r.attempted,
          r.completed,
          PercentileUs(r.latency_ps, 0.5),
          PercentileUs(r.latency_ps, 0.999),
          r.counts};
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload switch_linerate|chain_t1 --seed N\n"
               "                 --seconds S --trace 0|1 [--git-sha SHA]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string git_sha = "unknown";
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  if (argc % 2 == 0 || workload == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  const std::string stamp = HostStamp(git_sha);
  std::printf("hostbench: workload=%s seed=%llu seconds=%g trace=%d\n", workload->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("host: %s\n", stamp.c_str());

  std::vector<std::string> errors;
  RoundConfig config;
  config.seed = seed;
  SpanLog spans;

  // The full round, untimed, gives the emulated latency percentiles and the
  // deterministic counts.
  u64 attempted = 0;
  u64 failed = 0;
  const RoundResult full_round = workload->run(config);
  if (!full_round.error.empty()) {
    errors.push_back("full round: " + full_round.error);
  }
  attempted += full_round.attempted;
  failed += full_round.attempted - full_round.completed;
  const Emulated full = EmulatedOf(full_round);

  config.full = false;
  if (trace == 1) {
    config.spans = &spans;
  }
  std::optional<RoundResult> twin;
  if (workload->twin_threads > 1) {
    RoundConfig twin_config = config;
    twin_config.threads = workload->twin_threads;
    twin = workload->run(twin_config);
    if (!twin->error.empty()) {
      errors.push_back("threads=" + std::to_string(twin_config.threads) +
                       " twin: " + twin->error);
    }
    attempted += twin->attempted;
    failed += twin->attempted - twin->completed;
  }

  std::vector<RoundResult> rounds;
  std::vector<Emulated> emulated;
  std::map<std::string, double> self_s;
  double trace_wall_s = 0;
  const double loop_start = WallSeconds();
  while (rounds.size() < kMinRounds || WallSeconds() - loop_start < seconds) {
    spans.Clear();
    Scope root(config.spans, "round", Layer::kRound, static_cast<std::int64_t>(rounds.size()));
    rounds.push_back(workload->run(config));
    root.End();
    // Keep each round's summary, not its samples: peak memory stays that of
    // one round however many rounds run.
    emulated.push_back(EmulatedOf(rounds.back()));
    rounds.back().latency_ps = std::vector<Picoseconds>();
    if (trace == 1) {
      self_s = spans.SelfSeconds();
      trace_wall_s = spans.RootSeconds();
    }
    const RoundResult& last = rounds.back();
    std::printf("round %zu: req_per_s=%.1f cpu_us_per_req=%.3f setup_s=%.9f peak_rss_mb=%.3f\n",
                rounds.size() - 1, static_cast<double>(last.completed) / last.measure_s,
                last.measure_cpu_s * 1e6 / static_cast<double>(std::max<u64>(last.completed, 1)),
                last.parse_s + last.build_s + last.warm_s, PeakRssMiB());
    if (!rounds.back().error.empty()) {
      errors.push_back(rounds.back().error);
      break;
    }
  }

  const Emulated& first = emulated.front();
  for (usize i = 1; i < emulated.size(); ++i) {
    if (!(emulated[i] == first)) {
      errors.push_back("timed round " + std::to_string(i) +
                       " differs from timed round 0 in emulated outputs (digest, latency or "
                       "counts)");
    }
  }
  if (twin && !(EmulatedOf(*twin) == first)) {
    errors.push_back("the threads=" + std::to_string(workload->twin_threads) +
                     " twin differs from the threads=1 rounds in emulated outputs");
  }

  // Host times are per round: every round builds a fresh world and does the
  // same work, so a round's whole measured phase is one sample and the
  // program's costs are in every sample alike. The measured-phase metrics are
  // the run's fastest round. On a shared host the same round runs at two
  // speeds, switching every few seconds: a fast one that repeats from run to
  // run, and one about 0.6 times as fast while neighbours load the core. How
  // much of a run each takes changes from run to run, so its median and mean
  // do too; its fastest round is the fast speed whenever the run had a fast
  // stretch. Set-up is the fastest of the rounds' set-ups for the same
  // reason: a run's median set-up moved by up to half between runs, with the
  // share of slow stretches.
  std::vector<double> req_per_s;
  std::vector<double> cpu_us_per_req;
  std::vector<double> setup_s;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.attempted - r.completed;
    setup_s.push_back(r.parse_s + r.build_s + r.warm_s);
    if (r.error.empty()) {  // a failed round's times are not samples
      req_per_s.push_back(static_cast<double>(r.completed) / r.measure_s);
      cpu_us_per_req.push_back(r.measure_cpu_s * 1e6 / static_cast<double>(r.completed));
    }
  }
  const double setup_fastest = Quantile(setup_s, 0);
  // The round reported as setup_s, so its phases add up to it.
  const RoundResult& setup_round =
      rounds[std::find(setup_s.begin(), setup_s.end(), setup_fastest) - setup_s.begin()];

  const double fail_ratio = static_cast<double>(failed) / static_cast<double>(attempted);

  std::vector<std::pair<MetricDef, double>> metrics;
  if (trace == 0) {
    metrics = {
        {{"req_per_s", "1/s"}, Quantile(req_per_s, 1)},
        {{"cpu_us_per_req", "us"}, Quantile(cpu_us_per_req, 0)},
        {{"setup_s", "s"}, setup_fastest},
        {{"peak_rss_mb", "MiB"}, PeakRssMiB()},
        {{"emu_lat_p50_us", "emu_us"}, full.p50_us},
        {{"emu_lat_p999_us", "emu_us"}, full.p999_us},
    };
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (const RoundResult& r : rounds) {
      for (const auto& [name, value] : r.layers) {
        samples[name].push_back(value);
      }
    }
    std::map<std::string, double> layer;
    for (const auto& [name, values] : samples) {
      layer[name] = Quantile(values, 0.5);
    }
    for (const auto& [name, value] : first.counts) {
      layer[name] = value;
    }
    layer["setup.parse_ns"] = setup_round.parse_s * 1e9;
    layer["setup.build_ns"] = setup_round.build_s * 1e9;
    layer["setup.warm_ns"] = setup_round.warm_s * 1e9;
    for (const auto& [name, value] : self_s) {
      layer["self." + name + "_s"] = value;
    }
    layer["trace.wall_s"] = trace_wall_s;
    layer["trace.req_per_s"] = Quantile(req_per_s, 1);
    if (twin) {
      for (const char* name : kTwinLayers) {
        layer[name] = twin->layers[name];
      }
    }
    for (const MetricDef& def : kLayerMetrics) {
      metrics.push_back({def, layer.count(def.name) != 0 ? layer[def.name] : 0.0});
    }
    const std::string path = ".bench_build/spans-" + std::string(workload->name) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(".bench_build", ec);
    if (spans.WriteChromeJson(path)) {
      std::printf("spans: %s (last round)\n", path.c_str());
    }
  }

  std::printf("full round: %llu requests  timed rounds: %zu of %llu requests  fail_ratio: %.6g\n",
              static_cast<unsigned long long>(full.attempted), rounds.size(),
              static_cast<unsigned long long>(first.attempted), fail_ratio);
  std::string counts_json;
  for (const char* name : kCounts) {
    const auto it = full.counts.find(name);
    counts_json += std::string(counts_json.empty() ? "" : ", ") + JsonString(name) + ": " +
                   JsonNumber(it == full.counts.end() ? 0.0 : it->second);
  }
  std::printf("counts: {%s}\n", counts_json.c_str());
  for (const auto& [def, value] : metrics) {
    std::printf("  %-36s %16.6f %s\n", def.name, value, def.unit);
  }
  for (const std::string& e : errors) {
    std::printf("FAIL: %s\n", e.c_str());
  }

  std::string metrics_json;
  for (const auto& [def, value] : metrics) {
    metrics_json += std::string(metrics_json.empty() ? "" : ", ") + JsonString(def.name) +
                    ": {\"value\": " + JsonNumber(value) + ", \"unit\": " + JsonString(def.unit) +
                    "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
