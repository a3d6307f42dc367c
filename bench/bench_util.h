// Shared helpers for the benches: canonical test frames, switch-throughput
// saturation runs, fixed-width table printing, and sweep-list parsing.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/core/targets.h"
#include "src/net/ethernet.h"
#include "src/sim/latency_probe.h"
#include "src/sim/topology.h"

namespace emu {

inline const MacAddress kBenchHostMac[4] = {
    MacAddress::FromU48(0x020000000001), MacAddress::FromU48(0x020000000002),
    MacAddress::FromU48(0x020000000003), MacAddress::FromU48(0x020000000004)};

inline Packet MakeSwitchFrame(MacAddress dst, MacAddress src, usize size = 64) {
  std::vector<u8> payload(size > kEthernetHeaderSize ? size - kEthernetHeaderSize : 0, 0xa5);
  Packet frame = MakeEthernetFrame(dst, src, EtherType::kIpv4, payload);
  frame.Resize(size);
  return frame;
}

// Teaches all four host MACs to a switch target (flood-free steady state).
inline void WarmSwitch(FpgaTarget& target) {
  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port, MakeSwitchFrame(MacAddress::Broadcast(), kBenchHostMac[port]));
  }
  target.Run(60'000);
  target.TakeEgress();
}

struct SwitchThroughputResult {
  double offered_mpps = 0.0;
  double achieved_mpps = 0.0;
  double loss_rate = 0.0;
};

// Saturates all four ports with `frames_per_port` back-to-back frames of
// `size` bytes (per-port line rate enforced by the port model) and measures
// the achieved egress rate — the OSNT methodology at the line-rate point.
inline SwitchThroughputResult MeasureSwitchThroughput(FpgaTarget& target,
                                                      usize frames_per_port,
                                                      usize size = 64) {
  WarmSwitch(target);
  for (usize i = 0; i < frames_per_port; ++i) {
    for (u8 port = 0; port < 4; ++port) {
      target.Inject(port,
                    MakeSwitchFrame(kBenchHostMac[(port + 1) % 4], kBenchHostMac[port], size));
    }
  }
  const usize total = frames_per_port * 4;
  // Run until all frames egressed or the egress count stalls (lossy designs
  // never reach `total`).
  usize last_count = 0;
  Cycle stable_since = target.sim().now();
  while (target.egress().size() < total) {
    target.Run(2048);
    const usize count = target.egress().size();
    if (count != last_count) {
      last_count = count;
      stable_since = target.sim().now();
    } else if (target.sim().now() - stable_since > 100'000) {
      break;
    }
  }
  target.Run(50'000);  // drain stragglers
  const auto egress = target.TakeEgress();

  SwitchThroughputResult result;
  if (egress.empty()) {
    return result;
  }
  Picoseconds first = egress.front().frame.ingress_time();
  Picoseconds last = egress.front().frame.egress_time();
  for (const auto& e : egress) {
    first = std::min(first, e.frame.ingress_time());
    last = std::max(last, e.frame.egress_time());
  }
  const double window_s = static_cast<double>(last - first) / 1e12;
  result.achieved_mpps = static_cast<double>(egress.size()) / window_s / 1e6;
  result.loss_rate = 1.0 - static_cast<double>(egress.size()) / static_cast<double>(total);
  const Picoseconds per_frame = SerializationPs(size);
  result.offered_mpps = 4.0 * 1e6 / static_cast<double>(per_frame);
  return result;
}

// Core latency (cycles) of a warmed switch for a unicast 64 B frame.
inline Cycle MeasureSwitchCoreLatency(FpgaTarget& target) {
  WarmSwitch(target);
  target.Inject(0, MakeSwitchFrame(kBenchHostMac[1], kBenchHostMac[0], 64));
  target.RunUntilEgressCount(1, 500'000);
  const auto egress = target.TakeEgress();
  if (egress.empty()) {
    return 0;
  }
  return egress[0].frame.core_egress_cycle() - egress[0].frame.core_ingress_cycle();
}

// --- Table printing ----------------------------------------------------------

inline void PrintRule(usize width = 100) {
  std::string rule(width, '-');
  std::printf("%s\n", rule.c_str());
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n");
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

// --- Thread sweeps (microbench_chain, microbench_gossip) -----------------------

// "1,2,4" -> {1, 2, 4}: every run of decimal digits is one value.
inline std::vector<usize> ParseList(const std::string& text) {
  std::vector<usize> values;
  usize current = 0;
  bool have = false;
  for (const char* p = text.c_str();; ++p) {
    if (*p >= '0' && *p <= '9') {
      current = current * 10 + static_cast<usize>(*p - '0');
      have = true;
    } else {
      if (have) {
        values.push_back(current);
      }
      current = 0;
      have = false;
      if (*p == '\0') {
        break;
      }
    }
  }
  return values;
}

struct SweepCell {
  bool ok = true;
  double wall_seconds = 0;
  u64 events = 0;
  u64 epochs = 0;
  u64 digest = 0;
};

// Runs `world` to quiescence at `threads`, timing it into `cell`.
inline void TimedRun(TopologyBuilder& world, usize threads, SweepCell& cell) {
  ParallelRunOptions opts;
  opts.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  cell.events = world.Run(opts);
  cell.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  cell.epochs = world.runner().epochs();
}

// One row group of a sweep: `run(threads)` per thread count, each cell gated
// on the digest of a threads=1 twin (the group's own threads=1 cell when the
// sweep has one), which is also the speedup denominator. Prints a row per
// cell led by `label` and appends its JSON object, led by `"key": json_value`,
// to `cells_json`. False on a failed cell or a diverged digest.
template <typename RunCell>
bool SweepThreads(const char* key, const std::string& label, const std::string& json_value,
                  int width, const std::vector<usize>& thread_counts, const RunCell& run,
                  std::string& cells_json) {
  bool ok = true;
  SweepCell serial;
  bool have_serial = false;
  for (usize threads : thread_counts) {
    const SweepCell cell = run(threads);
    if (!have_serial) {
      // threads=1 absent from the sweep: measure the serial twin just for the
      // digest gate and the speedup denominator.
      serial = threads == 1 ? cell : run(1);
      have_serial = true;
    }
    ok = ok && cell.ok && serial.ok;
    if (cell.digest != serial.digest) {
      std::fprintf(stderr, "DIGEST DIVERGENCE %s=%s threads=%zu: %016llx != serial %016llx\n",
                   key, label.c_str(), threads, static_cast<unsigned long long>(cell.digest),
                   static_cast<unsigned long long>(serial.digest));
      ok = false;
    }
    const double events_per_sec =
        cell.wall_seconds > 0 ? static_cast<double>(cell.events) / cell.wall_seconds : 0.0;
    const double speedup = cell.wall_seconds > 0 ? serial.wall_seconds / cell.wall_seconds : 0.0;
    std::printf("%-*s %-8zu %12llu %10llu %12.4f %10.2f %10.2f\n", width, label.c_str(), threads,
                static_cast<unsigned long long>(cell.events),
                static_cast<unsigned long long>(cell.epochs), cell.wall_seconds,
                events_per_sec / 1e6, speedup);
    cells_json += std::string(cells_json.empty() ? "" : ",\n") + "    {\"" + key +
                  "\": " + json_value + ", \"threads\": " + std::to_string(threads) +
                  ", \"events\": " + std::to_string(cell.events) +
                  ", \"epochs\": " + std::to_string(cell.epochs) +
                  ", \"wall_seconds\": " + bench::FormatJsonNumber(cell.wall_seconds) +
                  ", \"events_per_sec\": " + bench::FormatJsonNumber(events_per_sec) +
                  ", \"speedup\": " + bench::FormatJsonNumber(speedup) + "}";
  }
  return ok;
}

// {"benchmark": ..., "workload": {...}, "cells": [...]} at `path`.
inline bool WriteSweepJson(const std::string& path, const char* benchmark,
                           const std::string& workload, const std::string& cells_json) {
  std::ofstream file(path);
  file << "{\n  \"benchmark\": \"" << benchmark << "\",\n  \"workload\": {" << workload
       << "},\n  \"cells\": [\n" << cells_json << "\n  ]\n}\n";
  if (!file) {
    std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace emu

#endif  // BENCH_BENCH_UTIL_H_
