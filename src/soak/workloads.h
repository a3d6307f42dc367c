// The scenarios the soaks share with their microbenches (emu-soak), so a
// bench cell and a soak seed drive the same code.
#ifndef SRC_SOAK_WORKLOADS_H_
#define SRC_SOAK_WORKLOADS_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/targets.h"
#include "src/services/swim_service.h"

namespace emu {

struct Scenario;
class TopologyBuilder;

namespace soak {

// chain_soak's filter -> nat -> cache -> pool scenario, checked in as
// specs/chain_soak.spec (a test holds the two to the same parsed scenario).
extern const char kChainSoakSpec[];

// `key_space` memaslap prewarm SETs then `requests` 90/10 GET/SET frames,
// from the NAT-internal client 192.168.1.10 to the canonical memcached VIP.
std::vector<Packet> ChainWorkloadFrames(u64 seed, usize key_space, usize requests);

// Source-side bookkeeping, touched only on the source host's scheduler.
struct SourceLedger {
  u64 sent = 0;                       // frames the source admitted
  std::deque<Picoseconds> in_flight;  // their send times, FIFO
};

// Sends frames[i] through ChainRuntime::SourceSend at (i + 1) * gap on the
// source host's clock, recording admissions in `ledger`.
void PaceChainSource(Scenario& scenario, std::vector<Packet> frames, Picoseconds gap,
                     SourceLedger& ledger);

// The gossip world: `hosts` auto-hosts around a hub on 50 us links (SWIM's
// timescale is its 1 ms protocol period, and the larger lookahead keeps the
// parallel epoch count three orders of magnitude below cable-accurate delay);
// specs/gossip_hub.spec is its 8-host instance.
std::string SwimHubSpec(usize hosts);
// Peer i on host i with member i at its AutoHost addresses, seeded from
// `seed` and i, already started.
std::vector<std::unique_ptr<SwimPeer>> StartSwimPeers(TopologyBuilder& topology, usize hosts,
                                                      const SwimConfig& config, u64 seed);
// The peers' membership-event digests folded in id order.
u64 SwimDigest(const std::vector<std::unique_ptr<SwimPeer>>& peers);

// FNV-1a over egress in order: each frame's port byte, then its bytes.
u64 EgressDigest(const std::vector<EgressFrame>& egress);

// The kernel soak shape: teach two MACs to the learning switch, then inject
// one unicast frame every `frame_gap` cycles for `total_cycles` cycles. A
// large gap is the idle-heavy pattern the chaos soaks spend their cycles in;
// a small one (bench/microbench_kernel --saturated, gap 10) keeps the
// pipeline busy so the per-edge cost dominates. `fast_path` false steps
// every edge, the reference semantics.
struct SwitchSoakResult {
  double wall_seconds = 0;    // the frame loop only, not the MAC teaching
  double cycles_per_sec = 0;  // total_cycles / wall_seconds
  u64 edges_run = 0;          // whole run, teaching included
  u64 cycles_fast_forwarded = 0;
  u64 egress_count = 0;  // the frame loop's egress
  u64 egress_digest = 0;
};
SwitchSoakResult RunSwitchSoak(u64 total_cycles, u64 frame_gap, bool fast_path = true,
                               ProfilingMode profiling = ProfilingMode::kOff);

}  // namespace soak
}  // namespace emu

#endif  // SRC_SOAK_WORKLOADS_H_
