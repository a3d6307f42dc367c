// The scenarios the soaks share with their microbenches (emu-soak), so a
// bench cell and a soak seed drive the same code.
#ifndef SRC_SOAK_WORKLOADS_H_
#define SRC_SOAK_WORKLOADS_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

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

}  // namespace soak
}  // namespace emu

#endif  // SRC_SOAK_WORKLOADS_H_
