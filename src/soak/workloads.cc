#include "src/soak/workloads.h"

#include "src/chain/scenario_build.h"
#include "src/chain/stage_factory.h"
#include "src/sim/memaslap.h"

namespace emu::soak {

const char kChainSoakSpec[] =
    "topology hub link_delay=2us\n"
    "host client mac=0x020000000c01 ip=192.168.1.10\n"
    "host h1\nhost h2\nhost h3\nhost h4\n"
    "stage filter kind=filter    host=h1 target=fpga queue=16\n"
    "stage nat    kind=nat       host=h2 target=cpu  queue=16\n"
    "stage cache  kind=l1cache   host=h3 target=cpu  queue=32 capacity=64\n"
    "stage pool   kind=memcached host=h4 target=cpu  queue=32\n"
    "chain client -> filter -> nat -> cache -> pool\n";

std::vector<Packet> ChainWorkloadFrames(u64 seed, usize key_space, usize requests) {
  MemaslapConfig mc;
  const MemcachedConfig server = CanonicalMemcachedConfig();
  mc.server_mac = server.mac;
  mc.server_ip = server.ip;
  mc.client_ip = Ipv4Address(192, 168, 1, 10);
  mc.key_space = key_space;
  mc.seed = seed;
  MemaslapLoadgen gen(mc);
  std::vector<Packet> frames;
  for (usize i = 0; i < gen.prewarm_count(); ++i) {
    frames.push_back(gen.PrewarmFrame(i));
  }
  for (usize i = 0; i < requests; ++i) {
    frames.push_back(gen.WorkloadFrame(i));
  }
  return frames;
}

void PaceChainSource(Scenario& scenario, std::vector<Packet> frames, Picoseconds gap,
                     SourceLedger& ledger) {
  ChainRuntime& chain = scenario.chain;
  EventScheduler& clock = scenario.topology.host(scenario.source_host).scheduler();
  for (usize i = 0; i < frames.size(); ++i) {
    const Picoseconds at = static_cast<Picoseconds>(i + 1) * gap;
    clock.At(at, [&chain, &ledger, at, frame = std::move(frames[i])]() mutable {
      if (chain.SourceSend(std::move(frame))) {
        ++ledger.sent;
        ledger.in_flight.push_back(at);
      }
    });
  }
}

std::string SwimHubSpec(usize hosts) {
  return "topology hub hosts=" + std::to_string(hosts) + " link_delay=50us";
}

std::vector<std::unique_ptr<SwimPeer>> StartSwimPeers(TopologyBuilder& topology, usize hosts,
                                                      const SwimConfig& config, u64 seed) {
  std::vector<SwimMember> members;
  for (usize i = 0; i < hosts; ++i) {
    const SpecHost host = AutoHost(i);
    members.push_back(SwimMember{host.name, host.mac, host.ip});
  }
  std::vector<std::unique_ptr<SwimPeer>> peers;
  for (usize i = 0; i < hosts; ++i) {
    const u64 peer_seed = seed ^ (0x9E37'79B9'7F4A'7C15ull * (i + 1));
    peers.push_back(std::make_unique<SwimPeer>(topology.host(i), static_cast<u16>(i), members,
                                               config, peer_seed));
    peers.back()->Start();
  }
  return peers;
}

u64 SwimDigest(const std::vector<std::unique_ptr<SwimPeer>>& peers) {
  u64 digest = 14695981039346656037ull;  // FNV-1a
  for (const auto& peer : peers) {
    digest = (digest ^ peer->EventsDigest()) * 1099511628211ull;
  }
  return digest;
}

}  // namespace emu::soak
