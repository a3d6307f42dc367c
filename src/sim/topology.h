// Topology construction for the event-driven simulator.
//
// TopologyBuilder is the one topology type: it owns the schedulers, hosts,
// nodes, hub, links and the ParallelRunner, and every run goes through that
// runner. A build-time Placement says which shard each element runs on:
// kSingle puts everything on shard 0 (one scheduler, no cut), kPerElement
// gives every element its own shard. A link direction is routed through the
// runner, with the link's minimum transit time as conservative lookahead,
// iff its two ends sit on different shards. One shard with no inbound edge
// has no horizon, so a kSingle run is one epoch that executes exactly the
// events a bare EventScheduler::Run would.
//
// The classic shapes are methods over the one builder:
//   AddStar     — hosts around one ServiceNode running an Emu service, the
//                 Mininet setups the paper uses to test the NAT and other
//                 services before synthesizing them;
//   AddCluster  — one ServiceNode per host (the Table 4 side-by-side shape);
//   AddHubStar  — N hosts around a HubNode learning switch (emu-gossip).
// ScenarioSpec (src/chain/scenario_spec.h) names the same three shapes as
// spec keywords. kPerElement runs are bit-exact for any thread count
// (emu-par, src/sim/parallel_runner.h).
#ifndef SRC_SIM_TOPOLOGY_H_
#define SRC_SIM_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/hub.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/sim_host.h"

namespace emu {

class FaultRegistry;

struct HostSpec {
  std::string name;
  MacAddress mac;
  Ipv4Address ip;
};

struct StarTopologyConfig {
  u64 link_bits_per_second = 10'000'000'000ULL;
  Picoseconds link_delay = 500'000;  // 500 ns of cable + switch PHY
};

// Owns and wires a topology; see the header comment.
class TopologyBuilder {
 public:
  // kSingle: every element on shard 0. kPerElement: one shard per element,
  // registered in construction order.
  enum class Placement : u8 { kSingle = 0, kPerElement };

  explicit TopologyBuilder(Placement placement = Placement::kPerElement);
  TopologyBuilder(const TopologyBuilder&) = delete;
  TopologyBuilder& operator=(const TopologyBuilder&) = delete;

  // --- Shapes. Each registers shards and routes link directions in a fixed
  // order (a node right before its hosts), so link ids, drain tie-breaks
  // and the runner's contiguous worker blocks are a function of the shape. ---
  // hosts[i] on port i of one node running `service` (at most
  // kNetFpgaPortCount hosts).
  void AddStar(Service& service, const std::vector<HostSpec>& hosts,
               const StarTopologyConfig& config = {});
  // services[i] paired with hosts[i] on the node's port 0; sizes must match.
  void AddCluster(const std::vector<Service*>& services, const std::vector<HostSpec>& hosts,
                  const StarTopologyConfig& config = {});
  // hosts[i] on port i of one HubNode — ChaosDirector uses that mapping to
  // translate partition groups into the hub's port-pair block matrix.
  void AddHubStar(const std::vector<HostSpec>& hosts, const StarTopologyConfig& config = {});

  // --- Elements, for shapes the methods above do not cover ---
  ServiceNode& AddServiceNode(Service& service);
  SimHost& AddHost(const HostSpec& spec);
  // Host on end A. The link is created on the host's scheduler and becomes
  // the host's uplink; both directions are routed when host and node sit on
  // different shards.
  Link& LinkHostToNode(SimHost& host, ServiceNode& node, u8 port,
                       const StarTopologyConfig& config);

  // Registers per-direction impairment for every host uplink, named
  // `<prefix>.<host>.up.*` (host→peer) / `<prefix>.<host>.down.*`
  // (peer→host), e.g. the soak plans arm `link.h0.up.drop`. Safe on routed
  // links: each direction's points are sampled on its sending shard (the
  // Link per-direction impairment contract). Returns the number of links
  // impaired. Points are inert until a plan arms them, so registration never
  // perturbs a run.
  usize EnableAllUplinkImpairment(FaultRegistry& registry, const std::string& prefix = "link");

  // Runs to quiescence (or the event budget); returns events executed.
  // Bit-exact for any opts.threads (clamped to the shard count).
  u64 Run(const ParallelRunOptions& opts = {}) { return runner_.Run(opts); }

  ParallelRunner& runner() { return runner_; }

  // --- Accessors ---
  SimHost& host(usize i) { return *hosts_[i]; }
  usize host_count() const { return hosts_.size(); }
  // Host index by name, or host_count() when absent.
  usize FindHost(const std::string& name) const;
  ServiceNode& node(usize i = 0) { return *nodes_[i]; }
  usize node_count() const { return nodes_.size(); }
  bool has_hub() const { return hub_ != nullptr; }
  HubNode& hub() { return *hub_; }
  // Host i's uplink (host on end A), or null when unlinked.
  Link* uplink(usize i) { return i < uplinks_.size() ? uplinks_[i] : nullptr; }

 private:
  EventScheduler& NewScheduler(usize& shard_out);
  Link& MakeUplink(SimHost& host, const StarTopologyConfig& config);
  void RouteBothWays(Link& link, usize host_shard, usize peer_shard);
  usize HostIndex(const SimHost& host) const;

  Placement placement_;
  ParallelRunner runner_;
  std::vector<std::unique_ptr<EventScheduler>> schedulers_;  // one per shard
  std::vector<std::unique_ptr<ServiceNode>> nodes_;
  std::unique_ptr<HubNode> hub_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<usize> host_shards_;
  std::vector<usize> node_shards_;
  usize hub_shard_ = 0;
  std::vector<Link*> uplinks_;  // parallel to hosts_
};

}  // namespace emu

#endif  // SRC_SIM_TOPOLOGY_H_
