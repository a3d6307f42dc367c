#include "src/sim/topology.h"

#include <cassert>

#include "src/fault/fault_registry.h"

namespace emu {

TopologyBuilder::TopologyBuilder(Placement placement) : placement_(placement) {}

EventScheduler& TopologyBuilder::NewScheduler(usize& shard_out) {
  // kSingle creates shard 0's scheduler once and places every later element
  // on it.
  if (placement_ == Placement::kPerElement || schedulers_.empty()) {
    schedulers_.push_back(std::make_unique<EventScheduler>());
    runner_.AddShard(*schedulers_.back());
  }
  shard_out = schedulers_.size() - 1;
  return *schedulers_.back();
}

void TopologyBuilder::AddStar(Service& service, const std::vector<HostSpec>& hosts,
                              const StarTopologyConfig& config) {
  assert(hosts.size() <= kNetFpgaPortCount);
  ServiceNode& node = AddServiceNode(service);
  for (usize i = 0; i < hosts.size(); ++i) {
    LinkHostToNode(AddHost(hosts[i]), node, static_cast<u8>(i), config);
  }
}

void TopologyBuilder::AddCluster(const std::vector<Service*>& services,
                                 const std::vector<HostSpec>& hosts,
                                 const StarTopologyConfig& config) {
  assert(services.size() == hosts.size());
  for (usize i = 0; i < hosts.size(); ++i) {
    assert(services[i] != nullptr);
    ServiceNode& node = AddServiceNode(*services[i]);
    LinkHostToNode(AddHost(hosts[i]), node, /*port=*/0, config);
  }
}

void TopologyBuilder::AddHubStar(const std::vector<HostSpec>& hosts,
                                 const StarTopologyConfig& config) {
  assert(hub_ == nullptr && "one hub per topology");
  hub_ = std::make_unique<HubNode>(NewScheduler(hub_shard_), hosts.size());
  for (usize i = 0; i < hosts.size(); ++i) {
    SimHost& host = AddHost(hosts[i]);
    Link& link = MakeUplink(host, config);
    hub_->AttachPort(i, &link, /*is_end_a=*/false);
    RouteBothWays(link, host_shards_.back(), hub_shard_);
  }
}

ServiceNode& TopologyBuilder::AddServiceNode(Service& service) {
  usize shard = 0;
  EventScheduler& scheduler = NewScheduler(shard);
  nodes_.push_back(std::make_unique<ServiceNode>(scheduler, service));
  node_shards_.push_back(shard);
  return *nodes_.back();
}

SimHost& TopologyBuilder::AddHost(const HostSpec& spec) {
  usize shard = 0;
  EventScheduler& scheduler = NewScheduler(shard);
  hosts_.push_back(std::make_unique<SimHost>(scheduler, spec.name, spec.mac, spec.ip));
  host_shards_.push_back(shard);
  uplinks_.push_back(nullptr);
  return *hosts_.back();
}

usize TopologyBuilder::HostIndex(const SimHost& host) const {
  for (usize i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i].get() == &host) {
      return i;
    }
  }
  assert(false && "host not owned by this builder");
  return hosts_.size();
}

Link& TopologyBuilder::MakeUplink(SimHost& host, const StarTopologyConfig& config) {
  // The link lives on the host's scheduler, host on end A — the
  // convention every shape (and ChaosDirector's gate scheduling) relies on.
  links_.push_back(std::make_unique<Link>(host.scheduler(), config.link_bits_per_second,
                                          config.link_delay));
  Link& link = *links_.back();
  host.AttachUplink(&link, /*is_end_a=*/true);
  uplinks_[HostIndex(host)] = &link;
  return link;
}

void TopologyBuilder::RouteBothWays(Link& link, usize host_shard, usize peer_shard) {
  if (host_shard == peer_shard) {
    return;  // both ends on one scheduler: the link delivers locally
  }
  runner_.ConnectDirection(link, /*to_b=*/true, host_shard, peer_shard);
  runner_.ConnectDirection(link, /*to_b=*/false, peer_shard, host_shard);
}

Link& TopologyBuilder::LinkHostToNode(SimHost& host, ServiceNode& node, u8 port,
                                      const StarTopologyConfig& config) {
  const usize host_index = HostIndex(host);
  Link& link = MakeUplink(host, config);
  node.AttachPort(port, &link, /*is_end_a=*/false);
  usize node_index = 0;
  for (; node_index < nodes_.size(); ++node_index) {
    if (nodes_[node_index].get() == &node) {
      break;
    }
  }
  assert(node_index < nodes_.size() && "node not owned by this builder");
  RouteBothWays(link, host_shards_[host_index], node_shards_[node_index]);
  return link;
}

usize TopologyBuilder::EnableAllUplinkImpairment(FaultRegistry& registry,
                                                 const std::string& prefix) {
  usize enabled = 0;
  for (usize i = 0; i < hosts_.size(); ++i) {
    if (uplinks_[i] == nullptr) {
      continue;
    }
    // Distinct per-direction prefixes: each direction's points are sampled
    // on its own sending shard, which is what lets impairment compose with
    // cross-shard routing (a shared point would race two sender shards).
    const std::string link_prefix = prefix + "." + hosts_[i]->name();
    uplinks_[i]->EnableImpairment(/*to_b=*/true, registry, link_prefix + ".up");
    uplinks_[i]->EnableImpairment(/*to_b=*/false, registry, link_prefix + ".down");
    ++enabled;
  }
  return enabled;
}

usize TopologyBuilder::FindHost(const std::string& name) const {
  for (usize i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i]->name() == name) {
      return i;
    }
  }
  return hosts_.size();
}

}  // namespace emu
