#include "src/chain/chain_runtime.h"

#include <cassert>
#include <utility>

#include "src/common/fnv.h"
#include "src/core/metrics.h"
#include "src/net/ethernet.h"
#include "src/obs/trace_hooks.h"

namespace emu {
namespace {

// FPGA stage run budget per delivery: generous against any in-repo service's
// module latency, small against the simulated network timeline. A frame the
// service consumes without egress (a filter drop) charges the full budget —
// a visible, bounded cost rather than a hang.
constexpr Cycle kFpgaEgressLimit = 200'000;
// Extra cycles run after the first egress so multi-frame bursts (flooded
// masks, miss-forward plus eviction) land in the same delivery.
constexpr Cycle kFpgaDrainCycles = 64;

}  // namespace

ChainStageNode::ChainStageNode(const ChainStageConfig& config)
    : name_(config.name),
      service_(config.service),
      host_(config.host),
      target_(config.target),
      depth_(config.queue_depth),
      cpu_delay_(config.cpu_delay),
      io_(config.service->ChainIo()) {
  assert(service_ != nullptr && host_ != nullptr);
  if (target_ == StageTarget::kCpu) {
    cpu_ = std::make_unique<CpuTarget>(*service_);
  } else {
    fpga_ = std::make_unique<FpgaTarget>(*service_);
  }
}

void ChainStageNode::OnHostFrame(Packet frame) {
  EthernetView ev(frame);
  if (!ev.Valid() || ev.destination() != host_->mac()) {
    ++ignored_;  // hub flood copy of someone else's conversation
    return;
  }
  if (ev.ether_type_raw() == kChainCreditEtherType) {
    const auto payload = ev.Payload();
    OnCredit(ev.source(), payload.empty() ? u8{0xff} : payload[0]);
    return;
  }
  const MacAddress src = ev.source();
  if (src == up_mac_) {
    Enqueue(forward_q_, std::move(frame), /*forward=*/true);
  } else if (!down_mac_.IsZero() && src == down_mac_) {
    Enqueue(reply_q_, std::move(frame), /*forward=*/false);
  } else {
    ++ignored_;
  }
}

void ChainStageNode::OnCredit(MacAddress from, u8 kind) {
  if (kind == kChainCreditForward && !down_mac_.IsZero() && from == down_mac_) {
    ++forward_credits_;
  } else if (kind == kChainCreditReply && from == up_mac_) {
    ++reply_credits_;
  } else {
    ++ignored_;
    return;
  }
  ++credits_received_;
  TryPump();
}

void ChainStageNode::Enqueue(std::deque<Queued>& queue, Packet frame, bool forward) {
  (void)forward;
  if (queue.size() >= depth_) {
    // Under an intact credit protocol this cannot happen; impairment (a lost
    // credit frame, a duplicated data frame) can force it. Count it — the
    // LOSTBACKPRESSURE finding makes the loss loud.
    ++lost_backpressure_;
    return;
  }
  queue.push_back({std::move(frame), host_->scheduler().now()});
  TryPump();
}

void ChainStageNode::TryPump() {
  FlushEgress();
  if (busy_ || !pending_egress_.empty()) {
    return;  // stalled egress holds the stage: backpressure propagates
  }
  // Replies first: draining the return path keeps credits circulating and
  // bounds every frame's round trip.
  if (!reply_q_.empty()) {
    StartService(reply_q_, /*forward=*/false);
  } else if (!forward_q_.empty()) {
    StartService(forward_q_, /*forward=*/true);
  }
}

void ChainStageNode::StartService(std::deque<Queued>& queue, bool forward) {
  Queued entry = std::move(queue.front());
  queue.pop_front();
  const Picoseconds now = host_->scheduler().now();
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    obs::EmitComplete(tb, "chain." + name_ + ".queue", entry.enqueued, now - entry.enqueued);
  }
  // The slot is free the moment the frame leaves the queue.
  SendCredit(forward ? kChainCreditForward : kChainCreditReply,
             forward ? up_mac_ : down_mac_);
  // Ingress adaptation: address the frame to the identity the service
  // answers to, on the port it expects for this direction of travel.
  Packet frame = std::move(entry.frame);
  EthernetView ev(frame);
  const MacAddress service_mac =
      forward ? io_.forward_mac
              : (io_.reply_to_upstream ? up_mac_ : io_.reply_mac);
  if (!service_mac.IsZero()) {
    ev.set_destination(service_mac);
  }
  const u8 in_port = forward ? io_.forward_in_port : io_.reply_in_port;
  frame.set_src_port(in_port);
  if (forward) {
    ++serviced_forward_;
  } else {
    ++serviced_reply_;
  }
  busy_ = true;
  std::vector<Packet> outputs;
  Picoseconds service_time = 0;
  if (target_ == StageTarget::kCpu) {
    outputs = cpu_->Deliver(std::move(frame));
    service_time = cpu_delay_;
  } else {
    Simulator& fsim = fpga_->sim();
    const Cycle before = fsim.now();
    fpga_->Inject(in_port, std::move(frame));
    fpga_->RunUntilEgress(kFpgaEgressLimit);
    fpga_->Run(kFpgaDrainCycles);
    for (EgressFrame& egress : fpga_->TakeEgress()) {
      egress.frame.set_dst_port_mask(static_cast<u8>(1u << egress.port));
      outputs.push_back(std::move(egress.frame));
    }
    service_time = static_cast<Picoseconds>(fsim.now() - before) * fsim.cycle_period_ps();
  }
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    obs::EmitComplete(tb, "chain." + name_ + ".service", now, service_time);
  }
  host_->scheduler().After(service_time, [this, outputs = std::move(outputs)]() mutable {
    CompleteService(std::move(outputs));
  });
}

void ChainStageNode::CompleteService(std::vector<Packet> outputs) {
  busy_ = false;
  for (Packet& out : outputs) {
    Route(std::move(out));
  }
  FlushEgress();
  TryPump();
}

void ChainStageNode::Route(Packet frame) {
  const bool downstream = (frame.dst_port_mask() & io_.downstream_mask) != 0;
  if (!downstream && (frame.dst_port_mask() & (1u << io_.forward_in_port)) == 0) {
    // A copy onto a port that is neither chain direction — a learning-switch
    // flood of an unknown MAC. The chain has exactly two neighbors; copies
    // for anyone else stop here.
    ++flood_dropped_;
    return;
  }
  if (downstream && down_mac_.IsZero()) {
    ++misrouted_;  // the tail has nowhere further to send
    return;
  }
  EthernetView ev(frame);
  ev.set_source(host_->mac());
  ev.set_destination(downstream ? down_mac_ : up_mac_);
  pending_egress_.push_back({std::move(frame), downstream});
}

void ChainStageNode::FlushEgress() {
  while (!pending_egress_.empty()) {
    Egress& egress = pending_egress_.front();
    usize& credits = egress.downstream ? forward_credits_ : reply_credits_;
    if (credits == 0) {
      ++egress_stalls_;
      return;
    }
    --credits;
    host_->Send(std::move(egress.frame));
    pending_egress_.pop_front();
  }
}

void ChainStageNode::SendCredit(u8 kind, MacAddress to) {
  const u8 payload[2] = {kind, 1};
  Packet frame = MakeEthernetFrame(to, host_->mac(),
                                   static_cast<EtherType>(kChainCreditEtherType),
                                   std::span<const u8>(payload, 2));
  host_->Send(std::move(frame));
  ++credits_sent_;
}

ChainStageNode& ChainRuntime::AddStage(const ChainStageConfig& config) {
  assert(!wired_ && "add stages before Wire()");
  stages_.push_back(std::make_unique<ChainStageNode>(config));
  return *stages_.back();
}

void ChainRuntime::SetSource(SimHost& source) {
  assert(!wired_);
  source_ = &source;
}

void ChainRuntime::Wire() {
  assert(!wired_ && source_ != nullptr && !stages_.empty());
  for (usize i = 0; i < stages_.size(); ++i) {
    ChainStageNode& stage = *stages_[i];
    stage.up_mac_ = i == 0 ? source_->mac() : stages_[i - 1]->host_->mac();
    stage.down_mac_ = i + 1 < stages_.size() ? stages_[i + 1]->host_->mac() : MacAddress{};
    stage.forward_credits_ = i + 1 < stages_.size() ? stages_[i + 1]->depth_ : 0;
    // The source consumes replies instantly and returns the credit on the
    // spot, so the head's reply capacity is its own depth.
    stage.reply_credits_ = i == 0 ? stage.depth_ : stages_[i - 1]->depth_;
    ChainStageNode* node = &stage;
    stage.host_->SetApp([node](SimHost&, Packet frame) { node->OnHostFrame(std::move(frame)); });
  }
  source_credits_ = stages_.front()->depth_;
  source_->SetApp([this](SimHost&, Packet frame) {
    EthernetView ev(frame);
    if (!ev.Valid() || ev.destination() != source_->mac()) {
      ++source_ignored_;
      return;
    }
    const MacAddress head = stages_.front()->host_->mac();
    if (ev.ether_type_raw() == kChainCreditEtherType) {
      const auto payload = ev.Payload();
      if (!payload.empty() && payload[0] == kChainCreditForward && ev.source() == head) {
        ++source_credits_;
      } else {
        ++source_ignored_;
      }
      return;
    }
    if (ev.source() != head) {
      ++source_ignored_;
      return;
    }
    ++source_replies_;
    const u8 payload[2] = {kChainCreditReply, 1};
    Packet credit = MakeEthernetFrame(head, source_->mac(),
                                      static_cast<EtherType>(kChainCreditEtherType),
                                      std::span<const u8>(payload, 2));
    source_->Send(std::move(credit));
    if (on_reply_) {
      on_reply_(std::move(frame));
    }
  });
  wired_ = true;
}

bool ChainRuntime::SourceSend(Packet frame) {
  assert(wired_ && "Wire() the chain before sending");
  if (source_credits_ == 0) {
    ++source_shed_;  // overload surfaces here, never mid-chain
    return false;
  }
  --source_credits_;
  EthernetView ev(frame);
  ev.set_source(source_->mac());
  ev.set_destination(stages_.front()->host_->mac());
  source_->Send(std::move(frame));
  return true;
}

ChainStageNode* ChainRuntime::FindStage(const std::string& name) {
  for (const auto& stage : stages_) {
    if (stage->name() == name) {
      return stage.get();
    }
  }
  return nullptr;
}

void ChainRuntime::CollectFindings(std::vector<Finding>& findings) const {
  for (const auto& stage : stages_) {
    if (stage->lost_backpressure() > 0) {
      findings.push_back(Finding{
          "LOSTBACKPRESSURE", Severity::kError, "chain", stage->name(),
          "stage dropped " + std::to_string(stage->lost_backpressure()) +
              " frame(s) at a full queue (depth " + std::to_string(stage->depth_) +
              "): credit protocol violated, likely by link impairment"});
    }
    if (stage->misrouted() > 0) {
      findings.push_back(Finding{
          "CHAINMISROUTE", Severity::kError, "chain", stage->name(),
          "stage emitted " + std::to_string(stage->misrouted()) +
              " frame(s) downstream of the chain tail"});
    }
  }
}

u64 ChainRuntime::Digest() const {
  u64 h = kFnvOffset;
  for (const auto& stage : stages_) {
    h = Fnv1aU64(h, stage->serviced_forward());
    h = Fnv1aU64(h, stage->serviced_reply());
    h = Fnv1aU64(h, stage->lost_backpressure());
    h = Fnv1aU64(h, stage->misrouted());
    h = Fnv1aU64(h, stage->flood_dropped());
    h = Fnv1aU64(h, stage->credits_sent());
    h = Fnv1aU64(h, stage->credits_received());
    h = Fnv1aU64(h, stage->host().sent());
    h = Fnv1aU64(h, stage->host().received());
  }
  h = Fnv1aU64(h, source_shed_);
  h = Fnv1aU64(h, source_replies_);
  return h;
}

void ChainRuntime::RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  for (const auto& stage : stages_) {
    const std::string base = prefix + "." + stage->name();
    metrics.Register(base + ".serviced_forward", &stage->serviced_forward_);
    metrics.Register(base + ".serviced_reply", &stage->serviced_reply_);
    metrics.Register(base + ".lost_backpressure", &stage->lost_backpressure_);
    metrics.Register(base + ".ignored", &stage->ignored_);
    metrics.Register(base + ".flood_dropped", &stage->flood_dropped_);
    metrics.Register(base + ".credits_sent", &stage->credits_sent_);
    metrics.Register(base + ".credits_received", &stage->credits_received_);
    metrics.Register(base + ".egress_stalls", &stage->egress_stalls_);
  }
  metrics.Register(prefix + ".source_shed", &source_shed_);
  metrics.Register(prefix + ".source_replies", &source_replies_);
}

}  // namespace emu
