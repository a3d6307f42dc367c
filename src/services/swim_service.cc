#include "src/services/swim_service.h"

#include <algorithm>

#include "src/common/fnv.h"
#include "src/core/metrics.h"
#include "src/net/ethernet.h"
#include "src/net/ipv4.h"
#include "src/obs/trace_hooks.h"

namespace emu {
namespace {

// Wire format (UDP payload, all multi-byte fields big-endian):
//   [0]    type          (SwimMessageType)
//   [1:3)  from id
//   [3:7)  seq
//   [7:9)  subject id
//   [9]    piggyback entry count
//   then per entry: subject id (2), state (1), incarnation (4)
constexpr usize kHeaderSize = 10;
constexpr usize kEntrySize = 7;

void PutU16(std::vector<u8>& out, u16 value) {
  out.push_back(static_cast<u8>(value >> 8));
  out.push_back(static_cast<u8>(value));
}

void PutU32(std::vector<u8>& out, u32 value) {
  out.push_back(static_cast<u8>(value >> 24));
  out.push_back(static_cast<u8>(value >> 16));
  out.push_back(static_cast<u8>(value >> 8));
  out.push_back(static_cast<u8>(value));
}

u16 GetU16(std::span<const u8> bytes, usize offset) {
  return static_cast<u16>((static_cast<u16>(bytes[offset]) << 8) | bytes[offset + 1]);
}

u32 GetU32(std::span<const u8> bytes, usize offset) {
  return (static_cast<u32>(bytes[offset]) << 24) | (static_cast<u32>(bytes[offset + 1]) << 16) |
         (static_cast<u32>(bytes[offset + 2]) << 8) | bytes[offset + 3];
}

// Precedence: higher incarnation always wins; at equal incarnation
// Dead > Suspect > Alive (the enum's numeric order).
bool Supersedes(SwimState state, u32 incarnation, SwimState old_state, u32 old_incarnation) {
  if (incarnation != old_incarnation) {
    return incarnation > old_incarnation;
  }
  return static_cast<u8>(state) > static_cast<u8>(old_state);
}

}  // namespace

const char* SwimStateName(SwimState state) {
  switch (state) {
    case SwimState::kAlive: return "alive";
    case SwimState::kSuspect: return "suspect";
    case SwimState::kDead: return "dead";
  }
  return "?";
}

Picoseconds SwimDetectionBound(const SwimConfig& config, usize cluster_size) {
  // Worst case with randomized round-robin: a member can go unprobed by a
  // given peer for just under two full rounds (probed at the top of one
  // shuffle, drawn at the bottom of the next), then the suspicion window
  // must expire; slack covers probe timeouts and gossip propagation.
  const u64 periods = 2 * static_cast<u64>(cluster_size) + config.suspicion_periods + 4;
  return static_cast<Picoseconds>(periods) * config.protocol_period + config.indirect_timeout;
}

SwimPeer::SwimPeer(SimHost& host, u16 id, std::vector<SwimMember> members, SwimConfig config,
                   u64 seed)
    : host_(host), id_(id), members_(std::move(members)), config_(config), rng_(seed) {
  table_.resize(members_.size());
  for (u16 m = 0; m < members_.size(); ++m) {
    if (m != id_) {
      round_.push_back(m);
    }
  }
}

void SwimPeer::Start() {
  host_.SetApp([this](SimHost&, Packet frame) { OnFrame(std::move(frame)); });
  host_.SetOnRestart([this] { OnRestart(); });
  rng::Shuffle(rng_, round_);
  round_pos_ = 0;
  // Stagger first probes across the cluster so period boundaries do not make
  // every peer transmit on the same edge.
  const Picoseconds stagger =
      config_.protocol_period * static_cast<Picoseconds>(id_ + 1) /
      static_cast<Picoseconds>(members_.size() + 1);
  ScheduleTick(Now() + config_.protocol_period + stagger);
}

void SwimPeer::ScheduleTick(Picoseconds at) {
  if (config_.run_until != 0 && at >= config_.run_until) {
    return;
  }
  host_.scheduler().At(at, [this] { Tick(); });
}

void SwimPeer::Tick() {
  ScheduleTick(Now() + config_.protocol_period);  // cadence survives crashes
  if (!CanSend() || !ProtocolActive()) {
    return;
  }
  const u16 target = NextTarget();
  if (target >= members_.size()) {
    return;  // nobody left to probe
  }
  const u32 seq = ++next_seq_;
  probe_ = Probe{seq, target, /*acked=*/false, /*active=*/true};
  ++pings_sent_;
  SendSwim(target, SwimMessageType::kPing, seq, id_, /*full_table=*/false);
  host_.scheduler().At(Now() + config_.direct_timeout, [this, seq] { DirectTimeout(seq); });
  host_.scheduler().At(Now() + config_.indirect_timeout,
                       [this, seq] { IndirectTimeout(seq); });
}

void SwimPeer::DirectTimeout(u32 seq) {
  if (!probe_.active || probe_.seq != seq || probe_.acked || !CanSend()) {
    return;
  }
  for (u16 proxy : PickMembers(config_.ping_req_fanout, probe_.target)) {
    ++ping_reqs_sent_;
    SendSwim(proxy, SwimMessageType::kPingReq, seq, probe_.target, /*full_table=*/false);
  }
}

void SwimPeer::IndirectTimeout(u32 seq) {
  if (!probe_.active || probe_.seq != seq || !host_.up()) {
    return;
  }
  const bool acked = probe_.acked;
  const u16 target = probe_.target;
  probe_.active = false;
  if (!acked) {
    ApplyUpdate(target, SwimState::kSuspect, table_[target].incarnation);
  }
}

void SwimPeer::DeathCheck(u16 subject, u64 epoch) {
  if (!host_.up()) {
    return;
  }
  const MemberRecord& record = table_[subject];
  if (record.state == SwimState::kSuspect && record.suspect_epoch == epoch) {
    ApplyUpdate(subject, SwimState::kDead, record.incarnation);
  }
}

u16 SwimPeer::NextTarget() {
  for (usize attempts = 0; attempts < round_.size(); ++attempts) {
    if (round_pos_ >= round_.size()) {
      rng::Shuffle(rng_, round_);
      round_pos_ = 0;
    }
    const u16 candidate = round_[round_pos_++];
    if (table_[candidate].state != SwimState::kDead) {
      return candidate;
    }
  }
  return static_cast<u16>(members_.size());
}

std::vector<u16> SwimPeer::PickMembers(usize k, u16 exclude) {
  std::vector<u16> candidates;
  for (u16 m = 0; m < members_.size(); ++m) {
    if (m != id_ && m != exclude && table_[m].state != SwimState::kDead) {
      candidates.push_back(m);
    }
  }
  return rng::PickK(rng_, candidates, k);
}

void SwimPeer::OnRestart() {
  // Stable-storage incarnation: one past everything that circulated about us
  // before the crash (nothing can carry an incarnation above our own).
  ++incarnation_;
  for (MemberRecord& record : table_) {
    // Amnesia: the reboot lost the table. suspect_epoch deliberately
    // survives — it is a timer-validity token, and resetting it could let a
    // pre-crash DeathCheck match a post-restart suspicion's epoch.
    record.state = SwimState::kAlive;
    record.incarnation = 0;
  }
  table_[id_].incarnation = incarnation_;
  gossip_.clear();
  relays_.clear();
  probe_ = Probe{};
  rng::Shuffle(rng_, round_);
  round_pos_ = 0;
  LogEvent(id_, SwimState::kAlive, incarnation_);
  EnqueueGossip(id_, SwimState::kAlive, incarnation_);
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    obs::EmitInstant(tb, "swim.rejoin." + members_[id_].name, Now());
  }
  for (u16 target : PickMembers(config_.ping_req_fanout, id_)) {
    ++joins_sent_;
    SendSwim(target, SwimMessageType::kJoin, ++next_seq_, id_, /*full_table=*/false);
  }
}

void SwimPeer::OnFrame(Packet frame) {
  EthernetView eth(frame);
  if (!eth.Valid() || eth.destination() != members_[id_].mac) {
    return;  // hub flood for someone else
  }
  Ipv4View ip(frame);
  if (!ip.Valid() || !ip.ProtocolIs(IpProtocol::kUdp)) {
    return;
  }
  UdpView udp(frame, ip.payload_offset());
  if (!udp.Valid() || udp.destination_port() != kSwimUdpPort) {
    return;
  }
  const std::span<const u8> payload = udp.Payload();
  if (payload.size() < kHeaderSize) {
    ++malformed_;
    return;
  }
  const u8 type_raw = payload[0];
  const u16 from = GetU16(payload, 1);
  const u32 seq = GetU32(payload, 3);
  const u16 subject = GetU16(payload, 7);
  const usize count = payload[9];
  if (type_raw > static_cast<u8>(SwimMessageType::kJoinAck) || from >= members_.size() ||
      from == id_ || payload.size() < kHeaderSize + count * kEntrySize) {
    ++malformed_;
    return;
  }
  // Piggybacked gossip merges first, whatever the message type: every
  // message is a dissemination vehicle.
  for (usize i = 0; i < count; ++i) {
    const usize at = kHeaderSize + i * kEntrySize;
    const u16 entry_subject = GetU16(payload, at);
    const u8 entry_state = payload[at + 2];
    const u32 entry_inc = GetU32(payload, at + 3);
    if (entry_subject >= members_.size() || entry_state > static_cast<u8>(SwimState::kDead)) {
      ++malformed_;
      continue;
    }
    ApplyUpdate(entry_subject, static_cast<SwimState>(entry_state), entry_inc);
  }
  // Direct evidence the sender is reachable while we hold it suspect or
  // dead: re-arm the assertion so the reply piggybacks it straight back to
  // the subject, which then refutes with a bumped incarnation. Without this
  // a partition-induced Dead{k} is permanent — the subject's own Alive{k}
  // cannot supersede at equal incarnation, nobody probes a dead member, and
  // the original gossip's bounded retransmissions may die out before ever
  // reaching the subject.
  if (table_[from].state != SwimState::kAlive) {
    EnqueueGossip(from, table_[from].state, table_[from].incarnation);
  }
  switch (static_cast<SwimMessageType>(type_raw)) {
    case SwimMessageType::kPing:
      HandlePing(from, seq, subject);
      break;
    case SwimMessageType::kAck:
      HandleAck(from, seq, subject);
      break;
    case SwimMessageType::kPingReq:
      HandlePingReq(from, seq, subject);
      break;
    case SwimMessageType::kJoin:
      HandleJoin(from, seq);
      break;
    case SwimMessageType::kJoinAck:
      HandleJoinAck();
      break;
  }
}

void SwimPeer::HandlePing(u16 from, u32 seq, u16 subject) {
  ++acks_sent_;
  SendSwim(from, SwimMessageType::kAck, seq, subject, /*full_table=*/false);
}

void SwimPeer::HandleAck(u16 from, u32 seq, u16 subject) {
  // Relay leg: we pinged `from` on some origin's behalf — forward the good
  // news, restamped with the probed member as subject.
  for (usize i = 0; i < relays_.size(); ++i) {
    if (relays_[i].seq == seq && relays_[i].subject == from) {
      const u16 origin = relays_[i].origin;
      relays_.erase(relays_.begin() + static_cast<std::ptrdiff_t>(i));
      SendSwim(origin, SwimMessageType::kAck, seq, from, /*full_table=*/false);
      break;
    }
  }
  if (probe_.active && probe_.seq == seq && !probe_.acked &&
      (from == probe_.target || subject == probe_.target)) {
    probe_.acked = true;
    ++acks_received_;
  }
}

void SwimPeer::HandlePingReq(u16 from, u32 seq, u16 subject) {
  if (subject >= members_.size()) {
    ++malformed_;
    return;
  }
  if (subject == id_) {
    // Asked about ourselves: that is its own proof of life.
    ++acks_sent_;
    SendSwim(from, SwimMessageType::kAck, seq, id_, /*full_table=*/false);
    return;
  }
  if (relays_.size() >= 32) {
    relays_.erase(relays_.begin());  // bounded: oldest relay is long expired
  }
  relays_.push_back(Relay{seq, from, subject});
  ++pings_relayed_;
  SendSwim(subject, SwimMessageType::kPing, seq, from, /*full_table=*/false);
}

void SwimPeer::HandleJoin(u16 from, u32 seq) {
  // The joiner's fresh Alive{inc} arrived in the piggyback; answer with a
  // full snapshot so it recovers the cluster view in one round trip.
  ++join_acks_sent_;
  SendSwim(from, SwimMessageType::kJoinAck, seq, id_, /*full_table=*/true);
}

void SwimPeer::HandleJoinAck() {}  // the snapshot rode in on the piggyback

void SwimPeer::ApplyUpdate(u16 subject, SwimState state, u32 incarnation) {
  if (subject == id_) {
    // Someone thinks we are suspect/dead: refute with a higher incarnation.
    if (state != SwimState::kAlive && incarnation >= incarnation_) {
      incarnation_ = incarnation + 1;
      table_[id_] = MemberRecord{SwimState::kAlive, incarnation_, 0};
      ++refutations_;
      LogEvent(id_, SwimState::kAlive, incarnation_);
      EnqueueGossip(id_, SwimState::kAlive, incarnation_);
    }
    return;
  }
  MemberRecord& record = table_[subject];
  if (!Supersedes(state, incarnation, record.state, record.incarnation)) {
    return;
  }
  record.state = state;
  record.incarnation = incarnation;
  LogEvent(subject, state, incarnation);
  EnqueueGossip(subject, state, incarnation);
  if (state == SwimState::kSuspect) {
    ++suspects_declared_;
    const u64 epoch = ++record.suspect_epoch;
    const Picoseconds expiry =
        Now() + static_cast<Picoseconds>(config_.suspicion_periods) * config_.protocol_period;
    host_.scheduler().At(expiry, [this, subject, epoch] { DeathCheck(subject, epoch); });
  } else if (state == SwimState::kDead) {
    ++deads_declared_;
  }
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    obs::EmitInstant(tb, "swim." + members_[id_].name + "." + SwimStateName(state) + "." +
                             members_[subject].name,
                     Now());
  }
}

void SwimPeer::EnqueueGossip(u16 subject, SwimState state, u32 incarnation) {
  for (GossipUpdate& update : gossip_) {
    if (update.subject == subject) {
      update.state = state;
      update.incarnation = incarnation;
      update.sends_left = config_.gossip_transmissions;
      return;
    }
  }
  gossip_.push_back(GossipUpdate{subject, state, incarnation, config_.gossip_transmissions});
}

void SwimPeer::LogEvent(u16 subject, SwimState state, u32 incarnation) {
  events_.push_back(SwimEvent{Now(), id_, subject, state, incarnation});
}

void SwimPeer::SendSwim(u16 to, SwimMessageType type, u32 seq, u16 subject, bool full_table) {
  if (!CanSend() || to >= members_.size() || to == id_) {
    return;
  }
  std::vector<u8> payload;
  payload.reserve(kHeaderSize + config_.max_piggyback * kEntrySize);
  payload.push_back(static_cast<u8>(type));
  PutU16(payload, id_);
  PutU32(payload, seq);
  PutU16(payload, subject);
  payload.push_back(0);  // entry count, patched below
  usize count = 0;
  const auto add_entry = [&payload, &count](u16 s, SwimState st, u32 inc) {
    PutU16(payload, s);
    payload.push_back(static_cast<u8>(st));
    PutU32(payload, inc);
    ++count;
  };
  if (full_table) {
    const usize limit = std::min<usize>(members_.size(), 255);
    for (u16 m = 0; m < limit; ++m) {
      add_entry(m, table_[m].state, table_[m].incarnation);
    }
  } else {
    // Our own liveness rides on every message (free refutation/rejoin
    // spreading), then the most-underdisseminated queued updates — ties
    // break on lowest subject id so the pick order is seed-independent.
    add_entry(id_, SwimState::kAlive, incarnation_);
    while (count < config_.max_piggyback && !gossip_.empty()) {
      usize best = gossip_.size();
      for (usize i = 0; i < gossip_.size(); ++i) {
        if (gossip_[i].subject == id_) {
          continue;  // already included above
        }
        if (best == gossip_.size() || gossip_[i].sends_left > gossip_[best].sends_left ||
            (gossip_[i].sends_left == gossip_[best].sends_left &&
             gossip_[i].subject < gossip_[best].subject)) {
          best = i;
        }
      }
      if (best == gossip_.size()) {
        break;
      }
      GossipUpdate& update = gossip_[best];
      add_entry(update.subject, update.state, update.incarnation);
      ++gossip_entries_sent_;
      if (--update.sends_left == 0) {
        gossip_.erase(gossip_.begin() + static_cast<std::ptrdiff_t>(best));
      }
    }
  }
  payload[9] = static_cast<u8>(count);
  gossip_fanout_.Observe(count);
  const UdpPacketSpec spec{members_[to].mac,  members_[id_].mac, members_[id_].ip,
                           members_[to].ip,   kSwimUdpPort,      kSwimUdpPort};
  host_.Send(MakeUdpPacket(spec, payload));
}

u64 SwimPeer::EventsDigest() const {
  u64 h = kFnvOffset;
  for (const SwimEvent& event : events_) {
    h = Fnv1aU64(h, static_cast<u64>(event.at));
    h = Fnv1aU64(h, event.observer);
    h = Fnv1aU64(h, event.subject);
    h = Fnv1aU64(h, static_cast<u64>(event.state));
    h = Fnv1aU64(h, event.incarnation);
  }
  return h;
}

void SwimPeer::RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.Register(prefix + ".pings_sent", &pings_sent_);
  metrics.Register(prefix + ".acks_sent", &acks_sent_);
  metrics.Register(prefix + ".acks_received", &acks_received_);
  metrics.Register(prefix + ".ping_reqs_sent", &ping_reqs_sent_);
  metrics.Register(prefix + ".pings_relayed", &pings_relayed_);
  metrics.Register(prefix + ".joins_sent", &joins_sent_);
  metrics.Register(prefix + ".suspects_declared", &suspects_declared_);
  metrics.Register(prefix + ".deads_declared", &deads_declared_);
  metrics.Register(prefix + ".refutations", &refutations_);
  metrics.Register(prefix + ".gossip_entries_sent", &gossip_entries_sent_);
  metrics.Register(prefix + ".malformed", &malformed_);
  metrics.RegisterHistogram(prefix + ".gossip_fanout", &gossip_fanout_);
}

}  // namespace emu
