#include "src/fault/fault_registry.h"

#include <algorithm>
#include <sstream>

#include "src/common/fnv.h"
#include "src/core/metrics.h"
#include "src/obs/trace_hooks.h"

namespace emu {
namespace {

// Per-point RNG seeds and log digests are FNV-1a (src/common/fnv.h), not
// std::hash: the stream a point draws from must be stable across builds and
// standard libraries for replays to be portable.
u64 HashName(const std::string& name) { return Fnv1aBytes(kFnvOffset, name); }

}  // namespace

bool FaultPoint::Sample(u64 tick, u64 detail) {
  ++opportunities_;
  bool fire = false;
  switch (schedule_.mode) {
    case FaultSchedule::Mode::kDisabled:
      break;
    case FaultSchedule::Mode::kOneShot:
      if (!oneshot_done_ && tick >= schedule_.at) {
        oneshot_done_ = true;
        fire = true;
      }
      break;
    case FaultSchedule::Mode::kBernoulli:
      fire = rng_.NextBool(schedule_.probability);
      break;
    case FaultSchedule::Mode::kBurst:
      if (tick >= schedule_.from && tick < schedule_.until) {
        fire = rng_.NextBool(schedule_.probability);
      }
      break;
  }
  if (fire) {
    ++fired_;
    registry_.LogFire(*this, tick, detail);
  }
  return fire;
}

FaultPoint* FaultRegistry::Register(const std::string& name, FaultClass cls) {
  if (FaultPoint* existing = Find(name)) {
    return existing;
  }
  points_.push_back(
      std::make_unique<FaultPoint>(*this, name, cls, seed_ ^ HashName(name)));
  FaultPoint* point = points_.back().get();
  // A pattern armed before this point existed still applies to it; later
  // entries win so plans read top-to-bottom like overrides.
  for (const FaultPlanEntry& entry : armed_patterns_) {
    if (FaultPatternMatches(entry.pattern, name)) {
      point->schedule_ = entry.schedule;
      point->oneshot_done_ = false;
    }
  }
  return point;
}

FaultPoint* FaultRegistry::Find(const std::string& name) {
  for (const auto& point : points_) {
    if (point->name() == name) {
      return point.get();
    }
  }
  return nullptr;
}

FaultPoint* FaultRegistry::RegisterSeuTarget(const std::string& name, u64 bit_count,
                                             std::function<void(u64 bit)> flip) {
  FaultPoint* point = Register(name, FaultClass::kSeuBitFlip);
  callback_targets_.push_back({point, bit_count, std::move(flip)});
  return point;
}

FaultPoint* FaultRegistry::RegisterStallTarget(const std::string& name,
                                               std::function<void(u64 cycles)> stall) {
  FaultPoint* point = Register(name, FaultClass::kFifoStall);
  callback_targets_.push_back({point, 0, std::move(stall)});
  return point;
}

usize FaultRegistry::Tick(u64 tick) {
  usize fired = 0;
  for (CallbackTarget& target : callback_targets_) {
    FaultPoint& point = *target.point;
    if (!point.armed()) {
      continue;  // disarmed targets draw nothing: bit-identical to no registry
    }
    u64 detail = 0;
    if (target.detail_bound > 0) {
      detail = point.NextDetail(target.detail_bound);
    } else {
      detail = point.magnitude();
    }
    if (point.Sample(tick, detail)) {
      target.apply(detail);
      ++fired;
    }
  }
  return fired;
}

u64 FaultRegistry::NextTickDemand(u64 tick) const {
  u64 demand = kNeverDemands;
  for (const CallbackTarget& target : callback_targets_) {
    const FaultPoint& point = *target.point;
    if (!point.armed()) {
      continue;
    }
    if (target.detail_bound > 0) {
      return tick;  // SEU target: NextDetail is drawn on every tick
    }
    const FaultSchedule& schedule = point.schedule_;
    switch (schedule.mode) {
      case FaultSchedule::Mode::kDisabled:
        break;
      case FaultSchedule::Mode::kOneShot:
        if (!point.oneshot_done_) {
          demand = std::min(demand, std::max(schedule.at, tick));
        }
        break;
      case FaultSchedule::Mode::kBernoulli:
        return tick;  // a NextBool per tick: every tick must sample
      case FaultSchedule::Mode::kBurst:
        if (tick < schedule.until) {
          demand = std::min(demand, std::max(schedule.from, tick));
        }
        break;
    }
  }
  return demand;
}

void FaultRegistry::NoteSkippedTicks(u64 count) {
  for (CallbackTarget& target : callback_targets_) {
    FaultPoint& point = *target.point;
    if (point.armed()) {
      point.opportunities_ += count;
    }
  }
}

usize FaultRegistry::Arm(const std::string& pattern, const FaultSchedule& schedule) {
  usize matched = 0;
  for (const auto& point : points_) {
    if (FaultPatternMatches(pattern, point->name())) {
      point->schedule_ = schedule;
      point->oneshot_done_ = false;
      ++matched;
    }
  }
  armed_patterns_.push_back({pattern, schedule});
  return matched;
}

usize FaultRegistry::ArmPlan(const FaultPlan& plan) {
  usize matched = 0;
  for (const FaultPlanEntry& entry : plan.entries) {
    matched += Arm(entry.pattern, entry.schedule);
  }
  return matched;
}

void FaultRegistry::DisarmAll() {
  armed_patterns_.clear();
  for (const auto& point : points_) {
    point->schedule_ = FaultSchedule{};
    point->oneshot_done_ = false;
  }
}

void FaultRegistry::LogTopoEvent(u64 tick, const std::string& site, FaultClass cls,
                                 u64 detail) {
  // Topo events are logged up front, single-threaded, in time order; the
  // running ordinal preserves that order through the canonical sort.
  std::lock_guard<std::mutex> lock(log_mu_);
  log_.push_back({tick, site, cls, detail, ++topo_seq_});
}

void FaultRegistry::LogFire(const FaultPoint& point, u64 tick, u64 detail) {
  {
    // point.fired() was just incremented by Sample: the 1-based per-site
    // ordinal, deterministic because each point is sampled by one shard.
    std::lock_guard<std::mutex> lock(log_mu_);
    log_.push_back({tick, point.name(), point.cls(), detail, point.fired()});
  }
  // Firings are rare; the per-fire string build is off the hot path.
  if (obs::TraceBuffer* tb = obs::ActiveBuffer(); tb != nullptr && trace_tick_period_ps_ > 0) {
    obs::EmitInstant(tb, "fault." + point.name(),
                     static_cast<Picoseconds>(tick) * trace_tick_period_ps_);
  }
}

void FaultRegistry::RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.Register(prefix + ".fired_total", [this] { return static_cast<u64>(log_.size()); });
  metrics.RegisterGauge(prefix + ".points", [this] { return static_cast<u64>(points_.size()); });
  metrics.RegisterGauge(prefix + ".armed_points", [this] {
    u64 armed = 0;
    for (const auto& point : points_) {
      if (point->armed()) {
        ++armed;
      }
    }
    return armed;
  });
}

std::vector<FaultEvent> FaultRegistry::CanonicalLog() const {
  std::vector<FaultEvent> events;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    events = log_;
  }
  std::sort(events.begin(), events.end(), [](const FaultEvent& a, const FaultEvent& b) {
    if (a.tick != b.tick) return a.tick < b.tick;
    if (a.site != b.site) return a.site < b.site;
    return a.seq < b.seq;
  });
  return events;
}

u64 FaultRegistry::LogDigest() const {
  u64 h = kFnvOffset;
  for (const FaultEvent& event : CanonicalLog()) {
    h = Fnv1aU64(h, event.tick);
    h = Fnv1aBytes(h, event.site);
    h = Fnv1aByte(h, static_cast<u8>(event.cls));
    h = Fnv1aU64(h, event.detail);
  }
  return h;
}

std::string FaultRegistry::Summary() const {
  std::ostringstream out;
  out << "fault registry: seed=" << seed_ << " points=" << points_.size()
      << " injections=" << log_.size() << "\n";
  for (const auto& point : points_) {
    if (point->opportunities() == 0 && !point->armed()) {
      continue;
    }
    out << "  " << point->name() << " [" << FaultClassName(point->cls())
        << "] schedule=" << point->schedule().ToString()
        << " opportunities=" << point->opportunities() << " fired=" << point->fired()
        << "\n";
  }
  return out.str();
}

}  // namespace emu
