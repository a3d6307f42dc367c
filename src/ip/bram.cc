#include "src/ip/bram.h"

#include <cassert>

namespace emu {

Bram::Bram(Simulator& sim, std::string name, usize words, usize word_bits)
    : Module(sim, std::move(name)),
      word_bits_(word_bits),
      word_mask_(word_bits >= 64 ? ~u64{0} : (u64{1} << word_bits) - 1),
      data_(words, 0) {
  assert(words > 0);
  assert(word_bits > 0 && word_bits <= 64);
  AddResources(BramResources(words * word_bits));
  sim.RegisterClocked(this);
  sim.catalog().AddElement(this, elab::NodeKind::kBram, this->name());
}

// See the lifetime rule in simulator.h: no unregistration on destruction.
Bram::~Bram() = default;

u64 Bram::Read(usize addr) const {
  assert(addr < data_.size());
  return data_[addr];
}

void Bram::Write(usize addr, u64 value) {
  assert(addr < data_.size());
  if (pending_.empty()) {
    sim().AnnounceDirty(this);
  }
  pending_.push_back(PendingWrite{addr, value & word_mask_});
}

void Bram::InjectBitFlip(u64 bit) {
  const usize addr = static_cast<usize>(bit / word_bits_) % data_.size();
  const usize in_word = static_cast<usize>(bit % word_bits_);
  data_[addr] = (data_[addr] ^ (u64{1} << in_word)) & word_mask_;
  // Committed state changed out-of-band; parked WaitUntil predicates that
  // read this word must be re-evaluated.
  sim().NotifyWake();
}

void Bram::Commit() {
  if (pending_.empty()) {
    return;
  }
  for (const PendingWrite& write : pending_) {
    data_[write.addr] = write.value;
  }
  pending_.clear();
  // A parked process may be waiting on Read(addr); the commit is the moment
  // the new contents become observable.
  sim().NotifyWakeFor(this);
}

}  // namespace emu
