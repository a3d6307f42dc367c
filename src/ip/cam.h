// Content-addressable memory IP block.
//
// The paper's learning switch stores its MAC table in a vendor CAM IP block
// (§4.1); Emu's contribution is that C# code can drive such blocks directly.
// Cam models the IP block: write-by-address, search-by-content, single-cycle
// lookup on the committed (post-edge) contents, writes visible after the next
// edge. LogicCam (logic_cam.h) implements the identical interface with the
// resource/latency profile of a CAM synthesized from plain high-level code.
#ifndef SRC_IP_CAM_H_
#define SRC_IP_CAM_H_

#include <optional>
#include <vector>

#include "src/common/types.h"
#include "src/hdl/module.h"

namespace emu {

struct CamLookupResult {
  bool hit = false;
  u64 value = 0;
  usize index = 0;
};

// Interface shared by the IP CAM and the logic CAM so services can be
// parameterized over the variant (the §4.1 trade-off and its ablation bench).
class CamInterface {
 public:
  virtual ~CamInterface() = default;

  virtual usize entries() const = 0;
  // Cycles between presenting a key and the match result being valid.
  virtual Cycle lookup_latency() const = 0;

  // Searches committed contents by key.
  virtual CamLookupResult Lookup(u64 key) const = 0;
  // Writes an entry at `index`; visible after the next clock edge.
  virtual void Write(usize index, u64 key, u64 value) = 0;
  // Invalidates an entry; visible after the next clock edge.
  virtual void Invalidate(usize index) = 0;
};

class Cam : public Module, public CamInterface, public Clocked {
 public:
  static constexpr Cycle kLookupLatency = 1;

  Cam(Simulator& sim, std::string name, usize entries, usize key_bits, usize value_bits);
  ~Cam() override;

  usize entries() const override { return slots_.size(); }
  Cycle lookup_latency() const override { return kLookupLatency; }
  usize key_bits() const { return key_bits_; }

  CamLookupResult Lookup(u64 key) const override;
  void Write(usize index, u64 key, u64 value) override;
  void Invalidate(usize index) override;

  bool ValidAt(usize index) const { return slots_[index].valid; }

  // SEU-style fault injection (emu-fault): flips one committed bit of one
  // slot. Per-slot layout: bit 0 = valid flag, bits [1, 1+key_bits) = key;
  // `bit` indexes the whole array in (1 + key_bits)-bit slots. A flipped
  // valid bit drops (or resurrects) an entry; a flipped key bit makes
  // lookups miss — both realistic CAM upset modes.
  void InjectBitFlip(u64 bit);
  // Bits addressable by InjectBitFlip, for SEU-target registration.
  u64 state_bits() const { return static_cast<u64>(slots_.size()) * (1 + key_bits_); }

  void Commit() override;

 private:
  struct Slot {
    bool valid = false;
    u64 key = 0;
    u64 value = 0;
  };
  struct PendingWrite {
    usize index;
    Slot slot;
  };

  usize key_bits_;
  u64 key_mask_;
  std::vector<Slot> slots_;
  std::vector<PendingWrite> pending_;
};

}  // namespace emu

#endif  // SRC_IP_CAM_H_
