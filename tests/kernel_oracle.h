// The kernel oracle: one workload per stock design, one digest of everything
// a run can disagree on, and one equivalence check.
//
// The fast path (quiescence fast-forward, epoch-lazy WaitUntil evaluation,
// routed wakes) is an optimization shortcut, not a semantics change: with
// SetFastPath(false) every cycle executes and every parked predicate is
// evaluated per edge, the reference semantics. A cell of the oracle is one
// design under one pacing; the fast and RunUntil drives of a cell must agree
// with its exact drive bit for bit.
//
//   designs  learning switch, NAT, 4-core memcached, NAT under a fault plan
//   pacings  idle       bursts with long gaps: the fast path jumps most cycles
//            saturated  one frame per cycle, above line rate and no wider
//                       apart than the pipeline's occupancy: the busy path
//                       executes the traffic phase edge by edge
//   drives   exact      SetFastPath(false)
//            fast       the default fast path through Run
//            run_until  the fast path through RunUntil with a predicate that
//                       never holds, evaluated before every executed edge
#ifndef TESTS_KERNEL_ORACLE_H_
#define TESTS_KERNEL_ORACLE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/targets.h"
#include "src/fault/fault_registry.h"

namespace emu::oracle {

enum class Design { kSwitch, kNat, kMemcached, kNatFaults };
enum class Pacing { kIdle, kSaturated };
enum class Drive { kExact, kFast, kRunUntil };

const char* DesignName(Design design);
const char* PacingName(Pacing pacing);
const char* DriveName(Drive drive);

// The switch workload's four hosts, one per port.
extern const MacAddress kHostMacs[4];
extern const Ipv4Address kHostIps[4];
// A broadcast UDP frame from host `src` carrying `tag`: teaches its MAC.
Packet BroadcastFrame(u8 src, u8 tag);
// A unicast UDP frame from host `src` to host `dst`, `len` bytes of `fill`.
Packet UnicastFrame(u8 src, u8 dst, usize len, u8 fill);

// Everything a run can disagree on.
struct RunDigest {
  Cycle final_now = 0;
  usize egress_count = 0;
  u64 egress_digest = 0;
  std::vector<std::pair<std::string, u64>> metrics;
  SimProfile profile;
  u64 resumes_total = 0;  // per-process resumes must match edge for edge
  // The traffic phase: the cycles from the first traffic frame to the start
  // of the drain tail, and the edges executed in them.
  u64 traffic_cycles = 0;
  u64 traffic_edges = 0;
  // Fault registry books (zero when no registry is passed to Capture).
  u64 faults_fired = 0;
  u64 fault_log_digest = 0;

  void Capture(FpgaTarget& target, const MetricsRegistry& metrics,
               const FaultRegistry* registry = nullptr);
};

// Runs on the freshly built target before any frame: profiler settings,
// schedule assertions.
using Setup = std::function<void(FpgaTarget&)>;

RunDigest RunDesign(Design design, Pacing pacing, Drive drive, const Setup& setup = {});

// `got` must match `want` on every observable and account for the same
// cycle span as executed edges plus fast-forwarded cycles (against an exact
// run, which fast-forwards nothing: its executed edges).
void ExpectEquivalent(const RunDigest& got, const RunDigest& want);

}  // namespace emu::oracle

#endif  // TESTS_KERNEL_ORACLE_H_
