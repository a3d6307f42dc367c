// Soak harness (emu-soak): the plumbing the soak binaries share, as plain
// functions each soak's Main calls in its own order. A soak supplies a run
// (one seed at one thread count), an invariant checker and its SLO metrics;
// this owns the flag table, the threads=1 / threads=T / replay lattice and
// its comparisons, artifact writers, and the SLO exit contract: clauses
// parse before any run (exit 2), and any violation or breach exits 1.
#ifndef SRC_SOAK_SOAK_H_
#define SRC_SOAK_SOAK_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/dashboard.h"

namespace emu {

class TopologyBuilder;

namespace soak {

// The shared flags; each soak sets its defaults and registers what it takes.
struct CommonOptions {
  u64 first_seed = 1;          // --seed
  u64 seed_count = 1;          // --seeds
  usize threads = 4;           // --threads
  u64 sample_interval_us = 0;  // --sample-us
  std::string log_dir;         // --log-dir
  std::string slo_text;        // --slo
  std::string prom_path;       // --prom
  bool verbose = false;        // --verbose
};

// `--name N` (strtoull), `--name TEXT` or a bare `--name` switch.
class Flags {
 public:
  void Number(const char* name, u64* value) { flags_.push_back({name, value, nullptr, nullptr}); }
  void Text(const char* name, std::string* value) {
    flags_.push_back({name, nullptr, value, nullptr});
  }
  void Switch(const char* name, bool* value) { flags_.push_back({name, nullptr, nullptr, value}); }
  // False on an unknown flag or a missing value: the caller prints usage.
  bool Parse(int argc, char** argv) const;

 private:
  struct Flag {
    const char* name;
    u64* number;
    std::string* text;
    bool* on;
  };
  std::vector<Flag> flags_;
};

// --seed --log-dir --slo --prom --verbose, and the lattice soaks' --seeds
// --threads --sample-us.
void AddCommonFlags(Flags& flags, CommonOptions& opt);
void AddLatticeFlags(Flags& flags, CommonOptions& opt);

// One seed's runs; invariants and SLOs look at `parallel`.
template <typename Run>
struct Lattice {
  Run serial;    // threads=1
  Run parallel;  // threads=T
  Run replay;    // threads=T, same seed
};

template <typename RunOnce>
auto RunLattice(u64 seed, usize threads, const RunOnce& run)
    -> Lattice<decltype(run(seed, threads))> {
  return {run(seed, 1), run(seed, threads), run(seed, threads)};
}

// Digests that must be equal across the lattice, and optionally a trace that
// must be byte-identical.
struct Fingerprint {
  std::vector<u64> digests;
  const std::string* trace = nullptr;
};

// Appends "determinism: threads=1 vs threads=T digests diverged", "...:
// same-seed replay digests diverged", "...: threads=1 vs threads=T traces
// are not byte-identical" and "...: replay trace is not byte-identical" for
// each broken equivalence, in that order.
void CompareLattice(const Fingerprint& serial, const Fingerprint& parallel,
                    const Fingerprint& replay, usize threads,
                    std::vector<std::string>& violations);

// One line of a lattice digest table: "<label> serial=%016llx threads=... replay=...".
std::string DigestRow(const char* label, u64 serial, u64 parallel, u64 replay);

// What a run records beside its deterministic results; never compared.
struct Telemetry {
  explicit Telemetry(usize series_capacity) : series(series_capacity) {}
  obs::TimeSeriesRecorder series;
  std::vector<std::pair<std::string, u64>> final_metrics;  // SLO snapshot
  std::string prom_text;
  std::string pulse_json;        // runner epoch profile (wall clock)
  std::string pulse_trace_json;  // and its Chrome trace
};

// Runs `topology` at `threads` with a RunnerPulse attached; returns events.
u64 RunWithPulse(TopologyBuilder& topology, usize threads, Telemetry& telemetry);

// Warns "<tool>: cannot write <path>" on failure.
bool WriteFileOrWarn(const char* tool, const std::string& path, const std::string& text);
// <base>.dashboard.html, .series.json, and .pulse.json + .pulse.trace.json
// when the run went through RunWithPulse.
void WriteTelemetry(const char* tool, const std::string& base,
                    const obs::DashboardOptions& dashboard,
                    const std::vector<obs::ChartSpec>& charts, const Telemetry& telemetry,
                    const obs::SloReport& slo);
// Prints "<indent>prom lint: <error>" on a lint finding, writes `text`
// either way, and returns whether it linted clean.
bool WritePrometheus(const char* tool, const std::string& path, const std::string& text,
                     const char* indent);

// nullopt after "<tool>: <error>" on stderr: the caller exits 2.
std::optional<std::vector<obs::SloClause>> ParseSlo(const char* tool, const std::string& text);
// Harness-derived values first, then the end-of-run snapshot (which must
// outlive the lookup).
obs::SloLookup SnapshotLookup(std::vector<std::pair<std::string, double>> derived,
                              const std::vector<std::pair<std::string, u64>>& snapshot);
// Prints "<tool>: all invariants held" or "<tool>: FAILURES"; returns 0 or 1.
int Finish(const char* tool, bool all_ok);

}  // namespace soak
}  // namespace emu

#endif  // SRC_SOAK_SOAK_H_
