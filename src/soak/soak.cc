#include "src/soak/soak.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/core/metrics.h"
#include "src/obs/pulse.h"
#include "src/sim/topology.h"

namespace emu::soak {

bool Flags::Parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (std::strcmp(argv[i], f.name) == 0) flag = &f;
    }
    if (flag == nullptr || (flag->on == nullptr && i + 1 >= argc)) {
      return false;
    }
    if (flag->on != nullptr) {
      *flag->on = true;
    } else if (flag->number != nullptr) {
      *flag->number = std::strtoull(argv[++i], nullptr, 10);
    } else {
      *flag->text = argv[++i];
    }
  }
  return true;
}

void AddCommonFlags(Flags& flags, CommonOptions& opt) {
  flags.Number("--seed", &opt.first_seed);
  flags.Text("--log-dir", &opt.log_dir);
  flags.Text("--slo", &opt.slo_text);
  flags.Text("--prom", &opt.prom_path);
  flags.Switch("--verbose", &opt.verbose);
}

void AddLatticeFlags(Flags& flags, CommonOptions& opt) {
  flags.Number("--seeds", &opt.seed_count);
  flags.Number("--threads", &opt.threads);
  flags.Number("--sample-us", &opt.sample_interval_us);
}

void CompareLattice(const Fingerprint& serial, const Fingerprint& parallel,
                    const Fingerprint& replay, usize threads,
                    std::vector<std::string>& violations) {
  const std::string vs_serial = "determinism: threads=1 vs threads=" + std::to_string(threads);
  if (serial.digests != parallel.digests) {
    violations.push_back(vs_serial + " digests diverged");
  }
  if (replay.digests != parallel.digests) {
    violations.push_back("determinism: same-seed replay digests diverged");
  }
  if (parallel.trace != nullptr && *serial.trace != *parallel.trace) {
    violations.push_back(vs_serial + " traces are not byte-identical");
  }
  if (parallel.trace != nullptr && *replay.trace != *parallel.trace) {
    violations.push_back("determinism: replay trace is not byte-identical");
  }
}

std::string DigestRow(const char* label, u64 serial, u64 parallel, u64 replay) {
  char row[128];
  std::snprintf(row, sizeof(row), "%s serial=%016llx threads=%016llx replay=%016llx\n", label,
                static_cast<unsigned long long>(serial), static_cast<unsigned long long>(parallel),
                static_cast<unsigned long long>(replay));
  return row;
}

u64 RunWithPulse(TopologyBuilder& topology, usize threads, Telemetry& telemetry) {
  obs::RunnerPulse pulse;
  topology.runner().AttachPulse(&pulse);
  ParallelRunOptions options;
  options.threads = threads;
  const u64 events = topology.Run(options);
  topology.runner().AttachPulse(nullptr);
  telemetry.pulse_json = pulse.SummaryJson();
  telemetry.pulse_trace_json = pulse.WallClockTraceJson();
  return events;
}

bool WriteFileOrWarn(const char* tool, const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

void WriteTelemetry(const char* tool, const std::string& base,
                    const obs::DashboardOptions& dashboard,
                    const std::vector<obs::ChartSpec>& charts, const Telemetry& telemetry,
                    const obs::SloReport& slo) {
  obs::WriteSoakDashboardHtml(base + ".dashboard.html", dashboard, telemetry.series, charts, slo);
  WriteFileOrWarn(tool, base + ".series.json", telemetry.series.SeriesJson());
  if (!telemetry.pulse_json.empty()) {
    WriteFileOrWarn(tool, base + ".pulse.json", telemetry.pulse_json);
    WriteFileOrWarn(tool, base + ".pulse.trace.json", telemetry.pulse_trace_json);
  }
}

bool WritePrometheus(const char* tool, const std::string& path, const std::string& text,
                     const char* indent) {
  std::string lint_error;
  const bool clean = PrometheusLint(text, &lint_error);
  if (!clean) {
    std::printf("%sprom lint: %s\n", indent, lint_error.c_str());
  }
  WriteFileOrWarn(tool, path, text);
  return clean;
}

std::optional<std::vector<obs::SloClause>> ParseSlo(const char* tool, const std::string& text) {
  obs::SloParseResult parsed = obs::ParseSloSpec(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "%s: %s\n", tool, parsed.error.c_str());
    return std::nullopt;
  }
  return std::move(parsed.clauses);
}

obs::SloLookup SnapshotLookup(std::vector<std::pair<std::string, double>> derived,
                              const std::vector<std::pair<std::string, u64>>& snapshot) {
  return [derived = std::move(derived),
          &snapshot](const std::string& name) -> std::optional<double> {
    for (const auto& [metric, value] : derived) {
      if (metric == name) return value;
    }
    for (const auto& [metric, value] : snapshot) {
      if (metric == name) return static_cast<double>(value);
    }
    return std::nullopt;
  };
}

int Finish(const char* tool, bool all_ok) {
  std::printf("%s: %s\n", tool, all_ok ? "all invariants held" : "FAILURES");
  return all_ok ? 0 : 1;
}

}  // namespace emu::soak
