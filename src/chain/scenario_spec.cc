#include "src/chain/scenario_spec.h"

#include <cstdlib>
#include <sstream>

#include "src/common/spec_lexer.h"

namespace emu {
namespace {

using lex::KeyValue;
using lex::ParseTimePs;
using lex::ParseU64;
using lex::Tokenize;

// Bit rate with an optional K/M/G suffix ("10G" = 10^10 bits/s).
bool ParseRate(const std::string& text, u64& out) {
  const bool ok = lex::ParseScaled(
      text, {{"K", 1'000}, {"k", 1'000}, {"M", 1'000'000}, {"G", 1'000'000'000}}, out);
  return ok && out > 0;
}

bool ParseMac(const std::string& text, MacAddress& out) {
  if (text.size() < 3 || text[0] != '0' || (text[1] != 'x' && text[1] != 'X')) {
    return false;
  }
  char* end = nullptr;
  const u64 value = std::strtoull(text.c_str() + 2, &end, 16);
  if (end == nullptr || *end != '\0' || value > 0xffff'ffff'ffffULL) {
    return false;
  }
  out = MacAddress::FromU48(value);
  return true;
}

bool ParseIp(const std::string& text, Ipv4Address& out) {
  u32 parts[4];
  usize part = 0;
  u64 acc = 0;
  bool have_digit = false;
  for (const char c : text) {
    if (c == '.') {
      if (!have_digit || part >= 3) {
        return false;
      }
      parts[part++] = static_cast<u32>(acc);
      acc = 0;
      have_digit = false;
    } else if (c >= '0' && c <= '9') {
      acc = acc * 10 + static_cast<u64>(c - '0');
      if (acc > 255) {
        return false;
      }
      have_digit = true;
    } else {
      return false;
    }
  }
  if (!have_digit || part != 3) {
    return false;
  }
  parts[3] = static_cast<u32>(acc);
  out = Ipv4Address(static_cast<u8>(parts[0]), static_cast<u8>(parts[1]),
                    static_cast<u8>(parts[2]), static_cast<u8>(parts[3]));
  return true;
}

bool IsKeyValue(const std::string& token, std::string& key, std::string& value) {
  const usize eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
    return false;
  }
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

}  // namespace

const char* SpecTopologyName(SpecTopology shape) {
  switch (shape) {
    case SpecTopology::kHub: return "hub";
    case SpecTopology::kStar: return "star";
    case SpecTopology::kCluster: return "cluster";
  }
  return "?";
}

const char* StageTargetName(StageTarget target) {
  return target == StageTarget::kFpga ? "fpga" : "cpu";
}

usize ScenarioSpec::FindHost(const std::string& name) const {
  for (usize i = 0; i < hosts.size(); ++i) {
    if (hosts[i].name == name) {
      return i;
    }
  }
  return hosts.size();
}

usize ScenarioSpec::FindStage(const std::string& name) const {
  for (usize i = 0; i < stages.size(); ++i) {
    if (stages[i].name == name) {
      return i;
    }
  }
  return stages.size();
}

usize ScenarioSpec::Downstream(usize stage) const {
  if (stage < stages.size()) {
    for (const SpecEdge& edge : edges) {
      if (edge.from == stages[stage].name) {
        return FindStage(edge.to);
      }
    }
  }
  return stages.size();
}

usize ScenarioSpec::Upstream(usize stage) const {
  if (stage < stages.size()) {
    for (const SpecEdge& edge : edges) {
      if (edge.to == stages[stage].name) {
        return FindStage(edge.from);
      }
    }
  }
  return stages.size();
}

SpecHost AutoHost(usize index) {
  return SpecHost{"h" + std::to_string(index),
                  MacAddress::FromU48(0x02'00'00'00'a0'00ULL + index),
                  Ipv4Address(10, 0, 0, static_cast<u8>(1 + index)), 0};
}

Expected<ScenarioSpec> ParseScenarioSpec(const std::string& text) {
  ScenarioSpec spec;
  std::vector<std::pair<std::vector<std::string>, usize>> chain_lines;
  bool saw_topology = false;

  const auto fail = [](usize line, const std::string& what, const std::string& entry) {
    return InvalidArgument("scenario spec line " + std::to_string(line) + ": " + what +
                           ": " + entry);
  };

  usize line_number = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ++line_number;
    // Comments run to end of line; strip before splitting on ';' so a
    // semicolon inside a comment does not start a phantom entry.
    const usize hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream entries(line);
    std::string entry;
    while (std::getline(entries, entry, ';')) {
      const std::vector<std::string> tokens = Tokenize(entry);
      if (tokens.empty()) {
        continue;
      }
      const std::string& kw = tokens[0];
      if (kw == "topology") {
        if (saw_topology) {
          return fail(line_number, "duplicate topology line", entry);
        }
        saw_topology = true;
        spec.topology_line = line_number;
        if (tokens.size() < 2) {
          return fail(line_number, "topology needs a shape (hub|star|cluster)", entry);
        }
        if (tokens[1] == "hub") {
          spec.topology = SpecTopology::kHub;
        } else if (tokens[1] == "star") {
          spec.topology = SpecTopology::kStar;
        } else if (tokens[1] == "cluster") {
          spec.topology = SpecTopology::kCluster;
        } else {
          return fail(line_number, "unknown topology shape '" + tokens[1] + "'", entry);
        }
        for (usize i = 2; i < tokens.size(); ++i) {
          std::string value;
          u64 number = 0;
          if (KeyValue(tokens[i], "hosts", value)) {
            if (!ParseU64(value, number) || number == 0 || number > 64) {
              return fail(line_number, "bad hosts count '" + value + "'", entry);
            }
            for (usize h = 0; h < number; ++h) {
              SpecHost host = AutoHost(h);
              host.line = line_number;
              if (spec.FindHost(host.name) != spec.hosts.size()) {
                return fail(line_number, "duplicate host '" + host.name + "'", entry);
              }
              spec.hosts.push_back(std::move(host));
            }
          } else if (KeyValue(tokens[i], "link_rate", value)) {
            if (!ParseRate(value, spec.link_bits_per_second)) {
              return fail(line_number, "bad link_rate '" + value + "'", entry);
            }
          } else if (KeyValue(tokens[i], "link_delay", value)) {
            u64 delay = 0;
            if (!ParseTimePs(value, delay) || delay == 0) {
              return fail(line_number, "bad link_delay '" + value + "'", entry);
            }
            spec.link_delay = static_cast<Picoseconds>(delay);
          } else if (KeyValue(tokens[i], "impair", value)) {
            spec.impair_prefix = value;
          } else {
            return fail(line_number, "unknown topology operand '" + tokens[i] + "'", entry);
          }
        }
      } else if (kw == "host") {
        if (tokens.size() < 2) {
          return fail(line_number, "host needs a name", entry);
        }
        SpecHost host;
        host.name = tokens[1];
        host.line = line_number;
        if (spec.FindHost(host.name) != spec.hosts.size()) {
          return fail(line_number, "duplicate host '" + host.name + "'", entry);
        }
        // Defaults follow the auto-host convention at this host's index.
        const SpecHost defaults = AutoHost(spec.hosts.size());
        host.mac = defaults.mac;
        host.ip = defaults.ip;
        for (usize i = 2; i < tokens.size(); ++i) {
          std::string value;
          if (KeyValue(tokens[i], "mac", value)) {
            if (!ParseMac(value, host.mac)) {
              return fail(line_number, "bad mac '" + value + "'", entry);
            }
          } else if (KeyValue(tokens[i], "ip", value)) {
            if (!ParseIp(value, host.ip)) {
              return fail(line_number, "bad ip '" + value + "'", entry);
            }
          } else {
            return fail(line_number, "unknown host operand '" + tokens[i] + "'", entry);
          }
        }
        spec.hosts.push_back(std::move(host));
      } else if (kw == "stage") {
        if (tokens.size() < 2) {
          return fail(line_number, "stage needs a name", entry);
        }
        SpecStage stage;
        stage.name = tokens[1];
        stage.line = line_number;
        if (spec.FindStage(stage.name) != spec.stages.size()) {
          return fail(line_number, "duplicate stage '" + stage.name + "'", entry);
        }
        for (usize i = 2; i < tokens.size(); ++i) {
          std::string value;
          u64 number = 0;
          if (KeyValue(tokens[i], "kind", value)) {
            stage.kind = value;
          } else if (KeyValue(tokens[i], "host", value)) {
            stage.host = value;
          } else if (KeyValue(tokens[i], "target", value)) {
            if (value == "cpu") {
              stage.target = StageTarget::kCpu;
            } else if (value == "fpga") {
              stage.target = StageTarget::kFpga;
            } else {
              return fail(line_number, "bad target '" + value + "' (cpu|fpga)", entry);
            }
          } else if (KeyValue(tokens[i], "queue", value)) {
            if (!ParseU64(value, number) || number > 4096) {
              return fail(line_number, "bad queue depth '" + value + "'", entry);
            }
            stage.queue = number;
          } else if (KeyValue(tokens[i], "delay", value)) {
            if (!ParseTimePs(value, number)) {
              return fail(line_number, "bad delay '" + value + "'", entry);
            }
            stage.delay = static_cast<Picoseconds>(number);
          } else {
            std::string key;
            if (!IsKeyValue(tokens[i], key, value)) {
              return fail(line_number, "unknown stage operand '" + tokens[i] + "'", entry);
            }
            stage.attrs.emplace_back(key, value);  // factory-interpreted knob
          }
        }
        if (stage.kind.empty()) {
          return fail(line_number, "stage needs kind=", entry);
        }
        spec.stages.push_back(std::move(stage));
      } else if (kw == "chain") {
        if (tokens.size() < 2) {
          return fail(line_number, "chain needs stages", entry);
        }
        // Elements alternate names and "->"; validated against declared
        // stages/hosts once the whole spec is read.
        std::vector<std::string> elements;
        for (usize i = 1; i < tokens.size(); ++i) {
          if (i % 2 == 0) {
            if (tokens[i] != "->") {
              return fail(line_number, "expected '->' between chain elements", entry);
            }
          } else {
            elements.push_back(tokens[i]);
          }
        }
        if (tokens.size() % 2 != 0) {
          return fail(line_number, "chain ends with a dangling '->'", entry);
        }
        if (elements.size() < 2) {
          return fail(line_number, "chain needs at least two elements", entry);
        }
        chain_lines.emplace_back(std::move(elements), line_number);
      } else {
        return fail(line_number, "unknown keyword '" + kw + "'", entry);
      }
    }
  }

  if (!saw_topology) {
    return InvalidArgument("scenario spec: missing topology line");
  }

  // Resolve chain elements now that every host and stage is declared: the
  // first element may name a host (the traffic source); everything else must
  // be a stage.
  for (auto& [elements, chain_line] : chain_lines) {
    usize first_stage = 0;
    if (spec.FindStage(elements[0]) == spec.stages.size()) {
      if (spec.FindHost(elements[0]) == spec.hosts.size()) {
        return fail(chain_line, "unknown chain element '" + elements[0] + "'",
                    elements[0]);
      }
      if (!spec.source_host.empty() && spec.source_host != elements[0]) {
        return fail(chain_line, "conflicting chain sources", elements[0]);
      }
      spec.source_host = elements[0];
      first_stage = 1;
      if (elements.size() - first_stage < 1) {
        return fail(chain_line, "chain needs a stage after the source host",
                    elements[0]);
      }
    }
    for (usize i = first_stage; i + 1 < elements.size(); ++i) {
      spec.edges.push_back(SpecEdge{elements[i], elements[i + 1], chain_line});
    }
  }

  // Intra-spec reference checks with the declaring line in the diagnostic.
  for (const SpecStage& stage : spec.stages) {
    if (spec.topology == SpecTopology::kHub && stage.host.empty()) {
      return fail(stage.line, "stage '" + stage.name + "' needs host= on a hub topology",
                  stage.name);
    }
    if (!stage.host.empty() && spec.FindHost(stage.host) == spec.hosts.size()) {
      return fail(stage.line, "stage '" + stage.name + "' placed on unknown host '" +
                                  stage.host + "'",
                  stage.name);
    }
  }
  for (const SpecEdge& edge : spec.edges) {
    for (const std::string* name : {&edge.from, &edge.to}) {
      if (spec.FindStage(*name) == spec.stages.size()) {
        return fail(edge.line, "chain references unknown stage '" + *name + "'", *name);
      }
    }
  }
  return spec;
}

}  // namespace emu
