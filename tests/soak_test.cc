// The shared soak harness (src/soak): lattice comparisons, flag table, SLO
// lookup order, and the chain scenario the soak and its microbench share.
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/scenario_spec.h"
#include "src/soak/soak.h"
#include "src/soak/workloads.h"

namespace emu {
namespace {

using Violations = std::vector<std::string>;

Violations Compare(const soak::Fingerprint& serial, const soak::Fingerprint& parallel,
                   const soak::Fingerprint& replay) {
  Violations violations;
  soak::CompareLattice(serial, parallel, replay, /*threads=*/4, violations);
  return violations;
}

TEST(SoakLattice, EquivalentRunsProduceNoViolation) {
  const std::string trace = "{\"traceEvents\": []}";
  const soak::Fingerprint run{{0x1111, 0x2222}, &trace};
  EXPECT_TRUE(Compare(run, run, run).empty());
}

TEST(SoakLattice, DivergedDigestProducesItsViolationLine) {
  const soak::Fingerprint parallel{{0x1111, 0x2222}, nullptr};
  const soak::Fingerprint serial{{0x1111, 0x2223}, nullptr};
  EXPECT_EQ(Compare(serial, parallel, parallel),
            Violations{"determinism: threads=1 vs threads=4 digests diverged"});
  EXPECT_EQ(Compare(parallel, parallel, serial),
            Violations{"determinism: same-seed replay digests diverged"});
}

TEST(SoakLattice, DivergedTraceProducesItsViolationLine) {
  const std::string trace = "{\"traceEvents\": [1]}";
  const std::string other = "{\"traceEvents\": [2]}";
  const soak::Fingerprint parallel{{7}, &trace};
  const soak::Fingerprint diverged{{7}, &other};
  EXPECT_EQ(Compare(diverged, parallel, parallel),
            Violations{"determinism: threads=1 vs threads=4 traces are not byte-identical"});
  EXPECT_EQ(Compare(parallel, parallel, diverged),
            Violations{"determinism: replay trace is not byte-identical"});
}

TEST(SoakFlags, SharedAndOwnFlagsParseFromOneTable) {
  soak::CommonOptions common;
  u64 requests = 0;
  bool replay = false;
  soak::Flags flags;
  soak::AddCommonFlags(flags, common);
  soak::AddLatticeFlags(flags, common);
  flags.Number("--requests", &requests);
  flags.Switch("--replay", &replay);
  const char* argv[] = {"soak", "--seed", "7", "--seeds", "2", "--requests", "50",
                        "--slo", "a <= 1", "--replay", "--verbose"};
  ASSERT_TRUE(flags.Parse(static_cast<int>(std::size(argv)), const_cast<char**>(argv)));
  EXPECT_EQ(common.first_seed, 7u);
  EXPECT_EQ(common.seed_count, 2u);
  EXPECT_EQ(requests, 50u);
  EXPECT_EQ(common.slo_text, "a <= 1");
  EXPECT_TRUE(replay);
  EXPECT_TRUE(common.verbose);

  const char* unknown[] = {"soak", "--bogus"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(unknown)));
  const char* missing_value[] = {"soak", "--seed"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(missing_value)));
}

TEST(SoakSlo, DerivedValuesShadowTheSnapshot) {
  const std::vector<std::pair<std::string, u64>> snapshot = {{"x.loss_rate", 9}, {"x.sent", 3}};
  const obs::SloLookup lookup = soak::SnapshotLookup({{"x.loss_rate", 0.5}}, snapshot);
  EXPECT_EQ(lookup("x.loss_rate"), 0.5);
  EXPECT_EQ(lookup("x.sent"), 3.0);
  EXPECT_FALSE(lookup("x.missing").has_value());
  EXPECT_FALSE(soak::ParseSlo("soak_test", "x.sent <=").has_value());
}

// Everything a parsed spec says about the scenario, without the line numbers
// (the checked-in file carries a comment header).
std::string Describe(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << SpecTopologyName(spec.topology) << " rate=" << spec.link_bits_per_second
      << " delay=" << spec.link_delay << " impair=" << spec.impair_prefix
      << " source=" << spec.source_host << "\n";
  for (const SpecHost& host : spec.hosts) {
    out << "host " << host.name << " " << host.mac.ToString() << " " << host.ip.ToString() << "\n";
  }
  for (const SpecStage& stage : spec.stages) {
    out << "stage " << stage.name << " " << stage.kind << " " << stage.host << " "
        << StageTargetName(stage.target) << " queue=" << stage.queue << " delay=" << stage.delay;
    for (const auto& [key, value] : stage.attrs) {
      out << " " << key << "=" << value;
    }
    out << "\n";
  }
  for (const SpecEdge& edge : spec.edges) {
    out << "edge " << edge.from << " -> " << edge.to << "\n";
  }
  return out.str();
}

TEST(SoakWorkloads, ChainSoakSpecMatchesTheCheckedInFile) {
  std::ifstream file(std::string(EMU_TEST_SOURCE_DIR) + "/../specs/chain_soak.spec");
  ASSERT_TRUE(file) << "specs/chain_soak.spec not found";
  std::ostringstream text;
  text << file.rdbuf();
  const Expected<ScenarioSpec> checked_in = ParseScenarioSpec(text.str());
  const Expected<ScenarioSpec> built_in = ParseScenarioSpec(soak::kChainSoakSpec);
  ASSERT_TRUE(checked_in.ok()) << checked_in.status().ToString();
  ASSERT_TRUE(built_in.ok()) << built_in.status().ToString();
  EXPECT_EQ(Describe(*built_in), Describe(*checked_in));
  EXPECT_EQ(built_in->stages.size(), 4u);
}

}  // namespace
}  // namespace emu
