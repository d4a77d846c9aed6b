// Swarm harness end-to-end tests: a fixed-seed batch over the guaranteed
// cells must be clean, the fuzzer must be a pure function of (seed,
// index), and a deliberately broken filter (kBrokenAd2, which drops the
// AD-2 holdback) must be caught, shrunk to a handful of updates, and
// packaged into a record that replays bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "check/run_record.hpp"
#include "swarm/swarm.hpp"
#include "wire/buffer.hpp"

namespace rcm::swarm {
namespace {

// A small aimed batch that provably hits the planted bug (verified below).
SwarmOptions broken_filter_options() {
  SwarmOptions options;
  options.seed = 7;
  options.runs = 20;
  options.fuzz.force_filter = FilterKind::kBrokenAd2;
  return options;
}

TEST(Swarm, FixedSeedBatchIsCleanOnGuaranteedCells) {
  SwarmOptions options;
  options.seed = 1;
  options.runs = 200;
  const SwarmReport report = run_swarm(options);

  EXPECT_EQ(report.runs_executed, 200u);
  EXPECT_EQ(report.failures, 0u) << "guaranteed cell violated — either a "
                                    "real bug or an unsound oracle cell";
  EXPECT_TRUE(report.counterexamples.empty());
  // The batch must be substantive, not vacuous: most runs raise alerts and
  // the sampler spreads across many (filter, scenario) cells.
  EXPECT_GT(report.runs_with_alerts, 100u);
  EXPECT_GE(report.cell_runs.size(), 20u);
}

TEST(Swarm, FixedBatchCompletenessIsDecidedAndPinned) {
  // Completeness verdict per run of the batch (seed 1, 100 runs) as the
  // bounded interleaving search that preceded the grid check reported it:
  // H holds, V violated, U undecided (its budget or 63-key cap). The grid
  // check must decide every run and agree wherever the search decided.
  const std::string search =
      "VVHVHUHUUHVHHHVVHHHVHUHHHVVHHHHUHHHHHHHVHHHHHHUHUHVHHHHHHHHHHUHHVHHHH"
      "HHHHHHHHHUHHVHHHHHVHHVHVVHUVHHH";
  ASSERT_EQ(search.size(), 100u);
  SwarmOptions options;
  options.seed = 1;
  options.runs = 100;
  std::string grid;
  // Every run's digest, folded in run order: FNV-1a over each digest's 8
  // little-endian bytes, chained from the default seed. A change that
  // perturbs any run of the batch (inputs, displayed alerts or display
  // times) moves the fold.
  std::uint64_t fold = wire::Fnv1aHasher::kOffsetBasis;
  std::uint64_t next_index = 0;
  const SwarmReport report =
      run_swarm(options, [&](std::uint64_t i, const RunCheck& chk) {
        EXPECT_EQ(i, next_index++);
        const check::Verdict v = chk.report.complete;
        grid += v == check::Verdict::kHolds      ? 'H'
                : v == check::Verdict::kViolated ? 'V'
                                                 : 'U';
        std::uint8_t bytes[8];
        for (int b = 0; b < 8; ++b)
          bytes[b] = static_cast<std::uint8_t>(chk.digest >> (8 * b));
        fold = check::fnv1a(bytes, fold);
        return true;
      });
  ASSERT_EQ(grid.size(), 100u);
  EXPECT_EQ(report.undecided, 0u);
  EXPECT_EQ(report.failures, 0u);
  for (std::size_t i = 0; i < search.size(); ++i) {
    EXPECT_NE(grid[i], 'U') << "run " << i;
    if (search[i] != 'U') {
      EXPECT_EQ(grid[i], search[i]) << "run " << i;
    }
  }
  // Recorded from the buffered-digest implementation (encode the run,
  // then hash the bytes); the streaming digest must reproduce it.
  EXPECT_EQ(fold, 0x24934af6b3ce0cd3ULL);
}

TEST(Swarm, SampleSpecIsPureFunctionOfSeedAndIndex) {
  for (std::uint64_t i : {0u, 3u, 17u}) {
    EXPECT_TRUE(sample_spec(5, i) == sample_spec(5, i));
    EXPECT_FALSE(sample_spec(5, i) == sample_spec(6, i));
  }
  EXPECT_FALSE(sample_spec(5, 0) == sample_spec(5, 1));
}

TEST(Swarm, ExecutionIsDeterministic) {
  const SwarmSpec spec = sample_spec(42, 3);
  const RunCheck a = execute_and_check(spec);
  const RunCheck b = execute_and_check(spec);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.displayed, b.displayed);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(Swarm, ProgressCallbackCanStopTheBatch) {
  SwarmOptions options;
  options.seed = 1;
  options.runs = 100;
  const SwarmReport report = run_swarm(
      options, [](std::uint64_t i, const RunCheck&) { return i < 4; });
  EXPECT_EQ(report.runs_executed, 5u);
  EXPECT_TRUE(report.time_budget_exhausted);
}

TEST(Swarm, BrokenFilterIsCaughtAndShrunkSmall) {
  const SwarmReport report = run_swarm(broken_filter_options());

  ASSERT_GT(report.failures, 0u) << "the planted AD-2 bug went undetected";
  ASSERT_FALSE(report.counterexamples.empty());

  const Counterexample& ce = report.counterexamples.front();
  // Dropping the holdback breaks orderedness under replication.
  EXPECT_TRUE(std::count(ce.record.violation_kinds.begin(),
                         ce.record.violation_kinds.end(),
                         ViolationKind::kOrderedness) > 0);
  // The minimized spec is tiny compared to the sampled one.
  EXPECT_LE(ce.record.spec.total_updates(), 10u);
  EXPECT_LT(ce.record.spec.size(), ce.original.size());
  EXPECT_GE(ce.record.spec.base.num_ces, 2u)
      << "single-replica runs cannot interleave; the shrinker must keep "
         "at least two CEs for an orderedness break";
}

TEST(Swarm, BrokenFilterCounterexampleReplaysBitForBit) {
  const SwarmReport report = run_swarm(broken_filter_options());
  ASSERT_FALSE(report.counterexamples.empty());
  const CounterexampleRecord& record = report.counterexamples.front().record;

  const ReplayResult result = replay(record);
  EXPECT_TRUE(result.digest_matched);
  EXPECT_TRUE(result.violations_matched);
  EXPECT_TRUE(result.reproduced);
}

TEST(Swarm, RecordRoundTripsThroughDisk) {
  const SwarmReport report = run_swarm(broken_filter_options());
  ASSERT_FALSE(report.counterexamples.empty());
  const CounterexampleRecord& record = report.counterexamples.front().record;

  const auto path =
      std::filesystem::temp_directory_path() / "rcm_swarm_test_record.bin";
  save_record(path, record);
  const CounterexampleRecord loaded = load_record(path);
  std::filesystem::remove(path);

  EXPECT_TRUE(loaded.spec == record.spec);
  EXPECT_EQ(loaded.digest, record.digest);
  EXPECT_EQ(loaded.run_bytes, record.run_bytes);
  EXPECT_TRUE(replay(loaded).reproduced);
}

TEST(Swarm, CleanFiltersPassWhereBrokenOneFails) {
  // The exact configuration that trips kBrokenAd2 must be clean under the
  // real AD-2: the violation comes from the planted bug, not the harness.
  const SwarmReport report = run_swarm(broken_filter_options());
  ASSERT_FALSE(report.counterexamples.empty());
  ComposedSpec fixed = report.counterexamples.front().record.spec;
  fixed.base.filter = FilterKind::kAd2;
  const RunCheck chk = execute_and_check(fixed);
  EXPECT_FALSE(chk.failed())
      << (chk.violations.empty() ? std::string{} : chk.violations[0]);
}

}  // namespace
}  // namespace rcm::swarm
