// The swarm driver: FoundationDB-style randomized simulation testing for
// the replicated monitoring system.
//
// One swarm batch executes `runs` fuzzed configurations (see fuzzer.hpp),
// checks each against the paper's guarantee tables and the cross-replica
// invariants (see runner.hpp), greedily minimizes every failure (see
// shrink.hpp), and packages each minimized counterexample as a replayable
// record (see record.hpp). The whole batch is a pure function of
// (seed, runs, options) up to the optional wall-clock time budget, which
// can only truncate the batch, never reorder it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "swarm/fuzzer.hpp"
#include "swarm/record.hpp"
#include "swarm/runner.hpp"
#include "swarm/shrink.hpp"

namespace rcm::swarm {

struct SwarmOptions {
  std::uint64_t seed = 1;
  std::size_t runs = 100;

  /// Worker threads executing runs: 1 = serial (the default for library
  /// callers), 0 = hardware concurrency, N = N workers. Parallel
  /// execution is sharded deterministically: run i is sampled with the
  /// stateless util::Rng::derive(seed, i) and simulated in isolation, so
  /// any jobs value produces bit-for-bit the per-run digests, verdicts,
  /// and report of the serial executor (shrinking and the progress
  /// callback always happen on the calling thread, in run-index order).
  /// Only a time budget or an early-stopping callback can make jobs
  /// matter: both truncate the batch, and the parallel executor checks
  /// the budget between blocks of runs rather than between runs.
  std::size_t jobs = 1;

  /// Wall-clock budget in seconds; 0 = unlimited. Checked between runs
  /// (serial) or between blocks of runs (parallel).
  double time_budget_seconds = 0.0;

  /// Minimize failures before recording them.
  bool do_shrink = true;
  std::size_t shrink_attempts = 3000;

  FuzzOptions fuzz;
  CheckOptions check;
};

/// One found-and-processed failure.
struct Counterexample {
  std::uint64_t run_index = 0;     ///< index within the batch
  ComposedSpec original;           ///< as sampled
  CounterexampleRecord record;     ///< shrunk spec + observed run
  std::vector<std::string> violations;  ///< original descriptions
  std::size_t shrink_attempts = 0;
};

/// Batch outcome.
struct SwarmReport {
  std::size_t runs_executed = 0;
  std::size_t runs_with_alerts = 0;  ///< non-vacuous runs
  std::size_t failures = 0;
  /// Runs with any property verdict kUnknown (a completeness grid larger
  /// than CheckOptions::interleaving_budget). Never counted as failures.
  std::size_t undecided = 0;
  bool time_budget_exhausted = false;

  /// Coverage: runs per (filter, scenario) cell, keyed by display name.
  std::map<std::string, std::size_t> cell_runs;

  std::vector<Counterexample> counterexamples;  ///< capped at kMaxRecorded

  static constexpr std::size_t kMaxRecorded = 8;
};

/// Progress callback, invoked after each run. Return false to stop the
/// batch early (the report marks time_budget_exhausted).
using ProgressFn =
    std::function<bool(std::uint64_t index, const RunCheck& check)>;

/// Executes a batch. Deterministic for a fixed (options.seed,
/// options.runs) when no time budget or early-stopping callback cuts it
/// short.
[[nodiscard]] SwarmReport run_swarm(const SwarmOptions& options,
                                    const ProgressFn& progress = nullptr);

/// Human-readable one-counterexample summary (spec shape + violations).
[[nodiscard]] std::string describe_counterexample(const Counterexample& ce);

}  // namespace rcm::swarm
