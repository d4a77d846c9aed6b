// Swarm run executor: runs one SwarmSpec on the deterministic simulator
// (plain or disconnectable, depending on the spec) and checks everything
// the harness knows how to falsify:
//
//   - the paper's property guarantees for the spec's (filter, scenario)
//     cell — orderedness / completeness / consistency verdicts from the
//     exact checkers, compared against exp::paper_claim;
//   - cross-replica invariants that hold for EVERY cell: each displayed
//     alert was raised by some replica, display timestamps are monotone
//     non-decreasing, and the run is a pure function of the spec
//     (re-execution produces a bit-for-bit identical run).
//
// A completeness verdict of kUnknown (a grid of interleaving positions
// larger than the budget) is never a violation; SwarmReport counts such
// runs as undecided.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/properties.hpp"
#include "sim/system.hpp"
#include "swarm/spec.hpp"
#include "swarm/workload.hpp"

namespace rcm::swarm {

/// What went wrong in a failing run. Shrinking preserves the *first*
/// violation's kind, so a minimized spec demonstrates the same class of
/// bug as the original.
enum class ViolationKind : std::uint8_t {
  kOrderedness = 0,     ///< guaranteed orderedness violated
  kCompleteness = 1,    ///< guaranteed completeness violated
  kConsistency = 2,     ///< guaranteed consistency violated
  kUnraisedAlert = 3,   ///< displayed alert no replica raised
  kNonMonotoneDisplay = 4,  ///< display timestamps regressed
  kNonDeterminism = 5,  ///< re-execution diverged from first execution
  kWorkload = 6,        ///< a workload unit's own checker failed
};

[[nodiscard]] std::string_view violation_kind_name(ViolationKind k) noexcept;

/// Execution knobs.
struct CheckOptions {
  /// Re-run every spec and require a bit-for-bit identical run. Doubles
  /// simulation cost; the cheapest invariant to drop under a time budget.
  bool check_determinism = true;

  /// Largest multi-variable completeness grid, in cells, decided; runs
  /// with a larger grid are undecided (see check/completeness.hpp).
  std::size_t interleaving_budget = 200000;
};

/// Everything observed about one executed-and-checked run.
struct RunCheck {
  check::PropertyReport report;
  std::vector<ViolationKind> violation_kinds;   ///< empty = clean run
  std::vector<std::string> violations;          ///< parallel descriptions
  std::uint64_t digest = 0;  ///< run fingerprint incl. display times
  std::size_t displayed = 0;
  std::size_t raised = 0;  ///< alerts raised across all replicas
  bool had_alerts = false;

  [[nodiscard]] bool failed() const noexcept { return !violations.empty(); }
  /// Some property verdict is kUnknown; an undecided run is not a failure.
  [[nodiscard]] bool undecided() const noexcept;
  [[nodiscard]] bool has_kind(ViolationKind k) const;
};

/// Runs the spec once (twice with check_determinism) and checks it.
/// Propagates std::invalid_argument from malformed specs — the shrinker
/// treats that as "candidate rejected", and the fuzzer never produces
/// them. The composed overload additionally runs every workload unit's
/// own checker (violations surface as kWorkload); the SwarmSpec overload
/// is exactly the composed one with no units.
[[nodiscard]] RunCheck execute_and_check(const ComposedSpec& spec,
                                         const CheckOptions& options = {});
[[nodiscard]] RunCheck execute_and_check(const SwarmSpec& spec,
                                         const CheckOptions& options = {});

/// The raw simulator observables of one execution of the spec, with
/// display times normalized across the plain and disconnectable runners.
struct Execution {
  sim::RunResult result;
  std::vector<double> display_times;
};
[[nodiscard]] Execution execute(const ComposedSpec& spec);
[[nodiscard]] Execution execute(const SwarmSpec& spec);

/// Fingerprint of an execution: check::run_digest over the SystemRun,
/// chained with the IEEE-754 bits of every display timestamp.
[[nodiscard]] std::uint64_t execution_digest(const Execution& exec,
                                             const ConditionPtr& condition);

}  // namespace rcm::swarm
