// Property checkers for replicated monitoring runs (paper §3.1 and
// Appendix C).
//
// Given a run of a replicated system — the condition, the update sequence
// U_i each CE replica actually received, and the final displayed alert
// sequence A — these functions decide mechanically whether the run
// satisfied:
//
//   Orderedness:  A is ordered with respect to every variable in V.
//   Completeness: Phi(A) = Phi(T(U1 ⊔ U2))            (single variable)
//                 exists an interleaving UV of the per-variable ordered
//                 unions with Phi(A) = Phi(T(UV))      (multi variable)
//   Consistency:  exists U' ⊑ U1 ⊔ U2 (resp. ⊑ some UV) with
//                 Phi(A) ⊆ Phi(T(U')).
//
// Orderedness and single-variable completeness are direct. Consistency and
// multi-variable completeness are decided *exactly* in polynomial time
// (consistency.hpp, completeness.hpp); completeness returns "unknown"
// when its grid of interleaving positions exceeds the budget.
// Brute-force oracles cross-validate both in the test suite (oracle.hpp).
#pragma once

#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/alert.hpp"
#include "core/condition.hpp"

namespace rcm::check {

/// One observed run of a replicated system, in the vocabulary of Figure 2:
/// per-CE received updates U_i and the displayed output A.
struct SystemRun {
  ConditionPtr condition;
  std::vector<std::vector<Update>> ce_inputs;  ///< U_i, one per CE replica
  std::vector<Alert> displayed;                ///< A
};

/// Tri-state verdict; kUnknown only occurs when the multi-variable
/// completeness check is bounded out (see completeness.hpp).
enum class Verdict { kHolds, kViolated, kUnknown };

/// All three properties of one run.
struct PropertyReport {
  Verdict ordered = Verdict::kUnknown;
  Verdict complete = Verdict::kUnknown;
  Verdict consistent = Verdict::kUnknown;
};

/// Orderedness: Pi_v(A) non-decreasing for every v in V.
[[nodiscard]] bool check_ordered(std::span<const Alert> a,
                                 const std::vector<VarId>& vars);

/// Per-variable ordered union of all CE inputs: the combined update
/// knowledge of the replicas, ascending by VarId.
[[nodiscard]] std::vector<std::pair<VarId, std::vector<Update>>>
combined_inputs(const std::vector<std::vector<Update>>& ce_inputs);

/// The alerts of `a` whose triggering update for `v` — the latest
/// history sequence number, a.seqno(v) — lies in `seqnos`: the slice of
/// a display stream owned by one traffic source. Alerts without a
/// v-history are never in any slice.
[[nodiscard]] std::vector<Alert> restrict_to_seqnos(
    std::span<const Alert> a, VarId v, const std::set<SeqNo>& seqnos);

/// Evaluates all three properties of a run. `interleaving_budget` bounds
/// the cells of the multi-variable completeness grid (see
/// completeness.hpp).
[[nodiscard]] PropertyReport check_run(const SystemRun& run,
                                       std::size_t interleaving_budget = 200000);

}  // namespace rcm::check
