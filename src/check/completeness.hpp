// Completeness decision (paper §3.1 def. 2, Appendix C def. 2).
//
// Single variable: completeness is Phi(A) = Phi(T(U1 ⊔ U2)) — computed
// directly by running the reference evaluator T over the ordered union of
// everything any replica received.
//
// Multi variable: completeness asks for an interleaving UV of the
// per-variable ordered unions with Phi(A) = Phi(T(UV)) (the definition
// falls back to the single-variable one when |V| = 1, where the
// interleaving is unique). It is decided exactly in O(prod(|U_v| + 1)):
//
//   - after any prefix of an interleaving, variable v's history is the
//     last degree(v) updates of U_v up to v's position, so each cell of
//     the grid of positions raises at most one alert key, whichever way
//     a path enters it, and (the unions being strictly ascending) no two
//     cells raise the same key;
//   - a witness is a monotone lattice path from the origin to the far
//     corner that visits every displayed key's cell and avoids every
//     cell raising an undisplayed key. A displayed key with no cell (a
//     window the union contradicts, or one that evaluates false) can
//     never be raised: kViolated;
//   - a path that passes a target cell t <= c without visiting it can
//     never visit t. With cnt[c] the number of targets <= c (prefix sums
//     over the grid), c is reached iff it is not forbidden and some
//     reached predecessor p has cnt[p] == cnt[c] - [c is a target].
//     Back-pointers give the witness UV.
//
// The verdict is kUnknown only when the grid has more cells than the
// budget, or when a union is not strictly ascending by seqno (replica
// receive logs over FIFO links always are) — bounded, never misreported.
// The brute-force oracle in oracle.hpp cross-validates the decision on
// small inputs.
#pragma once

#include "check/properties.hpp"

namespace rcm::check {

/// Exact single- or multi-variable completeness. `interleaving_budget`
/// bounds the number of grid cells, prod(|U_v| + 1), in the
/// multi-variable case; a larger grid yields kUnknown.
/// When the verdict is kHolds and `witness` is non-null, it receives the
/// witness input: the ordered union (single variable) or the found
/// interleaving UV (multi variable) with Phi(T(witness)) = Phi(A) — so
/// the verdict is independently checkable with the reference evaluator.
[[nodiscard]] Verdict check_complete(const SystemRun& run,
                                     std::size_t interleaving_budget = 200000,
                                     std::vector<Update>* witness = nullptr);

}  // namespace rcm::check
