// Monte-Carlo reproduction of the paper's property tables.
//
// A table cell "property P holds in scenario S under algorithm G" is a
// universal claim; its reproduction is a randomized search for counter-
// examples: run many randomized replicated systems in scenario S with
// filter G, check every run's output A with the exact property checkers,
// and report the number of violating runs. Zero violations reproduces a
// check-mark cell; at least one violation (typically many) reproduces an
// X cell. The benches print the paper's claim next to the measurement so
// agreement is visible row by row.
#pragma once

#include <cstdint>
#include <vector>

#include "core/filters.hpp"
#include "exp/scenarios.hpp"
#include "util/table.hpp"

namespace rcm::exp {

/// Monte-Carlo sweep parameters.
struct SweepParams {
  std::size_t runs = 200;
  std::size_t updates_per_var = 40;
  std::size_t num_ces = 2;
  std::uint64_t seed = 42;
  /// Worker threads: 1 = serial, 0 = hardware concurrency. Trial RNG
  /// streams are derived up front in run order (each fork of the master
  /// advances it, so derivation order is part of the published numbers),
  /// then trials execute on any worker: every jobs value reproduces the
  /// serial sweep's counts exactly.
  std::size_t jobs = 1;
};

/// Violation tallies for one (scenario, filter) cell row.
struct PropertyCounts {
  std::size_t runs = 0;
  std::size_t ordered_violations = 0;
  std::size_t complete_violations = 0;
  std::size_t consistent_violations = 0;
  std::size_t complete_unknown = 0;
};

/// What the paper claims for (filter, scenario); `multi_variable` selects
/// between the single-variable tables (1, 2 and the AD-3/AD-4 variants
/// stated in prose) and the multi-variable ones (Theorem 10 for AD-1,
/// Table 3 for AD-5, §5.2 for AD-6).
struct PaperClaim {
  bool ordered = false;
  bool complete = false;
  bool consistent = false;
};
[[nodiscard]] PaperClaim paper_claim(FilterKind filter, Scenario scenario,
                                     bool multi_variable);

/// Runs the sweep for one scenario row.
[[nodiscard]] PropertyCounts sweep_scenario(const ScenarioSpec& spec,
                                            FilterKind filter,
                                            const SweepParams& params);

/// Renders a full paper-vs-measured table for one filter: one row per
/// scenario in `rows`.
[[nodiscard]] util::Table render_property_table(
    FilterKind filter, bool multi_variable,
    const std::vector<std::pair<Scenario, PropertyCounts>>& rows);

/// True iff the measurement agrees with the paper: zero violations where
/// the paper claims the property, at least one where it does not.
[[nodiscard]] bool agrees_with_paper(const PaperClaim& claim,
                                     const PropertyCounts& counts);

}  // namespace rcm::exp
