// The run plan and the oracle of the service fuzz driver
// (service_fuzz.hpp), shared by its two modes, crash and upgrade: the
// randomized run plan and the two-layer oracle (mechanical
// journal/provenance invariants + the paper's property table for the
// observed (filter, scenario) cell).
//
// Both modes check EXACTLY the same invariants — the upgrade mode's
// claim is precisely "the crash-mode oracle still holds when the durable
// state crossed a format-version boundary".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/alert.hpp"
#include "core/displayer.hpp"
#include "core/filters.hpp"
#include "core/types.hpp"
#include "exp/scenarios.hpp"
#include "service/alert_service.hpp"
#include "swarm/spec.hpp"
#include "util/rng.hpp"

namespace rcm::swarm {

/// A condition kind with the trigger parameter it gets when values are
/// uniform in [0, 100] — hot enough that alerts (and thus filter
/// decisions) actually happen in short runs — and its lossy table row.
struct KindChoice {
  ConditionKind kind = ConditionKind::kThreshold;
  double param = 60.0;
  exp::Scenario lossy_row = exp::Scenario::kLossyNonHistorical;
};

struct KillEvent {
  std::size_t at_step = 0;       ///< feed position the kill fires before
  std::size_t replica = 0;
  std::size_t restart_after = 0; ///< steps until a manual restart (manual
                                 ///< mode only)
};

struct RunPlan {
  KindChoice choice{};
  std::size_t replicas = 2;
  FilterKind filter = FilterKind::kAd1;
  std::size_t checkpoint_every = 8;
  std::size_t updates_per_var = 60;
  bool auto_restart = false;
  double dup_prob = 0.0;
  std::vector<KillEvent> kills;
  std::vector<Update> feed;  ///< interleaved across variables
};

/// Samples one run plan: condition kind, a filter with a paper-claim
/// table for its arity, replica/checkpoint shape, an interleaved feed
/// with per-variable ascending seqnos, and a kill schedule.
[[nodiscard]] RunPlan make_service_plan(util::Rng& rng);

/// The crash/upgrade-fuzz oracle: journal invariants, displayed ⊆
/// raised, provenance consistency, then the paper table for the cell
/// classified from the observed journals. Returns one description per
/// violation; empty = clean.
///
/// `displayer_epochs` partitions `displayed` (in order) into displayer
/// incarnations — prefix lengths, summing to displayed.size(). The
/// AD ledger is volatile, so the cross-alert guarantees it provides
/// (orderedness, consistency) are per-incarnation claims and are
/// checked per epoch; completeness and every mechanical invariant are
/// ledger-free and always checked over the union. Empty = one epoch.
[[nodiscard]] std::vector<std::string> check_service_run(
    const RunPlan& plan, const std::vector<Update>& sent,
    std::vector<std::vector<Update>> journals, std::vector<Alert> displayed,
    const std::vector<AlertProvenance>& provenance, std::size_t kills,
    std::vector<std::size_t> displayer_epochs = {});

}  // namespace rcm::swarm
