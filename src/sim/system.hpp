// Whole-system builder: wires DMs, replicated CEs, links and the AD into
// one simulation (Figure 1(b) / Figure 2(a) / Figure 3 of the paper) and
// runs it to completion.
//
// A SystemConfig with num_ces = 1 and FilterKind::kPassAll is exactly the
// paper's "corresponding non-replicated system" N.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "check/properties.hpp"
#include "core/condition.hpp"
#include "core/filters.hpp"
#include "sim/nodes.hpp"

namespace rcm::sim {

/// Full description of one simulated monitoring system.
struct SystemConfig {
  ConditionPtr condition;

  /// One trace per Data Monitor. Every DM broadcasts to every CE. The
  /// traces' VarIds must cover the condition's variable set.
  std::vector<trace::Trace> dm_traces;

  /// Number of CE replicas (1 = non-replicated).
  std::size_t num_ces = 2;

  /// Parameters applied to every front link (DM -> CE). Loss allowed.
  LinkParams front{0.005, 0.050, 0.0};

  /// Parameters applied to every back link (CE -> AD). Loss must be 0 —
  /// the paper assumes TCP-like lossless back links.
  LinkParams back{0.005, 0.050, 0.0};

  /// AD filtering algorithm.
  FilterKind filter = FilterKind::kAd1;

  /// Crash windows per CE (outer index = CE replica; may be shorter than
  /// num_ces, remaining CEs never crash).
  std::vector<std::vector<CrashWindow>> ce_crashes;

  /// Per-CE degradation of every front link INTO that replica (index =
  /// replica; may be shorter than num_ces, remaining links unshaped):
  /// extra delay models a slow/lagging replica, outage windows an
  /// asymmetric front-link partition. Back links are never shaped.
  std::vector<LinkShaping> front_shaping;

  /// Master seed; every link forks its own stream from it.
  std::uint64_t seed = 1;
};

/// Everything observable about one finished run, in the paper's
/// vocabulary. Feed directly into the rcm::check property checkers.
struct RunResult {
  std::vector<Alert> displayed;                ///< A
  std::vector<Alert> arrived;                  ///< merged arrivals at AD
  std::vector<std::vector<Update>> ce_inputs;  ///< U_i per CE
  std::vector<std::vector<Alert>> ce_outputs;  ///< A_i = T(U_i) per CE
  std::vector<std::vector<Update>> dm_emitted; ///< U per DM
  /// Virtual display time of each alert in `displayed` (parallel array;
  /// empty for service runs, which have no virtual clock).
  std::vector<double> display_times;
  std::size_t front_messages_dropped = 0;
  std::size_t events_executed = 0;

  /// Packages the run for the property checkers.
  [[nodiscard]] check::SystemRun as_system_run(ConditionPtr condition) const;
};

/// Builds the system described by `config`, runs it until all traffic has
/// drained, and collects the result. Throws std::invalid_argument on
/// malformed configs (no CEs, lossy back links, missing variables).
[[nodiscard]] RunResult run_system(const SystemConfig& config);

}  // namespace rcm::sim
