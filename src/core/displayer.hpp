// The Alert Displayer (paper §2): merges the alert streams of the CE
// replicas, runs an AD filtering algorithm over the merged interleaving,
// and delivers the surviving alerts to the end user (a sink callback).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/alert.hpp"
#include "core/filters.hpp"

namespace rcm::obs {
class Counter;
}  // namespace rcm::obs

namespace rcm {

/// Provenance of one AD arrival: which (var, seq) updates triggered the
/// alert, which filter judged it, and the verdict with its reason. One
/// record per arrival (displayed or suppressed), in arrival order — the
/// "why was/wasn't this alert shown" audit trail the swarm fuzzer checks
/// against the journal invariants.
struct AlertProvenance {
  std::size_t arrival_index = 0;     ///< position in arrived()
  std::uint64_t trace_id = 0;        ///< Alert::trace_id (0 if untraced)
  std::string cond;                  ///< condition name
  /// The triggering updates: every (var, seqno) in the alert's history
  /// windows, i.e. the flattened AlertKey signature.
  std::vector<std::pair<VarId, SeqNo>> triggers;
  std::string filter;                ///< judging filter ("AD-4", ...)
  bool displayed = false;
  const char* reason = "";           ///< FilterDecision reason (literal)
};

/// One Alert Displayer instance. Thread-compatible (externally
/// synchronized); the alert service wraps it in an actor with a queue.
class AlertDisplayer {
 public:
  /// `sink` is invoked for every displayed alert; pass nullptr to only
  /// collect. The displayer owns the filter.
  explicit AlertDisplayer(FilterPtr filter,
                          std::function<void(const Alert&)> sink = nullptr);

  /// Processes one arriving alert; returns true iff it was displayed.
  bool on_alert(const Alert& a);

  /// The final output sequence A displayed so far.
  [[nodiscard]] const std::vector<Alert>& displayed() const noexcept {
    return displayed_;
  }

  /// Every alert that arrived, pre-filtering, in arrival order — the
  /// merged interleaving of the CE streams. Property checkers use this to
  /// replay the same interleaving through other filters.
  [[nodiscard]] const std::vector<Alert>& arrived() const noexcept {
    return arrived_;
  }

  /// Number of alerts the filter suppressed.
  [[nodiscard]] std::size_t suppressed() const noexcept {
    return arrived_.size() - displayed_.size();
  }

  /// One provenance record per arrival, in arrival order (parallel to
  /// arrived()).
  [[nodiscard]] const std::vector<AlertProvenance>& provenance()
      const noexcept {
    return provenance_;
  }

  [[nodiscard]] const AlertFilter& filter() const noexcept { return *filter_; }

  /// Clears collected sequences and resets the filter.
  void reset();

 private:
  FilterPtr filter_;
  std::function<void(const Alert&)> sink_;
  std::vector<Alert> arrived_;
  std::vector<Alert> displayed_;
  std::vector<AlertProvenance> provenance_;
  // Per-AD-kind pass/suppress counters (obs layer); null when metrics
  // are compiled out.
  obs::Counter* passed_metric_ = nullptr;
  obs::Counter* suppressed_metric_ = nullptr;
};

/// Replays an arrival interleaving through a fresh filter and returns the
/// displayed sequence. This is M_{AD-i}(A1, A2, ...) of Appendix B for the
/// specific interleaving `arrivals`.
[[nodiscard]] std::vector<Alert> run_filter(AlertFilter& filter,
                                            std::span<const Alert> arrivals);

}  // namespace rcm
