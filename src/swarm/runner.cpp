#include "swarm/runner.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>

#include "check/run_record.hpp"
#include "obs/metrics.hpp"
#include "sim/disconnect.hpp"
#include "wire/buffer.hpp"

namespace rcm::swarm {

std::string_view violation_kind_name(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kOrderedness: return "orderedness";
    case ViolationKind::kCompleteness: return "completeness";
    case ViolationKind::kConsistency: return "consistency";
    case ViolationKind::kUnraisedAlert: return "unraised-alert";
    case ViolationKind::kNonMonotoneDisplay: return "non-monotone-display";
    case ViolationKind::kNonDeterminism: return "non-determinism";
    case ViolationKind::kWorkload: return "workload";
  }
  return "?";
}

bool RunCheck::undecided() const noexcept {
  return report.ordered == check::Verdict::kUnknown ||
         report.complete == check::Verdict::kUnknown ||
         report.consistent == check::Verdict::kUnknown;
}

bool RunCheck::has_kind(ViolationKind k) const {
  return std::find(violation_kinds.begin(), violation_kinds.end(), k) !=
         violation_kinds.end();
}

namespace {

/// Runs an already-materialized spec: the single execution path shared by
/// the plain and composed entry points.
Execution execute_materialized(const MaterializedRun& mat) {
  RCM_SCOPED_TIMER(timer, "swarm.phase.execute_seconds");
  Execution exec;
  sim::SystemConfig base = mat.spec.to_system_config();
  base.front_shaping = mat.front_shaping;
  if (mat.spec.ad_offline.empty()) {
    exec.result = sim::run_system(base);
    exec.display_times = exec.result.display_times;
  } else {
    sim::DisconnectConfig config;
    config.base = std::move(base);
    config.ad_offline = mat.spec.ad_offline;
    sim::DisconnectResult r = sim::run_disconnectable_system(config);
    exec.display_times = r.display_times;
    exec.result = std::move(r.run);
  }
  return exec;
}

}  // namespace

Execution execute(const ComposedSpec& spec) {
  return execute_materialized(materialize(spec));
}

Execution execute(const SwarmSpec& spec) {
  return execute(ComposedSpec{spec, {}});
}

std::uint64_t execution_digest(const Execution& exec,
                               const ConditionPtr& condition) {
  std::uint64_t h =
      check::run_digest(exec.result.as_system_run(condition));
  for (double t : exec.display_times) {
    std::uint8_t bits[sizeof(double)];
    std::memcpy(bits, &t, sizeof(double));
    h = check::fnv1a(bits, h);
  }
  return h;
}

RunCheck execute_and_check(const ComposedSpec& spec,
                           const CheckOptions& options) {
  RunCheck out;
  const MaterializedRun mat = materialize(spec);
  const Execution exec = execute_materialized(mat);
  const sim::RunResult& r = exec.result;

  const ConditionPtr condition =
      build_condition(mat.spec.cond_kind, mat.spec.cond_param);
  const check::SystemRun run = r.as_system_run(condition);
  {
    RCM_SCOPED_TIMER(timer, "swarm.phase.check_seconds");
    out.report = check::check_run(run, options.interleaving_budget);
  }
  out.digest = execution_digest(exec, condition);
  out.displayed = r.displayed.size();
  for (const auto& alerts : r.ce_outputs) out.raised += alerts.size();
  out.had_alerts = out.raised > 0;

  auto violate = [&out](ViolationKind kind, const std::string& what) {
    out.violation_kinds.push_back(kind);
    out.violations.push_back(what);
  };

  // Guaranteed table cells. Violations of properties the paper does NOT
  // claim for this cell are expected behaviour, not findings.
  const exp::PaperClaim claim = guaranteed_properties(spec);
  const std::string cell = std::string(filter_kind_name(spec.base.filter)) +
                           " / " + exp::scenario_name(classify_scenario(spec));
  if (claim.ordered && out.report.ordered == check::Verdict::kViolated)
    violate(ViolationKind::kOrderedness,
            "orderedness violated in guaranteed cell " + cell);
  if (claim.complete && out.report.complete == check::Verdict::kViolated)
    violate(ViolationKind::kCompleteness,
            "completeness violated in guaranteed cell " + cell);
  if (claim.consistent && out.report.consistent == check::Verdict::kViolated)
    violate(ViolationKind::kConsistency,
            "consistency violated in guaranteed cell " + cell);

  // Cross-replica invariants, checked on every run regardless of cell.
  {
    std::set<AlertKey> raised_keys;
    for (const auto& alerts : r.ce_outputs)
      for (const Alert& a : alerts) raised_keys.insert(a.key());
    for (const Alert& a : r.displayed)
      if (!raised_keys.count(a.key())) {
        std::ostringstream what;
        what << "displayed alert raised by no replica: " << a;
        violate(ViolationKind::kUnraisedAlert, what.str());
        break;
      }
  }
  if (exec.display_times.size() != r.displayed.size()) {
    violate(ViolationKind::kNonMonotoneDisplay,
            "display timestamp count mismatch");
  } else {
    double prev = 0.0;
    for (double t : exec.display_times) {
      if (t < prev) {
        violate(ViolationKind::kNonMonotoneDisplay,
                "display timestamps regressed");
        break;
      }
      prev = t;
    }
  }

  // Per-unit workload checkers: each unit verifies its own slice of the
  // guarantee tables on top of the global invariants above.
  for (std::size_t i = 0; i < spec.units.size(); ++i) {
    const std::string msg = check_workload(spec, mat, r, i);
    if (!msg.empty()) violate(ViolationKind::kWorkload, msg);
  }

  if (options.check_determinism) {
    const Execution again = execute(spec);
    if (execution_digest(again, condition) != out.digest)
      violate(ViolationKind::kNonDeterminism,
              "re-execution of the same spec produced a different run");
  }

  return out;
}

RunCheck execute_and_check(const SwarmSpec& spec,
                           const CheckOptions& options) {
  return execute_and_check(ComposedSpec{spec, {}}, options);
}

}  // namespace rcm::swarm
