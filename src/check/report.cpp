#include "check/report.hpp"

#include <map>
#include <sstream>

#include "check/completeness.hpp"
#include "check/consistency.hpp"
#include "core/alert.hpp"

namespace rcm::check {
namespace {

std::string var_name(const VariableRegistry& vars, VarId v) {
  try {
    return vars.name(v);
  } catch (const std::out_of_range&) {
    return "v" + std::to_string(v);
  }
}

/// Like rcm::to_string(Alert, registry) but tolerant of VarIds the
/// registry has never seen (recorded runs may predate the registry).
std::string alert_text(const Alert& a, const VariableRegistry& vars) {
  std::ostringstream os;
  os << a.cond << "{";
  bool first = true;
  for (const auto& [var, window] : a.histories) {
    if (!first) os << ", ";
    first = false;
    os << var_name(vars, var) << ":[";
    for (std::size_t i = 0; i < window.size(); ++i) {
      if (i) os << ",";
      os << window[i].seqno;
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string verdict_text(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return "holds";
    case Verdict::kViolated: return "VIOLATED";
    case Verdict::kUnknown: return "undecided (grid exceeds budget)";
  }
  return "?";
}

}  // namespace

std::string describe_run(const SystemRun& run, const VariableRegistry& vars,
                         const ReportOptions& options) {
  std::ostringstream out;
  const Condition& cond = *run.condition;

  out << "condition " << cond.name() << " over {";
  bool first = true;
  for (VarId v : cond.variables()) {
    if (!first) out << ", ";
    first = false;
    out << var_name(vars, v) << " (degree " << cond.degree(v) << ")";
  }
  out << "}, "
      << (cond.triggering() == Triggering::kConservative ? "conservative"
                                                         : "aggressive")
      << " triggering\n\n";

  out << "replicas:\n";
  for (std::size_t i = 0; i < run.ce_inputs.size(); ++i) {
    out << "  CE" << i + 1 << ": " << run.ce_inputs[i].size()
        << " updates received";
    if (!run.ce_inputs[i].empty()) {
      out << " (";
      // Per-variable reception summary.
      std::map<VarId, std::size_t> per_var;
      for (const Update& u : run.ce_inputs[i]) ++per_var[u.var];
      bool f = true;
      for (const auto& [v, n] : per_var) {
        if (!f) out << ", ";
        f = false;
        out << n << " of " << var_name(vars, v);
      }
      out << ")";
    }
    out << "\n";
  }

  out << "\ndisplayed alerts (" << run.displayed.size() << "):\n";
  const std::size_t limit =
      options.max_listed == 0 ? run.displayed.size() : options.max_listed;
  for (std::size_t i = 0; i < run.displayed.size() && i < limit; ++i)
    out << "  " << alert_text(run.displayed[i], vars) << "\n";
  if (run.displayed.size() > limit)
    out << "  ... " << run.displayed.size() - limit << " more\n";

  out << "\nproperties (vs the corresponding non-replicated system):\n";
  out << "  ordered    : "
      << (check_ordered(run.displayed, cond.variables()) ? "holds"
                                                         : "VIOLATED")
      << "\n";
  out << "  complete   : " << verdict_text(check_complete(run)) << "\n";
  const auto consistency = check_consistent(run);
  out << "  consistent : " << (consistency.consistent ? "holds" : "VIOLATED")
      << "\n";
  if (!consistency.consistent) {
    out << "    reason: " << consistency.reason << "\n";
  } else if (options.show_witness && !consistency.witness.empty()) {
    out << "    witness input (single evaluator reproducing every "
           "displayed alert):\n      ";
    const std::size_t wlimit = options.max_listed == 0
                                   ? consistency.witness.size()
                                   : options.max_listed;
    for (std::size_t i = 0; i < consistency.witness.size() && i < wlimit;
         ++i) {
      const Update& u = consistency.witness[i];
      out << var_name(vars, u.var) << "#" << u.seqno << " ";
    }
    if (consistency.witness.size() > wlimit)
      out << "... +" << consistency.witness.size() - wlimit;
    out << "\n";
  }
  return out.str();
}

}  // namespace rcm::check
