#include "exp/table_experiment.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "check/properties.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/system.hpp"

namespace rcm::exp {
namespace {

PaperClaim claim_single_var(FilterKind filter, Scenario s) {
  // Tables 1 and 2, plus the AD-3/AD-4 variants stated in §4.3/§4.4.
  switch (filter) {
    case FilterKind::kAd1:  // Table 1
      switch (s) {
        case Scenario::kLossless: return {true, true, true};
        case Scenario::kLossyNonHistorical: return {false, true, true};
        case Scenario::kLossyConservative: return {false, false, true};
        case Scenario::kLossyAggressive: return {false, false, false};
      }
      break;
    case FilterKind::kAd2:  // Table 2
      switch (s) {
        case Scenario::kLossless: return {true, true, true};
        case Scenario::kLossyNonHistorical: return {true, false, true};
        case Scenario::kLossyConservative: return {true, false, true};
        case Scenario::kLossyAggressive: return {true, false, false};
      }
      break;
    case FilterKind::kAd3:  // "Table 1 except the last row is consistent"
      switch (s) {
        case Scenario::kLossless: return {true, true, true};
        case Scenario::kLossyNonHistorical: return {false, true, true};
        case Scenario::kLossyConservative: return {false, false, true};
        case Scenario::kLossyAggressive: return {false, false, true};
      }
      break;
    case FilterKind::kAd4:  // "Table 2 except Aggressive is consistent"
      switch (s) {
        case Scenario::kLossless: return {true, true, true};
        case Scenario::kLossyNonHistorical: return {true, false, true};
        case Scenario::kLossyConservative: return {true, false, true};
        case Scenario::kLossyAggressive: return {true, false, true};
      }
      break;
    default:
      break;
  }
  throw std::invalid_argument(
      "paper_claim: no single-variable table for this filter");
}

PaperClaim claim_multi_var(FilterKind filter, Scenario s) {
  switch (filter) {
    case FilterKind::kAd1:
      // Theorem 10: neither ordered nor consistent (hence not complete),
      // already with lossless links — interleaving alone breaks them.
      return {false, false, false};
    case FilterKind::kAd5:  // Table 3
      switch (s) {
        case Scenario::kLossless: return {true, false, true};
        case Scenario::kLossyNonHistorical: return {true, false, true};
        case Scenario::kLossyConservative: return {true, false, true};
        case Scenario::kLossyAggressive: return {true, false, false};
      }
      break;
    case FilterKind::kAd6:  // §5.2: Table 3 with the last row consistent
      return {true, false, true};
    default:
      break;
  }
  throw std::invalid_argument(
      "paper_claim: no multi-variable table for this filter");
}

std::string measured_cell(std::size_t violations, std::size_t unknown,
                          std::size_t runs) {
  std::ostringstream out;
  if (violations == 0)
    out << "held";
  else
    out << "VIOLATED";
  out << " (" << violations << "/" << runs;
  if (unknown > 0) out << ", " << unknown << " undecided";
  out << ")";
  return out.str();
}

}  // namespace

PaperClaim paper_claim(FilterKind filter, Scenario scenario,
                       bool multi_variable) {
  return multi_variable ? claim_multi_var(filter, scenario)
                        : claim_single_var(filter, scenario);
}

PropertyCounts sweep_scenario(const ScenarioSpec& spec, FilterKind filter,
                              const SweepParams& params) {
  // Trial streams are forked from the master in run order — forking
  // advances the master, so this prefix stays serial to keep every
  // published table number bit-identical to the historical sweep. The
  // trials themselves are then embarrassingly parallel.
  std::vector<util::Rng> trials;
  trials.reserve(params.runs);
  {
    util::Rng master{params.seed};
    for (std::size_t run = 0; run < params.runs; ++run)
      trials.push_back(master.fork(run + 1));
  }

  auto run_trial = [&](std::size_t run,
                       util::Rng trial) -> check::PropertyReport {
    sim::SystemConfig config;
    config.condition = spec.condition;
    config.dm_traces = spec.make_traces(params.updates_per_var, trial);
    config.num_ces = params.num_ces;
    config.front.loss = spec.front_loss;
    // Wide delay spread relative to the 1s update period, so the CE
    // replicas see genuinely different interleavings and the AD sees
    // genuinely shuffled merges. Multi-variable anomalies (Theorem 10,
    // Lemma 6) need one replica to receive an update several periods
    // later than the other, so those sweeps use an even wider spread.
    const bool multi = spec.condition->variables().size() > 1;
    config.front.delay_min = 0.01;
    config.front.delay_max = multi ? 2.5 : 0.80;
    config.back.delay_min = 0.01;
    config.back.delay_max = multi ? 2.5 : 0.80;
    config.filter = filter;
    config.seed = trial() ^ (0xabcdef12345678ULL + run);

    const sim::RunResult result = sim::run_system(config);
    const check::SystemRun sys_run = result.as_system_run(spec.condition);
    return check::check_run(sys_run);
  };

  std::vector<check::PropertyReport> reports(params.runs);
  const std::size_t jobs = runtime::ThreadPool::resolve_jobs(params.jobs);
  if (jobs <= 1 || params.runs <= 1) {
    for (std::size_t run = 0; run < params.runs; ++run)
      reports[run] = run_trial(run, trials[run]);
  } else {
    runtime::ThreadPool pool(jobs, /*queue_capacity=*/jobs * 8);
    for (std::size_t run = 0; run < params.runs; ++run)
      pool.submit([&, run] { reports[run] = run_trial(run, trials[run]); });
    pool.join();
  }

  PropertyCounts counts;
  for (const check::PropertyReport& report : reports) {
    ++counts.runs;
    if (report.ordered == check::Verdict::kViolated)
      ++counts.ordered_violations;
    if (report.complete == check::Verdict::kViolated)
      ++counts.complete_violations;
    else if (report.complete == check::Verdict::kUnknown)
      ++counts.complete_unknown;
    if (report.consistent == check::Verdict::kViolated)
      ++counts.consistent_violations;
  }
  return counts;
}

util::Table render_property_table(
    FilterKind filter, bool multi_variable,
    const std::vector<std::pair<Scenario, PropertyCounts>>& rows) {
  util::Table table({"Scenario", "Ord(paper)", "Ord(measured)",
                     "Comp(paper)", "Comp(measured)", "Cons(paper)",
                     "Cons(measured)", "agree?"});
  for (const auto& [scenario, counts] : rows) {
    const PaperClaim claim = paper_claim(filter, scenario, multi_variable);
    table.add_row({
        scenario_name(scenario),
        util::fmt_property(claim.ordered),
        measured_cell(counts.ordered_violations, 0, counts.runs),
        util::fmt_property(claim.complete),
        measured_cell(counts.complete_violations, counts.complete_unknown,
                      counts.runs),
        util::fmt_property(claim.consistent),
        measured_cell(counts.consistent_violations, 0, counts.runs),
        agrees_with_paper(claim, counts) ? "yes" : "NO",
    });
  }
  return table;
}

bool agrees_with_paper(const PaperClaim& claim, const PropertyCounts& counts) {
  const bool ord_ok = claim.ordered ? counts.ordered_violations == 0
                                    : counts.ordered_violations > 0;
  const bool comp_ok = claim.complete ? counts.complete_violations == 0
                                      : counts.complete_violations > 0;
  const bool cons_ok = claim.consistent ? counts.consistent_violations == 0
                                        : counts.consistent_violations > 0;
  return ord_ok && comp_ok && cons_ok;
}

}  // namespace rcm::exp
