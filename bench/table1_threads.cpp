// Realism check: Table 1's single-variable scenarios re-run on the live
// alert service (service::run_trace: real OS threads, loopback UDP
// ingest, durable replica workers, scheduler-driven interleavings)
// instead of the simulator.
//
// What must transfer exactly: every "yes" cell — the properties the
// paper guarantees can never be violated, on any substrate, under any
// interleaving; a single violation here would be a library bug.
// What is informational: the violation RATES in "NO" cells — without
// the simulator's delay model, thread scheduling produces different
// (typically fewer) reorderings, so witnessed counts differ; zero
// witnessed violations in a NO cell on this substrate is reported, not
// failed.
//
//   ./bench/table1_threads [--runs 60] [--updates 40] [--seed 42]
#include <iostream>

#include "check/properties.hpp"
#include "exp/scenarios.hpp"
#include "exp/table_experiment.hpp"
#include "service/run_trace.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rcm;
  util::Args args;
  args.add_flag("runs", "60", "runs per scenario row");
  args.add_flag("updates", "40", "updates per run");
  args.add_flag("seed", "42", "master seed");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage("table1_threads");
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage("table1_threads");
    return 0;
  }
  const auto runs = static_cast<std::size_t>(args.get_int("runs"));
  const auto updates = static_cast<std::size_t>(args.get_int("updates"));

  std::cout << "Table 1 on the alert service (AD-1, 2 replica threads, "
               "loopback UDP)\n"
            << runs << " runs per row; guaranteed ('yes') cells must show "
               "zero violations; 'NO' cells are informational on this "
               "substrate (no delay model)\n\n";

  util::Table table({"Scenario", "Ord", "Comp", "Cons", "paper",
                     "guaranteed cells ok?"});
  bool all_guaranteed_ok = true;
  for (exp::Scenario s : exp::kAllScenarios) {
    const auto spec = exp::single_var_scenario(s, 0.2);
    const auto claim = exp::paper_claim(FilterKind::kAd1, s, false);
    exp::PropertyCounts counts;
    util::Rng master{static_cast<std::uint64_t>(args.get_int("seed"))};
    for (std::size_t run = 0; run < runs; ++run) {
      util::Rng trial = master.fork(run + 1);
      service::ServiceConfig config;
      config.condition = spec.condition;
      config.num_replicas = 2;
      config.filter = FilterKind::kAd1;
      const auto traces = spec.make_traces(updates, trial);
      const auto r =
          service::run_trace(config, traces, spec.front_loss, trial());
      const auto report =
          check::check_run(r.as_system_run(spec.condition));
      ++counts.runs;
      if (report.ordered == check::Verdict::kViolated)
        ++counts.ordered_violations;
      if (report.complete == check::Verdict::kViolated)
        ++counts.complete_violations;
      if (report.consistent == check::Verdict::kViolated)
        ++counts.consistent_violations;
    }
    const bool guaranteed_ok =
        (!claim.ordered || counts.ordered_violations == 0) &&
        (!claim.complete || counts.complete_violations == 0) &&
        (!claim.consistent || counts.consistent_violations == 0);
    all_guaranteed_ok = all_guaranteed_ok && guaranteed_ok;
    auto cell = [&](std::size_t violations) {
      return std::to_string(violations) + "/" + std::to_string(counts.runs);
    };
    auto paper_cell = [&] {
      std::string out;
      out += claim.ordered ? 'O' : '-';
      out += claim.complete ? 'C' : '-';
      out += claim.consistent ? 'K' : '-';
      return out;
    };
    table.add_row({exp::scenario_name(s), cell(counts.ordered_violations),
                   cell(counts.complete_violations),
                   cell(counts.consistent_violations), paper_cell(),
                   guaranteed_ok ? "yes" : "NO"});
  }
  std::cout << table.render()
            << "\n(paper column: O/C/K = ordered/complete/consistent "
               "guaranteed by Table 1)\n"
            << (all_guaranteed_ok
                    ? "RESULT: every guaranteed cell holds on real threads\n"
                    : "RESULT: GUARANTEED CELL VIOLATED — bug\n");
  return all_guaranteed_ok ? 0 : 1;
}
