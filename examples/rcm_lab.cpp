// rcm_lab: run a monitoring experiment described by a config file —
// the "downstream user" front door: no C++ required to try a condition,
// a workload and an AD algorithm against each other.
//
//   ./examples/rcm_lab --config examples/configs/reactor.ini
//
// Config format (INI; see examples/configs/*.ini):
//
//   [condition]
//   name = overheat
//   expr = temp[0] > 3000            # expression language of core/expr
//
//   [system]
//   ces = 2                          # CE replicas
//   filter = AD-4                    # pass, drop, AD-1..AD-6
//   loss = 0.2                       # front-link loss
//   seed = 7
//   substrate = sim                  # sim | service
//   updates = 100                    # per workload
//
//   [workload temp]                  # one section per variable;
//   kind = reactor                   # reactor|stock|events|uniform|file
//   baseline = 2700                  # generator-specific knobs
//   # file = trace.txt               # kind=file replays a saved trace
//
// Prints the displayed alerts and the formal properties of the run.
#include <iostream>
#include <memory>

#include "check/properties.hpp"
#include "check/run_record.hpp"
#include "core/rcm.hpp"
#include "service/run_trace.hpp"
#include "sim/system.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "util/args.hpp"
#include "util/config.hpp"

namespace {

using namespace rcm;

trace::Trace build_workload(const util::Config& config,
                            const std::string& section, VarId var,
                            std::size_t updates, util::Rng& rng) {
  const std::string kind = config.get_or(section, "kind", "uniform");
  trace::TraceParams base;
  base.var = var;
  base.count = updates;
  base.period = config.get_double_or(section, "period", 1.0);

  if (kind == "reactor") {
    trace::ReactorParams p;
    p.base = base;
    p.baseline = config.get_double_or(section, "baseline", 2500.0);
    p.stddev = config.get_double_or(section, "stddev", 80.0);
    p.excursion_prob = config.get_double_or(section, "excursion_prob", 0.05);
    return trace::reactor_trace(p, rng);
  }
  if (kind == "stock") {
    trace::StockParams p;
    p.base = base;
    p.initial = config.get_double_or(section, "initial", 100.0);
    p.crash_prob = config.get_double_or(section, "crash_prob", 0.03);
    p.drift = config.get_double_or(section, "drift", 0.01);
    return trace::stock_trace(p, rng);
  }
  if (kind == "events") {
    trace::EventParams p;
    p.base = base;
    p.event_prob = config.get_double_or(section, "event_prob", 0.1);
    return trace::event_trace(p, rng);
  }
  if (kind == "uniform") {
    trace::UniformParams p;
    p.base = base;
    p.lo = config.get_double_or(section, "lo", 0.0);
    p.hi = config.get_double_or(section, "hi", 100.0);
    return trace::uniform_trace(p, rng);
  }
  if (kind == "file") {
    auto loaded = trace::load_trace(config.require(section, "file"));
    for (auto& tu : loaded) tu.update.var = var;  // rebind to this variable
    return loaded;
  }
  throw std::invalid_argument("unknown workload kind '" + kind + "'");
}

int run_lab(const util::Config& config) {
  // Condition.
  VariableRegistry vars;
  const auto condition = expr::compile_condition(
      config.get_or("condition", "name", "condition"),
      config.require("condition", "expr"), vars);

  // System knobs.
  const auto ces =
      static_cast<std::size_t>(config.get_int_or("system", "ces", 2));
  const FilterKind filter =
      parse_filter_kind(config.get_or("system", "filter", "AD-1"));
  const double loss = config.get_double_or("system", "loss", 0.0);
  const auto seed =
      static_cast<std::uint64_t>(config.get_int_or("system", "seed", 1));
  const auto updates =
      static_cast<std::size_t>(config.get_int_or("system", "updates", 100));
  const std::string substrate =
      config.get_or("system", "substrate", "sim");

  // Workloads: every section named "workload <var>".
  util::Rng rng{seed};
  std::vector<trace::Trace> traces;
  for (const std::string& section : config.sections()) {
    if (section.rfind("workload", 0) != 0) continue;
    std::string var_name = section.size() > 8 ? section.substr(9) : "";
    if (var_name.empty())
      throw std::invalid_argument(
          "workload sections must be named '[workload <variable>]'");
    VarId var = 0;
    if (!vars.lookup(var_name, var))
      throw std::invalid_argument("workload variable '" + var_name +
                                  "' does not appear in the condition");
    traces.push_back(build_workload(config, section, var, updates, rng));
  }
  if (traces.empty())
    throw std::invalid_argument("no [workload <variable>] section found");

  std::cout << "condition : " << condition->name() << "  ("
            << (condition->history_class() == HistoryClass::kHistorical
                    ? "historical, "
                    : "non-historical, ")
            << (condition->triggering() == Triggering::kConservative
                    ? "conservative"
                    : "aggressive")
            << ")\nsystem    : " << ces << " CEs, filter "
            << filter_kind_name(filter) << ", loss " << loss
            << ", substrate " << substrate << "\n\n";

  // Run on the chosen substrate.
  sim::RunResult result;
  if (substrate == "sim") {
    sim::SystemConfig sc;
    sc.condition = condition;
    sc.dm_traces = traces;
    sc.num_ces = ces;
    sc.front.loss = loss;
    sc.filter = filter;
    sc.seed = seed;
    result = sim::run_system(sc);
  } else if (substrate == "service") {
    service::ServiceConfig svc;
    svc.condition = condition;
    svc.num_replicas = ces;
    svc.filter = filter;
    result = service::run_trace(svc, traces, loss, seed);
  } else {
    throw std::invalid_argument("unknown substrate '" + substrate + "'");
  }

  for (std::size_t i = 0; i < result.ce_inputs.size(); ++i)
    std::cout << "CE" << i + 1 << ": received " << result.ce_inputs[i].size()
              << " updates, raised " << result.ce_outputs[i].size()
              << " alerts\n";
  std::cout << result.displayed.size() << " alerts displayed ("
            << result.arrived.size() - result.displayed.size()
            << " suppressed):\n";
  for (const Alert& a : result.displayed)
    std::cout << "  " << to_string(a, vars) << "\n";

  const auto system_run = result.as_system_run(condition);
  const auto report = check::check_run(system_run);
  auto verdict = [](check::Verdict v) {
    switch (v) {
      case check::Verdict::kHolds: return "holds";
      case check::Verdict::kViolated: return "VIOLATED";
      case check::Verdict::kUnknown: return "undecided";
    }
    return "?";
  };
  std::cout << "\nordered " << verdict(report.ordered) << " | complete "
            << verdict(report.complete) << " | consistent "
            << verdict(report.consistent) << "\n";

  // Optional run recording for later auditing with rcm_audit.
  if (const auto record = config.find("output", "run")) {
    check::save_run(*record, system_run);
    std::cout << "run recorded to " << *record << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args;
  args.add_flag("config", "", "path to the experiment config (INI)");
  if (!args.parse(argc, argv) || args.get("config").empty()) {
    std::cerr << (args.error().empty() ? "--config is required"
                                       : args.error())
              << "\n"
              << args.usage("rcm_lab");
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage("rcm_lab");
    return 0;
  }
  try {
    return run_lab(util::Config::load(args.get("config")));
  } catch (const std::exception& e) {
    std::cerr << "rcm_lab: " << e.what() << "\n";
    return 1;
  }
}
