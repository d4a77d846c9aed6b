// Reactor monitoring on the live alert service: the paper's §1 scenario
// with real OS threads and sockets — one Data Monitor thread per sensor
// sending lossy UDP datagrams to every replicated Condition Evaluator,
// each replica a durable worker thread, one Alert Displayer thread.
//
//   ./examples/reactor_monitor [--ces 3] [--loss 0.25] [--updates 200]
//                              [--filter AD-4] [--seed 1]
//
// The displayed alerts are checked for the paper's ordered/consistent
// guarantees after the run.
#include <iostream>
#include <memory>

#include "check/properties.hpp"
#include "core/rcm.hpp"
#include "service/run_trace.hpp"
#include "trace/generators.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  rcm::util::Args args;
  args.add_flag("ces", "3", "number of CE replica threads");
  args.add_flag("loss", "0.25", "front-channel loss probability");
  args.add_flag("updates", "200", "sensor readings to emit");
  args.add_flag("filter", "AD-4", "AD algorithm");
  args.add_flag("seed", "1", "random seed");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage("reactor_monitor");
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage("reactor_monitor");
    return 0;
  }

  rcm::VariableRegistry vars;
  const rcm::VarId reactor = vars.intern("reactor");

  // c1 of the paper: "reactor temperature is over 3000 degrees".
  const auto overheat = std::make_shared<const rcm::ThresholdCondition>(
      "overheat", reactor, 3000.0);

  rcm::util::Rng rng{static_cast<std::uint64_t>(args.get_int("seed"))};
  rcm::trace::ReactorParams workload;
  workload.base.var = reactor;
  workload.base.count = static_cast<std::size_t>(args.get_int("updates"));
  workload.baseline = 2700.0;
  workload.excursion_prob = 0.04;

  rcm::service::ServiceConfig config;
  config.condition = overheat;
  config.num_replicas = static_cast<std::size_t>(args.get_int("ces"));
  config.filter = rcm::parse_filter_kind(args.get("filter"));

  std::cout << "spawning 1 DM thread, " << config.num_replicas
            << " CE replica threads (AD on the raising replica); loss " << args.get("loss")
            << ", filter " << rcm::filter_kind_name(config.filter) << "\n";

  const rcm::sim::RunResult result = rcm::service::run_trace(
      config, {rcm::trace::reactor_trace(workload, rng)},
      args.get_double("loss"),
      static_cast<std::uint64_t>(args.get_int("seed")));

  std::cout << "DM emitted " << result.dm_emitted[0].size() << " readings; "
            << result.front_messages_dropped
            << " datagrams dropped on the front channels\n";
  for (std::size_t i = 0; i < result.ce_inputs.size(); ++i)
    std::cout << "  CE" << i + 1 << ": " << result.ce_inputs[i].size()
              << " received, " << result.ce_outputs[i].size()
              << " alerts raised\n";

  std::cout << result.displayed.size() << " alerts displayed ("
            << result.arrived.size() - result.displayed.size()
            << " suppressed by " << rcm::filter_kind_name(config.filter)
            << "):\n";
  for (const rcm::Alert& a : result.displayed) {
    const auto& window = a.histories.at(reactor);
    std::cout << "  PAGE THE MANAGER: reading #" << window.back().seqno
              << " = " << window.back().value << " degrees\n";
  }

  const auto report = rcm::check::check_run(result.as_system_run(overheat));
  std::cout << "\nguarantees on this run: ordered="
            << (report.ordered == rcm::check::Verdict::kHolds ? "yes" : "NO")
            << " consistent="
            << (report.consistent == rcm::check::Verdict::kHolds ? "yes"
                                                                 : "NO")
            << "\n";
  return 0;
}
