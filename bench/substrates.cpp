// Substrate comparison: the same monitoring workload executed on the
// two data paths this library provides —
//
//   sim      deterministic discrete-event simulator (virtual time),
//   service  the live AlertService: loopback UDP ingest, durable replica
//            workers, the AD on the raising worker (service::run_trace),
//
// reporting wall-clock runtime, update throughput, and (the important
// part) that both display the SAME alert key set for a lossless run —
// the simulator's results transfer to the real data path.
//
//   ./bench/substrates [--updates 5000] [--ces 2] [--seed 10]
#include <chrono>
#include <iostream>
#include <memory>
#include <set>

#include "core/rcm.hpp"
#include "service/run_trace.hpp"
#include "sim/system.hpp"
#include "trace/generators.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace rcm;

std::set<AlertKey> key_set(const std::vector<Alert>& alerts) {
  std::set<AlertKey> out;
  for (const Alert& a : alerts) out.insert(a.key());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args;
  args.add_flag("updates", "5000", "updates in the workload");
  args.add_flag("ces", "2", "CE replicas");
  args.add_flag("seed", "10", "seed");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage("substrates");
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage("substrates");
    return 0;
  }
  const auto updates = static_cast<std::size_t>(args.get_int("updates"));
  const auto ces = static_cast<std::size_t>(args.get_int("ces"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  auto condition =
      std::make_shared<const ThresholdCondition>("hot", 0, 55.0);
  util::Rng rng{seed};
  trace::UniformParams p;
  p.base.var = 0;
  p.base.count = updates;
  p.lo = 0.0;
  p.hi = 100.0;
  const auto trace = trace::uniform_trace(p, rng);

  std::cout << "One workload, two data paths (lossless, " << updates
            << " updates, " << ces << " CEs, AD-1)\n\n";
  util::Table table(
      {"substrate", "wall time", "updates/s (per CE)", "alerts displayed"});

  std::set<AlertKey> sim_keys;
  {
    sim::SystemConfig config;
    config.condition = condition;
    config.dm_traces = {trace};
    config.num_ces = ces;
    config.filter = FilterKind::kAd1;
    config.seed = seed;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = sim::run_system(config);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    sim_keys = key_set(r.displayed);
    table.add_row({"simulator", util::fmt_double(secs * 1000, 1) + "ms",
                   util::fmt_double(static_cast<double>(updates) / secs, 0),
                   std::to_string(r.displayed.size())});
  }
  std::set<AlertKey> service_keys;
  bool lossless = true;
  {
    service::ServiceConfig config;
    config.condition = condition;
    config.num_replicas = ces;
    config.filter = FilterKind::kAd1;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = service::run_trace(config, {trace}, 0.0, seed);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    service_keys = key_set(r.displayed);
    for (const auto& journal : r.ce_inputs)
      lossless = lossless && journal == r.dm_emitted[0];
    table.add_row({"service", util::fmt_double(secs * 1000, 1) + "ms",
                   util::fmt_double(static_cast<double>(updates) / secs, 0),
                   std::to_string(r.displayed.size())});
  }

  const bool agree = lossless && sim_keys == service_keys;
  std::cout << table.render()
            << "\nservice journals equal the sent stream: "
            << (lossless ? "YES" : "NO — BUG")
            << "\nalert key sets agree across substrates: "
            << (sim_keys == service_keys ? "YES" : "NO — BUG") << "\n";
  return agree ? 0 : 1;
}
