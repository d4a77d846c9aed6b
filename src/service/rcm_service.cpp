// rcm_service — hosts one replicated alert service on loopback.
//
//   rcm_service --replicas 3 --filter AD-4 --data-dir /tmp/rcm
//               --condition threshold --param 60     (one line)
//
// Prints the ingest / subscriber / admin endpoints, then runs until an
// admin drain request arrives (rcm_service_client --cmd drain) or the
// optional --duration budget expires. Exit codes: 0 = drained cleanly,
// 2 = usage/configuration error.
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "service/alert_service.hpp"
#include "service/health.hpp"
#include "swarm/spec.hpp"
#include "util/args.hpp"

namespace {

rcm::swarm::ConditionKind parse_condition_kind(const std::string& name) {
  using rcm::swarm::ConditionKind;
  if (name == "threshold") return ConditionKind::kThreshold;
  if (name == "rise-aggressive") return ConditionKind::kRiseAggressive;
  if (name == "rise-conservative") return ConditionKind::kRiseConservative;
  if (name == "abs-diff") return ConditionKind::kAbsDiff;
  if (name == "band") return ConditionKind::kBand;
  if (name == "rise2d-aggressive") return ConditionKind::kRise2dAggressive;
  if (name == "rise2d-conservative")
    return ConditionKind::kRise2dConservative;
  throw std::invalid_argument("unknown condition kind: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcm;

  util::Args args;
  args.add_flag("condition", "threshold",
                "condition kind: threshold, rise-aggressive, "
                "rise-conservative, abs-diff, band, rise2d-aggressive, "
                "rise2d-conservative");
  args.add_flag("param", "60", "condition numeric parameter");
  args.add_flag("replicas", "2", "number of CE replicas");
  args.add_flag("filter", "AD-1", "AD filter (AD-1..AD-6, pass, drop)");
  args.add_flag("data-dir", "", "durable state directory (required)");
  args.add_flag("checkpoint-every", "256",
                "accepted updates between automatic checkpoints");
  args.add_flag("journal", "false",
                "record the full accepted-update journal per replica");
  args.add_flag("no-auto-restart", "false",
                "do not restart killed replicas automatically");
  args.add_flag("duration", "0",
                "seconds to serve before draining (0 = until admin drain)");
  args.add_flag("no-tracing", "false",
                "disable rcm::obs::trace span recording (admin trace-dump "
                "will be empty)");
  args.add_flag("prom-port", "-1",
                "serve Prometheus text exposition (GET /metrics) on this "
                "loopback TCP port (0 = ephemeral, -1 = off)");

  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage(argv[0]).c_str());
    return 0;
  }

  try {
    // Live service default: traceable. The rings are fixed-size and the
    // hot-path cost is one ring write per span (perfbench's
    // obs.trace_overhead_frac).
    obs::trace::set_enabled(!args.get_bool("no-tracing"));

    // Windowed rates in health documents come from the process sampler;
    // a hosting process runs it for its whole lifetime. Library users
    // (tests, benches) opt in explicitly instead.
    obs::sampler().start();

    std::unique_ptr<service::PromExporter> prom;
    const int prom_port = args.get_int("prom-port");
    if (prom_port >= 0) {
      prom = std::make_unique<service::PromExporter>(
          static_cast<std::uint16_t>(prom_port));
      prom->start();
      std::printf("  prometheus:       http://127.0.0.1:%u/metrics\n",
                  prom->port());
    }

    service::ServiceConfig config;
    config.condition = swarm::build_condition(
        parse_condition_kind(args.get("condition")),
        args.get_double("param"));
    config.num_replicas = static_cast<std::size_t>(args.get_int("replicas"));
    config.filter = parse_filter_kind(args.get("filter"));
    config.data_dir = args.get("data-dir");
    config.checkpoint_every =
        static_cast<std::size_t>(args.get_int("checkpoint-every"));
    config.record_journal = args.get_bool("journal");
    config.auto_restart = !args.get_bool("no-auto-restart");
    if (config.data_dir.empty()) {
      std::fprintf(stderr, "--data-dir is required\n");
      return 2;
    }

    service::AlertService svc{std::move(config)};
    std::printf("rcm_service: %zu replica(s), filter %s\n",
                svc.config().num_replicas,
                std::string(filter_kind_name(svc.config().filter)).c_str());
    for (std::size_t i = 0; i < svc.config().num_replicas; ++i)
      std::printf("  replica %zu ingest: udp 127.0.0.1:%u\n", i,
                  svc.replica_port(i));
    std::printf("  subscribers:      tcp 127.0.0.1:%u\n",
                svc.subscriber_port());
    std::printf("  admin:            tcp 127.0.0.1:%u\n", svc.admin_port());
    std::fflush(stdout);

    const double duration = args.get_double("duration");
    if (duration > 0) {
      (void)svc.await_drain_request(std::chrono::milliseconds{
          static_cast<long long>(duration * 1000.0)});
    } else {
      while (!svc.await_drain_request(std::chrono::milliseconds{1000})) {
      }
    }
    svc.drain();
    const service::ServiceStatus s = svc.status();
    std::printf(
        "rcm_service: drained (%llu datagrams in, %llu alerts displayed)\n",
        static_cast<unsigned long long>(s.ingested_datagrams),
        static_cast<unsigned long long>(s.displayed));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcm_service: %s\n", e.what());
    return 2;
  }
}
