// rcm_service_client — companion tool for rcm_service: admin commands,
// a synthetic DM feeder, and an alert subscriber.
//
//   rcm_service_client --cmd status   --admin-port P [--json]
//   rcm_service_client --cmd kill     --admin-port P --replica 1
//   rcm_service_client --cmd restart  --admin-port P --replica 1
//   rcm_service_client --cmd checkpoint --admin-port P --replica 0
//   rcm_service_client --cmd drain    --admin-port P
//   rcm_service_client --cmd metrics  --admin-port P
//   rcm_service_client --cmd trace-dump --admin-port P [--out trace.json]
//   rcm_service_client --cmd feed     --ports P1,P2 --updates 1000 --seed 7
//   rcm_service_client --cmd subscribe --sub-port P
//   rcm_service_client --cmd subscribe --sub-port P --session worker-3
//                      [--from 17]
//   rcm_service_client --cmd sessions --admin-port P
//   rcm_service_client --cmd health   --admin-port P
//   rcm_service_client --cmd metrics-prom --admin-port P [--out m.prom]
//
// `health` fetches the service's health document and prints it as JSON.
// `metrics-prom` prints the Prometheus text exposition of the service's
// registry. `metrics` prints the service's live obs registry snapshot
// (JSON);
// `trace-dump` fetches the Chrome trace_event export — load the file in
// chrome://tracing or https://ui.perfetto.dev. `--json` makes `status`
// machine-readable for CI and the swarm fuzzer.
//
// `subscribe --session` opens a durable session (service/session.hpp):
// the service replays every alert from `--from` (or the session's
// durable cursor) before the live stream, and the client acks as it
// consumes, so killing and rerunning the same command never loses an
// alert. `sessions` lists per-session cursor/lag/backlog as JSON.
//
// Exit codes: 0 = ok, 1 = service reported an error, 2 = usage/IO error.
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "service/admin.hpp"
#include "service/health.hpp"
#include "trace/generators.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/session.hpp"

namespace {

using namespace rcm;

constexpr std::chrono::seconds kHealthTimeout{5};

std::vector<std::uint16_t> parse_ports(const std::string& csv) {
  std::vector<std::uint16_t> ports;
  std::stringstream ss{csv};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    ports.push_back(static_cast<std::uint16_t>(std::stoul(item)));
  }
  return ports;
}

service::AdminResponse admin_exchange(std::uint16_t port,
                                      const service::AdminRequest& req) {
  net::TcpStream conn = net::TcpStream::connect(port);
  conn.write_all(wire::frame(service::encode_admin_request(req)));
  wire::FrameCursor cursor;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (std::chrono::steady_clock::now() < deadline) {
    auto bytes = conn.read_some(std::chrono::milliseconds{200});
    if (!bytes) continue;
    if (bytes->empty()) break;  // EOF before a full response
    cursor.feed(*bytes);
    if (auto payload = cursor.next())
      return service::decode_admin_response(*payload);
  }
  throw std::runtime_error("admin response timed out");
}

void print_status(const service::ServiceStatus& s) {
  std::printf("datagrams in: %llu   displayed: %llu   subscribers: %llu   "
              "dm-ends: %llu\n",
              static_cast<unsigned long long>(s.ingested_datagrams),
              static_cast<unsigned long long>(s.displayed),
              static_cast<unsigned long long>(s.subscribers),
              static_cast<unsigned long long>(s.dm_ends));
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    const service::ReplicaStatus& r = s.replicas[i];
    std::printf("replica %zu: %s  port %u  incarnation %llu  accepted %llu  "
                "wal %llu  ckpts %llu  recovered-wal %llu\n",
                i,
                r.state == service::ReplicaState::kRunning ? "RUNNING"
                                                           : "DOWN",
                r.port, static_cast<unsigned long long>(r.incarnation),
                static_cast<unsigned long long>(r.accepted),
                static_cast<unsigned long long>(r.wal_records),
                static_cast<unsigned long long>(r.checkpoints),
                static_cast<unsigned long long>(r.recovered_wal));
  }
  if (s.total_sessions > 0) {
    std::printf("sessions: %llu%s\n",
                static_cast<unsigned long long>(s.total_sessions),
                s.sessions.size() <
                        static_cast<std::size_t>(s.total_sessions)
                    ? " (highest-lag shown)"
                    : "");
    for (const service::SessionStatus& e : s.sessions)
      std::printf("  %s: acked %llu  lag %llu  backlog %llu  %s%s\n",
                  e.id.c_str(), static_cast<unsigned long long>(e.acked),
                  static_cast<unsigned long long>(e.lag),
                  static_cast<unsigned long long>(e.backlog),
                  e.connected ? "CONNECTED" : "DETACHED",
                  e.evicted ? " EVICTED" : "");
  }
}

// One status line as a JSON object, stable keys, for scraping. `health`
// (optional) is the instance's own health document, appended as a
// "health" key so one `status --json` call carries both views.
void print_status_json(const service::ServiceStatus& s,
                       const std::string* health) {
  std::printf("{\"ingested_datagrams\": %llu, \"displayed\": %llu, "
              "\"subscribers\": %llu, \"dm_ends\": %llu, \"replicas\": [",
              static_cast<unsigned long long>(s.ingested_datagrams),
              static_cast<unsigned long long>(s.displayed),
              static_cast<unsigned long long>(s.subscribers),
              static_cast<unsigned long long>(s.dm_ends));
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    const service::ReplicaStatus& r = s.replicas[i];
    std::printf("%s{\"index\": %zu, \"state\": \"%s\", \"port\": %u, "
                "\"incarnation\": %llu, \"accepted\": %llu, "
                "\"wal_records\": %llu, \"checkpoints\": %llu, "
                "\"recovered_wal\": %llu}",
                i == 0 ? "" : ", ", i,
                r.state == service::ReplicaState::kRunning ? "running"
                                                           : "down",
                r.port, static_cast<unsigned long long>(r.incarnation),
                static_cast<unsigned long long>(r.accepted),
                static_cast<unsigned long long>(r.wal_records),
                static_cast<unsigned long long>(r.checkpoints),
                static_cast<unsigned long long>(r.recovered_wal));
  }
  std::printf("], \"total_sessions\": %llu, \"sessions\": [",
              static_cast<unsigned long long>(s.total_sessions));
  for (std::size_t i = 0; i < s.sessions.size(); ++i) {
    const service::SessionStatus& e = s.sessions[i];
    std::printf("%s{\"id\": \"%s\", \"acked\": %llu, \"framed\": %llu, "
                "\"lag\": %llu, \"backlog\": %llu, \"connected\": %s, "
                "\"evicted\": %s}",
                i == 0 ? "" : ", ", e.id.c_str(),
                static_cast<unsigned long long>(e.acked),
                static_cast<unsigned long long>(e.framed),
                static_cast<unsigned long long>(e.lag),
                static_cast<unsigned long long>(e.backlog),
                e.connected ? "true" : "false",
                e.evicted ? "true" : "false");
  }
  std::printf("]");
  if (health) std::printf(", \"health\": %s", health->c_str());
  std::printf("}\n");
}

int run_admin(service::AdminCommand command, std::uint16_t port,
              std::uint64_t replica, bool json,
              const std::string& out_path) {
  service::AdminRequest req;
  req.command = command;
  req.replica = replica;
  const service::AdminResponse resp = admin_exchange(port, req);
  if (!resp.ok) {
    std::fprintf(stderr, "service error: %s\n", resp.error.c_str());
    if (resp.unsupported) {
      const auto& u = *resp.unsupported;
      std::fprintf(stderr,
                   "server is admin protocol v%u.%u (accepts majors %u..%u, "
                   "commands 0..%u); command %u is not supported\n",
                   static_cast<unsigned>(u.server_version.major),
                   static_cast<unsigned>(u.server_version.minor),
                   static_cast<unsigned>(u.min_major),
                   static_cast<unsigned>(u.max_major),
                   static_cast<unsigned>(u.max_command),
                   static_cast<unsigned>(u.command));
    }
    return 1;
  }
  if (resp.status) {
    if (json) {
      // Machine-readable status grows a health block (admin 2.3); a
      // failed fetch (older server) degrades to the plain document.
      std::optional<std::string> health;
      if (command == service::AdminCommand::kStatus) {
        if (const auto doc =
                service::scrape_instance_health(port, kHealthTimeout))
          health = service::instance_health_json(*doc);
      }
      print_status_json(*resp.status, health ? &*health : nullptr);
    } else {
      print_status(*resp.status);
    }
  } else if (resp.body) {
    if (out_path.empty()) {
      std::fputs(resp.body->c_str(), stdout);
    } else {
      std::ofstream out{out_path, std::ios::binary | std::ios::trunc};
      if (!out.is_open()) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 2;
      }
      out.write(resp.body->data(),
                static_cast<std::streamsize>(resp.body->size()));
      std::fprintf(stderr, "wrote %zu bytes to %s\n", resp.body->size(),
                   out_path.c_str());
    }
  } else {
    std::printf("ok\n");
  }
  return 0;
}

// Fetches the instance health document (admin v2.3) and prints it as
// JSON.
int run_health(std::uint16_t port) {
  const auto doc = service::scrape_instance_health(port, kHealthTimeout);
  if (!doc) {
    std::fprintf(stderr, "no health document from admin port %u\n",
                 static_cast<unsigned>(port));
    return 1;
  }
  std::printf("%s\n", service::instance_health_json(*doc).c_str());
  return 0;
}

int run_feed(const std::vector<std::uint16_t>& ports, std::size_t updates,
             std::uint64_t seed, double rate) {
  if (ports.empty()) {
    std::fprintf(stderr, "--cmd feed requires --ports\n");
    return 2;
  }
  trace::UniformParams params;
  params.base.var = 0;
  params.base.count = updates;
  params.lo = 0.0;
  params.hi = 100.0;
  util::Rng rng{seed};
  const trace::Trace t = trace::uniform_trace(params, rng);

  net::UdpSocket socket;
  const auto gap =
      rate > 0 ? std::chrono::microseconds{
                     static_cast<long long>(1e6 / rate)}
               : std::chrono::microseconds{0};
  for (const trace::TimedUpdate& tu : t) {
    // Attach the deterministic trace context at the source so a
    // subsequent `--cmd trace-dump` correlates spans across the service.
    const obs::trace::TraceContext ctx{
        obs::trace::derive_trace_id(tu.update.var, tu.update.seqno), 0};
    const auto framed = wire::frame(wire::encode_update(tu.update, ctx));
    for (const std::uint16_t p : ports) socket.send_to(p, framed);
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
  }
  const auto end = wire::frame(wire::encode_end_marker(0));
  for (const std::uint16_t p : ports) socket.send_to(p, end);
  std::printf("fed %zu updates (+END) to %zu replica port(s)\n", t.size(),
              ports.size());
  return 0;
}

int run_subscribe(std::uint16_t port) {
  net::TcpStream conn = net::TcpStream::connect(port);
  wire::FrameCursor cursor;
  std::size_t alerts = 0;
  for (;;) {
    auto bytes = conn.read_some(std::chrono::milliseconds{500});
    if (!bytes) continue;
    if (bytes->empty()) break;  // service drained: orderly EOF
    cursor.feed(*bytes);
    while (auto payload = cursor.next()) {
      try {
        const wire::DecodedAlert decoded = wire::decode_alert(*payload);
        ++alerts;
        std::printf("alert %zu: %s\n", alerts, decoded.alert.cond.c_str());
        std::fflush(stdout);  // a redirected stream must not sit buffered
      } catch (const wire::DecodeError&) {
        std::fprintf(stderr, "subscribe: corrupt alert frame\n");
      }
    }
  }
  std::printf("subscription closed after %zu alert(s)\n", alerts);
  return 0;
}

int run_session_subscribe(std::uint16_t port, const std::string& session,
                          std::int64_t from) {
  net::TcpStream conn = net::TcpStream::connect(port);
  wire::SessionHello hello;
  hello.session_id = session;
  if (from >= 0) hello.from = static_cast<std::uint64_t>(from);
  conn.write_all(wire::frame(wire::encode_session_hello(hello)));

  wire::FrameCursor cursor;
  bool welcomed = false;
  std::size_t alerts = 0;
  std::uint64_t last_index = 0;
  bool have_index = false;
  for (;;) {
    auto bytes = conn.read_some(std::chrono::milliseconds{500});
    if (!bytes) continue;
    if (bytes->empty()) break;  // service drained: orderly EOF
    cursor.feed(*bytes);
    while (auto payload = cursor.next()) {
      if (!welcomed) {
        // Live plain-alert frames published before the hello was
        // processed are not part of the session stream; skip them.
        if (!payload->empty() && (*payload)[0] == wire::kSessionWelcomeTag) {
          const auto w = wire::decode_session_welcome(*payload);
          welcomed = true;
          switch (w.status) {
            case wire::SessionWelcomeStatus::kOk:
              std::printf("session %s: replay from %llu (log end %llu)\n",
                          session.c_str(),
                          static_cast<unsigned long long>(w.start_index),
                          static_cast<unsigned long long>(w.log_end));
              break;
            case wire::SessionWelcomeStatus::kTruncated:
              std::printf(
                  "session %s: TRUNCATED, lost alerts [%llu, %llu); "
                  "resuming at %llu\n",
                  session.c_str(),
                  static_cast<unsigned long long>(w.lost_from),
                  static_cast<unsigned long long>(w.lost_to),
                  static_cast<unsigned long long>(w.start_index));
              break;
            case wire::SessionWelcomeStatus::kBadCursor:
              std::printf("session %s: cursor beyond log end %llu; "
                          "resuming live\n",
                          session.c_str(),
                          static_cast<unsigned long long>(w.log_end));
              break;
          }
          std::fflush(stdout);
        }
        continue;
      }
      try {
        const wire::SessionRecord rec = wire::decode_session_record(*payload);
        if (rec.kind == wire::SessionRecord::Kind::kEvicted) {
          std::fprintf(stderr,
                       "session %s: EVICTED at index %llu (lag %llu); "
                       "reconnect for a truncated resume\n",
                       session.c_str(),
                       static_cast<unsigned long long>(rec.index),
                       static_cast<unsigned long long>(rec.lag));
          std::printf("subscription closed after %zu alert(s)\n", alerts);
          return 1;
        }
        ++alerts;
        last_index = rec.index;
        have_index = true;
        std::printf("alert #%llu: %s\n",
                    static_cast<unsigned long long>(rec.index),
                    rec.alert.alert.cond.c_str());
        std::fflush(stdout);  // a redirected stream must not sit buffered
        conn.write_all(
            wire::frame(wire::encode_session_ack(rec.index + 1)));
      } catch (const wire::DecodeError&) {
        std::fprintf(stderr, "subscribe: corrupt session frame\n");
      }
    }
  }
  std::printf("subscription closed after %zu alert(s)%s\n", alerts,
              have_index ? (" (last index " + std::to_string(last_index) +
                            ")").c_str()
                         : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args;
  args.add_flag("cmd", "status",
                "status | kill | restart | checkpoint | drain | metrics | "
                "metrics-prom | trace-dump | feed | subscribe | sessions | "
                "health");
  args.add_flag("admin-port", "0", "service admin TCP port");
  args.add_flag("replica", "0", "target replica for kill/restart/checkpoint");
  args.add_flag("json", "false", "machine-readable status output");
  args.add_flag("out", "", "write metrics/trace-dump body to this file");
  args.add_flag("ports", "", "comma-separated replica UDP ports (feed)");
  args.add_flag("updates", "1000", "updates to feed");
  args.add_flag("seed", "1", "feeder RNG seed");
  args.add_flag("rate", "0", "feed rate in updates/sec (0 = full speed)");
  args.add_flag("sub-port", "0", "service subscriber TCP port (subscribe)");
  args.add_flag("session", "",
                "durable session id (subscribe); empty = legacy stream");
  args.add_flag("from", "-1",
                "replay from this alert index (subscribe --session); "
                "-1 = resume from the durable cursor");

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
    const std::string cmd = args.get("cmd");
    const auto admin_port =
        static_cast<std::uint16_t>(args.get_int("admin-port"));
    const auto replica = static_cast<std::uint64_t>(args.get_int("replica"));
    const bool json = args.get_bool("json");
    const std::string out = args.get("out");
    if (cmd == "status")
      return run_admin(service::AdminCommand::kStatus, admin_port, replica,
                       json, out);
    if (cmd == "kill")
      return run_admin(service::AdminCommand::kKill, admin_port, replica,
                       json, out);
    if (cmd == "restart")
      return run_admin(service::AdminCommand::kRestart, admin_port, replica,
                       json, out);
    if (cmd == "checkpoint")
      return run_admin(service::AdminCommand::kCheckpoint, admin_port,
                       replica, json, out);
    if (cmd == "drain")
      return run_admin(service::AdminCommand::kDrain, admin_port, replica,
                       json, out);
    if (cmd == "metrics")
      return run_admin(service::AdminCommand::kMetrics, admin_port, replica,
                       json, out);
    if (cmd == "trace-dump")
      return run_admin(service::AdminCommand::kTraceDump, admin_port,
                       replica, json, out);
    if (cmd == "feed")
      return run_feed(parse_ports(args.get("ports")),
                      static_cast<std::size_t>(args.get_int("updates")),
                      static_cast<std::uint64_t>(args.get_int("seed")),
                      args.get_double("rate"));
    if (cmd == "subscribe") {
      const auto sub_port =
          static_cast<std::uint16_t>(args.get_int("sub-port"));
      const std::string session = args.get("session");
      if (!session.empty())
        return run_session_subscribe(
            sub_port, session,
            static_cast<std::int64_t>(args.get_int("from")));
      return run_subscribe(sub_port);
    }
    if (cmd == "sessions")
      return run_admin(service::AdminCommand::kSessions, admin_port, replica,
                       json, out);
    if (cmd == "health")
      return run_health(admin_port);
    if (cmd == "metrics-prom")
      return run_admin(service::AdminCommand::kMetricsProm, admin_port,
                       replica, json, out);
    std::fprintf(stderr, "unknown --cmd %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcm_service_client: %s\n", e.what());
    return 2;
  }
}
