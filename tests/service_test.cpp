// rcm::service — replicated alert service over real sockets.
//
// The end-to-end test here is the PR's acceptance gate: kill a CE
// replica mid-stream, restart it, and require the exact checkers in
// src/check/ to report the SAME completeness/consistency verdicts as
// the corresponding non-replicated run, for both AD-1 and AD-4.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "check/properties.hpp"
#include "core/builtin_conditions.hpp"
#include "core/displayer.hpp"
#include "core/evaluator.hpp"
#include "core/filters.hpp"
#include "core/sequence.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admin.hpp"
#include "service/alert_service.hpp"
#include "service/run_trace.hpp"
#include "service/supervisor.hpp"
#include "swarm/spec.hpp"
#include "trace/scripted.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace rcm::service {
namespace {

using namespace std::chrono_literals;

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("rcm_service_" + name);
  std::filesystem::remove_all(dir);
  return dir;  // the service creates it
}

ConditionPtr threshold_condition() {
  return swarm::build_condition(swarm::ConditionKind::kThreshold, 50.0);
}

/// Single-variable trace; every even index fires the threshold alert.
std::vector<Update> make_trace(std::size_t n) {
  std::vector<Update> trace;
  for (std::size_t i = 0; i < n; ++i)
    trace.push_back(Update{0, static_cast<SeqNo>(i + 1),
                           (i % 2 == 0) ? 80.0 : 20.0});
  return trace;
}

/// Sends every update, framed, to every replica port.
void feed(net::UdpSocket& udp, const std::vector<std::uint16_t>& ports,
          const std::vector<Update>& trace) {
  for (const Update& u : trace)
    for (const std::uint16_t port : ports)
      udp.try_send_to(port, wire::frame(wire::encode_update(u)));
}

/// The non-replicated reference: one CE, one AD, the full stream.
check::PropertyReport reference_verdicts(const ConditionPtr& cond,
                                         FilterKind filter,
                                         const std::vector<Update>& trace) {
  ConditionEvaluator ce{cond};
  AlertDisplayer ad{make_filter(filter, {0})};
  for (const Update& u : trace)
    if (auto alert = ce.on_update(u)) ad.on_alert(*alert);
  check::SystemRun run;
  run.condition = cond;
  run.ce_inputs = {trace};
  run.displayed = ad.displayed();
  return check::check_run(run);
}

// ---- supervisor ---------------------------------------------------------

TEST(ReplicaSupervisor, BackoffDoublesAndCaps) {
  BackoffPolicy policy;
  policy.initial = 10ms;
  policy.factor = 2.0;
  policy.max = 80ms;
  policy.reset_after = 100ms;
  ReplicaSupervisor sup{policy, 2};

  EXPECT_EQ(sup.next_delay(0), 10ms);
  EXPECT_EQ(sup.next_delay(0), 20ms);
  EXPECT_EQ(sup.next_delay(0), 40ms);
  EXPECT_EQ(sup.next_delay(0), 80ms);
  EXPECT_EQ(sup.next_delay(0), 80ms);  // capped
  EXPECT_EQ(sup.consecutive_failures(0), 5u);
  EXPECT_EQ(sup.restarts(0), 5u);

  // Replica 1's streak is independent.
  EXPECT_EQ(sup.next_delay(1), 10ms);

  // A short uptime does not clear the streak; a healthy one does.
  sup.note_healthy(0, 50ms);
  EXPECT_EQ(sup.next_delay(0), 80ms);
  sup.note_healthy(0, 100ms);
  EXPECT_EQ(sup.consecutive_failures(0), 0u);
  EXPECT_EQ(sup.next_delay(0), 10ms);
  EXPECT_EQ(sup.restarts(0), 7u);
}

TEST(ReplicaSupervisor, RejectsDegeneratePolicies) {
  BackoffPolicy zero;
  zero.initial = 0ms;
  EXPECT_THROW((ReplicaSupervisor{zero, 1}), std::invalid_argument);

  BackoffPolicy shrink;
  shrink.factor = 0.5;
  EXPECT_THROW((ReplicaSupervisor{shrink, 1}), std::invalid_argument);

  BackoffPolicy inverted;
  inverted.initial = 100ms;
  inverted.max = 10ms;
  EXPECT_THROW((ReplicaSupervisor{inverted, 1}), std::invalid_argument);
}

// ---- admin codec --------------------------------------------------------

TEST(AdminCodec, RequestRoundTripsEveryCommand) {
  for (AdminCommand cmd :
       {AdminCommand::kStatus, AdminCommand::kKill, AdminCommand::kRestart,
        AdminCommand::kCheckpoint, AdminCommand::kDrain,
        AdminCommand::kMetrics, AdminCommand::kTraceDump}) {
    AdminRequest req;
    req.command = cmd;
    req.replica = 7;
    const AdminRequest back = decode_admin_request(encode_admin_request(req));
    EXPECT_EQ(back.command, cmd);
    EXPECT_EQ(back.replica, 7u);
  }
}

TEST(AdminCodec, ResponseRoundTripsFullStatus) {
  AdminResponse resp;
  resp.ok = true;
  ServiceStatus status;
  status.ingested_datagrams = 1234;
  status.displayed = 56;
  status.subscribers = 2;
  status.dm_ends = 3;
  ReplicaStatus r0;
  r0.state = ReplicaState::kRunning;
  r0.port = 40001;
  r0.incarnation = 1;
  r0.accepted = 600;
  r0.wal_records = 88;
  r0.checkpoints = 2;
  ReplicaStatus r1;
  r1.state = ReplicaState::kDown;
  r1.port = 40002;
  r1.incarnation = 3;
  r1.recovered_wal = 17;
  status.replicas = {r0, r1};
  resp.status = status;

  const AdminResponse back =
      decode_admin_response(encode_admin_response(resp));
  ASSERT_TRUE(back.ok);
  ASSERT_TRUE(back.status.has_value());
  EXPECT_EQ(back.status->ingested_datagrams, 1234u);
  EXPECT_EQ(back.status->displayed, 56u);
  EXPECT_EQ(back.status->subscribers, 2u);
  EXPECT_EQ(back.status->dm_ends, 3u);
  ASSERT_EQ(back.status->replicas.size(), 2u);
  EXPECT_EQ(back.status->replicas[0].state, ReplicaState::kRunning);
  EXPECT_EQ(back.status->replicas[0].port, 40001);
  EXPECT_EQ(back.status->replicas[0].accepted, 600u);
  EXPECT_EQ(back.status->replicas[0].wal_records, 88u);
  EXPECT_EQ(back.status->replicas[0].checkpoints, 2u);
  EXPECT_EQ(back.status->replicas[1].state, ReplicaState::kDown);
  EXPECT_EQ(back.status->replicas[1].incarnation, 3u);
  EXPECT_EQ(back.status->replicas[1].recovered_wal, 17u);
}

TEST(AdminCodec, BodyResponseRoundTrips) {
  AdminResponse resp;
  resp.ok = true;
  resp.body = "{\"counters\": {\"a\": 1}}";
  const AdminResponse back =
      decode_admin_response(encode_admin_response(resp));
  ASSERT_TRUE(back.ok);
  EXPECT_FALSE(back.status.has_value());
  ASSERT_TRUE(back.body.has_value());
  EXPECT_EQ(*back.body, "{\"counters\": {\"a\": 1}}");

  // Absent body stays absent (the has_body flag round-trips).
  AdminResponse plain;
  plain.ok = true;
  const AdminResponse plain_back =
      decode_admin_response(encode_admin_response(plain));
  EXPECT_TRUE(plain_back.ok);
  EXPECT_FALSE(plain_back.body.has_value());
}

TEST(AdminCodec, RejectsOversizedBody) {
  AdminResponse resp;
  resp.ok = true;
  resp.body = std::string((1u << 20) + 1, 'x');
  EXPECT_THROW((void)decode_admin_response(encode_admin_response(resp)),
               wire::DecodeError);
}

TEST(AdminCodec, ErrorResponseRoundTrips) {
  AdminResponse resp;
  resp.ok = false;
  resp.error = "no such replica";
  const AdminResponse back =
      decode_admin_response(encode_admin_response(resp));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "no such replica");
  EXPECT_FALSE(back.status.has_value());
}

TEST(AdminCodec, RejectsMalformedInput) {
  EXPECT_THROW((void)decode_admin_request({}), wire::DecodeError);

  // 11 is one past kMetricsProm, the newest command this binary knows.
  std::vector<std::uint8_t> unknown_cmd = {11, 0};
  EXPECT_THROW((void)decode_admin_request(unknown_cmd), wire::DecodeError);

  std::vector<std::uint8_t> trailing =
      encode_admin_request(AdminRequest{AdminCommand::kStatus, 0});
  trailing.push_back(0xff);
  EXPECT_THROW((void)decode_admin_request(trailing), wire::DecodeError);

  std::vector<std::uint8_t> bad_status =
      encode_admin_response(AdminResponse{});
  bad_status[0] = 'X';
  EXPECT_THROW((void)decode_admin_response(bad_status), wire::DecodeError);

  std::vector<std::uint8_t> short_resp = {'O'};
  EXPECT_THROW((void)decode_admin_response(short_resp), wire::DecodeError);
}

// ---- end-to-end crash recovery (ISSUE acceptance test) ------------------

TEST(AlertServiceE2E, KillRestartMatchesNonReplicatedVerdicts) {
  const ConditionPtr cond = threshold_condition();
  const std::vector<Update> trace = make_trace(40);

  for (FilterKind filter : {FilterKind::kAd1, FilterKind::kAd4}) {
    const std::string tag =
        std::string(filter_kind_name(filter));
    SCOPED_TRACE(tag);

    ServiceConfig cfg;
    cfg.condition = cond;
    cfg.num_replicas = 2;
    cfg.filter = filter;
    cfg.data_dir = fresh_dir("e2e_" + tag);
    cfg.checkpoint_every = 4;
    cfg.record_journal = true;
    cfg.auto_restart = false;
    cfg.poll_interval = 5ms;
    AlertService svc{cfg};
    const std::vector<std::uint16_t> ports = svc.replica_ports();

    net::UdpSocket udp{0};
    for (std::size_t k = 0; k < trace.size(); ++k) {
      if (k == 15) svc.kill_replica(1);   // crash mid-stream
      if (k == 25) svc.restart_replica(1);  // rejoin from checkpoint+WAL
      feed(udp, ports, {trace[k]});
      // Pace the stream so live replicas keep up in lockstep; the AD-4
      // verdict comparison assumes no cross-replica alert reordering.
      std::this_thread::sleep_for(2ms);
    }
    for (const std::uint16_t port : ports)
      udp.try_send_to(port, wire::frame(wire::encode_end_marker(0)));
    ASSERT_TRUE(svc.await_dm_ends(1, 5s));
    ASSERT_TRUE(svc.await_idle(80ms, 5s));
    svc.drain();

    // The killed replica restarted once and demonstrably lost stream.
    EXPECT_EQ(svc.replica_restarts(1), 1u);
    std::vector<std::vector<Update>> journals = {svc.replica_journal(0),
                                                 svc.replica_journal(1)};
    ASSERT_EQ(journals[0].size(), trace.size())
        << "surviving replica must have seen the whole stream";
    EXPECT_LT(journals[1].size(), trace.size())
        << "killed replica must have missed its downtime window";
    EXPECT_GT(journals[1].size(), 0u);

    const std::vector<Alert> displayed = svc.displayed();
    ASSERT_FALSE(displayed.empty());

    check::SystemRun run;
    run.condition = cond;
    run.ce_inputs = journals;
    run.displayed = displayed;
    const check::PropertyReport replicated = check::check_run(run);
    const check::PropertyReport reference =
        reference_verdicts(cond, filter, trace);

    // The acceptance bar: replication + crash + recovery must be
    // invisible to the paper's exact property checkers.
    EXPECT_EQ(replicated.complete, reference.complete);
    EXPECT_EQ(replicated.consistent, reference.consistent);
    EXPECT_EQ(replicated.ordered, check::Verdict::kHolds);
    EXPECT_EQ(reference.ordered, check::Verdict::kHolds);
    // For a threshold condition both filters guarantee these outright.
    EXPECT_EQ(replicated.complete, check::Verdict::kHolds);
    EXPECT_EQ(replicated.consistent, check::Verdict::kHolds);

    std::filesystem::remove_all(cfg.data_dir);
  }
}

// ---- subscribers --------------------------------------------------------

TEST(AlertService, SubscriberReceivesEveryDisplayedAlertFramed) {
  ServiceConfig cfg;
  cfg.condition = threshold_condition();
  cfg.num_replicas = 1;
  cfg.filter = FilterKind::kAd1;
  cfg.data_dir = fresh_dir("subscriber");
  cfg.auto_restart = false;
  cfg.poll_interval = 5ms;
  AlertService svc{cfg};

  net::TcpStream sub = net::TcpStream::connect(svc.subscriber_port());
  // The acceptor polls at 50ms; wait until the service has the fan-out
  // registered before feeding, so no alert misses the subscriber.
  for (int i = 0; i < 100 && svc.status().subscribers == 0; ++i)
    std::this_thread::sleep_for(10ms);
  ASSERT_EQ(svc.status().subscribers, 1u);

  const std::vector<Update> trace = make_trace(20);
  const std::vector<std::uint16_t> ports = svc.replica_ports();
  net::UdpSocket udp{0};
  feed(udp, ports, trace);
  for (const std::uint16_t port : ports)
    udp.try_send_to(port, wire::frame(wire::encode_end_marker(0)));
  ASSERT_TRUE(svc.await_dm_ends(1, 5s));
  ASSERT_TRUE(svc.await_idle(80ms, 5s));
  svc.drain();  // closes subscriber connections -> EOF below

  const std::vector<Alert> displayed = svc.displayed();
  ASSERT_FALSE(displayed.empty());

  wire::FrameCursor cursor;
  std::vector<Alert> received;
  for (;;) {
    const auto chunk = sub.read_some(2s);
    ASSERT_TRUE(chunk.has_value()) << "subscriber read timed out";
    if (chunk->empty()) break;  // EOF
    cursor.feed(*chunk);
    while (auto payload = cursor.next())
      received.push_back(wire::decode_alert(*payload).alert);
  }
  ASSERT_EQ(received.size(), displayed.size());
  for (std::size_t i = 0; i < received.size(); ++i)
    EXPECT_EQ(received[i].key(), displayed[i].key());
}

// ---- durable END markers ------------------------------------------------

TEST(AlertService, EndMarkersSurviveWholeServiceRestart) {
  const auto dir = fresh_dir("ends");
  ServiceConfig cfg;
  cfg.condition = threshold_condition();
  cfg.num_replicas = 1;
  cfg.data_dir = dir;
  cfg.auto_restart = false;
  cfg.poll_interval = 5ms;
  {
    AlertService svc{cfg};
    net::UdpSocket udp{0};
    udp.try_send_to(svc.replica_port(0),
                    wire::frame(wire::encode_end_marker(0)));
    ASSERT_TRUE(svc.await_dm_ends(1, 5s));
    svc.drain();
  }
  AlertService revived{cfg};
  // Loaded from ends.log before any datagram arrives.
  EXPECT_TRUE(revived.await_dm_ends(1, 0ms));
  revived.drain();
  std::filesystem::remove_all(dir);
}

// ---- admin protocol over a live socket ----------------------------------

AdminResponse admin_exchange(net::TcpStream& conn, const AdminRequest& req) {
  conn.write_all(wire::frame(encode_admin_request(req)));
  wire::FrameCursor cursor;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    if (auto payload = cursor.next())
      return decode_admin_response(*payload);
    if (std::chrono::steady_clock::now() > deadline)
      throw std::runtime_error("admin response timed out");
    const auto chunk = conn.read_some(1s);
    if (chunk && chunk->empty())
      throw std::runtime_error("admin connection closed");
    if (chunk) cursor.feed(*chunk);
  }
}

TEST(AlertService, AdminProtocolDrivesReplicaLifecycle) {
  ServiceConfig cfg;
  cfg.condition = threshold_condition();
  cfg.num_replicas = 2;
  cfg.data_dir = fresh_dir("admin");
  cfg.auto_restart = false;
  cfg.poll_interval = 5ms;
  AlertService svc{cfg};

  net::TcpStream conn = net::TcpStream::connect(svc.admin_port());

  AdminResponse resp =
      admin_exchange(conn, AdminRequest{AdminCommand::kStatus, 0});
  ASSERT_TRUE(resp.ok);
  ASSERT_TRUE(resp.status.has_value());
  ASSERT_EQ(resp.status->replicas.size(), 2u);
  EXPECT_EQ(resp.status->replicas[0].state, ReplicaState::kRunning);
  EXPECT_EQ(resp.status->replicas[1].state, ReplicaState::kRunning);
  EXPECT_EQ(resp.status->replicas[0].port, svc.replica_port(0));
  EXPECT_EQ(resp.status->replicas[1].port, svc.replica_port(1));

  resp = admin_exchange(conn, AdminRequest{AdminCommand::kKill, 1});
  ASSERT_TRUE(resp.ok);
  resp = admin_exchange(conn, AdminRequest{AdminCommand::kStatus, 0});
  ASSERT_TRUE(resp.ok && resp.status);
  EXPECT_EQ(resp.status->replicas[1].state, ReplicaState::kDown);

  resp = admin_exchange(conn, AdminRequest{AdminCommand::kRestart, 1});
  ASSERT_TRUE(resp.ok);
  resp = admin_exchange(conn, AdminRequest{AdminCommand::kStatus, 0});
  ASSERT_TRUE(resp.ok && resp.status);
  EXPECT_EQ(resp.status->replicas[1].state, ReplicaState::kRunning);
  EXPECT_EQ(resp.status->replicas[1].incarnation, 2u);

  resp = admin_exchange(conn, AdminRequest{AdminCommand::kCheckpoint, 0});
  EXPECT_TRUE(resp.ok);

  // Out-of-range replica comes back as a protocol error, not a crash.
  resp = admin_exchange(conn, AdminRequest{AdminCommand::kKill, 9});
  EXPECT_FALSE(resp.ok);
  EXPECT_FALSE(resp.error.empty());

  EXPECT_FALSE(svc.drain_requested());
  resp = admin_exchange(conn, AdminRequest{AdminCommand::kDrain, 0});
  ASSERT_TRUE(resp.ok);
  EXPECT_TRUE(svc.await_drain_request(2s));
  svc.drain();
  std::filesystem::remove_all(cfg.data_dir);
}

// ---- live telemetry + alert provenance ----------------------------------

TEST(AlertService, MetricsTraceDumpAndProvenanceEndToEnd) {
  obs::trace::clear();
  obs::trace::set_enabled(true);

  ServiceConfig cfg;
  cfg.condition = threshold_condition();
  cfg.num_replicas = 1;
  cfg.filter = FilterKind::kAd1;
  cfg.data_dir = fresh_dir("telemetry");
  cfg.record_journal = true;
  cfg.auto_restart = false;
  cfg.poll_interval = 5ms;
  AlertService svc{cfg};

  // Feed with trace contexts attached, the way rcm_service_client does.
  const std::vector<Update> trace = make_trace(20);
  net::UdpSocket udp{0};
  const std::uint16_t port = svc.replica_port(0);
  for (const Update& u : trace) {
    const obs::trace::TraceContext ctx{
        obs::trace::derive_trace_id(u.var, u.seqno), 0};
    udp.try_send_to(port, wire::frame(wire::encode_update(u, ctx)));
  }
  udp.try_send_to(port, wire::frame(wire::encode_end_marker(0)));
  ASSERT_TRUE(svc.await_dm_ends(1, 5s));
  ASSERT_TRUE(svc.await_idle(80ms, 5s));

  // Live admin telemetry, queried before drain.
  net::TcpStream conn = net::TcpStream::connect(svc.admin_port());
  AdminResponse metrics =
      admin_exchange(conn, AdminRequest{AdminCommand::kMetrics, 0});
  ASSERT_TRUE(metrics.ok);
  ASSERT_TRUE(metrics.body.has_value());
  EXPECT_NE(metrics.body->find("\"counters\""), std::string::npos);
#if RCM_METRICS_ENABLED
  // Counter contents are compiled out under -DRCM_NO_METRICS; the doc
  // above must still be well-formed, which is all the no-metrics build
  // can promise.
  EXPECT_NE(metrics.body->find("service.wal.appends"), std::string::npos);
#endif

  AdminResponse dump =
      admin_exchange(conn, AdminRequest{AdminCommand::kTraceDump, 0});
  ASSERT_TRUE(dump.ok);
  ASSERT_TRUE(dump.body.has_value());
  EXPECT_NE(dump.body->find("\"traceEvents\""), std::string::npos);
#if RCM_TRACING_ENABLED
  // Every hop of the ingest→WAL→evaluate→filter→fan-out path shows up.
  for (const char* span : {"service.ingest", "wal.append", "ce.evaluate",
                           "ad.filter", "service.fanout"}) {
    EXPECT_NE(dump.body->find(span), std::string::npos)
        << "span missing from trace dump: " << span;
  }
#endif

  svc.drain();
  obs::trace::set_enabled(false);

  // Provenance: every emitted alert names the (var, seq) updates that
  // triggered it, the filter that judged it, and the verdict path.
  const std::vector<Alert> displayed = svc.displayed();
  ASSERT_FALSE(displayed.empty());
  const std::vector<AlertProvenance> prov = svc.provenance();
  ASSERT_GE(prov.size(), displayed.size());

  const std::vector<Update> journal = svc.replica_journal(0);
  std::size_t shown = 0;
  for (const AlertProvenance& p : prov) {
    EXPECT_EQ(p.filter, "AD-1");
    ASSERT_NE(p.reason, nullptr);
    EXPECT_NE(std::string_view{p.reason}, "");
    ASSERT_FALSE(p.triggers.empty());
    for (const auto& [var, seq] : p.triggers) {
      const bool journaled =
          std::any_of(journal.begin(), journal.end(), [&](const Update& u) {
            return u.var == var && u.seqno == seq;
          });
      EXPECT_TRUE(journaled)
          << "provenance trigger (" << var << ", " << seq
          << ") not in the accepted-update journal";
    }
    if (!p.displayed) continue;
    ASSERT_LT(shown, displayed.size());
    const Alert& a = displayed[shown];
    EXPECT_EQ(p.cond, a.cond);
    EXPECT_EQ(p.trace_id, a.trace_id);
#if RCM_TRACING_ENABLED
    EXPECT_NE(p.trace_id, 0u)
        << "fed with trace contexts, so the alert must carry one";
#endif
    ++shown;
  }
  EXPECT_EQ(shown, displayed.size());

  std::filesystem::remove_all(cfg.data_dir);
  obs::trace::clear();
}

// ---- duplicate-delivery idempotence -------------------------------------

TEST(AlertService, RestartedServiceDropsDuplicateStream) {
  const auto dir = fresh_dir("dup");
  ServiceConfig cfg;
  cfg.condition = threshold_condition();
  cfg.num_replicas = 1;
  cfg.data_dir = dir;
  cfg.record_journal = true;
  cfg.auto_restart = false;
  cfg.poll_interval = 5ms;
  const std::vector<Update> trace = make_trace(16);

  std::vector<Alert> first_displayed;
  {
    AlertService svc{cfg};
    net::UdpSocket udp{0};
    const std::vector<std::uint16_t> ports = svc.replica_ports();
    feed(udp, ports, trace);
    for (const std::uint16_t port : ports)
      udp.try_send_to(port, wire::frame(wire::encode_end_marker(0)));
    ASSERT_TRUE(svc.await_dm_ends(1, 5s));
    ASSERT_TRUE(svc.await_idle(80ms, 5s));
    svc.drain();
    first_displayed = svc.displayed();
    ASSERT_EQ(svc.replica_journal(0).size(), trace.size());
  }
  {
    // Same data dir: the durable watermarks must reject the entire
    // replayed stream, journaling nothing and displaying nothing new.
    AlertService svc{cfg};
    net::UdpSocket udp{0};
    feed(udp, svc.replica_ports(), trace);
    ASSERT_TRUE(svc.await_idle(80ms, 5s));
    svc.drain();
    EXPECT_TRUE(svc.displayed().empty());
    EXPECT_EQ(svc.replica_journal(0).size(), trace.size());
  }
  std::filesystem::remove_all(dir);
}

// ---- whole runs: service::run_trace -------------------------------------
//
// The property checkers over complete runs on real threads and loopback
// sockets, through the same AlertService users run. Two suites drive the
// one runner with different inputs: RunNetworked.* with random traces
// against a mid-range threshold, RunThreaded.* with the inputs of the
// former in-process runtime's tests (a scripted trace, a 3000-degree
// threshold, five AD-4 seeds).

constexpr VarId kX = 0;

ServiceConfig run_config(ConditionPtr cond, std::size_t replicas,
                         FilterKind filter) {
  ServiceConfig cfg;
  cfg.condition = std::move(cond);
  cfg.num_replicas = replicas;
  cfg.filter = filter;
  cfg.poll_interval = 5ms;
  return cfg;
}

trace::Trace uniform(VarId var, std::size_t count, std::uint64_t seed) {
  util::Rng rng{seed};
  trace::UniformParams p;
  p.base.var = var;
  p.base.count = count;
  p.lo = 0.0;
  p.hi = 100.0;
  return trace::uniform_trace(p, rng);
}

ConditionPtr hot() {
  return std::make_shared<const ThresholdCondition>("hot", kX, 55.0);
}

TEST(RunNetworked, ValidatesConfig) {
  const std::vector<trace::Trace> one_dm = {uniform(kX, 10, 1)};
  EXPECT_THROW((void)run_trace(ServiceConfig{}, one_dm, 0.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)run_trace(run_config(hot(), 0, FilterKind::kAd1),
                               one_dm, 0.0, 1),
               std::invalid_argument);
  EXPECT_THROW(
      (void)run_trace(run_config(hot(), 2, FilterKind::kAd1), {}, 0.0, 1),
      std::invalid_argument);
  // Two DMs minting seqnos for the same variable.
  EXPECT_THROW((void)run_trace(run_config(hot(), 2, FilterKind::kAd1),
                               {one_dm[0], one_dm[0]}, 0.0, 1),
               std::invalid_argument);
}

TEST(RunNetworked, LosslessRunMatchesReference) {
  const ConditionPtr cond = hot();
  const sim::RunResult r = run_trace(run_config(cond, 2, FilterKind::kAd1),
                                     {uniform(kX, 60, 2)}, 0.0, 2);
  EXPECT_EQ(r.front_messages_dropped, 0u);
  // Loopback UDP: both replicas journaled the whole stream, in order.
  ASSERT_EQ(r.ce_inputs.size(), 2u);
  for (const auto& journal : r.ce_inputs) EXPECT_EQ(journal, r.dm_emitted[0]);
  // Displayed key set == the single-CE reference (AD-1 dedups copies).
  std::set<AlertKey> displayed, expected;
  for (const Alert& a : r.displayed) displayed.insert(a.key());
  for (const Alert& a : evaluate_trace(cond, r.dm_emitted[0]))
    expected.insert(a.key());
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(displayed, expected);
  // Theorem 1 end to end, across real sockets.
  const auto report = check::check_run(r.as_system_run(cond));
  EXPECT_EQ(report.complete, check::Verdict::kHolds);
  EXPECT_EQ(report.consistent, check::Verdict::kHolds);
  EXPECT_EQ(report.ordered, check::Verdict::kHolds);
}

TEST(RunNetworked, InjectedLossDropsDatagrams) {
  const sim::RunResult r = run_trace(run_config(hot(), 3, FilterKind::kAd1),
                                     {uniform(kX, 200, 3)}, 0.3, 3);
  EXPECT_GT(r.front_messages_dropped, 50u);
  const auto emitted = project(std::span<const Update>{r.dm_emitted[0]}, kX);
  for (const auto& journal : r.ce_inputs) {
    const auto seqs = project(std::span<const Update>{journal}, kX);
    EXPECT_TRUE(is_subsequence(seqs, emitted));
    EXPECT_LT(seqs.size(), emitted.size());
  }
}

TEST(RunNetworked, Ad4GuaranteesHoldOverRealSockets) {
  const auto rise = std::make_shared<const RiseCondition>(
      "rise", kX, 10.0, Triggering::kAggressive);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const sim::RunResult r = run_trace(run_config(rise, 3, FilterKind::kAd4),
                                       {uniform(kX, 120, seed)}, 0.25, seed);
    EXPECT_TRUE(check::check_ordered(r.displayed, {kX})) << "seed " << seed;
    EXPECT_EQ(check::check_run(r.as_system_run(rise)).consistent,
              check::Verdict::kHolds)
        << "seed " << seed;
  }
}

TEST(RunNetworked, MultiDmMultiVariable) {
  const auto cm = std::make_shared<const AbsDiffCondition>("cm", 0, 1, 30.0);
  const sim::RunResult r =
      run_trace(run_config(cm, 2, FilterKind::kAd5),
                {uniform(0, 100, 7), uniform(1, 100, 8)}, 0.0, 7);
  ASSERT_EQ(r.dm_emitted.size(), 2u);
  EXPECT_FALSE(r.displayed.empty());
  EXPECT_TRUE(check::check_ordered(r.displayed, {0, 1}));  // Lemma 4
}

ConditionPtr overheat() {
  return std::make_shared<const ThresholdCondition>("hot", kX, 3000.0);
}

TEST(RunThreaded, ValidatesConfig) {
  const std::vector<trace::Trace> one_dm = {
      trace::scripted(kX, {{1, 2900.0}, {2, 3100.0}})};
  EXPECT_THROW((void)run_trace(ServiceConfig{}, one_dm, 0.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)run_trace(run_config(overheat(), 0, FilterKind::kAd1),
                               one_dm, 0.0, 1),
               std::invalid_argument);
}

TEST(RunThreaded, LosslessReplicatedIsCompleteAndConsistent) {
  const ConditionPtr cond = overheat();
  const sim::RunResult r = run_trace(
      run_config(cond, 2, FilterKind::kAd1),
      {trace::scripted(kX, {{1, 2900.0},
                            {2, 3100.0},
                            {3, 2950.0},
                            {4, 3200.0},
                            {5, 3050.0}})},
      0.0, 1);
  // Lossless: both replicas journaled all five updates.
  ASSERT_EQ(r.ce_inputs.size(), 2u);
  EXPECT_EQ(r.ce_inputs[0].size(), 5u);
  EXPECT_EQ(r.ce_inputs[1].size(), 5u);
  const auto report = check::check_run(r.as_system_run(cond));
  EXPECT_EQ(report.complete, check::Verdict::kHolds);
  EXPECT_EQ(report.consistent, check::Verdict::kHolds);
  EXPECT_EQ(report.ordered, check::Verdict::kHolds);  // Theorem 1
}

TEST(RunThreaded, LossyRunDeliversSubsequences) {
  util::Rng rng{9};
  trace::UniformParams p;
  p.base.var = kX;
  p.base.count = 200;
  p.lo = 2000.0;
  p.hi = 4000.0;
  const sim::RunResult r =
      run_trace(run_config(overheat(), 3, FilterKind::kAd1),
                {trace::uniform_trace(p, rng)}, 0.3, 9);
  EXPECT_GT(r.front_messages_dropped, 0u);
  const auto emitted = project(std::span<const Update>{r.dm_emitted[0]}, kX);
  for (const auto& journal : r.ce_inputs) {
    const auto seqs = project(std::span<const Update>{journal}, kX);
    EXPECT_TRUE(is_subsequence(seqs, emitted));
    EXPECT_LT(seqs.size(), emitted.size());
  }
}

TEST(RunThreaded, Ad4OutputIsOrderedAndConsistentUnderRealConcurrency) {
  // Stress: aggressive historical condition, heavy loss, three replicas,
  // real thread interleavings. AD-4's guarantees must hold in every run.
  const auto rise = std::make_shared<const RiseCondition>(
      "rise", kX, 10.0, Triggering::kAggressive);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const sim::RunResult r = run_trace(run_config(rise, 3, FilterKind::kAd4),
                                       {uniform(kX, 150, seed)}, 0.25, seed);
    EXPECT_TRUE(check::check_ordered(r.displayed, {kX})) << "seed " << seed;
    EXPECT_EQ(check::check_run(r.as_system_run(rise)).consistent,
              check::Verdict::kHolds)
        << "seed " << seed;
  }
}

TEST(RunThreaded, MultiVariableThreadedRun) {
  const auto cm = std::make_shared<const AbsDiffCondition>("cm", 0, 1, 30.0);
  util::Rng rng{11};
  trace::UniformParams px, py;
  px.base.var = 0;
  px.base.count = 100;
  px.lo = 0.0;
  px.hi = 100.0;
  py.base.var = 1;
  py.base.count = 100;
  py.lo = 0.0;
  py.hi = 100.0;
  trace::Trace tx = trace::uniform_trace(px, rng);
  trace::Trace ty = trace::uniform_trace(py, rng);
  const sim::RunResult r = run_trace(run_config(cm, 2, FilterKind::kAd5),
                                     {std::move(tx), std::move(ty)}, 0.0, 11);
  // AD-5 guarantees orderedness under any interleaving (Lemma 4).
  EXPECT_TRUE(check::check_ordered(r.displayed, {0, 1}));
}

}  // namespace
}  // namespace rcm::service
