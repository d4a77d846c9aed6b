// Cluster-wide health: the versioned InstanceHealth wire codec, the
// time-series sampler's windowed rates, the stall watchdog's dogfooded
// alert channel, health-document aggregation (including unreachable
// peers), Prometheus text exposition, and the live admin kHealth /
// kMetricsProm path against a real AlertService.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "service/admin.hpp"
#include "service/alert_service.hpp"
#include "service/health.hpp"
#include "swarm/spec.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/health.hpp"

namespace rcm {
namespace {

using namespace std::chrono_literals;

wire::InstanceHealth sample_doc() {
  wire::InstanceHealth h;
  h.role = wire::InstanceRole::kShard;
  h.shard_id = 3;
  h.epoch = 9;
  h.healthy = false;
  h.uptime_ns = 123456789;
  h.sessions = 2;
  h.max_session_lag = 17;
  h.alert_queue_depth = 4;
  h.replicas.push_back(wire::ReplicaHealth{0, true, 1, 1500000, 40, 41});
  h.replicas.push_back(wire::ReplicaHealth{1, false, 3, 0, 12, 13});
  h.rates.push_back(
      wire::RateSample{"service.ingest.datagrams", 120.5, 60.25, 12.0});
  h.degradations.push_back(wire::Degradation{
      wire::DegradationKind::kReplicaDown, "replica 1 down", 1});
  h.degradations.push_back(wire::Degradation{
      wire::DegradationKind::kWalFlushSlow, "p99 over budget", 310000});
  return h;
}

// ---- wire codec ---------------------------------------------------------

TEST(HealthWireTest, RoundTripFullDocument) {
  wire::InstanceHealth h = sample_doc();
  const auto bytes = wire::encode_instance_health(h);
  const wire::InstanceHealth back = wire::decode_instance_health(bytes);
  EXPECT_EQ(back, h);

  // Decode-only kind: written by services that ran the AD behind a queue.
  h.degradations.push_back(wire::Degradation{
      wire::DegradationKind::kAdStalled, "alert displayer stalled", 2500});
  EXPECT_EQ(wire::decode_instance_health(wire::encode_instance_health(h)), h);
}

TEST(HealthWireTest, RoundTripDefaultDocument) {
  const wire::InstanceHealth h;
  const wire::InstanceHealth back =
      wire::decode_instance_health(wire::encode_instance_health(h));
  EXPECT_EQ(back, h);
  EXPECT_EQ(back.role, wire::InstanceRole::kStandalone);
  EXPECT_TRUE(back.replicas.empty());
}

TEST(HealthWireTest, EveryTruncationThrowsCleanly) {
  const auto bytes = wire::encode_instance_health(sample_doc());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        wire::decode_instance_health(std::span{bytes.data(), len}),
        wire::DecodeError)
        << "prefix of length " << len << " must not decode";
  }
}

TEST(HealthWireTest, RejectsUnknownRoleAndKind) {
  auto bytes = wire::encode_instance_health(sample_doc());
  // Layout: tag, version major, version minor, role.
  auto bad_role = bytes;
  bad_role[3] = 0x7f;
  EXPECT_THROW(wire::decode_instance_health(bad_role), wire::DecodeError);
}

TEST(HealthWireTest, RejectsFutureMajor) {
  auto bytes = wire::encode_instance_health(sample_doc());
  bytes[1] = static_cast<std::uint8_t>(wire::kHealthMaxMajor + 1);
  EXPECT_THROW(wire::decode_instance_health(bytes),
               wire::UnsupportedVersion);
}

TEST(HealthWireTest, DegradationKindNamesAreStable) {
  // These strings are part of the JSON schema operators scrape; renames
  // are format breaks.
  EXPECT_STREQ(
      wire::degradation_kind_name(wire::DegradationKind::kReplicaDown),
      "replica_down");
  EXPECT_STREQ(
      wire::degradation_kind_name(wire::DegradationKind::kAdStalled),
      "ad_stalled");
  EXPECT_STREQ(
      wire::degradation_kind_name(wire::DegradationKind::kUnreachable),
      "unreachable");
}

// ---- time-series sampler ------------------------------------------------

#if RCM_METRICS_ENABLED
TEST(TimeSeriesSamplerTest, WindowedRateFromManualSamples) {
  obs::TimeSeriesSampler sampler;
  obs::Counter& c = obs::registry().counter("health_test.rate_counter");
  sampler.sample_now();
  std::this_thread::sleep_for(30ms);
  c.inc(300);
  sampler.sample_now();

  const double r = sampler.rate("health_test.rate_counter", 10s);
  // 300 events over ~30ms: anywhere in (300/10s, 300/1ms) is sane; the
  // point is that it is the *windowed* rate, not zero and not the total.
  EXPECT_GT(r, 30.0);
  EXPECT_LT(r, 300000.0);
  EXPECT_GE(sampler.latest("health_test.rate_counter"), 300u);
  EXPECT_EQ(sampler.samples_taken(), 2u);
}

TEST(TimeSeriesSamplerTest, UnknownAndSingleSampleNamesReportZero) {
  obs::TimeSeriesSampler sampler;
  EXPECT_EQ(sampler.rate("health_test.never_registered", 10s), 0.0);
  obs::registry().counter("health_test.single_sample").inc(5);
  sampler.sample_now();
  EXPECT_EQ(sampler.rate("health_test.single_sample", 10s), 0.0);
}

TEST(TimeSeriesSamplerTest, BackgroundThreadSamplesAndStopsIdempotently) {
  obs::TimeSeriesSampler::Options opts;
  opts.interval = 5ms;
  obs::TimeSeriesSampler sampler{opts};
  sampler.start();
  sampler.start();  // idempotent
  std::this_thread::sleep_for(40ms);
  sampler.stop();
  sampler.stop();  // idempotent
  EXPECT_GE(sampler.samples_taken(), 2u);
  const std::uint64_t frozen = sampler.samples_taken();
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sampler.samples_taken(), frozen) << "stop() must stop sampling";
}

TEST(TimeSeriesSamplerTest, SnapshotJsonIsWellFormed) {
  obs::TimeSeriesSampler sampler;
  obs::registry().counter("health_test.snapshot_counter").inc(1);
  sampler.sample_now();
  const std::string json = sampler.snapshot_json();
  EXPECT_NE(json.find("\"interval_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"health_test.snapshot_counter\""),
            std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ---- snapshot_json escaping (regression) --------------------------------

TEST(MetricsEscapeTest, SnapshotJsonEscapesHostileNames) {
  // Metric names are free-form strings; a quote or backslash in one must
  // not corrupt the JSON document.
  obs::registry().counter("health_test.\"quoted\\name\nx").inc();
  const std::string json = obs::registry().snapshot_json();
  EXPECT_NE(json.find("health_test.\\\"quoted\\\\name\\nx"),
            std::string::npos)
      << "hostile name must appear escaped, got: " << json;
}
#endif  // RCM_METRICS_ENABLED

// ---- watchdog alert channel ---------------------------------------------

TEST(WatchdogAlertsTest, EdgeTriggeredOnDegradationCountChanges) {
  service::WatchdogAlerts wd;
  EXPECT_FALSE(wd.on_check(0).has_value());
  const auto first = wd.on_check(2);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->cond, "service.watchdog.degraded");
  EXPECT_FALSE(wd.on_check(2).has_value()) << "same count: edge-triggered";
  EXPECT_FALSE(wd.on_check(0).has_value()) << "recovery raises nothing";
  EXPECT_TRUE(wd.on_check(1).has_value()) << "a fresh stall re-raises";
  EXPECT_EQ(wd.emitted().size(), 2u);
}

// ---- aggregation ---------------------------------------------------------

TEST(HealthAggregateTest, AllHealthyInstancesMakeAHealthyCluster) {
  wire::InstanceHealth a;
  a.healthy = true;
  wire::InstanceHealth b = a;
  b.role = wire::InstanceRole::kMerge;
  const std::vector<service::ScrapedInstance> scraped = {{7001, a},
                                                         {7002, b}};
  const std::string json = service::aggregate_health_json(scraped);
  EXPECT_NE(json.find("\"healthy\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"unreachable\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"degradations\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"admin_port\": 7001"), std::string::npos) << json;
  EXPECT_NE(json.find("\"role\": \"merge\""), std::string::npos) << json;
}

TEST(HealthAggregateTest, UnreachablePeerDegradesTheCluster) {
  wire::InstanceHealth a;
  a.healthy = true;
  const std::vector<service::ScrapedInstance> scraped = {
      {7001, a}, {7002, std::nullopt}};
  const std::string json = service::aggregate_health_json(scraped);
  EXPECT_NE(json.find("\"healthy\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"unreachable\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"health\": null"), std::string::npos) << json;
}

TEST(HealthAggregateTest, InstanceDegradationsCountTowardTheVerdict) {
  const std::vector<service::ScrapedInstance> scraped = {
      {7001, sample_doc()}};
  const std::string json = service::aggregate_health_json(scraped);
  EXPECT_NE(json.find("\"healthy\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"degradations\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("replica_down"), std::string::npos) << json;
}

// ---- Prometheus exposition ----------------------------------------------

// One line of exposition: `# TYPE name kind`, or `name value`, or
// `name{label="v"} value`. Metric-name characters are [a-zA-Z0-9_:].
void expect_prom_line_sane(const std::string& line) {
  if (line.empty()) return;
  if (line.rfind("# TYPE ", 0) == 0) return;
  const std::size_t space = line.rfind(' ');
  ASSERT_NE(space, std::string::npos) << "no value separator: " << line;
  std::string series = line.substr(0, space);
  const std::size_t brace = series.find('{');
  if (brace != std::string::npos) {
    ASSERT_EQ(series.back(), '}') << line;
    series = series.substr(0, brace);
  }
  ASSERT_FALSE(series.empty()) << line;
  for (const char c : series) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    ASSERT_TRUE(ok) << "bad metric-name char '" << c << "' in: " << line;
  }
  const std::string value = line.substr(space + 1);
  ASSERT_FALSE(value.empty()) << line;
}

TEST(PrometheusTest, SnapshotPassesPerLineFormatSanity) {
#if RCM_METRICS_ENABLED
  obs::registry().counter("health_test.prom ok\"name").inc();
  obs::registry()
      .histogram("health_test.prom_hist", {0.1, 1.0})
      .record(0.5);
#endif
  const std::string text = obs::registry().snapshot_prometheus();
  std::istringstream lines{text};
  std::string line;
  std::size_t checked = 0;
  while (std::getline(lines, line)) {
    expect_prom_line_sane(line);
    ++checked;
  }
#if RCM_METRICS_ENABLED
  EXPECT_GT(checked, 0u);
  EXPECT_NE(text.find("health_test.prom") == std::string::npos
                ? text.find("health_test_prom")
                : 0,
            std::string::npos)
      << "hostile name must be sanitized into the exposition";
  EXPECT_NE(text.find("health_test_prom_hist_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
#else
  EXPECT_TRUE(text.empty()) << "no-metrics build exposes nothing";
#endif
}

TEST(PrometheusTest, ExporterServesGetMetrics) {
  // ctest runs each test in a fresh process; make sure the registry has
  // at least one series so the body carries a # TYPE line to find.
  RCM_COUNT("health_test.exporter_probe");
  service::PromExporter exporter{0};
  exporter.start();
  ASSERT_NE(exporter.port(), 0);

  net::TcpStream conn = net::TcpStream::connect(exporter.port());
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  conn.write_all(std::span{
      reinterpret_cast<const std::uint8_t*>(get.data()), get.size()});
  std::string resp;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    auto bytes = conn.read_some(100ms);
    if (!bytes) continue;
    if (bytes->empty()) break;  // server closed: full response received
    resp.append(reinterpret_cast<const char*>(bytes->data()),
                bytes->size());
  }
  exporter.stop();
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
#if RCM_METRICS_ENABLED
  EXPECT_NE(resp.find("# TYPE"), std::string::npos);
#endif
}

// ---- live admin path ----------------------------------------------------

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("rcm_health_" + name);
  std::filesystem::remove_all(dir);
  return dir;  // the service creates it
}

service::AdminResponse admin_exchange(std::uint16_t port,
                                      const service::AdminRequest& req) {
  net::TcpStream conn = net::TcpStream::connect(port);
  conn.write_all(wire::frame(service::encode_admin_request(req)));
  wire::FrameCursor cursor;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    auto bytes = conn.read_some(50ms);
    if (!bytes) continue;
    if (bytes->empty()) break;
    cursor.feed(*bytes);
    if (auto payload = cursor.next())
      return service::decode_admin_response(*payload);
  }
  throw std::runtime_error("admin response timed out");
}

TEST(AdminHealthTest, InstanceScopeReportsKillAndRecovery) {
  service::ServiceConfig cfg;
  cfg.condition = swarm::build_condition(swarm::ConditionKind::kThreshold,
                                         50.0);
  cfg.num_replicas = 2;
  cfg.data_dir = fresh_dir("admin_instance");
  cfg.auto_restart = false;
  cfg.poll_interval = 5ms;
  service::AlertService svc{cfg};

  auto doc = service::scrape_instance_health(svc.admin_port(), 2000ms);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->role, wire::InstanceRole::kStandalone);
  EXPECT_EQ(doc->replicas.size(), 2u);
  EXPECT_TRUE(doc->healthy);
  EXPECT_TRUE(doc->degradations.empty());
  EXPECT_FALSE(doc->rates.empty()) << "rate names ride even when zero";
  EXPECT_EQ(doc->alert_queue_depth, 0u) << "reserved slot: the AD has no queue";

  svc.kill_replica(1);
  doc = service::scrape_instance_health(svc.admin_port(), 2000ms);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->healthy);
  ASSERT_EQ(doc->degradations.size(), 1u);
  EXPECT_EQ(doc->degradations[0].kind,
            wire::DegradationKind::kReplicaDown);
  EXPECT_FALSE(doc->replicas[1].up);

  svc.restart_replica(1);
  doc = service::scrape_instance_health(svc.admin_port(), 2000ms);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->healthy) << "restart must clear the degradation";
  svc.drain();
}

TEST(AdminHealthTest, ClusterScopeReturnsAggregatedJson) {
  service::ServiceConfig cfg;
  cfg.condition = swarm::build_condition(swarm::ConditionKind::kThreshold,
                                         50.0);
  cfg.num_replicas = 1;
  cfg.data_dir = fresh_dir("admin_cluster");
  cfg.poll_interval = 5ms;
  service::AlertService svc{cfg};

  service::AdminRequest req;
  req.command = service::AdminCommand::kHealth;  // default: cluster scope
  const service::AdminResponse resp = admin_exchange(svc.admin_port(), req);
  ASSERT_TRUE(resp.ok) << resp.error;
  ASSERT_TRUE(resp.body.has_value());
  EXPECT_NE(resp.body->find("\"healthy\": true"), std::string::npos)
      << *resp.body;
  EXPECT_NE(resp.body->find("\"instances\": ["), std::string::npos);
  EXPECT_NE(resp.body->find("\"verdict_rule\""), std::string::npos);
  EXPECT_NE(resp.body->find(
                "\"admin_port\": " + std::to_string(svc.admin_port())),
            std::string::npos)
      << "a cluster-scoped request aggregates the instance itself";
  svc.drain();
}

TEST(AdminHealthTest, MetricsPromAndEmptyDocsAreWellFormed) {
  service::ServiceConfig cfg;
  cfg.condition = swarm::build_condition(swarm::ConditionKind::kThreshold,
                                         50.0);
  cfg.num_replicas = 1;
  cfg.data_dir = fresh_dir("admin_prom");
  cfg.poll_interval = 5ms;
  service::AlertService svc{cfg};

  service::AdminRequest prom;
  prom.command = service::AdminCommand::kMetricsProm;
  const service::AdminResponse presp = admin_exchange(svc.admin_port(), prom);
  ASSERT_TRUE(presp.ok) << presp.error;
  ASSERT_TRUE(presp.body.has_value());
  {
    std::istringstream lines{*presp.body};
    std::string line;
    while (std::getline(lines, line)) expect_prom_line_sane(line);
  }
#if RCM_METRICS_ENABLED
  EXPECT_NE(presp.body->find("# TYPE"), std::string::npos);
#endif

  // `metrics` (JSON) must be a well-formed document in every build —
  // under -DRCM_NO_METRICS it is simply empty of series.
  service::AdminRequest met;
  met.command = service::AdminCommand::kMetrics;
  const service::AdminResponse mresp = admin_exchange(svc.admin_port(), met);
  ASSERT_TRUE(mresp.ok);
  ASSERT_TRUE(mresp.body.has_value());
  EXPECT_EQ(mresp.body->front(), '{');

  // Same contract for `trace-dump`: a well-formed (possibly span-free)
  // Chrome trace document in every build, never an error.
  service::AdminRequest dump;
  dump.command = service::AdminCommand::kTraceDump;
  const service::AdminResponse dresp = admin_exchange(svc.admin_port(), dump);
  ASSERT_TRUE(dresp.ok) << dresp.error;
  ASSERT_TRUE(dresp.body.has_value());
  EXPECT_EQ(dresp.body->front(), '{');
  EXPECT_NE(dresp.body->find("\"traceEvents\""), std::string::npos);
  svc.drain();
}

TEST(AdminHealthTest, ConcurrentAdminConnectionsAreServed) {
  // The aggregation path depends on the admin loop serving connections
  // concurrently (a cluster-scoped request scrapes peers while its own
  // connection is held open). Pin the thread-per-connection behavior: a
  // stalled half-open connection must not block a second client.
  service::ServiceConfig cfg;
  cfg.condition = swarm::build_condition(swarm::ConditionKind::kThreshold,
                                         50.0);
  cfg.num_replicas = 1;
  cfg.data_dir = fresh_dir("admin_concurrent");
  cfg.poll_interval = 5ms;
  service::AlertService svc{cfg};

  // Idle connection that never sends a request.
  net::TcpStream idle = net::TcpStream::connect(svc.admin_port());
  const auto doc = service::scrape_instance_health(svc.admin_port(), 2000ms);
  EXPECT_TRUE(doc.has_value())
      << "second admin connection must be served while the first idles";
  svc.drain();
}

}  // namespace
}  // namespace rcm
