// Cluster-wide health: the stall-watchdog policy, the dogfooded
// "service is degraded" alert channel, the per-instance → cluster
// health-document aggregator, and the Prometheus /metrics exporter.
//
// The shape follows FoundationDB's `status json`: every instance can
// answer an instance-scoped admin kHealth request with its own versioned
// wire::InstanceHealth document, and a cluster-scoped one with the
// aggregate JSON document over the instances it knows — today only
// itself — with a top-level healthy verdict. scrape_instance_health
// fetches an instance-scoped document over TCP (the fuzz health oracle
// uses it).
//
// Dogfooding: the healthy/unhealthy verdict and the watchdog's degraded
// alert both run through expr::compile_condition + ConditionEvaluator —
// the same machinery the service monitors for its users (probe.hpp set
// the pattern).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "net/socket.hpp"
#include "wire/health.hpp"

namespace rcm::service {

/// Budgets the stall watchdog enforces. A heartbeat older than its
/// budget, or a WAL-append p99 above its budget, becomes a typed
/// wire::Degradation in the instance's health document.
struct WatchdogOptions {
  /// Replica-worker heartbeat: beaten every receive-poll iteration, so
  /// the budget must comfortably exceed ServiceConfig::poll_interval.
  /// The AD runs on the replica workers, so a stuck AD shows here too.
  std::chrono::milliseconds worker_heartbeat_budget{2000};
  /// Session event-loop tick budget (loop ticks at kLoopTick when idle).
  std::chrono::milliseconds session_tick_budget{2000};
  /// WAL-append p99 budget, seconds ("excessive flush latency").
  double wal_p99_budget = 0.25;
};

/// Dogfooded watchdog alert channel: degradation counts are fed as
/// updates into a condition-language CE running
///
///   service.watchdog.degraded:  watchdog_degradations[0] > 0
///
/// so "the monitor's own process is stalling" is itself an rcm alert.
/// Edge-triggered: a check is fed only when its degradation count
/// changed, so a persistent stall raises one alert, not one per tick.
class WatchdogAlerts {
 public:
  WatchdogAlerts();

  /// Feeds one watchdog check result. Returns the alert raised by the
  /// CE, if any. Thread-safe.
  std::optional<Alert> on_check(std::size_t degradations);

  /// Alerts raised so far.
  [[nodiscard]] std::vector<Alert> emitted() const;

 private:
  mutable std::mutex mutex_;
  VariableRegistry vars_;
  VarId var_ = 0;
  ConditionEvaluator ce_;
  SeqNo seq_ = 0;
  std::optional<std::size_t> last_count_;
};

/// One scraped instance: the admin port it was scraped on and its
/// document — nullopt when the scrape failed (connect/timeout/decode),
/// which the aggregator reports as a kUnreachable degradation.
using ScrapedInstance =
    std::pair<std::uint16_t, std::optional<wire::InstanceHealth>>;

/// Fetches one instance-scoped health document over the admin protocol.
/// Returns nullopt on any failure within `timeout`.
[[nodiscard]] std::optional<wire::InstanceHealth> scrape_instance_health(
    std::uint16_t admin_port, std::chrono::milliseconds timeout);

/// JSON rendering of one instance document (an object, no trailing
/// newline). Used both standalone (instance blocks of the cluster
/// document) and by the client's `status --json` health block.
[[nodiscard]] std::string instance_health_json(const wire::InstanceHealth& h);

/// Merges scraped instances into the cluster health JSON document:
///
///   {"healthy": bool, "instances": [...], "degradations": N,
///    "unreachable": N, "verdict_rule": "..."}
///
/// The healthy verdict is dogfooded: the total degradation count
/// (including one kUnreachable per failed scrape) is evaluated by a
/// compiled condition-language rule; healthy iff it raises no alert.
[[nodiscard]] std::string aggregate_health_json(
    std::span<const ScrapedInstance> instances);

/// Serves `GET /metrics` (Prometheus text exposition of the process
/// registry) on a loopback TCP port. One thread, one request per
/// connection, HTTP/1.0 close semantics — enough for a scraper.
class PromExporter {
 public:
  /// Binds immediately (port 0 = ephemeral); serving starts with
  /// start(). Throws if the port is taken.
  explicit PromExporter(std::uint16_t port);
  ~PromExporter();
  PromExporter(const PromExporter&) = delete;
  PromExporter& operator=(const PromExporter&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

 private:
  void serve();

  net::TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::mutex lifecycle_mutex_;
  bool running_ = false;
};

}  // namespace rcm::service
