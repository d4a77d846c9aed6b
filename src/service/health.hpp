// Instance health: the stall-watchdog policy, the dogfooded self-alarm,
// the health document's JSON rendering, and the Prometheus /metrics
// exporter.
//
// The shape follows FoundationDB's `status json`: a service answers an
// instance-scoped admin kHealth request with its own versioned
// wire::InstanceHealth document. There is one document per service;
// the retired cluster scope gets an error reply. scrape_instance_health
// fetches the document over TCP (the client and the fuzz health oracle
// use it).
//
// Dogfooding: the service's self-alarms (the watchdog's degraded alert,
// the session layer's lag alert) are SelfAlarms, which run through
// expr::compile_condition + ConditionEvaluator — the same machinery the
// service monitors for its users.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
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

/// One dogfooded self-alarm: a condition-language CE running
///
///   <cond>:  <var>[0] > <threshold>
///
/// over its own one-variable registry. Each feed() is one update with
/// the next sequence number. The alarm holds no latch: callers decide
/// when a value is worth feeding (on a change, once per excursion).
/// Thread-safe.
class SelfAlarm {
 public:
  SelfAlarm(std::string cond, const std::string& var, double threshold);

  /// Feeds `value` as the variable's next update. Returns the alert the
  /// CE raised, if any.
  std::optional<Alert> feed(double value);

  /// Alerts raised so far.
  [[nodiscard]] std::vector<Alert> emitted() const;

 private:
  mutable std::mutex mutex_;
  VariableRegistry vars_;
  VarId var_;
  ConditionEvaluator ce_;
  SeqNo seq_ = 0;
};

/// Fetches the instance health document over the admin protocol.
/// Returns nullopt on any failure within `timeout`.
[[nodiscard]] std::optional<wire::InstanceHealth> scrape_instance_health(
    std::uint16_t admin_port, std::chrono::milliseconds timeout);

/// JSON rendering of the instance health document (an object, no
/// trailing newline): the client's `health` output and the health block
/// of `status --json`.
[[nodiscard]] std::string instance_health_json(const wire::InstanceHealth& h);

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
