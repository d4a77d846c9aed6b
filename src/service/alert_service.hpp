// rcm::service::AlertService — a long-running replicated alert service
// over the net/ substrate.
//
// Topology (one process, threads as actors):
//
//   DM streams ──UDP──▶ replica worker 0..N-1 ──▶ AD filter + fan-out
//     (unbounded)        (DurableReplica each)     (on the raising worker,
//                                                   under display_mutex_)
//                                                         │
//   subscribers ◀──TCP── framed alerts ◀──────────────────┘
//   admin tool  ◀──TCP── framed admin protocol (service/admin.hpp)
//
// The AD runs on whichever replica worker raised the alert: the filter
// verdict and the session publish happen under display_mutex_, so the
// session log's order is displayed()'s order. Lock order:
// display_mutex_ → SessionManager's internal mutex (publish); nothing
// takes them the other way round. A stuck AD holds display_mutex_, so it
// stalls the replica workers and surfaces as their stale heartbeats.
//
// Each replica worker owns a DurableReplica (checkpoint + WAL, see
// durable_replica.hpp) and a UDP socket on a port that stays stable
// across restarts, so data managers never re-discover endpoints. A kill
// models a crash: the worker exits without a final checkpoint, its
// socket closes (datagrams sent while down are lost — the paper's lossy
// front link), and its volatile evaluator state is gone. On restart the
// new incarnation recovers checkpoint + WAL, and its durable last-seen
// watermarks make live catch-up safe: replayed state rejects everything
// it already incorporated, so rejoin never violates the AD filter
// guarantees (the filter only ever sees alert streams that are T of
// some update subsequence).
//
// Restarts are driven by a monitor thread using ReplicaSupervisor's
// exponential backoff (admin restart skips the backoff). END-of-stream
// markers from data managers are recorded durably (ends.log) and
// idempotently, so a replica restarted after a DM finished still knows
// the stream ended and drain does not hang.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/condition.hpp"
#include "core/displayer.hpp"
#include "core/filters.hpp"
#include "net/socket.hpp"
#include "service/admin.hpp"
#include "service/durable_replica.hpp"
#include "service/health.hpp"
#include "service/session.hpp"
#include "service/supervisor.hpp"
#include "wire/codec.hpp"
#include "wire/health.hpp"

namespace rcm::service {

/// Configuration of one alert service instance.
struct ServiceConfig {
  ConditionPtr condition;            ///< required
  std::size_t num_replicas = 2;
  FilterKind filter = FilterKind::kAd1;
  std::filesystem::path data_dir;    ///< required; created if missing

  std::size_t checkpoint_every = 256;  ///< see DurabilityOptions
  bool record_journal = false;         ///< see DurabilityOptions

  /// Stall-watchdog budgets (service/health.hpp). Degradations surface
  /// in the instance health document and through the dogfooded
  /// `service.watchdog.degraded` condition-language alert.
  WatchdogOptions watchdog;

  /// Monitor thread restarts crashed/killed replicas after backoff.
  /// Turn off for tests that want manual kill/restart control.
  bool auto_restart = true;
  BackoffPolicy backoff;

  wire::AlertEncoding subscriber_encoding =
      wire::AlertEncoding::kFullHistories;

  /// Bounds/budgets of the durable subscriber-session layer
  /// (service/session.hpp): backlog before eviction, in-memory replay
  /// window, lag-alert budget.
  SessionLimits session_limits;

  /// Worker receive timeout: bounds kill/checkpoint reaction latency.
  std::chrono::milliseconds poll_interval{20};
};

/// The service. Thread-safe public interface; owns all worker threads.
/// The destructor drains.
class AlertService {
 public:
  explicit AlertService(ServiceConfig config);
  ~AlertService();
  AlertService(const AlertService&) = delete;
  AlertService& operator=(const AlertService&) = delete;

  // ---- endpoints -------------------------------------------------------
  /// UDP ingest port of replica `i` (stable across restarts).
  [[nodiscard]] std::uint16_t replica_port(std::size_t i) const;
  [[nodiscard]] std::vector<std::uint16_t> replica_ports() const;
  /// TCP port alert subscribers connect to.
  [[nodiscard]] std::uint16_t subscriber_port() const noexcept;
  /// TCP port the admin protocol is served on.
  [[nodiscard]] std::uint16_t admin_port() const noexcept;

  // ---- replica lifecycle ----------------------------------------------
  /// Crashes replica `i`: stops its worker WITHOUT a final checkpoint and
  /// joins it. Blocks until the worker has exited (its socket is closed,
  /// so subsequent datagrams are dropped). With auto_restart the monitor
  /// brings it back after the supervisor's backoff delay.
  void kill_replica(std::size_t i);

  /// Restarts a down replica immediately, skipping any pending backoff.
  /// No-op if the replica is running.
  void restart_replica(std::size_t i);

  /// Asks replica `i`'s worker to checkpoint between datagrams (async;
  /// takes effect within ~poll_interval).
  void request_checkpoint(std::size_t i);

  // ---- service lifecycle ----------------------------------------------
  [[nodiscard]] ServiceStatus status();

  // ---- health ----------------------------------------------------------
  /// This instance's health document: role, per-replica liveness +
  /// heartbeat ages, sampler rates, session lag, and the watchdog's
  /// currently-active degradations. healthy iff no degradation.
  [[nodiscard]] wire::InstanceHealth instance_health();

  /// Alerts raised so far by the dogfooded watchdog CE
  /// (`service.watchdog.degraded`).
  [[nodiscard]] std::vector<Alert> watchdog_alerts() const {
    return watchdog_alarm_.emitted();
  }

  /// Graceful shutdown: stops ingest (each live worker takes a final
  /// checkpoint; every alert it raised has already been through the
  /// filter and fan-out), closes subscriber connections, stops all
  /// threads. Idempotent.
  void drain();

  /// True once an admin kDrain request has been received. The process
  /// hosting the service (rcm_service main) polls/awaits this and then
  /// calls drain() — the admin thread cannot drain synchronously because
  /// drain() joins it.
  [[nodiscard]] bool drain_requested() const noexcept;
  bool await_drain_request(std::chrono::milliseconds timeout);

  // ---- stream bookkeeping ---------------------------------------------
  /// Waits until at least `count` distinct DM END markers have been seen
  /// (across restarts — the set is durable). False on timeout.
  bool await_dm_ends(std::size_t count, std::chrono::milliseconds timeout);

  /// Waits until no datagram was ingested and no alert displayed for a
  /// contiguous `idle` window. False if `timeout` elapses first.
  bool await_idle(std::chrono::milliseconds idle,
                  std::chrono::milliseconds timeout);

  // ---- instrumentation (tests / checkers) ------------------------------
  /// Snapshot of the displayed-alert sequence so far.
  [[nodiscard]] std::vector<Alert> displayed() const;
  /// Snapshot of every alert that reached the AD, shown or suppressed.
  [[nodiscard]] std::vector<Alert> arrived() const;
  /// Snapshot of the AD provenance records so far (one per arrival:
  /// triggering (var, seq) updates, judging filter, verdict + reason).
  [[nodiscard]] std::vector<AlertProvenance> provenance() const;
  /// Replica `i`'s full accepted-update journal across incarnations
  /// (requires record_journal).
  [[nodiscard]] std::vector<Update> replica_journal(std::size_t i) const;
  /// Restarts performed for replica `i` (supervisor + admin).
  [[nodiscard]] std::size_t replica_restarts(std::size_t i) const;

  /// The durable subscriber-session layer: cursors, replay, lag alerts.
  [[nodiscard]] SessionManager& session_manager() noexcept {
    return *sessions_;
  }
  [[nodiscard]] const SessionManager& session_manager() const noexcept {
    return *sessions_;
  }

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct WorkerControl {
    std::atomic<bool> stop{false};
    std::atomic<bool> graceful{false};  ///< checkpoint before exiting
    std::atomic<bool> checkpoint_requested{false};
  };

  struct ReplicaSlot {
    std::uint16_t port = 0;
    /// Socket pre-bound by the constructor for the first incarnation;
    /// later incarnations re-bind `port` themselves.
    std::unique_ptr<net::UdpSocket> pending_socket;
    std::thread thread;
    std::shared_ptr<WorkerControl> ctl;
    bool up = false;  ///< worker started and not yet joined
    std::chrono::steady_clock::time_point up_since{};
    std::chrono::steady_clock::time_point restart_at{};
    std::uint64_t incarnations = 0;
    std::atomic<bool> failed{false};  ///< worker exited on its own
    // Live mirrors the worker publishes for status().
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> wal_records{0};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<std::uint64_t> recovered_wal{0};
    /// steady_clock ns of the worker's latest receive-poll iteration;
    /// the stall watchdog ages it. 0 until the incarnation's first loop.
    std::atomic<std::uint64_t> heartbeat_ns{0};
  };

  void worker_loop(std::size_t index, std::shared_ptr<WorkerControl> ctl,
                   std::unique_ptr<net::UdpSocket> socket);
  /// Runs one raised alert through the AD filter and, if shown, the
  /// fan-out. Called on the raising replica worker. Aborts the process
  /// if a shown alert cannot be published (alert log write failure).
  void display(const Alert& a);
  void fanout(const Alert& a);
  void acceptor_loop();
  void admin_loop();
  void serve_admin(net::TcpStream& conn);
  [[nodiscard]] AdminResponse dispatch_admin(
      std::span<const std::uint8_t> payload);
  [[nodiscard]] std::string sessions_json() const;
  void monitor_loop();
  /// Evaluates the stall-watchdog policy now (replica/session
  /// heartbeats, WAL p99) and returns the active degradations.
  [[nodiscard]] std::vector<wire::Degradation> collect_degradations();

  /// Starts a new incarnation of replica `i`. Caller holds lifecycle_mutex_.
  void start_worker_locked(std::size_t i);
  /// Stops and joins replica `i`'s worker. Caller holds lifecycle_mutex_.
  void stop_worker_locked(std::size_t i, bool graceful);

  void note_dm_end(std::size_t dm);
  void load_dm_ends();
  [[nodiscard]] std::filesystem::path ends_path() const;
  [[nodiscard]] DurabilityOptions durability_options() const;
  [[nodiscard]] std::uint64_t activity_counter() const;

  ServiceConfig config_;

  // Lifecycle of replica workers + the monitor's restart schedule.
  mutable std::mutex lifecycle_mutex_;
  std::vector<std::unique_ptr<ReplicaSlot>> slots_;
  ReplicaSupervisor supervisor_;

  /// Serializes the AD across replica workers; taken before the session
  /// layer's mutex (see the lock order above).
  mutable std::mutex display_mutex_;
  AlertDisplayer displayer_;
  std::atomic<std::uint64_t> displayed_count_{0};

  net::TcpListener sub_listener_;
  std::unique_ptr<SessionManager> sessions_;

  net::TcpListener admin_listener_;
  /// Admin connections are served one thread each, so a client holding
  /// a connection open never delays another client's exchange (a health
  /// scrape, a kill).
  std::mutex admin_conns_mutex_;
  std::vector<std::thread> admin_conn_threads_;

  std::chrono::steady_clock::time_point started_at_{
      std::chrono::steady_clock::now()};
  /// Fed by the monitor loop when the degradation count changes, so a
  /// persistent stall raises one alert, not one per check.
  SelfAlarm watchdog_alarm_{"service.watchdog.degraded",
                            "watchdog_degradations", 0.0};

  // Durable, idempotent END-marker set.
  mutable std::mutex ends_mutex_;
  std::condition_variable ends_cv_;
  std::set<std::size_t> dm_ends_;
  std::ofstream ends_out_;

  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  std::atomic<bool> drain_requested_{false};
  std::mutex drain_request_mutex_;
  std::condition_variable drain_request_cv_;

  std::mutex drain_mutex_;
  bool drain_done_ = false;

  std::thread acceptor_thread_;
  std::thread admin_thread_;
  std::thread monitor_thread_;
};

}  // namespace rcm::service
