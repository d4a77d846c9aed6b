// rcm::service::SessionManager — the durable session layer behind the
// alert service's subscriber fan-out, modeled on BDR replication slots.
//
// Every AD-accepted alert is durably appended to a versioned alert log
// (store/file_log.hpp record format, data_dir/alerts.log) and buffered
// in a bounded in-memory retention window of pre-encoded wire bytes.
// Each subscriber session owns a durable cursor (session id → last-acked
// index, data_dir/cursors.log, wire/session.hpp format): a reconnecting
// subscriber presents its id + first wanted index and gets exact,
// gap-free replay from the window before rejoining the live stream.
//
// Fan-out is one readiness-driven event-loop thread over non-blocking
// sockets: publish() (called by the AD, on the replica worker that raised
// the alert) only appends to the log and wakes the loop, so one stalled
// TCP peer can never stall the AD or any other session. Per-session send state is a cursor into the shared
// window plus a frame-aligned partial-write buffer, so a torn frame on a
// dying connection consumes nothing: the session's last fully-framed
// index is recorded and replay after reconnect is exact.
//
// Slow consumers are bounded, observable, and never silently dropped:
//   - backlog (entries not yet handed to the kernel) beyond
//     `max_backlog`, or a send cursor that falls out of the retention
//     window, triggers deterministic evict-and-mark — the peer gets a
//     typed 'E' evicted notice and the durable cursor is marked;
//   - an evicted (or window-outrun) session that reconnects gets a
//     typed SessionTruncated welcome naming the exact lost range;
//   - per-session lag (log end − acked) feeds the
//     `service.session.lag` histogram, and crossing `lag_alert_budget`
//     raises a condition-language alert (`service.session.lag_exceeded`,
//     dogfooded through a SelfAlarm, service/health.hpp).
//
// Legacy compatibility: a connection that never sends a session hello is
// served the pre-session protocol — plain framed alerts from its
// adoption point, byte-identical to the cursorless subscriber stream.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/alert.hpp"
#include "net/socket.hpp"
#include "service/health.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/session.hpp"

namespace rcm::service {

/// Bounds and budgets of the session layer.
struct SessionLimits {
  /// Entries a connected session may leave unsent before eviction.
  std::size_t max_backlog = 4096;
  /// Log entries kept replayable in memory (floored to cover
  /// max_backlog; the durable log keeps everything).
  std::size_t retention = 8192;
  /// Lag (log end − acked) at which the dogfooded condition-language
  /// alert fires for a session; 0 disables the alert.
  std::uint64_t lag_alert_budget = 2048;
};

/// Point-in-time view of one session, for admin/status.
struct SessionInfo {
  std::string id;
  std::uint64_t acked = 0;    ///< durable cursor: entries [0, acked) acked
  std::uint64_t framed = 0;   ///< entries [0, framed) fully written to a peer
  std::uint64_t lag = 0;      ///< log_end − acked
  std::uint64_t backlog = 0;  ///< entries not yet handed to the kernel
  bool connected = false;
  bool evicted = false;
};

class SessionManager {
 public:
  SessionManager(std::filesystem::path data_dir,
                 wire::AlertEncoding encoding, SessionLimits limits);
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Hands a freshly accepted subscriber connection to the event loop.
  /// The connection starts in legacy mode (live plain-alert stream) and
  /// upgrades to a session when it sends a hello frame.
  void adopt(net::TcpStream stream);

  /// Durably appends one displayed alert and schedules fan-out. Called
  /// by the AD on a replica worker; never blocks on any subscriber socket.
  void publish(const Alert& a);

  /// Flushes pending session traffic (until `flush_deadline`), FINs all
  /// connections and joins the event loop. Idempotent.
  void stop(std::chrono::milliseconds flush_deadline);

  // ---- introspection ---------------------------------------------------
  [[nodiscard]] std::vector<SessionInfo> sessions() const;
  [[nodiscard]] std::size_t connections() const;
  [[nodiscard]] std::uint64_t log_end() const;
  [[nodiscard]] std::uint64_t published() const noexcept;
  /// Alerts raised by the dogfooded per-session lag CE so far.
  [[nodiscard]] std::vector<Alert> lag_alerts() const;
  /// Sessions recovered from the cursor file at construction.
  [[nodiscard]] std::size_t recovered_sessions() const noexcept {
    return recovered_sessions_;
  }
  /// steady_clock nanoseconds of the event loop's latest iteration — the
  /// heartbeat the stall watchdog ages. 0 until the loop first runs.
  [[nodiscard]] std::uint64_t last_tick_ns() const noexcept {
    return last_tick_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    net::TcpStream stream;
    wire::FrameCursor in;
    /// Outbound bytes not yet accepted by the kernel; `out_off` is the
    /// consumed prefix. Session frames are appended whole, so the
    /// boundary bookkeeping below can name every fully-sent frame.
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    /// (end offset in `out`, alert index) per pending session frame;
    /// popped as `out_off` passes each boundary.
    std::deque<std::pair<std::size_t, std::uint64_t>> frame_ends;
    bool legacy = true;       ///< no hello yet: plain live alert frames
    std::string session;      ///< non-empty once upgraded
    std::uint64_t next_index = 0;  ///< next log entry to frame (session)
    bool closing = false;     ///< flush `out`, then FIN and drop

    explicit Conn(net::TcpStream s) : stream(std::move(s)) {}
  };

  struct Session {
    wire::CursorEntry cursor;  ///< durable: acked + evicted mark
    std::uint64_t framed = 0;  ///< last fully-framed index + 1 (volatile)
    bool lag_alerted = false;  ///< edge-trigger latch for the lag CE
    Conn* conn = nullptr;      ///< live connection, if any
  };

  void loop();
  /// All helpers below run with mutex_ held.
  void fill_conn_locked(Conn& conn);
  void handle_readable_locked(Conn& conn);
  void handle_hello_locked(Conn& conn, const wire::SessionHello& hello);
  void note_progress_locked(Conn& conn);
  void drop_conn_locked(std::list<Conn>::iterator it);
  void evict_locked(Conn& conn, std::uint64_t lag);
  void check_lag_locked(Session& session);
  void append_durable_locked(const Alert& a);
  void write_cursor_locked(const std::string& id);
  void compact_cursors_locked();
  [[nodiscard]] std::uint64_t window_base_locked() const noexcept {
    return end_ - window_.size();
  }

  std::filesystem::path data_dir_;
  wire::AlertEncoding encoding_;
  SessionLimits limits_;

  mutable std::mutex mutex_;
  // Durable alert log (append side) + bounded in-memory replay window of
  // pre-encoded subscriber-wire bytes. `end_` is the next index.
  std::ofstream log_out_;
  std::deque<std::vector<std::uint8_t>> window_;
  std::uint64_t end_ = 0;

  // Durable cursor file (append side) + compaction bookkeeping.
  std::ofstream cursor_out_;
  std::size_t cursor_records_ = 0;

  std::map<std::string, Session> sessions_;
  std::list<Conn> conns_;
  std::list<Conn> pending_;  ///< adopted, not yet picked up by the loop

  // Dogfooded "slot falling behind" alarm; empty when the budget is 0.
  std::optional<SelfAlarm> lag_alarm_;

  std::size_t recovered_sessions_ = 0;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> last_tick_ns_{0};

  net::WakePipe wake_;
  std::atomic<bool> stopping_{false};
  std::chrono::steady_clock::time_point flush_deadline_{};
  std::thread loop_thread_;
  std::mutex stop_mutex_;
  bool stopped_ = false;
};

}  // namespace rcm::service
