#include "service/session.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "core/expr/expression_condition.hpp"
#include "obs/metrics.hpp"
#include "store/file_log.hpp"

namespace rcm::service {
namespace {

constexpr std::chrono::milliseconds kLoopTick{50};
constexpr std::chrono::milliseconds kStoppingTick{5};

/// Per-sweep outbound batch per session connection: enough to amortize
/// syscalls, small enough that no peer monopolizes the loop.
constexpr std::size_t kBatchBytes = 64u * 1024;

/// A legacy (cursorless) subscriber has no cursor to resume from, so its
/// backpressure bound is bytes buffered; beyond this it is dropped, as
/// the pre-session fan-out dropped peers that stopped reading.
constexpr std::size_t kLegacyMaxBuffered = 4u * 1024 * 1024;

constexpr double kLagBounds[] = {0, 1, 8, 64, 512, 4096, 32768};

std::string lag_source(std::uint64_t budget) {
  std::ostringstream out;
  out << "session_lag[0] > " << budget;
  return out.str();
}

std::string read_file_bytes(const std::filesystem::path& path,
                            std::vector<std::uint8_t>& bytes) {
  std::ifstream in{path, std::ios::binary};
  if (!in.is_open()) return {};
  bytes.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  if (in.bad()) return "read error on " + path.string();
  return {};
}

}  // namespace

SessionManager::SessionManager(std::filesystem::path data_dir,
                               wire::AlertEncoding encoding,
                               SessionLimits limits)
    : data_dir_(std::move(data_dir)), encoding_(encoding), limits_(limits) {
  // A session is evicted before its unsent backlog outruns the window,
  // so anything a live session still needs is always replayable.
  limits_.retention =
      std::max({limits_.retention, limits_.max_backlog + 1, std::size_t{1}});
  std::filesystem::create_directories(data_dir_);

  const auto log_path = data_dir_ / "alerts.log";
  const auto cursor_path = data_dir_ / "cursors.log";

  // Recover the durable alert log; the in-memory window re-encodes the
  // replayable suffix in the subscriber wire encoding.
  store::RecoveredLog recovered = store::recover_log(log_path);
  end_ = recovered.log.size();
  const std::uint64_t base =
      end_ > limits_.retention ? end_ - limits_.retention : 0;
  for (std::uint64_t i = base; i < end_; ++i)
    window_.push_back(wire::encode_alert(recovered.log.at(i), encoding_));

  log_out_.open(log_path, std::ios::binary | std::ios::app);
  if (!log_out_.is_open())
    throw std::runtime_error("SessionManager: cannot open " +
                             log_path.string());
  std::error_code ec;
  if (std::filesystem::file_size(log_path, ec) == 0 && !ec) {
    const auto framed = wire::frame(store::encode_log_header(
        store::kAlertLogFormatId, store::kLogFormatVersion));
    log_out_.write(reinterpret_cast<const char*>(framed.data()),
                   static_cast<std::streamsize>(framed.size()));
    log_out_.flush();
  }

  // Recover durable cursors (throws wire::UnsupportedVersion on a
  // future-major file — never silently misread) and compact the file.
  std::vector<std::uint8_t> cursor_bytes;
  const std::string err = read_file_bytes(cursor_path, cursor_bytes);
  if (!err.empty()) throw std::runtime_error("SessionManager: " + err);
  const wire::RecoveredCursors cursors =
      wire::recover_cursor_bytes(cursor_bytes);
  for (const auto& [id, entry] : cursors.cursors) {
    Session s;
    s.cursor = entry;
    s.cursor.acked = std::min(s.cursor.acked, end_);
    s.framed = s.cursor.acked;
    sessions_.emplace(id, std::move(s));
  }
  recovered_sessions_ = sessions_.size();
  compact_cursors_locked();

  if (limits_.lag_alert_budget > 0) {
    lag_var_ = lag_vars_.intern("session_lag");
    lag_ce_.emplace(
        expr::compile_condition("service.session.lag_exceeded",
                                lag_source(limits_.lag_alert_budget),
                                lag_vars_),
        "sessions");
  }

  loop_thread_ = std::thread(&SessionManager::loop, this);
}

SessionManager::~SessionManager() {
  try {
    stop(std::chrono::milliseconds{200});
  } catch (...) {
  }
}

// ---- durable pieces ----------------------------------------------------

void SessionManager::append_durable_locked(const Alert& a) {
  wire::Writer payload;
  payload.u8(store::kAlertRecord);
  payload.raw(wire::encode_alert(a, wire::AlertEncoding::kFullHistories));
  const auto framed = wire::frame(payload.bytes());
  log_out_.write(reinterpret_cast<const char*>(framed.data()),
                 static_cast<std::streamsize>(framed.size()));
  log_out_.flush();
  if (!log_out_.good())
    throw std::runtime_error("SessionManager: alert log write failed");
}

void SessionManager::write_cursor_locked(const std::string& id) {
  const Session& s = sessions_.at(id);
  const auto framed = wire::frame(wire::encode_cursor_record(id, s.cursor));
  cursor_out_.write(reinterpret_cast<const char*>(framed.data()),
                    static_cast<std::streamsize>(framed.size()));
  cursor_out_.flush();
  if (!cursor_out_.good())
    throw std::runtime_error("SessionManager: cursor write failed");
  // Bound file growth: when the record count dwarfs the session count,
  // rewrite the file as header + one record per session.
  if (++cursor_records_ > 4 * sessions_.size() + 64)
    compact_cursors_locked();
}

void SessionManager::compact_cursors_locked() {
  const auto path = data_dir_ / "cursors.log";
  const auto tmp = data_dir_ / "cursors.log.tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out.is_open())
      throw std::runtime_error("SessionManager: cannot open " + tmp.string());
    const auto write_framed = [&](const std::vector<std::uint8_t>& payload) {
      const auto framed = wire::frame(payload);
      out.write(reinterpret_cast<const char*>(framed.data()),
                static_cast<std::streamsize>(framed.size()));
    };
    write_framed(wire::encode_cursor_file_header());
    for (const auto& [id, s] : sessions_)
      write_framed(wire::encode_cursor_record(id, s.cursor));
    out.flush();
    if (!out.good())
      throw std::runtime_error("SessionManager: cursor compaction failed");
  }
  std::filesystem::rename(tmp, path);
  cursor_out_.close();
  cursor_out_.open(path, std::ios::binary | std::ios::app);
  if (!cursor_out_.is_open())
    throw std::runtime_error("SessionManager: cannot reopen " +
                             path.string());
  cursor_records_ = 0;
}

// ---- publish (AD, on the raising replica worker) -----------------------

void SessionManager::publish(const Alert& a) {
  std::lock_guard g{mutex_};
  append_durable_locked(a);
  window_.push_back(wire::encode_alert(a, encoding_));
  ++end_;
  while (window_.size() > limits_.retention) window_.pop_front();
  published_.fetch_add(1, std::memory_order_relaxed);

  // Legacy conns get the live frame appended directly (byte-identical to
  // the cursorless protocol); a peer that stopped reading is dropped
  // once its buffered bytes pass the cap, as the old fan-out dropped
  // peers whose sockets errored.
  const auto framed = wire::frame(window_.back());
  for (Conn& conn : conns_) {
    if (!conn.legacy || conn.closing) continue;
    if (conn.out.size() - conn.out_off + framed.size() >
        kLegacyMaxBuffered) {
      conn.out.clear();
      conn.out_off = 0;
      conn.closing = true;
      RCM_COUNT("service.subscribers.dropped");
      continue;
    }
    conn.out.insert(conn.out.end(), framed.begin(), framed.end());
  }

  // Lag is re-evaluated against the new log end for every session; the
  // dogfooded CE fires once per excursion above the budget.
  for (auto& [id, session] : sessions_) check_lag_locked(session);
  wake_.wake();
}

void SessionManager::check_lag_locked(Session& session) {
  if (!lag_ce_) return;
  const std::uint64_t lag = end_ - session.cursor.acked;
  if (lag > limits_.lag_alert_budget) {
    if (session.lag_alerted) return;
    session.lag_alerted = true;
    Update u;
    u.var = lag_var_;
    u.seqno = static_cast<SeqNo>(++lag_seq_);
    u.value = static_cast<double>(lag);
    if (auto alert = lag_ce_->on_update(u)) {
      lag_alerts_.push_back(std::move(*alert));
      RCM_COUNT("service.session.lag_alerts");
    }
  } else {
    session.lag_alerted = false;
  }
}

// ---- event loop --------------------------------------------------------

void SessionManager::adopt(net::TcpStream stream) {
  stream.set_nonblocking(true);
  std::lock_guard g{mutex_};
  if (stopping_.load(std::memory_order_acquire)) return;  // closes stream
  pending_.emplace_back(std::move(stream));
  RCM_COUNT("service.subscribers.connected");
  wake_.wake();
}

void SessionManager::fill_conn_locked(Conn& conn) {
  if (conn.legacy || conn.closing || conn.session.empty()) return;
  if (conn.next_index < window_base_locked()) {
    // The retention window outran this connection's send cursor (it can
    // only happen when the peer stalled past the backlog bound).
    evict_locked(conn, end_ - sessions_.at(conn.session).cursor.acked);
    return;
  }
  while (conn.out.size() - conn.out_off < kBatchBytes &&
         conn.next_index < end_) {
    const auto& encoded =
        window_[static_cast<std::size_t>(conn.next_index -
                                         window_base_locked())];
    const auto framed =
        wire::frame(wire::encode_session_alert(conn.next_index, encoded));
    conn.out.insert(conn.out.end(), framed.begin(), framed.end());
    conn.frame_ends.emplace_back(conn.out.size(), conn.next_index);
    ++conn.next_index;
  }
  if (end_ - conn.next_index > limits_.max_backlog)
    evict_locked(conn, end_ - sessions_.at(conn.session).cursor.acked);
}

void SessionManager::evict_locked(Conn& conn, std::uint64_t lag) {
  Session& s = sessions_.at(conn.session);
  s.cursor.evicted = true;
  s.conn = nullptr;  // conn.session stays set so framed-progress lands
  write_cursor_locked(conn.session);
  const auto framed =
      wire::frame(wire::encode_session_evicted(conn.next_index, lag));
  conn.out.insert(conn.out.end(), framed.begin(), framed.end());
  conn.closing = true;
  RCM_COUNT("service.session.evicted");
  RCM_OBSERVE_WITH("service.session.lag",
                   (kLagBounds, std::end(kLagBounds)), lag);
}

void SessionManager::note_progress_locked(Conn& conn) {
  while (!conn.frame_ends.empty() &&
         conn.frame_ends.front().first <= conn.out_off) {
    const std::uint64_t index = conn.frame_ends.front().second;
    conn.frame_ends.pop_front();
    if (conn.session.empty()) continue;
    Session& s = sessions_.at(conn.session);
    s.framed = std::max(s.framed, index + 1);
  }
}

void SessionManager::handle_hello_locked(Conn& conn,
                                         const wire::SessionHello& hello) {
  auto [it, fresh] = sessions_.try_emplace(hello.session_id);
  Session& s = it->second;
  if (s.conn != nullptr) {
    // Duplicate session id: the latest connection wins; the superseded
    // one is flushed and closed, detached from the session.
    Conn* old = s.conn;
    old->session.clear();
    old->closing = true;
    s.conn = nullptr;
    RCM_COUNT("service.session.superseded");
  }

  wire::SessionWelcome welcome;
  welcome.log_end = end_;
  const std::uint64_t base = window_base_locked();
  const bool has_from = hello.from.has_value();
  const std::uint64_t wanted =
      has_from ? *hello.from : (fresh ? end_ : s.cursor.acked);
  if (wanted > end_) {
    welcome.status = wire::SessionWelcomeStatus::kBadCursor;
    welcome.start_index = end_;
  } else if (wanted < base) {
    welcome.status = wire::SessionWelcomeStatus::kTruncated;
    welcome.lost_from = wanted;
    welcome.lost_to = base;
    welcome.start_index = base;
  } else {
    welcome.start_index = wanted;
  }
  // A truncation is an acknowledged loss: the cursor advances past the
  // named range so the session stops lagging on entries it can never
  // receive. An exact resume leaves the cursor to client acks.
  if (welcome.status == wire::SessionWelcomeStatus::kTruncated) {
    s.cursor.acked = std::max(s.cursor.acked, welcome.start_index);
    RCM_COUNT("service.session.truncated");
  }
  const bool dirty = s.cursor.evicted ||
                     welcome.status == wire::SessionWelcomeStatus::kTruncated;
  s.cursor.evicted = false;
  s.lag_alerted = false;

  conn.legacy = false;
  conn.session = it->first;
  conn.next_index = welcome.start_index;
  s.conn = &conn;
  if (dirty || fresh) write_cursor_locked(it->first);

  const auto framed = wire::frame(encode_session_welcome(welcome));
  conn.out.insert(conn.out.end(), framed.begin(), framed.end());
  RCM_COUNT(fresh ? "service.session.connected" : "service.session.resumed");
}

void SessionManager::handle_readable_locked(Conn& conn) {
  const auto data = conn.stream.read_available();
  if (!data) return;  // spurious readiness
  if (data->empty()) {
    // Peer FIN. A half-closing subscriber may still be reading; flush
    // what it is owed, then close.
    conn.closing = true;
    return;
  }
  conn.in.feed(*data);
  while (auto payload = conn.in.next()) {
    try {
      if (conn.legacy) {
        handle_hello_locked(conn, wire::decode_session_hello(*payload));
      } else {
        const std::uint64_t upto = wire::decode_session_ack(*payload);
        if (conn.session.empty()) continue;  // superseded mid-flight
        Session& s = sessions_.at(conn.session);
        const std::uint64_t acked =
            std::min(std::max(s.cursor.acked, upto), end_);
        if (acked != s.cursor.acked) {
          s.cursor.acked = acked;
          write_cursor_locked(conn.session);
          RCM_COUNT("service.session.acks");
          RCM_OBSERVE_WITH("service.session.lag",
                           (kLagBounds, std::end(kLagBounds)), end_ - acked);
        }
      }
    } catch (const wire::DecodeError&) {
      // Garbage on the control channel (includes a future-major hello):
      // the connection is not salvageable.
      conn.out.clear();
      conn.out_off = 0;
      conn.frame_ends.clear();
      conn.closing = true;
      RCM_COUNT("service.session.bad_frames");
      return;
    }
  }
}

void SessionManager::drop_conn_locked(std::list<Conn>::iterator it) {
  note_progress_locked(*it);
  if (!it->session.empty()) {
    auto sit = sessions_.find(it->session);
    if (sit != sessions_.end() && sit->second.conn == &*it)
      sit->second.conn = nullptr;
  }
  RCM_COUNT("service.subscribers.dropped");
  conns_.erase(it);
}

void SessionManager::loop() {
  std::vector<pollfd> fds;
  std::vector<std::list<Conn>::iterator> fd_conns;
  while (true) {
    last_tick_ns_.store(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count()),
        std::memory_order_relaxed);
    bool all_flushed = true;
    {
      std::lock_guard g{mutex_};
      conns_.splice(conns_.end(), pending_);
      fds.clear();
      fd_conns.clear();
      fds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
      for (auto it = conns_.begin(); it != conns_.end(); ++it) {
        fill_conn_locked(*it);
        const bool pending_out = it->out_off < it->out.size();
        if (pending_out) all_flushed = false;
        short events = POLLIN;
        if (pending_out) events |= POLLOUT;
        fds.push_back(pollfd{it->stream.native_handle(), events, 0});
        fd_conns.push_back(it);
      }
    }
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping &&
        (all_flushed ||
         std::chrono::steady_clock::now() >= flush_deadline_))
      break;

    const auto tick = stopping ? kStoppingTick : kLoopTick;
    const int rc = ::poll(fds.data(), fds.size(),
                          static_cast<int>(tick.count()));
    if (rc < 0 && errno != EINTR) break;  // poll itself failed: give up

    std::lock_guard g{mutex_};
    if (fds[0].revents & POLLIN) wake_.drain();
    for (std::size_t i = 0; i < fd_conns.size(); ++i) {
      const auto it = fd_conns[i];
      const short revents = fds[i + 1].revents;
      try {
        if (revents & (POLLIN | POLLHUP | POLLERR))
          handle_readable_locked(*it);
        if (it->out_off < it->out.size() &&
            (revents & (POLLOUT | POLLHUP | POLLERR) || stopping)) {
          const std::span<const std::uint8_t> rest{
              it->out.data() + it->out_off, it->out.size() - it->out_off};
          it->out_off += it->stream.write_some(rest);
          note_progress_locked(*it);
        }
      } catch (const std::system_error&) {
        drop_conn_locked(it);
        continue;
      }
      if (it->out_off == it->out.size()) {
        it->out.clear();
        it->out_off = 0;
        if (it->closing) {
          it->stream.shutdown_write();
          drop_conn_locked(it);
        }
      }
    }
  }

  std::lock_guard g{mutex_};
  conns_.splice(conns_.end(), pending_);
  for (Conn& conn : conns_) {
    try {
      conn.stream.shutdown_write();
    } catch (const std::system_error&) {
    }
  }
  conns_.clear();
}

void SessionManager::stop(std::chrono::milliseconds flush_deadline) {
  {
    std::lock_guard g{stop_mutex_};
    if (stopped_) return;
    stopped_ = true;
  }
  flush_deadline_ = std::chrono::steady_clock::now() + flush_deadline;
  stopping_.store(true, std::memory_order_release);
  wake_.wake();
  if (loop_thread_.joinable()) loop_thread_.join();
}

// ---- introspection -----------------------------------------------------

std::vector<SessionInfo> SessionManager::sessions() const {
  std::lock_guard g{mutex_};
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    SessionInfo info;
    info.id = id;
    info.acked = s.cursor.acked;
    info.framed = s.framed;
    info.lag = end_ - s.cursor.acked;
    info.backlog = s.conn != nullptr ? end_ - s.conn->next_index : 0;
    info.connected = s.conn != nullptr;
    info.evicted = s.cursor.evicted;
    out.push_back(std::move(info));
  }
  return out;
}

std::size_t SessionManager::connections() const {
  std::lock_guard g{mutex_};
  return conns_.size() + pending_.size();
}

std::uint64_t SessionManager::log_end() const {
  std::lock_guard g{mutex_};
  return end_;
}

std::uint64_t SessionManager::published() const noexcept {
  return published_.load(std::memory_order_relaxed);
}

std::vector<Alert> SessionManager::lag_alerts() const {
  std::lock_guard g{mutex_};
  return lag_alerts_;
}

}  // namespace rcm::service
