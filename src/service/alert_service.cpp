#include "service/alert_service.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "wire/buffer.hpp"
#include "wire/frame.hpp"

namespace rcm::service {
namespace {

constexpr std::chrono::milliseconds kAcceptPoll{50};
constexpr std::chrono::milliseconds kMonitorTick{5};
// The watchdog evaluates every ~kWatchdogEvery monitor ticks (~500 ms):
// frequent enough to catch stalls well inside the budgets, cheap enough
// to be invisible next to ingest.
constexpr std::uint64_t kWatchdogEvery = 100;

// trace-dump bodies ride in one admin response frame; leave headroom
// under wire::kMaxFramePayload (1 MiB) for the response envelope.
constexpr std::size_t kTraceDumpBudget = 900u * 1024;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

AlertService::AlertService(ServiceConfig config)
    : config_(std::move(config)),
      supervisor_(config_.backoff, config_.num_replicas),
      displayer_(make_filter(config_.filter,
                             config_.condition
                                 ? config_.condition->variables()
                                 : std::vector<VarId>{})) {
  if (!config_.condition)
    throw std::invalid_argument("AlertService: null condition");
  if (config_.num_replicas == 0)
    throw std::invalid_argument("AlertService: num_replicas must be >= 1");
  if (config_.data_dir.empty())
    throw std::invalid_argument("AlertService: data_dir required");
  if (config_.poll_interval.count() <= 0)
    throw std::invalid_argument("AlertService: poll_interval must be > 0");
  std::filesystem::create_directories(config_.data_dir);

  load_dm_ends();
  ends_out_.open(ends_path(), std::ios::binary | std::ios::app);
  if (!ends_out_.is_open())
    throw std::runtime_error("AlertService: cannot open " +
                             ends_path().string());

  // The session layer recovers its durable alert log + cursors before
  // any thread can publish or accept.
  sessions_ = std::make_unique<SessionManager>(
      config_.data_dir, config_.subscriber_encoding, config_.session_limits);

  // Bind every replica's ingest port up front so clients can be handed a
  // stable endpoint list before any worker runs.
  for (std::size_t i = 0; i < config_.num_replicas; ++i) {
    auto slot = std::make_unique<ReplicaSlot>();
    slot->pending_socket = std::make_unique<net::UdpSocket>();
    slot->port = slot->pending_socket->port();
    slots_.push_back(std::move(slot));
  }

  try {
    acceptor_thread_ = std::thread(&AlertService::acceptor_loop, this);
    admin_thread_ = std::thread(&AlertService::admin_loop, this);
    {
      std::lock_guard g{lifecycle_mutex_};
      for (std::size_t i = 0; i < slots_.size(); ++i) start_worker_locked(i);
    }
    monitor_thread_ = std::thread(&AlertService::monitor_loop, this);
  } catch (...) {
    try {
      drain();
    } catch (...) {
    }
    throw;
  }
}

AlertService::~AlertService() {
  try {
    drain();
  } catch (...) {
    // Destructors must not throw; drain failures here mean the process
    // is going down anyway.
  }
}

// ---- endpoints ---------------------------------------------------------

std::uint16_t AlertService::replica_port(std::size_t i) const {
  return slots_.at(i)->port;
}

std::vector<std::uint16_t> AlertService::replica_ports() const {
  std::vector<std::uint16_t> ports;
  ports.reserve(slots_.size());
  for (const auto& slot : slots_) ports.push_back(slot->port);
  return ports;
}

std::uint16_t AlertService::subscriber_port() const noexcept {
  return sub_listener_.port();
}

std::uint16_t AlertService::admin_port() const noexcept {
  return admin_listener_.port();
}

// ---- replica lifecycle -------------------------------------------------

void AlertService::start_worker_locked(std::size_t i) {
  ReplicaSlot& slot = *slots_[i];
  slot.ctl = std::make_shared<WorkerControl>();
  slot.failed.store(false, std::memory_order_release);
  ++slot.incarnations;
  slot.up = true;
  slot.up_since = std::chrono::steady_clock::now();
  slot.thread = std::thread(&AlertService::worker_loop, this, i, slot.ctl,
                            std::move(slot.pending_socket));
}

void AlertService::stop_worker_locked(std::size_t i, bool graceful) {
  ReplicaSlot& slot = *slots_[i];
  if (!slot.up) return;
  slot.ctl->graceful.store(graceful, std::memory_order_release);
  slot.ctl->stop.store(true, std::memory_order_release);
  if (slot.thread.joinable()) slot.thread.join();
  slot.up = false;
  const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - slot.up_since);
  supervisor_.note_healthy(i, uptime);
}

void AlertService::kill_replica(std::size_t i) {
  if (i >= slots_.size())
    throw std::out_of_range("kill_replica: no such replica");
  std::lock_guard g{lifecycle_mutex_};
  ReplicaSlot& slot = *slots_[i];
  if (!slot.up) return;  // already down: killing a corpse is idempotent
  stop_worker_locked(i, /*graceful=*/false);
  slot.restart_at =
      std::chrono::steady_clock::now() + supervisor_.next_delay(i);
  RCM_COUNT("service.replica.kills");
}

void AlertService::restart_replica(std::size_t i) {
  if (i >= slots_.size())
    throw std::out_of_range("restart_replica: no such replica");
  std::lock_guard g{lifecycle_mutex_};
  ReplicaSlot& slot = *slots_[i];
  if (slot.up) return;
  start_worker_locked(i);
  RCM_COUNT("service.replica.restarts");
}

void AlertService::request_checkpoint(std::size_t i) {
  if (i >= slots_.size())
    throw std::out_of_range("request_checkpoint: no such replica");
  std::lock_guard g{lifecycle_mutex_};
  ReplicaSlot& slot = *slots_[i];
  if (!slot.up) throw std::runtime_error("request_checkpoint: replica down");
  slot.ctl->checkpoint_requested.store(true, std::memory_order_release);
}

std::size_t AlertService::replica_restarts(std::size_t i) const {
  std::lock_guard g{lifecycle_mutex_};
  // incarnations counts starts; the first one is not a restart.
  const std::uint64_t inc = slots_.at(i)->incarnations;
  return inc > 0 ? static_cast<std::size_t>(inc - 1) : 0;
}

void AlertService::monitor_loop() {
  std::uint64_t ticks = 0;
  std::size_t last_degradations = 0;  // the watchdog alarm's edge trigger
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(kMonitorTick);
    {
      std::lock_guard g{lifecycle_mutex_};
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        ReplicaSlot& slot = *slots_[i];
        if (slot.up && slot.failed.load(std::memory_order_acquire)) {
          // Worker died on its own (bind failure, I/O error, ...): treat
          // like a crash and schedule a backed-off restart.
          stop_worker_locked(i, /*graceful=*/false);
          slot.restart_at = now + supervisor_.next_delay(i);
          RCM_COUNT("service.replica.failures");
        }
        if (!slot.up && config_.auto_restart && !draining_.load() &&
            now >= slot.restart_at) {
          start_worker_locked(i);
          RCM_COUNT("service.replica.restarts");
        }
      }
    }
    // Stall watchdog, piggybacked on the monitor's tick. Runs outside
    // the lifecycle lock (collect_degradations takes it briefly itself)
    // so a slow heartbeat sweep never delays a crash restart.
    if (++ticks % kWatchdogEvery == 0) {
      const std::size_t degradations = collect_degradations().size();
      if (degradations != last_degradations) {
        last_degradations = degradations;
        if (watchdog_alarm_.feed(static_cast<double>(degradations)))
          RCM_COUNT("service.watchdog.alerts");
      }
    }
  }
}

// ---- ingest workers ----------------------------------------------------

DurabilityOptions AlertService::durability_options() const {
  DurabilityOptions opts;
  opts.dir = config_.data_dir;
  opts.checkpoint_every = config_.checkpoint_every;
  opts.record_journal = config_.record_journal;
  return opts;
}

void AlertService::worker_loop(std::size_t index,
                               std::shared_ptr<WorkerControl> ctl,
                               std::unique_ptr<net::UdpSocket> socket) {
  ReplicaSlot& slot = *slots_[index];
  obs::trace::set_thread_name("replica-" + std::to_string(index));
  try {
    // Recover durable state FIRST, then (re)bind: once the port is open
    // we must be ready to accept, and the stable port is what lets a
    // restarted incarnation rejoin the live stream unannounced.
    DurableReplica replica{config_.condition, index, durability_options()};
    slot.recovered_wal.store(replica.recovery().wal_replayed,
                             std::memory_order_relaxed);
    slot.accepted.store(0, std::memory_order_relaxed);
    slot.wal_records.store(replica.wal_records(), std::memory_order_relaxed);
    slot.checkpoints.store(0, std::memory_order_relaxed);
    if (!socket) socket = std::make_unique<net::UdpSocket>(slot.port);

    wire::FrameCursor cursor;
    while (!ctl->stop.load(std::memory_order_acquire)) {
      slot.heartbeat_ns.store(steady_now_ns(), std::memory_order_relaxed);
      if (ctl->checkpoint_requested.exchange(false,
                                             std::memory_order_acq_rel)) {
        replica.checkpoint();
        slot.checkpoints.store(replica.checkpoints_taken(),
                               std::memory_order_relaxed);
      }
      auto datagram = socket->receive(config_.poll_interval);
      if (!datagram) continue;
      RCM_COUNT("service.ingest.datagrams");
      ingested_.fetch_add(1, std::memory_order_relaxed);
      cursor.feed(*datagram);
      while (auto payload = cursor.next()) {
        if (auto dm = wire::decode_end_marker(*payload)) {
          note_dm_end(*dm);
          continue;
        }
        wire::UpdateMessage msg;
        try {
          msg = wire::decode_update_message(*payload);
        } catch (const wire::DecodeError&) {
          RCM_COUNT("service.ingest.corrupt_frames");
          continue;
        }
        // Adopt the DM's trace context for this update's hops (ingest →
        // WAL → evaluate); the raised alert carries the trace id onward.
        obs::trace::ContextScope tscope{msg.trace};
        RCM_TRACE_SPAN(ingest_span, "service.ingest");
        ingest_span.var(msg.update.var).seq(msg.update.seqno);
        if (auto alert = replica.on_update(msg.update)) {
          RCM_COUNT("service.alerts.raised");
          display(*alert);
        }
      }
      slot.accepted.store(replica.accepted_live(), std::memory_order_relaxed);
      slot.wal_records.store(replica.wal_records(),
                             std::memory_order_relaxed);
      slot.checkpoints.store(replica.checkpoints_taken(),
                             std::memory_order_relaxed);
    }
    // Graceful stop (drain): compact state so the next start is a pure
    // checkpoint load. A kill skips this on purpose — that's the crash.
    if (ctl->graceful.load(std::memory_order_acquire)) replica.checkpoint();
  } catch (const std::exception&) {
    slot.failed.store(true, std::memory_order_release);
  }
}

// ---- display + fan-out -------------------------------------------------

void AlertService::display(const Alert& a) {
  std::lock_guard g{display_mutex_};
  // The displayer records the filter-verdict span itself, under the
  // ingest span of the update that raised the alert.
  if (!displayer_.on_alert(a)) return;
  RCM_COUNT("service.alerts.displayed");
  displayed_count_.fetch_add(1, std::memory_order_relaxed);
  try {
    fanout(a);
  } catch (const std::exception& e) {
    // Fail-stop: the alert is shown but not in the session log, and the
    // update that raised it is already in the WAL, so a restarted worker
    // would not raise it again. Running on would leave displayed() and
    // the log diverged; a worker restart must not swallow this.
    std::fprintf(stderr, "rcm: alert shown but not published: %s\n",
                 e.what());
    std::abort();
  }
}

void AlertService::fanout(const Alert& a) {
  RCM_SCOPED_TIMER(timer, "service.fanout.seconds");
  RCM_TRACE_SPAN(span, "service.fanout");
  // Durable append + wake of the session event loop; never blocks on a
  // subscriber socket, so one stalled peer cannot stall the AD (or the
  // replica worker running it).
  sessions_->publish(a);
}

void AlertService::acceptor_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto stream = sub_listener_.accept(kAcceptPoll);
    if (!stream) continue;
    sessions_->adopt(std::move(*stream));
  }
}

// ---- admin -------------------------------------------------------------

void AlertService::admin_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto conn = admin_listener_.accept(kAcceptPoll);
    if (!conn) continue;
    // One thread per connection: a client holding its connection open
    // must not block another client's exchange. Threads exit on EOF or
    // stopping_; drain joins whatever is left.
    std::lock_guard g{admin_conns_mutex_};
    admin_conn_threads_.emplace_back(
        [this, c = std::make_shared<net::TcpStream>(std::move(*conn))] {
          try {
            serve_admin(*c);
          } catch (const std::system_error&) {
            // Connection died mid-exchange; the thread just ends.
          }
        });
  }
  std::lock_guard g{admin_conns_mutex_};
  for (std::thread& t : admin_conn_threads_)
    if (t.joinable()) t.join();
  admin_conn_threads_.clear();
}

void AlertService::serve_admin(net::TcpStream& conn) {
  wire::FrameCursor cursor;
  while (!stopping_.load(std::memory_order_acquire)) {
    auto bytes = conn.read_some(kAcceptPoll);
    if (!bytes) continue;      // idle; re-check stopping_
    if (bytes->empty()) return;  // orderly EOF
    cursor.feed(*bytes);
    while (auto payload = cursor.next()) {
      const AdminResponse resp = dispatch_admin(*payload);
      conn.write_all(wire::frame(encode_admin_response(resp)));
    }
  }
}

AdminResponse AlertService::dispatch_admin(
    std::span<const std::uint8_t> payload) {
  AdminResponse resp;
  const auto unsupported_block = [](std::uint8_t command) {
    AdminUnsupported u;
    u.command = command;
    u.server_version = kAdminVersion;
    u.min_major = kAdminMinMajor;
    u.max_major = kAdminMaxMajor;
    u.max_command = static_cast<std::uint8_t>(AdminCommand::kMetricsProm);
    return u;
  };
  try {
    const AdminRequest req = decode_admin_request(payload);
    if (!req.known) {
      // A versioned peer sent a command this binary does not know (a
      // newer one, or the retired byte 8): tell it what we do speak
      // instead of killing the exchange.
      resp.ok = false;
      resp.error = "unsupported admin command " +
                   std::to_string(static_cast<unsigned>(req.raw_command));
      resp.unsupported = unsupported_block(req.raw_command);
      return resp;
    }
    const auto replica = static_cast<std::size_t>(req.replica);
    switch (req.command) {
      case AdminCommand::kStatus:
        resp.status = status();
        break;
      case AdminCommand::kKill:
        kill_replica(replica);
        break;
      case AdminCommand::kRestart:
        restart_replica(replica);
        break;
      case AdminCommand::kCheckpoint:
        request_checkpoint(replica);
        break;
      case AdminCommand::kDrain: {
        drain_requested_.store(true, std::memory_order_release);
        std::lock_guard g{drain_request_mutex_};
        drain_request_cv_.notify_all();
        break;
      }
      case AdminCommand::kMetrics:
        resp.body = obs::registry().snapshot_json();
        break;
      case AdminCommand::kTraceDump:
        resp.body = obs::trace::export_chrome_json(kTraceDumpBudget);
        break;
      case AdminCommand::kSessions:
        resp.body = sessions_json();
        break;
      case AdminCommand::kHealth: {
        // One document per service: the binary InstanceHealth in the
        // length-prefixed body string. The cluster scope (the request
        // default) retired with the shard tier; it gets an error reply
        // on a connection that stays open.
        if (req.scope != HealthScope::kInstance) {
          resp.ok = false;
          resp.error =
              "health: the cluster scope is retired; ask for the instance "
              "scope";
          break;
        }
        const auto bytes = wire::encode_instance_health(instance_health());
        resp.body = std::string(bytes.begin(), bytes.end());
        break;
      }
      case AdminCommand::kMetricsProm:
        resp.body = obs::registry().snapshot_prometheus();
        break;
    }
  } catch (const wire::UnsupportedVersion& e) {
    // Incompatible peer major: still a clean error reply, now with the
    // range the peer would need to downgrade into.
    resp.ok = false;
    resp.error = e.what();
    resp.status.reset();
    resp.body.reset();
    resp.unsupported = unsupported_block(
        payload.empty() ? std::uint8_t{0} : payload[0]);
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
    resp.status.reset();
    resp.body.reset();
  }
  return resp;
}

std::string AlertService::sessions_json() const {
  const auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c) & 0xff);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::string out = "{\"log_end\": " +
                    std::to_string(sessions_->log_end()) +
                    ", \"sessions\": [";
  bool first = true;
  for (const SessionInfo& info : sessions_->sessions()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"id\": \"" + escape(info.id) +
           "\", \"acked\": " + std::to_string(info.acked) +
           ", \"framed\": " + std::to_string(info.framed) +
           ", \"lag\": " + std::to_string(info.lag) +
           ", \"backlog\": " + std::to_string(info.backlog) +
           ", \"connected\": " + (info.connected ? "true" : "false") +
           ", \"evicted\": " + (info.evicted ? "true" : "false") + "}";
  }
  out += "]}\n";
  return out;
}

ServiceStatus AlertService::status() {
  ServiceStatus s;
  s.ingested_datagrams = ingested_.load(std::memory_order_relaxed);
  s.displayed = displayed_count_.load(std::memory_order_relaxed);
  s.subscribers = sessions_->connections();
  {
    std::vector<SessionInfo> infos = sessions_->sessions();
    // The response extension is size-bounded; ship the worst laggards
    // first and let total_sessions report the real count.
    std::sort(infos.begin(), infos.end(),
              [](const SessionInfo& a, const SessionInfo& b) {
                return a.lag > b.lag;
              });
    s.total_sessions = infos.size();
    for (SessionInfo& info : infos) {
      SessionStatus e;
      e.id = std::move(info.id);
      e.acked = info.acked;
      e.framed = info.framed;
      e.lag = info.lag;
      e.backlog = info.backlog;
      e.connected = info.connected;
      e.evicted = info.evicted;
      s.sessions.push_back(std::move(e));
    }
  }
  {
    std::lock_guard g{ends_mutex_};
    s.dm_ends = dm_ends_.size();
  }
  std::lock_guard g{lifecycle_mutex_};
  for (const auto& slot : slots_) {
    ReplicaStatus rs;
    rs.state = slot->up ? ReplicaState::kRunning : ReplicaState::kDown;
    rs.port = slot->port;
    rs.incarnation = slot->incarnations;
    rs.accepted = slot->accepted.load(std::memory_order_relaxed);
    rs.wal_records = slot->wal_records.load(std::memory_order_relaxed);
    rs.checkpoints = slot->checkpoints.load(std::memory_order_relaxed);
    rs.recovered_wal = slot->recovered_wal.load(std::memory_order_relaxed);
    s.replicas.push_back(rs);
  }
  return s;
}

// ---- health ------------------------------------------------------------

std::vector<wire::Degradation> AlertService::collect_degradations() {
  std::vector<wire::Degradation> out;
  const std::uint64_t now = steady_now_ns();
  const auto ns_of = [](std::chrono::milliseconds ms) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(ms).count());
  };
  {
    std::lock_guard g{lifecycle_mutex_};
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const ReplicaSlot& slot = *slots_[i];
      if (!slot.up) {
        out.push_back({wire::DegradationKind::kReplicaDown,
                       "replica " + std::to_string(i) + " down",
                       static_cast<std::uint64_t>(i)});
        continue;
      }
      const std::uint64_t hb = slot.heartbeat_ns.load(std::memory_order_relaxed);
      if (hb != 0 && now > hb &&
          now - hb > ns_of(config_.watchdog.worker_heartbeat_budget)) {
        out.push_back({wire::DegradationKind::kHeartbeatMissed,
                       "replica " + std::to_string(i) + " heartbeat stale",
                       (now - hb) / 1000000});  // ms
      }
    }
  }
  const std::uint64_t tick = sessions_->last_tick_ns();
  if (tick != 0 && now > tick &&
      now - tick > ns_of(config_.watchdog.session_tick_budget)) {
    out.push_back({wire::DegradationKind::kEventLoopStalled,
                   "session event loop tick stale", (now - tick) / 1000000});
  }
#if RCM_METRICS_ENABLED
  {
    const obs::Histogram& wal =
        obs::registry().histogram("service.wal.append.seconds");
    const double p99 = wal.percentile(0.99);
    if (wal.count() > 0 && p99 > config_.watchdog.wal_p99_budget) {
      out.push_back({wire::DegradationKind::kWalFlushSlow,
                     "WAL append p99 over budget (value in us)",
                     static_cast<std::uint64_t>(p99 * 1e6)});
    }
  }
#endif
  if (config_.session_limits.lag_alert_budget > 0) {
    std::uint64_t max_lag = 0;
    for (const SessionInfo& info : sessions_->sessions())
      max_lag = std::max(max_lag, info.lag);
    if (max_lag > config_.session_limits.lag_alert_budget) {
      out.push_back({wire::DegradationKind::kSessionLagExceeded,
                     "subscriber session lag over budget", max_lag});
    }
  }
  return out;
}

wire::InstanceHealth AlertService::instance_health() {
  wire::InstanceHealth h;
  h.role = wire::InstanceRole::kStandalone;
  h.uptime_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
  {
    const std::vector<SessionInfo> infos = sessions_->sessions();
    h.sessions = infos.size();
    for (const SessionInfo& info : infos)
      h.max_session_lag = std::max(h.max_session_lag, info.lag);
  }
  const std::uint64_t now = steady_now_ns();
  {
    std::lock_guard g{lifecycle_mutex_};
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const ReplicaSlot& slot = *slots_[i];
      wire::ReplicaHealth r;
      r.replica = static_cast<std::uint32_t>(i);
      r.up = slot.up;
      r.incarnations = slot.incarnations;
      const std::uint64_t hb =
          slot.heartbeat_ns.load(std::memory_order_relaxed);
      r.heartbeat_age_ns = (hb != 0 && now > hb) ? now - hb : 0;
      r.accepted = slot.accepted.load(std::memory_order_relaxed);
      r.wal_records = slot.wal_records.load(std::memory_order_relaxed);
      h.replicas.push_back(std::move(r));
    }
  }
  // Windowed rates come from the process sampler; 0 when it is not
  // running (or under -DRCM_NO_METRICS), which keeps the document shape
  // stable across builds.
  static constexpr const char* kRateNames[] = {
      "service.ingest.datagrams", "service.wal.appends",
      "service.alerts.raised", "service.alerts.displayed"};
  for (const char* name : kRateNames) {
    wire::RateSample r;
    r.name = name;
    r.rate_10s = obs::sampler().rate(name, std::chrono::seconds{10});
    r.rate_1m = obs::sampler().rate(name, std::chrono::seconds{60});
    r.rate_5m = obs::sampler().rate(name, std::chrono::seconds{300});
    h.rates.push_back(std::move(r));
  }
  h.degradations = collect_degradations();
  h.healthy = h.degradations.empty();
  return h;
}

// ---- drain -------------------------------------------------------------

bool AlertService::drain_requested() const noexcept {
  return drain_requested_.load(std::memory_order_acquire);
}

bool AlertService::await_drain_request(std::chrono::milliseconds timeout) {
  std::unique_lock g{drain_request_mutex_};
  return drain_request_cv_.wait_for(
      g, timeout, [&] { return drain_requested_.load(); });
}

void AlertService::drain() {
  std::lock_guard g{drain_mutex_};
  if (drain_done_) return;
  draining_.store(true, std::memory_order_release);   // stop auto-restarts
  stopping_.store(true, std::memory_order_release);   // stop service loops
  if (monitor_thread_.joinable()) monitor_thread_.join();
  {
    std::lock_guard g2{lifecycle_mutex_};
    for (std::size_t i = 0; i < slots_.size(); ++i)
      stop_worker_locked(i, /*graceful=*/true);
  }
  // Workers are gone, and each ran its alerts through the filter and
  // fan-out before exiting: publishes are over. Give sessions a bounded
  // flush, then FIN them.
  if (sessions_) sessions_->stop(std::chrono::milliseconds{500});
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  if (admin_thread_.joinable()) admin_thread_.join();
  drain_done_ = true;
}

// ---- stream bookkeeping ------------------------------------------------

std::filesystem::path AlertService::ends_path() const {
  return config_.data_dir / "ends.log";
}

void AlertService::load_dm_ends() {
  std::ifstream in{ends_path(), std::ios::binary};
  if (!in.is_open()) return;
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  wire::FrameCursor cursor;
  cursor.feed(bytes);
  cursor.finish();
  while (auto payload = cursor.next()) {
    try {
      wire::Reader r{*payload};
      dm_ends_.insert(static_cast<std::size_t>(r.varint()));
    } catch (const wire::DecodeError&) {
      // Torn tail: the END it recorded will be re-sent or re-observed.
    }
  }
}

void AlertService::note_dm_end(std::size_t dm) {
  std::lock_guard g{ends_mutex_};
  if (!dm_ends_.insert(dm).second) return;  // duplicate END: idempotent
  wire::Writer w;
  w.varint(dm);
  const auto framed = wire::frame(w.bytes());
  ends_out_.write(reinterpret_cast<const char*>(framed.data()),
                  static_cast<std::streamsize>(framed.size()));
  ends_out_.flush();
  RCM_COUNT("service.dm_ends");
  ends_cv_.notify_all();
}

bool AlertService::await_dm_ends(std::size_t count,
                                 std::chrono::milliseconds timeout) {
  std::unique_lock g{ends_mutex_};
  return ends_cv_.wait_for(g, timeout,
                           [&] { return dm_ends_.size() >= count; });
}

std::uint64_t AlertService::activity_counter() const {
  std::uint64_t n = ingested_.load(std::memory_order_relaxed) +
                    displayed_count_.load(std::memory_order_relaxed);
  std::lock_guard g{lifecycle_mutex_};
  for (const auto& slot : slots_)
    n += slot->accepted.load(std::memory_order_relaxed);
  return n;
}

bool AlertService::await_idle(std::chrono::milliseconds idle,
                              std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  auto last_change = std::chrono::steady_clock::now();
  std::uint64_t last = activity_counter();
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    const std::uint64_t cur = activity_counter();
    if (cur != last) {
      last = cur;
      last_change = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_change >= idle) {
      return true;
    }
  }
  return false;
}

// ---- instrumentation ---------------------------------------------------

std::vector<Alert> AlertService::displayed() const {
  std::lock_guard g{display_mutex_};
  return displayer_.displayed();
}

std::vector<Alert> AlertService::arrived() const {
  std::lock_guard g{display_mutex_};
  return displayer_.arrived();
}

std::vector<AlertProvenance> AlertService::provenance() const {
  std::lock_guard g{display_mutex_};
  return displayer_.provenance();
}

std::vector<Update> AlertService::replica_journal(std::size_t i) const {
  if (i >= slots_.size())
    throw std::out_of_range("replica_journal: no such replica");
  return DurableReplica::read_journal(config_.data_dir, i);
}

}  // namespace rcm::service
