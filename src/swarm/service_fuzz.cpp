#include "swarm/service_fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "core/evaluator.hpp"
#include "net/socket.hpp"
#include "service/alert_service.hpp"
#include "service/durable_replica.hpp"
#include "service/health.hpp"
#include "store/file_log.hpp"
#include "swarm/fuzz_plan.hpp"
#include "util/rng.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/legacy.hpp"
#include "wire/session.hpp"
#include "wire/snapshot.hpp"
#include "wire/version.hpp"

namespace rcm::swarm {
namespace {

using Clock = std::chrono::steady_clock;

// ---- durable-session subscriber fault units ---------------------------

struct SubscriberPlan {
  std::string id;
  bool slow = false;            ///< sleep between reads (evictable)
  bool stale_cursor = false;    ///< every hello requests index 0
  bool garbage_cursor = false;  ///< first hello requests far beyond the end
  std::size_t kills = 0;        ///< abrupt closes mid-stream
  std::size_t ack_every = 1;    ///< ack cadence in received alerts
};

struct SessionConnLog {
  std::uint64_t requested = 0;  ///< `from` this connection asked for
  bool got_welcome = false;
  wire::SessionWelcome welcome;
  std::vector<std::uint64_t> indices;  ///< alert indices, arrival order
  bool evicted = false;  ///< server sent a typed evicted notice
  bool killed = false;   ///< client closed abruptly (fault injection)
  std::size_t corrupt = 0;  ///< CRC failures (TCP must deliver none)
};

struct SubscriberLog {
  SubscriberPlan plan;
  std::vector<SessionConnLog> conns;
  std::vector<std::pair<std::uint64_t, Alert>> alerts;
  std::uint64_t next_needed = 0;  ///< last received index + 1
};

struct SessionFuzzPlan {
  bool enabled = false;
  service::SessionLimits limits;
  std::vector<SubscriberPlan> subscribers;
  bool reopen = false;  ///< replay a cursor across a service restart
};

SessionFuzzPlan make_session_plan(util::Rng& rng) {
  SessionFuzzPlan plan;
  plan.enabled = rng.bernoulli(0.75);
  if (!plan.enabled) return plan;
  // Tiny limits so short runs actually exercise eviction, truncation
  // and the lag alert, not just the happy path.
  constexpr std::size_t kBacklogs[] = {8, 16, 64};
  plan.limits.max_backlog = kBacklogs[static_cast<std::size_t>(
      rng.uniform_int(0, std::size(kBacklogs) - 1))];
  plan.limits.retention = plan.limits.max_backlog + 1 +
                          static_cast<std::size_t>(rng.uniform_int(0, 64));
  plan.limits.lag_alert_budget = 4;
  const std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t s = 0; s < count; ++s) {
    SubscriberPlan sub;
    sub.id = "sub-" + std::to_string(s);
    sub.slow = rng.bernoulli(0.3);
    sub.stale_cursor = rng.bernoulli(0.2);
    sub.garbage_cursor = !sub.stale_cursor && rng.bernoulli(0.2);
    sub.kills = static_cast<std::size_t>(rng.uniform_int(0, 2));
    sub.ack_every = static_cast<std::size_t>(rng.uniform_int(1, 4));
    plan.subscribers.push_back(std::move(sub));
  }
  if (plan.subscribers.size() >= 2 && rng.bernoulli(0.25))
    plan.subscribers[1].id = plan.subscribers[0].id;  // duplicate-id fight
  plan.reopen = rng.bernoulli(0.4);
  return plan;
}

/// One subscriber thread: connect with a session hello, record everything
/// received, inject the plan's faults, reconnect after server-side closes
/// (eviction, supersede) until the service drains.
void run_subscriber_agent(std::uint16_t port, std::uint64_t seed,
                          const std::atomic<bool>& draining,
                          SubscriberLog& log) {
  util::Rng rng = util::Rng::derive(seed, 0x5e55);
  const SubscriberPlan& plan = log.plan;
  std::size_t kills_left = plan.kills;
  std::size_t reconnect_budget = plan.kills + 8;
  bool first = true;
  const auto deadline = Clock::now() + std::chrono::seconds{20};
  // Once the run is draining no new connection can be welcomed, so a
  // reconnect would only wait out the deadline against a dead service;
  // an in-flight connection still reads to its FIN (the drain flush).
  while (!draining.load(std::memory_order_acquire) &&
         Clock::now() < deadline) {
    SessionConnLog conn;
    if (first && plan.garbage_cursor)
      conn.requested = (std::uint64_t{1} << 40) +
                       static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
    else if (plan.stale_cursor)
      conn.requested = 0;
    else
      conn.requested = log.next_needed;
    first = false;

    std::optional<net::TcpStream> stream;
    try {
      stream = net::TcpStream::connect(port);
      wire::SessionHello hello;
      hello.session_id = plan.id;
      hello.from = conn.requested;
      stream->write_all(wire::frame(wire::encode_session_hello(hello)));
    } catch (const std::system_error&) {
      return;  // service gone: drain raced the connect
    }

    wire::FrameCursor frames;
    const std::size_t kill_after =
        kills_left > 0 ? 1 + static_cast<std::size_t>(rng.uniform_int(0, 24))
                       : static_cast<std::size_t>(-1);
    std::size_t got = 0;
    bool open = true;
    bool clean_eof = false;
    while (open && Clock::now() < deadline) {
      if (plan.slow)
        std::this_thread::sleep_for(
            std::chrono::milliseconds{rng.uniform_int(1, 6)});
      std::optional<std::vector<std::uint8_t>> chunk;
      try {
        chunk = stream->read_some(std::chrono::milliseconds{100});
      } catch (const std::system_error&) {
        break;  // reset from the server counts as a close
      }
      if (!chunk) continue;  // timeout: live tail, keep waiting
      if (chunk->empty()) {
        clean_eof = true;  // orderly FIN (drain, supersede or eviction)
        break;
      }
      frames.feed(*chunk);
      while (auto payload = frames.next()) {
        if (payload->empty()) continue;
        if (!conn.got_welcome) {
          if ((*payload)[0] != wire::kSessionWelcomeTag)
            continue;  // legacy frame raced the hello; not session state
          conn.welcome = wire::decode_session_welcome(*payload);
          conn.got_welcome = true;
          continue;
        }
        const wire::SessionRecord rec =
            wire::decode_session_record(*payload);
        if (rec.kind == wire::SessionRecord::Kind::kEvicted) {
          conn.evicted = true;
          continue;  // server closes right after
        }
        conn.indices.push_back(rec.index);
        log.alerts.emplace_back(rec.index, rec.alert.alert);
        log.next_needed = std::max(log.next_needed, rec.index + 1);
        ++got;
        if (got % plan.ack_every == 0) {
          try {
            stream->write_all(
                wire::frame(wire::encode_session_ack(rec.index + 1)));
          } catch (const std::system_error&) {
            open = false;
            break;
          }
        }
        if (got >= kill_after && kills_left > 0) {
          // Abrupt close with unread bytes (and likely a half-received
          // frame) in flight — the server-side "kill mid-frame".
          --kills_left;
          conn.killed = true;
          open = false;
          break;
        }
      }
    }
    conn.corrupt = frames.corrupt_frames();
    const bool welcomed = conn.got_welcome;
    const bool injected = conn.killed;
    log.conns.push_back(std::move(conn));
    if (!welcomed && clean_eof) return;  // drain: adopted-and-dropped
    if (!injected) {
      if (reconnect_budget == 0) return;
      --reconnect_budget;
    }
  }
}

/// Synchronous cross-restart replay probe: one session reading from a
/// reopened service until it has caught up with the recovered log end.
/// Reconnects through evictions (tiny limits can evict even a prompt
/// reader mid-replay); gives up after a bounded number of attempts.
void run_reopen_probe(std::uint16_t port, SubscriberLog& log) {
  const auto deadline = Clock::now() + std::chrono::seconds{10};
  std::optional<std::uint64_t> want_until;
  for (int attempt = 0; attempt < 8; ++attempt) {
    SessionConnLog conn;
    conn.requested = log.next_needed;
    bool done = false;
    try {
      net::TcpStream stream = net::TcpStream::connect(port);
      wire::SessionHello hello;
      hello.session_id = log.plan.id;
      hello.from = conn.requested;
      stream.write_all(wire::frame(wire::encode_session_hello(hello)));
      wire::FrameCursor frames;
      bool open = true;
      while (open && !done && Clock::now() < deadline) {
        auto chunk = stream.read_some(std::chrono::milliseconds{100});
        if (!chunk) continue;
        if (chunk->empty()) break;
        frames.feed(*chunk);
        while (auto payload = frames.next()) {
          if (payload->empty()) continue;
          if (!conn.got_welcome) {
            if ((*payload)[0] != wire::kSessionWelcomeTag) continue;
            conn.welcome = wire::decode_session_welcome(*payload);
            conn.got_welcome = true;
            if (!want_until) want_until = conn.welcome.log_end;
            if (conn.welcome.start_index >= *want_until) done = true;
            continue;
          }
          const wire::SessionRecord rec =
              wire::decode_session_record(*payload);
          if (rec.kind == wire::SessionRecord::Kind::kEvicted) {
            conn.evicted = true;
            open = false;
            break;
          }
          conn.indices.push_back(rec.index);
          log.alerts.emplace_back(rec.index, rec.alert.alert);
          log.next_needed = std::max(log.next_needed, rec.index + 1);
          stream.write_all(
              wire::frame(wire::encode_session_ack(rec.index + 1)));
          if (rec.index + 1 >= *want_until) {
            done = true;
            break;
          }
        }
      }
      conn.corrupt = frames.corrupt_frames();
    } catch (const std::system_error&) {
      log.conns.push_back(std::move(conn));
      return;
    }
    log.conns.push_back(std::move(conn));
    if (done || Clock::now() >= deadline) return;
  }
}

/// The session-layer oracle: content matches the displayed sequence,
/// per-connection indices are contiguous from the welcome's start, exact
/// resume on kOk, and every gap is a typed, correctly-named truncation.
void check_sessions(const std::vector<SubscriberLog>& logs,
                    const std::vector<Alert>& displayed,
                    std::vector<std::string>& violations) {
  for (const SubscriberLog& log : logs) {
    const std::string who = "session '" + log.plan.id + "': ";
    for (const auto& [idx, alert] : log.alerts) {
      if (idx >= displayed.size()) {
        violations.push_back(who + "received index " + std::to_string(idx) +
                             " beyond displayed count " +
                             std::to_string(displayed.size()));
        break;
      }
      if (!(alert == displayed[idx])) {
        violations.push_back(who + "alert at index " + std::to_string(idx) +
                             " does not match the displayed alert");
        break;
      }
    }
    for (std::size_t c = 0; c < log.conns.size(); ++c) {
      const SessionConnLog& conn = log.conns[c];
      std::ostringstream where;
      where << who << "connection " << c << ": ";
      if (conn.corrupt != 0)
        violations.push_back(where.str() +
                             "CRC-corrupt frame on a TCP link");
      if (!conn.got_welcome) continue;
      const wire::SessionWelcome& w = conn.welcome;
      switch (w.status) {
        case wire::SessionWelcomeStatus::kOk:
          if (w.start_index != conn.requested)
            violations.push_back(
                where.str() + "welcome kOk but start " +
                std::to_string(w.start_index) + " != requested " +
                std::to_string(conn.requested));
          break;
        case wire::SessionWelcomeStatus::kTruncated:
          if (w.lost_from != conn.requested || w.lost_to != w.start_index ||
              w.start_index <= conn.requested)
            violations.push_back(where.str() +
                                 "kTruncated names a range inconsistent "
                                 "with the requested index");
          break;
        case wire::SessionWelcomeStatus::kBadCursor:
          if (conn.requested <= w.log_end || w.start_index != w.log_end)
            violations.push_back(where.str() +
                                 "kBadCursor for an index not beyond the "
                                 "log end");
          break;
      }
      for (std::size_t k = 0; k < conn.indices.size(); ++k) {
        if (conn.indices[k] != w.start_index + k) {
          violations.push_back(
              where.str() + "gap or reorder: record " + std::to_string(k) +
              " has index " + std::to_string(conn.indices[k]) +
              ", expected " + std::to_string(w.start_index + k));
          break;
        }
      }
    }
  }
}

// ---- shared run machinery ---------------------------------------------

service::ServiceConfig make_config(const RunPlan& plan,
                                   const std::filesystem::path& data_dir) {
  service::ServiceConfig config;
  config.condition = build_condition(plan.choice.kind, plan.choice.param);
  config.num_replicas = plan.replicas;
  config.filter = plan.filter;
  config.data_dir = data_dir;
  config.checkpoint_every = plan.checkpoint_every;
  config.record_journal = true;
  config.auto_restart = plan.auto_restart;
  // Killed replicas come back within milliseconds and the monitor polls
  // often, so short runs see whole kill/recover cycles.
  config.backoff.initial = std::chrono::milliseconds{1};
  config.backoff.max = std::chrono::milliseconds{50};
  config.backoff.reset_after = std::chrono::milliseconds{1};
  config.poll_interval = std::chrono::milliseconds{5};
  return config;
}

/// Repeats the END markers of vars [0, arity) to every port (they are
/// idempotent) until `evaluator` has them all.
void deliver_ends(net::UdpSocket& feeder,
                  const std::vector<std::uint16_t>& ports, std::size_t arity,
                  service::AlertService& evaluator) {
  for (int attempt = 0; attempt < 40; ++attempt) {
    for (std::size_t var = 0; var < arity; ++var) {
      const auto end = wire::frame(wire::encode_end_marker(var));
      for (const std::uint16_t port : ports) feeder.try_send_to(port, end);
    }
    if (evaluator.await_dm_ends(arity, std::chrono::milliseconds{100}))
      return;
  }
}

/// What one run hands the shared tail of the batch loop.
struct RunOutcome {
  std::size_t kills = 0;
  std::size_t restarts = 0;
  std::size_t displayed = 0;
  std::string detail;  ///< verbose-line text after "run N"
  std::vector<std::string> violations;
};

// ---- one service epoch -------------------------------------------------

/// One service incarnation's share of a run.
struct Epoch {
  std::size_t begin = 0;  ///< plan.feed[begin, end) is fed in this epoch
  std::size_t end = 0;
  std::vector<KillEvent> kills{};  ///< sorted; at_step counts from `begin`
  /// Per step, with this probability one extra copy of an update goes to
  /// a random port: the step's own update when `dup_pool` is 0, else a
  /// random one of plan.feed[0, dup_pool).
  double dup_prob = 0.0;
  std::size_t dup_pool = 0;
};

struct EpochResult {
  std::vector<Alert> displayed;
  std::vector<AlertProvenance> provenance;
  std::vector<std::vector<Update>> journals;
  std::size_t kills = 0;
  std::size_t restarts = 0;
};

/// Runs one AlertService over `epoch`: subscriber agents, kills with
/// manual restarts (and the health oracle around them), sends to every
/// replica port, duplicate resends, END markers once the feed is
/// exhausted, drain. Health-oracle violations are appended to
/// `violations`.
EpochResult run_epoch(const RunPlan& plan, const Epoch& epoch,
                      service::ServiceConfig config, util::Rng& rng,
                      std::vector<SubscriberLog>& subscribers,
                      std::uint64_t subscriber_seed, ServiceFuzzReport& report,
                      std::vector<std::string>& violations) {
  EpochResult out;
  service::AlertService svc{std::move(config)};
  const std::vector<std::uint16_t> ports = svc.replica_ports();
  net::UdpSocket feeder;

  std::atomic<bool> draining{false};
  std::vector<std::thread> sub_threads;
  for (std::size_t s = 0; s < subscribers.size(); ++s)
    sub_threads.emplace_back(run_subscriber_agent, svc.subscriber_port(),
                             subscriber_seed + s, std::cref(draining),
                             std::ref(subscribers[s]));

  // (step -> pending manual restarts) computed as we go.
  std::vector<std::pair<std::size_t, std::size_t>> manual_restarts;
  std::size_t next_kill = 0;
  for (std::size_t step = 0; step < epoch.end - epoch.begin; ++step) {
    while (next_kill < epoch.kills.size() &&
           epoch.kills[next_kill].at_step == step) {
      const KillEvent& e = epoch.kills[next_kill++];
      svc.kill_replica(e.replica);
      ++out.kills;
      if (!plan.auto_restart) {
        // Health oracle, degraded half: with no auto-restart racing
        // us, the admin health document scraped right after the kill
        // must carry a replica-down degradation.
        ++report.health_scrapes;
        const auto doc = service::scrape_instance_health(
            svc.admin_port(), std::chrono::milliseconds{2000});
        if (!doc) {
          violations.push_back(
              "health oracle: admin health scrape failed after kill");
        } else {
          const bool down = std::any_of(
              doc->degradations.begin(), doc->degradations.end(),
              [](const wire::Degradation& d) {
                return d.kind == wire::DegradationKind::kReplicaDown;
              });
          if (!down || doc->healthy)
            violations.push_back(
                "health oracle: no replica_down degradation right "
                "after killing replica " + std::to_string(e.replica));
          else
            ++report.health_degraded_seen;
        }
        manual_restarts.emplace_back(step + e.restart_after, e.replica);
      }
    }
    for (auto it = manual_restarts.begin(); it != manual_restarts.end();) {
      if (it->first <= step) {
        svc.restart_replica(it->second);
        it = manual_restarts.erase(it);
      } else {
        ++it;
      }
    }
    const Update& u = plan.feed[epoch.begin + step];
    const auto framed = wire::frame(wire::encode_update(u));
    for (const std::uint16_t port : ports) feeder.try_send_to(port, framed);
    if (epoch.dup_prob > 0 && rng.bernoulli(epoch.dup_prob)) {
      // The upgrade mode's pool is the phase-A prefix: updates the
      // replicas accepted under the OLD format, which the recovered v1
      // watermarks must drop.
      const Update& dup =
          epoch.dup_pool == 0
              ? u
              : plan.feed[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(epoch.dup_pool) - 1))];
      feeder.try_send_to(
          ports[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(ports.size()) - 1))],
          wire::frame(wire::encode_update(dup)));
      ++report.duplicate_resends;
    }
  }

  // Bring everyone back so the END markers land somewhere durable.
  for (std::size_t r = 0; r < plan.replicas; ++r) svc.restart_replica(r);
  if (epoch.end == plan.feed.size())
    deliver_ends(feeder, ports, condition_arity(plan.choice.kind), svc);
  (void)svc.await_idle(std::chrono::milliseconds{60},
                       std::chrono::milliseconds{5000});
  if (!plan.auto_restart && !epoch.kills.empty()) {
    // Health oracle, cleared half: every replica was restarted above,
    // so the degradation must be gone from a fresh document.
    ++report.health_scrapes;
    const auto doc = service::scrape_instance_health(
        svc.admin_port(), std::chrono::milliseconds{2000});
    if (!doc) {
      violations.push_back(
          "health oracle: admin health scrape failed after recovery");
    } else {
      for (const wire::Degradation& d : doc->degradations)
        if (d.kind == wire::DegradationKind::kReplicaDown)
          violations.push_back(
              "health oracle: replica_down degradation survived full "
              "recovery (" + d.detail + ")");
    }
  }
  draining.store(true, std::memory_order_release);
  svc.drain();
  for (std::thread& t : sub_threads) t.join();

  out.displayed = svc.displayed();
  out.provenance = svc.provenance();
  report.session_lag_alerts += svc.session_manager().lag_alerts().size();
  for (std::size_t r = 0; r < plan.replicas; ++r) {
    out.journals.push_back(svc.replica_journal(r));
    out.restarts += svc.replica_restarts(r);
  }
  return out;
}

// ---- crash mode --------------------------------------------------------

/// One single-service crash run: one epoch over the whole feed with
/// subscriber faults, then optionally the cross-restart replay leg.
RunOutcome run_crash_iteration(const RunPlan& plan, util::Rng& rng,
                               const std::filesystem::path& data_dir,
                               std::uint64_t subscriber_seed,
                               ServiceFuzzReport& report) {
  RunOutcome out;
  service::ServiceConfig config = make_config(plan, data_dir);
  const SessionFuzzPlan session_plan = make_session_plan(rng);
  if (session_plan.enabled) config.session_limits = session_plan.limits;
  std::vector<SubscriberLog> sub_logs(session_plan.subscribers.size());
  for (std::size_t s = 0; s < sub_logs.size(); ++s)
    sub_logs[s].plan = session_plan.subscribers[s];

  EpochResult run = run_epoch(
      plan,
      Epoch{.end = plan.feed.size(), .kills = plan.kills,
            .dup_prob = plan.dup_prob},
      std::move(config), rng, sub_logs, subscriber_seed, report,
      out.violations);
  out.kills = run.kills;
  out.restarts = run.restarts;
  out.displayed = run.displayed.size();
  out.detail = ": " + std::to_string(plan.feed.size()) + " updates, " +
               std::to_string(run.kills) + " kill(s), " +
               std::to_string(run.restarts) + " restart(s)";

  if (session_plan.enabled) ++report.runs_with_subscribers;
  for (const SubscriberLog& log : sub_logs) {
    for (const SessionConnLog& conn : log.conns) {
      if (conn.got_welcome) ++report.subscriber_conns;
      if (conn.killed) ++report.subscriber_kills;
      if (conn.evicted) ++report.session_evictions;
      if (conn.got_welcome &&
          conn.welcome.status == wire::SessionWelcomeStatus::kTruncated)
        ++report.session_truncations;
      if (conn.got_welcome &&
          conn.welcome.status == wire::SessionWelcomeStatus::kBadCursor)
        ++report.session_bad_cursors;
    }
  }

  const std::vector<Alert>& displayed = run.displayed;
  const std::vector<std::string> oracle =
      check_service_run(plan, plan.feed, std::move(run.journals), displayed,
                        run.provenance, run.kills);
  out.violations.insert(out.violations.end(), oracle.begin(), oracle.end());
  check_sessions(sub_logs, displayed, out.violations);

  // Cross-restart leg: reopen the same durable state and replay a
  // session cursor through the recovered log — both ends of the
  // session have now been killed, and the stream must still be
  // gap-free and content-identical.
  if (!session_plan.enabled || !session_plan.reopen ||
      !out.violations.empty())
    return out;
  ++report.service_reopens;
  service::ServiceConfig reopen = make_config(plan, data_dir);
  reopen.auto_restart = false;
  reopen.session_limits = session_plan.limits;
  service::AlertService svc{std::move(reopen)};
  SubscriberLog relog;
  relog.plan.id = "reopen";
  if (!displayed.empty())
    relog.next_needed = static_cast<std::uint64_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(displayed.size()) - 1));
  run_reopen_probe(svc.subscriber_port(), relog);
  svc.drain();
  std::vector<std::string> reopen_violations;
  check_sessions({relog}, displayed, reopen_violations);
  const bool welcomed =
      !relog.conns.empty() && relog.conns.front().got_welcome;
  const std::uint64_t log_end =
      welcomed ? relog.conns.front().welcome.log_end : 0;
  if (welcomed && log_end != displayed.size())
    reopen_violations.push_back(
        "reopened log end " + std::to_string(log_end) +
        " != first incarnation's displayed count " +
        std::to_string(displayed.size()) +
        " (durable alert log lost or invented entries)");
  if (relog.next_needed < log_end)
    reopen_violations.push_back("reopen replay stalled at index " +
                                std::to_string(relog.next_needed));
  for (std::string& v : reopen_violations)
    out.violations.push_back("reopen: " + std::move(v));
  return out;
}

// ---- upgrade mode ------------------------------------------------------

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  return std::vector<std::uint8_t>{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.good())
    throw std::runtime_error("upgrade-fuzz: cannot write " + path.string());
}

/// Rewrites one replica's durable files exactly as a v1 binary that
/// crashed between checkpoint rename and WAL truncate would have left
/// them: v1 snapshot, headerless WAL with `stale` already-checkpointed
/// records re-planted before the live tail (replay must drop them via
/// the recovered watermarks) and optionally a torn final frame, and a
/// headerless journal.
void transcode_replica_to_v1(const std::filesystem::path& dir,
                             const ConditionPtr& condition, std::size_t r,
                             util::Rng& rng, ServiceFuzzReport& report) {
  const std::vector<Update> journal =
      service::DurableReplica::read_journal(dir, r);

  const auto ckpt_path = service::DurableReplica::checkpoint_path(dir, r);
  if (std::filesystem::exists(ckpt_path)) {
    wire::FrameCursor cursor;
    cursor.feed(read_file(ckpt_path));
    cursor.finish();
    if (const auto payload = cursor.next()) {
      ConditionEvaluator ce{condition, "CE" + std::to_string(r + 1)};
      wire::decode_evaluator_state(*payload, ce);
      write_file(ckpt_path,
                 wire::frame(wire::legacy::encode_evaluator_state_v1(ce)));
      ++report.transcoded_files;
    }
  }

  const auto wal_path = service::DurableReplica::wal_path(dir, r);
  const store::RecoveredUpdates wal = store::recover_updates(wal_path);
  std::set<std::pair<VarId, SeqNo>> in_wal;
  for (const Update& u : wal.updates) in_wal.emplace(u.var, u.seqno);
  std::vector<Update> v1_records;
  const std::size_t want_stale =
      static_cast<std::size_t>(rng.uniform_int(0, 5));
  for (auto it = journal.rbegin();
       it != journal.rend() && v1_records.size() < want_stale; ++it) {
    if (!in_wal.contains({it->var, it->seqno})) v1_records.push_back(*it);
  }
  std::reverse(v1_records.begin(), v1_records.end());
  report.stale_wal_records += v1_records.size();
  v1_records.insert(v1_records.end(), wal.updates.begin(), wal.updates.end());
  std::vector<std::uint8_t> wal_bytes =
      wire::legacy::encode_update_log_v1(v1_records);
  if (!journal.empty() && rng.bernoulli(0.5)) {
    const auto torn = wire::frame(wire::encode_update(journal.back()));
    const std::size_t cut = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(torn.size()) - 1));
    wal_bytes.insert(wal_bytes.end(), torn.begin(), torn.begin() + cut);
    ++report.torn_tails_injected;
  }
  write_file(wal_path, wal_bytes);
  ++report.transcoded_files;

  write_file(service::DurableReplica::journal_path(dir, r),
             wire::legacy::encode_update_log_v1(journal));
  ++report.transcoded_files;
}

/// Direct codec checks at the version boundary, on the state replica 0
/// actually reached: unknown skippable extensions, old-reader rejection
/// of new bytes, and typed rejection of a future major.
std::vector<std::string> forward_compat_checks(
    const ConditionPtr& condition, const std::vector<Update>& journal) {
  std::vector<std::string> violations;
  ConditionEvaluator ce{condition, "CE1"};
  for (const Update& u : journal) ce.replay_update(u);
  const std::vector<std::uint8_t> v2 = wire::encode_evaluator_state(ce);

  // 1. A v(N+1) writer adding an unknown skippable extension must not
  // change what a v(N=current) reader recovers. The current encoding
  // ends with an empty extension section (a single 0x00 count); replace
  // it with one unknown entry.
  {
    std::vector<std::uint8_t> extended{v2.begin(), v2.end() - 1};
    wire::Writer w;
    w.varint(1);
    w.u8(0x7E);  // tag no current reader knows
    const std::uint8_t blob[] = {0xDE, 0xAD, 0xBE};
    w.varint(std::size(blob));
    w.raw(blob);
    const auto section = w.take();
    extended.insert(extended.end(), section.begin(), section.end());
    try {
      ConditionEvaluator got{condition, "CE1"};
      wire::decode_evaluator_state(extended, got);
      if (wire::encode_evaluator_state(got) != v2)
        violations.push_back(
            "snapshot with unknown extension decoded to different state");
    } catch (const wire::DecodeError&) {
      violations.push_back(
          "snapshot with unknown skippable extension was rejected");
    }
  }

  // 2. A simulated v1 reader must reject v2 bytes cleanly (DecodeError,
  // not a misparse into bogus state).
  try {
    ConditionEvaluator old_reader{condition, "CE1"};
    wire::legacy::decode_evaluator_state_v1(v2, old_reader);
    violations.push_back("v1 reader accepted v2 snapshot bytes");
  } catch (const wire::DecodeError&) {
  }

  // 3. A future major must be rejected with the TYPED error so callers
  // can distinguish "upgrade me" from "corrupt file".
  {
    std::vector<std::uint8_t> future = v2;
    future[1] = 99;  // major byte of the version header
    try {
      ConditionEvaluator got{condition, "CE1"};
      wire::decode_evaluator_state(future, got);
      violations.push_back("major-99 snapshot was accepted");
    } catch (const wire::UnsupportedVersion&) {
    } catch (const wire::DecodeError&) {
      violations.push_back(
          "major-99 snapshot rejected with untyped DecodeError");
    }
  }

  // 4. v1 bytes written by the legacy encoder must round-trip through
  // the current reader to the same state the current encoder describes.
  try {
    ConditionEvaluator got{condition, "CE1"};
    wire::decode_evaluator_state(wire::legacy::encode_evaluator_state_v1(ce),
                                 got);
    if (wire::encode_evaluator_state(got) != v2)
      violations.push_back("v1 snapshot round-trip changed evaluator state");
  } catch (const wire::DecodeError&) {
    violations.push_back("current reader rejected v1 snapshot bytes");
  }
  return violations;
}


/// One upgrade run: phase A over the first half of the feed, the v1
/// transcode, then phase B over the rest with the plan's kills remapped
/// onto it, checked by the crash oracle over both phases.
RunOutcome run_upgrade_iteration(const RunPlan& plan, util::Rng& rng,
                                 const std::filesystem::path& data_dir,
                                 ServiceFuzzReport& report) {
  RunOutcome out;
  const ConditionPtr condition =
      build_condition(plan.choice.kind, plan.choice.param);
  // The feed splits at the upgrade point: phase A is the v1 epoch,
  // phase B everything after the binary swap.
  const std::size_t split = plan.feed.size() / 2;
  const std::size_t phase_b_len = plan.feed.size() - split;
  std::vector<SubscriberLog> no_subscribers;

  // Phase A stops mid-feed, so it drains without ENDs: the DM streams
  // continue in phase B.
  EpochResult phase_a =
      run_epoch(plan, Epoch{.end = split}, make_config(plan, data_dir), rng,
                no_subscribers, 0, report, out.violations);

  for (std::size_t r = 0; r < plan.replicas; ++r)
    transcode_replica_to_v1(data_dir, condition, r, rng, report);
  const std::vector<std::string> compat = forward_compat_checks(
      condition, service::DurableReplica::read_journal(data_dir, 0));
  out.violations.insert(out.violations.end(), compat.begin(), compat.end());

  // The phase-B kill schedule reuses the plan's kills, remapped onto
  // the post-upgrade half of the feed.
  std::vector<KillEvent> kills = plan.kills;
  for (KillEvent& e : kills) e.at_step %= phase_b_len;
  std::sort(kills.begin(), kills.end(),
            [](const KillEvent& a, const KillEvent& b) {
              return a.at_step < b.at_step;
            });
  EpochResult phase_b = run_epoch(
      plan,
      Epoch{.begin = split, .end = plan.feed.size(), .kills = std::move(kills),
            .dup_prob = split > 0 ? 0.1 : 0.0, .dup_pool = split},
      make_config(plan, data_dir), rng, no_subscribers, 0, report,
      out.violations);

  out.kills = phase_a.kills + phase_b.kills;
  out.restarts = phase_a.restarts + phase_b.restarts;
  out.detail = ": " + std::to_string(split) + "+" +
               std::to_string(phase_b_len) + " updates, " +
               std::to_string(out.kills) + " kill(s), " +
               std::to_string(out.restarts) + " restart(s)";

  // The service restart at the boundary starts a fresh (volatile) AD
  // ledger, so the displayed sequence is two displayer incarnations —
  // ledger-backed guarantees are per epoch.
  std::vector<std::size_t> epochs{phase_a.displayed.size(),
                                  phase_b.displayed.size()};
  std::vector<Alert> displayed = std::move(phase_a.displayed);
  displayed.insert(displayed.end(), phase_b.displayed.begin(),
                   phase_b.displayed.end());
  std::vector<AlertProvenance> provenance = std::move(phase_a.provenance);
  provenance.insert(provenance.end(), phase_b.provenance.begin(),
                    phase_b.provenance.end());
  out.displayed = displayed.size();
  const std::vector<std::string> oracle = check_service_run(
      plan, plan.feed, std::move(phase_b.journals), std::move(displayed),
      provenance, out.kills, std::move(epochs));
  out.violations.insert(out.violations.end(), oracle.begin(), oracle.end());
  return out;
}

}  // namespace

ServiceFuzzReport run_service_fuzz(const ServiceFuzzOptions& options) {
  const bool upgrade = options.mode == ServiceFuzzMode::kUpgrade;
  const char* const mode_name = upgrade ? "upgrade-fuzz" : "service-fuzz";
  ServiceFuzzReport report;
  const std::filesystem::path scratch =
      options.scratch_dir.empty()
          ? std::filesystem::temp_directory_path() /
                (upgrade ? "rcm_upgrade_fuzz" : "rcm_service_fuzz")
          : options.scratch_dir;
  std::filesystem::create_directories(scratch);

  for (std::size_t i = 0; i < options.runs; ++i) {
    util::Rng rng = util::Rng::derive(options.seed, i);
    const RunPlan plan = make_service_plan(rng);
    const std::filesystem::path data_dir =
        scratch / ("run-" + std::to_string(options.seed) + "-" +
                   std::to_string(i));
    std::filesystem::remove_all(data_dir);

    const RunOutcome out =
        upgrade ? run_upgrade_iteration(plan, rng, data_dir, report)
                : run_crash_iteration(plan, rng, data_dir,
                                      options.seed * 1000003 + i * 31,
                                      report);

    ++report.runs_executed;
    report.total_kills += out.kills;
    report.total_restarts += out.restarts;
    if (out.kills > 0) ++report.runs_with_kills;
    if (out.displayed > 0) ++report.runs_with_alerts;
    if (options.verbose)
      std::printf("%s run %zu%s%s\n", mode_name, i, out.detail.c_str(),
                  out.violations.empty() ? "" : "  ** VIOLATION **");
    if (out.violations.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);  // clean run: no debris
    } else {
      for (const std::string& v : out.violations)
        report.violations.push_back(
            ServiceFuzzViolation{i, options.seed, v, data_dir});
    }
  }
  return report;
}

}  // namespace rcm::swarm
