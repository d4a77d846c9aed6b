#include "swarm/service_fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include <map>

#include "net/socket.hpp"
#include "service/alert_service.hpp"
#include "service/health.hpp"
#include "service/shard_cluster.hpp"
#include "service/shard_ring.hpp"
#include "swarm/fuzz_plan.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/session.hpp"
#include "wire/shard.hpp"

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

// ---- sharded-cluster fuzz leg -----------------------------------------

struct ShardedRunStats {
  std::size_t kills = 0;
  std::size_t reshards = 0;
  bool cross_shard = false;
};

/// Feeder-side router rebuilt from the WIRE shard map exactly the way an
/// external feeder would (encode → decode → ring from ids/vnodes), so the
/// fuzz exercises the distributed-map path, not in-process shortcuts.
struct MapRouter {
  service::ShardRing ring{service::kDefaultVnodes};
  std::map<std::uint32_t, std::vector<std::uint16_t>> ports;

  void rebuild(const wire::ShardMap& map) {
    ring = service::ShardRing{map.shards.empty()
                                  ? service::kDefaultVnodes
                                  : map.shards.front().vnodes};
    ports.clear();
    for (const wire::ShardMapEntry& e : map.shards) {
      ring.add_shard(e.shard_id);
      ports[e.shard_id] = e.replica_ports;
    }
  }
};

/// One sharded iteration: route the plan's feed through the shard map,
/// fire the plan's kills at random shard/merge replicas, apply 0-2
/// mid-run reshard events, then run the standard oracle over the union
/// of every journal the cluster ever wrote (partial shards journal only
/// their owned variables, so multi-shard runs classify as the condition's
/// lossy row — exactly the paper cell a sharded front presents).
std::vector<std::string> run_sharded_iteration(
    const RunPlan& plan, util::Rng& rng,
    const std::filesystem::path& data_dir, ShardedRunStats& stats,
    std::size_t& displayed_count) {
  const std::size_t arity = condition_arity(plan.choice.kind);

  service::ShardClusterConfig config;
  config.condition = build_condition(plan.choice.kind, plan.choice.param);
  config.filter = plan.filter;
  config.num_shards = static_cast<std::size_t>(rng.uniform_int(2, 3));
  config.replicas_per_shard = plan.replicas > 1 ? 2 : 1;
  config.merge_replicas = 1;
  config.data_dir = data_dir;
  config.checkpoint_every = plan.checkpoint_every;
  config.record_journal = true;
  // Reshard interplay with manual-restart schedules is not modelled:
  // sharded runs always self-heal killed replicas.
  config.auto_restart = true;
  config.backoff.initial = std::chrono::milliseconds{1};
  config.backoff.max = std::chrono::milliseconds{50};
  config.backoff.reset_after = std::chrono::milliseconds{1};
  config.poll_interval = std::chrono::milliseconds{5};

  service::ShardedCluster cluster{std::move(config)};
  stats.cross_shard = cluster.cross_shard();

  // 0-2 reshard events in the middle half of the feed, where updates are
  // in flight on both sides of the handoff.
  std::vector<std::size_t> reshard_steps;
  const std::size_t n_reshards =
      static_cast<std::size_t>(rng.uniform_int(0, 2));
  const std::size_t lo = plan.feed.size() / 4;
  const std::size_t span = std::max<std::size_t>(1, plan.feed.size() / 2);
  for (std::size_t k = 0; k < n_reshards; ++k)
    reshard_steps.push_back(lo + static_cast<std::size_t>(rng.uniform_int(
                                     0, static_cast<std::int64_t>(span))));
  std::sort(reshard_steps.begin(), reshard_steps.end());
  std::uint32_t next_shard_id =
      static_cast<std::uint32_t>(cluster.config().num_shards);

  MapRouter router;
  const auto refresh_router = [&] {
    router.rebuild(wire::decode_shard_map(
        wire::encode_shard_map(cluster.shard_map())));
  };
  refresh_router();

  net::UdpSocket feeder;
  std::size_t next_kill = 0;
  std::size_t next_reshard = 0;
  for (std::size_t step = 0; step < plan.feed.size(); ++step) {
    while (next_reshard < reshard_steps.size() &&
           reshard_steps[next_reshard] <= step) {
      ++next_reshard;
      const std::vector<std::uint32_t> ids = cluster.shard_ids();
      if (ids.size() <= 1 || rng.bernoulli(0.5)) {
        cluster.add_shard(next_shard_id++);
      } else {
        cluster.remove_shard(ids[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ids.size()) - 1))]);
      }
      ++stats.reshards;
      refresh_router();
    }
    while (next_kill < plan.kills.size() &&
           plan.kills[next_kill].at_step == step) {
      const KillEvent& e = plan.kills[next_kill++];
      // Usually a shard replica, sometimes the merge tier itself (its
      // downtime loses forwards — the same lossy front link).
      service::AlertService* target = cluster.merge();
      if (!target || !rng.bernoulli(0.25)) {
        const std::vector<std::uint32_t> ids = cluster.shard_ids();
        target = &cluster.shard(ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))]);
      }
      target->kill_replica(e.replica % target->config().num_replicas);
      ++stats.kills;
    }
    const Update& u = plan.feed[step];
    const auto framed = wire::frame(wire::encode_update(u));
    const auto& owner_ports = router.ports.at(router.ring.owner(u.var));
    for (const std::uint16_t port : owner_ports)
      feeder.try_send_to(port, framed);
    if (plan.dup_prob > 0 && rng.bernoulli(plan.dup_prob))
      feeder.try_send_to(
          owner_ports[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(owner_ports.size()) - 1))],
          framed);
  }

  // ENDs go everywhere: each shard closes its DM streams, and the merge
  // tier hears the ENDs directly (on_accept only forwards updates).
  for (int attempt = 0; attempt < 40; ++attempt) {
    for (std::size_t var = 0; var < arity; ++var) {
      const auto end = wire::frame(wire::encode_end_marker(var));
      for (const auto& [id, ports] : router.ports)
        for (const std::uint16_t port : ports)
          feeder.try_send_to(port, end);
      if (service::AlertService* merge = cluster.merge())
        for (const std::uint16_t port : merge->replica_ports())
          feeder.try_send_to(port, end);
    }
    if (cluster.evaluating_service().await_dm_ends(
            arity, std::chrono::milliseconds{100}))
      break;
  }
  (void)cluster.await_idle(std::chrono::milliseconds{60},
                           std::chrono::milliseconds{5000});
  cluster.drain();

  const std::vector<Alert> displayed = cluster.displayed();
  displayed_count = displayed.size();
  return check_service_run(plan, plan.feed, cluster.journals(), displayed,
                           cluster.provenance(), stats.kills,
                           cluster.displayer_epochs());
}

}  // namespace

ServiceFuzzReport run_service_fuzz(const ServiceFuzzOptions& options) {
  ServiceFuzzReport report;
  const std::filesystem::path scratch =
      options.scratch_dir.empty()
          ? std::filesystem::temp_directory_path() / "rcm_service_fuzz"
          : options.scratch_dir;
  std::filesystem::create_directories(scratch);

  for (std::size_t i = 0; i < options.runs; ++i) {
    util::Rng rng = util::Rng::derive(options.seed, i);
    const RunPlan plan = make_service_plan(rng);
    const std::size_t arity = condition_arity(plan.choice.kind);
    const std::filesystem::path data_dir =
        scratch / ("run-" + std::to_string(options.seed) + "-" +
                   std::to_string(i));
    std::filesystem::remove_all(data_dir);

    if (rng.bernoulli(options.sharded_fraction)) {
      ShardedRunStats stats;
      std::size_t displayed_count = 0;
      const std::vector<std::string> violations =
          run_sharded_iteration(plan, rng, data_dir, stats, displayed_count);
      ++report.runs_executed;
      ++report.sharded_runs;
      if (stats.cross_shard) ++report.cross_shard_runs;
      report.shard_reshards += stats.reshards;
      report.shard_kills += stats.kills;
      report.total_kills += stats.kills;
      if (stats.kills > 0) ++report.runs_with_kills;
      if (displayed_count > 0) ++report.runs_with_alerts;
      if (options.verbose)
        std::printf("service-fuzz run %zu (sharded%s): %zu updates, "
                    "%zu kill(s), %zu reshard(s)%s\n",
                    i, stats.cross_shard ? ", cross-shard" : "",
                    plan.feed.size(), stats.kills, stats.reshards,
                    violations.empty() ? "" : "  ** VIOLATION **");
      if (violations.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(data_dir, ec);
      } else {
        for (const std::string& v : violations)
          report.violations.push_back(
              ServiceFuzzViolation{i, options.seed, v, data_dir});
      }
      continue;
    }

    service::ServiceConfig config;
    config.condition = build_condition(plan.choice.kind, plan.choice.param);
    config.num_replicas = plan.replicas;
    config.filter = plan.filter;
    config.data_dir = data_dir;
    config.checkpoint_every = plan.checkpoint_every;
    config.record_journal = true;
    config.auto_restart = plan.auto_restart;
    config.backoff.initial = std::chrono::milliseconds{1};
    config.backoff.max = std::chrono::milliseconds{50};
    config.backoff.reset_after = std::chrono::milliseconds{1};
    config.poll_interval = std::chrono::milliseconds{5};

    const SessionFuzzPlan session_plan = options.subscriber_faults
                                             ? make_session_plan(rng)
                                             : SessionFuzzPlan{};
    if (session_plan.enabled) config.session_limits = session_plan.limits;
    std::vector<SubscriberLog> sub_logs(session_plan.subscribers.size());
    for (std::size_t s = 0; s < sub_logs.size(); ++s)
      sub_logs[s].plan = session_plan.subscribers[s];

    std::size_t kills_done = 0;
    std::vector<std::vector<Update>> journals;
    std::vector<Alert> displayed;
    std::vector<AlertProvenance> provenance;
    std::size_t restarts = 0;
    std::size_t lag_alerts = 0;
    std::size_t health_scrapes = 0;
    std::size_t health_degraded = 0;
    std::vector<std::string> health_violations;
    {
      service::AlertService svc{std::move(config)};
      const std::vector<std::uint16_t> ports = svc.replica_ports();
      net::UdpSocket feeder;

      std::atomic<bool> draining{false};
      std::vector<std::thread> sub_threads;
      for (std::size_t s = 0; s < sub_logs.size(); ++s)
        sub_threads.emplace_back(run_subscriber_agent, svc.subscriber_port(),
                                 options.seed * 1000003 + i * 31 + s,
                                 std::cref(draining), std::ref(sub_logs[s]));

      // (step -> pending manual restarts) computed as we go.
      std::vector<std::pair<std::size_t, std::size_t>> manual_restarts;
      std::size_t next_kill = 0;
      for (std::size_t step = 0; step < plan.feed.size(); ++step) {
        while (next_kill < plan.kills.size() &&
               plan.kills[next_kill].at_step == step) {
          const KillEvent& e = plan.kills[next_kill++];
          svc.kill_replica(e.replica);
          ++kills_done;
          if (!plan.auto_restart) {
            // Health oracle, degraded half: with no auto-restart racing
            // us, the admin health document scraped right after the kill
            // must carry a replica-down degradation.
            ++health_scrapes;
            const auto doc = service::scrape_instance_health(
                svc.admin_port(), std::chrono::milliseconds{2000});
            if (!doc) {
              health_violations.push_back(
                  "health oracle: admin health scrape failed after kill");
            } else {
              const bool down = std::any_of(
                  doc->degradations.begin(), doc->degradations.end(),
                  [](const wire::Degradation& d) {
                    return d.kind == wire::DegradationKind::kReplicaDown;
                  });
              if (!down || doc->healthy)
                health_violations.push_back(
                    "health oracle: no replica_down degradation right "
                    "after killing replica " + std::to_string(e.replica));
              else
                ++health_degraded;
            }
            manual_restarts.emplace_back(step + e.restart_after, e.replica);
          }
        }
        for (auto it = manual_restarts.begin();
             it != manual_restarts.end();) {
          if (it->first <= step) {
            svc.restart_replica(it->second);
            it = manual_restarts.erase(it);
          } else {
            ++it;
          }
        }
        const auto framed =
            wire::frame(wire::encode_update(plan.feed[step]));
        for (const std::uint16_t port : ports)
          feeder.try_send_to(port, framed);
        if (plan.dup_prob > 0 && rng.bernoulli(plan.dup_prob))
          feeder.try_send_to(
              ports[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(ports.size()) - 1))],
              framed);
      }

      // Bring everyone back so the END markers land somewhere durable,
      // then repeat them (idempotent) until the service has them all.
      for (std::size_t r = 0; r < plan.replicas; ++r) svc.restart_replica(r);
      for (int attempt = 0; attempt < 40; ++attempt) {
        for (std::size_t var = 0; var < arity; ++var) {
          const auto end = wire::frame(wire::encode_end_marker(var));
          for (const std::uint16_t port : ports)
            feeder.try_send_to(port, end);
        }
        if (svc.await_dm_ends(arity, std::chrono::milliseconds{100})) break;
      }
      (void)svc.await_idle(std::chrono::milliseconds{60},
                           std::chrono::milliseconds{5000});
      if (!plan.auto_restart && !plan.kills.empty()) {
        // Health oracle, cleared half: every replica was restarted above,
        // so the degradation must be gone from a fresh document.
        ++health_scrapes;
        const auto doc = service::scrape_instance_health(
            svc.admin_port(), std::chrono::milliseconds{2000});
        if (!doc) {
          health_violations.push_back(
              "health oracle: admin health scrape failed after recovery");
        } else {
          for (const wire::Degradation& d : doc->degradations)
            if (d.kind == wire::DegradationKind::kReplicaDown)
              health_violations.push_back(
                  "health oracle: replica_down degradation survived full "
                  "recovery (" + d.detail + ")");
        }
      }
      draining.store(true, std::memory_order_release);
      svc.drain();
      for (std::thread& t : sub_threads) t.join();

      displayed = svc.displayed();
      provenance = svc.provenance();
      lag_alerts = svc.session_manager().lag_alerts().size();
      for (std::size_t r = 0; r < plan.replicas; ++r) {
        journals.push_back(svc.replica_journal(r));
        restarts += svc.replica_restarts(r);
      }
    }

    ++report.runs_executed;
    report.total_kills += kills_done;
    report.total_restarts += restarts;
    if (kills_done > 0) ++report.runs_with_kills;
    if (!displayed.empty()) ++report.runs_with_alerts;
    if (session_plan.enabled) ++report.runs_with_subscribers;
    report.session_lag_alerts += lag_alerts;
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

    report.health_scrapes += health_scrapes;
    report.health_degraded_seen += health_degraded;

    std::vector<std::string> violations = check_service_run(
        plan, plan.feed, std::move(journals), displayed, provenance,
        kills_done);
    check_sessions(sub_logs, displayed, violations);
    violations.insert(violations.end(), health_violations.begin(),
                      health_violations.end());

    // Cross-restart leg: reopen the same durable state and replay a
    // session cursor through the recovered log — both ends of the
    // session have now been killed, and the stream must still be
    // gap-free and content-identical.
    if (session_plan.enabled && session_plan.reopen && violations.empty()) {
      ++report.service_reopens;
      service::ServiceConfig config2;
      config2.condition =
          build_condition(plan.choice.kind, plan.choice.param);
      config2.num_replicas = plan.replicas;
      config2.filter = plan.filter;
      config2.data_dir = data_dir;
      config2.auto_restart = false;
      config2.session_limits = session_plan.limits;
      config2.poll_interval = std::chrono::milliseconds{5};
      service::AlertService svc2{std::move(config2)};
      SubscriberLog relog;
      relog.plan.id = "reopen";
      if (!displayed.empty())
        relog.next_needed = static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(displayed.size()) - 1));
      run_reopen_probe(svc2.subscriber_port(), relog);
      svc2.drain();
      std::vector<std::string> reopen_violations;
      check_sessions({relog}, displayed, reopen_violations);
      if (!relog.conns.empty() && relog.conns.front().got_welcome &&
          relog.conns.front().welcome.log_end != displayed.size())
        reopen_violations.push_back(
            "reopened log end " +
            std::to_string(relog.conns.front().welcome.log_end) +
            " != first incarnation's displayed count " +
            std::to_string(displayed.size()) +
            " (durable alert log lost or invented entries)");
      if (relog.next_needed <
          (relog.conns.empty() || !relog.conns.front().got_welcome
               ? std::uint64_t{0}
               : relog.conns.front().welcome.log_end))
        reopen_violations.push_back(
            "reopen replay stalled at index " +
            std::to_string(relog.next_needed));
      for (std::string& v : reopen_violations)
        violations.push_back("reopen: " + std::move(v));
    }

    if (options.verbose) {
      std::printf("service-fuzz run %zu: %zu updates, %zu kill(s), "
                  "%zu restart(s)%s\n",
                  i, plan.feed.size(), kills_done, restarts,
                  violations.empty() ? "" : "  ** VIOLATION **");
    }
    if (violations.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);  // clean run: no debris
    } else {
      for (const std::string& v : violations)
        report.violations.push_back(
            ServiceFuzzViolation{i, options.seed, v, data_dir});
    }
  }
  return report;
}

}  // namespace rcm::swarm
