#include "swarm/upgrade_fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <utility>

#include "core/evaluator.hpp"
#include "net/socket.hpp"
#include "service/alert_service.hpp"
#include "service/durable_replica.hpp"
#include "store/file_log.hpp"
#include "swarm/fuzz_plan.hpp"
#include "util/rng.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/legacy.hpp"
#include "wire/snapshot.hpp"
#include "wire/version.hpp"

namespace rcm::swarm {
namespace {

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
                             util::Rng& rng, UpgradeFuzzReport& report) {
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
  config.backoff.initial = std::chrono::milliseconds{1};
  config.backoff.max = std::chrono::milliseconds{50};
  config.backoff.reset_after = std::chrono::milliseconds{1};
  config.poll_interval = std::chrono::milliseconds{5};
  return config;
}

}  // namespace

UpgradeFuzzReport run_upgrade_fuzz(const UpgradeFuzzOptions& options) {
  UpgradeFuzzReport report;
  const std::filesystem::path scratch =
      options.scratch_dir.empty()
          ? std::filesystem::temp_directory_path() / "rcm_upgrade_fuzz"
          : options.scratch_dir;
  std::filesystem::create_directories(scratch);

  for (std::size_t i = 0; i < options.runs; ++i) {
    util::Rng rng = util::Rng::derive(options.seed, i);
    const RunPlan plan = make_service_plan(rng);
    const std::size_t arity = condition_arity(plan.choice.kind);
    const ConditionPtr condition =
        build_condition(plan.choice.kind, plan.choice.param);
    const std::filesystem::path data_dir =
        scratch / ("run-" + std::to_string(options.seed) + "-" +
                   std::to_string(i));
    std::filesystem::remove_all(data_dir);

    // The feed splits at the upgrade point: phase A is the v1 epoch,
    // phase B everything after the binary swap.
    const std::size_t split = plan.feed.size() / 2;
    const std::size_t phase_b_len = plan.feed.size() - split;

    std::size_t kills_done = 0;
    std::size_t restarts = 0;
    std::vector<Alert> displayed;
    std::vector<AlertProvenance> provenance;
    std::vector<std::vector<Update>> journals;

    // ---- phase A: build the pre-upgrade epoch, then drain cleanly ----
    {
      service::AlertService svc{make_config(plan, data_dir)};
      const std::vector<std::uint16_t> ports = svc.replica_ports();
      net::UdpSocket feeder;
      for (std::size_t step = 0; step < split; ++step) {
        const auto framed = wire::frame(wire::encode_update(plan.feed[step]));
        for (const std::uint16_t port : ports)
          feeder.try_send_to(port, framed);
      }
      (void)svc.await_idle(std::chrono::milliseconds{60},
                           std::chrono::milliseconds{5000});
      svc.drain();
      const auto shown = svc.displayed();
      displayed.insert(displayed.end(), shown.begin(), shown.end());
      const auto prov = svc.provenance();
      provenance.insert(provenance.end(), prov.begin(), prov.end());
      for (std::size_t r = 0; r < plan.replicas; ++r)
        restarts += svc.replica_restarts(r);
    }
    const std::size_t phase_a_displayed = displayed.size();

    // ---- transcode: back-date every durable file to the v1 format ----
    for (std::size_t r = 0; r < plan.replicas; ++r)
      transcode_replica_to_v1(data_dir, condition, r, rng, report);

    std::vector<std::string> violations = forward_compat_checks(
        condition, service::DurableReplica::read_journal(data_dir, 0));

    // The phase-B kill schedule reuses the plan's kills, remapped onto
    // the post-upgrade half of the feed.
    std::vector<KillEvent> kills;
    for (const KillEvent& e : plan.kills) {
      KillEvent mapped = e;
      mapped.at_step = e.at_step % phase_b_len;
      kills.push_back(mapped);
    }
    std::sort(kills.begin(), kills.end(),
              [](const KillEvent& a, const KillEvent& b) {
                return a.at_step < b.at_step;
              });

    // ---- phase B: the upgraded binary over the v1 state ----
    {
      service::AlertService svc{make_config(plan, data_dir)};
      const std::vector<std::uint16_t> ports = svc.replica_ports();
      net::UdpSocket feeder;
      std::vector<std::pair<std::size_t, std::size_t>> manual_restarts;
      std::size_t next_kill = 0;
      for (std::size_t step = 0; step < phase_b_len; ++step) {
        while (next_kill < kills.size() &&
               kills[next_kill].at_step == step) {
          const KillEvent& e = kills[next_kill++];
          svc.kill_replica(e.replica);
          ++kills_done;
          if (!plan.auto_restart)
            manual_restarts.emplace_back(step + e.restart_after, e.replica);
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
            wire::frame(wire::encode_update(plan.feed[split + step]));
        for (const std::uint16_t port : ports)
          feeder.try_send_to(port, framed);
        // Cross-version duplicate: resend a phase-A update the replicas
        // accepted under the OLD format. The recovered v1 watermarks
        // must drop it; a regression shows up as a journal-monotonicity
        // violation.
        if (split > 0 && rng.bernoulli(0.1)) {
          const Update& dup = plan.feed[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(split) - 1))];
          feeder.try_send_to(
              ports[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(ports.size()) - 1))],
              wire::frame(wire::encode_update(dup)));
          ++report.duplicate_resends;
        }
      }

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
      svc.drain();

      const auto shown = svc.displayed();
      displayed.insert(displayed.end(), shown.begin(), shown.end());
      const auto prov = svc.provenance();
      provenance.insert(provenance.end(), prov.begin(), prov.end());
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

    // Same oracle as the crash fuzz, over the concatenated observables
    // of both version epochs. The service restart at the boundary starts
    // a fresh (volatile) AD ledger, so the displayed sequence is two
    // displayer incarnations — ledger-backed guarantees are per epoch.
    std::vector<std::size_t> epochs{phase_a_displayed,
                                    displayed.size() - phase_a_displayed};
    const std::vector<std::string> oracle = check_service_run(
        plan, plan.feed, std::move(journals), std::move(displayed),
        provenance, kills_done, std::move(epochs));
    violations.insert(violations.end(), oracle.begin(), oracle.end());
    if (options.verbose) {
      std::printf("upgrade-fuzz run %zu: %zu+%zu updates, %zu kill(s), "
                  "%zu restart(s)%s\n",
                  i, split, phase_b_len, kills_done, restarts,
                  violations.empty() ? "" : "  ** VIOLATION **");
    }
    if (violations.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);  // clean run: no debris
    } else {
      for (const std::string& v : violations)
        report.violations.push_back(
            UpgradeFuzzViolation{i, options.seed, v, data_dir});
    }
  }
  return report;
}

}  // namespace rcm::swarm
