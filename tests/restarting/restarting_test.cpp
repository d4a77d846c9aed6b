// Mixed-version restarting tests (ctest label `restarting`): the
// checked-in v1 corpus is installed as a replica data directory and
// recovered by the CURRENT binary — cold, live under kills, and over
// the admin socket — plus the forward-compatibility direction, where
// output of the current encoders must degrade cleanly in the hands of
// an older (simulated v1) reader.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "core/evaluator.hpp"
#include "net/socket.hpp"
#include "service/admin.hpp"
#include "service/alert_service.hpp"
#include "service/durable_replica.hpp"
#include "store/file_log.hpp"
#include "v1_corpus.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/legacy.hpp"
#include "wire/snapshot.hpp"
#include "wire/version.hpp"

namespace rcm::testing {
namespace {

using namespace std::chrono_literals;

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("rcm_restarting_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

std::map<std::string, std::vector<std::uint8_t>> corpus_by_name() {
  std::map<std::string, std::vector<std::uint8_t>> map;
  for (V1Fixture& fixture : build_v1_corpus())
    map.emplace(std::move(fixture.name), std::move(fixture.bytes));
  return map;
}

/// Installs the corpus as replica `index`'s data files: a v1 binary's
/// checkpoint, its torn WAL, and its journal.
void install_v1_replica(const std::filesystem::path& dir,
                        std::size_t index) {
  const auto corpus = corpus_by_name();
  write_file(service::DurableReplica::checkpoint_path(dir, index),
             corpus.at("snapshot.v1.bin"));
  write_file(service::DurableReplica::wal_path(dir, index),
             corpus.at("wal_torn_tail.v1.bin"));
  write_file(service::DurableReplica::journal_path(dir, index),
             corpus.at("journal.v1.bin"));
}

/// State an evaluator reaches accepting the first `n` corpus updates.
std::vector<std::uint8_t> reference_state(std::size_t n) {
  ConditionEvaluator ce{corpus_condition()};
  const std::vector<Update> updates = corpus_updates();
  for (std::size_t i = 0; i < n; ++i) (void)ce.on_update(updates[i]);
  return wire::encode_evaluator_state(ce);
}

TEST(Restarting, V1DataDirRecoversThroughCurrentBinary) {
  const auto dir = fresh_dir("recover");
  install_v1_replica(dir, 0);

  service::DurabilityOptions opts;
  opts.dir = dir;
  opts.checkpoint_every = 0;
  service::DurableReplica replica{corpus_condition(), 0, opts};

  // Checkpoint (1..6) + WAL prefix (7..9); the torn seqno-10 frame is
  // detected, counted, and dropped.
  EXPECT_TRUE(replica.recovery().had_checkpoint);
  EXPECT_EQ(replica.recovery().wal_replayed, corpus_walled());
  EXPECT_GE(replica.recovery().corrupt_frames, 1u);
  EXPECT_EQ(wire::encode_evaluator_state(replica.evaluator()),
            reference_state(corpus_checkpointed() + corpus_walled()));
}

TEST(Restarting, RecoveryMigratesTheDirToVersionedFormats) {
  const auto dir = fresh_dir("migrate");
  install_v1_replica(dir, 0);

  service::DurabilityOptions opts;
  opts.dir = dir;
  opts.checkpoint_every = 0;
  {
    service::DurableReplica replica{corpus_condition(), 0, opts};
    ASSERT_GT(replica.recovery().wal_replayed, 0u);
    // The recovery compaction checkpoint rewrites both files in the
    // CURRENT format — this is the rolling upgrade happening.
  }
  std::ifstream ckpt{service::DurableReplica::checkpoint_path(dir, 0),
                     std::ios::binary};
  std::vector<std::uint8_t> ckpt_bytes{std::istreambuf_iterator<char>(ckpt),
                                       std::istreambuf_iterator<char>()};
  wire::FrameCursor cursor;
  cursor.feed(ckpt_bytes);
  cursor.finish();
  const auto payload = cursor.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ((*payload)[0], 0x53);  // versioned 'S' snapshot, not v1 's'

  const store::RecoveredUpdates wal = store::recover_updates(
      service::DurableReplica::wal_path(dir, 0));
  EXPECT_TRUE(wal.versioned);
  EXPECT_EQ(wal.version, store::kLogFormatVersion);
  EXPECT_TRUE(wal.updates.empty());  // truncated by the compaction

  // Second restart: pure checkpoint load of the SAME state.
  service::DurableReplica again{corpus_condition(), 0, opts};
  EXPECT_TRUE(again.recovery().had_checkpoint);
  EXPECT_EQ(again.recovery().wal_replayed, 0u);
  EXPECT_EQ(wire::encode_evaluator_state(again.evaluator()),
            reference_state(corpus_checkpointed() + corpus_walled()));
}

TEST(Restarting, LiveServiceOverV1StateUnderKillsAndDuplicates) {
  const auto dir = fresh_dir("live");
  install_v1_replica(dir, 0);
  install_v1_replica(dir, 1);

  service::ServiceConfig cfg;
  cfg.condition = corpus_condition();
  cfg.num_replicas = 2;
  cfg.filter = FilterKind::kAd1;
  cfg.data_dir = dir;
  cfg.checkpoint_every = 4;
  cfg.record_journal = true;
  cfg.auto_restart = false;
  cfg.poll_interval = 5ms;

  std::vector<std::vector<Update>> journals;
  std::vector<Alert> displayed;
  {
    service::AlertService svc{cfg};
    const std::vector<std::uint16_t> ports = svc.replica_ports();
    net::UdpSocket udp{0};
    const auto send_all = [&](std::span<const std::uint8_t> payload) {
      const auto framed = wire::frame(payload);
      for (std::uint16_t port : ports) udp.try_send_to(port, framed);
    };

    // Every update the v1 epoch already accepted comes around again —
    // the recovered v1 watermarks must drop all of them.
    const std::vector<Update> old_epoch = corpus_updates();
    for (std::size_t i = 0; i + 1 < old_epoch.size(); ++i)
      send_all(wire::encode_update(old_epoch[i]));

    // Fresh updates 10..40 with a kill/restart mid-stream: recovery
    // crosses the version boundary AND a crash boundary in one run.
    for (SeqNo s = 10; s <= 40; ++s) {
      if (s == 18) svc.kill_replica(1);
      if (s == 28) svc.restart_replica(1);
      send_all(wire::encode_update(
          Update{0, s, (s % 2 == 1) ? 80.0 : 20.0}));
      std::this_thread::sleep_for(1ms);
    }
    const auto marker = wire::encode_end_marker(0);
    for (int attempt = 0; attempt < 50; ++attempt) {
      send_all(marker);
      if (svc.await_dm_ends(1, 100ms)) break;
    }
    ASSERT_TRUE(svc.await_idle(60ms, 5s));
    svc.drain();
    displayed = svc.displayed();
    journals.push_back(svc.replica_journal(0));
    journals.push_back(svc.replica_journal(1));
  }

  // Each journal: the v1 epoch's 1..9 exactly once, then a strictly
  // increasing subsequence of 10..40 — a single watermark regression
  // across the boundary would re-journal a duplicate here.
  for (const std::vector<Update>& journal : journals) {
    ASSERT_GE(journal.size(), 9u);
    for (std::size_t i = 0; i < 9; ++i)
      EXPECT_EQ(journal[i].seqno, static_cast<SeqNo>(i + 1));
    SeqNo last = 9;
    for (std::size_t i = 9; i < journal.size(); ++i) {
      EXPECT_GT(journal[i].seqno, last);
      EXPECT_LE(journal[i].seqno, 40u);
      last = journal[i].seqno;
    }
  }
  // Replica 0 was never killed: it accepts the whole fresh stream.
  EXPECT_EQ(journals[0].size(), 9u + 31u);

  // Displayed ⊆ raised over the full cross-version journals.
  std::set<AlertKey> raised;
  for (const std::vector<Update>& journal : journals)
    for (const Alert& a : evaluate_trace(corpus_condition(), journal))
      raised.insert(a.key());
  EXPECT_FALSE(displayed.empty());
  for (const Alert& a : displayed) EXPECT_TRUE(raised.contains(a.key()));
}

// ---- forward compatibility: current output, older reader ----------------

TEST(Restarting, V1ReaderRejectsVersionedSnapshotCleanly) {
  ConditionEvaluator ce{corpus_condition()};
  for (const Update& u : corpus_updates()) (void)ce.on_update(u);
  const auto v2 = wire::encode_evaluator_state(ce);
  ConditionEvaluator old_reader{corpus_condition()};
  EXPECT_THROW(wire::legacy::decode_evaluator_state_v1(v2, old_reader),
               wire::DecodeError);
}

TEST(Restarting, UnknownSnapshotExtensionIsSkipped) {
  ConditionEvaluator ce{corpus_condition()};
  for (const Update& u : corpus_updates()) (void)ce.on_update(u);
  const auto v2 = wire::encode_evaluator_state(ce);

  // Replace the trailing empty extension section with one unknown entry
  // — the shape of a v2.x writer this binary predates.
  std::vector<std::uint8_t> extended{v2.begin(), v2.end() - 1};
  wire::Writer w;
  w.varint(1);
  w.u8(0x7E);
  const std::uint8_t blob[] = {1, 2, 3, 4};
  w.varint(std::size(blob));
  w.raw(blob);
  const auto section = w.bytes();
  extended.insert(extended.end(), section.begin(), section.end());

  ConditionEvaluator got{corpus_condition()};
  wire::decode_evaluator_state(extended, got);
  EXPECT_EQ(wire::encode_evaluator_state(got), v2);
}

TEST(Restarting, FutureMajorSnapshotIsRejectedTyped) {
  ConditionEvaluator ce{corpus_condition()};
  const auto v2 = wire::encode_evaluator_state(ce);
  std::vector<std::uint8_t> future = v2;
  future[1] = 99;  // the major byte
  ConditionEvaluator got{corpus_condition()};
  try {
    wire::decode_evaluator_state(future, got);
    FAIL() << "major-99 snapshot was accepted";
  } catch (const wire::UnsupportedVersion& e) {
    EXPECT_EQ(e.got().major, 99);
    EXPECT_EQ(e.max_major(), wire::kSnapshotMaxMajor);
  }
}

TEST(Restarting, VersionedWalSkipsUnknownRecordTypesV1CountsThemCorrupt) {
  const Update u{0, 1, 42.0};
  wire::Writer unknown;
  unknown.u8(0x7A);  // record type no current reader knows
  unknown.u8(0xFF);

  // In a versioned file the record is skipped and counted...
  std::vector<std::uint8_t> versioned = wire::frame(store::encode_log_header(
      store::kUpdateLogFormatId, store::kLogFormatVersion));
  {
    const auto f = wire::frame(wire::encode_update(u));
    versioned.insert(versioned.end(), f.begin(), f.end());
    const auto g = wire::frame(unknown.bytes());
    versioned.insert(versioned.end(), g.begin(), g.end());
  }
  const store::RecoveredUpdates from_v2 =
      store::recover_update_bytes(versioned);
  EXPECT_EQ(from_v2.updates.size(), 1u);
  EXPECT_EQ(from_v2.skipped_records, 1u);
  EXPECT_EQ(from_v2.corrupt_frames, 0u);

  // ...in a headerless v1 file the same frame counts as corruption,
  // exactly as the v1 binary treated it.
  std::vector<std::uint8_t> v1 =
      wire::legacy::encode_update_log_v1(std::vector<Update>{u});
  const auto g = wire::frame(unknown.bytes());
  v1.insert(v1.end(), g.begin(), g.end());
  const store::RecoveredUpdates from_v1 = store::recover_update_bytes(v1);
  EXPECT_EQ(from_v1.updates.size(), 1u);
  EXPECT_EQ(from_v1.skipped_records, 0u);
  EXPECT_GE(from_v1.corrupt_frames, 1u);
}

TEST(Restarting, FutureMajorLogHeaderIsRejectedTyped) {
  for (const std::uint8_t format_id :
       {store::kUpdateLogFormatId, store::kAlertLogFormatId}) {
    const std::vector<std::uint8_t> file = wire::frame(
        store::encode_log_header(format_id, wire::VersionHeader{3, 0}));
    if (format_id == store::kUpdateLogFormatId) {
      EXPECT_THROW((void)store::recover_update_bytes(file),
                   wire::UnsupportedVersion);
    } else {
      EXPECT_THROW((void)store::recover_log_bytes(file),
                   wire::UnsupportedVersion);
    }
  }
}

// ---- the admin socket across a version boundary -------------------------

service::AdminResponse admin_exchange(net::TcpStream& conn,
                                      const service::AdminRequest& req) {
  conn.write_all(wire::frame(service::encode_admin_request(req)));
  wire::FrameCursor cursor;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    if (auto payload = cursor.next())
      return service::decode_admin_response(*payload);
    if (std::chrono::steady_clock::now() > deadline)
      throw std::runtime_error("admin response timed out");
    const auto chunk = conn.read_some(1s);
    if (chunk && chunk->empty())
      throw std::runtime_error("admin connection closed");
    if (chunk) cursor.feed(*chunk);
  }
}

TEST(Restarting, UnknownAdminCommandGetsStructuredUnsupportedReply) {
  service::ServiceConfig cfg;
  cfg.condition = corpus_condition();
  cfg.num_replicas = 1;
  cfg.data_dir = fresh_dir("admin");
  cfg.auto_restart = false;
  cfg.poll_interval = 5ms;
  service::AlertService svc{cfg};

  net::TcpStream conn = net::TcpStream::connect(svc.admin_port());

  // A "newer client" sends command 42 with its version declared, and an
  // older one sends the retired kShardMap byte 8. The server must answer
  // each with the structured unsupported block — and the connection must
  // survive for the downgraded retry.
  for (const std::uint8_t command : {std::uint8_t{42}, std::uint8_t{8}}) {
    SCOPED_TRACE(static_cast<int>(command));
    service::AdminRequest unknown;
    unknown.known = false;
    unknown.raw_command = command;
    const service::AdminResponse resp = admin_exchange(conn, unknown);
    EXPECT_FALSE(resp.ok);
    ASSERT_TRUE(resp.unsupported.has_value());
    EXPECT_EQ(resp.unsupported->command, command);
    EXPECT_EQ(resp.unsupported->server_version, service::kAdminVersion);
    EXPECT_EQ(resp.unsupported->min_major, service::kAdminMinMajor);
    EXPECT_EQ(resp.unsupported->max_major, service::kAdminMaxMajor);
    EXPECT_EQ(resp.unsupported->max_command,
              static_cast<std::uint8_t>(service::AdminCommand::kMetricsProm));

    const service::AdminResponse status = admin_exchange(
        conn, service::AdminRequest{service::AdminCommand::kStatus, 0});
    ASSERT_TRUE(status.ok);
    ASSERT_TRUE(status.status.has_value());
    EXPECT_EQ(status.status->replicas.size(), 1u);
  }

  svc.drain();
  std::filesystem::remove_all(cfg.data_dir);
}

}  // namespace
}  // namespace rcm::testing
