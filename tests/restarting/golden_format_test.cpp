// Golden-format pinning of the checked-in v1 corpus (tests/data/v1/).
//
// Two layers per fixture:
//   1. byte exactness — the deterministic corpus builder regenerates
//      the exact checked-in bytes, so neither the legacy encoders nor
//      the hand-written layouts can drift;
//   2. semantic decode — the CURRENT decoders read every fixture and
//      recover exactly the state the v1 binary persisted, which is the
//      backward-compatibility half of the versioning contract.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "service/admin.hpp"
#include "store/file_log.hpp"
#include "swarm/fuzzer.hpp"
#include "swarm/record.hpp"
#include "v1_corpus.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/health.hpp"
#include "wire/legacy.hpp"
#include "wire/session.hpp"
#include "wire/snapshot.hpp"

namespace rcm::testing {
namespace {

std::filesystem::path corpus_dir() {
  return std::filesystem::path{RCM_V1_CORPUS_DIR};
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path
                            << " — run rcm_make_v1_corpus to create it";
  return std::vector<std::uint8_t>{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
}

std::vector<std::uint8_t> fixture_bytes(const std::string& name) {
  return read_file(corpus_dir() / name);
}

TEST(GoldenFormat, EveryFixtureIsByteExact) {
  for (const V1Fixture& fixture : build_v1_corpus()) {
    const auto on_disk = read_file(corpus_dir() / fixture.name);
    EXPECT_EQ(on_disk, fixture.bytes)
        << fixture.name
        << " drifted: the v1 format is frozen — fix the encoder that "
           "changed, never regenerate the fixture";
  }
}

TEST(GoldenFormat, SnapshotDecodesOnBothSidesOfTheBoundary) {
  const auto bytes = fixture_bytes("snapshot.v1.bin");
  wire::FrameCursor cursor;
  cursor.feed(bytes);
  cursor.finish();
  const auto payload = cursor.next();
  ASSERT_TRUE(payload.has_value());

  // The reference state the fixture froze.
  ConditionEvaluator expect{corpus_condition()};
  const std::vector<Update> updates = corpus_updates();
  for (std::size_t i = 0; i < corpus_checkpointed(); ++i)
    (void)expect.on_update(updates[i]);

  // Current reader accepts v1 and recovers the identical state.
  ConditionEvaluator current{corpus_condition()};
  wire::decode_evaluator_state(*payload, current);
  EXPECT_EQ(wire::encode_evaluator_state(current),
            wire::encode_evaluator_state(expect));

  // The simulated v1 reader agrees with itself...
  ConditionEvaluator old_reader{corpus_condition()};
  wire::legacy::decode_evaluator_state_v1(*payload, old_reader);
  EXPECT_EQ(wire::encode_evaluator_state(old_reader),
            wire::encode_evaluator_state(expect));

  // ...and the current ENCODER no longer writes v1 bytes (it writes the
  // versioned 'S' form), which is exactly why this corpus is checked in.
  EXPECT_NE(wire::encode_evaluator_state(expect),
            std::vector<std::uint8_t>(payload->begin(), payload->end()));
}

TEST(GoldenFormat, WalRecoversPrefixAndCountsTornTail) {
  const store::RecoveredUpdates rec =
      store::recover_update_bytes(fixture_bytes("wal_torn_tail.v1.bin"));
  EXPECT_FALSE(rec.versioned);
  EXPECT_EQ(rec.version, (wire::VersionHeader{1, 0}));
  ASSERT_EQ(rec.updates.size(), corpus_walled());
  const std::vector<Update> updates = corpus_updates();
  for (std::size_t i = 0; i < rec.updates.size(); ++i) {
    EXPECT_EQ(rec.updates[i].seqno,
              updates[corpus_checkpointed() + i].seqno);
    EXPECT_EQ(rec.updates[i].value,
              updates[corpus_checkpointed() + i].value);
  }
  EXPECT_GE(rec.corrupt_frames, 1u);  // the torn seqno-10 frame
  EXPECT_EQ(rec.skipped_records, 0u);
}

TEST(GoldenFormat, JournalRecoversEveryAcceptedUpdate) {
  const store::RecoveredUpdates rec =
      store::recover_update_bytes(fixture_bytes("journal.v1.bin"));
  EXPECT_FALSE(rec.versioned);
  ASSERT_EQ(rec.updates.size(), 9u);
  for (std::size_t i = 0; i < rec.updates.size(); ++i)
    EXPECT_EQ(rec.updates[i].seqno, static_cast<SeqNo>(i + 1));
  EXPECT_EQ(rec.corrupt_frames, 0u);
}

TEST(GoldenFormat, AlertLogReplaysEntriesAndAck) {
  const store::RecoveredLog rec =
      store::recover_log_bytes(fixture_bytes("alert_log.v1.bin"));
  EXPECT_FALSE(rec.versioned);
  EXPECT_EQ(rec.corrupt_frames, 0u);
  EXPECT_EQ(rec.skipped_records, 0u);
  // RiseAggressive(10) fires on every 20 -> 80 rise in the checkpointed
  // prefix 80,20,80,20,80,20.
  EXPECT_GE(rec.log.size(), 1u);
  EXPECT_EQ(rec.log.ack_level(), 1u);  // entry 0 was acknowledged
  EXPECT_EQ(rec.records, rec.log.size() + 1);  // entries + the ack record
}

TEST(GoldenFormat, AdminRequestsDecodeAsV1Peers) {
  const auto status = fixture_bytes("admin_request_status.v1.bin");
  const service::AdminRequest req = service::decode_admin_request(status);
  EXPECT_TRUE(req.known);
  EXPECT_EQ(req.command, service::AdminCommand::kStatus);
  EXPECT_EQ(req.replica, 0u);
  // No version extension = a v1 peer.
  EXPECT_EQ(req.version, (wire::VersionHeader{1, 0}));

  const auto restart = fixture_bytes("admin_request_restart_r1.v1.bin");
  const service::AdminRequest req2 = service::decode_admin_request(restart);
  EXPECT_TRUE(req2.known);
  EXPECT_EQ(req2.command, service::AdminCommand::kRestart);
  EXPECT_EQ(req2.replica, 1u);
}

TEST(GoldenFormat, PlainAdminResponseStaysByteIdenticalToV1) {
  const auto v1 = fixture_bytes("admin_response_ok.v1.bin");
  const service::AdminResponse back = service::decode_admin_response(v1);
  EXPECT_TRUE(back.ok);
  EXPECT_FALSE(back.unsupported.has_value());
  // The compatibility keystone: the current encoder emits EXACTLY the v1
  // bytes for a plain response, so v1 clients keep decoding v2 servers.
  EXPECT_EQ(service::encode_admin_response(service::AdminResponse{}), v1);
}

TEST(GoldenFormat, CursorFileReplaysLastWriterWins) {
  const wire::RecoveredCursors rec =
      wire::recover_cursor_bytes(fixture_bytes("cursors.v1.bin"));
  EXPECT_TRUE(rec.versioned);
  EXPECT_EQ(rec.version, (wire::VersionHeader{1, 0}));
  EXPECT_EQ(rec.records, 3u);
  EXPECT_EQ(rec.corrupt_frames, 0u);
  EXPECT_EQ(rec.skipped_records, 0u);
  ASSERT_EQ(rec.cursors.size(), 2u);
  // worker-1 was written twice; the later record (acked 7, evicted) wins.
  EXPECT_EQ(rec.cursors.at("worker-1"), (wire::CursorEntry{7, true}));
  EXPECT_EQ(rec.cursors.at("worker-2"), (wire::CursorEntry{1, false}));
}

TEST(GoldenFormat, SwarmRecordDecodesWithEmptyUnitSection) {
  const auto bytes = fixture_bytes("swarm_record.v1.bin");
  wire::FrameCursor cursor;
  cursor.feed(bytes);
  cursor.finish();
  const auto payload = cursor.next();
  ASSERT_TRUE(payload.has_value());
  const swarm::CounterexampleRecord record =
      swarm::decode_record(*payload);
  EXPECT_TRUE(record.spec.units.empty());
  EXPECT_TRUE(record.spec.base == swarm::sample_spec(11, 0));
}

TEST(GoldenFormat, SwarmRecordReplaysWithMatchingDigest) {
  // Re-executing the frozen record's spec must reproduce its recorded
  // digest and run bytes exactly: the run digest is unchanged since v1.
  const auto bytes = fixture_bytes("swarm_record.v1.bin");
  wire::FrameCursor cursor;
  cursor.feed(bytes);
  cursor.finish();
  const auto payload = cursor.next();
  ASSERT_TRUE(payload.has_value());
  const swarm::ReplayResult result =
      swarm::replay(swarm::decode_record(*payload));
  EXPECT_TRUE(result.digest_matched);
  EXPECT_TRUE(result.violations_matched);
}

TEST(GoldenFormat, ShardMapDecodesToTheFrozenLayout) {
  const auto bytes = fixture_bytes("shardmap.v1.bin");
  EXPECT_EQ(wire::decode_shard_map(bytes), corpus_shard_map());
  // Version header sanity: the fixture is v1 of a gated major.
  ASSERT_GE(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 0x4d);  // 'M'
  EXPECT_EQ(bytes[1], wire::kShardMapVersion.major);
}

TEST(GoldenFormat, HandoffDecodesToTheFrozenState) {
  const auto bytes = fixture_bytes("handoff.v1.bin");
  EXPECT_EQ(wire::decode_handoff(bytes), corpus_handoff());
  ASSERT_GE(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 0x58);  // 'X'
  EXPECT_EQ(bytes[1], wire::kHandoffVersion.major);
}

TEST(GoldenFormat, HealthRequestDecodesWithInstanceScope) {
  // The hand-written 2.3 health exchange: a request carrying both the
  // version extension and the non-default (instance) scope extension
  // must decode to exactly that — and the current encoder must still
  // produce these bytes, pinning the scope-extension layout.
  const auto bytes = fixture_bytes("admin_request_health_instance.v1.bin");
  const service::AdminRequest req = service::decode_admin_request(bytes);
  EXPECT_TRUE(req.known);
  EXPECT_EQ(req.command, service::AdminCommand::kHealth);
  EXPECT_EQ(req.replica, 0u);
  EXPECT_EQ(req.version, (wire::VersionHeader{2, 3}));
  EXPECT_EQ(req.scope, service::HealthScope::kInstance);

  service::AdminRequest out;
  out.command = service::AdminCommand::kHealth;
  out.scope = service::HealthScope::kInstance;
  EXPECT_EQ(service::encode_admin_request(out), bytes);
}

TEST(GoldenFormat, EndMarkerDatagramDecodesAndReencodes) {
  // Every DM on the wire ends its stream with this datagram; a data
  // manager and a service from either side of the boundary must agree.
  const auto bytes = fixture_bytes("end_marker.v1.bin");
  wire::FrameCursor cursor;
  cursor.feed(bytes);
  const auto payload = cursor.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(wire::decode_end_marker(*payload), std::optional<std::size_t>{300});
  EXPECT_FALSE(cursor.next().has_value());
  EXPECT_EQ(wire::frame(wire::encode_end_marker(300)), bytes);
}

TEST(GoldenFormat, HealthDocumentDecodesToTheFrozenState) {
  const auto bytes = fixture_bytes("health.v1.bin");
  EXPECT_EQ(wire::decode_instance_health(bytes), corpus_instance_health());
  ASSERT_GE(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 0x68);  // 'h'
  EXPECT_EQ(bytes[1], wire::kHealthVersion.major);
}

}  // namespace
}  // namespace rcm::testing
