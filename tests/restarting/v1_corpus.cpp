#include "v1_corpus.hpp"

#include "store/file_log.hpp"
#include "swarm/fuzzer.hpp"
#include "swarm/record.hpp"
#include "swarm/runner.hpp"
#include "swarm/spec.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/legacy.hpp"
#include "wire/session.hpp"
#include "wire/shard.hpp"

namespace rcm::testing {
namespace {

/// One headerless framed record, exactly as a v1 FileAlertLog wrote it.
void append_v1_record(std::vector<std::uint8_t>& file, std::uint8_t type,
                      std::span<const std::uint8_t> body) {
  wire::Writer w;
  w.u8(type);
  w.raw(body);
  const auto framed = wire::frame(w.bytes());
  file.insert(file.end(), framed.begin(), framed.end());
}

std::vector<std::uint8_t> build_snapshot_fixture() {
  ConditionEvaluator ce{corpus_condition()};
  const std::vector<Update> updates = corpus_updates();
  for (std::size_t i = 0; i < corpus_checkpointed(); ++i)
    (void)ce.on_update(updates[i]);
  return wire::frame(wire::legacy::encode_evaluator_state_v1(ce));
}

std::vector<std::uint8_t> build_wal_fixture() {
  const std::vector<Update> updates = corpus_updates();
  const std::vector<Update> walled{
      updates.begin() + static_cast<std::ptrdiff_t>(corpus_checkpointed()),
      updates.begin() + static_cast<std::ptrdiff_t>(corpus_checkpointed() +
                                                    corpus_walled())};
  std::vector<std::uint8_t> file =
      wire::legacy::encode_update_log_v1(walled);
  // The torn tail: the crash cut the append of seqno 10 mid-frame.
  const auto torn = wire::frame(wire::encode_update(updates.back()));
  file.insert(file.end(), torn.begin(), torn.begin() +
              static_cast<std::ptrdiff_t>(torn.size() / 2));
  return file;
}

std::vector<std::uint8_t> build_journal_fixture() {
  const std::vector<Update> updates = corpus_updates();
  // The journal records everything the replica ever ACCEPTED: 1..9. The
  // torn seqno 10 never made it.
  const std::vector<Update> accepted{updates.begin(), updates.end() - 1};
  return wire::legacy::encode_update_log_v1(accepted);
}

std::vector<std::uint8_t> build_alert_log_fixture() {
  // Replay the checkpointed prefix and log every alert it fired, plus a
  // cumulative ack of entry 0 — the shape a v1 CE that delivered its
  // first alert and then crashed leaves behind.
  ConditionEvaluator ce{corpus_condition()};
  const std::vector<Update> updates = corpus_updates();
  std::vector<std::uint8_t> file;
  for (std::size_t i = 0; i < corpus_checkpointed(); ++i) {
    if (const auto alert = ce.on_update(updates[i])) {
      append_v1_record(file, store::kAlertRecord,
                       wire::encode_alert(
                           *alert, wire::AlertEncoding::kFullHistories));
    }
  }
  wire::Writer ack;
  ack.varint(0);
  append_v1_record(file, store::kAckRecord, ack.bytes());
  return file;
}

std::vector<std::uint8_t> build_swarm_record_fixture() {
  // A version-1 counterexample record (no workload-unit section), framed
  // exactly as v1 save_record wrote it. sample_spec and the simulator
  // are deterministic, so these bytes are stable.
  const swarm::SwarmSpec spec = swarm::sample_spec(11, 0);
  const swarm::RunCheck chk = swarm::execute_and_check(spec);
  const swarm::CounterexampleRecord record = swarm::make_record(spec, chk);
  wire::Writer w;
  w.u8(0x57);  // record tag
  w.u8(1);     // version 1: spec | violation kinds | digest | run bytes
  swarm::encode_spec(w, record.spec.base);
  w.varint(record.violation_kinds.size());
  for (swarm::ViolationKind k : record.violation_kinds)
    w.u8(static_cast<std::uint8_t>(k));
  w.u64(record.digest);
  w.varint(record.run_bytes.size());
  w.raw(record.run_bytes);
  return wire::frame(w.bytes());
}

std::vector<std::uint8_t> build_cursor_file_fixture() {
  // A v1 session cursor file: versioned header, then per-session records
  // with a duplicate for worker-1 (last writer wins: acked 7, evicted).
  // Pins both the byte layout and the LWW replay semantics.
  std::vector<std::uint8_t> file;
  const auto append = [&file](std::span<const std::uint8_t> payload) {
    const auto framed = wire::frame(payload);
    file.insert(file.end(), framed.begin(), framed.end());
  };
  append(wire::encode_cursor_file_header());
  append(wire::encode_cursor_record("worker-1", {3, false}));
  append(wire::encode_cursor_record("worker-2", {1, false}));
  append(wire::encode_cursor_record("worker-1", {7, true}));
  return file;
}

std::vector<std::uint8_t> build_shard_map_fixture() {
  // The v1 shard map the current encoder writes today. Once checked in,
  // these bytes are frozen: any future layout change must go through a
  // new major (or a skippable extension), never a silent rewrite.
  return wire::encode_shard_map(corpus_shard_map());
}

std::vector<std::uint8_t> build_handoff_fixture() {
  return wire::encode_handoff(corpus_handoff());
}

std::vector<std::uint8_t> build_health_fixture() {
  // v1 of the instance-health document the current encoder writes today
  // (rates use exactly-representable doubles so the f64 bytes are
  // deterministic). Frozen like shardmap/handoff: layout changes go
  // through a new major or a skippable extension.
  return wire::encode_instance_health(corpus_instance_health());
}

}  // namespace

wire::ShardMap corpus_shard_map() {
  wire::ShardMap m;
  m.epoch = 3;
  m.shards.push_back(wire::ShardMapEntry{0, 32, {40001, 40002}});
  m.shards.push_back(wire::ShardMapEntry{2, 32, {40003}});
  return m;
}

wire::HandoffPacket corpus_handoff() {
  wire::HandoffPacket p;
  p.epoch = 3;
  p.from = 1;
  p.to = 2;
  p.replica = 0;
  wire::HandoffEntry e;
  e.var = 0;
  e.watermark = 9;
  e.window = {Update{0, 8, 20.0}, Update{0, 9, 80.0}};
  p.entries.push_back(e);
  return p;
}

wire::InstanceHealth corpus_instance_health() {
  wire::InstanceHealth h;
  h.role = wire::InstanceRole::kShard;
  h.shard_id = 1;
  h.epoch = 3;
  h.healthy = false;
  h.uptime_ns = 5'000'000'000;
  h.sessions = 2;
  h.max_session_lag = 4;
  h.alert_queue_depth = 1;
  h.replicas.push_back(wire::ReplicaHealth{0, true, 1, 12'000'000, 9, 3});
  h.replicas.push_back(wire::ReplicaHealth{1, false, 2, 0, 6, 2});
  h.rates.push_back(
      wire::RateSample{"service.ingest.datagrams", 120.0, 95.5, 40.25});
  h.degradations.push_back(wire::Degradation{
      wire::DegradationKind::kReplicaDown, "replica 1 down", 1});
  return h;
}

ConditionPtr corpus_condition() {
  return swarm::build_condition(swarm::ConditionKind::kRiseAggressive, 10.0);
}

std::vector<Update> corpus_updates() {
  std::vector<Update> updates;
  for (SeqNo s = 1; s <= 10; ++s)
    updates.push_back(Update{0, s, (s % 2 == 1) ? 80.0 : 20.0});
  return updates;
}

std::size_t corpus_checkpointed() { return 6; }
std::size_t corpus_walled() { return 3; }

std::vector<V1Fixture> build_v1_corpus() {
  std::vector<V1Fixture> corpus;
  corpus.push_back({"snapshot.v1.bin", build_snapshot_fixture()});
  corpus.push_back({"wal_torn_tail.v1.bin", build_wal_fixture()});
  corpus.push_back({"journal.v1.bin", build_journal_fixture()});
  corpus.push_back({"alert_log.v1.bin", build_alert_log_fixture()});
  // v1 admin bytes are short enough to write by hand — and writing them
  // by hand is the point: they pin the layout independently of any
  // encoder, current or legacy.
  corpus.push_back({"admin_request_status.v1.bin", {0x00, 0x00}});
  corpus.push_back({"admin_request_restart_r1.v1.bin", {0x02, 0x01}});
  // 'O' | empty error string | no status | no body — and nothing else:
  // the v2 encoder MUST keep plain responses byte-identical to this.
  corpus.push_back({"admin_response_ok.v1.bin", {0x4F, 0x00, 0x00, 0x00}});
  corpus.push_back({"swarm_record.v1.bin", build_swarm_record_fixture()});
  corpus.push_back({"cursors.v1.bin", build_cursor_file_fixture()});
  corpus.push_back({"shardmap.v1.bin", build_shard_map_fixture()});
  corpus.push_back({"handoff.v1.bin", build_handoff_fixture()});
  // A 2.3 peer's instance-scope health request, written by hand:
  // kHealth (9) | replica 0 | 2 extensions — version {2,3} under tag
  // 'V', scope kInstance (1) under tag 'C'.
  corpus.push_back({"admin_request_health_instance.v1.bin",
                    {0x09, 0x00, 0x02, 0x56, 0x02, 0x02, 0x03, 0x43, 0x01,
                     0x01}});
  corpus.push_back({"health.v1.bin", build_health_fixture()});
  // A DM's END datagram as it crosses the front link, written by hand:
  // frame magic 0xCE 0x01 | payload length 5 | "END" | DM index 300 as a
  // varint (0xAC 0x02) | CRC-32 of the payload.
  corpus.push_back({"end_marker.v1.bin",
                    {0xCE, 0x01, 0x05, 0x45, 0x4E, 0x44, 0xAC, 0x02, 0xFF,
                     0xB8, 0xD5, 0xB6}});
  return corpus;
}

}  // namespace rcm::testing
