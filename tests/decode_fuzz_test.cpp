// Decoder robustness fuzzing: every decode path must either succeed or
// throw wire::DecodeError on arbitrary bytes — never crash, hang, or
// allocate absurdly. Three input classes per decoder: pure random bytes,
// truncated valid messages, and single-byte mutations of valid messages.
#include <gtest/gtest.h>

#include <memory>

#include "check/run_record.hpp"
#include "core/builtin_conditions.hpp"
#include "core/evaluator.hpp"
#include "service/admin.hpp"
#include "store/alert_log.hpp"
#include "store/file_log.hpp"
#include "swarm/fuzzer.hpp"
#include "swarm/record.hpp"
#include "swarm/runner.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/snapshot.hpp"
#include "wire/version.hpp"

namespace rcm::wire {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

Alert sample_alert() {
  Alert a;
  a.cond = "fuzz";
  a.histories.emplace(1, std::vector<Update>{{1, 3, 1.5}, {1, 5, 2.5}});
  a.histories.emplace(2, std::vector<Update>{{2, 9, -1.0}});
  return a;
}

template <typename DecodeFn>
void fuzz_decoder(DecodeFn&& decode, const std::vector<std::uint8_t>& valid,
                  std::uint64_t seed, int random_trials = 500) {
  util::Rng rng{seed};
  // Random byte strings.
  for (int i = 0; i < random_trials; ++i) {
    const auto bytes = random_bytes(rng, 64);
    try {
      decode(bytes);
    } catch (const DecodeError&) {
      // expected for most inputs
    }
  }
  // Every truncation of a valid message.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const std::vector<std::uint8_t> cut{valid.begin(),
                                        valid.begin() + static_cast<std::ptrdiff_t>(len)};
    try {
      decode(cut);
    } catch (const DecodeError&) {
    }
  }
  // Every single-byte mutation of a valid message.
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (std::uint8_t delta : {0x01, 0x80, 0xff}) {
      auto mutated = valid;
      mutated[i] ^= delta;
      try {
        decode(mutated);
      } catch (const DecodeError&) {
      }
    }
  }
}

TEST(DecodeFuzz, Update) {
  const auto valid = encode_update({7, 123456, 3.25});
  fuzz_decoder([](const std::vector<std::uint8_t>& b) { (void)decode_update(b); },
               valid, 1);
}

TEST(DecodeFuzz, AlertAllEncodings) {
  for (AlertEncoding enc :
       {AlertEncoding::kFullHistories, AlertEncoding::kSeqnosOnly,
        AlertEncoding::kChecksumOnly}) {
    const auto valid = encode_alert(sample_alert(), enc);
    fuzz_decoder(
        [](const std::vector<std::uint8_t>& b) { (void)decode_alert(b); },
        valid, 2 + static_cast<std::uint64_t>(enc));
  }
}

TEST(DecodeFuzz, EvaluatorSnapshot) {
  auto cond = std::make_shared<const RiseCondition>("r", 0, 1.0,
                                                    Triggering::kAggressive);
  ConditionEvaluator ce{cond};
  (void)ce.on_update({0, 1, 1.0});
  (void)ce.on_update({0, 2, 5.0});
  const auto valid = encode_evaluator_state(ce);
  ConditionEvaluator target{cond};
  fuzz_decoder(
      [&](const std::vector<std::uint8_t>& b) {
        ConditionEvaluator scratch{cond};
        decode_evaluator_state(b, scratch);
      },
      valid, 5);
}

TEST(DecodeFuzz, AlertLogSnapshot) {
  store::AlertLog log;
  (void)log.append(sample_alert());
  log.ack(0);
  const auto valid = log.serialize();
  fuzz_decoder(
      [](const std::vector<std::uint8_t>& b) {
        (void)store::AlertLog::deserialize(b);
      },
      valid, 6);
}

TEST(DecodeFuzz, RunRecord) {
  check::SystemRun run;
  run.condition = std::make_shared<const ThresholdCondition>("t", 1, 1.0);
  run.ce_inputs = {{{1, 1, 2.0}, {1, 2, 3.0}}, {{1, 2, 3.0}}};
  run.displayed = {sample_alert()};
  const auto valid = check::encode_system_run(run);
  fuzz_decoder(
      [&](const std::vector<std::uint8_t>& b) {
        (void)check::decode_system_run(b, run.condition);
      },
      valid, 7, 300);
}

TEST(DecodeFuzz, SwarmCounterexampleRecord) {
  // Build a genuine record (a spec the swarm would sample, executed and
  // packaged), round-trip it, then fuzz the decoder: corrupted or
  // truncated records must throw DecodeError, never crash.
  const swarm::SwarmSpec spec = swarm::sample_spec(11, 0);
  const swarm::RunCheck chk = swarm::execute_and_check(spec);
  const swarm::CounterexampleRecord record = swarm::make_record(spec, chk);

  const auto valid = swarm::encode_record(record);
  const swarm::CounterexampleRecord back = swarm::decode_record(valid);
  EXPECT_TRUE(back.spec == record.spec);
  EXPECT_EQ(back.digest, record.digest);
  EXPECT_EQ(back.run_bytes, record.run_bytes);

  fuzz_decoder(
      [](const std::vector<std::uint8_t>& b) { (void)swarm::decode_record(b); },
      valid, 9, 300);
}

TEST(DecodeFuzz, SwarmRecordWithWorkloadUnits) {
  // The v2 record path: a composed spec's workload units ride inside the
  // record. Round-trip, then fuzz the decoder over the larger format.
  swarm::FuzzOptions fuzz;
  fuzz.min_workloads = 2;
  const swarm::ComposedSpec spec = swarm::sample_composed(11, 0, fuzz);
  ASSERT_GE(spec.units.size(), 2u);
  const swarm::RunCheck chk = swarm::execute_and_check(spec);
  const swarm::CounterexampleRecord record = swarm::make_record(spec, chk);

  const auto valid = swarm::encode_record(record);
  const swarm::CounterexampleRecord back = swarm::decode_record(valid);
  EXPECT_TRUE(back.spec == record.spec);
  EXPECT_EQ(back.spec.units, spec.units);

  fuzz_decoder(
      [](const std::vector<std::uint8_t>& b) { (void)swarm::decode_record(b); },
      valid, 10, 300);
}

TEST(DecodeFuzz, LegacyV1SwarmRecordStillDecodesAndReplays) {
  // Records written before workload units existed (version 1, no unit
  // section) must keep decoding — to an empty unit list — and keep
  // replaying bit-for-bit.
  const swarm::SwarmSpec spec = swarm::sample_spec(11, 0);
  const swarm::RunCheck chk = swarm::execute_and_check(spec);
  const swarm::CounterexampleRecord record = swarm::make_record(spec, chk);

  Writer w;
  w.u8(0x57);  // record tag
  w.u8(1);     // version 1: spec | violation kinds | digest | run bytes
  swarm::encode_spec(w, record.spec.base);
  w.varint(record.violation_kinds.size());
  for (swarm::ViolationKind k : record.violation_kinds)
    w.u8(static_cast<std::uint8_t>(k));
  w.u64(record.digest);
  w.varint(record.run_bytes.size());
  w.raw(record.run_bytes);

  const swarm::CounterexampleRecord legacy = swarm::decode_record(w.bytes());
  EXPECT_TRUE(legacy.spec.units.empty());
  EXPECT_TRUE(legacy.spec.base == record.spec.base);
  EXPECT_EQ(legacy.digest, record.digest);
  EXPECT_TRUE(swarm::replay(legacy).reproduced);

  // A v1 record cannot carry the kWorkload violation kind: its value is
  // only meaningful once a unit section exists.
  Writer bad;
  bad.u8(0x57);
  bad.u8(1);
  swarm::encode_spec(bad, record.spec.base);
  bad.varint(1);
  bad.u8(static_cast<std::uint8_t>(swarm::ViolationKind::kWorkload));
  bad.u64(record.digest);
  bad.varint(record.run_bytes.size());
  bad.raw(record.run_bytes);
  EXPECT_THROW((void)swarm::decode_record(bad.bytes()), DecodeError);
}

TEST(DecodeFuzz, RecordWithUnknownWorkloadKindIsRejected) {
  const swarm::SwarmSpec spec = swarm::sample_spec(11, 0);
  const swarm::RunCheck chk = swarm::execute_and_check(spec);
  const swarm::CounterexampleRecord record = swarm::make_record(spec, chk);

  Writer w;
  w.u8(0x57);
  w.u8(2);  // version 2: a unit section follows the spec
  swarm::encode_spec(w, record.spec.base);
  w.varint(1);
  w.u8(6);  // one past kAdaptiveHoldback: unknown workload kind
  swarm::WorkloadSpec filler;
  swarm::encode_workload(w, filler);  // plausible trailing bytes
  w.u64(record.digest);
  EXPECT_THROW((void)swarm::decode_record(w.bytes()), DecodeError);
}

TEST(DecodeFuzz, VersionedSnapshotHeader) {
  // The v2 snapshot opens with 'S' | major | minor and closes with an
  // extension section. Three contracts under fuzzing: a future major is
  // a TYPED rejection, unknown extensions are skipped losslessly, and
  // no mutation of the header bytes can crash the decoder (covered for
  // the whole message by EvaluatorSnapshot above).
  auto cond = std::make_shared<const RiseCondition>("r", 0, 1.0,
                                                    Triggering::kAggressive);
  ConditionEvaluator ce{cond};
  (void)ce.on_update({0, 1, 1.0});
  (void)ce.on_update({0, 2, 5.0});
  const auto valid = encode_evaluator_state(ce);
  ASSERT_EQ(valid[0], 0x53);  // 'S'

  for (std::uint8_t major : {3, 99, 255}) {
    auto future = valid;
    future[1] = major;
    ConditionEvaluator scratch{cond};
    EXPECT_THROW(decode_evaluator_state(future, scratch),
                 UnsupportedVersion);
  }

  // Unknown extension tags — any tag, any payload — must be skipped
  // without disturbing the decoded state.
  util::Rng rng{21};
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> extended{valid.begin(), valid.end() - 1};
    Writer w;
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    const auto blob = random_bytes(rng, 16);
    w.varint(blob.size());
    w.raw(blob);
    const auto section = w.bytes();
    extended.insert(extended.end(), section.begin(), section.end());
    ConditionEvaluator scratch{cond};
    decode_evaluator_state(extended, scratch);
    EXPECT_EQ(encode_evaluator_state(scratch), valid);
  }
}

TEST(DecodeFuzz, AdminRequest) {
  // A v2 request (with the version extension) and an unknown-command
  // request both fuzz clean. Semantically: unknown command + declared
  // version decodes to known=false; unknown command WITHOUT a version
  // (a v1 peer) stays a DecodeError, preserving the v1 contract.
  service::AdminRequest req;
  req.command = service::AdminCommand::kRestart;
  req.replica = 3;
  fuzz_decoder(
      [](const std::vector<std::uint8_t>& b) {
        (void)service::decode_admin_request(b);
      },
      service::encode_admin_request(req), 22);

  service::AdminRequest unknown;
  unknown.known = false;
  unknown.raw_command = 0x42;
  const auto bytes = service::encode_admin_request(unknown);
  const service::AdminRequest back = service::decode_admin_request(bytes);
  EXPECT_FALSE(back.known);
  EXPECT_EQ(back.raw_command, 0x42);
  EXPECT_EQ(back.version, service::kAdminVersion);
  fuzz_decoder(
      [](const std::vector<std::uint8_t>& b) {
        (void)service::decode_admin_request(b);
      },
      bytes, 23);

  EXPECT_THROW((void)service::decode_admin_request(
                   std::vector<std::uint8_t>{0x42, 0x00}),
               DecodeError);
}

TEST(DecodeFuzz, AdminResponseWithUnsupportedBlock) {
  service::AdminResponse resp;
  resp.ok = false;
  resp.error = "unsupported command";
  service::AdminUnsupported u;
  u.command = 0x42;
  u.server_version = service::kAdminVersion;
  u.min_major = service::kAdminMinMajor;
  u.max_major = service::kAdminMaxMajor;
  u.max_command =
      static_cast<std::uint8_t>(service::AdminCommand::kTraceDump);
  resp.unsupported = u;
  const auto valid = service::encode_admin_response(resp);
  const service::AdminResponse back = service::decode_admin_response(valid);
  ASSERT_TRUE(back.unsupported.has_value());
  EXPECT_EQ(back.unsupported->max_command, u.max_command);
  fuzz_decoder(
      [](const std::vector<std::uint8_t>& b) {
        (void)service::decode_admin_response(b);
      },
      valid, 24);
}

TEST(DecodeFuzz, LogRecoveryNeverThrowsExceptOnFutureMajor) {
  // recover_update_bytes / recover_log_bytes treat corruption as data
  // (counted, never thrown) — the ONLY exception that may escape is
  // UnsupportedVersion from a well-formed future-major header record.
  std::vector<std::uint8_t> wal = frame(store::encode_log_header(
      store::kUpdateLogFormatId, store::kLogFormatVersion));
  for (SeqNo s = 1; s <= 4; ++s) {
    const auto f = frame(encode_update({0, s, 1.0 * static_cast<double>(s)}));
    wal.insert(wal.end(), f.begin(), f.end());
  }
  std::vector<std::uint8_t> alog = frame(store::encode_log_header(
      store::kAlertLogFormatId, store::kLogFormatVersion));
  {
    Writer rec;
    rec.u8(store::kAlertRecord);
    rec.raw(encode_alert(sample_alert(), AlertEncoding::kFullHistories));
    const auto f = frame(rec.bytes());
    alog.insert(alog.end(), f.begin(), f.end());
  }

  util::Rng rng{25};
  const auto fuzz_recovery = [&](auto&& recover,
                                 const std::vector<std::uint8_t>& valid) {
    for (int i = 0; i < 300; ++i) {
      const auto bytes = random_bytes(rng, 128);
      try {
        (void)recover(bytes);
      } catch (const UnsupportedVersion&) {
      }
    }
    for (std::size_t len = 0; len < valid.size(); ++len) {
      try {
        (void)recover({valid.begin(),
                       valid.begin() + static_cast<std::ptrdiff_t>(len)});
      } catch (const UnsupportedVersion&) {
      }
    }
    for (std::size_t i = 0; i < valid.size(); ++i) {
      for (std::uint8_t delta : {0x01, 0x80, 0xff}) {
        auto mutated = valid;
        mutated[i] ^= delta;
        try {
          (void)recover(mutated);
        } catch (const UnsupportedVersion&) {
        }
      }
    }
  };
  fuzz_recovery(
      [](std::vector<std::uint8_t> b) {
        return store::recover_update_bytes(b);
      },
      wal);
  fuzz_recovery(
      [](std::vector<std::uint8_t> b) { return store::recover_log_bytes(b); },
      alog);
}

TEST(DecodeFuzz, FrameCursorOnGarbageStreams) {
  // The cursor must terminate and never emit a CRC-invalid payload,
  // whatever bytes arrive.
  util::Rng rng{8};
  for (int trial = 0; trial < 200; ++trial) {
    FrameCursor cursor;
    cursor.feed(random_bytes(rng, 512));
    int emitted = 0;
    while (auto payload = cursor.next()) {
      ++emitted;
      ASSERT_LT(emitted, 1000);  // termination sanity
    }
  }
}

}  // namespace
}  // namespace rcm::wire
