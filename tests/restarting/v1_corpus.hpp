// The v1 durable-format corpus: byte-exact images of every durable
// artifact a pre-versioning (v1) binary left on disk, regenerated
// deterministically from the frozen legacy encoders (wire/legacy.hpp)
// and hand-written v1 byte layouts.
//
// The checked-in copies live under tests/data/v1/. Three consumers:
//
//   golden_format_test  regenerates each fixture and requires it to be
//                       byte-identical to the checked-in file — the v1
//                       layout can never drift silently;
//   rcm_make_v1_corpus  writes (or --check's) the fixture files, the
//                       only sanctioned way to (re)generate them;
//   restarting_test     installs the fixtures as a replica data
//                       directory and recovers it with the CURRENT
//                       binary, live, under kills.
//
// The canonical scenario behind the evaluator-state fixtures: a
// RiseAggressive(10) condition on variable 0, ten updates alternating
// 80/20 (so alerts actually fire), checkpointed after seqno 6, WAL
// holding 7..9 plus a torn half-written frame of seqno 10 — i.e. a v1
// replica that crashed mid-append.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/types.hpp"
#include "wire/health.hpp"

namespace rcm::testing {

struct V1Fixture {
  std::string name;  ///< file name under tests/data/v1/
  std::vector<std::uint8_t> bytes;
};

/// Every fixture, in a fixed order, with deterministic bytes.
[[nodiscard]] std::vector<V1Fixture> build_v1_corpus();

/// The corpus scenario, shared with restarting_test's live recovery.
[[nodiscard]] ConditionPtr corpus_condition();
/// Updates seq 1..10 on variable 0, alternating 80/20.
[[nodiscard]] std::vector<Update> corpus_updates();
/// How many of corpus_updates() the snapshot fixture covers (6).
[[nodiscard]] std::size_t corpus_checkpointed();
/// How many land in the WAL fixture after the checkpoint (3: seq 7..9;
/// seq 10 is the torn tail and must NOT be recovered).
[[nodiscard]] std::size_t corpus_walled();

/// The structured contents of the health.v1.bin fixture: a degraded
/// shard instance (replica 1 down), shared with golden_format_test's
/// semantic-decode check.
[[nodiscard]] wire::InstanceHealth corpus_instance_health();

}  // namespace rcm::testing
