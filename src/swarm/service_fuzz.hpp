// Service fuzz driver: randomized runs against a REAL AlertService
// (kernel sockets, worker threads, durable files) — the service-layer
// sibling of the simulator-based swarm harness. Two modes share one run
// loop and one oracle (swarm/fuzz_plan.hpp).
//
// Crash mode (`--service-fuzz`). Each seeded iteration builds a service
// in a scratch directory with journals enabled, feeds randomized update
// streams over UDP while killing and restarting replicas at random
// points, drains, and then checks the observables against two layers of
// oracle:
//
//   1. Mechanical invariants that hold for every run:
//      - each replica's journal is, per variable, a strictly-increasing-
//        seqno subsequence of the sent stream (durability never invents
//        or reorders updates, across any number of incarnations);
//      - every displayed alert was raised by some replica, i.e. its key
//        appears in T(journal_i) for some i (recovery never re-emits or
//        fabricates alerts).
//   2. The paper's property table for the run's (filter, scenario) cell,
//      where the scenario is classified from the OBSERVED journals: if
//      every replica accepted every sent update the run is lossless;
//      otherwise it is the lossy row of the condition's class (a kill's
//      downtime loss is exactly the paper's lossy front link).
//
// Most runs additionally attach durable-session subscribers
// (wire/session.hpp) and inject subscriber faults: abrupt kills
// mid-stream (the server sees a peer die with a frame half-written),
// stale cursors (always rejoin from 0), garbage cursors (from far
// beyond the log end), slow readers (tiny session limits make them
// evictable), and duplicate session ids fighting over one slot. A third
// oracle layer then asserts the session contract: every received alert
// matches the displayed alert at its log index, indices within a
// connection ascend contiguously from the welcome's start_index, an
// exact-resume welcome starts exactly at the requested index, and every
// skipped range was explicitly named by a kTruncated welcome — gaps are
// typed, never silent. Some runs reopen the service on the same durable
// state afterwards and replay a session cursor across the restart
// boundary (kills of BOTH ends of the session).
//
// Upgrade mode (`--upgrade-fuzz`), the FoundationDB-style mixed-version
// restarting test. Each seeded run is one simulated rolling upgrade:
//
//   phase A  a real AlertService ingests the first half of the feed
//            over UDP (no kills), drains gracefully, and leaves its
//            durable state (checkpoints, WALs, journals, ends log)
//            behind;
//   transcode  that state is rewritten BYTE-FOR-BYTE as a v1 binary
//            would have left it (wire/legacy.hpp encoders): headerless
//            WALs and journals, 's'-tagged snapshots — plus the two
//            artifacts a real crash leaves, a stale WAL prefix of
//            already-checkpointed records and an optional torn tail;
//   phase B  a second AlertService (the "upgraded binary") recovers
//            that v1 state, ingests the rest of the feed under random
//            kill/restart schedules and duplicate resends of phase-A
//            updates, then terminates with the END protocol.
//
// The oracle is the crash-mode oracle over the concatenated observables
// of both phases. Any watermark regression across the version boundary
// shows up as a journal-monotonicity or duplicate-display violation; any
// state mistranslation shows up as a displayed-but-never-raised alert.
// One boundary subtlety: the AD's ledger (what AD-2/AD-3 use to
// guarantee orderedness/consistency across alerts) is volatile, so the
// two phases are two displayer incarnations and the ledger-backed
// guarantees are claimed per incarnation — the oracle's
// `displayer_epochs` parameter encodes exactly this. Completeness and
// every mechanical invariant still hold over the union. Each run also
// performs direct forward-compat checks on the snapshot codec: a v2
// snapshot carrying an unknown skippable extension must decode to
// identical state, a simulated v1 reader must reject v2 bytes with
// DecodeError, and a future-major header must be rejected with the
// typed UnsupportedVersion, never a crash or a misparse.
//
// Both modes run every service epoch through the same loop: kills,
// manual restarts (with the health oracle around them), sends to every
// replica port, duplicate resends, END markers until acknowledged, drain.
//
// Unlike SwarmSpec runs, these executions are wall-clock nondeterministic
// (real threads and sockets), so there is no digest or shrinking — the
// per-iteration seed is reported instead so a failure can be re-run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace rcm::swarm {

enum class ServiceFuzzMode {
  kCrash,    ///< one epoch over the whole feed, with subscriber faults
  kUpgrade,  ///< phase A, v1 transcode, phase B (see header comment)
};

struct ServiceFuzzOptions {
  ServiceFuzzMode mode = ServiceFuzzMode::kCrash;
  std::uint64_t seed = 1;
  std::size_t runs = 200;
  /// Scratch root for per-run data dirs; empty = system temp. Each run's
  /// directory is removed after a clean check, kept on violation.
  std::filesystem::path scratch_dir;
  bool verbose = false;
};

struct ServiceFuzzViolation {
  std::size_t run_index = 0;
  std::uint64_t seed = 0;  ///< batch seed; run_index re-derives the run
  std::string description;
  std::filesystem::path data_dir;  ///< durable state kept for post-mortem
};

struct ServiceFuzzReport {
  std::size_t runs_executed = 0;
  std::size_t runs_with_kills = 0;
  std::size_t runs_with_alerts = 0;
  std::size_t total_kills = 0;
  std::size_t total_restarts = 0;
  std::size_t duplicate_resends = 0;     ///< extra copies of a sent update
  // Durable-session fault coverage (see header comment).
  std::size_t runs_with_subscribers = 0;
  std::size_t subscriber_conns = 0;      ///< welcomed session connections
  std::size_t subscriber_kills = 0;      ///< client-initiated abrupt closes
  std::size_t session_truncations = 0;   ///< kTruncated welcomes observed
  std::size_t session_evictions = 0;     ///< evicted notices observed
  std::size_t session_bad_cursors = 0;   ///< kBadCursor welcomes observed
  std::size_t session_lag_alerts = 0;    ///< dogfooded CE lag alerts fired
  std::size_t service_reopens = 0;       ///< cross-restart replay legs
  // Health-oracle coverage: the fuzzer scrapes the admin health document
  // around kill/recovery on manual-restart runs and asserts the watchdog
  // reported (then cleared) the replica-down degradation.
  std::size_t health_scrapes = 0;        ///< admin health documents fetched
  std::size_t health_degraded_seen = 0;  ///< kills confirmed degraded
  // Upgrade-mode coverage.
  std::size_t transcoded_files = 0;      ///< durable files rewritten as v1
  std::size_t torn_tails_injected = 0;   ///< v1 WALs left with a torn frame
  std::size_t stale_wal_records = 0;     ///< already-checkpointed records
                                         ///< re-planted in v1 WALs
  std::vector<ServiceFuzzViolation> violations;

  [[nodiscard]] bool failed() const noexcept { return !violations.empty(); }
};

/// Runs the batch in `options.mode`. Throws std::runtime_error on
/// environment errors (scratch dir not writable); violations are
/// reported, not thrown.
[[nodiscard]] ServiceFuzzReport run_service_fuzz(
    const ServiceFuzzOptions& options);

}  // namespace rcm::swarm
