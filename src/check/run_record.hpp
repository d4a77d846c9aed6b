// Run recording: serialize an observed SystemRun (per-replica inputs +
// displayed alerts) so it can be audited later — re-checked against the
// paper's properties, diffed, or attached to an incident report. The
// condition itself is code/configuration and is NOT recorded; the loader
// takes it as a parameter (and the checkers will immediately flag a
// mismatched condition as inconsistent alerts).
//
// Format: one CRC frame (wire/frame.hpp) containing
//   tag 'R' | version | #inputs | per input (#updates | updates...) |
//   #displayed | encoded alerts (full histories)
#pragma once

#include <filesystem>
#include <span>
#include <vector>

#include "check/properties.hpp"
#include "wire/buffer.hpp"

namespace rcm::check {

/// Serializes inputs and displayed alerts (not the condition).
[[nodiscard]] std::vector<std::uint8_t> encode_system_run(
    const SystemRun& run);

/// Rebuilds a run from encode_system_run output; throws wire::DecodeError
/// on malformed bytes.
[[nodiscard]] SystemRun decode_system_run(
    std::span<const std::uint8_t> bytes, ConditionPtr condition);

/// File conveniences (framed, CRC-checked). save overwrites.
void save_run(const std::filesystem::path& path, const SystemRun& run);
[[nodiscard]] SystemRun load_run(const std::filesystem::path& path,
                                 ConditionPtr condition);

/// FNV-1a 64-bit digest over arbitrary bytes; exposed so callers can fold
/// additional observations (e.g. display timestamps) into a run digest
/// with the same function. `seed` chains digests: pass a previous result.
[[nodiscard]] std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes,
    std::uint64_t seed = wire::Fnv1aHasher::kOffsetBasis);

/// Stable fingerprint of a run: fnv1a over the bytes encode_system_run
/// would return for these inputs and displayed alerts. The bytes are
/// hashed as they are produced and never built, so a digest costs no
/// allocation and no copy of the run. Two runs have equal digests iff
/// their serialized inputs and displayed alerts are bit-for-bit identical
/// (up to FNV collisions) — the equality the swarm harness uses to certify
/// that a re-execution or a replayed counterexample reproduced exactly.
[[nodiscard]] std::uint64_t run_digest(
    std::span<const std::vector<Update>> ce_inputs,
    std::span<const Alert> displayed);

}  // namespace rcm::check
