// Message codec for the monitoring protocol.
//
// Two message types cross the network (paper §2): data updates on the
// front links and alerts on the back links. Updates always encode in
// full — they ARE the data. Alerts support the three fidelity levels §2
// identifies:
//
//   kFullHistories — every history update with its value (what the
//                    conceptual model sends; required if the AD
//                    re-evaluates or archives alerts),
//   kSeqnosOnly    — history sequence numbers without values (all the
//                    AD algorithms AD-1..AD-6 need at most this),
//   kChecksumOnly  — a 64-bit digest of the histories (sufficient for
//                    AD-1's pure equality test).
//
// Decoding yields a DecodedAlert that tags which fidelity arrived; the
// encodings are compared in bench/ablation_wire.
//
// The front links also carry one control datagram: a DM's END marker,
// which tells the receiving CE that the DM's stream is over.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/alert.hpp"
#include "core/types.hpp"
#include "obs/trace.hpp"
#include "wire/buffer.hpp"

namespace rcm::wire {

/// Alert encoding fidelity (see file comment).
enum class AlertEncoding : std::uint8_t {
  kFullHistories = 0,
  kSeqnosOnly = 1,
  kChecksumOnly = 2,
};

/// Writes the layout of one data update (no extensions) into `out`, one
/// of buffer.hpp's outputs: a Writer, a ByteCounter or an Fnv1aHasher.
/// encode_update is this layout written into a Writer, so counting or
/// hashing an update sees exactly the bytes encode_update returns.
template <typename Out>
void write_update(Out& out, const Update& u);

/// Encodes one data update.
[[nodiscard]] std::vector<std::uint8_t> encode_update(const Update& u);

/// Encodes one data update carrying a trace context as a tagged
/// extension. A zero trace id encodes byte-identically to the plain
/// form, and decoders that predate extensions skip the tag unharmed
/// (decode_update tolerates any trailing `tag | varint len | bytes`
/// extension after the value).
[[nodiscard]] std::vector<std::uint8_t> encode_update(
    const Update& u, const obs::trace::TraceContext& ctx);

/// Decodes one data update, skipping any tagged extensions; throws
/// DecodeError on malformed input.
[[nodiscard]] Update decode_update(std::span<const std::uint8_t> bytes);

/// Result of decoding an update together with its extensions.
struct UpdateMessage {
  Update update;
  /// Propagated trace context; zero ids when the sender attached none.
  obs::trace::TraceContext trace;
};

/// Decodes one data update plus its trace-context extension (if
/// present); throws DecodeError on malformed input.
[[nodiscard]] UpdateMessage decode_update_message(
    std::span<const std::uint8_t> bytes);

/// Framed datagram payload marking end-of-stream for DM `dm_index`.
[[nodiscard]] std::vector<std::uint8_t> encode_end_marker(
    std::size_t dm_index);

/// Decodes an END marker payload; nullopt if `payload` is not one.
[[nodiscard]] std::optional<std::size_t> decode_end_marker(
    std::span<const std::uint8_t> payload);

/// Writes the layout of one alert at the chosen fidelity into `out` (a
/// Writer, a ByteCounter or an Fnv1aHasher); encode_alert is this layout
/// written into a Writer.
template <typename Out>
void write_alert(Out& out, const Alert& a, AlertEncoding encoding);

/// Encodes one alert at the chosen fidelity.
[[nodiscard]] std::vector<std::uint8_t> encode_alert(const Alert& a,
                                                     AlertEncoding encoding);

/// Result of decoding an alert.
struct DecodedAlert {
  AlertEncoding encoding = AlertEncoding::kFullHistories;
  /// Reconstructed alert. For kSeqnosOnly the update values are NaN
  /// (sequence numbers are exact); for kChecksumOnly histories are empty.
  Alert alert;
  /// The digest, present for kChecksumOnly.
  std::uint64_t checksum = 0;
};

/// Decodes one alert; throws DecodeError on malformed input.
[[nodiscard]] DecodedAlert decode_alert(std::span<const std::uint8_t> bytes);

}  // namespace rcm::wire
