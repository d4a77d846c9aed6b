#include "wire/codec.hpp"

#include <limits>

namespace rcm::wire {
namespace {

// Message type tags so a stray update can never parse as an alert.
constexpr std::uint8_t kUpdateTag = 0x75;  // 'u'
constexpr std::uint8_t kAlertTag = 0x61;   // 'a'

constexpr std::size_t kMaxVariables = 1024;
constexpr std::size_t kMaxWindow = 4096;

// Update-message extensions: after the fixed fields, any number of
// `tag (u8) | varint payload-len | payload` blocks. Decoders skip tags
// they don't know, which is what makes the trace context deployable
// next to old binaries.
constexpr std::uint8_t kTraceExtTag = 0x54;  // 'T'
constexpr std::size_t kMaxExtensionLen = 256;

// END-of-stream datagram payload prefix ("END"), followed by a varint DM
// index so a receiver counts *distinct* finished DMs, not END datagrams.
constexpr std::uint8_t kEndMagic[3] = {0x45, 0x4E, 0x44};

UpdateMessage decode_update_impl(std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (r.u8() != kUpdateTag) throw DecodeError("not an update message");
  UpdateMessage msg;
  msg.update.var = static_cast<VarId>(r.varint());
  msg.update.seqno = r.svarint();
  msg.update.value = r.f64();
  while (!r.done()) {
    const std::uint8_t ext_tag = r.u8();
    const std::uint64_t len = r.varint();
    if (len > kMaxExtensionLen) throw DecodeError("oversized update extension");
    const auto payload = r.bytes(static_cast<std::size_t>(len));
    if (ext_tag == kTraceExtTag) {
      Reader ext{payload};
      msg.trace.trace_id = ext.varint();
      msg.trace.span_id = ext.varint();
      ext.expect_done();
    }
    // Unknown tags: skipped. Truncated extensions still throw (r.bytes).
  }
  return msg;
}

}  // namespace

template <typename Out>
void write_update(Out& out, const Update& u) {
  out.u8(kUpdateTag);
  out.varint(u.var);
  out.svarint(u.seqno);
  out.f64(u.value);
}

template void write_update(Writer&, const Update&);
template void write_update(ByteCounter&, const Update&);
template void write_update(Fnv1aHasher&, const Update&);

std::vector<std::uint8_t> encode_update(const Update& u) {
  Writer w;
  write_update(w, u);
  return w.take();
}

std::vector<std::uint8_t> encode_update(const Update& u,
                                        const obs::trace::TraceContext& ctx) {
  Writer w;
  write_update(w, u);
  if (ctx.trace_id != 0) {
    Writer ext;
    ext.varint(ctx.trace_id);
    ext.varint(ctx.span_id);
    w.u8(kTraceExtTag);
    w.varint(ext.size());
    w.raw(ext.bytes());
  }
  return w.take();
}

Update decode_update(std::span<const std::uint8_t> bytes) {
  return decode_update_impl(bytes).update;
}

UpdateMessage decode_update_message(std::span<const std::uint8_t> bytes) {
  return decode_update_impl(bytes);
}

std::vector<std::uint8_t> encode_end_marker(std::size_t dm_index) {
  Writer w;
  for (std::uint8_t b : kEndMagic) w.u8(b);
  w.varint(dm_index);
  return w.take();
}

std::optional<std::size_t> decode_end_marker(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < sizeof(kEndMagic)) return std::nullopt;
  for (std::size_t i = 0; i < sizeof(kEndMagic); ++i)
    if (payload[i] != kEndMagic[i]) return std::nullopt;
  try {
    Reader r{payload.subspan(sizeof(kEndMagic))};
    const std::uint64_t dm = r.varint();
    r.expect_done();
    return static_cast<std::size_t>(dm);
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

template <typename Out>
void write_alert(Out& out, const Alert& a, AlertEncoding encoding) {
  out.u8(kAlertTag);
  out.u8(static_cast<std::uint8_t>(encoding));
  out.string(a.cond);
  switch (encoding) {
    case AlertEncoding::kChecksumOnly:
      out.u64(a.checksum());
      break;
    case AlertEncoding::kSeqnosOnly:
    case AlertEncoding::kFullHistories:
      out.varint(a.histories.size());
      for (const auto& [var, window] : a.histories) {
        out.varint(var);
        out.varint(window.size());
        // Windows are ascending; delta-encode the seqnos.
        SeqNo prev = 0;
        for (const Update& u : window) {
          out.svarint(u.seqno - prev);
          prev = u.seqno;
          if (encoding == AlertEncoding::kFullHistories) out.f64(u.value);
        }
      }
      break;
  }
}

template void write_alert(Writer&, const Alert&, AlertEncoding);
template void write_alert(ByteCounter&, const Alert&, AlertEncoding);
template void write_alert(Fnv1aHasher&, const Alert&, AlertEncoding);

std::vector<std::uint8_t> encode_alert(const Alert& a,
                                       AlertEncoding encoding) {
  Writer w;
  write_alert(w, a, encoding);
  return w.take();
}

DecodedAlert decode_alert(std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (r.u8() != kAlertTag) throw DecodeError("not an alert message");
  const auto raw_encoding = r.u8();
  if (raw_encoding > static_cast<std::uint8_t>(AlertEncoding::kChecksumOnly))
    throw DecodeError("unknown alert encoding");
  DecodedAlert out;
  out.encoding = static_cast<AlertEncoding>(raw_encoding);
  out.alert.cond = r.string();
  switch (out.encoding) {
    case AlertEncoding::kChecksumOnly:
      out.checksum = r.u64();
      break;
    case AlertEncoding::kSeqnosOnly:
    case AlertEncoding::kFullHistories: {
      const std::uint64_t vars = r.varint();
      if (vars > kMaxVariables) throw DecodeError("too many variables");
      for (std::uint64_t i = 0; i < vars; ++i) {
        const VarId var = static_cast<VarId>(r.varint());
        const std::uint64_t count = r.varint();
        if (count > kMaxWindow) throw DecodeError("history window too long");
        std::vector<Update> window;
        window.reserve(static_cast<std::size_t>(count));
        SeqNo prev = 0;
        for (std::uint64_t j = 0; j < count; ++j) {
          Update u;
          u.var = var;
          u.seqno = prev + r.svarint();
          prev = u.seqno;
          u.value = out.encoding == AlertEncoding::kFullHistories
                        ? r.f64()
                        : std::numeric_limits<double>::quiet_NaN();
          window.push_back(u);
        }
        if (!out.alert.histories.emplace(var, std::move(window)).second)
          throw DecodeError("duplicate variable in alert");
      }
      break;
    }
  }
  r.expect_done();
  return out;
}

}  // namespace rcm::wire
