#include "check/run_record.hpp"

#include <fstream>

#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace rcm::check {
namespace {

constexpr std::uint8_t kRunTag = 0x52;  // 'R'
constexpr std::uint8_t kVersion = 1;
constexpr std::uint64_t kMaxCount = 1u << 24;

// The run layout, written once for every output. Each update and alert
// is prefixed by its encoded length, which a ByteCounter pass over the
// same layout supplies, so no entry is ever built as a byte vector.
template <typename Out>
void write_run(Out& out, std::span<const std::vector<Update>> ce_inputs,
               std::span<const Alert> displayed) {
  out.u8(kRunTag);
  out.u8(kVersion);
  out.varint(ce_inputs.size());
  for (const auto& input : ce_inputs) {
    out.varint(input.size());
    for (const Update& u : input) {
      wire::ByteCounter len;
      wire::write_update(len, u);
      out.varint(len.size());
      wire::write_update(out, u);
    }
  }
  out.varint(displayed.size());
  for (const Alert& a : displayed) {
    wire::ByteCounter len;
    wire::write_alert(len, a, wire::AlertEncoding::kFullHistories);
    out.varint(len.size());
    wire::write_alert(out, a, wire::AlertEncoding::kFullHistories);
  }
}

}  // namespace

std::vector<std::uint8_t> encode_system_run(const SystemRun& run) {
  wire::Writer w;
  write_run(w, run.ce_inputs, run.displayed);
  return w.take();
}

SystemRun decode_system_run(std::span<const std::uint8_t> bytes,
                            ConditionPtr condition) {
  wire::Reader r{bytes};
  if (r.u8() != kRunTag) throw wire::DecodeError("not a recorded run");
  if (r.u8() != kVersion)
    throw wire::DecodeError("unsupported run record version");

  auto read_blob = [&r]() {
    const std::uint64_t len = r.varint();
    if (len > (1u << 20)) throw wire::DecodeError("record entry too large");
    std::vector<std::uint8_t> blob;
    blob.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t i = 0; i < len; ++i) blob.push_back(r.u8());
    return blob;
  };

  SystemRun run;
  run.condition = std::move(condition);
  const std::uint64_t inputs = r.varint();
  if (inputs > kMaxCount) throw wire::DecodeError("too many replicas");
  for (std::uint64_t i = 0; i < inputs; ++i) {
    const std::uint64_t count = r.varint();
    if (count > kMaxCount) throw wire::DecodeError("too many updates");
    std::vector<Update> input;
    input.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t j = 0; j < count; ++j)
      input.push_back(wire::decode_update(read_blob()));
    run.ce_inputs.push_back(std::move(input));
  }
  const std::uint64_t displayed = r.varint();
  if (displayed > kMaxCount) throw wire::DecodeError("too many alerts");
  for (std::uint64_t i = 0; i < displayed; ++i)
    run.displayed.push_back(wire::decode_alert(read_blob()).alert);
  r.expect_done();
  return run;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  wire::Fnv1aHasher h{seed};
  h.raw(bytes);
  return h.hash();
}

std::uint64_t run_digest(std::span<const std::vector<Update>> ce_inputs,
                         std::span<const Alert> displayed) {
  wire::Fnv1aHasher h;
  write_run(h, ce_inputs, displayed);
  return h.hash();
}

void save_run(const std::filesystem::path& path, const SystemRun& run) {
  const auto framed = wire::frame(encode_system_run(run));
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out.is_open())
    throw std::runtime_error("save_run: cannot open " + path.string());
  out.write(reinterpret_cast<const char*>(framed.data()),
            static_cast<std::streamsize>(framed.size()));
  if (!out.good())
    throw std::runtime_error("save_run: write failed on " + path.string());
}

SystemRun load_run(const std::filesystem::path& path,
                   ConditionPtr condition) {
  std::ifstream in{path, std::ios::binary};
  if (!in.is_open())
    throw std::runtime_error("load_run: cannot open " + path.string());
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  wire::FrameCursor cursor;
  cursor.feed(bytes);
  cursor.finish();
  const auto payload = cursor.next();
  if (!payload)
    throw wire::DecodeError("load_run: no complete frame in file");
  return decode_system_run(*payload, std::move(condition));
}

}  // namespace rcm::check
