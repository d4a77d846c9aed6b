// Byte-buffer primitives for the wire protocol: a bounds-checked reader
// and an appending writer over contiguous bytes, plus LEB128 varints and
// zigzag transforms for signed values. The writer's field encodings also
// drive two outputs that keep no bytes: a counter and an FNV-1a hasher.
//
// The monitoring messages (updates, alerts) are tiny and frequent, so the
// format favors compactness: sequence numbers and counts are varints,
// values are raw IEEE-754 doubles, strings are length-prefixed.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rcm::wire {

/// Thrown by Reader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Zigzag-maps a signed 64-bit value to unsigned so small magnitudes
/// (positive or negative) encode as short varints.
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

/// Inverse of zigzag().
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// The field encodings of the wire format, written once for every byte
/// output. `Out` supplies u8(byte) and raw(bytes); this base derives the
/// fixed-width, varint and string fields from them, so a layout written
/// against an output (see write_update/write_alert in codec.hpp) emits the
/// same byte sequence whether the output stores, counts or hashes it.
template <typename Out>
class FieldWriter {
 public:
  void u32(std::uint32_t v) { fixed(v, 4); }  ///< little-endian 4 bytes
  void u64(std::uint64_t v) { fixed(v, 8); }  ///< little-endian 8 bytes
  void f64(double v) {                        ///< IEEE-754 bits, little-endian
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void varint(std::uint64_t v) {  ///< LEB128
    while (v >= 0x80) {
      out().u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out().u8(static_cast<std::uint8_t>(v));
  }
  void svarint(std::int64_t v) { varint(zigzag(v)); }
  void string(std::string_view s) {  ///< varint length + raw bytes
    varint(s.size());
    out().raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

 private:
  Out& out() { return static_cast<Out&>(*this); }
  void fixed(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i)
      out().u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

/// Appending byte writer.
class Writer : public FieldWriter<Writer> {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void raw(std::span<const std::uint8_t> bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Counts the bytes written and stores none: the length of a nested
/// message, for its length prefix, without building it.
class ByteCounter : public FieldWriter<ByteCounter> {
 public:
  void u8(std::uint8_t) noexcept { ++size_; }
  void raw(std::span<const std::uint8_t> bytes) noexcept {
    size_ += bytes.size();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Hashes the bytes written with 64-bit FNV-1a as they arrive and stores
/// none. `seed` chains hashes: pass a previous hash() to continue it.
class Fnv1aHasher : public FieldWriter<Fnv1aHasher> {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;

  explicit Fnv1aHasher(std::uint64_t seed = kOffsetBasis) noexcept
      : hash_(seed) {}
  void u8(std::uint8_t v) noexcept {
    hash_ ^= v;
    hash_ *= 0x100000001b3ULL;
  }
  void raw(std::span<const std::uint8_t> bytes) noexcept {
    for (std::uint8_t b : bytes) u8(b);
  }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_;
};

/// Bounds-checked byte reader; every method throws DecodeError instead of
/// reading past the end.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::int64_t svarint() { return unzigzag(varint()); }
  /// Reads a varint length then that many bytes. `max_len` guards against
  /// hostile lengths.
  [[nodiscard]] std::string string(std::size_t max_len = 4096);
  /// Consumes the next `n` bytes and returns a view into the input (valid
  /// while the underlying buffer lives).
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

  /// Requires that the whole input was consumed; trailing garbage is a
  /// framing bug, not something to ignore.
  void expect_done() const {
    if (!done()) throw DecodeError("trailing bytes after message");
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw DecodeError("truncated message");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace rcm::wire
