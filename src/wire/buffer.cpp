#include "wire/buffer.hpp"

#include <cstring>

namespace rcm::wire {

std::uint8_t Reader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    need(1);
    const std::uint8_t byte = bytes_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return v;
  }
  throw DecodeError("varint longer than 64 bits");
}

std::string Reader::string(std::size_t max_len) {
  const std::uint64_t len = varint();
  if (len > max_len) throw DecodeError("string length exceeds limit");
  need(static_cast<std::size_t>(len));
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

}  // namespace rcm::wire
