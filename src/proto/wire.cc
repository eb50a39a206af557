#include "proto/wire.h"

#include <bit>
#include <stdexcept>
#include <type_traits>

namespace p4p::proto {

namespace {
/// Header (magic + version + tag) and trailing checksum of a sealed frame.
constexpr std::size_t kSealedHeaderBytes = 4 + 1 + 1;
constexpr std::size_t kSealedOverheadBytes = kSealedHeaderBytes + 4;

template <typename T>
T ByteSwapIfLittle(T v) {
  static_assert(std::is_unsigned_v<T> && (sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8));
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

/// Stores `v` big-endian at `out`; memcpy, so `out` needs no alignment.
template <typename T>
void StoreBigEndian(T v, std::uint8_t* out) {
  v = ByteSwapIfLittle(v);
  std::memcpy(out, &v, sizeof(T));
}

template <typename T>
T LoadBigEndian(const std::uint8_t* in) {
  T v;
  std::memcpy(&v, in, sizeof(T));
  return ByteSwapIfLittle(v);
}
}  // namespace

template <typename T>
void Writer::put(T v) {
  const std::size_t at = buf_.size();
  buf_.resize(at + sizeof(T));
  StoreBigEndian(v, buf_.data() + at);
}

void Writer::u16(std::uint16_t v) { put(v); }
void Writer::u32(std::uint32_t v) { put(v); }
void Writer::u64(std::uint64_t v) { put(v); }
void Writer::f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  if (s.size() > 0xFFFF) {
    throw std::length_error("Writer::str: string too long");
  }
  reserve(2 + s.size());
  u16(static_cast<std::uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::f64_vec(std::span<const double> values) {
  if (values.size() > 0xFFFFFFFFULL) {
    throw std::length_error("Writer::f64_vec: vector too long");
  }
  // The hot encoder (a portal external view is one n^2-element f64_vec):
  // one exact reservation, one resize, then one pass that stores each
  // double's big-endian bytes straight into place.
  reserve(4 + values.size() * 8);
  u32(static_cast<std::uint32_t>(values.size()));
  const std::size_t at = buf_.size();
  buf_.resize(at + values.size() * 8);
  std::uint8_t* out = buf_.data() + at;
  for (const double v : values) {
    StoreBigEndian(std::bit_cast<std::uint64_t>(v), out);
    out += 8;
  }
}

void Writer::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Writer::blob(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > 0xFFFFFFFFULL) {
    throw std::length_error("Writer::blob: blob too long");
  }
  reserve(4 + bytes.size());
  u32(static_cast<std::uint32_t>(bytes.size()));
  raw(bytes);
}

bool Reader::take(std::size_t n, const std::uint8_t** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t Reader::u8() {
  const std::uint8_t* p = nullptr;
  if (!take(1, &p)) return 0;
  return p[0];
}

std::uint16_t Reader::u16() {
  const std::uint8_t* p = nullptr;
  if (!take(2, &p)) return 0;
  return LoadBigEndian<std::uint16_t>(p);
}

std::uint32_t Reader::u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  return LoadBigEndian<std::uint32_t>(p);
}

std::uint64_t Reader::u64() {
  const std::uint8_t* p = nullptr;
  if (!take(8, &p)) return 0;
  return LoadBigEndian<std::uint64_t>(p);
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint16_t len = u16();
  const std::uint8_t* p = nullptr;
  if (!take(len, &p)) return {};
  return std::string(reinterpret_cast<const char*>(p), len);
}

std::vector<std::uint8_t> Reader::blob() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = nullptr;
  // take() validates the length against the remaining buffer before any
  // allocation, so a hostile prefix cannot trigger a huge reserve.
  if (!take(len, &p)) return {};
  return std::vector<std::uint8_t>(p, p + len);
}

std::vector<double> Reader::f64_vec() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = nullptr;
  // take() rejects absurd lengths (8 bytes per element must fit in the
  // remaining buffer) before anything is allocated.
  if (!take(static_cast<std::size_t>(len) * 8, &p)) return {};
  std::vector<double> out(len);
  for (double& v : out) {
    v = std::bit_cast<double>(LoadBigEndian<std::uint64_t>(p));
    p += 8;
  }
  return out;
}

std::uint32_t FrameChecksum(std::span<const std::uint8_t> bytes) {
  Fnv1a fnv;
  fnv.bytes(bytes);
  return fnv.digest();
}

void BeginSealedFrame(Writer& w, std::uint32_t magic, std::uint8_t tag,
                      std::size_t payload_bytes) {
  w.reserve(kSealedOverheadBytes + payload_bytes);
  w.u32(magic);
  w.u8(kProtocolVersion);
  w.u8(tag);
}

std::vector<std::uint8_t> SealFrame(Writer& w) {
  w.u32(FrameChecksum(w.bytes()));
  return w.take();
}

std::optional<std::span<const std::uint8_t>> OpenSealedFrame(
    std::span<const std::uint8_t> frame, std::uint32_t magic, std::uint8_t tag) {
  if (frame.size() < kSealedOverheadBytes) return std::nullopt;
  const auto body = frame.first(frame.size() - 4);
  Reader tail(frame.subspan(body.size()));
  if (tail.u32() != FrameChecksum(body)) return std::nullopt;
  if (PeekSealedTag(body, magic) != tag) return std::nullopt;
  return body.subspan(kSealedHeaderBytes);
}

std::optional<std::uint8_t> PeekSealedTag(std::span<const std::uint8_t> frame,
                                          std::uint32_t magic) {
  Reader r(frame);
  if (r.u32() != magic) return std::nullopt;
  if (r.u8() != kProtocolVersion) return std::nullopt;
  const std::uint8_t tag = r.u8();
  if (!r.ok()) return std::nullopt;
  return tag;
}

}  // namespace p4p::proto
