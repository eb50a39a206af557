// Bounds-checked binary encoding primitives.
//
// The paper defines the P4P interfaces in WSDL/SOAP; this implementation
// substitutes a compact big-endian binary encoding (the interface semantics
// are what matters, not the wire syntax). Writer appends; Reader consumes
// with explicit error state — decoding never reads past the buffer and
// never throws on malformed input.
//
// The sealed-frame envelope below wraps every frame that must survive
// corruption on its own (federation, telemetry, UDP validation):
//   u32 magic | u8 kProtocolVersion | u8 tag | payload | u32 FNV-1a
// where the trailing checksum covers every byte before it.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace p4p::proto {

/// Version byte carried by every portal message and every sealed frame.
inline constexpr std::uint8_t kProtocolVersion = 1;

class Writer {
 public:
  /// Pre-allocates room for `n` more bytes. The bulk appenders (str,
  /// f64_vec, blob) reserve for themselves; message encoders with
  /// per-element loops of scalar writes should reserve their exact
  /// footprint up front so encoding is a single allocation. Each scalar
  /// write grows the buffer once, by its full width.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  /// Length-prefixed (u16) UTF-8 string; throws std::length_error if longer
  /// than 65535 bytes.
  void str(std::string_view s);
  /// Length-prefixed (u32) vector of doubles, encoded in one pass into an
  /// exactly reserved tail.
  void f64_vec(std::span<const double> values);
  /// Appends raw bytes verbatim (used to embed pre-encoded frames).
  void raw(std::span<const std::uint8_t> bytes);
  /// Length-prefixed (u32) byte blob — a pre-encoded frame carried as an
  /// opaque payload inside another frame (the federation push carries whole
  /// response frames this way).
  void blob(std::span<const std::uint8_t> bytes);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put(T v);

  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a byte span. After any failed read, ok() is false
/// and all subsequent reads return zero values.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();
  /// Decodes a length-prefixed vector of doubles in one pass; the length is
  /// checked against the remaining bytes before anything is allocated.
  std::vector<double> f64_vec();
  std::vector<std::uint8_t> blob();

  bool ok() const { return ok_; }
  /// True when the whole buffer was consumed and no error occurred.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n, const std::uint8_t** out);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a (32-bit) over `bytes` — the integrity check that seals every
/// federation, telemetry and validation frame. UDP's 16-bit checksum (or a
/// test's bit flip) lets corruption through that this catches.
std::uint32_t FrameChecksum(std::span<const std::uint8_t> bytes);

/// Incremental FNV-1a (same constants as FrameChecksum) for digesting
/// structured data without materializing one contiguous buffer. Integers
/// are fed big-endian, exactly as Writer lays them out.
class Fnv1a {
 public:
  void bytes(std::span<const std::uint8_t> data) {
    for (const std::uint8_t b : data) hash_ = (hash_ ^ b) * 16777619u;
  }
  void u32(std::uint32_t v) {
    const std::uint8_t buf[4] = {
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    bytes(buf);
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  /// Length-prefixed (u32), so adjacent variable-size fields cannot alias.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }
  std::uint32_t digest() const { return hash_; }

 private:
  std::uint32_t hash_ = 2166136261u;
};

/// Starts a sealed frame in an empty writer: reserves room for the header,
/// `payload_bytes` of payload and the checksum, then writes the header.
void BeginSealedFrame(Writer& w, std::uint32_t magic, std::uint8_t tag,
                      std::size_t payload_bytes);
/// Appends the checksum over everything written so far and returns the
/// finished frame.
std::vector<std::uint8_t> SealFrame(Writer& w);
/// Verifies the checksum, magic, protocol version and `tag`; returns the
/// payload between header and checksum, or std::nullopt.
std::optional<std::span<const std::uint8_t>> OpenSealedFrame(
    std::span<const std::uint8_t> frame, std::uint32_t magic, std::uint8_t tag);
/// The tag of a frame whose magic and protocol version match, without
/// verifying the checksum (routing only; decoding still opens the frame).
std::optional<std::uint8_t> PeekSealedTag(std::span<const std::uint8_t> frame,
                                          std::uint32_t magic);

}  // namespace p4p::proto
