#include "proto/wire.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstring>
#include <cmath>
#include <limits>
#include <random>

#include "proto/federation.h"
#include "proto/messages.h"
#include "proto/telemetry.h"
#include "support/distance_frame_oracle.h"

namespace p4p::proto {
namespace {

TEST(Wire, IntegersRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Wire, BigEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[3], 0x04);
}

TEST(Wire, DoublesRoundTrip) {
  Writer w;
  w.f64(3.14159);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(1e-300);
  Reader r(w.bytes());
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_DOUBLE_EQ(r.f64(), -0.0);
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_DOUBLE_EQ(r.f64(), 1e-300);
  EXPECT_TRUE(r.done());
}

TEST(Wire, StringsRoundTrip) {
  Writer w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str().size(), 1000u);
  EXPECT_TRUE(r.done());
}

TEST(Wire, StringTooLongThrows) {
  Writer w;
  EXPECT_THROW(w.str(std::string(70000, 'x')), std::length_error);
}

TEST(Wire, VectorRoundTrip) {
  Writer w;
  const std::vector<double> v = {1.0, -2.5, 1e9};
  w.f64_vec(v);
  w.f64_vec(std::vector<double>{});
  Reader r(w.bytes());
  EXPECT_EQ(r.f64_vec(), v);
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedReadsFailCleanly) {
  Writer w;
  w.u32(12345);
  for (std::size_t cut = 0; cut < 4; ++cut) {
    Reader r(std::span<const std::uint8_t>(w.bytes().data(), cut));
    r.u32();
    EXPECT_FALSE(r.ok());
    // Further reads stay at zero without UB.
    EXPECT_EQ(r.u8(), 0);
  }
}

TEST(Wire, TruncatedStringFails) {
  Writer w;
  w.str("hello");
  Reader r(std::span<const std::uint8_t>(w.bytes().data(), 4));
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Wire, HostileVectorLengthRejected) {
  // A length prefix of 2^31 must not allocate 16 GiB.
  Writer w;
  w.u32(0x80000000u);
  Reader r(w.bytes());
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Wire, TruncatedVectorRejectedAtEveryCut) {
  Writer w;
  w.f64_vec(std::vector<double>{1.0, -2.5, 1e9});
  const auto& bytes = w.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Reader r(std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_TRUE(r.f64_vec().empty()) << "cut=" << cut;
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
}

TEST(Wire, VectorLengthOneElementPastBufferRejected) {
  // The length claims one double more than the bytes that follow.
  Writer w;
  w.u32(3);
  w.f64(1.0);
  w.f64(2.0);
  Reader r(w.bytes());
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_FALSE(r.ok());
  // A failed read leaves the reader failed.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.done());
}

TEST(Wire, MaxVectorLengthRejected) {
  // 0xFFFFFFFF * 8 overflows 32 bits; the check must not wrap.
  Writer w;
  w.u32(0xFFFFFFFFu);
  w.f64(1.0);
  Reader r(w.bytes());
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Wire, DoneDetectsTrailingBytes) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.bytes());
  r.u8();
  EXPECT_FALSE(r.done());
  r.u8();
  EXPECT_TRUE(r.done());
}

TEST(Wire, RemainingTracksPosition) {
  Writer w;
  w.u32(7);
  w.u32(8);
  Reader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Wire, TakeMovesBuffer) {
  Writer w;
  w.u8(9);
  const auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(Wire, VectorEncodeReservesExactly) {
  // The f64_vec appender must pre-reserve its whole footprint: the final
  // buffer capacity equals its size instead of the up-to-2x slack that
  // doubling growth leaves behind.
  for (const std::size_t n : {1u, 7u, 64u, 1000u, 5000u}) {
    Writer w;
    w.f64_vec(std::vector<double>(n, 1.5));
    EXPECT_EQ(w.bytes().capacity(), w.bytes().size()) << "n=" << n;
  }
}

TEST(Wire, ScalarWritesMatchShiftedBytes) {
  Writer w;
  w.u16(0xA1B2);
  w.u32(0xC3D4E5F6u);
  w.u64(0x0102030405060708ULL);
  w.f64(-2.0);  // 0xC000000000000000
  const std::vector<std::uint8_t> expected = {
      0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, 0x01, 0x02, 0x03, 0x04,
      0x05, 0x06, 0x07, 0x08, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(w.bytes(), expected);
}

TEST(Wire, RandomMatrixMessagesRoundTripWithTightCapacity) {
  // Fuzz-ish sweep: random matrix payloads of random sizes through the
  // full message codec. Checks (a) exact round-trip, (b) the encoders'
  // reserve() calls keep the final capacity at (or within one small header
  // growth-step of) the final size.
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<int> num_pids(1, 40);
  std::uniform_real_distribution<double> dist(0.0, 1e6);
  for (int iter = 0; iter < 50; ++iter) {
    const int n = num_pids(rng);
    GetExternalViewResp view;
    view.num_pids = n;
    view.version = rng();
    view.distances.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (auto& d : view.distances) d = dist(rng);

    const auto bytes = Encode(view);
    // version byte + type byte + i32 + u64 + (u32 + 8n^2).
    EXPECT_EQ(bytes.size(), 2u + 4u + 8u + 4u + view.distances.size() * 8u);
    EXPECT_LE(bytes.capacity(), bytes.size() + 32u) << "n=" << n;

    const auto decoded = Decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    const auto* out = std::get_if<GetExternalViewResp>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->num_pids, view.num_pids);
    EXPECT_EQ(out->version, view.version);
    EXPECT_EQ(out->distances, view.distances);

    GetPDistancesResp row;
    row.from = n - 1;
    row.version = rng();
    row.distances.assign(static_cast<std::size_t>(n), dist(rng));
    const auto row_bytes = Encode(row);
    EXPECT_LE(row_bytes.capacity(), row_bytes.size() + 32u) << "n=" << n;
    const auto row_decoded = Decode(row_bytes);
    ASSERT_TRUE(row_decoded.has_value());
    EXPECT_EQ(std::get<GetPDistancesResp>(*row_decoded).distances, row.distances);
  }
}

// Known answers: the sealed-frame envelope is
//   u32 magic | u8 protocol version | u8 tag | payload | u32 FNV-1a
// and peers on older builds parse exactly these bytes. The expected frames
// below are spelled out literally (not produced by the codec under test),
// so any change to the layout, the byte order or the checksum fails here.

std::vector<std::uint8_t> Bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(WireKnownAnswer, Fnv1aReferenceVectors) {
  EXPECT_EQ(FrameChecksum(Bytes("")), 0x811c9dc5u);
  EXPECT_EQ(FrameChecksum(Bytes("a")), 0xe40c292cu);
  EXPECT_EQ(FrameChecksum(Bytes("foobar")), 0xbf9cf968u);
}

TEST(WireKnownAnswer, FederationBeaconBytes) {
  const std::vector<std::uint8_t> expected = {
      0x50, 0x34, 0x50, 0x46,                          // "P4PF"
      0x01,                                            // protocol version
      0x04,                                            // kBeacon
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,  // term
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // version
      0x07, 0x12, 0x03, 0xfb};                         // FNV-1a
  const auto bytes = EncodeBeacon(7, 0x0102030405060708ULL);
  EXPECT_EQ(bytes, expected);
  const auto info = DecodeBeacon(expected);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->term, 7u);
  EXPECT_EQ(info->version, 0x0102030405060708ULL);
  EXPECT_EQ(PeekFederationTag(expected), FederationTag::kBeacon);
}

TEST(WireKnownAnswer, TelemetryAckBytes) {
  const std::vector<std::uint8_t> expected = {
      0x50, 0x34, 0x50, 0x4c,                          // "P4PL"
      0x01,                                            // protocol version
      0x02,                                            // kAck
      0x02,                                            // kStaleSeq
      0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,  // seq
      0x45, 0xa0, 0xbd, 0x08};                         // FNV-1a
  const auto bytes = EncodeTelemetryAck(
      TelemetryAck{TelemetryStatus::kStaleSeq, 0x1122334455667788ULL});
  EXPECT_EQ(bytes, expected);
  const auto ack = DecodeTelemetryAck(expected);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, TelemetryStatus::kStaleSeq);
  EXPECT_EQ(ack->seq, 0x1122334455667788ULL);
  EXPECT_EQ(PeekTelemetryTag(expected), TelemetryTag::kAck);
}

TEST(WireKnownAnswer, ValidationRequestBytes) {
  const std::vector<std::uint8_t> expected = {
      0x50, 0x34, 0x50, 0x56,                          // "P4PV"
      0x01,                                            // protocol version
      0x01,                                            // request tag
      0xa1, 0xb2, 0xc3, 0xd4, 0xe5, 0xf6, 0x07, 0x18,  // nonce
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x63,  // if_version
      0x70, 0x96, 0x42, 0xa0};                         // FNV-1a
  const auto bytes =
      EncodeValidationRequest(ValidationRequest{0xa1b2c3d4e5f60718ULL, 99});
  EXPECT_EQ(bytes, expected);
  const auto request = DecodeValidationRequest(expected);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->nonce, 0xa1b2c3d4e5f60718ULL);
  EXPECT_EQ(request->if_version, 99u);
}

TEST(WireKnownAnswer, ValidationResponseBytes) {
  const std::vector<std::uint8_t> expected = {
      0x50, 0x34, 0x50, 0x56,                          // "P4PV"
      0x01,                                            // protocol version
      0x02,                                            // response tag
      0x01,                                            // kNotModified
      0xa1, 0xb2, 0xc3, 0xd4, 0xe5, 0xf6, 0x07, 0x18,  // nonce
      0x01, 0x0b,                                      // NotModifiedResp frame
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a,  //   version
      0x63, 0x69, 0xa6, 0x5d};                         // FNV-1a
  const auto bytes = EncodeValidationResponse(
      0xa1b2c3d4e5f60718ULL, ValidationStatus::kNotModified,
      Encode(NotModifiedResp{42}));
  EXPECT_EQ(bytes, expected);
  const auto response = DecodeValidationResponse(expected);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->nonce, 0xa1b2c3d4e5f60718ULL);
  EXPECT_EQ(response->status, ValidationStatus::kNotModified);
  EXPECT_EQ(response->version, 42u);
}

// p-distance frames: the doubles are stored as their raw IEEE-754 bits,
// big-endian, so signed zeros, infinities, NaN payloads and denormals all
// cross the wire unchanged.

const double kNaNWithPayload = std::bit_cast<double>(0x7FF8000000000ABCULL);

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(WireKnownAnswer, PDistancesRespBytes) {
  const std::vector<std::uint8_t> expected = {
      0x01, 0x02,                                      // version, kGetPDistancesResp
      0x00, 0x00, 0x00, 0x03,                          // from
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // version
      0x00, 0x00, 0x00, 0x05,                          // count
      0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // -0.0
      0x7f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // +inf
      0x7f, 0xf8, 0x00, 0x00, 0x00, 0x00, 0x0a, 0xbc,  // NaN, payload 0xabc
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // smallest denormal
      0x7f, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}; // DBL_MAX
  const std::vector<double> row = {-0.0, std::numeric_limits<double>::infinity(),
                                   kNaNWithPayload,
                                   std::numeric_limits<double>::denorm_min(), DBL_MAX};
  EXPECT_EQ(Encode(GetPDistancesResp{3, 0x0102030405060708ULL, row}), expected);
  const auto decoded = Decode(expected);
  ASSERT_TRUE(decoded.has_value());
  const auto& resp = std::get<GetPDistancesResp>(*decoded);
  EXPECT_EQ(resp.from, 3);
  EXPECT_EQ(resp.version, 0x0102030405060708ULL);
  EXPECT_TRUE(SameBits(resp.distances, row));
}

TEST(WireKnownAnswer, ExternalViewRespBytes) {
  const std::vector<std::uint8_t> expected = {
      0x01, 0x04,                                      // version, kGetExternalViewResp
      0x00, 0x00, 0x00, 0x02,                          // num_pids
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a,  // version
      0x00, 0x00, 0x00, 0x04,                          // count
      0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // (0,0) -0.0
      0x7f, 0xf8, 0x00, 0x00, 0x00, 0x00, 0x0a, 0xbc,  // (0,1) NaN, payload 0xabc
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // (1,0) smallest denormal
      0x7f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}; // (1,1) +inf
  const std::vector<double> view = {-0.0, kNaNWithPayload,
                                    std::numeric_limits<double>::denorm_min(),
                                    std::numeric_limits<double>::infinity()};
  EXPECT_EQ(Encode(GetExternalViewResp{2, 42, view}), expected);
  EXPECT_EQ(EncodeExternalViewFrame(2, 42, view), expected);
  const auto decoded = Decode(expected);
  ASSERT_TRUE(decoded.has_value());
  const auto& resp = std::get<GetExternalViewResp>(*decoded);
  EXPECT_EQ(resp.num_pids, 2);
  EXPECT_EQ(resp.version, 42u);
  EXPECT_TRUE(SameBits(resp.distances, view));

  // Row 1 spliced out of the view frame, restamped at version 7.
  const std::vector<std::uint8_t> row1 = {
      0x01, 0x02,                                      // version, kGetPDistancesResp
      0x00, 0x00, 0x00, 0x01,                          // from
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,  // version
      0x00, 0x00, 0x00, 0x02,                          // count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // smallest denormal
      0x7f, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}; // +inf
  EXPECT_EQ(SpliceRowFrame(expected, 1, 7), row1);
}

TEST(WireDistanceFrame, BulkCodecMatchesReferenceEncoder) {
  // Random bit patterns cover every double class (NaNs with arbitrary
  // payloads, signed zeros, infinities, denormals).
  std::mt19937_64 rng(20261020);
  for (const int n : {0, 1, 2, 7, 52, 144}) {
    const auto un = static_cast<std::size_t>(n);
    std::vector<double> values(un * un);
    for (auto& v : values) v = std::bit_cast<double>(rng());
    const std::uint64_t version = rng();

    const auto view = EncodeExternalViewFrame(n, version, values);
    EXPECT_EQ(view, testsupport::ReferenceDistanceFrame(MsgType::kGetExternalViewResp, n,
                                                        version, values))
        << "n=" << n;
    EXPECT_EQ(view.capacity(), view.size()) << "n=" << n;
    EXPECT_EQ(Encode(GetExternalViewResp{n, version, values}), view) << "n=" << n;
    const auto decoded = Decode(view);
    ASSERT_TRUE(decoded.has_value()) << "n=" << n;
    EXPECT_TRUE(SameBits(std::get<GetExternalViewResp>(*decoded).distances, values));

    for (int i = 0; i < n; ++i) {
      const std::span<const double> row(values.data() + static_cast<std::size_t>(i) * un, un);
      const std::uint64_t row_version = rng();
      const auto reference = testsupport::ReferenceDistanceFrame(
          MsgType::kGetPDistancesResp, i, row_version, row);
      const auto spliced = SpliceRowFrame(view, i, row_version);
      ASSERT_EQ(spliced, reference) << "n=" << n << " row=" << i;
      EXPECT_EQ(spliced.capacity(), spliced.size());
      EXPECT_EQ(Encode(GetPDistancesResp{i, row_version, {row.begin(), row.end()}}),
                reference);
    }
  }
}

TEST(WireDistanceFrame, ViewWhoseLengthIsNotNumPidsSquaredFailsToDecode) {
  const std::vector<double> eight(8, 1.0);
  EXPECT_FALSE(Decode(testsupport::ReferenceDistanceFrame(
                          MsgType::kGetExternalViewResp, 3, 1, eight))
                   .has_value());
  EXPECT_FALSE(Decode(testsupport::ReferenceDistanceFrame(
                          MsgType::kGetExternalViewResp, -2, 1, std::vector<double>(4)))
                   .has_value());
  // A count past the bytes that follow is a truncated frame.
  auto frame = testsupport::ReferenceDistanceFrame(MsgType::kGetExternalViewResp, 2, 1,
                                                   std::vector<double>(4, 1.0));
  frame.pop_back();
  EXPECT_FALSE(Decode(frame).has_value());
}

TEST(WireDistanceFrame, EncodersRejectInconsistentInput) {
  EXPECT_THROW(EncodeExternalViewFrame(3, 1, std::vector<double>(8)),
               std::invalid_argument);
  EXPECT_THROW(EncodeExternalViewFrame(-1, 1, std::vector<double>(1)),
               std::invalid_argument);
  const auto view = EncodeExternalViewFrame(2, 1, std::vector<double>(4, 0.5));
  EXPECT_THROW(SpliceRowFrame(view, 2, 1), std::invalid_argument);
  EXPECT_THROW(SpliceRowFrame(view, -1, 1), std::invalid_argument);
  auto short_view = view;
  short_view.pop_back();
  EXPECT_THROW(SpliceRowFrame(short_view, 0, 1), std::invalid_argument);
  // A row frame is not a view frame.
  EXPECT_THROW(SpliceRowFrame(Encode(GetPDistancesResp{0, 1, {0.5}}), 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace p4p::proto
