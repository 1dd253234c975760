// The network serving subsystem (src/net/): wire protocol, shared request
// validation, endpoint parsing, and the loopback server. The contract
// under test:
//
// - one ResolveRequest and one ResolveResult frame equal bytes written
//   out by hand from docs/wire_protocol.md's tables, so an encoder and a
//   decoder that are wrong in the same way (field order, byte order)
//   cannot pass by round-tripping each other;
// - wire framing round-trips every ResolveRequest / ResolveResult field
//   bit-exactly (every Priority, every ResolveOutcome, every StatusCode,
//   weight bit patterns including NaN/infinities/-0.0/denormals), and
//   rejects every malformed payload: truncation at any prefix length,
//   foreign versions, unknown type/outcome/status/flag bytes, length
//   fields pointing past the payload, trailing bytes;
// - the comparison array's block copy (little-endian hosts) and its
//   byte-by-byte path write the same bytes and read back the same
//   comparisons, so the byte path stays tested where it does not run;
// - ValidateResolveRequest is one validator for the CLI flag path and
//   the wire decode path: max_batch/deadline_ms/priority bounds;
// - the loopback server serves remote clients through QoS with the same
//   bit-identity guarantee in-process callers get: slices any set of
//   concurrent connections received, re-sorted by ticket, equal one
//   in-process drain — at shards 1 and 4, under TSan;
// - a client that vanishes mid-stream poisons nothing: its lost slices
//   leave ticket gaps, every other connection's slices stay bit-identical
//   per ticket, and the server keeps serving new connections;
// - protocol errors close only the offending connection; well-framed but
//   invalid requests get a polite kRejected reply on a connection that
//   stays usable; anonymous clients (client_id 0) are keyed per
//   connection for rate limiting; kShed crosses the wire with its
//   retry_after_ms hint and ResolveWithRetry honors it;
// - Shutdown() stops accepting, flushes in-flight responses and drains
//   the resolver (idempotent, concurrent-safe);
// - fault seams net.accept / net.read / net.write behave as connection
//   drops, never as resolver poison (fault-injection builds only).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/fault_injection.h"
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace sper {
namespace {

ProfileStore DirtyStore() {
  Result<DatasetBundle> ds = GenerateDataset("restaurant", {});
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

std::unique_ptr<Resolver> MustCreate(const ProfileStore& store,
                                     const ResolverOptions& options) {
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(store, options);
  EXPECT_TRUE(resolver.ok()) << resolver.status().ToString();
  return std::move(resolver).value();
}

std::uint64_t WeightBits(double w) {
  std::uint64_t bits;
  std::memcpy(&bits, &w, sizeof(bits));
  return bits;
}

bool SameComparisons(const std::vector<Comparison>& a,
                     const std::vector<Comparison>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].i != b[k].i || a[k].j != b[k].j ||
        WeightBits(a[k].weight) != WeightBits(b[k].weight)) {
      return false;
    }
  }
  return true;
}

/// In-process reference: drains a fresh resolver through
/// Resolver::Serve in fixed `slice`-sized requests and returns
/// ticket -> slice.
/// Tickets are dense from 0, so with every request identically sized the
/// wire runs below admit the same request sequence and must reproduce
/// exactly these slices at these tickets.
std::map<std::uint64_t, std::vector<Comparison>> ReferenceSlices(
    const ProfileStore& store, const ResolverOptions& options,
    std::uint64_t slice) {
  std::unique_ptr<Resolver> resolver = MustCreate(store, options);
  std::map<std::uint64_t, std::vector<Comparison>> out;
  for (;;) {
    ResolveRequest request;
    request.budget = slice;
    request.max_batch = slice;
    ResolveResult result = resolver->Serve(request);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    out[result.ticket] = std::move(result.comparisons);
    if (result.stream_exhausted || out[result.ticket].size() < slice) break;
  }
  return out;
}

std::vector<Comparison> Flatten(
    const std::map<std::uint64_t, std::vector<Comparison>>& slices) {
  std::vector<Comparison> all;
  for (const auto& [ticket, slice] : slices) {
    all.insert(all.end(), slice.begin(), slice.end());
  }
  return all;
}

net::Client MustConnect(std::uint16_t port) {
  Result<net::Client> client = net::Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Drains over the wire in fixed `slice`-sized requests, folding every
/// received slice into `out` keyed by ticket. Stops at stream exhaustion
/// (or after `max_slices` requests when positive).
void DrainOverWire(net::Client& client, std::uint64_t slice,
                   Priority priority,
                   std::map<std::uint64_t, std::vector<Comparison>>* out,
                   std::uint64_t max_slices = 0) {
  std::uint64_t sent = 0;
  for (;;) {
    if (max_slices > 0 && sent >= max_slices) return;
    ResolveRequest request;
    request.budget = slice;
    request.max_batch = slice;
    request.priority = priority;
    Result<ResolveResult> attempt = client.ResolveWithRetry(request);
    ASSERT_TRUE(attempt.ok()) << attempt.status().ToString();
    const ResolveResult& result = attempt.value();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ++sent;
    (*out)[result.ticket] = result.comparisons;
    if (result.stream_exhausted || result.comparisons.size() < slice) return;
  }
}

struct LoopbackServer {
  std::unique_ptr<Resolver> resolver;
  std::unique_ptr<net::Server> server;

  std::uint16_t port() const { return server->port(); }
};

LoopbackServer StartLoopback(const ProfileStore& store,
                             const ResolverOptions& options,
                             net::ServerOptions server_options = {}) {
  LoopbackServer loopback;
  loopback.resolver = MustCreate(store, options);
  Result<std::unique_ptr<net::Server>> started =
      net::Server::Start(*loopback.resolver, std::move(server_options));
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  loopback.server = std::move(started).value();
  return loopback;
}

// ------------------------------------------------------- wire round trips

ResolveRequest SampleRequest(Priority priority) {
  ResolveRequest request;
  request.budget = 0xdeadbeefcafef00dull;
  request.max_batch = 12345;
  request.deadline_ms = 86'399'999;
  request.client_id = 0x0123456789abcdefull;
  request.priority = priority;
  return request;
}

TEST(WireTest, RequestRoundTripsEveryPriority) {
  for (Priority priority :
       {Priority::kInteractive, Priority::kBatch, Priority::kBestEffort}) {
    const ResolveRequest request = SampleRequest(priority);
    const std::string frame = net::EncodeResolveRequestFrame(request);
    // Frame = 4-byte length prefix + payload.
    const std::string_view payload = std::string_view(frame).substr(4);
    Result<ResolveRequest> decoded = net::DecodeResolveRequest(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().budget, request.budget);
    EXPECT_EQ(decoded.value().max_batch, request.max_batch);
    EXPECT_EQ(decoded.value().deadline_ms, request.deadline_ms);
    EXPECT_EQ(decoded.value().client_id, request.client_id);
    EXPECT_EQ(decoded.value().priority, request.priority);
  }
}

TEST(WireTest, RequestTruncationAtEveryPrefixFails) {
  const std::string frame =
      net::EncodeResolveRequestFrame(SampleRequest(Priority::kBatch));
  const std::string_view payload = std::string_view(frame).substr(4);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(net::DecodeResolveRequest(payload.substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
  EXPECT_TRUE(net::DecodeResolveRequest(payload).ok());
}

TEST(WireTest, RequestRejectsTrailingBytes) {
  std::string frame =
      net::EncodeResolveRequestFrame(SampleRequest(Priority::kBatch));
  std::string payload = frame.substr(4);
  payload.push_back('\0');
  EXPECT_FALSE(net::DecodeResolveRequest(payload).ok());
}

TEST(WireTest, RequestDecodeRunsTheSharedValidator) {
  // Patch the priority byte (payload offset 2 + 4*8 = 34) to an unknown
  // class: decode must reject exactly as ValidateResolveRequest does.
  std::string frame =
      net::EncodeResolveRequestFrame(SampleRequest(Priority::kBatch));
  std::string payload = frame.substr(4);
  payload[34] = static_cast<char>(9);
  Result<ResolveRequest> decoded = net::DecodeResolveRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // Patch max_batch (payload offset 2 + 8 = 10) to 2^63: must be rejected
  // before any size_t narrowing could wrap it into range.
  payload = frame.substr(4);
  payload[17] = static_cast<char>(0x80);  // top byte of little-endian u64
  EXPECT_FALSE(net::DecodeResolveRequest(payload).ok());
}

ResolveResult SampleResult() {
  ResolveResult result;
  result.ticket = 0x1122334455667788ull;
  result.stream_exhausted = true;
  result.budget_exhausted = true;
  result.outcome = ResolveOutcome::kShed;
  result.status = Status::ResourceExhausted("queue full; back off");
  result.retry_after_ms = 512;
  result.comparisons = {{1, 2, 0.5}, {3, 4, -1.25}, {5, 6, 1e300}};
  return result;
}

TEST(WireTest, ResultRoundTripsEveryOutcomeAndStatusCode) {
  const ResolveOutcome outcomes[] = {
      ResolveOutcome::kServed,   ResolveOutcome::kDeadlineExpired,
      ResolveOutcome::kCancelled, ResolveOutcome::kShed,
      ResolveOutcome::kEvicted,  ResolveOutcome::kRejected,
      ResolveOutcome::kFailed};
  const StatusCode codes[] = {
      StatusCode::kOk,          StatusCode::kInvalidArgument,
      StatusCode::kNotFound,    StatusCode::kIoError,
      StatusCode::kFailedPrecondition, StatusCode::kInternal,
      StatusCode::kResourceExhausted};
  for (ResolveOutcome outcome : outcomes) {
    for (StatusCode code : codes) {
      ResolveResult result = SampleResult();
      result.outcome = outcome;
      result.status = Status::FromCode(code, "why it happened");
      const std::string frame = net::EncodeResolveResultFrame(result);
      Result<ResolveResult> decoded =
          net::DecodeResolveResult(std::string_view(frame).substr(4));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded.value().ticket, result.ticket);
      EXPECT_EQ(decoded.value().outcome, outcome);
      EXPECT_EQ(decoded.value().status.code(), code);
      if (code != StatusCode::kOk) {
        EXPECT_EQ(decoded.value().status.message(), "why it happened");
      }
      EXPECT_TRUE(decoded.value().stream_exhausted);
      EXPECT_TRUE(decoded.value().budget_exhausted);
      EXPECT_EQ(decoded.value().retry_after_ms, result.retry_after_ms);
      EXPECT_TRUE(
          SameComparisons(decoded.value().comparisons, result.comparisons));
    }
  }
}

TEST(WireTest, ResultWeightsTravelAsBitPatterns) {
  ResolveResult result;
  result.comparisons = {
      {0, 1, std::numeric_limits<double>::quiet_NaN()},
      {2, 3, std::numeric_limits<double>::infinity()},
      {4, 5, -std::numeric_limits<double>::infinity()},
      {6, 7, -0.0},
      {8, 9, std::numeric_limits<double>::denorm_min()},
      {10, 11, 0.1},
  };
  const std::string frame = net::EncodeResolveResultFrame(result);
  Result<ResolveResult> decoded =
      net::DecodeResolveResult(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().comparisons.size(), result.comparisons.size());
  for (std::size_t k = 0; k < result.comparisons.size(); ++k) {
    EXPECT_EQ(WeightBits(decoded.value().comparisons[k].weight),
              WeightBits(result.comparisons[k].weight))
        << "weight " << k << " changed bits in transit";
  }
}

TEST(WireTest, ResultRoundTripsEmptyAndLargeSlices) {
  ResolveResult empty;
  std::string frame = net::EncodeResolveResultFrame(empty);
  Result<ResolveResult> decoded =
      net::DecodeResolveResult(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().comparisons.empty());

  ResolveResult large;
  large.comparisons.reserve(10000);
  for (std::uint32_t k = 0; k < 10000; ++k) {
    large.comparisons.push_back({k, k + 1, k * 0.001});
  }
  frame = net::EncodeResolveResultFrame(large);
  decoded = net::DecodeResolveResult(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(
      SameComparisons(decoded.value().comparisons, large.comparisons));
}

TEST(WireTest, ResultTruncationAtEveryPrefixFails) {
  const std::string frame = net::EncodeResolveResultFrame(SampleResult());
  const std::string_view payload = std::string_view(frame).substr(4);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(net::DecodeResolveResult(payload.substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
  EXPECT_TRUE(net::DecodeResolveResult(payload).ok());
}

TEST(WireTest, ResultRejectsUnknownBytes) {
  const std::string frame = net::EncodeResolveResultFrame(SampleResult());
  const std::string good = frame.substr(4);
  // Payload layout: ver(1) type(1) ticket(8) outcome(1) flags(1) code(1).
  std::string bad = good;
  bad[10] = static_cast<char>(7);  // unknown outcome byte
  EXPECT_FALSE(net::DecodeResolveResult(bad).ok());
  bad = good;
  bad[11] = static_cast<char>(0x04);  // unknown flag bit
  EXPECT_FALSE(net::DecodeResolveResult(bad).ok());
  bad = good;
  bad[12] = static_cast<char>(7);  // unknown status code byte
  EXPECT_FALSE(net::DecodeResolveResult(bad).ok());
  bad = good;
  bad.push_back('\0');  // count no longer matches the remaining bytes
  EXPECT_FALSE(net::DecodeResolveResult(bad).ok());
}

TEST(WireTest, HeaderRejectsForeignVersionsAndUnknownTypes) {
  EXPECT_FALSE(net::DecodeFrameHeader("").ok());
  EXPECT_FALSE(net::DecodeFrameHeader("\x01").ok());
  std::string payload;
  net::PutU8(payload, 99);  // foreign version
  net::PutU8(payload, 1);
  EXPECT_FALSE(net::DecodeFrameHeader(payload).ok());
  payload.clear();
  net::PutU8(payload, net::kWireVersion);
  net::PutU8(payload, 0);  // type below the known range
  EXPECT_FALSE(net::DecodeFrameHeader(payload).ok());
  payload.clear();
  net::PutU8(payload, net::kWireVersion);
  net::PutU8(payload, 5);  // type above the known range
  EXPECT_FALSE(net::DecodeFrameHeader(payload).ok());
  payload.clear();
  net::PutU8(payload, net::kWireVersion);
  net::PutU8(payload, 3);  // kMetricsRequest: header-only frame is fine
  Result<net::FrameType> type = net::DecodeFrameHeader(payload);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value(), net::FrameType::kMetricsRequest);
}

TEST(WireTest, MetricsFramesRoundTrip) {
  const std::string snapshot = "{\"schema\": \"sper.metrics.v1\"}";
  const std::string frame = net::EncodeMetricsResultFrame(snapshot);
  Result<std::string> decoded =
      net::DecodeMetricsResult(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), snapshot);

  // Truncated length field and trailing garbage are both rejected.
  const std::string_view payload = std::string_view(frame).substr(4);
  EXPECT_FALSE(net::DecodeMetricsResult(payload.substr(0, 3)).ok());
  std::string trailing(payload);
  trailing.push_back('!');
  EXPECT_FALSE(net::DecodeMetricsResult(trailing).ok());
}

TEST(WireTest, StreamDigestMatchesTheFnvFold) {
  // The fold is FNV-1a over (i, j, weight-bits), same as the digest the
  // serving benches use — recompute it by hand for one comparison.
  const Comparison c{7, 11, 2.5};
  std::uint64_t expected = 1469598103934665603ull;
  const auto mix = [&expected](std::uint64_t v) {
    expected ^= v;
    expected *= 1099511628211ull;
  };
  mix(7);
  mix(11);
  mix(WeightBits(2.5));
  net::StreamDigest digest;
  digest.Fold(c);
  EXPECT_EQ(digest.value, expected);
  EXPECT_EQ(digest.count, 1u);
}

// ------------------------------------------------------------ golden frames

/// The bytes a hex string spells; spaces are ignored.
std::string FromHex(std::string_view hex) {
  const auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string bytes;
  std::string digits;
  for (char c : hex) {
    if (c != ' ') digits.push_back(c);
  }
  for (std::size_t k = 0; k + 1 < digits.size(); k += 2) {
    bytes.push_back(
        static_cast<char>(nibble(digits[k]) * 16 + nibble(digits[k + 1])));
  }
  return bytes;
}

/// Lowercase hex of `bytes`, for readable mismatches.
std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

TEST(WireTest, RequestFrameMatchesTheSpecBytes) {
  // docs/wire_protocol.md, "Framing" and "ResolveRequest body", one field
  // per line, every integer little-endian.
  const std::string golden = FromHex(
      "23000000"           // payload_len = 35
      "01 01"              // version 1, type 1 (ResolveRequest)
      "0807060504030201"   // budget = 0x0102030405060708
      "0010000000000000"   // max_batch = 4096
      "fa00000000000000"   // deadline_ms = 250
      "8877665544332211"   // client_id = 0x1122334455667788
      "02");               // priority 2 (best-effort)
  ResolveRequest request;
  request.budget = 0x0102030405060708ull;
  request.max_batch = 4096;
  request.deadline_ms = 250;
  request.client_id = 0x1122334455667788ull;
  request.priority = Priority::kBestEffort;
  EXPECT_EQ(ToHex(net::EncodeResolveRequestFrame(request)), ToHex(golden));

  Result<ResolveRequest> decoded =
      net::DecodeResolveRequest(std::string_view(golden).substr(4));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().budget, request.budget);
  EXPECT_EQ(decoded.value().max_batch, request.max_batch);
  EXPECT_EQ(decoded.value().deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.value().client_id, request.client_id);
  EXPECT_EQ(decoded.value().priority, request.priority);
}

TEST(WireTest, ResultFrameMatchesTheSpecBytes) {
  // docs/wire_protocol.md, "Framing" and "ResolveResult body": a failed
  // slice with a status message and two comparisons, the second weighing
  // a NaN with a payload.
  const std::uint64_t nan_bits = 0x7ff80000deadbeefull;
  const std::string golden = FromHex(
      "41000000"           // payload_len = 65
      "01 02"              // version 1, type 2 (ResolveResult)
      "a8a7a6a5a4a3a2a1"   // ticket = 0xa1a2a3a4a5a6a7a8
      "06"                 // outcome 6 (failed)
      "02"                 // flags: bit 1, budget_exhausted
      "05"                 // status_code 5 (internal)
      "04000000 626f6f6d"  // msg_len = 4, "boom"
      "a00f000000000000"   // retry_after_ms = 4000
      "02000000"           // count = 2
      "02010000 05040300 000000000000e03f"    // i = 258, j = 197637, 0.5
      "07000000 0d0c0b0a efbeadde0000f87f");  // i = 7, j = 0x0a0b0c0d, NaN
  ResolveResult result;
  result.ticket = 0xa1a2a3a4a5a6a7a8ull;
  result.outcome = ResolveOutcome::kFailed;
  result.budget_exhausted = true;
  result.status = Status::Internal("boom");
  result.retry_after_ms = 4000;
  result.comparisons = {{258, 197637, 0.5},
                        {7, 0x0a0b0c0d, std::bit_cast<double>(nan_bits)}};
  EXPECT_EQ(ToHex(net::EncodeResolveResultFrame(result)), ToHex(golden));

  Result<ResolveResult> decoded =
      net::DecodeResolveResult(std::string_view(golden).substr(4));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().ticket, result.ticket);
  EXPECT_EQ(decoded.value().outcome, result.outcome);
  EXPECT_FALSE(decoded.value().stream_exhausted);
  EXPECT_TRUE(decoded.value().budget_exhausted);
  EXPECT_EQ(decoded.value().status.code(), StatusCode::kInternal);
  EXPECT_EQ(decoded.value().status.message(), "boom");
  EXPECT_EQ(decoded.value().retry_after_ms, result.retry_after_ms);
  EXPECT_TRUE(
      SameComparisons(decoded.value().comparisons, result.comparisons));
  ASSERT_EQ(decoded.value().comparisons.size(), 2u);
  EXPECT_EQ(WeightBits(decoded.value().comparisons[1].weight), nan_bits);
}

TEST(WireTest, BlockAndByteArrayPathsAgree) {
  // The comparison array's block copy (little-endian hosts) and its byte
  // path (every host) must write the same bytes and read back the same
  // comparisons, whatever the host takes. Weights cover NaN payloads,
  // -0.0, +-inf and denormals; ids reach UINT32_MAX - 1.
  const std::uint64_t weight_bits[] = {
      0x7ff8000000000123ull,  // quiet NaN with a payload
      0x7ff0000000000001ull,  // signalling NaN
      0xfff80000deadbeefull,  // negative NaN with a payload
      0x8000000000000000ull,  // -0.0
      0x0000000000000000ull,  // +0.0
      0x7ff0000000000000ull,  // +inf
      0xfff0000000000000ull,  // -inf
      0x0000000000000001ull,  // the smallest denormal
      0x800fffffffffffffull,  // the largest negative denormal
      0x3fe0000000000000ull,  // 0.5
  };
  const std::uint32_t ids[] = {0, 1, 0x01020304u, 0x7fffffffu,
                               std::numeric_limits<std::uint32_t>::max() - 1};
  std::vector<Comparison> slice;
  for (std::size_t k = 0; k < std::size(weight_bits); ++k) {
    Comparison c;
    c.i = ids[k % std::size(ids)];
    c.j = ids[(k + 3) % std::size(ids)];
    c.weight = std::bit_cast<double>(weight_bits[k]);
    slice.push_back(c);
  }
  std::string block(slice.size() * 16, '\0');
  std::string bytes(slice.size() * 16, '\x55');
  net::StoreComparisons(slice, block.data());
  net::StoreComparisonBytes(slice, bytes.data());
  EXPECT_EQ(ToHex(block), ToHex(bytes));
  // The first comparison, by hand: i = 0, j = 0x7fffffff, quiet NaN.
  EXPECT_EQ(ToHex(bytes.substr(0, 16)),
            ToHex(FromHex("00000000 ffffff7f 230100000000f87f")));

  // LoadComparisons is DecodeResolveResult's load: it replaces whatever
  // the vector held.
  std::vector<Comparison> from_block(3, Comparison(7, 8, 9.0));
  std::vector<Comparison> from_bytes(slice.size());
  net::LoadComparisons(block, from_block);
  net::LoadComparisonBytes(bytes.data(), from_bytes);
  EXPECT_TRUE(SameComparisons(from_block, slice));
  EXPECT_TRUE(SameComparisons(from_bytes, slice));
}

TEST(WireTest, MaxFramePayloadFitsAMaximalResponse) {
  // kMaxBatch comparisons at 16 bytes each, plus the fixed result header
  // and a status message, must fit one frame — the server clamps
  // max_batch 0 to kMaxBatch relying on exactly this.
  const std::uint64_t maximal =
      2 + 8 + 1 + 1 + 1 + 4 + 65536 + 8 + 4 +
      static_cast<std::uint64_t>(ResolveRequest::kMaxBatch) * 16;
  EXPECT_LE(maximal, net::kMaxFramePayload);
}

// ------------------------------------------------- shared request validator

TEST(ValidateResolveRequestTest, AcceptsServableRequests) {
  ResolveRequest request;
  EXPECT_TRUE(ValidateResolveRequest(request).ok()) << "defaults servable";
  request.budget = std::numeric_limits<std::uint64_t>::max();
  request.max_batch = ResolveRequest::kMaxBatch;
  request.deadline_ms = ResolveRequest::kMaxDeadlineMs;
  request.priority = Priority::kBestEffort;
  EXPECT_TRUE(ValidateResolveRequest(request).ok())
      << "budget is intentionally unbounded; the rest at their maxima";
}

TEST(ValidateResolveRequestTest, RejectsOutOfRangeFields) {
  ResolveRequest request;
  request.max_batch = ResolveRequest::kMaxBatch + 1;
  Status status = ValidateResolveRequest(request);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("max_batch"), std::string::npos);

  request = ResolveRequest{};
  request.deadline_ms = ResolveRequest::kMaxDeadlineMs + 1;
  status = ValidateResolveRequest(request);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("deadline_ms"), std::string::npos);

  request = ResolveRequest{};
  request.priority = static_cast<Priority>(9);
  status = ValidateResolveRequest(request);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("priority"), std::string::npos);
}

TEST(StatusFromCodeTest, ReconstructsAcrossTheWireBoundary) {
  const Status err =
      Status::FromCode(StatusCode::kResourceExhausted, "busy");
  EXPECT_EQ(err.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(err.message(), "busy");
  const Status ok = Status::FromCode(StatusCode::kOk, "dropped");
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.message().empty()) << "OK statuses carry no message";
}

// ----------------------------------------------------------- endpoints

TEST(ParseEndpointTest, ParsesStrictly) {
  Result<net::Endpoint> endpoint = net::ParseEndpoint("127.0.0.1:8080");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint.value().host, "127.0.0.1");
  EXPECT_EQ(endpoint.value().port, 8080);

  endpoint = net::ParseEndpoint("localhost:0");
  ASSERT_TRUE(endpoint.ok()) << "port 0 = ephemeral, by convention";
  EXPECT_EQ(endpoint.value().port, 0);

  EXPECT_FALSE(net::ParseEndpoint("no-port-here").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:").ok());
  EXPECT_FALSE(net::ParseEndpoint(":123").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:abc").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:12x").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:65536").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:-1").ok());
}

// ------------------------------------------------------ loopback serving

constexpr std::uint64_t kSlice = 512;

TEST(ServerLoopbackTest, SingleClientDrainIsBitIdentical) {
  const ProfileStore store = DirtyStore();
  const auto reference = ReferenceSlices(store, {}, kSlice);
  ASSERT_FALSE(reference.empty());

  LoopbackServer loopback = StartLoopback(store, {});
  net::Client client = MustConnect(loopback.port());
  std::map<std::uint64_t, std::vector<Comparison>> received;
  DrainOverWire(client, kSlice, Priority::kInteractive, &received);
  EXPECT_TRUE(SameComparisons(Flatten(received), Flatten(reference)))
      << "over-the-wire stream diverged from the in-process drain";
}

// The acceptance gate: N concurrent clients with mixed priorities,
// re-sorted by ticket, concatenate bit-identically to a single in-process
// drain — at shards 1 and 4 (this test runs in the TSan CI job).
TEST(ServerLoopbackTest, ConcurrentMixedPriorityClientsAreBitIdentical) {
  const ProfileStore store = DirtyStore();
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ResolverOptions options;
    options.num_shards = shards;
    const auto reference = ReferenceSlices(store, options, kSlice);
    ASSERT_FALSE(reference.empty());

    LoopbackServer loopback = StartLoopback(store, options);
    constexpr int kClients = 4;
    const Priority priorities[kClients] = {
        Priority::kInteractive, Priority::kBatch, Priority::kBestEffort,
        Priority::kInteractive};
    std::map<std::uint64_t, std::vector<Comparison>> received[kClients];
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        net::Client client = MustConnect(loopback.port());
        DrainOverWire(client, kSlice, priorities[c], &received[c]);
      });
    }
    for (std::thread& t : threads) t.join();

    std::map<std::uint64_t, std::vector<Comparison>> merged;
    for (const auto& per_client : received) {
      for (const auto& [ticket, slice] : per_client) {
        ASSERT_EQ(merged.count(ticket), 0u)
            << "ticket " << ticket << " delivered twice";
        merged[ticket] = slice;
      }
    }
    EXPECT_TRUE(SameComparisons(Flatten(merged), Flatten(reference)))
        << "concurrent drain diverged at shards=" << shards;
  }
}

// A client that vanishes mid-stream loses only its own in-flight slices:
// the tickets it consumed are gaps, every slice any other connection
// received is bit-identical to the reference slice at its ticket, and
// the server keeps accepting new connections.
TEST(ServerLoopbackTest, MidStreamDisconnectPoisonsNothing) {
  const ProfileStore store = DirtyStore();
  const auto reference = ReferenceSlices(store, {}, kSlice);

  LoopbackServer loopback = StartLoopback(store, {});
  {
    // Takes a few slices, then vanishes without a goodbye.
    net::Client doomed = MustConnect(loopback.port());
    std::map<std::uint64_t, std::vector<Comparison>> taken;
    DrainOverWire(doomed, kSlice, Priority::kInteractive, &taken,
                  /*max_slices=*/3);
    EXPECT_EQ(taken.size(), 3u);
    doomed.Close();
  }

  net::Client survivor = MustConnect(loopback.port());
  std::map<std::uint64_t, std::vector<Comparison>> received;
  DrainOverWire(survivor, kSlice, Priority::kBatch, &received);
  ASSERT_FALSE(received.empty());
  for (const auto& [ticket, slice] : received) {
    auto it = reference.find(ticket);
    if (it == reference.end()) {
      EXPECT_TRUE(slice.empty())
          << "ticket " << ticket << " past the reference stream end";
      continue;
    }
    EXPECT_TRUE(SameComparisons(slice, it->second))
        << "slice at ticket " << ticket
        << " diverged after another client disconnected";
  }

  // And a third connection still gets served.
  net::Client late = MustConnect(loopback.port());
  ResolveRequest request;
  request.budget = 1;
  request.max_batch = 1;
  Result<ResolveResult> result = late.Resolve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().status.ok());
}

TEST(ServerLoopbackTest, MalformedFrameClosesOnlyThatConnection) {
  const ProfileStore store = DirtyStore();
  LoopbackServer loopback = StartLoopback(store, {});

  Result<net::Socket> raw = net::ConnectTcp("127.0.0.1", loopback.port());
  ASSERT_TRUE(raw.ok());
  const net::Socket socket = std::move(raw).value();
  std::string payload;
  net::PutU8(payload, 99);  // foreign protocol version
  net::PutU8(payload, 1);
  std::string frame;
  net::PutU32(frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  ASSERT_TRUE(net::WriteFrame(socket, frame).ok());

  // The server closes the untrusted stream without a reply.
  std::string response;
  Status error = Status::Ok();
  EXPECT_EQ(net::ReadFrame(socket, &response, &error),
            net::ReadStatus::kEof);
  EXPECT_GE(loopback.server->stats().protocol_errors, 1u);

  // Everyone else is unaffected.
  net::Client client = MustConnect(loopback.port());
  ResolveRequest request;
  request.budget = 1;
  request.max_batch = 1;
  Result<ResolveResult> result = client.Resolve(request);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().status.ok());
}

TEST(ServerLoopbackTest, InvalidRequestGetsPoliteRejectOnALiveConnection) {
  const ProfileStore store = DirtyStore();
  LoopbackServer loopback = StartLoopback(store, {});

  Result<net::Socket> raw = net::ConnectTcp("127.0.0.1", loopback.port());
  ASSERT_TRUE(raw.ok());
  const net::Socket socket = std::move(raw).value();

  // A well-framed request with an unknown priority byte: rejected
  // politely, not a connection close.
  std::string frame = net::EncodeResolveRequestFrame(SampleRequest(
      Priority::kInteractive));
  frame[4 + 34] = static_cast<char>(9);  // priority byte, after the prefix
  ASSERT_TRUE(net::WriteFrame(socket, frame).ok());
  std::string response;
  Status error = Status::Ok();
  ASSERT_EQ(net::ReadFrame(socket, &response, &error),
            net::ReadStatus::kFrame);
  Result<ResolveResult> rejected = net::DecodeResolveResult(response);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.value().outcome, ResolveOutcome::kRejected);
  EXPECT_EQ(rejected.value().status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rejected.value().comparisons.empty());
  EXPECT_GE(loopback.server->stats().requests_rejected, 1u);

  // The same connection then serves a valid request.
  ResolveRequest request;
  request.budget = 4;
  request.max_batch = 4;
  ASSERT_TRUE(
      net::WriteFrame(socket, net::EncodeResolveRequestFrame(request)).ok());
  ASSERT_EQ(net::ReadFrame(socket, &response, &error),
            net::ReadStatus::kFrame);
  Result<ResolveResult> served = net::DecodeResolveResult(response);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().outcome, ResolveOutcome::kServed);
  EXPECT_EQ(served.value().comparisons.size(), 4u);
}

TEST(ServerLoopbackTest, MetricsFrameServesTheLiveRegistry) {
  const ProfileStore store = DirtyStore();
  obs::Registry registry;
  net::ServerOptions server_options;
  server_options.telemetry = obs::TelemetryScope(&registry);
  server_options.qos.telemetry = server_options.telemetry;
  server_options.metrics_registry = &registry;
  LoopbackServer loopback = StartLoopback(store, {}, server_options);

  net::Client client = MustConnect(loopback.port());
  ResolveRequest request;
  request.budget = 8;
  request.max_batch = 8;
  ASSERT_TRUE(client.Resolve(request).ok());

  Result<std::string> snapshot = client.FetchMetricsJson();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_NE(snapshot.value().find("sper.metrics.v1"), std::string::npos);
  EXPECT_NE(snapshot.value().find("net.requests"), std::string::npos);
  EXPECT_NE(snapshot.value().find("net.frames_in"), std::string::npos);
  EXPECT_NE(snapshot.value().find("qos.interactive.admitted"),
            std::string::npos);
}

TEST(ServerLoopbackTest, AnonymousClientsAreRateLimitedPerConnection) {
  const ProfileStore store = DirtyStore();
  net::ServerOptions server_options;
  // One token, refilled every 10 s: each connection's first request is
  // served, its second is shed — unless connections get their own
  // buckets, which is exactly what substituting the connection id for
  // client_id 0 buys.
  server_options.qos.client_rate = 0.1;
  server_options.qos.client_burst = 1.0;
  LoopbackServer loopback = StartLoopback(store, {}, server_options);

  ResolveRequest request;
  request.budget = 4;
  request.max_batch = 4;

  net::Client first = MustConnect(loopback.port());
  Result<ResolveResult> served = first.Resolve(request);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().outcome, ResolveOutcome::kServed);
  Result<ResolveResult> shed = first.Resolve(request);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.value().outcome, ResolveOutcome::kShed);
  EXPECT_EQ(shed.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(shed.value().retry_after_ms, 0u)
      << "a shed must carry its backoff hint across the wire";
  EXPECT_TRUE(shed.value().comparisons.empty());

  // A second anonymous connection has its own bucket.
  net::Client second = MustConnect(loopback.port());
  Result<ResolveResult> other = second.Resolve(request);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.value().outcome, ResolveOutcome::kServed)
      << "anonymous connections must not share one rate-limit bucket";
}

TEST(ServerLoopbackTest, ResolveWithRetryHonorsTheBackoffHint) {
  const ProfileStore store = DirtyStore();
  net::ServerOptions server_options;
  // ~2 tokens/s: back-to-back requests shed, but a retry that waits the
  // hinted backoff lands a token.
  server_options.qos.client_rate = 2.0;
  server_options.qos.client_burst = 1.0;
  LoopbackServer loopback = StartLoopback(store, {}, server_options);

  net::Client client = MustConnect(loopback.port());
  ResolveRequest request;
  request.budget = 4;
  request.max_batch = 4;
  ASSERT_TRUE(client.Resolve(request).ok());  // spends the burst
  Result<ResolveResult> retried = client.ResolveWithRetry(request);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().outcome, ResolveOutcome::kServed)
      << "waiting the server's retry_after_ms hint must eventually land";
}

TEST(ServerLoopbackTest, ShutdownDrainsCleanlyAndIsIdempotent) {
  const ProfileStore store = DirtyStore();
  LoopbackServer loopback = StartLoopback(store, {});
  const std::uint16_t port = loopback.port();

  net::Client client = MustConnect(port);
  ResolveRequest request;
  request.budget = 4;
  request.max_batch = 4;
  ASSERT_TRUE(client.Resolve(request).ok());

  loopback.server->Shutdown();
  loopback.server->Shutdown();  // idempotent

  // The connection was closed at a frame boundary...
  Result<ResolveResult> after = client.Resolve(request);
  EXPECT_FALSE(after.ok());
  // ...the listener is gone...
  EXPECT_FALSE(net::Client::Connect("127.0.0.1", port).ok());
  // ...and the resolver behind it has drained: direct serves now reject.
  const ResolveResult drained = loopback.resolver->Serve(request);
  EXPECT_EQ(drained.outcome, ResolveOutcome::kRejected);
}

TEST(ServerLoopbackTest, MaxConnectionsRejectsTheOverflow) {
  const ProfileStore store = DirtyStore();
  net::ServerOptions server_options;
  server_options.max_connections = 1;
  LoopbackServer loopback = StartLoopback(store, {}, server_options);

  net::Client first = MustConnect(loopback.port());
  ResolveRequest request;
  request.budget = 1;
  request.max_batch = 1;
  ASSERT_TRUE(first.Resolve(request).ok());

  // The overflow connection is accepted at the TCP level and closed
  // immediately: its round trip fails.
  net::Client overflow = MustConnect(loopback.port());
  EXPECT_FALSE(overflow.Resolve(request).ok());
  EXPECT_GE(loopback.server->stats().connections_rejected, 1u);

  // The first connection is unaffected.
  EXPECT_TRUE(first.Resolve(request).ok());
}

TEST(ClientTest, ValidatesLocallyBeforeTheNetworkHop) {
  const ProfileStore store = DirtyStore();
  LoopbackServer loopback = StartLoopback(store, {});
  net::Client client = MustConnect(loopback.port());
  ResolveRequest request;
  request.deadline_ms = ResolveRequest::kMaxDeadlineMs + 1;
  Result<ResolveResult> result = client.Resolve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loopback.server->stats().frames_in, 0u)
      << "an unservable request must not reach the server";
}

// ------------------------------------------------- fault-injection seams

class NetFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kFaultInjectionEnabled) {
      GTEST_SKIP() << "build with -DSPER_FAULT_INJECT=ON";
    }
    obs::FaultRegistry::Global().Reset();
  }
  void TearDown() override { obs::FaultRegistry::Global().Reset(); }
};

TEST_F(NetFaultTest, ReadFaultActsAsDisconnectAndPoisonsNothing) {
  const ProfileStore store = DirtyStore();
  const auto reference = ReferenceSlices(store, {}, kSlice);
  LoopbackServer loopback = StartLoopback(store, {});

  obs::FaultPlan plan;
  plan.action = obs::FaultPlan::Action::kThrow;
  plan.message = "injected net.read fault";
  plan.limit = 1;
  obs::FaultRegistry::Global().Arm("net.read", plan);

  // The victim's first read seam throws server-side: the connection is
  // closed before any request is served.
  net::Client victim = MustConnect(loopback.port());
  ResolveRequest request;
  request.budget = kSlice;
  request.max_batch = kSlice;
  EXPECT_FALSE(victim.Resolve(request).ok());
  EXPECT_GE(obs::FaultRegistry::Global().fires("net.read"), 1u);

  // The fault is spent (limit=1): a fresh connection drains the entire
  // stream bit-identically — the victim never consumed a ticket.
  net::Client survivor = MustConnect(loopback.port());
  std::map<std::uint64_t, std::vector<Comparison>> received;
  DrainOverWire(survivor, kSlice, Priority::kInteractive, &received);
  EXPECT_TRUE(SameComparisons(Flatten(received), Flatten(reference)))
      << "a read fault on one connection perturbed the stream";
}

TEST_F(NetFaultTest, WriteFaultLosesOnlyTheInFlightSlice) {
  const ProfileStore store = DirtyStore();
  const auto reference = ReferenceSlices(store, {}, kSlice);
  LoopbackServer loopback = StartLoopback(store, {});

  obs::FaultPlan plan;
  plan.action = obs::FaultPlan::Action::kThrow;
  plan.message = "injected net.write fault";
  plan.limit = 1;
  obs::FaultRegistry::Global().Arm("net.write", plan);

  // The victim's slice is served (ticket consumed) but the response
  // write throws: the slice is lost with its connection.
  net::Client victim = MustConnect(loopback.port());
  ResolveRequest request;
  request.budget = kSlice;
  request.max_batch = kSlice;
  EXPECT_FALSE(victim.Resolve(request).ok());
  EXPECT_GE(obs::FaultRegistry::Global().fires("net.write"), 1u);

  // Every slice a fresh connection receives still matches the reference
  // at its ticket — the lost ticket is a gap, not corruption.
  net::Client survivor = MustConnect(loopback.port());
  std::map<std::uint64_t, std::vector<Comparison>> received;
  DrainOverWire(survivor, kSlice, Priority::kInteractive, &received);
  ASSERT_FALSE(received.empty());
  for (const auto& [ticket, slice] : received) {
    auto it = reference.find(ticket);
    if (it == reference.end()) {
      EXPECT_TRUE(slice.empty());
      continue;
    }
    EXPECT_TRUE(SameComparisons(slice, it->second))
        << "slice at ticket " << ticket << " diverged after a write fault";
  }
}

TEST_F(NetFaultTest, AcceptFaultDropsTheConnectionBeforeServing) {
  const ProfileStore store = DirtyStore();
  LoopbackServer loopback = StartLoopback(store, {});

  obs::FaultPlan plan;
  plan.action = obs::FaultPlan::Action::kThrow;
  plan.message = "injected net.accept fault";
  plan.limit = 1;
  obs::FaultRegistry::Global().Arm("net.accept", plan);

  // TCP connect succeeds (the kernel accepted), but the server drops the
  // connection at the seam: the round trip fails.
  net::Client dropped = MustConnect(loopback.port());
  ResolveRequest request;
  request.budget = 4;
  request.max_batch = 4;
  EXPECT_FALSE(dropped.Resolve(request).ok());
  EXPECT_GE(obs::FaultRegistry::Global().fires("net.accept"), 1u);
  EXPECT_GE(loopback.server->stats().connections_rejected, 1u);

  // The next connection serves normally.
  net::Client next = MustConnect(loopback.port());
  Result<ResolveResult> served = next.Resolve(request);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().outcome, ResolveOutcome::kServed);
}

}  // namespace
}  // namespace sper
