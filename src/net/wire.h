#ifndef SPER_NET_WIRE_H_
#define SPER_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/comparison.h"
#include "core/status.h"
#include "engine/resolver.h"

/// \file wire.h
/// The versioned binary framing of the serving protocol: how a
/// ResolveRequest / ResolveResult crosses a socket (net/server.h and
/// net/client.h speak exactly this; docs/wire_protocol.md is the
/// normative spec). Layout of one frame:
///
///   u32 payload_len (little-endian) | payload
///   payload := u8 version (= kWireVersion) | u8 frame type | body
///
/// Every multi-byte integer is little-endian, so the format is identical
/// on every architecture. Doubles travel as the little-endian bytes of
/// their IEEE-754 bit pattern, so a weight that crossed the wire compares
/// bit-identical to the in-process stream (the digest checks in
/// tests/net_test.cc and perfbench's serve-wire rely on this, including
/// NaN payloads). Header fields are stored and loaded as shifted single
/// bytes. The comparison array of a ResolveResult, the bulk of the bytes,
/// is copied as one block on little-endian hosts: there a Comparison's
/// 16 bytes ({u32 i, u32 j, f64 weight} at offsets 0, 4 and 8, pinned by
/// static_asserts in wire.cc) already are its wire bytes. Other hosts
/// take the byte path, which tests/net_test.cc checks against the block
/// copy.
///
/// Every frame is sized before it is written: one allocation holds the
/// length prefix and the payload, which is never copied again. The
/// decoder bounds-checks the comparison array once, as `count * 16`
/// against the bytes left.
///
/// Decoding is exhaustive-validating: unknown version/type/enum bytes,
/// truncated bodies, length fields pointing past the payload, and
/// trailing bytes after a complete body are all InvalidArgument errors —
/// a frame either round-trips exactly or is rejected, never partially
/// applied. DecodeResolveRequest additionally runs the shared
/// ValidateResolveRequest (engine/resolver.h), so a request that decodes
/// OK is by construction servable.
///
/// What does not cross the wire: ResolveRequest::cancel (a process-local
/// CancelToken). Remote cancellation is expressed as deadline_ms — the
/// deadline-cut path is fully wire-visible (ResolveOutcome
/// kDeadlineExpired / kCancelled travel in the outcome byte).

namespace sper {
namespace net {

/// Protocol version carried in every frame. Bump on any layout change;
/// decoders reject frames from other versions.
inline constexpr std::uint8_t kWireVersion = 1;

/// Upper bound on one frame's payload. Chosen so a maximal response —
/// ResolveRequest::kMaxBatch comparisons at 16 bytes each plus the fixed
/// result header and a status message — always fits: 16 MiB of
/// comparisons < 32 MiB. A decoder seeing a larger length declares the
/// stream corrupt (it is a framing error, not a big message).
inline constexpr std::uint32_t kMaxFramePayload = 32u << 20;

/// Frame types (the second payload byte).
enum class FrameType : std::uint8_t {
  kResolveRequest = 1,  // client -> server: one ResolveRequest
  kResolveResult = 2,   // server -> client: one ResolveResult
  kMetricsRequest = 3,  // client -> server: admin metrics scrape, no body
  kMetricsResult = 4,   // server -> client: obs::Registry stable JSON
};

// ---------------------------------------------------------------------------
// Little-endian primitives (appended to / read from std::string buffers).
// ---------------------------------------------------------------------------

void PutU8(std::string& out, std::uint8_t v);
void PutU32(std::string& out, std::uint32_t v);
void PutU64(std::string& out, std::uint64_t v);

/// Cursor-based reader over one payload. Every Read* returns false on
/// underrun and leaves the cursor unspecified; callers bail out on first
/// failure.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool ReadU8(std::uint8_t& v);
  bool ReadU32(std::uint32_t& v);
  bool ReadU64(std::uint64_t& v);
  /// Reads `n` raw bytes into `v`.
  bool ReadBytes(std::size_t n, std::string& v);
  /// Points `v` at the next `n` raw bytes, without copying them.
  bool ReadView(std::size_t n, std::string_view& v);

  /// Bytes not yet consumed (0 after a complete, exact decode).
  std::size_t remaining() const { return data_.size() - cursor_; }

 private:
  std::string_view data_;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// The comparison array: 16 bytes per comparison, u32 i | u32 j | u64
// weight bits, each little-endian.
// ---------------------------------------------------------------------------

/// Writes `comparisons` as a comparison array at `out`, which must hold
/// comparisons.size() * 16 bytes: one block copy on a little-endian host,
/// StoreComparisonBytes elsewhere.
void StoreComparisons(std::span<const Comparison> comparisons, char* out);

/// Replaces `out` with the comparisons of `array`, whose size must be a
/// multiple of 16: built in one pass over the array, with no zero-fill
/// first, on a little-endian host; resized and filled by
/// LoadComparisonBytes elsewhere.
void LoadComparisons(std::string_view array, std::vector<Comparison>& out);

/// The portable path of StoreComparisons: every field stored as shifted
/// single bytes, on any host.
void StoreComparisonBytes(std::span<const Comparison> comparisons,
                          char* out);

/// The portable path of LoadComparisons.
void LoadComparisonBytes(const char* in, std::span<Comparison> comparisons);

// ---------------------------------------------------------------------------
// Frame encoding. Each returns one complete frame: length prefix included.
// ---------------------------------------------------------------------------

/// Encodes `request`. The cancel token is not transported (see the file
/// comment); every other field crosses exactly.
std::string EncodeResolveRequestFrame(const ResolveRequest& request);

/// Encodes `result`: ticket, outcome, stream/budget flags, status
/// (code + message), retry_after_ms and the comparison slice.
std::string EncodeResolveResultFrame(const ResolveResult& result);

std::string EncodeMetricsRequestFrame();
std::string EncodeMetricsResultFrame(std::string_view snapshot_json);

// ---------------------------------------------------------------------------
// Frame decoding. All decoders take the *payload* (the bytes after the
// u32 length prefix — net/socket.h's ReadFrame strips it).
// ---------------------------------------------------------------------------

/// Checks version and returns the frame type. InvalidArgument on a short
/// payload, a foreign version or an unknown type — all framing-level
/// errors after which the byte stream cannot be trusted (the server
/// closes the connection; see net/server.h).
Result<FrameType> DecodeFrameHeader(std::string_view payload);

/// Decodes a kResolveRequest payload and runs ValidateResolveRequest on
/// it, so every successfully decoded request is servable.
Result<ResolveRequest> DecodeResolveRequest(std::string_view payload);

/// Decodes a kResolveResult payload, rejecting unknown outcome / status
/// code bytes.
Result<ResolveResult> DecodeResolveResult(std::string_view payload);

/// Decodes a kMetricsResult payload into the carried JSON snapshot.
Result<std::string> DecodeMetricsResult(std::string_view payload);

// ---------------------------------------------------------------------------
// Stream digest.
// ---------------------------------------------------------------------------

/// FNV-1a fold over emitted comparisons (i, then j, then the weight's bit
/// pattern). The CLI client, perfbench and the digest-checked benches
/// (bench_load_generator, bench_fault_tolerance) all fold with it, so an
/// over-the-wire stream can be digest-compared against an in-process
/// drain. Two streams with equal (value, count) are bit-identical with
/// overwhelming probability.
struct StreamDigest {
  std::uint64_t value = 1469598103934665603ull;  // FNV-1a offset basis
  std::uint64_t count = 0;

  void Fold(const Comparison& c);

  bool operator==(const StreamDigest& other) const {
    return value == other.value && count == other.count;
  }
};

}  // namespace net
}  // namespace sper

#endif  // SPER_NET_WIRE_H_
