#include "net/wire.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <type_traits>

namespace sper {
namespace net {

namespace {

/// Frame-body field order is part of the protocol (docs/wire_protocol.md);
/// keep encode and decode in the same order as the spec tables.

/// Outcome and status-code bytes are the C++ enum values; pin the ones the
/// protocol documents so an enum reorder cannot silently change the wire.
static_assert(static_cast<std::uint8_t>(ResolveOutcome::kServed) == 0);
static_assert(static_cast<std::uint8_t>(ResolveOutcome::kDeadlineExpired) == 1);
static_assert(static_cast<std::uint8_t>(ResolveOutcome::kCancelled) == 2);
static_assert(static_cast<std::uint8_t>(ResolveOutcome::kShed) == 3);
static_assert(static_cast<std::uint8_t>(ResolveOutcome::kEvicted) == 4);
static_assert(static_cast<std::uint8_t>(ResolveOutcome::kRejected) == 5);
static_assert(static_cast<std::uint8_t>(ResolveOutcome::kFailed) == 6);
inline constexpr std::uint8_t kMaxOutcomeByte = 6;

static_assert(static_cast<std::uint8_t>(StatusCode::kOk) == 0);
static_assert(static_cast<std::uint8_t>(StatusCode::kInvalidArgument) == 1);
static_assert(static_cast<std::uint8_t>(StatusCode::kNotFound) == 2);
static_assert(static_cast<std::uint8_t>(StatusCode::kIoError) == 3);
static_assert(static_cast<std::uint8_t>(StatusCode::kFailedPrecondition) == 4);
static_assert(static_cast<std::uint8_t>(StatusCode::kInternal) == 5);
static_assert(static_cast<std::uint8_t>(StatusCode::kResourceExhausted) == 6);
inline constexpr std::uint8_t kMaxStatusCodeByte = 6;

/// ResolveResult flag byte.
inline constexpr std::uint8_t kFlagStreamExhausted = 1u << 0;
inline constexpr std::uint8_t kFlagBudgetExhausted = 1u << 1;

/// Every frame's payload starts with the version and type bytes.
inline constexpr std::size_t kPayloadHeaderBytes = 2;
/// A ResolveResult body without its status message and comparisons:
/// ticket, outcome, flags, status code, msg_len, retry_after_ms, count.
inline constexpr std::size_t kResultFixedBytes = 8 + 1 + 1 + 1 + 4 + 8 + 4;
/// A ResolveRequest body: budget, max_batch, deadline_ms, client_id,
/// priority.
inline constexpr std::size_t kRequestBodyBytes = 8 + 8 + 8 + 8 + 1;
/// One comparison on the wire: u32 i, u32 j, u64 weight bits.
inline constexpr std::size_t kComparisonBytes = 16;

/// A Comparison in memory is {u32, u32, f64} with no padding, so on a
/// little-endian host its bytes are its wire bytes and the comparison
/// array moves as one block.
static_assert(sizeof(Comparison) == kComparisonBytes);
static_assert(std::is_trivially_copyable_v<Comparison>);
static_assert(offsetof(Comparison, i) == 0);
static_assert(offsetof(Comparison, j) == 4);
static_assert(offsetof(Comparison, weight) == 8);

/// Explicit little-endian stores and loads through a byte pointer: the
/// one place the wire's byte order is written down.
void StoreU32(char* at, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) at[k] = static_cast<char>(v >> (8 * k));
}

void StoreU64(char* at, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) at[k] = static_cast<char>(v >> (8 * k));
}

std::uint32_t LoadU32(const char* at) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(at[k]))
         << (8 * k);
  }
  return v;
}

std::uint64_t LoadU64(const char* at) {
  std::uint64_t v = 0;
  for (int k = 0; k < 8; ++k) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(at[k]))
         << (8 * k);
  }
  return v;
}

/// Starts a frame whose body will hold `body_bytes`: reserves the whole
/// frame once and writes the length prefix, version and type, so the
/// body is appended in place and never copied. The encoder must append
/// exactly `body_bytes`.
std::string StartFrame(FrameType type, std::size_t body_bytes) {
  const std::size_t payload_bytes = kPayloadHeaderBytes + body_bytes;
  SPER_CHECK(payload_bytes <= kMaxFramePayload);
  std::string frame;
  frame.reserve(4 + payload_bytes);
  PutU32(frame, static_cast<std::uint32_t>(payload_bytes));
  PutU8(frame, kWireVersion);
  PutU8(frame, static_cast<std::uint8_t>(type));
  return frame;
}

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("wire: " + what);
}

}  // namespace

void PutU8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU32(std::string& out, std::uint32_t v) {
  char bytes[4];
  StoreU32(bytes, v);
  out.append(bytes, sizeof(bytes));
}

void PutU64(std::string& out, std::uint64_t v) {
  char bytes[8];
  StoreU64(bytes, v);
  out.append(bytes, sizeof(bytes));
}

bool WireReader::ReadU8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = static_cast<std::uint8_t>(data_[cursor_++]);
  return true;
}

bool WireReader::ReadU32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = LoadU32(data_.data() + cursor_);
  cursor_ += 4;
  return true;
}

bool WireReader::ReadU64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = LoadU64(data_.data() + cursor_);
  cursor_ += 8;
  return true;
}

bool WireReader::ReadBytes(std::size_t n, std::string& v) {
  std::string_view view;
  if (!ReadView(n, view)) return false;
  v.assign(view);
  return true;
}

bool WireReader::ReadView(std::size_t n, std::string_view& v) {
  if (remaining() < n) return false;
  v = data_.substr(cursor_, n);
  cursor_ += n;
  return true;
}

void StoreComparisons(std::span<const Comparison> comparisons, char* out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!comparisons.empty()) {
      std::memcpy(out, comparisons.data(), comparisons.size_bytes());
    }
  } else {
    StoreComparisonBytes(comparisons, out);
  }
}

void LoadComparisons(const char* in, std::span<Comparison> comparisons) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!comparisons.empty()) {
      std::memcpy(comparisons.data(), in, comparisons.size_bytes());
    }
  } else {
    LoadComparisonBytes(in, comparisons);
  }
}

void StoreComparisonBytes(std::span<const Comparison> comparisons,
                          char* out) {
  for (const Comparison& c : comparisons) {
    StoreU32(out, c.i);
    StoreU32(out + 4, c.j);
    StoreU64(out + 8, std::bit_cast<std::uint64_t>(c.weight));
    out += kComparisonBytes;
  }
}

void LoadComparisonBytes(const char* in, std::span<Comparison> comparisons) {
  for (Comparison& c : comparisons) {
    c.i = LoadU32(in);
    c.j = LoadU32(in + 4);
    c.weight = std::bit_cast<double>(LoadU64(in + 8));
    in += kComparisonBytes;
  }
}

std::string EncodeResolveRequestFrame(const ResolveRequest& request) {
  std::string frame = StartFrame(FrameType::kResolveRequest, kRequestBodyBytes);
  PutU64(frame, request.budget);
  PutU64(frame, request.max_batch);
  PutU64(frame, request.deadline_ms);
  PutU64(frame, request.client_id);
  PutU8(frame, static_cast<std::uint8_t>(request.priority));
  return frame;
}

std::string EncodeResolveResultFrame(const ResolveResult& result) {
  const std::string& message = result.status.message();
  const std::size_t count = result.comparisons.size();
  std::string frame =
      StartFrame(FrameType::kResolveResult,
                 kResultFixedBytes + message.size() + count * kComparisonBytes);
  PutU64(frame, result.ticket);
  PutU8(frame, static_cast<std::uint8_t>(result.outcome));
  std::uint8_t flags = 0;
  if (result.stream_exhausted) flags |= kFlagStreamExhausted;
  if (result.budget_exhausted) flags |= kFlagBudgetExhausted;
  PutU8(frame, flags);
  PutU8(frame, static_cast<std::uint8_t>(result.status.code()));
  PutU32(frame, static_cast<std::uint32_t>(message.size()));
  frame += message;
  PutU64(frame, result.retry_after_ms);
  PutU32(frame, static_cast<std::uint32_t>(count));
  // The comparison array, the bulk of a frame, is written in place: one
  // resize (within the reservation), then one StoreComparisons.
  const std::size_t array_at = frame.size();
  frame.resize(array_at + count * kComparisonBytes);
  StoreComparisons(result.comparisons, frame.data() + array_at);
  return frame;
}

std::string EncodeMetricsRequestFrame() {
  return StartFrame(FrameType::kMetricsRequest, 0);
}

std::string EncodeMetricsResultFrame(std::string_view snapshot_json) {
  std::string frame =
      StartFrame(FrameType::kMetricsResult, 4 + snapshot_json.size());
  PutU32(frame, static_cast<std::uint32_t>(snapshot_json.size()));
  frame += snapshot_json;
  return frame;
}

Result<FrameType> DecodeFrameHeader(std::string_view payload) {
  WireReader reader(payload);
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  if (!reader.ReadU8(version) || !reader.ReadU8(type)) {
    return Malformed("payload shorter than the version/type header");
  }
  if (version != kWireVersion) {
    return Malformed("unsupported protocol version " +
                     std::to_string(version) + " (speak " +
                     std::to_string(kWireVersion) + ")");
  }
  if (type < static_cast<std::uint8_t>(FrameType::kResolveRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kMetricsResult)) {
    return Malformed("unknown frame type " + std::to_string(type));
  }
  return static_cast<FrameType>(type);
}

Result<ResolveRequest> DecodeResolveRequest(std::string_view payload) {
  Result<FrameType> type = DecodeFrameHeader(payload);
  if (!type.ok()) return type.status();
  if (type.value() != FrameType::kResolveRequest) {
    return Malformed("expected a resolve-request frame");
  }
  WireReader reader(payload.substr(2));
  ResolveRequest request;
  std::uint64_t max_batch = 0;
  std::uint8_t priority = 0;
  if (!reader.ReadU64(request.budget) || !reader.ReadU64(max_batch) ||
      !reader.ReadU64(request.deadline_ms) ||
      !reader.ReadU64(request.client_id) || !reader.ReadU8(priority)) {
    return Malformed("truncated resolve-request body");
  }
  if (reader.remaining() != 0) {
    return Malformed("trailing bytes after resolve-request body");
  }
  if (max_batch > ResolveRequest::kMaxBatch) {
    // Out-of-range before the size_t narrowing below; ValidateResolveRequest
    // re-checks, but a 2^63 value must not wrap on 32-bit size_t first.
    return Malformed("max_batch must be <= " +
                     std::to_string(ResolveRequest::kMaxBatch) + ", got " +
                     std::to_string(max_batch));
  }
  request.max_batch = static_cast<std::size_t>(max_batch);
  request.priority = static_cast<Priority>(priority);
  SPER_RETURN_IF_ERROR(ValidateResolveRequest(request));
  return request;
}

Result<ResolveResult> DecodeResolveResult(std::string_view payload) {
  Result<FrameType> type = DecodeFrameHeader(payload);
  if (!type.ok()) return type.status();
  if (type.value() != FrameType::kResolveResult) {
    return Malformed("expected a resolve-result frame");
  }
  WireReader reader(payload.substr(2));
  ResolveResult result;
  std::uint8_t outcome = 0;
  std::uint8_t flags = 0;
  std::uint8_t status_code = 0;
  std::uint32_t message_len = 0;
  if (!reader.ReadU64(result.ticket) || !reader.ReadU8(outcome) ||
      !reader.ReadU8(flags) || !reader.ReadU8(status_code) ||
      !reader.ReadU32(message_len)) {
    return Malformed("truncated resolve-result header");
  }
  if (outcome > kMaxOutcomeByte) {
    return Malformed("unknown outcome byte " + std::to_string(outcome));
  }
  if (status_code > kMaxStatusCodeByte) {
    return Malformed("unknown status code byte " +
                     std::to_string(status_code));
  }
  if (flags & ~(kFlagStreamExhausted | kFlagBudgetExhausted)) {
    return Malformed("unknown flag bits " + std::to_string(flags));
  }
  std::string message;
  if (!reader.ReadBytes(message_len, message)) {
    return Malformed("status message length points past the payload");
  }
  std::uint32_t count = 0;
  if (!reader.ReadU64(result.retry_after_ms) || !reader.ReadU32(count)) {
    return Malformed("truncated resolve-result trailer");
  }
  if (reader.remaining() !=
      static_cast<std::size_t>(count) * kComparisonBytes) {
    return Malformed("comparison count disagrees with the payload size");
  }
  result.outcome = static_cast<ResolveOutcome>(outcome);
  result.stream_exhausted = (flags & kFlagStreamExhausted) != 0;
  result.budget_exhausted = (flags & kFlagBudgetExhausted) != 0;
  result.status =
      Status::FromCode(static_cast<StatusCode>(status_code), std::move(message));
  // The size check above is the array's only bounds check.
  std::string_view array;
  reader.ReadView(reader.remaining(), array);
  result.comparisons.resize(count);
  LoadComparisons(array.data(), result.comparisons);
  return result;
}

Result<std::string> DecodeMetricsResult(std::string_view payload) {
  Result<FrameType> type = DecodeFrameHeader(payload);
  if (!type.ok()) return type.status();
  if (type.value() != FrameType::kMetricsResult) {
    return Malformed("expected a metrics-result frame");
  }
  WireReader reader(payload.substr(2));
  std::uint32_t length = 0;
  if (!reader.ReadU32(length)) {
    return Malformed("truncated metrics-result body");
  }
  std::string snapshot;
  if (!reader.ReadBytes(length, snapshot)) {
    return Malformed("snapshot length points past the payload");
  }
  if (reader.remaining() != 0) {
    return Malformed("trailing bytes after metrics-result body");
  }
  return snapshot;
}

void StreamDigest::Fold(const Comparison& c) {
  const auto mix = [this](std::uint64_t v) {
    value ^= v;
    value *= 1099511628211ull;  // FNV-1a prime
  };
  mix(c.i);
  mix(c.j);
  mix(std::bit_cast<std::uint64_t>(c.weight));
  ++count;
}

}  // namespace net
}  // namespace sper
