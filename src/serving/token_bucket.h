#ifndef SPER_SERVING_TOKEN_BUCKET_H_
#define SPER_SERVING_TOKEN_BUCKET_H_

#include <algorithm>
#include <cstdint>

/// \file token_bucket.h
/// Deterministic token bucket for per-client rate limiting in the QoS
/// admission controller (serving/qos.h). Pure arithmetic over caller-
/// supplied timestamps: the bucket never reads a clock itself, so a test
/// driving it from an obs::ManualClock gets bit-identical admit/deny
/// decisions on every run.
///
/// Not thread-safe — the controller guards each client's bucket with its
/// own admission mutex.

namespace sper {
namespace serving {

/// One client's refillable budget: holds up to `burst` tokens, refilled
/// continuously at `rate_per_sec` tokens per second (fractional refill is
/// kept in nanosecond-of-token precision — no quantization drift).
class TokenBucket {
 public:
  /// A bucket starts full: a client's first burst is never throttled.
  /// `rate_per_sec` == 0 disables the bucket (every acquire succeeds).
  TokenBucket(double rate_per_sec, double burst, std::uint64_t now_ns)
      : rate_per_sec_(rate_per_sec),
        burst_(std::max(burst, 1.0)),
        tokens_(std::max(burst, 1.0)),
        last_refill_ns_(now_ns) {}

  /// Takes `cost` tokens if available at time `now_ns`. Returns true on
  /// success; on failure the bucket is untouched (no partial spend).
  bool TryAcquire(double cost, std::uint64_t now_ns) {
    if (rate_per_sec_ <= 0.0) return true;
    Refill(now_ns);
    if (tokens_ + 1e-9 < cost) return false;
    tokens_ -= cost;
    return true;
  }

  /// Milliseconds (rounded up) until `cost` tokens will be available,
  /// assuming no further spends. 0 when they already are, or when the
  /// bucket is disabled.
  std::uint64_t RetryAfterMs(double cost, std::uint64_t now_ns) {
    if (rate_per_sec_ <= 0.0) return 0;
    Refill(now_ns);
    const double deficit = cost - tokens_;
    if (deficit <= 0.0) return 0;
    const double seconds = deficit / rate_per_sec_;
    return static_cast<std::uint64_t>(seconds * 1000.0) + 1;
  }

  /// True when the bucket holds `burst` tokens at `now_ns` — it is then
  /// indistinguishable from a bucket created full at `now_ns`. Const: the
  /// refill is computed, not applied. Always true for a disabled bucket.
  bool FullAt(std::uint64_t now_ns) const {
    if (rate_per_sec_ <= 0.0) return true;
    const double elapsed_sec =
        now_ns > last_refill_ns_
            ? static_cast<double>(now_ns - last_refill_ns_) * 1e-9
            : 0.0;
    return tokens_ + elapsed_sec * rate_per_sec_ >= burst_;
  }

  /// Tokens currently held (after a refill to `now_ns`); for tests.
  double Available(std::uint64_t now_ns) {
    Refill(now_ns);
    return tokens_;
  }

 private:
  void Refill(std::uint64_t now_ns) {
    if (now_ns <= last_refill_ns_) return;
    const double elapsed_sec =
        static_cast<double>(now_ns - last_refill_ns_) * 1e-9;
    tokens_ = std::min(burst_, tokens_ + elapsed_sec * rate_per_sec_);
    last_refill_ns_ = now_ns;
  }

  double rate_per_sec_;
  double burst_;
  double tokens_;
  std::uint64_t last_refill_ns_;
};

}  // namespace serving
}  // namespace sper

#endif  // SPER_SERVING_TOKEN_BUCKET_H_
