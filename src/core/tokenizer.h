#ifndef SPER_CORE_TOKENIZER_H_
#define SPER_CORE_TOKENIZER_H_

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile.h"

/// \file tokenizer.h
/// Extraction of schema-agnostic blocking keys: the attribute-value tokens
/// of a profile (paper Sec. 3, "Token Blocking creates a separate block for
/// every token that appears in any attribute value").

namespace sper {

/// Configuration of attribute-value tokenization.
struct TokenizerOptions {
  /// Lowercase ASCII letters before emitting tokens.
  bool lowercase = true;
  /// Tokens shorter than this many characters are dropped. The paper's
  /// examples keep 2-character tokens ('ny', 'ml', 'wi'), so default 1.
  /// A token is never empty, so 0 behaves like 1.
  std::size_t min_token_length = 1;
};

/// The locale-free byte table behind every tokenizer: entry c is the byte
/// a token stores for input byte c, or 0 when c separates tokens. Token
/// bytes are exactly [0-9A-Za-z]; every other byte, including all bytes
/// >= 0x80, ends a token. With `lowercase`, A-Z map to a-z. The process
/// locale (`setlocale`) never changes a token.
const std::array<char, 256>& TokenByteTable(bool lowercase);

/// The one token scanner: splits attribute values into tokens on every
/// byte outside [0-9A-Za-z]. URIs therefore decompose into their path
/// segments ("http://dbpedia.org/Carl_White" -> http, dbpedia, org, carl,
/// white), which is exactly the behaviour the paper leverages / critiques
/// for RDF data (Sec. 7.2). It reuses one token buffer, so once that has
/// grown to the longest token it allocates nothing.
class TokenScanner {
 public:
  explicit TokenScanner(const TokenizerOptions& options = {})
      : table_(TokenByteTable(options.lowercase)),
        min_length_(std::max<std::size_t>(options.min_token_length, 1)) {}

  /// Pre-sizes the token buffer, so no token of up to `length` bytes
  /// allocates.
  void Reserve(std::size_t length) { token_.reserve(length); }

  /// Calls `fn(std::string_view token)` for every token of `value`, left
  /// to right. The view is valid only during the call.
  template <typename Fn>
  void ForEachToken(std::string_view value, Fn&& fn) {
    const std::size_t n = value.size();
    std::size_t pos = 0;
    while (pos < n) {
      while (pos < n && !IsTokenByte(value[pos])) ++pos;
      const std::size_t begin = pos;
      while (pos < n && IsTokenByte(value[pos])) ++pos;
      const std::size_t length = pos - begin;
      if (length < min_length_) continue;
      token_.resize(length);
      for (std::size_t k = 0; k < length; ++k) {
        token_[k] = table_[static_cast<unsigned char>(value[begin + k])];
      }
      fn(std::string_view(token_));
    }
  }

 private:
  bool IsTokenByte(char c) const {
    return table_[static_cast<unsigned char>(c)] != 0;
  }

  const std::array<char, 256>& table_;
  std::size_t min_length_;  // >= 1: a token is never empty
  std::string token_;
};

/// The tokens of one attribute value, in order (see TokenScanner).
std::vector<std::string> TokenizeValue(std::string_view value,
                                       const TokenizerOptions& options = {});

/// The distinct attribute-value tokens of a whole profile, sorted
/// lexicographically. These are the profile's schema-agnostic blocking keys.
std::vector<std::string> DistinctProfileTokens(
    const Profile& profile, const TokenizerOptions& options = {});

}  // namespace sper

#endif  // SPER_CORE_TOKENIZER_H_
