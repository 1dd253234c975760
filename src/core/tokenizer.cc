#include "core/tokenizer.h"

#include <algorithm>

namespace sper {

namespace {

constexpr std::array<char, 256> MakeTokenByteTable(bool lowercase) {
  std::array<char, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) {
    table[c] = static_cast<char>(lowercase ? c - 'A' + 'a' : c);
  }
  return table;
}

constexpr std::array<char, 256> kLowercaseTable = MakeTokenByteTable(true);
constexpr std::array<char, 256> kKeepCaseTable = MakeTokenByteTable(false);

}  // namespace

const std::array<char, 256>& TokenByteTable(bool lowercase) {
  return lowercase ? kLowercaseTable : kKeepCaseTable;
}

std::vector<std::string> TokenizeValue(std::string_view value,
                                       const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  TokenScanner(options).ForEachToken(
      value, [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

std::vector<std::string> DistinctProfileTokens(
    const Profile& profile, const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  TokenScanner scanner(options);
  for (const Attribute& a : profile.attributes()) {
    scanner.ForEachToken(
        a.value, [&](std::string_view token) { tokens.emplace_back(token); });
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

}  // namespace sper
