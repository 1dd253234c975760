#include "blocking/token_blocking.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sper {

namespace {

/// Dense token ids in order of first occurrence. The token bytes live in
/// one arena; an open-addressing table of (hash tag, id) slots finds them.
/// The hash only places slots: it never decides an id or an order.
class TokenInterner {
 public:
  TokenInterner() : slots_(kInitialSlots) { offsets_.push_back(0); }

  /// The id of `token`, assigning the next one when it is new.
  std::uint32_t Intern(std::string_view token) {
    const std::uint64_t hash = Hash(token);
    const std::uint32_t tag = static_cast<std::uint32_t>(hash >> 32);
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = hash & mask;
    for (; slots_[s].id != kEmpty; s = (s + 1) & mask) {
      if (slots_[s].tag == tag && key(slots_[s].id) == token) {
        return slots_[s].id;
      }
    }
    const std::uint32_t id = static_cast<std::uint32_t>(size());
    slots_[s] = {id, tag};
    arena_.append(token);
    offsets_.push_back(arena_.size());
    // Keep the table at most half full so probe runs stay short.
    if (2 * size() > slots_.size()) Grow();
    return id;
  }

  /// Number of distinct tokens.
  std::size_t size() const { return offsets_.size() - 1; }

  /// The token bytes of `id`.
  std::string_view key(std::uint32_t id) const {
    return std::string_view(arena_).substr(offsets_[id],
                                           offsets_[id + 1] - offsets_[id]);
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  static constexpr std::size_t kInitialSlots = 1 << 12;

  struct Slot {
    std::uint32_t id = kEmpty;
    std::uint32_t tag = 0;
  };

  static std::uint64_t Hash(std::string_view token) {
    return std::hash<std::string_view>{}(token);
  }

  void Grow() {
    std::vector<Slot> slots(2 * slots_.size());
    const std::size_t mask = slots.size() - 1;
    for (std::uint32_t id = 0; id < size(); ++id) {
      const std::uint64_t hash = Hash(key(id));
      std::size_t s = hash & mask;
      while (slots[s].id != kEmpty) s = (s + 1) & mask;
      slots[s] = {id, static_cast<std::uint32_t>(hash >> 32)};
    }
    slots_ = std::move(slots);
  }

  std::string arena_;
  std::vector<std::size_t> offsets_;  // size() + 1
  std::vector<Slot> slots_;           // power-of-two size
};

}  // namespace

BlockCollection TokenBlocking(const ProfileStore& store,
                              const TokenBlockingOptions& options) {
  // Pass 1, profiles in id order: intern every token and record each
  // profile's distinct token ids, counting the profiles of every token.
  TokenInterner interner;
  std::vector<std::uint32_t> occurrences;  // token ids, grouped by profile
  std::vector<std::size_t> profile_ends;   // end of each profile's group
  std::vector<ProfileId> last_profile;     // per token id
  std::vector<std::uint64_t> offsets;      // per token id: profile count
  profile_ends.reserve(store.size());
  TokenScanner scanner(options.tokenizer);
  for (const Profile& p : store.profiles()) {
    const auto record = [&](std::string_view token) {
      const std::uint32_t id = interner.Intern(token);
      if (id == last_profile.size()) {
        last_profile.push_back(kInvalidProfile);
        offsets.push_back(0);
      }
      if (last_profile[id] == p.id()) return;
      last_profile[id] = p.id();
      ++offsets[id];
      occurrences.push_back(id);
    };
    for (const Attribute& a : p.attributes()) {
      scanner.ForEachToken(a.value, record);
    }
    profile_ends.push_back(occurrences.size());
  }
  last_profile = {};

  // Pass 2: counts become CSR offsets, then one scatter in profile-id
  // order leaves every token's postings sorted ascending.
  const std::size_t num_tokens = interner.size();
  offsets.push_back(0);
  std::exclusive_scan(offsets.begin(), offsets.end(), offsets.begin(),
                      std::uint64_t{0});
  std::vector<ProfileId> postings(occurrences.size());
  {
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    std::size_t k = 0;
    for (ProfileId p = 0; p < profile_ends.size(); ++p) {
      for (; k < profile_ends[p]; ++k) {
        postings[cursor[occurrences[k]]++] = p;
      }
    }
  }
  occurrences = {};
  const auto postings_of = [&](std::uint32_t id) {
    return std::span<const ProfileId>(postings.data() + offsets[id],
                                      postings.data() + offsets[id + 1]);
  };

  // Pass 3: keep the tokens whose block yields a comparison, order them
  // with one sort of their keys, and append them to the CSR collection.
  BlockCollection collection(store.er_type(), store.split_index());
  std::vector<std::uint32_t> kept;
  std::size_t kept_members = 0, kept_key_bytes = 0;
  for (std::uint32_t id = 0; id < num_tokens; ++id) {
    if (collection.ComputeCardinality(postings_of(id)) == 0) continue;
    kept.push_back(id);
    kept_members += postings_of(id).size();
    kept_key_bytes += interner.key(id).size();
  }
  std::sort(kept.begin(), kept.end(), [&](std::uint32_t a, std::uint32_t b) {
    return interner.key(a) < interner.key(b);
  });
  collection.Reserve(kept.size(), kept_members, kept_key_bytes);
  for (std::uint32_t id : kept) {
    collection.Add(interner.key(id), postings_of(id));
  }
  return collection;
}

}  // namespace sper
