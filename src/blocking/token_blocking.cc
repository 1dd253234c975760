#include "blocking/token_blocking.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/page_resource.h"
#include "parallel/parallel_for.h"

namespace sper {

namespace {

/// Frees a container's buffer, keeping its memory resource.
template <typename Container>
void Free(Container& c) {
  Container(c.get_allocator()).swap(c);
}

/// Dense token ids in order of first occurrence. The token bytes live in
/// one arena; an open-addressing table of (hash tag, id) slots finds them.
/// The hash only places slots: it never decides an id or an order.
class TokenInterner {
 public:
  /// An empty table whose buffers come from `resource`.
  explicit TokenInterner(std::pmr::memory_resource* resource)
      : arena_(resource), ends_(resource), slots_(resource) {}

  /// The id of `token`, assigning the next one when it is new.
  std::uint32_t Intern(std::string_view token) {
    // Keep the table at most half full so probe runs stay short.
    if (2 * (size() + 1) > slots_.size()) Grow();
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
    ends_.push_back(arena_.size());
    return id;
  }

  /// Reserves room for `tokens` distinct tokens of `bytes` bytes in all,
  /// so interning within those bounds allocates nothing: Grow() rebuilds
  /// the slots inside the reserved capacity.
  void Reserve(std::size_t tokens, std::size_t bytes) {
    arena_.reserve(bytes);
    ends_.reserve(tokens);
    slots_.reserve(SlotsFor(tokens));
  }

  /// Frees the hash slots once every token is interned; key() keeps
  /// working, and a later Intern() rebuilds them.
  void DropSlots() { Free(slots_); }

  /// Frees every buffer, leaving an empty table.
  void Clear() {
    Free(arena_);
    Free(ends_);
    Free(slots_);
  }

  /// Number of distinct tokens.
  std::size_t size() const { return ends_.size(); }

  /// Total bytes of all distinct tokens.
  std::size_t bytes() const { return arena_.size(); }

  /// The token bytes of `id`.
  std::string_view key(std::uint32_t id) const {
    const std::size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_).substr(begin, ends_[id] - begin);
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

  /// The slot count that keeps `tokens` ids at most half full.
  static std::size_t SlotsFor(std::size_t tokens) {
    return std::bit_ceil(std::max(kInitialSlots, 2 * tokens));
  }

  /// Rebuilds the slots for one more id from the ids alone, in place:
  /// within the reserved capacity this allocates nothing.
  void Grow() {
    slots_.assign(SlotsFor(size() + 1), Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < size(); ++id) {
      const std::uint64_t hash = Hash(key(id));
      std::size_t s = hash & mask;
      while (slots_[s].id != kEmpty) s = (s + 1) & mask;
      slots_[s] = {id, static_cast<std::uint32_t>(hash >> 32)};
    }
  }

  std::pmr::string arena_;
  std::pmr::vector<std::size_t> ends_;  // per id: end of its bytes in arena_
  std::pmr::vector<Slot> slots_;        // power-of-two size, or empty
};

/// Upper bounds on what pass 1 grows for a range of profiles.
struct ChunkBounds {
  std::size_t tokens = 0;   // token occurrences, so also distinct tokens
  std::size_t bytes = 0;    // token bytes
  std::size_t longest = 0;  // longest token
};

/// No value of length L holds more than (L + 1) / (min_length + 1)
/// tokens, more than L token bytes, or a token longer than L.
ChunkBounds BoundsOf(const ProfileStore& store, IndexRange range,
                     const TokenizerOptions& tokenizer) {
  const std::size_t per_token =
      std::max<std::size_t>(tokenizer.min_token_length, 1) + 1;
  ChunkBounds bounds;
  for (std::size_t p = range.begin; p < range.end; ++p) {
    for (const Attribute& a : store.profiles()[p].attributes()) {
      bounds.tokens += (a.value.size() + 1) / per_token;
      bounds.bytes += a.value.size();
      bounds.longest = std::max(bounds.longest, a.value.size());
    }
  }
  return bounds;
}

/// A cache line: per-thread state that is written often keeps this far
/// apart, or the threads contend for lines they do not share.
constexpr std::size_t kCacheLine = 64;

/// Pass 1's output for one static chunk of profiles, in ids local to the
/// chunk. Each chunk's thread writes its scanner and the ends of its
/// buffers on every token, so chunks start a cache line apart.
struct alignas(kCacheLine) ChunkTokens {
  ChunkTokens(const TokenizerOptions& tokenizer,
              std::pmr::memory_resource* resource)
      : scanner(tokenizer),
        tokens(resource),
        occurrences(resource),
        counts(resource),
        last_profile(resource) {}

  /// Sizes every buffer Scan() grows, for `num_profiles` profiles within
  /// `bounds`.
  void Reserve(const ChunkBounds& bounds, std::size_t num_profiles) {
    tokens.Reserve(bounds.tokens, bounds.bytes);
    // Past its longest token, so the token buffers the calling thread
    // reserves back to back share no cache line.
    scanner.Reserve(bounds.longest + kCacheLine);
    occurrences.reserve(bounds.tokens);
    profile_ends.reserve(num_profiles);
    counts.reserve(bounds.tokens);
    last_profile.reserve(bounds.tokens);
  }

  /// Interns every token of the chunk's profiles and records each
  /// profile's distinct token ids, counting the profiles of every token.
  void Scan(const ProfileStore& store, IndexRange range) {
    for (std::size_t p = range.begin; p < range.end; ++p) {
      const Profile& profile = store.profiles()[p];
      const auto record = [&](std::string_view token) {
        const std::uint32_t id = tokens.Intern(token);
        if (id == counts.size()) {
          counts.push_back(0);
          last_profile.push_back(kInvalidProfile);
        }
        if (last_profile[id] == profile.id()) return;
        last_profile[id] = profile.id();
        ++counts[id];
        occurrences.push_back(id);
      };
      for (const Attribute& a : profile.attributes()) {
        scanner.ForEachToken(a.value, record);
      }
      profile_ends.push_back(occurrences.size());
    }
  }

  TokenScanner scanner;
  TokenInterner tokens;
  std::pmr::vector<std::uint32_t> occurrences;  // local ids, by profile
  std::vector<std::size_t> profile_ends;  // end of each profile's group
  /// Per local id: how many of the chunk's profiles hold it; after the
  /// merge, where the chunk's next posting of it goes.
  std::pmr::vector<std::uint64_t> counts;
  std::pmr::vector<ProfileId> last_profile;  // per local id, during Scan
  std::vector<std::uint32_t> global_ids;     // per local id, chunks 1..
};

}  // namespace

BlockCollection TokenBlocking(const ProfileStore& store,
                              const TokenBlockingOptions& options,
                              std::size_t num_threads) {
  const std::vector<IndexRange> ranges =
      StaticChunks(store.size(), num_threads);
  if (ranges.empty()) {
    return BlockCollection(store.er_type(), store.split_index());
  }

  // Pass 1, per static profile chunk: intern every token into the chunk's
  // own table, in order of first occurrence. The workers allocate nothing,
  // so their malloc arenas keep no freed memory: they measure bounds, the
  // calling thread reserves them, and only then do they scan. The bounds
  // overshoot several-fold, so the reservations are fresh mappings whose
  // untouched pages cost nothing (page_resource.h). One chunk needs no
  // bounds: it runs on the calling thread, growing its buffers on the heap.
  std::pmr::memory_resource* resource =
      ranges.size() > 1 ? Pages() : std::pmr::get_default_resource();
  std::vector<ChunkTokens> chunks;
  chunks.reserve(ranges.size());
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    chunks.emplace_back(options.tokenizer, resource);
  }
  if (chunks.size() > 1) {
    std::vector<ChunkBounds> bounds(ranges.size());
    ParallelForRanges(ranges, [&](std::size_t c, IndexRange range) {
      bounds[c] = BoundsOf(store, range, options.tokenizer);
    });
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      chunks[c].Reserve(bounds[c], ranges[c].size());
    }
  }
  ParallelForRanges(ranges, [&](std::size_t c, IndexRange range) {
    chunks[c].Scan(store, range);
  });
  for (ChunkTokens& chunk : chunks) {
    Free(chunk.last_profile);
  }

  // Merge the tables in chunk order. Chunk 0's ids are global ids already;
  // a later chunk's new tokens follow every earlier chunk's in its own
  // first-occurrence order, so global ids keep first-seen order over the
  // whole store, whatever the thread count. Each merged table is freed.
  std::size_t sum_tokens = 0, sum_bytes = 0;
  for (const ChunkTokens& chunk : chunks) {
    sum_tokens += chunk.tokens.size();
    sum_bytes += chunk.tokens.bytes();
  }
  TokenInterner tokens = std::move(chunks[0].tokens);
  tokens.Reserve(sum_tokens, sum_bytes);
  std::vector<std::uint64_t> offsets;  // per global id: profile count
  offsets.reserve(sum_tokens + 1);
  offsets.assign(chunks[0].counts.begin(), chunks[0].counts.end());
  for (std::size_t c = 1; c < chunks.size(); ++c) {
    ChunkTokens& chunk = chunks[c];
    chunk.global_ids.resize(chunk.counts.size());
    for (std::uint32_t local = 0; local < chunk.counts.size(); ++local) {
      const std::uint32_t id = tokens.Intern(chunk.tokens.key(local));
      if (id == offsets.size()) offsets.push_back(0);
      offsets[id] += chunk.counts[local];
      chunk.global_ids[local] = id;
    }
    chunk.tokens.Clear();
  }
  tokens.DropSlots();
  const std::size_t num_tokens = tokens.size();

  // Pass 2: counts become CSR offsets. A chunk's postings of a token start
  // where the earlier chunks' end, so walking the chunks in order turns
  // each chunk's counts into its cursors (offsets[id] then holds the end
  // of id, and one shift restores the starts). Each chunk then scatters
  // its profiles in id order, leaving every token's postings ascending.
  offsets.push_back(0);
  std::exclusive_scan(offsets.begin(), offsets.end(), offsets.begin(),
                      std::uint64_t{0});
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    ChunkTokens& chunk = chunks[c];
    for (std::uint32_t local = 0; local < chunk.counts.size(); ++local) {
      const std::uint32_t id = c == 0 ? local : chunk.global_ids[local];
      const std::uint64_t count = chunk.counts[local];
      chunk.counts[local] = offsets[id];
      offsets[id] += count;
    }
    Free(chunk.global_ids);
  }
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
  std::vector<ProfileId> postings(offsets.back());
  ParallelForRanges(ranges, [&](std::size_t c, IndexRange range) {
    ChunkTokens& chunk = chunks[c];
    std::size_t k = 0;
    for (std::size_t r = 0; r < range.size(); ++r) {
      const ProfileId p = static_cast<ProfileId>(range.begin + r);
      for (; k < chunk.profile_ends[r]; ++k) {
        postings[chunk.counts[chunk.occurrences[k]]++] = p;
      }
    }
  });
  chunks.clear();
  const auto postings_of = [&](std::uint32_t id) {
    return std::span<const ProfileId>(postings.data() + offsets[id],
                                      postings.data() + offsets[id + 1]);
  };

  // Pass 3: keep the tokens whose block yields a comparison, order them
  // with one sort of their keys, and append them to the CSR collection.
  BlockCollection collection(store.er_type(), store.split_index());
  std::vector<std::uint32_t> kept;
  for (std::uint32_t id = 0; id < num_tokens; ++id) {
    if (collection.ComputeCardinality(postings_of(id)) == 0) continue;
    kept.push_back(id);
  }
  ParallelSort(std::span(kept), num_threads,
               [&](std::uint32_t a, std::uint32_t b) {
                 return tokens.key(a) < tokens.key(b);
               });
  std::vector<std::uint64_t> sizes(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    sizes[k] = postings_of(kept[k]).size();
  }
  collection.AddBlocks(
      sizes, [&](std::size_t k) { return tokens.key(kept[k]); },
      [&](std::size_t k, ProfileId* out) {
        const std::span<const ProfileId> postings = postings_of(kept[k]);
        std::copy(postings.begin(), postings.end(), out);
      },
      num_threads);
  return collection;
}

}  // namespace sper
