// FlatHashMap: a minimal open-addressing hash map for the engine's
// aggregation hot paths (map-side combiners, reduce-side builds).
//
// Layout: entries live densely in one std::vector<std::pair<K, V>> in
// insertion order; a separate power-of-two index table of uint32_t slots
// (linear probing, empty = 0xFFFFFFFF) maps hashes to entry positions. A
// key's home slot is the top bits of its hash times the 64-bit golden ratio
// (Fibonacci hashing), not the hash's low bits: the shuffle sinks pick a
// bucket from those low bits, and std::hash<int> is the identity, so every
// key of one bucket shares them. This
// buys three things over std::unordered_map on the shuffle path:
//   - one contiguous allocation for the payload instead of a node per key,
//     so the combine loop walks cache lines, not pointers;
//   - iteration in insertion order, which is deterministic — downstream
//     sorts stay correct and flint-lint's unordered-iteration checks never
//     apply (no hash-order traversal exists);
//   - TakeEntries() moves the payload straight into a partition vector with
//     zero copies.
//
// Deliberately erase-less: the shuffle path only inserts and updates, so
// there are no tombstones and probe chains never contain deleted slots.
// Growth doubles the index and re-points it at the (unmoved) entries.

#ifndef SRC_COMMON_FLAT_HASH_H_
#define SRC_COMMON_FLAT_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace flint {

template <typename K, typename V, typename Hash>
class FlatHashMap {
 public:
  using Entry = std::pair<K, V>;

  FlatHashMap() = default;
  explicit FlatHashMap(Hash hash) : hash_(std::move(hash)) {}

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Pre-sizes for `n` keys: one entries reservation plus an index large
  // enough that inserting n keys never rehashes.
  void Reserve(size_t n) {
    entries_.reserve(n);
    size_t cap = kMinCapacity;
    while (n + 1 > cap - cap / 8) {  // same load bound as Grow()
      cap *= 2;
    }
    if (cap > slots_.size()) {
      Rehash(cap);
    }
  }

  // Inserts (key, value) if the key is absent. Returns the value slot and
  // whether an insert happened (false = key existed; the caller combines).
  // The pointer is invalidated by the next insert.
  std::pair<V*, bool> FindOrEmplace(const K& key, const V& value) {
    return FindOrEmplaceHashed(hash_(key), key, value);
  }

  // Same, with the caller supplying hash_(key) — the shuffle sinks already
  // hash every key once to pick its bucket and must not pay for it twice.
  std::pair<V*, bool> FindOrEmplaceHashed(size_t hash, const K& key, const V& value) {
    if (entries_.size() + 1 > slots_.size() - slots_.size() / 8) {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    size_t idx = HomeSlot(hash);
    while (slots_[idx] != kEmpty) {
      Entry& e = entries_[slots_[idx]];
      if (e.first == key) {
        return {&e.second, false};
      }
      idx = (idx + 1) & mask;
    }
    slots_[idx] = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back(key, value);
    return {&entries_.back().second, true};
  }

  // Value slot for `key`, default-inserting V{} if absent.
  V& operator[](const K& key) { return *FindOrEmplace(key, V{}).first; }

  // Read-only lookup; nullptr if absent.
  const V* Find(const K& key) const {
    if (slots_.empty()) {
      return nullptr;
    }
    const size_t mask = slots_.size() - 1;
    size_t idx = HomeSlot(hash_(key));
    while (slots_[idx] != kEmpty) {
      const Entry& e = entries_[slots_[idx]];
      if (e.first == key) {
        return &e.second;
      }
      idx = (idx + 1) & mask;
    }
    return nullptr;
  }

  // Entries in insertion order.
  const std::vector<Entry>& entries() const { return entries_; }

  // Moves the payload out (insertion order); the map is empty afterwards.
  std::vector<Entry> TakeEntries() {
    std::vector<Entry> out = std::move(entries_);
    entries_.clear();
    slots_.clear();
    return out;
  }

  size_t capacity() const { return slots_.size(); }  // index slots (for tests)

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr size_t kMinCapacity = 16;
  static constexpr uint64_t kGoldenRatio = 0x9E3779B97F4A7C15ULL;

  // Mixes every bit of `hash` into the top log2(capacity) bits and keeps
  // those. Only valid while the index is non-empty.
  size_t HomeSlot(size_t hash) const {
    return static_cast<size_t>((static_cast<uint64_t>(hash) * kGoldenRatio) >> shift_);
  }

  void Grow() { Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2); }

  void Rehash(size_t new_cap) {
    slots_.assign(new_cap, kEmpty);
    shift_ = 64 - std::countr_zero(new_cap);
    const size_t mask = new_cap - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t idx = HomeSlot(hash_(entries_[i].first));
      while (slots_[idx] != kEmpty) {
        idx = (idx + 1) & mask;
      }
      slots_[idx] = static_cast<uint32_t>(i);
    }
  }

  Hash hash_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  // positions into entries_, kEmpty when free
  int shift_ = 64;               // 64 - log2(slots_.size())
};

}  // namespace flint

#endif  // SRC_COMMON_FLAT_HASH_H_
