// The one stable sort by key behind every by-key sort in the engine: both
// hash-bucket sinks (typed_rdd.h) and SortBy's reduce (typed_rdd_ops.h).
//
// StableSortByKey(rows, key_of) orders `rows` by key_of(row) and keeps the
// input order of equal keys. An integral key (other than bool) on an input of
// at least kRadixSortMinRows rows takes an LSD radix sort over (key, row
// index) pairs; every other input takes std::stable_sort. Both are stable, so
// which one runs never shows in the output.

#ifndef SRC_ENGINE_KEY_SORT_H_
#define SRC_ENGINE_KEY_SORT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace flint {

// Below this many rows the radix path's fixed cost (zeroing one 256-entry
// histogram per key byte, a prefix sum per pass) outweighs what it saves
// over std::stable_sort, so shuffles with tiny buckets, such as TPC-H's, stay
// on std::stable_sort. Set at the measured crossover, not below it.
inline constexpr size_t kRadixSortMinRows = 512;

namespace key_sort_internal {

template <typename K>
inline constexpr bool kRadixKey = std::is_integral_v<K> && !std::is_same_v<K, bool>;

// An order-preserving map of K onto its unsigned type: flipping the sign bit
// puts every negative key below every non-negative one.
template <typename K>
std::make_unsigned_t<K> RadixBits(K key) {
  using U = std::make_unsigned_t<K>;
  auto u = static_cast<U>(key);
  if constexpr (std::is_signed_v<K>) {
    u = static_cast<U>(u ^ (U{1} << (std::numeric_limits<U>::digits - 1)));
  }
  return u;
}

template <typename U>
struct KeyIndex {
  U key;
  uint32_t index;
};

// LSD radix sort of `rows` by key_of(row); rows.size() fits a uint32_t.
// One pass reads every key once and fills all byte histograms; then one
// stable scatter pass per key byte, skipping any byte on which every key
// agrees; then one gather moves each row to its place exactly once. An
// input already in key order is left untouched.
template <typename T, typename KeyOf>
void RadixSortByKey(std::vector<T>& rows, const KeyOf& key_of) {
  using K = std::decay_t<std::invoke_result_t<const KeyOf&, const T&>>;
  using U = std::make_unsigned_t<K>;
  using Entry = KeyIndex<U>;
  constexpr size_t kBytes = sizeof(U);
  const size_t n = rows.size();

  auto front = std::make_unique_for_overwrite<Entry[]>(n);
  std::array<std::array<uint32_t, 256>, kBytes> counts{};
  bool in_order = true;
  U prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const U u = RadixBits(key_of(rows[i]));
    front[i] = Entry{u, static_cast<uint32_t>(i)};
    in_order = in_order && prev <= u;
    prev = u;
    for (size_t byte = 0; byte < kBytes; ++byte) {
      ++counts[byte][(u >> (8 * byte)) & 0xff];
    }
  }
  if (in_order) {
    return;
  }

  auto back = std::make_unique_for_overwrite<Entry[]>(n);
  Entry* src = front.get();
  Entry* dst = back.get();
  for (size_t byte = 0; byte < kBytes; ++byte) {
    std::array<uint32_t, 256>& slot = counts[byte];
    const unsigned shift = static_cast<unsigned>(8 * byte);
    if (slot[(src[0].key >> shift) & 0xff] == n) {
      continue;  // every key shares this byte: the pass would move nothing
    }
    uint32_t offset = 0;
    for (uint32_t& c : slot) {
      const uint32_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[slot[(src[i].key >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }

  std::vector<T> sorted;
  sorted.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sorted.push_back(std::move(rows[src[i].index]));
  }
  rows = std::move(sorted);
}

}  // namespace key_sort_internal

// Stable sort of `rows` by key_of(row) (equal keys keep their input order).
// key_of: const T& -> K, with K ordered by operator<. Needs no default
// constructor of T or K.
template <typename T, typename KeyOf>
void StableSortByKey(std::vector<T>& rows, const KeyOf& key_of) {
  using K = std::decay_t<std::invoke_result_t<const KeyOf&, const T&>>;
  if constexpr (key_sort_internal::kRadixKey<K>) {
    if (rows.size() >= kRadixSortMinRows &&
        rows.size() <= std::numeric_limits<uint32_t>::max()) {
      key_sort_internal::RadixSortByKey(rows, key_of);
      return;
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [&key_of](const T& a, const T& b) { return key_of(a) < key_of(b); });
}

}  // namespace flint

#endif  // SRC_ENGINE_KEY_SORT_H_
