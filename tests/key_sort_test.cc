// StableSortByKey (src/engine/key_sort.h), the one stable by-key sort behind
// both bucket sinks and SortBy, against std::stable_sort by key:
//   - every integral key width, signed and unsigned, including each type's
//     min and max and negative keys;
//   - random, all-equal, already-sorted and reversed inputs, at sizes on
//     both sides of kRadixSortMinRows and at 10^5 rows;
//   - duplicate keys whose values record arrival order (stability);
//   - a row type with no default constructor, a key computed by a function
//     of the row (SortBy's key_fn), and keys that keep std::stable_sort
//     (bool, std::string).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/key_sort.h"

namespace flint {
namespace {

// The oracle: std::stable_sort comparing keys only.
template <typename T, typename KeyOf>
std::vector<T> OracleSorted(std::vector<T> rows, KeyOf key_of) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const T& a, const T& b) { return key_of(a) < key_of(b); });
  return rows;
}

template <typename T, typename KeyOf>
std::vector<T> Sorted(std::vector<T> rows, KeyOf key_of) {
  StableSortByKey(rows, key_of);
  return rows;
}

struct First {
  template <typename K, typename V>
  const K& operator()(const std::pair<K, V>& row) const {
    return row.first;
  }
};

enum class Shape { kRandom, kFewKeys, kAllEqual, kSorted, kReversed };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kRandom:
      return "random";
    case Shape::kFewKeys:
      return "few-keys";
    case Shape::kAllEqual:
      return "all-equal";
    case Shape::kSorted:
      return "sorted";
    case Shape::kReversed:
      return "reversed";
  }
  return "?";
}

// Rows (key, arrival index) of `n` keys shaped by `shape`. Random keys span
// the whole type and every tenth row takes one of the extremes (min, max,
// 0, -1 when signed), so the sign flip and the top byte are exercised;
// few-keys draws from those extremes only, so every key repeats many times.
template <typename K>
std::vector<std::pair<K, uint32_t>> MakeRows(Shape shape, size_t n, uint64_t seed) {
  using Limits = std::numeric_limits<K>;
  const std::vector<K> extremes = {Limits::min(), Limits::max(), K{0}, static_cast<K>(-1),
                                   static_cast<K>(Limits::max() / 2)};
  Rng rng(seed);
  std::vector<std::pair<K, uint32_t>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    K key{};
    switch (shape) {
      case Shape::kRandom:
        key = i % 10 == 0 ? extremes[rng.UniformInt(extremes.size())]
                          : static_cast<K>(rng.NextU64());
        break;
      case Shape::kFewKeys:
        key = extremes[rng.UniformInt(extremes.size())];
        break;
      case Shape::kAllEqual:
        key = static_cast<K>(-7);
        break;
      case Shape::kSorted:
      case Shape::kReversed:
        key = static_cast<K>(rng.NextU64());
        break;
    }
    rows.emplace_back(key, static_cast<uint32_t>(i));
  }
  if (shape == Shape::kSorted || shape == Shape::kReversed) {
    // Key order with duplicates left in: the arrival indices then run in
    // key order, or against it when reversed, so ties still show stability.
    std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    if (shape == Shape::kReversed) {
      std::reverse(rows.begin(), rows.end());
    }
  }
  return rows;
}

template <typename K>
class KeySortTest : public ::testing::Test {};

using KeyTypes =
    ::testing::Types<int8_t, uint8_t, int16_t, int32_t, uint32_t, int64_t, uint64_t>;
TYPED_TEST_SUITE(KeySortTest, KeyTypes);

TYPED_TEST(KeySortTest, MatchesStableSortOracle) {
  using K = TypeParam;
  const std::vector<size_t> sizes = {kRadixSortMinRows - 1, kRadixSortMinRows,
                                     kRadixSortMinRows + 1, 100000};
  for (Shape shape :
       {Shape::kRandom, Shape::kFewKeys, Shape::kAllEqual, Shape::kSorted, Shape::kReversed}) {
    for (size_t n : sizes) {
      const auto rows = MakeRows<K>(shape, n, 1000 + n);
      EXPECT_EQ(Sorted(rows, First{}), OracleSorted(rows, First{}))
          << ShapeName(shape) << " n=" << n;
    }
  }
}

// Keys repeat thousands of times each: equal keys must keep arrival order,
// which the row's second member records.
TYPED_TEST(KeySortTest, EqualKeysKeepArrivalOrder) {
  using K = TypeParam;
  const auto rows = MakeRows<K>(Shape::kFewKeys, 20000, 5);
  const auto got = Sorted(rows, First{});
  ASSERT_EQ(got.size(), rows.size());
  for (size_t i = 1; i < got.size(); ++i) {
    ASSERT_FALSE(got[i].first < got[i - 1].first) << "row " << i;
    if (got[i].first == got[i - 1].first) {
      ASSERT_LT(got[i - 1].second, got[i].second) << "row " << i;
    }
  }
}

// A value with no default constructor (nor a default-constructible row):
// the sort moves rows, it never builds one from nothing.
struct NoDefault {
  explicit NoDefault(int v) : value(v) {}
  int value;
  bool operator==(const NoDefault& o) const { return value == o.value; }
};

TEST(KeySortTest, RowsWithNoDefaultConstructor) {
  static_assert(!std::is_default_constructible_v<std::pair<int, NoDefault>>);
  for (size_t n : {kRadixSortMinRows - 1, 4 * kRadixSortMinRows}) {
    Rng rng(n);
    std::vector<std::pair<int, NoDefault>> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.emplace_back(static_cast<int>(rng.UniformInt(200)) - 100,
                        NoDefault(static_cast<int>(i)));
    }
    EXPECT_EQ(Sorted(rows, First{}), OracleSorted(rows, First{})) << "n=" << n;
  }
}

// SortBy's shape: whole rows, the key a function of the row.
TEST(KeySortTest, KeyComputedFromTheRow) {
  struct Trade {
    int64_t at;
    std::string who;
    bool operator==(const Trade& o) const { return at == o.at && who == o.who; }
  };
  auto key_of = [](const Trade& t) { return -t.at / 3; };
  Rng rng(9);
  std::vector<Trade> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(Trade{static_cast<int64_t>(rng.NextU64() % 4000) - 2000, std::to_string(i)});
  }
  EXPECT_EQ(Sorted(rows, key_of), OracleSorted(rows, key_of));
}

// Keys outside the radix path (bool, strings) still sort stably.
TEST(KeySortTest, NonRadixKeysKeepStableSort) {
  Rng rng(11);
  std::vector<std::pair<bool, int>> flags;
  std::vector<std::pair<std::string, int>> names;
  for (int i = 0; i < 3000; ++i) {
    flags.emplace_back(rng.UniformInt(2) == 1, i);
    names.emplace_back(std::to_string(rng.UniformInt(300)), i);
  }
  EXPECT_EQ(Sorted(flags, First{}), OracleSorted(flags, First{}));
  EXPECT_EQ(Sorted(names, First{}), OracleSorted(names, First{}));
}

TEST(KeySortTest, EmptyAndSingleRow) {
  std::vector<std::pair<int64_t, int>> none;
  StableSortByKey(none, First{});
  EXPECT_TRUE(none.empty());
  std::vector<std::pair<int64_t, int>> one = {{-5, 1}};
  StableSortByKey(one, First{});
  EXPECT_EQ(one, (std::vector<std::pair<int64_t, int>>{{-5, 1}}));
}

}  // namespace
}  // namespace flint
