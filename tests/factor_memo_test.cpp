// The factorization memo: full-key lookups (an empty list is a cached
// verdict, keys differing in any component are distinct, equal hashes do
// not alias), the task-order merge (existing entries win, a capped merge
// keeps the delta's first entries), and list spans that stay valid while
// the slot table grows and across merges.

#include "synth/factor_memo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tt/isf.hpp"
#include "tt/truth_table.hpp"

namespace {

using stpes::synth::cone_split;
using stpes::synth::factor_memo;
using stpes::synth::factorization;
using stpes::synth::requirement;
using stpes::tt::isf;
using stpes::tt::truth_table;

requirement make_req(std::uint32_t cone, std::uint64_t on, std::uint64_t care,
                     unsigned num_vars = 4) {
  return requirement{cone, isf{truth_table{num_vars, on & care},
                               truth_table{num_vars, care}}};
}

/// A list of `count` branches tagged by `tag` in the children's cones.
std::vector<factorization> make_list(std::uint32_t tag, std::size_t count) {
  std::vector<factorization> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].left.cone = tag;
    out[i].right.cone = static_cast<std::uint32_t>(i);
  }
  return out;
}

std::uint64_t key_hash(const requirement& r, cone_split s) {
  return factor_memo::split_hash(factor_memo::requirement_hash(r), s);
}

void insert(factor_memo& memo, const requirement& r, cone_split s,
            std::vector<factorization> value) {
  memo.insert(key_hash(r, s), r, s, std::move(value));
}

bool contains(const factor_memo& memo, const requirement& r, cone_split s) {
  return memo.find(key_hash(r, s), r, s).has_value();
}

TEST(FactorMemo, EmptyListIsAHitNotAMiss) {
  factor_memo memo;
  const auto r = make_req(0xF, 0x8ff8, 0xFFFF);
  const cone_split s{0x3, 0xC};
  EXPECT_FALSE(contains(memo, r, s));
  insert(memo, r, s, {});
  const auto hit = memo.find(key_hash(r, s), r, s);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->empty());
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FactorMemo, KeysDifferingOnlyInCaresetAreDistinct) {
  factor_memo memo;
  const auto a = make_req(0xF, 0x0008, 0x00FF);
  const auto b = make_req(0xF, 0x0008, 0x0FFF);
  ASSERT_EQ(a.func.onset(), b.func.onset());
  const cone_split s{0x3, 0xC};
  insert(memo, a, s, make_list(1, 1));
  EXPECT_FALSE(contains(memo, b, s));
  insert(memo, b, s, make_list(2, 2));
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(key_hash(a, s), a, s)->size(), 1u);
  EXPECT_EQ(memo.find(key_hash(b, s), b, s)->size(), 2u);
}

TEST(FactorMemo, KeysDifferingOnlyInConeBAreDistinct) {
  factor_memo memo;
  const auto r = make_req(0xF, 0x8ff8, 0xFFFF);
  insert(memo, r, cone_split{0x3, 0xC}, make_list(1, 1));
  EXPECT_FALSE(contains(memo, r, cone_split{0x3, 0xE}));
  insert(memo, r, cone_split{0x3, 0xE}, {});
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(key_hash(r, {0x3, 0xC}), r, {0x3, 0xC})->size(), 1u);
  EXPECT_TRUE(memo.find(key_hash(r, {0x3, 0xE}), r, {0x3, 0xE})->empty());
}

TEST(FactorMemo, EqualHashesDoNotAliasDistinctKeys) {
  // The table compares full keys: a caller-supplied hash collision must
  // miss, not return another query's list.
  factor_memo memo;
  const auto a = make_req(0xF, 0x8ff8, 0xFFFF);
  const auto b = make_req(0xF, 0x6996, 0xFFFF);
  const cone_split s{0x3, 0xC};
  memo.insert(42, a, s, make_list(1, 3));
  EXPECT_FALSE(memo.find(42, b, s).has_value());
  memo.insert(42, b, s, make_list(2, 1));
  EXPECT_EQ(memo.find(42, a, s)->size(), 3u);
  EXPECT_EQ(memo.find(42, b, s)->size(), 1u);
}

TEST(FactorMemo, InsertKeepsAnExistingEntry) {
  factor_memo memo;
  const auto r = make_req(0xF, 0x8ff8, 0xFFFF);
  const cone_split s{0x3, 0xC};
  insert(memo, r, s, make_list(1, 2));
  const auto kept = memo.insert(key_hash(r, s), r, s, make_list(2, 5));
  EXPECT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].left.cone, 1u);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FactorMemo, ExistingEntryWinsOnMerge) {
  factor_memo memo;
  factor_memo delta;
  const auto r = make_req(0xF, 0x8ff8, 0xFFFF);
  const auto other = make_req(0x7, 0x00e8, 0x00FF);
  const cone_split s{0x3, 0xC};
  insert(memo, r, s, make_list(1, 1));
  insert(delta, r, s, make_list(2, 4));
  insert(delta, other, s, make_list(3, 2));
  memo.merge_from(std::move(delta));
  EXPECT_EQ(memo.size(), 2u);
  const auto kept = memo.find(key_hash(r, s), r, s);
  ASSERT_TRUE(kept.has_value());
  ASSERT_EQ(kept->size(), 1u);
  EXPECT_EQ((*kept)[0].left.cone, 1u);
  const auto adopted = memo.find(key_hash(other, s), other, s);
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(adopted->size(), 2u);
  EXPECT_EQ((*adopted)[0].left.cone, 3u);
}

TEST(FactorMemo, CappedMergeKeepsTheDeltasFirstEntriesInInsertionOrder) {
  std::vector<requirement> reqs;
  for (std::uint64_t on = 1; on <= 6; ++on) {
    reqs.push_back(make_req(0xF, on * 0x1111, 0xFFFF));
  }
  const cone_split s{0x3, 0xC};
  for (const bool seeded : {false, true}) {
    factor_memo memo;
    if (seeded) {
      insert(memo, reqs[0], s, make_list(0, 1));
    }
    factor_memo delta;
    // Inserted in reverse, so insertion order differs from key order.
    for (std::size_t i = reqs.size(); i-- > 1;) {
      insert(delta, reqs[i], s, make_list(static_cast<std::uint32_t>(i), 1));
    }
    memo.merge_from(std::move(delta), 4);
    EXPECT_EQ(memo.size(), 4u) << seeded;
    // The delta held 5, 4, 3, 2, 1 in that order.
    const std::vector<std::size_t> kept =
        seeded ? std::vector<std::size_t>{0, 5, 4, 3}
               : std::vector<std::size_t>{5, 4, 3, 2};
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const bool expect =
          std::find(kept.begin(), kept.end(), i) != kept.end();
      EXPECT_EQ(contains(memo, reqs[i], s), expect) << seeded << " " << i;
    }
  }
}

TEST(FactorMemo, UncappedMergeIntoEmptyMemoAdoptsEverything) {
  factor_memo memo;
  factor_memo delta;
  const auto r = make_req(0xF, 0x8ff8, 0xFFFF);
  insert(delta, r, {0x3, 0xC}, make_list(1, 2));
  insert(delta, r, {0x7, 0xC}, {});
  memo.merge_from(std::move(delta), 2);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(key_hash(r, {0x3, 0xC}), r, {0x3, 0xC})->size(), 2u);
  EXPECT_TRUE(contains(memo, r, {0x7, 0xC}));
}

TEST(FactorMemo, SpansStayValidAcrossGrowthAndMerges) {
  constexpr std::size_t kEntries = 3000;
  const cone_split s{0x3, 0xC};
  const auto req_of = [](std::size_t i, unsigned num_vars) {
    // 8-variable keys exercise multi-word tables (and their heap storage).
    truth_table on{num_vars};
    truth_table care = truth_table::constant(num_vars, true);
    for (unsigned b = 0; b < 12; ++b) {
      on.set_bit(b, ((i >> b) & 1) != 0);
    }
    return requirement{0xFF, isf{on, care}};
  };
  for (const unsigned num_vars : {4u, 8u}) {
    factor_memo memo;
    factor_memo delta;
    std::vector<factor_memo::list> spans;
    std::vector<std::vector<factorization>> expected;
    for (std::size_t i = 0; i < kEntries; ++i) {
      // Lists of 0..40 branches: some are longer than an arena block.
      auto list = make_list(static_cast<std::uint32_t>(i), (i * 7) % 41);
      expected.push_back(list);
      const auto r = req_of(i, num_vars);
      factor_memo& target = i % 2 == 0 ? memo : delta;
      spans.push_back(target.insert(key_hash(r, s), r, s, std::move(list)));
    }
    const auto check = [&](const char* when) {
      for (std::size_t i = 0; i < kEntries; ++i) {
        ASSERT_EQ(spans[i].size(), expected[i].size()) << when << i;
        for (std::size_t k = 0; k < expected[i].size(); ++k) {
          ASSERT_EQ(spans[i][k].left.cone, expected[i][k].left.cone) << when;
          ASSERT_EQ(spans[i][k].right.cone, expected[i][k].right.cone)
              << when;
        }
      }
    };
    check("after growth ");
    memo.merge_from(std::move(delta));
    check("after merge ");
    for (std::size_t i = 0; i < kEntries; ++i) {
      const auto r = req_of(i, num_vars);
      const auto hit = memo.find(key_hash(r, s), r, s);
      ASSERT_TRUE(hit.has_value()) << i;
      EXPECT_EQ(hit->data(), spans[i].data()) << i;
      EXPECT_EQ(hit->size(), spans[i].size()) << i;
    }
    // A later merge into the merged memo keeps the earlier spans alive.
    factor_memo later;
    const auto extra = req_of(kEntries, num_vars);
    insert(later, extra, s, make_list(9, 3));
    memo.merge_from(std::move(later));
    check("after second merge ");
  }
}

}  // namespace
