#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gf2/bitmatrix.hpp"
#include "gf2/chain_solver.hpp"

namespace c56 {
namespace {

TEST(BitMatrix, SetGetFlip) {
  BitMatrix m(3, 100);
  EXPECT_FALSE(m.get(1, 70));
  m.set(1, 70, true);
  EXPECT_TRUE(m.get(1, 70));
  m.flip(1, 70);
  EXPECT_FALSE(m.get(1, 70));
  m.set(2, 99, true);
  EXPECT_TRUE(m.get(2, 99));
  EXPECT_FALSE(m.get(2, 98));
}

TEST(BitMatrix, XorRows) {
  BitMatrix m(2, 130);
  m.set(0, 0, true);
  m.set(0, 129, true);
  m.set(1, 129, true);
  m.xor_rows(0, 1);
  EXPECT_TRUE(m.get(0, 0));
  EXPECT_FALSE(m.get(0, 129));
  EXPECT_TRUE(m.row_is_zero(0) == false);
}

TEST(BitMatrix, RankIdentity) {
  BitMatrix m(4, 4);
  for (int i = 0; i < 4; ++i) m.set(i, i, true);
  EXPECT_EQ(m.rank(), 4);
}

TEST(BitMatrix, RankDependentRows) {
  BitMatrix m(3, 4);
  m.set(0, 0, true);
  m.set(0, 1, true);
  m.set(1, 1, true);
  m.set(1, 2, true);
  // row2 = row0 ^ row1
  m.set(2, 0, true);
  m.set(2, 2, true);
  EXPECT_EQ(m.rank(), 2);
}

TEST(ChainSolver, SingleParityChain) {
  // cells 0,1,2 with 0^1^2 == 0; erase cell 1.
  std::vector<ChainSpec> chains{{{0, 1, 2}}};
  const int erased[] = {1};
  auto r = solve_erasures(3, chains, erased);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].target, 1);
  EXPECT_EQ((*r)[0].sources, (std::vector<int>{0, 2}));
}

TEST(ChainSolver, UnsolvableWhenTwoLostInOneChain) {
  std::vector<ChainSpec> chains{{{0, 1, 2}}};
  const int erased[] = {0, 1};
  EXPECT_FALSE(solve_erasures(3, chains, erased).has_value());
}

TEST(ChainSolver, CombinesChains) {
  // chains: {0,1,2}, {2,3,4}; erase {1, 2}: cell2 from second chain,
  // then cell1 = 0 ^ 2 -> expressed over known cells {0,3,4}.
  std::vector<ChainSpec> chains{{{0, 1, 2}}, {{2, 3, 4}}};
  const int erased[] = {1, 2};
  auto r = solve_erasures(5, chains, erased);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[1].target, 2);
  EXPECT_EQ((*r)[1].sources, (std::vector<int>{3, 4}));
  EXPECT_EQ((*r)[0].target, 1);
  EXPECT_EQ((*r)[0].sources, (std::vector<int>{0, 3, 4}));
}

TEST(ChainSolver, DuplicateCellInChainCancels) {
  // A chain listing a cell twice contributes nothing for that cell.
  std::vector<ChainSpec> chains{{{0, 0, 1, 2}}};  // => 1 ^ 2 == 0
  const int erased[] = {1};
  auto r = solve_erasures(3, chains, erased);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[0].sources, (std::vector<int>{2}));
}

TEST(ChainSolver, EmptyErasureSet) {
  std::vector<ChainSpec> chains{{{0, 1}}};
  auto r = solve_erasures(2, chains, {});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
}

TEST(ChainSolver, KnownCellsCancelAcrossCombinedEquations) {
  // chains: {0,1,9}, {1,2,9}: erasing {0,2} needs both; cell 9 appears
  // in both and must cancel from neither recipe individually but the
  // recipes must be correct: x0 = 1^9, x2 = 1^9.
  std::vector<ChainSpec> chains{{{0, 1, 9}}, {{1, 2, 9}}};
  const int erased[] = {0, 2};
  auto r = solve_erasures(10, chains, erased);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[0].sources, (std::vector<int>{1, 9}));
  EXPECT_EQ((*r)[1].sources, (std::vector<int>{1, 9}));
}

TEST(RepairPlan, PicksTheChainsWithTheSmallestReadUnion) {
  // Cell 0 has chains {0,1,2} and {0,5,6}; cell 3 has {3,7} and
  // {3,1,2}. The first options read {1,2,7}; sharing {1,2} reads two.
  std::vector<ChainSpec> chains{
      {{0, 1, 2}}, {{0, 5, 6}}, {{3, 7}}, {{3, 1, 2}}};
  const int lost[] = {0, 3};
  const auto plan = plan_repair(8, chains, lost, lost);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->recipes.size(), 2u);
  EXPECT_EQ(plan->recipes[0].target, 0);
  EXPECT_EQ(plan->recipes[0].sources, (std::vector<int>{1, 2}));
  EXPECT_EQ(plan->recipes[1].target, 3);
  EXPECT_EQ(plan->recipes[1].sources, (std::vector<int>{1, 2}));
  EXPECT_EQ(plan->reads, (std::vector<int>{1, 2}));
}

TEST(RepairPlan, TargetsAStrictSubsetOfTheErasedCells) {
  // Cells 0 and 1 are erased, only 0 is rebuilt. Chain {0,1,2} holds
  // another erased cell, so cell 0 takes its free chain {0,3,4}.
  std::vector<ChainSpec> chains{{{0, 1, 2}}, {{0, 3, 4}}, {{1, 5}}};
  const int lost[] = {0, 1};
  const int target[] = {0};
  auto plan = plan_repair(6, chains, lost, target);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->recipes.size(), 1u);
  EXPECT_EQ(plan->recipes[0].sources, (std::vector<int>{3, 4}));
  EXPECT_EQ(plan->reads, (std::vector<int>{3, 4}));

  // Without a free chain the target takes its solve_erasures recipe,
  // which substitutes x1 = x5 into {0,1,2}.
  chains.erase(chains.begin() + 1);
  plan = plan_repair(6, chains, lost, target);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->recipes.size(), 1u);
  EXPECT_EQ(plan->recipes[0].target, 0);
  EXPECT_EQ(plan->recipes[0].sources, (std::vector<int>{2, 5}));
  EXPECT_EQ(plan->reads, (std::vector<int>{2, 5}));
}

TEST(RepairPlan, UndecodableSetReturnsNullopt) {
  // Cells 0 and 1 sit only in chains holding both of them.
  std::vector<ChainSpec> chains{{{0, 1, 2}}, {{0, 1, 3}}};
  const int lost[] = {0, 1};
  EXPECT_FALSE(plan_repair(4, chains, lost, lost).has_value());
  const int target[] = {0};
  EXPECT_FALSE(plan_repair(4, chains, lost, target).has_value());
}

TEST(RepairPlan, ExhaustiveUpToTwoToTheSixteenStatesThenGreedy) {
  // Targets 0 and 1 both first list a chain through {2,3}: together
  // they read 2 cells, and moving either alone to its chain through
  // {4} reads 3, so single-target descent stays there. Moving both
  // reads 1. Each padding target t adds two equal chains {t, t+1},
  // doubling the state count and adding one read.
  const auto reads_with_padding = [](int pad) {
    std::vector<ChainSpec> chains{
        {{0, 2, 3}}, {{1, 2, 3}}, {{0, 4}}, {{1, 4}}};
    std::vector<int> lost{0, 1};
    for (int k = 0; k < pad; ++k) {
      const int t = 5 + 2 * k;
      chains.push_back({{t, t + 1}});
      chains.push_back({{t, t + 1}});
      lost.push_back(t);
    }
    const auto plan = plan_repair(5 + 2 * pad, chains, lost, lost);
    EXPECT_TRUE(plan.has_value());
    return plan ? plan->reads.size() : std::size_t{0};
  };
  EXPECT_EQ(reads_with_padding(0), 1u);
  EXPECT_EQ(reads_with_padding(14), 15u);  // 2^16 states: exhaustive
  EXPECT_EQ(reads_with_padding(15), 17u);  // 2^17 states: greedy
}

TEST(UnionChoice, MatchesTheFirstLightestOdometerVector) {
  // Random instances against a plain odometer: the cut search must pick
  // the same vector, ties included (weights 0..3 make many).
  std::uint64_t seed = 0x5EA2C4;
  const auto next = [&seed](std::uint64_t n) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>((seed >> 33) % n);
  };
  UnionChoice pick;
  for (int round = 0; round < 300; ++round) {
    const int cells = 2 + next(14);
    std::vector<int> weight(static_cast<std::size_t>(cells));
    for (int& w : weight) w = next(4);
    pick.clear();
    const int targets = 1 + next(9);
    for (int t = 0; t < targets; ++t) {
      pick.add_target();
      for (int o = 1 + next(3); o > 0; --o) {
        pick.add_option();
        for (int n = next(5); n > 0; --n) pick.add_cell(next(cells));
      }
    }
    const auto weigh = [&](const std::vector<std::size_t>& choice) {
      std::vector<char> in(weight.size(), 0);
      int sum = 0;
      for (std::size_t t = 0; t < choice.size(); ++t) {
        for (int c : pick.cells(t, choice[t])) {
          if (!in[static_cast<std::size_t>(c)]++) sum += weight[c];
        }
      }
      return sum;
    };
    std::vector<std::size_t> choice(pick.targets(), 0), best = choice;
    int best_sum = weigh(choice);
    for (;;) {
      std::size_t i = 0;
      while (i < choice.size() && choice[i] + 1 == pick.options(i)) {
        choice[i++] = 0;
      }
      if (i == choice.size()) break;
      ++choice[i];
      if (const int sum = weigh(choice); sum < best_sum) {
        best_sum = sum;
        best = choice;
      }
    }
    const std::span<const std::size_t> got = pick.solve(weight);
    EXPECT_EQ(std::vector<std::size_t>(got.begin(), got.end()), best)
        << "round " << round;
  }
}

}  // namespace
}  // namespace c56
