#pragma once
// Generic erasure solver for XOR array codes.
//
// Every code in this library is described by its parity chains: sets of
// cell indices whose blocks XOR to zero (the parity element is a member
// of its own chain). Given the chains and a set of erased cells, the
// solver performs Gauss-Jordan elimination over GF(2) and emits, for
// each erased cell, a *recovery recipe*: the list of surviving cells
// whose XOR reproduces it. Recipes are data-independent, so they can be
// cached, counted for I/O accounting, and applied with the xorblk
// kernels.
//
// This is the ground-truth decoder used to (a) validate the specialized
// chain-walking decoders and (b) numerically certify the MDS property of
// each code (all single and double column erasures solvable).

#include <optional>
#include <span>
#include <vector>

namespace c56 {

struct ChainSpec {
  // Cell indices (in any flat numbering chosen by the caller) that XOR
  // to zero. Order is irrelevant.
  std::vector<int> cells;
};

struct RecoveryRecipe {
  int target = -1;              // erased cell this recipe reconstructs
  std::vector<int> sources;     // surviving cells to XOR together
};

/// Solve for the erased cells. Returns one recipe per erased cell (same
/// order as `erased`) or nullopt when the erasure pattern is not
/// decodable under the given chains. `num_cells` bounds the cell index
/// space; `erased` must contain distinct valid indices.
std::optional<std::vector<RecoveryRecipe>> solve_erasures(
    int num_cells, std::span<const ChainSpec> chains,
    std::span<const int> erased);

/// A rebuild recipe set: one recipe per target plus the cells they read.
struct RepairPlan {
  std::vector<RecoveryRecipe> recipes;  // same order as `targets`
  std::vector<int> reads;  // sorted, distinct surviving cells read
};

/// Plan the reconstruction of `targets`, a subset of `erased`. Each
/// target whose chains include one free of every other erased cell takes
/// the free chain that keeps `reads` smallest: an exhaustive search
/// while the choice space has at most 2^16 states, else greedy
/// single-target descent from every target's first free chain. When some
/// target has no free chain (a multi-column failure that must combine
/// chains), every target takes its solve_erasures recipe. Returns nullopt
/// when the erasure pattern is not decodable. Chains list each cell once.
std::optional<RepairPlan> plan_repair(int num_cells,
                                      std::span<const ChainSpec> chains,
                                      std::span<const int> erased,
                                      std::span<const int> targets);

}  // namespace c56
