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

#include <cstddef>
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

/// The min-access choice behind every read plan: each target picks one
/// of its options, a set of cells, so that the weighted size of the
/// union of the picked sets is smallest. plan_repair prices every cell
/// at 1; the controller's write planner offers each parity rmw or
/// reconstruct-write and prices cells by where they come from. Storage
/// is flat and kept across clear(), so a caller that reuses one
/// instance allocates nothing once warm.
class UnionChoice {
 public:
  void clear();
  /// Starts a target; the options added next belong to it.
  void add_target();
  /// Starts an option of the last target; the cells added next are it.
  void add_option();
  void add_cell(int cell);

  std::size_t targets() const { return target_first_.size(); }
  std::size_t options(std::size_t target) const;
  std::span<const int> cells(std::size_t target, std::size_t option) const;

  /// Picks one option per target, every target having at least one,
  /// minimising the sum of weight[c] over the union of the picked cells
  /// (`weight` covers every cell added, none negative). While there are
  /// at most 2^16 choice vectors, the first lightest one in odometer
  /// order (target 0 fastest, from all option 0), found depth-first with
  /// every branch cut whose lower bound is no lighter than the best so
  /// far. Beyond that, greedy single-target descent from option 0
  /// everywhere. Ties keep the lower options. Returns each target's
  /// option index.
  std::span<const std::size_t> solve(std::span<const int> weight);

 private:
  void take(std::size_t target, int delta);
  void live_take(std::size_t at, int delta);
  void reshare(std::size_t j, int delta);
  void branch(std::size_t left);

  std::vector<std::size_t> target_first_;  // target -> its first option
  std::vector<std::size_t> option_first_;  // option -> its first cell
  std::vector<int> cells_;
  // solve() state: the weights, picked options holding each cell, the
  // weight of their union, the current and best choice vectors and the
  // targets that have more than one option.
  std::span<const int> weight_;
  std::vector<int> uses_;
  long cost_ = 0, best_cost_ = 0;
  std::vector<std::size_t> choice_, best_, free_;
  // The exhaustive search's view of the free targets (see solve()).
  std::vector<std::size_t> live_, live_first_, live_option_, mine_,
      mine_first_, offer_, offer_first_, last_;
  std::vector<double> offered_, share_, lean_;
};

/// A rebuild recipe set: one recipe per target plus the cells they read.
struct RepairPlan {
  std::vector<RecoveryRecipe> recipes;  // same order as `targets`
  std::vector<int> reads;  // sorted, distinct surviving cells read
};

/// Plan the reconstruction of `targets`, a subset of `erased`. Each
/// target whose chains include one free of every other erased cell takes
/// the free chain that keeps `reads` smallest: UnionChoice over the free
/// chains in chain order, every cell weighing 1. When some target has
/// no free chain (a multi-column failure that must combine chains),
/// every target takes its solve_erasures recipe. Returns nullopt when
/// the erasure pattern is not decodable. Chains list each cell once.
std::optional<RepairPlan> plan_repair(int num_cells,
                                      std::span<const ChainSpec> chains,
                                      std::span<const int> erased,
                                      std::span<const int> targets);

}  // namespace c56
