#include "gf2/chain_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "gf2/bitmatrix.hpp"

namespace c56 {

std::optional<std::vector<RecoveryRecipe>> solve_erasures(
    int num_cells, std::span<const ChainSpec> chains,
    std::span<const int> erased) {
  const int k = static_cast<int>(erased.size());
  if (k == 0) return std::vector<RecoveryRecipe>{};

  std::vector<int> unknown_of_cell(static_cast<std::size_t>(num_cells), -1);
  for (int i = 0; i < k; ++i) {
    assert(erased[i] >= 0 && erased[i] < num_cells);
    assert(unknown_of_cell[erased[i]] == -1 && "duplicate erased cell");
    unknown_of_cell[erased[i]] = i;
  }

  const int m = static_cast<int>(chains.size());
  // Augmented system [A | E]: A is the unknown-coefficient matrix, E
  // tracks which original equations were combined into each row so that
  // solved unknowns can be expressed as XORs of known cells.
  BitMatrix a(m, k);
  BitMatrix e(m, m);
  for (int r = 0; r < m; ++r) {
    e.set(r, r, true);
    for (int cell : chains[r].cells) {
      const int u = unknown_of_cell[cell];
      if (u >= 0) a.flip(r, u);  // flip: a cell listed twice cancels
    }
  }

  // Gauss-Jordan on A, mirroring row ops onto E.
  std::vector<int> pivot_row_of_unknown(static_cast<std::size_t>(k), -1);
  int rank = 0;
  for (int c = 0; c < k && rank < m; ++c) {
    int pivot = -1;
    for (int r = rank; r < m; ++r) {
      if (a.get(r, c)) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) continue;
    a.swap_rows(rank, pivot);
    e.swap_rows(rank, pivot);
    for (int r = 0; r < m; ++r) {
      if (r != rank && a.get(r, c)) {
        a.xor_rows(r, rank);
        e.xor_rows(r, rank);
      }
    }
    pivot_row_of_unknown[c] = rank;
    ++rank;
  }
  for (int c = 0; c < k; ++c) {
    if (pivot_row_of_unknown[c] < 0) return std::nullopt;  // underdetermined
  }

  // Row for unknown u now reads: x_u = XOR over combined equations of the
  // known cells in those equations. Cells appearing an even number of
  // times across the combined equations cancel.
  std::vector<RecoveryRecipe> recipes(static_cast<std::size_t>(k));
  std::vector<int> parity(static_cast<std::size_t>(num_cells), 0);
  for (int u = 0; u < k; ++u) {
    const int row = pivot_row_of_unknown[u];
    std::vector<int> touched;
    for (int q = 0; q < m; ++q) {
      if (!e.get(row, q)) continue;
      for (int cell : chains[q].cells) {
        if (unknown_of_cell[cell] >= 0) continue;  // unknowns handled by A
        if (parity[cell] == 0) touched.push_back(cell);
        parity[cell] ^= 1;
      }
    }
    RecoveryRecipe& rec = recipes[static_cast<std::size_t>(u)];
    rec.target = erased[u];
    for (int cell : touched) {
      if (parity[cell]) rec.sources.push_back(cell);
      parity[cell] = 0;
    }
    std::sort(rec.sources.begin(), rec.sources.end());
  }
  return recipes;
}

void UnionChoice::clear() {
  target_first_.clear();
  option_first_.clear();
  cells_.clear();
}

void UnionChoice::add_target() {
  target_first_.push_back(option_first_.size());
}

void UnionChoice::add_option() {
  assert(!target_first_.empty());
  option_first_.push_back(cells_.size());
}

void UnionChoice::add_cell(int cell) {
  assert(!option_first_.empty() && cell >= 0);
  cells_.push_back(cell);
}

std::size_t UnionChoice::options(std::size_t target) const {
  const std::size_t end = target + 1 < target_first_.size()
                              ? target_first_[target + 1]
                              : option_first_.size();
  return end - target_first_[target];
}

std::span<const int> UnionChoice::cells(std::size_t target,
                                        std::size_t option) const {
  const std::size_t o = target_first_[target] + option;
  const std::size_t end =
      o + 1 < option_first_.size() ? option_first_[o + 1] : cells_.size();
  return std::span<const int>(cells_).subspan(option_first_[o],
                                              end - option_first_[o]);
}

void UnionChoice::take(std::size_t target, int delta) {
  for (int c : cells(target, choice_[target])) {
    int& u = uses_[static_cast<std::size_t>(c)];
    if (delta > 0 ? u++ == 0 : --u == 0) {
      cost_ += delta * weight_[static_cast<std::size_t>(c)];
    }
  }
}

// The exhaustive search walks the free targets through live_: per free
// target (free_ order) and option, the cells no one-option target reads,
// since those never change the weight. Its bound: every unassigned
// target picks some option, and an uncovered cell that n unassigned
// targets offer counts weight / n (share_) in each, so the sum over
// their cheapest options (lean_ per option) never exceeds what their
// picks add to the union.

// Picks (delta 1) or drops live option `at`, keeping cost_ and lean_.
void UnionChoice::live_take(std::size_t at, int delta) {
  for (std::size_t e = live_first_[at]; e < live_first_[at + 1]; ++e) {
    const std::size_t c = live_[e];
    if (delta > 0 ? uses_[c]++ == 0 : --uses_[c] == 0) {
      cost_ += delta * weight_[c];
      for (std::size_t k = offer_first_[c]; k < offer_first_[c + 1]; ++k) {
        lean_[offer_[k]] -= delta * share_[c];
      }
    }
  }
}

// Free target j leaves (delta -1) or rejoins the unassigned ones.
void UnionChoice::reshare(std::size_t j, int delta) {
  for (std::size_t e = mine_first_[j]; e < mine_first_[j + 1]; ++e) {
    const std::size_t c = mine_[e];
    offered_[c] += delta;
    const double share = offered_[c] > 0 ? weight_[c] / offered_[c] : 0;
    if (uses_[c] == 0) {
      for (std::size_t k = offer_first_[c]; k < offer_first_[c + 1]; ++k) {
        lean_[offer_[k]] += share - share_[c];
      }
    }
    share_[c] = share;
  }
}

// Depth-first over free_[0, left), the last target first, so leaves come
// in odometer order and the first lightest one is kept. A union only
// grows, so a branch that the bound puts at the best or above is cut.
void UnionChoice::branch(std::size_t left) {
  const std::size_t j = left - 1;
  reshare(j, -1);
  for (std::size_t at = live_option_[j]; at < live_option_[left]; ++at) {
    live_take(at, +1);
    // Integer weights: the rest adds at least ceil(bound).
    double bound = 0;
    for (std::size_t t = 0; t < j && cost_ + bound < best_cost_; ++t) {
      bound += *std::min_element(lean_.begin() + live_option_[t],
                                 lean_.begin() + live_option_[t + 1]);
    }
    if (cost_ + std::ceil(bound - 1e-6) < best_cost_) {
      choice_[free_[j]] = at - live_option_[j];
      if (j == 0) {
        best_cost_ = cost_;
        best_ = choice_;
      } else {
        branch(j);
      }
    }
    live_take(at, -1);
  }
  reshare(j, +1);
}

std::span<const std::size_t> UnionChoice::solve(std::span<const int> weight) {
  const std::size_t k = targets();
  weight_ = weight;
  uses_.assign(weight.size(), 0);
  choice_.assign(k, 0);
  free_.clear();
  cost_ = 0;
  double states = 1;
  for (std::size_t i = 0; i < k; ++i) {
    assert(options(i) > 0);
    take(i, +1);
    if (options(i) > 1) free_.push_back(i);
    states *= static_cast<double>(options(i));
  }
  best_ = choice_;
  best_cost_ = cost_;
  if (free_.empty()) return best_;
  if (states > 65536) {  // 2^16
    // Greedy descent: move one target at a time while that helps.
    const auto set = [&](std::size_t i, std::size_t o) {
      take(i, -1);
      choice_[i] = o;
      take(i, +1);
    };
    for (bool improved = true; improved;) {
      improved = false;
      for (std::size_t i : free_) {
        for (std::size_t o = 0; o < options(i); ++o) {
          const std::size_t was = choice_[i];
          if (o == was) continue;
          set(i, o);
          if (cost_ < best_cost_) {
            best_cost_ = cost_;
            improved = true;
          } else {
            set(i, was);
          }
        }
      }
    }
    best_ = choice_;
    return best_;
  }

  // Exhaustive: all option 0 is the first leaf; a later one replaces the
  // best only when strictly lighter.
  for (std::size_t i : free_) take(i, -1);
  // live_ per option, each cell once; mine_: each free target's distinct
  // live cells; offer_: per cell, the live options holding it.
  live_option_.clear();
  live_first_.clear();
  live_.clear();
  mine_first_.assign(1, 0);
  mine_.clear();
  offered_.assign(weight.size(), 0);
  offer_first_.assign(weight.size() + 1, 0);
  constexpr std::size_t kNone = SIZE_MAX;
  last_.assign(weight.size(), kNone);  // the last live option holding it
  for (std::size_t j = 0; j < free_.size(); ++j) {
    live_option_.push_back(live_first_.size());
    for (std::size_t o = 0; o < options(free_[j]); ++o) {
      const std::size_t at = live_first_.size();
      live_first_.push_back(live_.size());
      for (int c : cells(free_[j], o)) {
        const auto u = static_cast<std::size_t>(c);
        if (uses_[u] > 0 || last_[u] == at) continue;
        if (last_[u] == kNone || last_[u] < live_option_[j]) {
          mine_.push_back(u);
          ++offered_[u];
        }
        last_[u] = at;
        live_.push_back(u);
        ++offer_first_[u + 1];
      }
    }
    mine_first_.push_back(mine_.size());
  }
  live_option_.push_back(live_first_.size());
  live_first_.push_back(live_.size());
  for (std::size_t c = 0; c < weight.size(); ++c) {
    offer_first_[c + 1] += offer_first_[c];
  }
  offer_.resize(live_.size());
  share_.assign(weight.size(), 0);
  lean_.assign(live_first_.size() - 1, 0);
  for (std::size_t at = 0; at + 1 < live_first_.size(); ++at) {
    for (std::size_t e = live_first_[at]; e < live_first_[at + 1]; ++e) {
      const std::size_t c = live_[e];
      offer_[offer_first_[c]++] = at;  // leaves each cell's end behind
      share_[c] = weight[c] / offered_[c];
      lean_[at] += share_[c];
    }
  }
  std::copy_backward(offer_first_.begin(), offer_first_.end() - 1,
                     offer_first_.end());
  offer_first_[0] = 0;
  branch(free_.size());
  return best_;
}

std::optional<RepairPlan> plan_repair(int num_cells,
                                      std::span<const ChainSpec> chains,
                                      std::span<const int> erased,
                                      std::span<const int> targets) {
  std::vector<char> lost(static_cast<std::size_t>(num_cells), 0);
  for (int c : erased) lost[static_cast<std::size_t>(c)] = 1;
  // Per target, one option per chain through it that holds no other
  // erased cell: the chain's other cells.
  const std::size_t k = targets.size();
  UnionChoice pick;
  bool all_free = true;
  for (std::size_t i = 0; i < k; ++i) {
    const int t = targets[i];
    assert(lost[static_cast<std::size_t>(t)] && "target not erased");
    pick.add_target();
    bool any = false;
    for (const ChainSpec& ch : chains) {
      if (std::ranges::find(ch.cells, t) == ch.cells.end() ||
          std::ranges::any_of(ch.cells, [&](int c) {
            return c != t && lost[static_cast<std::size_t>(c)];
          })) {
        continue;
      }
      pick.add_option();
      for (int c : ch.cells) {
        if (c != t) pick.add_cell(c);
      }
      any = true;
    }
    all_free = all_free && any;
  }

  RepairPlan plan;
  plan.recipes.resize(k);
  if (!all_free) {
    auto solved = solve_erasures(num_cells, chains, erased);
    if (!solved) return std::nullopt;
    for (std::size_t i = 0; i < k; ++i) {
      plan.recipes[i] = *std::ranges::find(*solved, targets[i],
                                           &RecoveryRecipe::target);
    }
  } else {
    const std::vector<int> unit(static_cast<std::size_t>(num_cells), 1);
    const std::span<const std::size_t> best = pick.solve(unit);
    for (std::size_t i = 0; i < k; ++i) {
      const std::span<const int> src = pick.cells(i, best[i]);
      plan.recipes[i] = {targets[i], {src.begin(), src.end()}};
      std::ranges::sort(plan.recipes[i].sources);
    }
  }
  for (const RecoveryRecipe& rec : plan.recipes) {
    plan.reads.insert(plan.reads.end(), rec.sources.begin(), rec.sources.end());
  }
  std::ranges::sort(plan.reads);
  plan.reads.erase(std::unique(plan.reads.begin(), plan.reads.end()),
                   plan.reads.end());
  return plan;
}

}  // namespace c56
