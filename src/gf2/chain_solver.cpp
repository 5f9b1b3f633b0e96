#include "gf2/chain_solver.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

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

std::optional<RepairPlan> plan_repair(int num_cells,
                                      std::span<const ChainSpec> chains,
                                      std::span<const int> erased,
                                      std::span<const int> targets) {
  std::vector<char> lost(static_cast<std::size_t>(num_cells), 0);
  for (int c : erased) lost[static_cast<std::size_t>(c)] = 1;
  // Per target, the other cells of each chain through it that holds no
  // other erased cell.
  const std::size_t k = targets.size();
  std::vector<std::vector<std::vector<int>>> options(k);
  bool all_free = true;
  for (std::size_t i = 0; i < k; ++i) {
    const int t = targets[i];
    assert(lost[static_cast<std::size_t>(t)] && "target not erased");
    for (const ChainSpec& ch : chains) {
      if (std::ranges::find(ch.cells, t) == ch.cells.end()) continue;
      std::vector<int> others;
      std::ranges::copy_if(ch.cells, std::back_inserter(others),
                           [t](int c) { return c != t; });
      if (std::ranges::none_of(others, [&](int c) {
            return lost[static_cast<std::size_t>(c)];
          })) {
        options[i].push_back(std::move(others));
      }
    }
    all_free = all_free && !options[i].empty();
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
    // uses[c] = chosen chains reading cell c; reads = cells with uses > 0.
    std::vector<int> uses(static_cast<std::size_t>(num_cells), 0);
    std::vector<std::size_t> choice(k, 0);
    long reads = 0;
    const auto take = [&](std::size_t i, int delta) {
      for (int c : options[i][choice[i]]) {
        int& u = uses[static_cast<std::size_t>(c)];
        if (delta > 0 ? u++ == 0 : --u == 0) reads += delta;
      }
    };
    const auto set = [&](std::size_t i, std::size_t o) {
      take(i, -1);
      choice[i] = o;
      take(i, +1);
    };
    for (std::size_t i = 0; i < k; ++i) take(i, +1);
    std::vector<std::size_t> best = choice;
    long best_reads = reads;
    double states = 1;
    for (const auto& o : options) states *= static_cast<double>(o.size());
    if (states <= 65536) {  // 2^16: exhaustive
      // Odometer over every choice vector, one digit change at a time.
      for (;;) {
        std::size_t i = 0;
        while (i < k && choice[i] + 1 == options[i].size()) set(i++, 0);
        if (i == k) break;
        set(i, choice[i] + 1);
        if (reads < best_reads) {
          best_reads = reads;
          best = choice;
        }
      }
    } else {
      // Greedy descent: move one target at a time while that helps.
      for (bool improved = true; improved;) {
        improved = false;
        for (std::size_t i = 0; i < k; ++i) {
          for (std::size_t o = 0; o < options[i].size(); ++o) {
            const std::size_t was = choice[i];
            set(i, o);
            if (reads < best_reads) {
              best_reads = reads;
              improved = true;
            } else {
              set(i, was);
            }
          }
        }
      }
      best = choice;
    }
    for (std::size_t i = 0; i < k; ++i) {
      plan.recipes[i] = {targets[i], options[i][best[i]]};
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
