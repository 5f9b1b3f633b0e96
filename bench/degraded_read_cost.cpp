// Degraded-mode read amplification per code: with one failed disk, how
// many surviving blocks must be fetched to serve a read of a lost
// block? Reported per code as the average and worst recipe size over
// every (failed disk, lost cell) pair, plus each code's whole-disk
// rebuild through plan_repair (Section III-E(4)'s hybrid chain choice)
// for contrast with per-block reconstruction.

#include <cstdio>
#include <sstream>

#include "codes/registry.hpp"
#include "gf2/chain_solver.hpp"
#include "util/table.hpp"

int main() {
  std::printf(
      "Degraded read amplification (single failed disk): surviving "
      "blocks read per lost block\n\n");
  c56::TextTable t({"code", "p", "avg reads", "worst reads"});
  for (c56::CodeId id : c56::all_code_ids()) {
    const int p = 5;
    auto code = c56::make_code(id, p);
    double total = 0;
    std::size_t worst = 0;
    int samples = 0;
    for (int disk = 0; disk < code->cols(); ++disk) {
      const std::vector<int> cols{disk};
      auto recipes = code->solve_cells(code->erased_cells_of_columns(cols));
      if (!recipes) continue;
      for (const auto& r : *recipes) {
        total += static_cast<double>(r.sources.size());
        worst = std::max(worst, r.sources.size());
        ++samples;
      }
    }
    t.add_row({to_string(id), std::to_string(p),
               c56::TextTable::fmt(total / samples, 2),
               std::to_string(worst)});
  }
  std::ostringstream os;
  t.print(os);
  std::fputs(os.str().c_str(), stdout);

  std::printf(
      "\nWhole-disk rebuild reads per stripe, averaged over every failed "
      "disk (per-cell recipes vs the chain-choice plan rebuilds use):\n\n");
  c56::TextTable t2({"code", "p", "per-cell", "planned", "saved"});
  for (c56::CodeId id : c56::all_code_ids()) {
    for (int p : {5, 7}) {
      auto code = c56::make_code(id, p);
      double per_cell = 0, planned = 0;
      for (int disk = 0; disk < code->cols(); ++disk) {
        const std::vector<int> lost =
            code->erased_cells_of_columns(std::vector<int>{disk});
        const auto recipes = code->solve_cells(lost);
        for (const auto& r : *recipes) {
          per_cell += static_cast<double>(r.sources.size());
        }
        const auto plan = c56::plan_repair(
            code->cell_count(), code->chain_specs(), lost, lost);
        planned += static_cast<double>(plan->reads.size());
      }
      t2.add_row({to_string(id), std::to_string(p),
                  c56::TextTable::fmt(per_cell / code->cols(), 2),
                  c56::TextTable::fmt(planned / code->cols(), 2),
                  c56::TextTable::pct(1.0 - planned / per_cell)});
    }
  }
  std::ostringstream os2;
  t2.print(os2);
  std::fputs(os2.str().c_str(), stdout);
  return 0;
}
