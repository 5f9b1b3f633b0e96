// Degraded-mode read amplification per code: with one failed disk, how
// many surviving blocks must be fetched to serve a read of a lost
// block? Reported per code as the average and worst recipe size over
// every (failed disk, lost cell) pair, plus each code's whole-disk
// rebuild through plan_repair (Section III-E(4)'s hybrid chain choice)
// for contrast with per-block reconstruction, plus the reads per stripe
// of a whole-stripe ArrayController::read under each failed disk.
//
// Exits 1 when a whole-stripe read issues a different number of reads
// than the union its plan predicts (every surviving data cell plus the
// recipe sources of every lost one), or when a Code 5-6 data disk reads
// anything other than 12 / 30 blocks per stripe at p = 5 / 7. No options.

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "codes/registry.hpp"
#include "gf2/chain_solver.hpp"
#include "migration/controller.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

constexpr std::size_t kBlock = 64;
constexpr std::int64_t kStripes = 4;

/// Blocks per stripe a whole-stripe read must fetch with `disk` failed:
/// every surviving data cell, plus the single-target plan_repair recipe
/// of every lost one, each block once.
std::size_t predicted_reads(const c56::ErasureCode& code, int disk) {
  const std::vector<int> lost =
      code.erased_cells_of_columns(std::vector<int>{disk});
  std::set<int> reads;
  for (int r = 0; r < code.rows(); ++r) {
    for (int c = 0; c < code.cols(); ++c) {
      if (code.kind({r, c}) != c56::CellKind::kData) continue;
      const int cell = r * code.cols() + c;
      if (c != disk) {
        reads.insert(cell);
        continue;
      }
      const auto plan = c56::plan_repair(code.cell_count(), code.chain_specs(),
                                         lost, std::vector<int>{cell});
      reads.insert(plan->reads.begin(), plan->reads.end());
    }
  }
  return reads.size();
}

/// Reads per stripe that ArrayController::read issues for whole stripes
/// of a freshly written array with `disk` failed.
std::uint64_t measured_reads(c56::CodeId id, int p, int disk) {
  auto code = c56::make_code(id, p);
  c56::mig::DiskArray array(code->cols(), kStripes * code->rows(), kBlock);
  c56::mig::ArrayController ctrl(array, std::move(code));
  const std::int64_t per = ctrl.logical_blocks() / kStripes;
  c56::Buffer buf(static_cast<std::size_t>(per) * kBlock);
  c56::Rng(11).fill(buf.data(), buf.size());
  for (std::int64_t s = 0; s < kStripes; ++s) ctrl.write(s * per, per, buf.span());
  ctrl.fail_disk(disk);
  const std::uint64_t r0 = array.total_reads();
  for (std::int64_t s = 0; s < kStripes; ++s) ctrl.read(s * per, per, buf.span());
  return (array.total_reads() - r0) / kStripes;
}

}  // namespace

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

  std::printf(
      "\nWhole-stripe degraded read (ArrayController::read over one "
      "stripe): reads per stripe, measured vs the plan's union\n\n");
  c56::TextTable t3({"code", "p", "failed disk", "measured", "predicted"});
  const std::map<int, std::uint64_t> code56_pins{{5, 12}, {7, 30}};
  bool ok = true;
  for (c56::CodeId id : c56::all_code_ids()) {
    for (int p : {5, 7}) {
      auto code = c56::make_code(id, p);
      for (int disk = 0; disk < code->cols(); ++disk) {
        const std::uint64_t measured = measured_reads(id, p, disk);
        const std::size_t predicted = predicted_reads(*code, disk);
        t3.add_row({to_string(id), std::to_string(p), std::to_string(disk),
                    std::to_string(measured), std::to_string(predicted)});
        if (measured != predicted) {
          std::fprintf(stderr,
                       "GATE: %s p=%d disk %d: a whole-stripe read issued "
                       "%llu reads per stripe, the plan predicts %zu\n",
                       to_string(id), p, disk,
                       static_cast<unsigned long long>(measured), predicted);
          ok = false;
        }
        if (id == c56::CodeId::kCode56 && disk <= p - 2 &&
            measured != code56_pins.at(p)) {
          std::fprintf(stderr,
                       "GATE: Code 5-6 p=%d data disk %d reads %llu per "
                       "stripe, expected %llu\n",
                       p, disk, static_cast<unsigned long long>(measured),
                       static_cast<unsigned long long>(code56_pins.at(p)));
          ok = false;
        }
      }
    }
  }
  std::ostringstream os3;
  t3.print(os3);
  std::fputs(os3.str().c_str(), stdout);
  std::printf("\n%s\n",
              ok ? "degraded reads match the plan" : "GATE FAILED");
  return ok ? 0 : 1;
}
