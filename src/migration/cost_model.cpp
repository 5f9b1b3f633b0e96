#include "migration/cost_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>

#include "codes/code56.hpp"
#include "util/prime.hpp"

namespace c56::mig {

const char* to_string(Approach a) noexcept {
  switch (a) {
    case Approach::kViaRaid0: return "RAID-5->RAID-0->RAID-6";
    case Approach::kViaRaid4: return "RAID-5->RAID-4->RAID-6";
    case Approach::kDirect: return "RAID-5->RAID-6";
  }
  return "?";
}

namespace {

std::unique_ptr<ErasureCode> instantiate(const ConversionSpec& s) {
  if (s.code == CodeId::kCode56) {
    return std::make_unique<Code56>(s.p, s.p - s.m - 1);
  }
  return make_code(s.code, s.p);
}

int canonical_m(CodeId code, int p) {
  switch (code) {
    case CodeId::kCode56: return p - 1;
    case CodeId::kRdp: return p - 1;     // n = p+1, adds 2
    case CodeId::kEvenOdd: return p;     // n = p+2, adds 2
    case CodeId::kHCode: return p - 1;   // n = p+1, adds 2
    case CodeId::kXCode: return p;       // in place
    case CodeId::kPCode: return p - 1;   // in place
    case CodeId::kHdp: return p - 1;     // in place
  }
  throw std::invalid_argument("unknown CodeId");
}

}  // namespace

int ConversionSpec::n() const {
  if (code == CodeId::kCode56) return m + 1;
  return disks_of(code, p);
}

int ConversionSpec::virtual_disks() const {
  return code == CodeId::kCode56 ? p - m - 1 : 0;
}

std::string ConversionSpec::label() const {
  std::string s = to_string(approach);
  s += "(";
  s += to_string(code);
  s += ',';
  s += std::to_string(m);
  s += ',';
  s += std::to_string(n());
  s += ')';
  if (load_balanced) s += "[LB]";
  return s;
}

ConversionSpec ConversionSpec::canonical(CodeId code, Approach a, int p,
                                         bool lb) {
  ConversionSpec s;
  s.code = code;
  s.approach = a;
  s.p = p;
  s.m = canonical_m(code, p);
  s.load_balanced = lb;
  if (!s.valid()) throw std::invalid_argument("invalid conversion spec");
  return s;
}

ConversionSpec ConversionSpec::direct_code56(int m, bool lb) {
  ConversionSpec s;
  s.code = CodeId::kCode56;
  s.approach = Approach::kDirect;
  s.m = m;
  s.p = next_prime_above(m);
  s.load_balanced = lb;
  return s;
}

bool ConversionSpec::valid() const {
  if (!is_prime(p) || m < 2) return false;
  switch (approach) {
    case Approach::kViaRaid0:
    case Approach::kViaRaid4:
      return is_horizontal_code(code) && m == canonical_m(code, p);
    case Approach::kDirect:
      if (code == CodeId::kCode56) {
        return p == next_prime_above(m);
      }
      return !is_horizontal_code(code) && m == canonical_m(code, p);
  }
  return false;
}

double PhaseCost::reads() const {
  double s = 0;
  for (double r : disk_reads) s += r;
  return s;
}

double PhaseCost::writes() const {
  double s = 0;
  for (double w : disk_writes) s += w;
  return s;
}

double PhaseCost::time_nlb() const {
  double t = 0;
  for (std::size_t d = 0; d < disk_reads.size(); ++d) {
    t = std::max(t, disk_reads[d] + disk_writes[d]);
  }
  return t;
}

double PhaseCost::time_lb(int disks) const { return total_io() / disks; }

namespace {

/// Internal geometry shared by the cost computations.
struct Layout {
  std::unique_ptr<ErasureCode> code;
  std::vector<int> original_cols;  // target columns backed by source disks
  std::vector<char> is_original;   // indexed by target column
  std::set<std::pair<int, int>> reserved;  // pre-reserved parity cells
  bool reuse = false;              // old RAID-5 parity survives in place
  double available = 0;            // source-usable cells per stripe
  double old_parities = 0;         // O_s
  double data_blocks = 0;          // B_s
  std::vector<int> usable_per_row; // source-usable cells in each row

  /// Cell occupied by the source RAID-5 (data or old parity).
  bool usable(Cell c) const {
    return is_original[static_cast<std::size_t>(c.col)] &&
           code->kind(c) != CellKind::kVirtual &&
           !reserved.count({c.row, c.col});
  }
};

Layout build_layout(const ConversionSpec& s) {
  Layout l;
  l.code = instantiate(s);
  const ErasureCode& code = *l.code;
  l.is_original.assign(static_cast<std::size_t>(code.cols()), 0);
  const int v = s.virtual_disks();
  if (s.code == CodeId::kCode56) {
    for (int k = 0; k < s.m; ++k) l.original_cols.push_back(v + k);
  } else {
    for (int k = 0; k < s.m; ++k) l.original_cols.push_back(k);
  }
  for (int c : l.original_cols) l.is_original[static_cast<std::size_t>(c)] = 1;

  l.reuse = reuses_raid5_parity(s.code);
  int reserved_count = 0;
  int row_parities = 0;
  for (int r = 0; r < code.rows(); ++r) {
    for (int c : l.original_cols) {
      const CellKind k = code.kind({r, c});
      if (k == CellKind::kVirtual) continue;
      if (k == CellKind::kRowParity && l.reuse) {
        ++row_parities;  // an old parity block, kept in place
        continue;
      }
      if (is_parity(k)) {
        l.reserved.insert({r, c});
        ++reserved_count;
      }
    }
  }
  // Cells on original disks the source RAID-5 actually occupies. The
  // source lays one parity per row that has any usable cell, so rows
  // with reserved cells carry a higher parity fraction.
  l.usable_per_row.assign(static_cast<std::size_t>(code.rows()), 0);
  int source_cells = 0;
  int source_rows = 0;
  for (int r = 0; r < code.rows(); ++r) {
    int& usable = l.usable_per_row[static_cast<std::size_t>(r)];
    for (int c : l.original_cols) {
      if (l.usable({r, c})) ++usable;
    }
    source_cells += usable;
    source_rows += usable > 0;
  }
  (void)reserved_count;  // folded into the per-row usable counts
  l.available = source_cells;
  if (l.reuse) {
    l.old_parities = row_parities;
    l.data_blocks = code.data_cell_count();
    assert(std::abs(l.available - row_parities - l.data_blocks) < 1e-9);
  } else {
    l.old_parities = source_rows;
    l.data_blocks = l.available - source_rows;
  }
  return l;
}

/// Weight of a data-cell read: probability the slot holds real data
/// rather than the hole left by the row's (invalidated or migrated)
/// old parity.
double data_weight(const Layout& l, const ConversionSpec& s, Cell cell) {
  (void)s;
  if (!l.usable(cell)) return 0.0;  // added disk, reserved or virtual
  if (l.reuse) return 1.0;
  const int usable = l.usable_per_row[static_cast<std::size_t>(cell.row)];
  return usable > 1 ? static_cast<double>(usable - 1) / usable : 0.0;
}

/// Generate the given parity chains in one phase. `prior_parities` are
/// parity cells that already exist on disk (read weight 1); parities in
/// `generated` are produced in memory during this phase (no read).
PhaseCost generation_phase(const Layout& l, const ConversionSpec& s,
                           std::string name,
                           const std::set<std::pair<int, int>>& generated,
                           const std::set<std::pair<int, int>>& prior) {
  const ErasureCode& code = *l.code;
  PhaseCost ph;
  ph.name = std::move(name);
  ph.disk_reads.assign(static_cast<std::size_t>(code.cols()), 0.0);
  ph.disk_writes.assign(static_cast<std::size_t>(code.cols()), 0.0);

  std::set<std::pair<int, int>> read_once;
  for (const ParityChain& ch : code.chains()) {
    if (!generated.count({ch.parity.row, ch.parity.col})) continue;
    double operands = 0.0;
    for (Cell in : ch.inputs) {
      const std::pair<int, int> key{in.row, in.col};
      if (generated.count(key)) {
        operands += 1.0;  // in memory, produced this phase
        continue;
      }
      double w;
      if (prior.count(key)) {
        w = 1.0;
      } else if (is_parity(code.kind(in))) {
        // Parity input that is neither generated nor migrated: only
        // possible for reuse layouts (e.g. HDP rows feeding nothing
        // here); read it from disk.
        w = 1.0;
      } else {
        w = data_weight(l, s, in);
      }
      operands += w;
      if (w > 0.0 && read_once.insert(key).second) {
        ph.disk_reads[static_cast<std::size_t>(in.col)] += w;
      }
    }
    ph.xors += std::max(0.0, operands - 1.0);
    ph.disk_writes[static_cast<std::size_t>(ch.parity.col)] += 1.0;
  }
  return ph;
}

/// Spread one old-parity access per source row uniformly over the
/// row's usable columns (the rotation limit of the RAID-5 layout).
void add_old_parity_io(const Layout& l, std::vector<double>& per_disk) {
  for (int r = 0; r < l.code->rows(); ++r) {
    const int usable = l.usable_per_row[static_cast<std::size_t>(r)];
    if (usable == 0) continue;
    for (int c : l.original_cols) {
      if (l.usable({r, c})) {
        per_disk[static_cast<std::size_t>(c)] += 1.0 / usable;
      }
    }
  }
}

void normalize(PhaseCost& ph, double b) {
  for (double& r : ph.disk_reads) r /= b;
  for (double& w : ph.disk_writes) w /= b;
  ph.xors /= b;
}

}  // namespace

double data_blocks_per_stripe(const ConversionSpec& spec) {
  if (!spec.valid()) throw std::invalid_argument("invalid conversion spec");
  return build_layout(spec).data_blocks;
}

SingleWriteCost single_write_cost(const ErasureCode& code,
                                  std::size_t block_bytes, std::size_t len,
                                  bool delta, const sim::DiskParams& disk) {
  if (block_bytes == 0 || len == 0 || len > block_bytes) {
    throw std::invalid_argument("single_write_cost: bad range length");
  }
  double total_accesses = 0.0;
  std::int64_t data_cells = 0;
  for (int r = 0; r < code.rows(); ++r) {
    for (int c = 0; c < code.cols(); ++c) {
      if (code.kind({r, c}) != CellKind::kData) continue;
      ++data_cells;
      // Read old data + read each dependent parity, then write them all.
      total_accesses += 2.0 * (1.0 + code.update_complexity({r, c}));
    }
  }
  SingleWriteCost out;
  out.ops = total_accesses / static_cast<double>(data_cells);
  const auto moved = static_cast<double>(delta ? len : block_bytes);
  out.bytes = out.ops * moved;
  out.device_ms = out.ops * (disk.avg_seek_ms + disk.avg_rotational_ms()) +
                  out.bytes / (disk.transfer_mb_s * 1e3);
  return out;
}

ConversionCosts analyze(const ConversionSpec& s) {
  if (!s.valid()) {
    throw std::invalid_argument("invalid conversion spec: " + s.label());
  }
  const Layout l = build_layout(s);
  const ErasureCode& code = *l.code;
  const int cols = code.cols();
  const double b = l.data_blocks;

  ConversionCosts out;
  out.spec = s;

  // Extra space ratio: worst per-disk fraction of pre-reserved cells.
  for (int c : l.original_cols) {
    int reserved_in_col = 0;
    int usable_rows = 0;
    for (int r = 0; r < code.rows(); ++r) {
      if (code.kind({r, c}) == CellKind::kVirtual) continue;
      ++usable_rows;
      reserved_in_col += l.reserved.count({r, c}) != 0;
    }
    if (usable_rows > 0) {
      out.extra_space_ratio =
          std::max(out.extra_space_ratio,
                   static_cast<double>(reserved_in_col) / usable_rows);
    }
  }

  // Partition the parity cells.
  std::set<std::pair<int, int>> row_parities, other_parities, all_parities;
  for (int r = 0; r < code.rows(); ++r) {
    for (int c = 0; c < cols; ++c) {
      const CellKind k = code.kind({r, c});
      if (!is_parity(k)) continue;
      all_parities.insert({r, c});
      (k == CellKind::kRowParity ? row_parities : other_parities)
          .insert({r, c});
    }
  }

  switch (s.approach) {
    case Approach::kViaRaid0: {
      out.invalid_parity_ratio = l.old_parities / b;
      // Phase 1: NULL the old parities (one write per old parity,
      // rotating uniformly over the original disks).
      PhaseCost ph1;
      ph1.name = "degrade: invalidate old parity";
      ph1.disk_reads.assign(static_cast<std::size_t>(cols), 0.0);
      ph1.disk_writes.assign(static_cast<std::size_t>(cols), 0.0);
      add_old_parity_io(l, ph1.disk_writes);
      // Phase 2: generate every target parity from scratch.
      PhaseCost ph2 =
          generation_phase(l, s, "upgrade: generate all parities",
                           all_parities, {});
      out.new_parity_generation_ratio = all_parities.size() / b;
      normalize(ph1, b);
      normalize(ph2, b);
      out.phases = {std::move(ph1), std::move(ph2)};
      break;
    }
    case Approach::kViaRaid4: {
      out.parity_migration_ratio = l.old_parities / b;
      // The dedicated row-parity column receives the migrated parities.
      assert(row_parities.size() == static_cast<std::size_t>(code.rows()));
      const int parity_col = row_parities.begin()->second;
      PhaseCost ph1;
      ph1.name = "degrade: migrate old parity";
      ph1.disk_reads.assign(static_cast<std::size_t>(cols), 0.0);
      ph1.disk_writes.assign(static_cast<std::size_t>(cols), 0.0);
      add_old_parity_io(l, ph1.disk_reads);
      ph1.disk_writes[static_cast<std::size_t>(parity_col)] +=
          l.old_parities;
      PhaseCost ph2 =
          generation_phase(l, s, "upgrade: generate diagonal parities",
                           other_parities, row_parities);
      out.new_parity_generation_ratio = other_parities.size() / b;
      normalize(ph1, b);
      normalize(ph2, b);
      out.phases = {std::move(ph1), std::move(ph2)};
      break;
    }
    case Approach::kDirect: {
      if (s.code == CodeId::kCode56) {
        // Generate the dedicated diagonal column; nothing else moves.
        PhaseCost ph = generation_phase(
            l, s, "direct: generate diagonal parities", other_parities, {});
        out.new_parity_generation_ratio = other_parities.size() / b;
        normalize(ph, b);
        out.phases = {std::move(ph)};
      } else if (s.code == CodeId::kHdp) {
        // Generate anti-diagonal parities, then fold each into its
        // row's retained old parity (read-modify-write).
        PhaseCost ph = generation_phase(
            l, s, "direct: generate anti-diagonal parities + fold rows",
            other_parities, {});
        for (const auto& [r, c] : row_parities) {
          ph.disk_reads[static_cast<std::size_t>(c)] += 1.0;
          ph.disk_writes[static_cast<std::size_t>(c)] += 1.0;
          ph.xors += 1.0;
        }
        out.parity_migration_ratio = row_parities.size() / b;
        out.new_parity_generation_ratio = other_parities.size() / b;
        normalize(ph, b);
        out.phases = {std::move(ph)};
      } else {
        // X-Code / P-Code: old parities are NULLed, all parities are
        // generated into the reserved space, in one pass.
        out.invalid_parity_ratio = l.old_parities / b;
        PhaseCost ph = generation_phase(
            l, s, "direct: generate parities + invalidate old",
            all_parities, {});
        add_old_parity_io(l, ph.disk_writes);
        out.new_parity_generation_ratio = all_parities.size() / b;
        normalize(ph, b);
        out.phases = {std::move(ph)};
      }
      break;
    }
  }

  for (const PhaseCost& ph : out.phases) {
    out.read_io += ph.reads();
    out.write_io += ph.writes();
    out.xor_per_block += ph.xors;
    out.time += s.load_balanced ? ph.time_lb(s.n() + 0) : ph.time_nlb();
  }
  out.total_io = out.read_io + out.write_io;
  return out;
}

}  // namespace c56::mig
