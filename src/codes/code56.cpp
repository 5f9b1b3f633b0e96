#include "codes/code56.hpp"

#include <cassert>
#include <stdexcept>

#include "util/prime.hpp"

namespace c56 {

Code56::Code56(int p, int virtual_disks, Code56Orientation o)
    : p_(p), v_(virtual_disks), orient_(o) {
  if (!is_prime(p)) throw std::invalid_argument("Code56: p must be prime");
  if (v_ < 0 || v_ > p - 3) {
    throw std::invalid_argument("Code56: virtual disk count out of range");
  }
  if (v_ > 0 && orient_ != Code56Orientation::kLeft) {
    throw std::invalid_argument(
        "Code56: virtual disks defined for the left orientation only");
  }
}

Code56 Code56::for_raid5(int m) {
  if (m < 2) throw std::invalid_argument("Code56: RAID-5 needs >= 2 disks");
  const int p = next_prime_above(m);
  return Code56(p, p - m - 1);
}

std::string Code56::name() const {
  std::string n = "Code5-6(p=" + std::to_string(p_);
  if (v_ > 0) n += ",v=" + std::to_string(v_);
  if (orient_ == Code56Orientation::kRight) n += ",right";
  return n + ")";
}

bool Code56::virtual_col_sq(int j) const {
  // Virtual disks are prepended as the leading columns (Fig. 8).
  return j < v_;
}

CellKind Code56::kind(Cell c) const {
  assert(c.row >= 0 && c.row < rows() && c.col >= 0 && c.col < cols());
  if (c.col == p_ - 1) return CellKind::kDiagParity;
  if (virtual_col_sq(c.col) || virtual_row(c.row)) return CellKind::kVirtual;
  // Horizontal parity sits on the anti-diagonal of the leading square
  // (mirrored to the main diagonal in the right orientation).
  if (c.col == mcol(p_ - 2 - c.row)) return CellKind::kRowParity;
  return CellKind::kData;
}

std::vector<ParityChain> Code56::build_chains() const {
  std::vector<ParityChain> out;
  // Horizontal chains (Eq. 1) for non-virtual rows.
  for (int i = 0; i + v_ <= p_ - 2; ++i) {
    ParityChain ch;
    ch.parity = {i, mcol(p_ - 2 - i)};
    for (int j = 0; j <= p_ - 2; ++j) {
      const int col = mcol(j);
      if (col == ch.parity.col || virtual_col_sq(col)) continue;
      ch.inputs.push_back({i, col});
    }
    out.push_back(std::move(ch));
  }
  // Diagonal chains (Eq. 2): parity row i protects r + j == i-1 (mod p)
  // in square coordinates (before mirroring).
  for (int i = 0; i <= p_ - 2; ++i) {
    ParityChain ch;
    ch.parity = {i, p_ - 1};
    for (int j = 0; j <= p_ - 2; ++j) {
      if (j == i) continue;  // would hit the nonexistent row p-1
      const int r = pmod(i - 1 - j, p_);
      assert(r <= p_ - 2);
      const Cell in{r, mcol(j)};
      if (kind(in) == CellKind::kVirtual) continue;
      assert(kind(in) == CellKind::kData);
      ch.inputs.push_back(in);
    }
    out.push_back(std::move(ch));
  }
  return out;
}

int Code56::physical_cells_per_stripe() const {
  return cell_count() - virtual_cell_count();
}

double Code56::storage_efficiency() const {
  return static_cast<double>(data_cell_count()) / physical_cells_per_stripe();
}

double Code56::ideal_raid6_efficiency() const {
  const int n = (p_ - 1 - v_) + 1;  // m physical RAID-5 disks + 1 added
  return static_cast<double>(n - 2) / n;
}

bool Code56::matches_raid5_flavor(Raid5Flavor f) const {
  const int m = p_ - 1 - v_;
  for (int row = 0; row < rows() - v_; ++row) {
    // RAID-5 disk k corresponds to square column v_ + k.
    const int parity_col = v_ + raid5_parity_disk(f, row, m);
    if (kind({row, parity_col}) != CellKind::kRowParity) return false;
  }
  return true;
}

}  // namespace c56
