#pragma once
// Code 5-6 (Wu, He, Li, Guo — ICPP 2015), the paper's contribution.
//
// A stripe is a (p-1)-row x p-column matrix, p prime. Column p-1 holds
// diagonal parities; inside the leading (p-1)x(p-1) square, cell
// (i, p-2-i) holds the horizontal parity of row i — exactly where a
// left-asymmetric RAID-5 of p-1 disks already stores its parity, which
// is what makes RAID-5 -> RAID-6 conversion a pure append of one disk.
//
//   Horizontal parity (Eq. 1):  rows of the leading square XOR to zero.
//   Diagonal parity  (Eq. 2):   C[i][p-1] = XOR of C[<i-1-j> mod p][j]
//                               for j in [0, p-2], j != i.
//
// Diagonal-parity row i therefore protects the diagonal
// r + j == i - 1 (mod p); the anti-diagonal r + j == p - 2 — the cells
// holding the horizontal parities — is the single unprotected diagonal.
// (The paper prints the shift constant as "4-p" == -1 mod 5; see
// DESIGN.md section 1 for the reconstruction.)
//
// Extras implemented here:
//  * virtual disks (Section IV-B2) so any RAID-5 size m >= 2 converts:
//    v = p - m - 1 leading columns and the bottom v rows are virtual
//    (logically zero, not stored);
//  * the mirrored layout of Fig. 7 for right-symmetric/asymmetric
//    RAID-5 sources;
//  * Algorithm 1 as a chain-peeling decoder (Section III-E(4)'s hybrid
//    single-disk recovery is the code-generic plan_repair).

#include "codes/erasure_code.hpp"
#include "layout/raid.hpp"

namespace c56 {

enum class Code56Orientation {
  kLeft,   // matches left-symmetric/asymmetric RAID-5 (paper default)
  kRight,  // Fig. 7 mirror for right-symmetric/asymmetric RAID-5
};

class Code56 final : public ErasureCode {
 public:
  /// p must be prime; virtual_disks = v in [0, p-3]; the mirrored
  /// orientation is only defined for v = 0 (the paper introduces
  /// virtual disks for the default layout only).
  explicit Code56(int p, int virtual_disks = 0,
                  Code56Orientation o = Code56Orientation::kLeft);

  /// Code 5-6 instance for converting an m-disk RAID-5 (m >= 2):
  /// p = smallest prime > m, v = p - m - 1.
  static Code56 for_raid5(int m);

  std::string name() const override;
  int p() const override { return p_; }
  int rows() const override { return p_ - 1; }
  int cols() const override { return p_; }
  CellKind kind(Cell c) const override;

  int virtual_disks() const { return v_; }
  Code56Orientation orientation() const { return orient_; }

  /// Physical (stored) blocks per stripe: m(m+1) + v, Eq. 6 denominator.
  int physical_cells_per_stripe() const;
  /// Data blocks / physical blocks per stripe (Eq. 6).
  double storage_efficiency() const;
  /// Efficiency of an ideal MDS RAID-6 over the same disk count, used as
  /// the comparison curve in Fig. 18: (n-2)/n with n = m + 1 disks.
  double ideal_raid6_efficiency() const;

  /// The column the RAID-5 parity of stripe row `row` must sit on for
  /// the given flavor to be reusable as this code's horizontal parity.
  /// Returns true iff the flavor matches this orientation.
  bool matches_raid5_flavor(Raid5Flavor f) const;

 protected:
  std::vector<ParityChain> build_chains() const override;

 private:
  /// Mirror a square-column index for the right orientation.
  int mcol(int j) const {
    return orient_ == Code56Orientation::kLeft ? j : p_ - 2 - j;
  }
  bool virtual_row(int r) const { return r >= p_ - 1 - v_; }
  bool virtual_col_sq(int j) const;  // square-column j is virtual

  int p_;
  int v_;
  Code56Orientation orient_;
};

}  // namespace c56
