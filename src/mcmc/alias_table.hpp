#pragma once
// Walker alias tables for O(1) transition sampling.
//
// The MCMC walk draws successors under p_uv = |B_uv| / S_u.  Inverse-CDF
// sampling costs a binary search per step; the alias method (Walker 1977,
// Vose 1991) preprocesses each row into flat prob[]/alias[] arrays so a
// transition is one RNG draw, one table lookup and one compare — constant
// time regardless of the row's nonzero count.  Construction is O(nnz) and
// rides on the same row_ptr layout as the walk kernel, so the table is built
// once per (matrix, alpha) and shared by every chain.

#include <vector>

#include "core/types.hpp"

namespace mcmi {

/// Per-row alias tables over a CSR-like (row_ptr, weights) layout.  Slot p of
/// row u covers the transition stored at position p; sampling returns a slot
/// index into the same flat arrays the caller indexes `succ`/`value` with.
class AliasTable {
 public:
  AliasTable() = default;

  /// Build tables for every row of the (row_ptr, weights) layout.  Weights
  /// must be nonnegative; rows may be empty (never sampled) and a row whose
  /// weights all vanish degenerates to uniform over its slots.
  static AliasTable build(const std::vector<index_t>& row_ptr,
                          const std::vector<real_t>& weights);

  /// Sample a slot in [begin, end) from a single 64-bit draw: the high bits
  /// pick the slot, the residual fraction decides between it and its alias.
  [[nodiscard]] index_t sample(index_t begin, index_t end, u64 bits) const {
    const index_t width = end - begin;
    const real_t u = static_cast<real_t>(bits >> 11) * 0x1.0p-53 *
                     static_cast<real_t>(width);
    index_t k = static_cast<index_t>(u);
    if (k >= width) k = width - 1;  // FP rounding guard at the top edge
    const index_t slot = begin + k;
    const real_t frac = u - static_cast<real_t>(k);
    return frac < prob_[slot] ? slot : alias_[slot];
  }

  [[nodiscard]] const std::vector<real_t>& prob() const { return prob_; }
  [[nodiscard]] const std::vector<index_t>& alias() const { return alias_; }
  [[nodiscard]] bool empty() const { return prob_.empty(); }

 private:
  std::vector<real_t> prob_;    ///< acceptance threshold per slot, in [0, 1]
  std::vector<index_t> alias_;  ///< fallback slot when the threshold fails
};

}  // namespace mcmi
