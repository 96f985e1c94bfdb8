#pragma once
// Compressed sparse row matrix — the workhorse format.
//
// All solver-facing operations (SpMV, transpose, diagonal manipulation,
// norms) live here.  SpMV runs through a per-matrix SpmvPlan — nnz-balanced
// row chunks with fused product+reduction kernels, built lazily on first
// product and cached for the life of the matrix (the shape is immutable) —
// and everything else is deterministic single-pass code.  Column indices
// within each row are kept sorted, which the MCMC sampler and ILU(0) rely
// on for binary search.

#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sparse/coo.hpp"
#include "sparse/spmv_plan.hpp"

namespace mcmi {

/// Immutable-shape CSR sparse matrix (values may be modified in place).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Copies go through std::atomic_load/store on the lazy caches: copying
  /// a matrix is legal while another thread concurrently publishes a cache
  /// into it (the serving layer copies a shared pinned matrix into ILU(0)
  /// while sibling workers multiply with it).  The arrays themselves are
  /// plain copies — mutating values_ concurrently with a copy remains the
  /// caller's race, as ever.
  CsrMatrix(const CsrMatrix& other);
  CsrMatrix& operator=(const CsrMatrix& other);
  /// Moves stay defaulted (non-atomic): moving *from* a matrix another
  /// thread still uses would race on the arrays anyway, so the caches add
  /// no new hazard.
  CsrMatrix(CsrMatrix&&) = default;
  CsrMatrix& operator=(CsrMatrix&&) = default;
  ~CsrMatrix() = default;

  /// Build from a triplet matrix; compresses it first.
  static CsrMatrix from_coo(CooMatrix coo);

  /// Build directly from CSR arrays (validated).
  CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<real_t> values);

  /// n x n identity.
  static CsrMatrix identity(index_t n);

  /// Square diagonal matrix from a vector.
  static CsrMatrix diagonal(const std::vector<real_t>& d);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] index_t nnz() const {
    return static_cast<index_t>(values_.size());
  }
  /// Fill ratio phi(A) = nnz / (rows*cols), as reported in Table 1.
  [[nodiscard]] real_t fill() const;

  [[nodiscard]] const std::vector<index_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<index_t>& col_idx() const {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<real_t>& values() const { return values_; }
  [[nodiscard]] std::vector<real_t>& values() { return values_; }

  /// Number of stored entries in row i.
  [[nodiscard]] index_t row_nnz(index_t i) const {
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  /// Value at (i, j); zero if the position is not stored.  O(log row_nnz).
  [[nodiscard]] real_t at(index_t i, index_t j) const;

  /// y = A * x, through the cached execution plan.
  void multiply(const std::vector<real_t>& x, std::vector<real_t>& y) const;
  [[nodiscard]] std::vector<real_t> multiply(
      const std::vector<real_t>& x) const;

  /// y = A * x returning <x, y> from the same pass (the CG q·Aq shape;
  /// square matrices only).
  [[nodiscard]] real_t multiply_dot(const std::vector<real_t>& x,
                                    std::vector<real_t>& y) const;

  /// y = A * x returning <w, y> from the same pass (the BiCGStab
  /// r_hat·(PA p) shape).
  [[nodiscard]] real_t multiply_dot(const std::vector<real_t>& x,
                                    std::vector<real_t>& y,
                                    const std::vector<real_t>& w) const;

  /// y = A * x with <w, y> and <y, y> from the same pass (a preconditioner
  /// apply fused with the <r, z> / ||z||^2 pair of the convergence check).
  void multiply_dot_norm2(const std::vector<real_t>& x,
                          std::vector<real_t>& y,
                          const std::vector<real_t>& w, real_t& dot_wy,
                          real_t& norm_sq_y) const;

  /// Fused preconditioned-CG tail: z = A * x with <w, z> / ||z||^2, then
  /// q = z + (<w, z> / rho_prev) * q in one parallel region; bit-identical
  /// to multiply_dot_norm2 followed by vector_ops xpby.
  void multiply_dot_norm2_xpby(const std::vector<real_t>& x,
                               std::vector<real_t>& z,
                               const std::vector<real_t>& w, real_t rho_prev,
                               std::vector<real_t>& q, real_t& dot_wz,
                               real_t& norm_sq_z) const;

  /// Fused CG descent step: aq = A * q returning qaq = <q, aq>, and — only
  /// when qaq is finite and positive — x += (rho/qaq) * q,
  /// r -= (rho/qaq) * aq in the same parallel region.  On an invalid qaq
  /// x and r are untouched, so callers keep their existing breakdown /
  /// divergence handling.  Bit-identical to multiply_dot + axpy2.
  [[nodiscard]] real_t multiply_dot_axpy2(const std::vector<real_t>& q,
                                          real_t rho, std::vector<real_t>& aq,
                                          std::vector<real_t>& x,
                                          std::vector<real_t>& r) const;

  /// The cached execution plan (shape-derived, built on first use and then
  /// shared by every product for the life of the matrix).
  [[nodiscard]] const SpmvPlan& spmv_plan() const;

  /// y = A^T * x via a lazily cached column-major gather plan
  /// (OpenMP-parallel over columns, bit-deterministic at any thread count).
  void multiply_transpose(const std::vector<real_t>& x,
                          std::vector<real_t>& y) const;

  /// Explicit transpose.
  [[nodiscard]] CsrMatrix transpose() const;

  /// C = A * B (sparse-sparse product); used to form P*A when analysing
  /// preconditioned spectra in tests.
  [[nodiscard]] CsrMatrix multiply(const CsrMatrix& other) const;

  /// C = alpha*A + beta*B, with identical dimensions.
  [[nodiscard]] static CsrMatrix add(real_t alpha, const CsrMatrix& a,
                                     real_t beta, const CsrMatrix& b);

  /// Main diagonal as a dense vector (zeros for missing entries).
  [[nodiscard]] std::vector<real_t> diag() const;

  /// A + alpha*diag(d) for a dense vector d (structure is extended when the
  /// diagonal entry is missing).
  [[nodiscard]] CsrMatrix add_diagonal(real_t alpha,
                                       const std::vector<real_t>& d) const;

  /// Scale row i by s[i] (i.e. diag(s) * A).
  void scale_rows(const std::vector<real_t>& s);

  /// Matrix norms.
  [[nodiscard]] real_t norm_inf() const;  ///< max row sum of |a_ij|
  [[nodiscard]] real_t norm_one() const;  ///< max column sum of |a_ij|
  [[nodiscard]] real_t norm_frobenius() const;

  /// Relative symmetricity score in [0, 1]: 1 - ||A - A^T||_F / (2||A||_F).
  /// Returns 1 for exactly symmetric matrices, ~0 for skew ones.
  [[nodiscard]] real_t symmetry_score() const;
  /// True when the sparsity pattern and values are symmetric to `tol`.
  [[nodiscard]] bool is_symmetric(real_t tol = 1e-12) const;

  /// Dense row-major copy (small matrices / tests only).
  [[nodiscard]] std::vector<real_t> to_dense() const;

  /// Drop stored entries with |a_ij| <= threshold (diagonal never dropped).
  [[nodiscard]] CsrMatrix dropped(real_t threshold) const;

  /// Full-content 64-bit fingerprint over shape, structure, and value bits
  /// (core/hash.hpp): two matrices share a fingerprint exactly when every
  /// dimension, row pointer, column index, and value bit pattern agrees.
  /// O(nnz); the content-addressed ArtifactStore keys on it.  Unlike the
  /// sampled fingerprint of WalkKernelCache this hashes *every* entry, so a
  /// single flipped value bit changes the key.
  [[nodiscard]] u64 content_fingerprint() const;

  /// True when `other` stores exactly the same content (dimensions,
  /// structure, and value *bit patterns* — NaNs and signed zeros compare by
  /// bits, not by IEEE equality).  The collision check behind
  /// content_fingerprint()-keyed caches.
  [[nodiscard]] bool same_content(const CsrMatrix& other) const;

  /// Human-readable summary, e.g. "csr 225x225 nnz=1065 fill=0.021".
  [[nodiscard]] std::string summary() const;

 private:
  void validate() const;

  /// Column-major gather view of the matrix for A^T products: entries of
  /// column j live at col_ptr[j]..col_ptr[j+1], each naming its source row
  /// and its position in values_ (so in-place value edits stay visible).
  struct TransposeGather {
    std::vector<index_t> col_ptr;
    std::vector<index_t> src_row;
    std::vector<index_t> src_pos;
    SpmvPlan plan;  ///< nnz-balanced chunking over columns
  };
  [[nodiscard]] std::shared_ptr<const TransposeGather> transpose_gather()
      const;

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_{0};
  std::vector<index_t> col_idx_;
  std::vector<real_t> values_;
  /// Both caches are built lazily on first use — many matrices (assembly
  /// intermediates, rejected preconditioner candidates) are never
  /// multiplied — and shared across copies, which is sound because the
  /// shape is immutable.  First-use races resolve via compare-exchange, so
  /// once published a cache is never replaced.
  mutable std::shared_ptr<const SpmvPlan> plan_;
  mutable std::shared_ptr<const TransposeGather> tgather_;
};

}  // namespace mcmi
