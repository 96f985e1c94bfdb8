#pragma once
// Explicit sparse approximate-inverse preconditioner.
//
// The MCMC matrix-inversion engine produces an explicit sparse matrix
// P ~ A^-1; applying it is a single SpMV, the property that makes
// MCMC preconditioning embarrassingly parallel (§2).

#include <string>
#include <utility>

#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace mcmi {

/// Wraps an explicit sparse P ~ A^-1; apply() is one SpMV.
class SparseApproximateInverse final : public Preconditioner {
 public:
  SparseApproximateInverse(CsrMatrix p, std::string name)
      : p_(std::move(p)), name_(std::move(name)) {}

  using Preconditioner::apply;
  void apply(const std::vector<real_t>& x,
             std::vector<real_t>& y) const override {
    p_.multiply(x, y);
  }

  // The apply is one SpMV, so the Krylov reductions ride P's execution plan
  // instead of costing separate vector sweeps.
  [[nodiscard]] real_t apply_dot(const std::vector<real_t>& x,
                                 std::vector<real_t>& y,
                                 const std::vector<real_t>& w) const override {
    return p_.multiply_dot(x, y, w);
  }

  void apply_dot_norm2(const std::vector<real_t>& x, std::vector<real_t>& y,
                       const std::vector<real_t>& w, real_t& dot_wy,
                       real_t& norm_sq_y) const override {
    p_.multiply_dot_norm2(x, y, w, dot_wy, norm_sq_y);
  }

  void apply_xpby_dot(const std::vector<real_t>& x, std::vector<real_t>& z,
                      const std::vector<real_t>& w, real_t rho_prev,
                      std::vector<real_t>& q, real_t& dot_wz,
                      real_t& norm_sq_z) const override {
    p_.multiply_dot_norm2_xpby(x, z, w, rho_prev, q, dot_wz, norm_sq_z);
  }

  [[nodiscard]] std::string name() const override { return name_; }

  /// The explicit approximate inverse (inspection / spectra in tests).
  [[nodiscard]] const CsrMatrix& matrix() const { return p_; }

 private:
  CsrMatrix p_;
  std::string name_;
};

}  // namespace mcmi
