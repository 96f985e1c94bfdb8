#pragma once
// MCMC matrix inversion (MCMCMI) — the Ulam–von Neumann scheme of
// Lebedev & Alexandrov [16] and Sahin et al. [27], the preconditioner the
// AI-tuning framework of the paper optimises.
//
// Pipeline for A with nonzero diagonal and parameters (alpha, eps, delta):
//
//   1. Perturb:      A_a = A + alpha * diag(|a_11|, ..., |a_nn|)
//   2. Jacobi split: B   = I - D^-1 A_a  with D = diag(A_a)
//                    so   A_a^-1 = (sum_k B^k) D^-1  when rho(B) < 1
//   3. Sample:       row i of M = sum_k B^k is estimated by N independent
//                    random walks under the Monte-Carlo-almost-optimal
//                    kernel p_uv = |B_uv| / sum_w |B_uw|; the walk weight
//                    picks up sign(B_uv) * sum_w |B_uw| per step, the walk
//                    truncates when |W| < delta or the delta-implied cutoff
//                    is reached, and eps fixes N = ceil((0.6745/eps)^2).
//   4. Assemble:     P_ij = M_ij / d_j, thresholded (default 1e-9) and
//                    capped at filling_factor * phi(A) nonzeros (default 2x).
//
// Chains are embarrassingly parallel: OpenMP over rows, and every
// (row, chain) pair draws from an RNG stream keyed by its global index, so
// the result is identical at any thread count — this stands in for the
// paper's hybrid MPI+OpenMP decomposition (see ChainPartition).

#include <memory>

#include "core/cancellation.hpp"
#include "core/status.hpp"
#include "core/types.hpp"
#include "mcmc/params.hpp"
#include "mcmc/walk_kernel.hpp"
#include "precond/sparse_precond.hpp"
#include "sparse/csr.hpp"

namespace mcmi {

/// Knobs that the paper fixes matrix-independently (§4.1).
struct McmcOptions {
  real_t filling_factor = 2.0;    ///< retained nnz(P) <= factor * nnz(A)
  real_t truncation_threshold = 1e-9;  ///< drop |P_ij| below this
  index_t walk_cap = 256;         ///< hard safety cap on walk length
  index_t ranks = 2;              ///< rank-like chain partition (paper: 2 MPI)
  u64 seed = 20250922;            ///< base RNG seed (arXiv date of the paper)
  SamplingMethod sampling = SamplingMethod::kAlias;  ///< successor sampler
  /// Cooperative cancellation / deadline, polled once per row; not owned.
  /// A build that stops early discards all partial artifacts and reports
  /// the reason in McmcBuildInfo::status.
  const CancelToken* cancel = nullptr;
  /// Opt out of the compile-time SIMD lane tier of the lockstep engine
  /// (mcmc/batched_build.cpp): when set, interleaved ensembles always run
  /// the dynamic-lane-count path.  The two tiers are bit-identical; this
  /// knob exists for A/B benchmarking and conformance testing only.
  bool force_dynamic_lanes = false;
};

/// Diagnostics from a preconditioner build.
struct McmcBuildInfo {
  BuildStatus status = BuildStatus::kBuilt;  ///< why the build ended
  real_t b_norm_inf = 0.0;        ///< ||B||_inf of the iteration matrix
  bool neumann_convergent = false;  ///< ||B||_inf < 1
  index_t chains_per_row = 0;     ///< N implied by eps
  index_t walk_cutoff = 0;        ///< T implied by delta (and the cap)
  long long total_transitions = 0;  ///< Markov-chain steps consumed
  /// Walks retired by the divergence guard (|W| > kDivergenceGuard): nonzero
  /// counts are the per-build signature of a divergent kernel.
  long long divergence_retirements = 0;
  bool kernel_cache_hit = false;  ///< walk kernel came from a WalkKernelCache
  real_t build_seconds = 0.0;
};

/// MCMC matrix inverter: produces an explicit sparse P ~ A^-1.
class McmcInverter {
 public:
  McmcInverter(const CsrMatrix& a, McmcParams params,
               McmcOptions options = {});

  /// Run the sampler and assemble the sparse approximate inverse.
  [[nodiscard]] CsrMatrix compute();

  /// Diagnostics of the most recent compute().
  [[nodiscard]] const McmcBuildInfo& info() const { return info_; }

  /// Opt into kernel reuse: when set, the walk kernel (and its alias tables)
  /// for (a, alpha) is fetched from / stored into `cache` instead of being
  /// rebuilt.  The cache must outlive compute(); pass nullptr to detach.
  void set_kernel_cache(WalkKernelCache* cache) { kernel_cache_ = cache; }

  /// One-call convenience: build P and wrap it as a preconditioner.  When
  /// `kernel_cache` is given the walk kernel (and its alias tables) for
  /// (a, alpha) is reused across calls instead of being rebuilt per trial.
  static std::unique_ptr<SparseApproximateInverse> build_preconditioner(
      const CsrMatrix& a, const McmcParams& params,
      const McmcOptions& options = {}, WalkKernelCache* kernel_cache = nullptr);

 private:
  const CsrMatrix& a_;
  McmcParams params_;
  McmcOptions options_;
  McmcBuildInfo info_;
  WalkKernelCache* kernel_cache_ = nullptr;
};

}  // namespace mcmi
