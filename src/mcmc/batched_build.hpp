#pragma once
/// @file batched_build.hpp
/// @brief Batched MCMC grid builds: one walk ensemble serves every
/// (eps, delta) trial at a fixed alpha, every replicate of the trial grid,
/// and — when the kernel allows — every alpha of a multi-alpha request.
///
/// This is the library's one walk engine: lanes are replicate seeds, units
/// are trials, and McmcInverter::compute() runs it as one lane and one
/// unit, batched_grid_build() as one lane and G units.
///
/// The AI-tuning loop probes many (alpha, eps, delta) trials against one
/// matrix, each replicated R times to estimate run-to-run variance.  Trials
/// sharing alpha run the *same* Markov chains — the kernel B = I - D^-1 A_a
/// depends only on (A, alpha) — and differ solely in how many chains they
/// average (N = chains_for_eps(eps)) and where each chain stops (the first
/// step with |W| < delta, or the delta-implied cutoff T).  Replicates differ
/// solely in the base seed of their chain streams.
///
/// ## CRN prefix-sharing invariant
///
/// Chain streams are keyed by (seed, row, chain) and a walk consumes exactly
/// one draw per transition, independent of (eps, delta).  Under these common
/// random numbers a smaller trial's walks are exact prefixes / chain-subsets
/// of a larger trial's walks:
///
///   * chain subset:  trial t uses chains c < N_t of the shared ensemble run
///     at N_max = max_t N_t;
///   * step prefix:   trial t accumulates steps 1..E of a chain where
///     E = min(T_t, S_t - 1, L),  S_t the first step with |W| < delta_t (or
///     |W| > the divergence guard), L the shared walk's own length — exactly
///     the steps its standalone walk would have accumulated, because the
///     weight sequence W_1, W_2, ... is trial-independent.
///
/// The builder therefore runs the ensemble once per chain to the loosest
/// still-active stopping condition, scattering each step's weight into a
/// per-stop-rule-group accumulator stream that is snapshotted (bit-copied)
/// at each trial's chain-count boundary, in the same (chain-major,
/// step-major) order the standalone inverter uses — so every trial's
/// assembled P is bit-identical to McmcInverter::compute() with the same
/// seed, at any OpenMP thread count.  This turns
/// G trials x O(walks) into ~1 x O(walks) + G x O(assembly), where the
/// scatter stores hide in the walk's pointer-chased load stalls.
///
/// ## Replicate batching (interleaved lanes)
///
/// Replicate streams are keyed by seed only, so an R-replicate ensemble
/// needs no second pass over the kernel per replicate: every replicate's
/// chain c advances in lockstep through one interleaved walk loop ("lanes"),
/// giving the CPU R independent pointer-chase chains to overlap where the
/// serial loop exposes one.  Each lane scatters into its own replicate's
/// accumulators, so per-(trial, replicate) accumulation order — and thus the
/// output bits — is exactly the standalone order.  The sampling pass is
/// latency-bound (one dependent kernel load chain per walk), which is why
/// interleaving R replicates recovers most of the R-fold redundancy the
/// serial per-replicate loop pays.
///
/// ## Multi-alpha sharing (opt-in, runtime-checked)
///
/// The walk's transition probabilities p_uv = |B_uv| / S_u are invariant
/// under the diagonal perturbation alpha (the perturbed diagonal
/// d_u = a_uu (1 + alpha) scales a row of B uniformly), so walks for
/// different alphas can share successor draws and differ only in their
/// weight streams W *= copysign(S_u(alpha), B_uv).  In floating point the
/// invariance holds only when the per-alpha sampling decisions round
/// identically; multi_alpha_grid_build() verifies this bitwise at runtime —
/// can_share_successor_draws() for the alias path (bitwise-equal alias
/// tables), can_share_inverse_cdf_draws() for the inverse-CDF path (the
/// normalised cumulative-weight arrays agree under an exact power-of-two
/// rescaling, which makes the u * S_u binary search scale-invariant) — and
/// falls back to one ensemble per alpha otherwise, so the bit-identity
/// contract is unconditional.
///
/// ## Cancellation
///
/// Every builder polls McmcOptions::cancel once per row.  A build that
/// stops early discards all partial artifacts: each trial reports
/// BuildStatus::kDeadlineExceeded / kCancelled in its McmcBuildInfo and an
/// empty (0 x 0) preconditioner matrix.  Divergence-guard walk retirements
/// are counted per trial in McmcBuildInfo::divergence_retirements either
/// way, matching the standalone inverter's accounting exactly.

#include <vector>

#include "core/types.hpp"
#include "mcmc/inverter.hpp"
#include "mcmc/params.hpp"
#include "mcmc/walk_kernel.hpp"
#include "sparse/csr.hpp"

namespace mcmi {

/// One (eps, delta) trial of a batched grid build at fixed alpha.
struct GridTrial {
  real_t eps = 0.25;    ///< stochastic error in (0, 1]: chain count
  real_t delta = 0.25;  ///< truncation error in (0, 1]: walk stopping rule
};

/// Per-trial outputs of a batched grid build, in input trial order.
struct BatchedGridResult {
  std::vector<CsrMatrix> preconditioners;  ///< P per trial
  std::vector<McmcBuildInfo> info;         ///< diagnostics per trial
};

/// Build every trial's preconditioner from one shared walk ensemble.
///
/// Each trial's P (and its info's total_transitions / chains_per_row /
/// walk_cutoff) is identical to a standalone
/// `McmcInverter(a, {alpha, eps, delta}, options).compute()`; build_seconds
/// apportions the shared ensemble wall time by each trial's own truncated
/// transition count (plus its own assembly).  When `kernel_cache` is given
/// the walk kernel for (a, alpha) is fetched from / stored into it.
///
/// @param a             square system matrix with nonzero diagonal
/// @param alpha         diagonal perturbation shared by every trial
/// @param trials        the (eps, delta) grid; at least one entry
/// @param options       sampler knobs; `options.seed` keys the chain streams
/// @param kernel_cache  optional per-alpha kernel reuse across calls
/// @return one preconditioner and one diagnostics record per trial,
///         in input order
BatchedGridResult batched_grid_build(const CsrMatrix& a, real_t alpha,
                                     const std::vector<GridTrial>& trials,
                                     const McmcOptions& options = {},
                                     WalkKernelCache* kernel_cache = nullptr);

/// Per-replicate outputs of a replicate-batched grid build: element r holds
/// the full trial grid built with `replicate_seeds[r]`.
struct ReplicatedGridResult {
  std::vector<BatchedGridResult> replicates;  ///< [replicate], trial order
};

/// Build every (trial, replicate) preconditioner from one interleaved walk
/// ensemble: replicate lanes advance through the chain loop in lockstep
/// (see the file comment), so the kernel is traversed in a single pass
/// instead of once per replicate.
///
/// Replicate r of the result is bit-identical to
/// `batched_grid_build(a, alpha, trials, options with seed =
/// replicate_seeds[r], kernel_cache)` — and therefore to the standalone
/// `McmcInverter::compute()` per trial — at any OpenMP thread count.
/// `options.seed` is ignored; the replicate seeds key the chain
/// streams.  Per-(trial, replicate) build_seconds apportions the shared
/// ensemble wall time by that build's own truncated transition share.
///
/// Memory note: each OpenMP thread holds one dense accumulator per (trial,
/// replicate) — replicates x trials x n doubles, an R-fold increase over
/// per-replicate batched_grid_build calls.  For very large systems with
/// many trials and threads, prefer looping batched_grid_build per replicate
/// if that footprint matters more than the single-pass walk.
///
/// @param a                square system matrix with nonzero diagonal
/// @param alpha            diagonal perturbation shared by every trial
/// @param trials           the (eps, delta) grid; at least one entry
/// @param replicate_seeds  one chain-stream base seed per replicate;
///                         at least one entry (duplicates are allowed and
///                         produce identical replicate outputs)
/// @param options          sampler knobs; `options.seed` is ignored
/// @param kernel_cache     optional per-alpha kernel reuse across calls
/// @return per-replicate BatchedGridResults, in `replicate_seeds` order
ReplicatedGridResult replicate_batched_grid_build(
    const CsrMatrix& a, real_t alpha, const std::vector<GridTrial>& trials,
    const std::vector<u64>& replicate_seeds, const McmcOptions& options = {},
    WalkKernelCache* kernel_cache = nullptr);

/// One batched build's worth of grid points: every position of the source
/// list sharing this exact alpha, in encounter order.
struct AlphaGroup {
  real_t alpha = 0.0;             ///< the group's shared perturbation
  std::vector<index_t> indices;   ///< positions in the source list
  std::vector<GridTrial> trials;  ///< (eps, delta) per position
};

/// Group a parameter list by exact alpha bits, first-appearance order:
/// each group maps to one batched_grid_build (or measure_grid) call, and
/// `indices` scatters the per-trial results back into source order.
std::vector<AlphaGroup> group_grid_by_alpha(
    const std::vector<McmcParams>& grid);

/// Outputs of a multi-alpha grid build, indexed like the request groups.
struct MultiAlphaGridResult {
  std::vector<ReplicatedGridResult> groups;  ///< [group][replicate][trial]
  /// True when one ensemble's successor draws served every alpha (the
  /// runtime check passed); false when the builder fell back to one
  /// ensemble per alpha.  Outputs are bit-identical either way.
  bool shared_successors = false;
};

/// Whether two walk kernels draw bit-identical successor sequences from the
/// same RNG stream on the alias path: same walk graph (row_ptr, succ) and
/// bitwise-equal alias tables.  This is the runtime gate for multi-alpha
/// successor sharing — the transition probabilities are alpha-invariant in
/// exact arithmetic, but the shared ensemble is only used when the rounded
/// tables agree exactly, keeping the output contract unconditional.
bool can_share_successor_draws(const WalkKernel& lhs, const WalkKernel& rhs);

/// Whether two walk kernels make bit-identical successor decisions from the
/// same RNG stream on the inverse-CDF path: same walk graph, and per row an
/// exact power-of-two factor scales lhs's cumulative |B| prefix sums and
/// row sum onto rhs's (equivalently, the scale-invariant *normalised*
/// cum_abs arrays are bitwise equal).  Multiplication by a power of two
/// commutes with floating-point rounding away from the subnormal range, so
/// under this condition the draw `upper_bound(cum_abs, u * S_u)` picks the
/// same transition slot for every RNG word in both kernels; rows whose sums
/// sit close enough to the subnormal range for that argument to leak
/// (< 1e-100) conservatively fail the check.  This is the runtime gate for
/// multi-alpha draw sharing on the inverse-CDF sampler, the counterpart of
/// can_share_successor_draws() on the alias path — e.g. the (1+alpha)
/// factors of alphas {1, 3} scale every row by exactly 2x and always pass.
bool can_share_inverse_cdf_draws(const WalkKernel& lhs, const WalkKernel& rhs);

/// Build every (group, trial, replicate) preconditioner, sharing one walk
/// ensemble across *all* alphas when the kernels allow it: successor draws
/// are sampled once per step through the first group's sampling structures
/// while each alpha carries its own weight stream, stopping rules, and
/// accumulators.  The sharing fast path requires bitwise-identical draw
/// decisions across the groups, verified at runtime per sampling method —
/// can_share_successor_draws() for the alias path (bitwise-equal alias
/// tables), can_share_inverse_cdf_draws() for the inverse-CDF path (exact
/// power-of-two scaling of the cumulative weights); otherwise the builder
/// runs one replicate-batched ensemble per group.  Either way every
/// (group, trial, replicate) output is bit-identical to its standalone
/// `McmcInverter::compute()`.
///
/// @param a                square system matrix with nonzero diagonal
/// @param groups           one trial list per alpha (AlphaGroup::indices is
///                         not consulted); at least one group, each with at
///                         least one trial
/// @param replicate_seeds  one chain-stream base seed per replicate
/// @param options          sampler knobs; `options.seed` is ignored
/// @param kernel_cache     optional per-alpha kernel reuse across calls;
///                         when omitted a call-local cache still prevents
///                         the fallback path from rebuilding the kernels
///                         the runtime check already built
/// @return per-group ReplicatedGridResults plus the sharing outcome
MultiAlphaGridResult multi_alpha_grid_build(
    const CsrMatrix& a, const std::vector<AlphaGroup>& groups,
    const std::vector<u64>& replicate_seeds, const McmcOptions& options = {},
    WalkKernelCache* kernel_cache = nullptr);

}  // namespace mcmi
