#include "mcmc/inverter.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "mcmc/csr_arena.hpp"
#include "mcmc/emission.hpp"
#include "mcmc/walk_kernel.hpp"

namespace mcmi {

namespace {

/// One (row, chain) random walk: accumulates W contributions into `accum`
/// (dense workspace) and records freshly touched states in `touched`.
/// Returns the number of transitions consumed.  The successor draw is the
/// only difference between the two sampling methods: one RNG word through
/// the alias table versus a binary search over cumulative weights (the
/// reference path, which consumes the RNG stream exactly like the original
/// implementation and therefore reproduces its output bit for bit).
template <SamplingMethod method>
index_t run_walk(const WalkKernel& k, index_t start, index_t cutoff,
                 real_t delta, Xoshiro256& rng, std::vector<real_t>& accum,
                 std::vector<index_t>& touched, long long& retired) {
  // k = 0 term of the Neumann series: the walk starts at `start` with W = 1.
  if (accum[start] == 0.0) touched.push_back(start);
  accum[start] += 1.0;

  index_t state = start;
  real_t weight = 1.0;
  index_t steps = 0;
  while (steps < cutoff) {
    const index_t begin = k.row_ptr[state];
    const index_t end = k.row_ptr[state + 1];
    if (begin == end) break;  // absorbing state: no off-diagonal mass
    index_t p;
    if constexpr (method == SamplingMethod::kAlias) {
      p = k.alias.sample(begin, end, rng());
    } else {
      // Inverse-CDF sampling of the successor under p_uv = |B_uv| / S_u.
      const real_t target = uniform01(rng) * k.row_sum[state];
      const auto first = k.cum_abs.begin() + begin;
      const auto last = k.cum_abs.begin() + end;
      auto it = std::upper_bound(first, last, target);
      if (it == last) --it;  // guard the rounding edge target ~= S_u
      p = static_cast<index_t>(it - k.cum_abs.begin());
    }
    // Weight update W *= B_uv / p_uv = sign(B_uv) * S_u, precomputed.
    weight *= k.signed_sum[p];
    state = k.succ[p];
    ++steps;
    if (std::abs(weight) < delta) break;  // truncation criterion
    // Divergent kernel (||B|| > 1): bound the blow-up so the estimate stays
    // finite — the resulting garbage preconditioner is the intended failure
    // signal for near-zero alpha, but it must not poison the solver with
    // inf/nan.  Retirements are counted so callers can see the divergence.
    if (std::abs(weight) > kDivergenceGuard) {
      ++retired;
      break;
    }
    if (accum[state] == 0.0) touched.push_back(state);
    accum[state] += weight;
  }
  return steps;
}

}  // namespace

McmcInverter::McmcInverter(const CsrMatrix& a, McmcParams params,
                           McmcOptions options)
    : a_(a), params_(params), options_(options) {
  MCMI_CHECK(a.rows() == a.cols(), "MCMCMI needs a square matrix");
  MCMI_CHECK(params_.alpha >= 0.0, "alpha must be nonnegative");
  MCMI_CHECK(params_.eps > 0.0 && params_.eps <= 1.0, "eps must be in (0,1]");
  MCMI_CHECK(params_.delta > 0.0 && params_.delta <= 1.0,
             "delta must be in (0,1]");
  MCMI_CHECK(options_.filling_factor > 0.0, "filling factor must be positive");
}

CsrMatrix McmcInverter::compute() {
  WallTimer timer;
  const index_t n = a_.rows();

  if (options_.cancel != nullptr && options_.cancel->should_stop()) {
    info_ = McmcBuildInfo{};
    info_.status = build_stop_reason(*options_.cancel);
    return CsrMatrix();  // refused before any work
  }

  // The kernel is a pure function of (A, alpha): reuse it across trials that
  // share alpha when the caller attached a cache.
  std::shared_ptr<const WalkKernel> cached;
  WalkKernel local;
  bool cache_hit = false;
  if (kernel_cache_ != nullptr) {
    cached = kernel_cache_->get(a_, params_.alpha, &cache_hit);
  } else {
    local = build_walk_kernel(a_, params_.alpha);
  }
  const WalkKernel& kernel = cached ? *cached : local;

  info_ = McmcBuildInfo{};
  info_.b_norm_inf = kernel.norm_inf;
  info_.neumann_convergent = kernel.norm_inf < 1.0;
  info_.chains_per_row = chains_for_eps(params_.eps);
  info_.walk_cutoff = walk_length_for_delta(params_.delta, kernel.norm_inf,
                                            options_.walk_cap);
  info_.kernel_cache_hit = cache_hit;

  // Per-row nonzero budget from the filling factor: the paper caps the
  // preconditioner at filling_factor * phi(A), i.e. on average
  // filling_factor * nnz(A)/n entries per row.
  const index_t row_budget = std::max<index_t>(
      1, static_cast<index_t>(std::llround(
             options_.filling_factor * static_cast<real_t>(a_.nnz()) /
             static_cast<real_t>(n))));

  const index_t chains = info_.chains_per_row;
  const index_t cutoff = info_.walk_cutoff;
  const real_t inv_chains = 1.0 / static_cast<real_t>(chains);
  const real_t threshold = options_.truncation_threshold;

  // Phase 1: every thread assembles its rows into a private arena and
  // records where each row landed; phase 2 prefix-sums the lengths and
  // copies the slices into the final CSR buffers.  Rows enter the arena with
  // sorted columns, so no trailing re-sort pass is needed.
  std::vector<RowArena> arenas(static_cast<std::size_t>(max_threads()));
  std::vector<RowSlice> row_slices(static_cast<std::size_t>(n));
  std::atomic<long long> transitions{0};
  std::atomic<long long> retirements{0};
  // Cooperative cancellation: an `omp for` cannot break, so a shared flag
  // turns the remaining rows into no-ops and the partial build is discarded
  // after the loops.
  std::atomic<bool> aborted{false};

  // The rank loop mirrors the paper's 2-rank MPI decomposition; inside each
  // rank block rows are OpenMP-parallel.  Results are identical at any
  // rank/thread count because streams are keyed by (seed, row, chain).
  const ChainPartition partition(n, options_.ranks);
  for (index_t rank = 0; rank < options_.ranks; ++rank) {
    const index_t begin = partition.begin(rank);
    const index_t end = partition.end(rank);
#pragma omp parallel
    {
      const int tid = thread_id();
      RowArena& arena = arenas[static_cast<std::size_t>(tid)];
      std::vector<real_t> accum(static_cast<std::size_t>(n), 0.0);
      std::vector<index_t> touched;
      RowEmitter emitter;
      long long local_transitions = 0;
      long long local_retired = 0;
#pragma omp for schedule(dynamic, 8)
      for (index_t i = begin; i < end; ++i) {
        if (aborted.load(std::memory_order_relaxed)) continue;
        if (options_.cancel != nullptr && options_.cancel->should_stop()) {
          aborted.store(true, std::memory_order_relaxed);
          continue;
        }
        touched.clear();
        for (index_t c = 0; c < chains; ++c) {
          Xoshiro256 rng = make_stream(options_.seed, static_cast<u64>(i),
                                       static_cast<u64>(c));
          local_transitions +=
              options_.sampling == SamplingMethod::kAlias
                  ? run_walk<SamplingMethod::kAlias>(kernel, i, cutoff,
                                                     params_.delta, rng, accum,
                                                     touched, local_retired)
                  : run_walk<SamplingMethod::kInverseCdf>(
                        kernel, i, cutoff, params_.delta, rng, accum, touched,
                        local_retired);
        }
        // Integer weights can cancel to exactly zero and re-accumulate, in
        // which case a state enters `touched` twice — deduplicate before
        // emission so the CSR row stays well formed.  The sort also fixes the
        // emitted column order.
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        row_slices[i] = emitter.emit(arena, tid, accum.data(), touched, i,
                                     inv_chains, kernel.inv_diag, threshold,
                                     row_budget);
      }
      transitions += local_transitions;
      retirements += local_retired;
    }
  }

  info_.total_transitions = transitions.load();
  info_.divergence_retirements = retirements.load();
  if (aborted.load()) {
    info_.status = build_stop_reason(*options_.cancel);
    info_.build_seconds = timer.seconds();
    return CsrMatrix();  // partial artifacts discarded
  }
  CsrMatrix p = assemble_csr_from_arenas(n, row_slices, arenas);
  info_.build_seconds = timer.seconds();
  return p;
}

std::unique_ptr<SparseApproximateInverse> McmcInverter::build_preconditioner(
    const CsrMatrix& a, const McmcParams& params, const McmcOptions& options,
    WalkKernelCache* kernel_cache) {
  McmcInverter inverter(a, params, options);
  inverter.set_kernel_cache(kernel_cache);
  CsrMatrix p = inverter.compute();
  return std::make_unique<SparseApproximateInverse>(
      std::move(p), "mcmcmi" + params.to_string());
}

}  // namespace mcmi
