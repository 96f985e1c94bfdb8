// Google-benchmark micro-kernels: the per-operation costs underlying every
// experiment — transition sampling, SpMV, MCMC preconditioner builds, Krylov
// solves, GNN forward/backward, EI evaluation and L-BFGS-B runs.
//
// Run with --json[=path] to mirror the report into a JSON file (default
// BENCH_micro_kernels.json) so the perf trajectory is comparable across PRs.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bo/expected_improvement.hpp"
#include "bo/lbfgsb.hpp"
#include "core/rng.hpp"
#include "features/matrix_features.hpp"
#include "gen/laplace.hpp"
#include "gen/plasma.hpp"
#include "gnn/stack.hpp"
#include "krylov/solver.hpp"
#include "mcmc/batched_build.hpp"
#include "mcmc/csr_arena.hpp"
#include "mcmc/emission.hpp"
#include "mcmc/inverter.hpp"
#include "mcmc/regenerative.hpp"
#include "mcmc/walk_kernel.hpp"
#include "precond/ilu0.hpp"
#include "solve/orchestrator.hpp"
#include "sparse/vector_ops.hpp"
#include "surrogate/model.hpp"

namespace {

using namespace mcmi;

// ---- transition sampling: alias table vs binary search ----------------------
// The same random walk over the iteration matrix of a 64x64 Laplacian,
// differing only in the successor draw.  items/s = transitions/s.

void BM_AliasSample(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(64);
  const WalkKernel k = build_walk_kernel(a, 1.0);
  Xoshiro256 rng = make_stream(7, 1);
  index_t s = 0;
  for (auto _ : state) {
    const index_t begin = k.row_ptr[s];
    const index_t end = k.row_ptr[s + 1];
    const index_t p = k.alias.sample(begin, end, rng());
    s = k.succ[p];
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample);

void BM_InverseCdfSample(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(64);
  const WalkKernel k = build_walk_kernel(a, 1.0);
  Xoshiro256 rng = make_stream(7, 1);
  index_t s = 0;
  for (auto _ : state) {
    const index_t begin = k.row_ptr[s];
    const index_t end = k.row_ptr[s + 1];
    const real_t target = uniform01(rng) * k.row_sum[s];
    const auto first = k.cum_abs.begin() + begin;
    const auto last = k.cum_abs.begin() + end;
    auto it = std::upper_bound(first, last, target);
    if (it == last) --it;
    s = k.succ[static_cast<index_t>(it - k.cum_abs.begin())];
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InverseCdfSample);

void BM_AliasTableBuild(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(state.range(0));
  const WalkKernel k = build_walk_kernel(a, 1.0);
  std::vector<real_t> abs_value(k.value.size());
  for (std::size_t p = 0; p < abs_value.size(); ++p) {
    abs_value[p] = std::abs(k.value[p]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AliasTable::build(k.row_ptr, abs_value).prob().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<index_t>(abs_value.size()));
}
BENCHMARK(BM_AliasTableBuild)->Arg(64)->Arg(128);

// ---- SpMV: naive row loop vs the cached execution plan ----------------------
// The naive kernel replicates the seed implementation: zero-fill pass plus a
// statically scheduled row loop over 64-bit column indices.  The plan path
// (CsrMatrix::multiply) runs the nnz-balanced chunks with 32-bit columns and
// no zero fill.  items/s = nonzeros/s.

void naive_spmv(const CsrMatrix& a, const std::vector<real_t>& x,
                std::vector<real_t>& y) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  y.assign(static_cast<std::size_t>(a.rows()), 0.0);
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < a.rows(); ++i) {
    real_t sum = 0.0;
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      sum += values[k] * x[col_idx[k]];
    }
    y[i] = sum;
  }
}

void BM_SpmvNaive(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(state.range(0));
  std::vector<real_t> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> y;
  for (auto _ : state) {
    naive_spmv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_SpmvPlan(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(state.range(0));
  std::vector<real_t> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> y;
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvPlan)->Arg(64)->Arg(128)->Arg(256);

void BM_SpmvPlanFusedDot(benchmark::State& state) {
  // The CG q·Aq shape: product and reduction in one pass.
  const CsrMatrix a = laplace_2d(state.range(0));
  std::vector<real_t> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> y;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.multiply_dot(x, y));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvPlanFusedDot)->Arg(128)->Arg(256);

// ---- CG inner loop: unfused seed kernels vs the plan-based fused path -------
// Both run exactly 50 preconditioned-CG iterations on the 256x256 Laplace
// system with an MCMC approximate inverse, so items/s = CG iterations/s and
// the ratio isolates the per-iteration kernel cost (the acceptance metric of
// the SpmvPlan rewrite).

constexpr index_t kCgBenchIters = 50;

const CsrMatrix& cg_bench_matrix() {
  static const CsrMatrix a = laplace_2d(256);
  return a;
}

const CsrMatrix& cg_bench_precond() {
  static const CsrMatrix p =
      McmcInverter(cg_bench_matrix(), {1.0, 0.25, 0.125}).compute();
  return p;
}

void BM_CgIterationNaive(benchmark::State& state) {
  const CsrMatrix& a = cg_bench_matrix();
  const CsrMatrix& pm = cg_bench_precond();
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> x, r, z, q, aq;
  for (auto _ : state) {
    x.assign(b.size(), 0.0);
    r = b;
    naive_spmv(pm, r, z);
    real_t rho = dot(r, z);
    q = z;
    for (index_t it = 0; it < kCgBenchIters; ++it) {
      naive_spmv(a, q, aq);
      const real_t alpha = rho / dot(q, aq);
      axpy2(alpha, q, aq, x, r);
      naive_spmv(pm, r, z);
      real_t rho_next, norm_z;
      dot_norm2(r, z, rho_next, norm_z);
      benchmark::DoNotOptimize(norm_z);
      const real_t beta = rho_next / rho;
      rho = rho_next;
      xpby(z, beta, q);
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * kCgBenchIters);
}
BENCHMARK(BM_CgIterationNaive)->Unit(benchmark::kMillisecond);

void BM_CgIterationPlan(benchmark::State& state) {
  const CsrMatrix& a = cg_bench_matrix();
  const CsrMatrix& pm = cg_bench_precond();
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> x, r, z, q, aq;
  for (auto _ : state) {
    x.assign(b.size(), 0.0);
    r = b;
    real_t rho, norm_sq;
    pm.multiply_dot_norm2(r, z, r, rho, norm_sq);
    q = z;
    for (index_t it = 0; it < kCgBenchIters; ++it) {
      const real_t alpha = rho / a.multiply_dot(q, aq);
      axpy2(alpha, q, aq, x, r);
      real_t rho_next;
      pm.multiply_dot_norm2(r, z, r, rho_next, norm_sq);
      benchmark::DoNotOptimize(norm_sq);
      const real_t beta = rho_next / rho;
      rho = rho_next;
      xpby(z, beta, q);
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * kCgBenchIters);
}
BENCHMARK(BM_CgIterationPlan)->Unit(benchmark::kMillisecond);

// The fused-recurrence CG iteration: the descent step (A q, <q,Aq>, x/r
// update) and the preconditioner tail (P r, <r,z>, ||z||^2, q recurrence)
// each collapse into one parallel region via multiply_dot_axpy2 /
// multiply_dot_norm2_xpby — two operator visits per iteration, zero
// standalone vector sweeps.  Same system, same 50 iterations, identical
// items as BM_CgIterationPlan.  The gated pair pins fusion at parity-or-
// better: single-core the iteration is bandwidth-bound and the phases are
// additive, so the measured win is ~1%; the fork/join and partial-sum
// locality savings only open up with real thread counts.  The gate exists
// so the fused path can never silently become *slower* than the composed
// PR 2 loop it replaced in cg.cpp.
void BM_CgIterationFusedRecurrence(benchmark::State& state) {
  const CsrMatrix& a = cg_bench_matrix();
  const CsrMatrix& pm = cg_bench_precond();
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> x, r, z, q, aq;
  for (auto _ : state) {
    x.assign(b.size(), 0.0);
    r = b;
    real_t rho, norm_sq;
    pm.multiply_dot_norm2(r, z, r, rho, norm_sq);
    q = z;
    for (index_t it = 0; it < kCgBenchIters; ++it) {
      benchmark::DoNotOptimize(a.multiply_dot_axpy2(q, rho, aq, x, r));
      real_t rho_next;
      pm.multiply_dot_norm2_xpby(r, z, r, rho, q, rho_next, norm_sq);
      benchmark::DoNotOptimize(norm_sq);
      rho = rho_next;
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * kCgBenchIters);
}
BENCHMARK(BM_CgIterationFusedRecurrence)->Unit(benchmark::kMillisecond);

// Args: {grid side, 1/eps, sampling method}.  The {128, 16} rows are the
// acceptance benchmark of the alias rewrite: a 128x128 2-D Laplace build at
// eps = 1/16 with the alias path (method 0) versus the pre-PR binary-search
// path (method 1).
void BM_McmcBuild(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(state.range(0));
  const real_t eps = 1.0 / static_cast<real_t>(state.range(1));
  McmcOptions opt;
  opt.sampling = state.range(2) == 0 ? SamplingMethod::kAlias
                                     : SamplingMethod::kInverseCdf;
  long long transitions = 0;
  for (auto _ : state) {
    McmcInverter inverter(a, {1.0, eps, 0.0625}, opt);
    benchmark::DoNotOptimize(inverter.compute().nnz());
    transitions += inverter.info().total_transitions;
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_McmcBuild)
    ->Args({32, 2, 0})
    ->Args({32, 4, 0})
    ->Args({32, 8, 0})
    ->Args({32, 16, 0})
    ->Args({128, 16, 0})
    ->Args({128, 16, 1})
    ->Unit(benchmark::kMillisecond);

void BM_McmcBuildCachedKernel(benchmark::State& state) {
  // The HPO-loop shape: repeated builds against one matrix sharing alpha.
  const CsrMatrix a = laplace_2d(64);
  WalkKernelCache cache;
  for (auto _ : state) {
    McmcInverter inverter(a, {1.0, 0.125, 0.0625});
    inverter.set_kernel_cache(&cache);
    benchmark::DoNotOptimize(inverter.compute().nnz());
  }
}
BENCHMARK(BM_McmcBuildCachedKernel);

// ---- batched grid builds: one walk ensemble vs the serial per-trial loop ----
// The tuning-loop shape on the paper's a00512 plasma system: an 8-point
// (eps, delta) refinement batch clustered near the incumbent the optimiser
// converges to (chain counts 108..182, two truncation depths; the BO
// recommender's dedup distance of 1e-3 admits exactly this spacing).  The
// serial loop is the pre-batching status quo — one standalone build per
// trial sharing the walk kernel through a WalkKernelCache — so the pair
// ratio isolates the ensemble sharing, not kernel-rebuild savings.
// items/s = serial-equivalent transitions/s (summed per-trial truncated
// work); both rows report identical item counts by construction.

constexpr real_t kGridBenchAlpha = 0.5;

const std::vector<GridTrial>& grid_bench_trials() {
  static const std::vector<GridTrial> trials = {
      {0.05, 0.05},  {0.052, 0.0625}, {0.054, 0.05},  {0.056, 0.0625},
      {0.058, 0.05}, {0.06, 0.0625},  {0.062, 0.05},  {0.065, 0.0625}};
  return trials;
}

const CsrMatrix& grid_bench_matrix() {
  static const CsrMatrix a = plasma_a00512();
  return a;
}

void BM_SerialGridBuild(benchmark::State& state) {
  const CsrMatrix& a = grid_bench_matrix();
  WalkKernelCache cache;
  long long transitions = 0;
  for (auto _ : state) {
    for (const GridTrial& t : grid_bench_trials()) {
      McmcInverter inverter(a, {kGridBenchAlpha, t.eps, t.delta});
      inverter.set_kernel_cache(&cache);
      benchmark::DoNotOptimize(inverter.compute().nnz());
      transitions += inverter.info().total_transitions;
    }
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_SerialGridBuild)->Unit(benchmark::kMillisecond);

void BM_BatchedGridBuild(benchmark::State& state) {
  const CsrMatrix& a = grid_bench_matrix();
  WalkKernelCache cache;
  long long transitions = 0;
  for (auto _ : state) {
    const BatchedGridResult r = batched_grid_build(
        a, kGridBenchAlpha, grid_bench_trials(), {}, &cache);
    benchmark::DoNotOptimize(r.preconditioners.data());
    for (const McmcBuildInfo& info : r.info) {
      transitions += info.total_transitions;
    }
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_BatchedGridBuild)->Unit(benchmark::kMillisecond);

// ---- replicate-batched grid builds ------------------------------------------
// The variance-estimation shape of the tuning loop: the same 8-trial batch
// as the pair above, replicated 4x with distinct chain-stream seeds (the
// PerformanceMeasurer keying).  Three rows:
//
//   * BM_SerialReplicateGridBuild — the fully serial status quo in the
//     BM_SerialGridBuild convention: one standalone McmcInverter::compute()
//     per (trial, replicate), sharing the walk kernel through a cache.
//   * BM_PerReplicateGridBuild — the PR 3 middle point: one batched (eps,
//     delta) ensemble per replicate (what measure_grid_replicates did
//     before this PR).
//   * BM_ReplicateBatchedGridBuild — one interleaved ensemble for the whole
//     (trial, replicate) grid (replicate_batched_grid_build).
//
// The gated pair is batched-vs-serial: the whole CRN stack must collapse
// the 32-build grid by >= 2x.  Replicates share no random draws (their
// streams are keyed by distinct seeds), so against the PER-REPLICATE loop
// the interleaved build can only win by overlapping walk latency across
// lanes — roughly neutral on cache-resident systems like this one, growing
// with matrix size — and the second pair just guards against regression.
// items/s = serial-equivalent transitions/s; all rows report identical item
// counts by construction.

const std::vector<u64>& replicate_bench_seeds() {
  static const std::vector<u64> seeds = {
      mix64(20250922 + 0x9e3779b9 * 1), mix64(20250922 + 0x9e3779b9 * 2),
      mix64(20250922 + 0x9e3779b9 * 3), mix64(20250922 + 0x9e3779b9 * 4)};
  return seeds;
}

void BM_SerialReplicateGridBuild(benchmark::State& state) {
  const CsrMatrix& a = grid_bench_matrix();
  WalkKernelCache cache;
  long long transitions = 0;
  for (auto _ : state) {
    for (u64 seed : replicate_bench_seeds()) {
      McmcOptions opt;
      opt.seed = seed;
      for (const GridTrial& t : grid_bench_trials()) {
        McmcInverter inverter(a, {kGridBenchAlpha, t.eps, t.delta}, opt);
        inverter.set_kernel_cache(&cache);
        benchmark::DoNotOptimize(inverter.compute().nnz());
        transitions += inverter.info().total_transitions;
      }
    }
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_SerialReplicateGridBuild)->Unit(benchmark::kMillisecond);

void BM_PerReplicateGridBuild(benchmark::State& state) {
  const CsrMatrix& a = grid_bench_matrix();
  WalkKernelCache cache;
  long long transitions = 0;
  for (auto _ : state) {
    for (u64 seed : replicate_bench_seeds()) {
      McmcOptions opt;
      opt.seed = seed;
      const BatchedGridResult r = batched_grid_build(
          a, kGridBenchAlpha, grid_bench_trials(), opt, &cache);
      benchmark::DoNotOptimize(r.preconditioners.data());
      for (const McmcBuildInfo& info : r.info) {
        transitions += info.total_transitions;
      }
    }
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_PerReplicateGridBuild)->Unit(benchmark::kMillisecond);

void BM_ReplicateBatchedGridBuild(benchmark::State& state) {
  const CsrMatrix& a = grid_bench_matrix();
  WalkKernelCache cache;
  long long transitions = 0;
  for (auto _ : state) {
    const ReplicatedGridResult r = replicate_batched_grid_build(
        a, kGridBenchAlpha, grid_bench_trials(), replicate_bench_seeds(), {},
        &cache);
    benchmark::DoNotOptimize(r.replicates.data());
    for (const BatchedGridResult& rep : r.replicates) {
      for (const McmcBuildInfo& info : rep.info) {
        transitions += info.total_transitions;
      }
    }
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_ReplicateBatchedGridBuild)->Unit(benchmark::kMillisecond);

// ---- multi-alpha grid builds: shared successor draws across alphas ----------
// The hpo::tune_mcmc_params shape: one 4-trial (eps, delta) batch evaluated
// at two alphas whose perturbed diagonals differ by a power of two, so both
// samplers' draw decisions round identically and the runtime checks enable
// successor sharing — one RNG draw per step serves both alphas, each with
// its own weight stream.  Unlike replicate interleaving this removes work
// outright.  Args: /0 = alias fallback shape (one ensemble per alpha),
// /1 = alias shared, /2 = inverse-CDF fallback shape, /3 = inverse-CDF
// shared (the scale-invariant normalised-cum_abs sharing).  CI gates the
// /1-vs-/0 and /3-vs-/2 pairs (see bench/README.md).

void BM_MultiAlphaGridBuild(benchmark::State& state) {
  const CsrMatrix& a = grid_bench_matrix();
  const std::vector<GridTrial> trials(grid_bench_trials().begin(),
                                      grid_bench_trials().begin() + 4);
  const std::vector<AlphaGroup> groups = {{1.0, {}, trials},
                                          {3.0, {}, trials}};
  const std::vector<u64> seeds = {replicate_bench_seeds()[0],
                                  replicate_bench_seeds()[1]};
  WalkKernelCache cache;
  const bool shared = (state.range(0) & 1) == 1;
  McmcOptions opt;
  if (state.range(0) >= 2) opt.sampling = SamplingMethod::kInverseCdf;
  long long transitions = 0;
  for (auto _ : state) {
    MultiAlphaGridResult r;
    if (shared) {
      r = multi_alpha_grid_build(a, groups, seeds, opt, &cache);
    } else {
      // Fallback shape for comparison: one ensemble per alpha.
      for (const AlphaGroup& g : groups) {
        r.groups.push_back(replicate_batched_grid_build(a, g.alpha, g.trials,
                                                        seeds, opt, &cache));
      }
    }
    benchmark::DoNotOptimize(r.groups.data());
    for (const ReplicatedGridResult& rep : r.groups) {
      for (const BatchedGridResult& b : rep.replicates) {
        for (const McmcBuildInfo& info : b.info) {
          transitions += info.total_transitions;
        }
      }
    }
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_MultiAlphaGridBuild)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

// ---- row emission: the RowEmitter engine vs the reference emitter -----------
// The accumulator -> CSR-row pass every builder pays per (row, trial,
// replicate, alpha) — after the batched builds collapsed the walk work this
// is the dominant fixed cost of a grid build.  Each row measures the same
// synthetic walk-accumulator emission two ways, selected by the benchmark
// arg: /0 = emit_row_reference (the pre-engine path: stage every candidate,
// nth_element cut, compaction), /1 = RowEmitter (touched-count fast path +
// threshold-tracked top-budget cut).  Both sides re-fill the accumulator
// from a template per iteration (identical overhead), produce bit-identical
// rows, and report items/s = touched states streamed per second.

/// One synthetic emission workload: `touched_count` states with walk-like
/// geometrically decaying magnitudes and mixed signs, against `budget`.
struct EmitWorkload {
  std::vector<index_t> touched;
  std::vector<real_t> accum;    ///< dense accumulator, zeroed by each emit
  std::vector<real_t> restore;  ///< template the loop re-fills accum from
  std::vector<real_t> inv_diag;
  index_t row = 0;
  index_t budget = 1;
  real_t inv_chains = 1.0 / 116.0;  // the eps = 1/16 chain count
};

EmitWorkload make_emit_workload(index_t n, index_t touched_count,
                                index_t budget) {
  EmitWorkload w;
  w.budget = budget;
  w.accum.assign(static_cast<std::size_t>(n), 0.0);
  w.restore.assign(static_cast<std::size_t>(n), 0.0);
  w.inv_diag.assign(static_cast<std::size_t>(n), 0.2);
  Xoshiro256 rng = make_stream(1234, 1);
  const index_t stride = n / touched_count;
  for (index_t t = 0; t < touched_count; ++t) {
    const index_t j = t * stride;
    w.touched.push_back(j);
    // Chain sums decay geometrically in walk depth; duplicate magnitudes
    // (tie stress at the cut) arise naturally from equal depths.
    const real_t depth = std::floor(uniform01(rng) * 12.0);
    const real_t sign = (rng() & 1u) != 0 ? 1.0 : -1.0;
    w.restore[j] = sign * std::pow(0.55, depth) * (1.0 + uniform01(rng));
  }
  w.row = w.touched[static_cast<std::size_t>(touched_count / 2)];
  return w;
}

void emit_row_bench(benchmark::State& state, index_t n, index_t touched_count,
                    index_t budget) {
  EmitWorkload w = make_emit_workload(n, touched_count, budget);
  const bool engine = state.range(0) == 1;
  RowArena arena;
  RowEmitter emitter;
  std::vector<real_t> scratch;
  for (auto _ : state) {
    arena.cols.clear();
    arena.vals.clear();
    for (index_t j : w.touched) w.accum[j] = w.restore[j];
    const RowSlice s =
        engine ? emitter.emit(arena, 0, w.accum.data(), w.touched, w.row,
                              w.inv_chains, w.inv_diag, 1e-9, w.budget)
               : emit_row_reference(arena, 0, w.accum.data(), w.touched,
                                    w.row, w.inv_chains, w.inv_diag, 1e-9,
                                    w.budget, scratch);
    benchmark::DoNotOptimize(s.count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<index_t>(w.touched.size()));
}

void BM_EmitRowDense(benchmark::State& state) {
  // The over-budget lattice shape: a 2-D Laplace walk touches O(L^2) states
  // (thousands at the eps = delta = 1/16 cutoff) against a budget of
  // 2 * nnz/n ~ 10 — the workload the threshold-tracked cut targets.
  emit_row_bench(state, 4096, 3000, 10);
}
BENCHMARK(BM_EmitRowDense)->Arg(0)->Arg(1);

void BM_EmitRowSparse(benchmark::State& state) {
  // Mildly over-budget (the a00512 plasma shape: reach ~2.5x the budget).
  emit_row_bench(state, 4096, 96, 38);
}
BENCHMARK(BM_EmitRowSparse)->Arg(0)->Arg(1);

void BM_EmitRowUnderBudget(benchmark::State& state) {
  // Touched count below budget: both paths reduce to the bare
  // threshold-filter loop (the engine skips all tracking).
  emit_row_bench(state, 4096, 24, 38);
}
BENCHMARK(BM_EmitRowUnderBudget)->Arg(0)->Arg(1);

void BM_RegenerativeBuild(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(64);
  for (auto _ : state) {
    RegenerativeInverter inverter(a,
                                  {1.0, static_cast<index_t>(state.range(0))});
    benchmark::DoNotOptimize(inverter.compute().nnz());
  }
}
BENCHMARK(BM_RegenerativeBuild)->Arg(32)->Arg(128);

void BM_WalkThroughput(benchmark::State& state) {
  // Transitions per second of the sampler at a fixed configuration.
  const CsrMatrix a = plasma_a00512();
  index_t transitions = 0;
  for (auto _ : state) {
    McmcInverter inverter(a, {1.0, 0.125, 0.03125});
    benchmark::DoNotOptimize(inverter.compute().nnz());
    transitions += inverter.info().total_transitions;
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_WalkThroughput);

void BM_GmresSolve(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(48);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  IdentityPreconditioner id;
  SolveOptions opt;
  opt.restart = 250;
  for (auto _ : state) {
    std::vector<real_t> x;
    benchmark::DoNotOptimize(solve_gmres(a, b, id, x, opt).iterations);
  }
}
BENCHMARK(BM_GmresSolve);

// ---- solve orchestrator: healthy path vs the degraded fallback path ----
// Three rows sharing one matrix and request shape so the pair ratios isolate
// the orchestration cost:
//   * BM_DirectMcmcSolve     — the pre-orchestrator status quo: build the
//     MCMC preconditioner by hand, call the solver, no lifecycle management;
//   * BM_OrchestratorHealthy — the same work through SolveOrchestrator's
//     ladder (the first rung converges), measuring the request-lifecycle
//     overhead: token plumbing, stage bookkeeping, the report;
//   * BM_OrchestratorDegraded — an injected MCMC build failure per request,
//     measuring a full fallback hop (failed stage + Jacobi rescue).
// Orchestrators and caches are constructed inside the timed loop so the
// kernel cache cannot bias the healthy-vs-direct comparison.

constexpr real_t kOrchBenchTol = 1e-8;

const CsrMatrix& orch_bench_matrix() {
  static const CsrMatrix a = laplace_2d(24);
  return a;
}

SolveRequest orch_bench_request() {
  SolveRequest req;
  req.tolerance = kOrchBenchTol;
  req.mcmc_params = {1.0, 0.25, 0.125};
  return req;
}

void BM_DirectMcmcSolve(benchmark::State& state) {
  const CsrMatrix& a = orch_bench_matrix();
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const SolveRequest req = orch_bench_request();
  SolveOptions opt;
  opt.tolerance = req.tolerance;
  for (auto _ : state) {
    const auto p =
        McmcInverter::build_preconditioner(a, req.mcmc_params);
    std::vector<real_t> x;
    benchmark::DoNotOptimize(
        solve_gmres(a, b, *p, x, opt).iterations);
  }
}
BENCHMARK(BM_DirectMcmcSolve)->Unit(benchmark::kMillisecond);

void BM_OrchestratorHealthy(benchmark::State& state) {
  const CsrMatrix& a = orch_bench_matrix();
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const SolveRequest req = orch_bench_request();
  for (auto _ : state) {
    SolveOrchestrator orch(a);
    std::vector<real_t> x;
    benchmark::DoNotOptimize(orch.solve(b, x, req).iterations);
  }
}
BENCHMARK(BM_OrchestratorHealthy)->Unit(benchmark::kMillisecond);

void BM_OrchestratorDegraded(benchmark::State& state) {
  const CsrMatrix& a = orch_bench_matrix();
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const SolveRequest req = orch_bench_request();
  for (auto _ : state) {
    FaultInjector faults;
    faults.fail_builds(SolveStage::kMcmc, 1);
    SolveOrchestrator orch(a, &faults);
    std::vector<real_t> x;
    benchmark::DoNotOptimize(orch.solve(b, x, req).iterations);
  }
}
BENCHMARK(BM_OrchestratorDegraded)->Unit(benchmark::kMillisecond);

void BM_Ilu0Factorise(benchmark::State& state) {
  const CsrMatrix a = laplace_2d(64);
  for (auto _ : state) {
    Ilu0Preconditioner ilu(a);
    benchmark::DoNotOptimize(&ilu);
  }
}
BENCHMARK(BM_Ilu0Factorise);

void BM_FeatureExtraction(benchmark::State& state) {
  const CsrMatrix a = plasma_a00512();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_features(a).to_vector().data());
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_GnnForward(benchmark::State& state) {
  const gnn::Graph g = gnn::Graph::from_csr(laplace_2d(32));
  gnn::GnnConfig config;
  config.hidden = static_cast<index_t>(state.range(0));
  gnn::GnnStack stack(config, 1, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.forward(g, false).data().data());
  }
}
BENCHMARK(BM_GnnForward)->Arg(16)->Arg(64);

void BM_GnnBackward(benchmark::State& state) {
  const gnn::Graph g = gnn::Graph::from_csr(laplace_2d(32));
  gnn::GnnConfig config;
  config.hidden = 32;
  gnn::GnnStack stack(config, 1, 7);
  nn::Tensor grad(1, 32, 1.0);
  for (auto _ : state) {
    stack.forward(g, true);
    stack.backward(g, grad);
  }
}
BENCHMARK(BM_GnnBackward);

void BM_ExpectedImprovement(benchmark::State& state) {
  const EiContext ctx{0.8, 0.05};
  real_t mu = 0.7;
  for (auto _ : state) {
    mu += 1e-9;
    benchmark::DoNotOptimize(expected_improvement(mu, 0.3, ctx));
  }
}
BENCHMARK(BM_ExpectedImprovement);

void BM_LbfgsbRosenbrock(benchmark::State& state) {
  Bounds bounds{{-2.0, -2.0}, {2.0, 2.0}};
  auto f = [](const std::vector<real_t>& x, std::vector<real_t>& g) {
    const real_t a = 1.0 - x[0];
    const real_t b = x[1] - x[0] * x[0];
    g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
    return a * a + 100.0 * b * b;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimize_lbfgsb(f, {-1.2, 1.0}, bounds).value);
  }
}
BENCHMARK(BM_LbfgsbRosenbrock);

}  // namespace

#define MCMI_BENCH_DEFAULT_JSON "BENCH_micro_kernels.json"
#include "json_main.hpp"
