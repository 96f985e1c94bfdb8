#include "mcmc/batched_build.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "mcmc/csr_arena.hpp"
#include "mcmc/emission.hpp"

namespace mcmi {

namespace {

/// Exact bit pattern of a double: the grouping key wherever "the same
/// parameter value" must mean bitwise equality (delta groups, alpha groups).
u64 float_bits(real_t x) {
  u64 k;
  std::memcpy(&k, &x, sizeof(k));
  return k;
}

/// Trials sharing one (alpha, delta) share one stopping rule (the cutoff T
/// is a pure function of delta and that alpha's kernel norm), so their walks
/// stop at identical steps and a smaller-N trial's accumulator is
/// bit-for-bit the prefix of a larger one: the group accumulates through ONE
/// stream and snapshots it at each member's chain-count boundary.
struct SegEntry {
  real_t delta = 0.0;            ///< the group's truncation threshold
  index_t cutoff = 0;            ///< the group's delta-implied walk cutoff
  index_t target = 0;            ///< unit whose accumulator takes the adds
  index_t alpha = 0;             ///< the group's alpha index (weight stream)
  index_t slot = 0;              ///< index among all segments' entries
  std::vector<index_t> trials;   ///< members active in this segment
};

/// Accumulator snapshot at a segment boundary: dst's chains are exhausted,
/// so it freezes a bit-copy of the group stream accumulated so far.
struct CopyOp {
  index_t src = 0;  ///< unit id owning the group stream
  index_t dst = 0;  ///< unit id receiving the frozen snapshot
};

/// The active-group schedule for one contiguous range of chain indices
/// (constant active sets: chain counts are the segment bounds), plus the
/// snapshots to take once the segment's chains are done.
struct ChainSegment {
  index_t chain_begin = 0;
  index_t chain_end = 0;
  std::vector<SegEntry> entries;
  std::vector<CopyOp> copies;
};

/// One group's place in a walk's live list: the stopping rule, the
/// accumulator of the segment's target unit (thread-private, lane-specific),
/// the alpha index selecting the weight stream, and the entry's slot, which
/// counts the group's transitions and retirements for all its members.
struct LiveGroup {
  real_t delta = 0.0;
  real_t* acc = nullptr;
  index_t cutoff = 0;
  index_t alpha = 0;
  index_t slot = 0;
};

/// Chain indices [0, N_max) split at the distinct chain counts, with units
/// grouped by exact (alpha index, delta bits).  Per segment, each group
/// accumulates into its smallest still-active member; at the segment's end
/// boundary the stream is snapshotted into every member whose chains end
/// there (and handed to the next member, which resumes the same stream — FP
/// addition order per unit is exactly the standalone chain-major order).
std::vector<ChainSegment> build_segments(const std::vector<index_t>& n_chains,
                                         const std::vector<real_t>& deltas,
                                         const std::vector<index_t>& cutoffs,
                                         const std::vector<index_t>& alpha_of) {
  std::vector<index_t> bounds = n_chains;
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Stop-rule groups keyed by (alpha index, delta bits), in first-appearance
  // order (a deterministic order keeps the scatter sequence, and so the
  // output, independent of any map iteration quirks).  Members sorted by
  // chain count ascending, input order on ties.
  std::vector<std::vector<index_t>> groups;
  for (std::size_t t = 0; t < deltas.size(); ++t) {
    bool placed = false;
    for (auto& members : groups) {
      const auto lead = static_cast<std::size_t>(members.front());
      if (alpha_of[lead] == alpha_of[t] &&
          float_bits(deltas[lead]) == float_bits(deltas[t])) {
        members.push_back(static_cast<index_t>(t));
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({static_cast<index_t>(t)});
  }
  for (auto& members : groups) {
    std::stable_sort(members.begin(), members.end(),
                     [&](index_t x, index_t y) {
                       return n_chains[static_cast<std::size_t>(x)] <
                              n_chains[static_cast<std::size_t>(y)];
                     });
  }

  std::vector<ChainSegment> segments;
  index_t prev = 0;
  index_t slots = 0;
  for (index_t b : bounds) {
    ChainSegment seg;
    seg.chain_begin = prev;
    seg.chain_end = b;
    for (const auto& members : groups) {
      SegEntry entry;
      for (index_t t : members) {
        // Chain counts are segment bounds, so N_t > prev means the member
        // is active for every chain index of this segment.
        if (n_chains[static_cast<std::size_t>(t)] > prev) {
          entry.trials.push_back(t);
        }
      }
      if (entry.trials.empty()) continue;
      entry.target = entry.trials.front();  // smallest active chain count
      entry.delta = deltas[static_cast<std::size_t>(entry.target)];
      entry.cutoff = cutoffs[static_cast<std::size_t>(entry.target)];
      entry.alpha = alpha_of[static_cast<std::size_t>(entry.target)];
      entry.slot = slots++;
      // Members whose chains end at this segment's bound freeze a snapshot
      // of the stream; the next member resumes it.
      if (n_chains[static_cast<std::size_t>(entry.target)] == b) {
        index_t next_target = -1;
        for (index_t t : entry.trials) {
          if (n_chains[static_cast<std::size_t>(t)] == b &&
              t != entry.target) {
            seg.copies.push_back({entry.target, t});
          } else if (n_chains[static_cast<std::size_t>(t)] > b) {
            next_target = t;
            break;  // members are sorted: first one past b resumes
          }
        }
        if (next_target >= 0) seg.copies.push_back({entry.target, next_target});
      }
      seg.entries.push_back(std::move(entry));
    }
    segments.push_back(std::move(seg));
    prev = b;
  }
  return segments;
}

/// One replicate's in-flight walk in the interleaved (lockstep) ensemble:
/// its RNG stream, walk position, per-alpha weight streams, and the live
/// stop-rule groups scattering into this replicate's accumulators.
struct Lane {
  Xoshiro256 rng{0};
  index_t state = 0;
  index_t steps = 0;
  index_t live_count = 0;
  LiveGroup* live = nullptr;  ///< lane-private scratch slice
  real_t weight = 1.0;        ///< the walk weight of a one-alpha build
  real_t* weights = nullptr;  ///< per-alpha weights of a multi-alpha build
  long long* trans = nullptr; ///< per-slot transition counters of this lane
  long long* retired = nullptr;  ///< per-slot divergence retirements
  /// States this lane's groups accumulated into, each pushed when one of
  /// its accumulators was exactly 0.0 (so possibly more than once).
  std::vector<index_t>* visited = nullptr;
  u64 diverged = 0;           ///< per-alpha sticky divergence bitmask
};

/// Add one step's weight to accumulator `acc` at `state`, recording the
/// state in `visited` when the slot was exactly 0.0 before: the touched set
/// then covers every nonzero slot of every group stream of the lane.
[[gnu::always_inline]] inline void accumulate(std::vector<index_t>& visited,
                                              real_t* acc, index_t state,
                                              real_t weight) {
  real_t& slot = acc[state];
  if (slot == 0.0) visited.push_back(state);
  slot += weight;
}

/// One transition of `lane`'s walk; false once the walk has ended (every
/// group stopped, absorbed, or retired by the divergence guard).  Each
/// group accumulates steps 1..min(T, S - 1, L) and counts min(T, S, L)
/// transitions, S the first step with |W| < delta or past the divergence
/// guard and L the walk's own length — the stopping rule of one standalone
/// walk per group, applied to one shared weight sequence.
///
/// With `multi_alpha`, successor draws are shared across alphas (the caller
/// guarantees bitwise-identical sampling structures; `kernels[0]` samples)
/// while each alpha multiplies its own signed row-sum stream — a diverging
/// alpha retires only its own groups, bit-tracked in `Lane::diverged`.
template <SamplingMethod method, bool multi_alpha>
[[gnu::always_inline]] inline bool lane_step(const WalkKernel* const* kernels,
                                             index_t n_alphas,
                                             Lane& lane) {
  const WalkKernel& k0 = *kernels[0];
  const index_t begin = k0.row_ptr[lane.state];
  const index_t end = k0.row_ptr[lane.state + 1];
  if (begin == end) {
    // Absorbing state: the surviving groups consumed the whole walk.
    for (index_t m = 0; m < lane.live_count; ++m) {
      lane.trans[lane.live[m].slot] += lane.steps;
    }
    return false;
  }
  index_t p;
  if constexpr (method == SamplingMethod::kAlias) {
    p = k0.alias.sample(begin, end, lane.rng());
  } else {
    const real_t target = uniform01(lane.rng) * k0.row_sum[lane.state];
    const auto first = k0.cum_abs.begin() + begin;
    const auto last = k0.cum_abs.begin() + end;
    auto it = std::upper_bound(first, last, target);
    if (it == last) --it;
    p = static_cast<index_t>(it - k0.cum_abs.begin());
  }
  lane.state = k0.succ[p];
  ++lane.steps;
  if constexpr (!multi_alpha) {
    lane.weight *= k0.signed_sum[p];
    const real_t aw = std::abs(lane.weight);
    if (aw > kDivergenceGuard) {
      // Blow-up: every still-running group breaks at this counted step,
      // with nothing accumulated.
      for (index_t m = 0; m < lane.live_count; ++m) {
        lane.trans[lane.live[m].slot] += lane.steps;
        lane.retired[lane.live[m].slot] += 1;
      }
      return false;
    }
    for (index_t m = 0; m < lane.live_count;) {
      LiveGroup& e = lane.live[m];
      if (aw < e.delta) {
        // Sticky truncation: crossing step counted, not accumulated.
        lane.trans[e.slot] += lane.steps;
        e = lane.live[--lane.live_count];
        continue;
      }
      accumulate(*lane.visited, e.acc, lane.state, lane.weight);
      if (lane.steps == e.cutoff) {
        lane.trans[e.slot] += lane.steps;
        e = lane.live[--lane.live_count];
        continue;
      }
      ++m;
    }
  } else {
    // Shared successor draw, one weight stream per alpha.  A diverged alpha
    // stops updating (its walks have ended; the flag keeps inf out of the
    // stream) and retires its groups at this counted step.
    for (index_t a = 0; a < n_alphas; ++a) {
      if ((lane.diverged >> a) & 1u) continue;
      lane.weights[a] *= kernels[a]->signed_sum[p];
      if (std::abs(lane.weights[a]) > kDivergenceGuard) {
        lane.diverged |= u64{1} << a;
      }
    }
    for (index_t m = 0; m < lane.live_count;) {
      LiveGroup& e = lane.live[m];
      if ((lane.diverged >> e.alpha) & 1u) {
        lane.trans[e.slot] += lane.steps;
        lane.retired[e.slot] += 1;
        e = lane.live[--lane.live_count];
        continue;
      }
      const real_t weight = lane.weights[e.alpha];
      const real_t aw = std::abs(weight);
      if (aw < e.delta) {
        lane.trans[e.slot] += lane.steps;
        e = lane.live[--lane.live_count];
        continue;
      }
      accumulate(*lane.visited, e.acc, lane.state, weight);
      if (lane.steps == e.cutoff) {
        lane.trans[e.slot] += lane.steps;
        e = lane.live[--lane.live_count];
        continue;
      }
      ++m;
    }
  }
  return lane.live_count > 0;
}

/// The walk loop of every MCMC build, over the chains of one segment of row
/// `row`: every lane starts chain c from its stream (`row_keys` holds each
/// lane's (seed, row) key) and the segment's
/// live groups, then all lanes advance in lockstep, one step per lane per
/// round.  The lanes' dependent kernel-load
/// chains (state -> row_ptr -> alias table -> succ) are mutually
/// independent, so interleaving them lets the CPU overlap R pointer chases
/// where a per-replicate loop exposes one.  Finished lanes are swap-removed
/// so a round only touches running walks; the last one walks on alone from
/// a local copy, whose walk state the compiler keeps in registers — the
/// whole walk of a one-lane (standalone or single-seed grid) build.
///
/// Lanes write disjoint accumulators and each lane's adds land in the
/// chain-major, step-major order of one standalone walk per unit, so every
/// output is bit-identical at any lane count and any interleaving.
///
/// Touched states are tracked per lane (`Lane::visited`), not
/// as a cross-lane union: each replicate's emission and snapshot copies then
/// stream exactly the states its own walks reached, so a replicate pays the
/// same emission work it would standalone even when replicate walks touch
/// disjoint regions of a large graph.
template <SamplingMethod method, bool multi_alpha>
void run_lockstep_chains(const WalkKernel* const* kernels, index_t n_alphas,
                         const u64* row_keys, index_t row,
                         const ChainSegment& seg, const LiveGroup* live,
                         Lane* lanes, Lane** active_lanes,
                         index_t n_lanes) {
  const auto entries = static_cast<index_t>(seg.entries.size());
  for (index_t c = seg.chain_begin; c < seg.chain_end; ++c) {
    for (index_t r = 0; r < n_lanes; ++r) {
      Lane& lane = lanes[r];
      lane.rng = substream(row_keys[r], static_cast<u64>(c));
      lane.state = row;
      lane.steps = 0;
      lane.diverged = 0;
      for (index_t m = 0; m < entries; ++m) {
        lane.live[m] = live[r * entries + m];
      }
      lane.live_count = entries;
      lane.weight = 1.0;
      if constexpr (multi_alpha) {
        for (index_t al = 0; al < n_alphas; ++al) lane.weights[al] = 1.0;
      }
      // k = 0 term of the Neumann series, once per chain per group.
      for (index_t m = 0; m < entries; ++m) lane.live[m].acc[row] += 1.0;
    }
    index_t active = n_lanes;
    for (index_t w = 0; w < n_lanes; ++w) active_lanes[w] = &lanes[w];
    while (active > 1) {
      for (index_t w = 0; w < active;) {
        if (lane_step<method, multi_alpha>(kernels, n_alphas,
                                           *active_lanes[w])) {
          ++w;
        } else {
          active_lanes[w] = active_lanes[--active];
        }
      }
    }
    if (active == 1) {
      Lane lane = *active_lanes[0];
      while (lane_step<method, multi_alpha>(kernels, n_alphas, lane)) {
      }
    }
  }
}

/// The instantiation of run_lockstep_chains for a sampler and alpha count.
using ChainLoop = void (*)(const WalkKernel* const*, index_t, const u64*,
                           index_t, const ChainSegment&, const LiveGroup*,
                           Lane*, Lane**, index_t);

ChainLoop chain_loop(SamplingMethod method, bool multi_alpha) {
  if (method == SamplingMethod::kAlias) {
    return multi_alpha ? run_lockstep_chains<SamplingMethod::kAlias, true>
                       : run_lockstep_chains<SamplingMethod::kAlias, false>;
  }
  return multi_alpha ? run_lockstep_chains<SamplingMethod::kInverseCdf, true>
                     : run_lockstep_chains<SamplingMethod::kInverseCdf, false>;
}

/// Flattened build request for the interleaved engine: one "unit" per
/// (alpha, trial) pair, one lane per replicate seed.
struct EngineUnits {
  std::vector<GridTrial> trials;  ///< per unit
  std::vector<index_t> alpha_of;  ///< per unit: index into the kernel list
};

/// Engine outputs, indexed [lane][unit].
struct EngineOutput {
  std::vector<std::vector<CsrMatrix>> p;
  std::vector<std::vector<McmcBuildInfo>> info;
};

/// The ensemble build behind every MCMC build: a standalone build is one
/// lane and one unit, a grid one lane and G units, a replicate grid R
/// lanes, the multi-alpha fast path R lanes over every alpha's units.
/// Phase A walks every lane in lockstep through the shared chain schedule,
/// Phase B emits every (lane, unit) row through the standalone arena path,
/// Phase C assembles per-(lane, unit) CSRs and apportions the ensemble wall
/// time by each build's own truncated transition share.
EngineOutput run_interleaved_engine(const CsrMatrix& a,
                                    const std::vector<const WalkKernel*>& kernels,
                                    const std::vector<bool>& cache_hits,
                                    const EngineUnits& units,
                                    const std::vector<u64>& seeds,
                                    const McmcOptions& options) {
  WallTimer ensemble_timer;
  const index_t n = a.rows();
  const auto n_units = static_cast<index_t>(units.trials.size());
  const auto n_lanes = static_cast<index_t>(seeds.size());
  const auto n_alphas = static_cast<index_t>(kernels.size());
  // Multi-alpha requests reach the engine only after multi_alpha_grid_build
  // verified that kernels[0]'s draws serve every alpha bit-identically
  // (can_share_successor_draws / can_share_inverse_cdf_draws per method).
  const ChainLoop run_chains = chain_loop(options.sampling, n_alphas > 1);

  std::vector<index_t> n_chains(units.trials.size());
  std::vector<index_t> cutoffs(units.trials.size());
  std::vector<real_t> deltas(units.trials.size());
  std::vector<McmcBuildInfo> info_template(units.trials.size());
  for (std::size_t u = 0; u < units.trials.size(); ++u) {
    const WalkKernel& k = *kernels[static_cast<std::size_t>(units.alpha_of[u])];
    n_chains[u] = chains_for_eps(units.trials[u].eps);
    cutoffs[u] = walk_length_for_delta(units.trials[u].delta, k.norm_inf,
                                       options.walk_cap);
    deltas[u] = units.trials[u].delta;
    McmcBuildInfo& info = info_template[u];
    info.b_norm_inf = k.norm_inf;
    info.neumann_convergent = k.norm_inf < 1.0;
    info.chains_per_row = n_chains[u];
    info.walk_cutoff = cutoffs[u];
    info.kernel_cache_hit =
        cache_hits[static_cast<std::size_t>(units.alpha_of[u])];
  }
  const std::vector<ChainSegment> segments =
      build_segments(n_chains, deltas, cutoffs, units.alpha_of);
  std::size_t n_slots = 0;
  for (const ChainSegment& seg : segments) n_slots += seg.entries.size();

  const index_t row_budget = std::max<index_t>(
      1, static_cast<index_t>(std::llround(
             options.filling_factor * static_cast<real_t>(a.nnz()) /
             static_cast<real_t>(n))));
  const real_t threshold = options.truncation_threshold;

  // Per-(lane, unit) arenas and row slices, one assembly per build.  Flat
  // index lane * n_units + unit throughout.
  const auto n_builds = static_cast<std::size_t>(n_lanes) *
                        static_cast<std::size_t>(n_units);
  const auto num_threads = static_cast<std::size_t>(max_threads());
  std::vector<std::vector<RowArena>> arenas(
      n_builds, std::vector<RowArena>(num_threads));
  // Sized in place: a fill from one prototype would also allocate and copy
  // a temporary n-row table, doubling the first-touch cost of a large build.
  std::vector<std::vector<RowSlice>> row_slices(n_builds);
  for (std::vector<RowSlice>& slices : row_slices) {
    slices.resize(static_cast<std::size_t>(n));
  }
  std::vector<long long> transitions(n_builds, 0);
  std::vector<long long> retired(n_builds, 0);
  // Cooperative cancellation: an `omp for` cannot break, so a shared flag
  // turns the remaining rows into no-ops; the partial ensemble is discarded
  // after the loops.
  std::atomic<bool> aborted{false};

#pragma omp parallel
  {
    const int tid = thread_id();
    // Thread-private workspace.  accum holds one dense accumulator per
    // (lane, unit); each lane tracks its own touched-state set so a
    // replicate's emission streams only what its own walks reached — a
    // superset of each unit's touched set within the lane, harmless
    // because never-touched states carry an exact 0.0 and fall to the
    // threshold filter, leaving each emitted row bit-identical.
    std::vector<real_t> accum(n_builds * static_cast<std::size_t>(n), 0.0);
    std::vector<std::vector<index_t>> visited(
        static_cast<std::size_t>(n_lanes));
    // Per lane, the key of the row's chain streams (seed, row).
    std::vector<u64> row_keys(static_cast<std::size_t>(n_lanes));
    // One emission engine per thread: its scratch is recycled across every
    // (trial, replicate, alpha) lane instead of re-allocated per emission.
    RowEmitter emitter;
    std::vector<EmissionUnit> group(static_cast<std::size_t>(n_units));
    std::vector<long long> slot_transitions(
        static_cast<std::size_t>(n_lanes) * n_slots, 0);
    std::vector<long long> slot_retired(
        static_cast<std::size_t>(n_lanes) * n_slots, 0);
    std::vector<real_t> inv_chains(units.trials.size());
    for (std::size_t u = 0; u < units.trials.size(); ++u) {
      inv_chains[u] = 1.0 / static_cast<real_t>(n_chains[u]);
    }
    const auto acc_of = [&](index_t lane, index_t u) {
      return accum.data() +
             (static_cast<std::size_t>(lane) *
                  static_cast<std::size_t>(n_units) +
              static_cast<std::size_t>(u)) *
                 static_cast<std::size_t>(n);
    };
    // Per-segment live-list templates with each lane's accumulator
    // pointers patched in (lane-major), plus the scratch the chains
    // consume and the per-lane weight slots.
    std::vector<std::vector<LiveGroup>> live_template(segments.size());
    std::size_t max_entries = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      for (index_t lane = 0; lane < n_lanes; ++lane) {
        for (const SegEntry& e : segments[s].entries) {
          live_template[s].push_back(
              {e.delta, acc_of(lane, e.target), e.cutoff, e.alpha, e.slot});
        }
      }
      max_entries = std::max(max_entries, segments[s].entries.size());
    }
    std::vector<LiveGroup> live(static_cast<std::size_t>(n_lanes) *
                                max_entries);
    std::vector<real_t> weights(static_cast<std::size_t>(n_lanes) *
                                static_cast<std::size_t>(n_alphas));
    std::vector<Lane> lanes(static_cast<std::size_t>(n_lanes));
    std::vector<Lane*> active_ptrs(static_cast<std::size_t>(n_lanes));
    // Lane-invariant wiring (scratch slices, counters, touched sets) is
    // fixed per thread; only the per-chain walk state is reset below.
    for (index_t r = 0; r < n_lanes; ++r) {
      Lane& lane = lanes[static_cast<std::size_t>(r)];
      lane.live = live.data() + static_cast<std::size_t>(r) * max_entries;
      lane.weights = weights.data() + static_cast<std::size_t>(r) *
                                          static_cast<std::size_t>(n_alphas);
      lane.trans =
          slot_transitions.data() + static_cast<std::size_t>(r) * n_slots;
      lane.retired =
          slot_retired.data() + static_cast<std::size_t>(r) * n_slots;
      lane.visited = &visited[static_cast<std::size_t>(r)];
    }
#pragma omp for schedule(dynamic, 8)
    for (index_t i = 0; i < n; ++i) {
      if (aborted.load(std::memory_order_relaxed)) continue;
      if (options.cancel != nullptr && options.cancel->should_stop()) {
        aborted.store(true, std::memory_order_relaxed);
        continue;
      }
      // ---- Phase A: every lane's chain c advances in lockstep through
      // the shared segment schedule, scattering into its own replicate's
      // group streams; at each segment boundary the finished members
      // freeze bit-copies of their stream per lane (the CRN invariant in
      // the header).
      for (index_t r = 0; r < n_lanes; ++r) {
        visited[static_cast<std::size_t>(r)].assign(1, i);
        row_keys[static_cast<std::size_t>(r)] =
            stream_key(seeds[static_cast<std::size_t>(r)], static_cast<u64>(i));
      }
      for (std::size_t s = 0; s < segments.size(); ++s) {
        const ChainSegment& seg = segments[s];
        run_chains(kernels.data(), n_alphas, row_keys.data(), i, seg,
                   live_template[s].data(), lanes.data(), active_ptrs.data(),
                   n_lanes);
        for (const CopyOp& op : seg.copies) {
          for (index_t r = 0; r < n_lanes; ++r) {
            const real_t* src = acc_of(r, op.src);
            real_t* dst = acc_of(r, op.dst);
            for (index_t j : visited[static_cast<std::size_t>(r)]) {
              dst[j] = src[j];
            }
          }
        }
      }
      // A state whose accumulators cancelled to exactly 0.0 and refilled,
      // or that several groups touched, was pushed more than once.
      for (std::vector<index_t>& v : visited) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
      }

      // ---- Phase B: emit every (lane, unit) row through the arena path.
      // One emit_group() per lane: the lane's units share its sorted
      // touched set (a superset of each unit's own), so unit 0's kept
      // columns pre-rank the candidates for the lane's remaining units.
      for (index_t r = 0; r < n_lanes; ++r) {
        for (index_t u = 0; u < n_units; ++u) {
          const auto b = static_cast<std::size_t>(r) *
                             static_cast<std::size_t>(n_units) +
                         static_cast<std::size_t>(u);
          group[static_cast<std::size_t>(u)] = {
              &arenas[b][static_cast<std::size_t>(tid)], acc_of(r, u),
              inv_chains[static_cast<std::size_t>(u)],
              &kernels[static_cast<std::size_t>(
                           units.alpha_of[static_cast<std::size_t>(u)])]
                   ->inv_diag,
              &row_slices[b][static_cast<std::size_t>(i)]};
        }
        emitter.emit_group(group.data(), n_units, tid,
                           visited[static_cast<std::size_t>(r)], i,
                           threshold, row_budget);
      }
    }
#pragma omp critical(mcmi_interleaved_transitions)
    {
      // Every member of an entry shares the entry's counts.
      for (index_t r = 0; r < n_lanes; ++r) {
        for (const ChainSegment& seg : segments) {
          for (const SegEntry& e : seg.entries) {
            const std::size_t k =
                static_cast<std::size_t>(r) * n_slots +
                static_cast<std::size_t>(e.slot);
            for (index_t t : e.trials) {
              const std::size_t b = static_cast<std::size_t>(r) *
                                        static_cast<std::size_t>(n_units) +
                                    static_cast<std::size_t>(t);
              transitions[b] += slot_transitions[k];
              retired[b] += slot_retired[k];
            }
          }
        }
      }
    }
  }
  const real_t ensemble_seconds = ensemble_timer.seconds();

  // Phase C: per-(lane, unit) CSR assembly, timed per build; the shared
  // ensemble time is apportioned by each build's own truncated transition
  // share so build_seconds reflects the work it would have paid standalone.
  // An aborted ensemble skips assembly: every build reports the stop reason
  // and an empty matrix (partial artifacts discarded).
  long long total_transitions = 0;
  for (long long t : transitions) total_transitions += t;
  const bool was_aborted = aborted.load();

  EngineOutput out;
  out.p.resize(static_cast<std::size_t>(n_lanes));
  out.info.resize(static_cast<std::size_t>(n_lanes));
  for (index_t r = 0; r < n_lanes; ++r) {
    auto& lane_p = out.p[static_cast<std::size_t>(r)];
    auto& lane_info = out.info[static_cast<std::size_t>(r)];
    lane_p.reserve(static_cast<std::size_t>(n_units));
    lane_info.reserve(static_cast<std::size_t>(n_units));
    for (index_t u = 0; u < n_units; ++u) {
      const auto b = static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(n_units) +
                     static_cast<std::size_t>(u);
      WallTimer assembly_timer;
      lane_p.push_back(was_aborted ? CsrMatrix()
                                   : assemble_csr_from_arenas(n, row_slices[b],
                                                              arenas[b]));
      McmcBuildInfo info = info_template[static_cast<std::size_t>(u)];
      if (was_aborted) info.status = build_stop_reason(*options.cancel);
      info.total_transitions = transitions[b];
      info.divergence_retirements = retired[b];
      const real_t share =
          total_transitions > 0
              ? static_cast<real_t>(transitions[b]) /
                    static_cast<real_t>(total_transitions)
              : 1.0 / static_cast<real_t>(n_builds);
      info.build_seconds = ensemble_seconds * share + assembly_timer.seconds();
      lane_info.push_back(info);
    }
  }
  return out;
}

/// Shared argument validation for the grid builders.
void check_grid_request(const CsrMatrix& a, real_t alpha,
                        const std::vector<GridTrial>& trials,
                        const McmcOptions& options) {
  MCMI_CHECK(a.rows() == a.cols(), "MCMCMI needs a square matrix");
  MCMI_CHECK(alpha >= 0.0, "alpha must be nonnegative");
  MCMI_CHECK(!trials.empty(), "batched grid build needs at least one trial");
  MCMI_CHECK(options.filling_factor > 0.0, "filling factor must be positive");
  for (const GridTrial& t : trials) {
    MCMI_CHECK(t.eps > 0.0 && t.eps <= 1.0, "eps must be in (0,1]");
    MCMI_CHECK(t.delta > 0.0 && t.delta <= 1.0, "delta must be in (0,1]");
  }
}

/// The walk kernel for (a, alpha): fetched from `cache` when one is given
/// (`hit` reports whether it was cached), built otherwise.
std::shared_ptr<const WalkKernel> fetch_kernel(const CsrMatrix& a,
                                               real_t alpha,
                                               WalkKernelCache* cache,
                                               bool& hit) {
  hit = false;
  if (cache != nullptr) return cache->get(a, alpha, &hit);
  return std::make_shared<const WalkKernel>(build_walk_kernel(a, alpha));
}

}  // namespace

BatchedGridResult batched_grid_build(const CsrMatrix& a, real_t alpha,
                                     const std::vector<GridTrial>& trials,
                                     const McmcOptions& options,
                                     WalkKernelCache* kernel_cache) {
  ReplicatedGridResult one = replicate_batched_grid_build(
      a, alpha, trials, {options.seed}, options, kernel_cache);
  return std::move(one.replicates.front());
}

ReplicatedGridResult replicate_batched_grid_build(
    const CsrMatrix& a, real_t alpha, const std::vector<GridTrial>& trials,
    const std::vector<u64>& replicate_seeds, const McmcOptions& options,
    WalkKernelCache* kernel_cache) {
  check_grid_request(a, alpha, trials, options);
  MCMI_CHECK(!replicate_seeds.empty(),
             "replicate-batched build needs at least one replicate seed");

  bool cache_hit = false;
  const std::shared_ptr<const WalkKernel> kernel =
      fetch_kernel(a, alpha, kernel_cache, cache_hit);
  EngineUnits units;
  units.trials = trials;
  units.alpha_of.assign(trials.size(), 0);
  EngineOutput out = run_interleaved_engine(a, {kernel.get()}, {cache_hit},
                                            units, replicate_seeds, options);
  ReplicatedGridResult result;
  result.replicates.reserve(replicate_seeds.size());
  for (std::size_t r = 0; r < replicate_seeds.size(); ++r) {
    result.replicates.push_back(
        {std::move(out.p[r]), std::move(out.info[r])});
  }
  return result;
}

bool can_share_successor_draws(const WalkKernel& lhs, const WalkKernel& rhs) {
  // Same walk graph and bitwise-equal alias decisions: a shared draw then
  // lands on the same successor slot in both kernels for every RNG word.
  return lhs.row_ptr == rhs.row_ptr && lhs.succ == rhs.succ &&
         lhs.alias.prob() == rhs.alias.prob() &&
         lhs.alias.alias() == rhs.alias.alias();
}

bool can_share_inverse_cdf_draws(const WalkKernel& lhs, const WalkKernel& rhs) {
  if (lhs.row_ptr != rhs.row_ptr || lhs.succ != rhs.succ ||
      lhs.row_sum.size() != rhs.row_sum.size()) {
    return false;
  }
  const auto n = static_cast<index_t>(lhs.row_sum.size());
  for (index_t i = 0; i < n; ++i) {
    const real_t ls = lhs.row_sum[i];
    const real_t rs = rhs.row_sum[i];
    if (ls == 0.0 && rs == 0.0) continue;  // no successors: never drawn from
    if (ls <= 0.0 || rs <= 0.0) return false;
    // The CDF draw compares u * S_u against the cum_abs prefix sums.  If
    // rhs's row is lhs's scaled by an exact power of two, both sides of
    // every comparison scale exactly (power-of-two products commute with
    // rounding in the normal range), so each RNG word selects the same
    // transition slot.  frexp only nominates the candidate ratio — the
    // division may round — so the scaling itself is verified bitwise below.
    int exponent = 0;
    const real_t ratio = rs / ls;
    if (std::frexp(ratio, &exponent) != 0.5) return false;
    if (ls * ratio != rs) return false;
    // u >= 2^-53 when nonzero, so row sums at 1e-100 or above keep every
    // u * S_u product in the normal range where the scaling argument holds.
    if (std::min(ls, rs) < 1e-100) return false;
    for (index_t p = lhs.row_ptr[i]; p < lhs.row_ptr[i + 1]; ++p) {
      if (lhs.cum_abs[static_cast<std::size_t>(p)] * ratio !=
          rhs.cum_abs[static_cast<std::size_t>(p)]) {
        return false;
      }
    }
  }
  return true;
}

MultiAlphaGridResult multi_alpha_grid_build(
    const CsrMatrix& a, const std::vector<AlphaGroup>& groups,
    const std::vector<u64>& replicate_seeds, const McmcOptions& options,
    WalkKernelCache* kernel_cache) {
  MCMI_CHECK(!groups.empty(), "multi-alpha build needs at least one group");
  MCMI_CHECK(!replicate_seeds.empty(),
             "multi-alpha build needs at least one replicate seed");
  for (const AlphaGroup& g : groups) {
    check_grid_request(a, g.alpha, g.trials, options);
  }

  const auto per_group_fallback = [&]() {
    MultiAlphaGridResult fallback;
    fallback.shared_successors = false;
    fallback.groups.reserve(groups.size());
    for (const AlphaGroup& g : groups) {
      fallback.groups.push_back(replicate_batched_grid_build(
          a, g.alpha, g.trials, replicate_seeds, options, kernel_cache));
    }
    return fallback;  // lambda-local: moves out, no CSR deep copies
  };
  // One group shares nothing; past 64 the per-alpha divergence bitmask in
  // Lane would overflow (and a request that degenerate shares nothing worth
  // having anyway) — both run one ensemble per group.
  if (groups.size() == 1 || groups.size() > 64) return per_group_fallback();

  // Fetch every group's kernel up front: the runtime sharing check needs
  // them all, and a kernel cache turns the fallback path's second fetch
  // into a hit.  Callers without a cache get a call-local one so the
  // fallback never rebuilds a kernel it already built for the check.
  WalkKernelCache local_cache;
  if (kernel_cache == nullptr) kernel_cache = &local_cache;
  std::vector<std::shared_ptr<const WalkKernel>> cached(groups.size());
  std::vector<const WalkKernel*> kernels(groups.size());
  std::vector<bool> hits(groups.size(), false);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    bool hit = false;
    cached[g] = kernel_cache->get(a, groups[g].alpha, &hit);
    kernels[g] = cached[g].get();
    hits[g] = hit;
  }

  // Draw sharing needs bitwise-identical successor decisions per method:
  // bitwise-equal alias tables on the alias path, exact power-of-two
  // scaling of the cumulative row weights on the inverse-CDF path (the
  // binary search over u * S_u is scale-invariant exactly then).
  bool shareable = true;
  for (std::size_t g = 1; shareable && g < groups.size(); ++g) {
    shareable = options.sampling == SamplingMethod::kAlias
                    ? can_share_successor_draws(*kernels[0], *kernels[g])
                    : can_share_inverse_cdf_draws(*kernels[0], *kernels[g]);
  }
  if (!shareable) return per_group_fallback();

  EngineUnits units;
  std::vector<std::size_t> offsets(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    offsets[g] = units.trials.size();
    for (const GridTrial& t : groups[g].trials) {
      units.trials.push_back(t);
      units.alpha_of.push_back(static_cast<index_t>(g));
    }
  }
  EngineOutput out = run_interleaved_engine(a, kernels, hits, units,
                                            replicate_seeds, options);

  MultiAlphaGridResult result;
  result.shared_successors = true;
  result.groups.resize(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ReplicatedGridResult& rep = result.groups[g];
    rep.replicates.resize(replicate_seeds.size());
    for (std::size_t r = 0; r < replicate_seeds.size(); ++r) {
      BatchedGridResult& b = rep.replicates[r];
      const std::size_t count = groups[g].trials.size();
      b.preconditioners.reserve(count);
      b.info.reserve(count);
      for (std::size_t t = 0; t < count; ++t) {
        b.preconditioners.push_back(std::move(out.p[r][offsets[g] + t]));
        b.info.push_back(out.info[r][offsets[g] + t]);
      }
    }
  }
  return result;
}

std::vector<AlphaGroup> group_grid_by_alpha(
    const std::vector<McmcParams>& grid) {
  std::vector<AlphaGroup> groups;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const u64 key = float_bits(grid[i].alpha);
    AlphaGroup* group = nullptr;
    for (AlphaGroup& existing : groups) {
      if (float_bits(existing.alpha) == key) {
        group = &existing;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back({grid[i].alpha, {}, {}});
      group = &groups.back();
    }
    group->indices.push_back(static_cast<index_t>(i));
    group->trials.push_back({grid[i].eps, grid[i].delta});
  }
  return groups;
}

}  // namespace mcmi
