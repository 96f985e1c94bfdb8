#include "mcmc/batched_build.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
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

/// One group's slot in the shared walk's live list: the stopping rule, the
/// accumulator of the segment's target unit (thread-private, lane-specific),
/// the alpha index selecting the weight stream, and the shared entry (for
/// per-unit transition accounting).
struct LiveGroup {
  real_t delta = 0.0;
  real_t* acc = nullptr;
  index_t cutoff = 0;
  index_t alpha = 0;
  const SegEntry* entry = nullptr;
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

/// One shared walk serving every active stop-rule group at once: it samples
/// the chain a single time and scatters each step's weight into the stream
/// accumulator of every group still running.  The scatter stores are
/// independent of the walk's pointer-chased load chain, so they hide in its
/// stalls — this is where G x O(walks) collapses into ~1 x O(walks).
///
/// `live` is the segment's group template (copied per chain); entries are
/// swap-removed the moment their stopping rule fires, so the inner loop
/// only ever touches running groups.  Removal reorders entries ACROSS
/// groups only — each group's own adds still land in the chain-major,
/// step-major order of the standalone walks, which keeps the accumulated
/// doubles bit-identical.  Per-group step semantics mirror run_walk() in
/// inverter.cpp exactly: accumulate steps 1..min(T, S - 1, L) and count
/// min(T, S, L) transitions for every active member, S the first step with
/// |W| < delta or past the divergence guard, L the shared walk's length.
/// `transitions` is indexed by trial id; `mark`/`visited` collect the union
/// of touched states for the row (epoch-tagged, no clearing between rows).
template <SamplingMethod method>
void run_shared_walk(const WalkKernel& k, index_t start, LiveGroup* live,
                     index_t live_count, long long* transitions,
                     long long* retired, Xoshiro256& rng,
                     std::vector<u32>& mark, u32 epoch,
                     std::vector<index_t>& visited) {
  if (mark[static_cast<std::size_t>(start)] != epoch) {
    mark[static_cast<std::size_t>(start)] = epoch;
    visited.push_back(start);
  }
  // k = 0 term of the Neumann series, once per chain for every group.
  for (index_t m = 0; m < live_count; ++m) live[m].acc[start] += 1.0;

  index_t state = start;
  real_t weight = 1.0;
  index_t steps = 0;
  while (live_count > 0) {
    const index_t begin = k.row_ptr[state];
    const index_t end = k.row_ptr[state + 1];
    if (begin == end) break;  // absorbing state: every group ends here
    index_t p;
    if constexpr (method == SamplingMethod::kAlias) {
      p = k.alias.sample(begin, end, rng());
    } else {
      const real_t target = uniform01(rng) * k.row_sum[state];
      const auto first = k.cum_abs.begin() + begin;
      const auto last = k.cum_abs.begin() + end;
      auto it = std::upper_bound(first, last, target);
      if (it == last) --it;
      p = static_cast<index_t>(it - k.cum_abs.begin());
    }
    weight *= k.signed_sum[p];
    state = k.succ[p];
    ++steps;
    const real_t aw = std::abs(weight);
    if (aw > kDivergenceGuard) {
      // Divergent kernel blow-up: every still-running group breaks at this
      // step, uncounted in its accumulator (run_walk breaks before the
      // accumulate).  A group is live only while steps <= its cutoff, so
      // the step is always a counted transition — and a counted retirement.
      for (index_t m = 0; m < live_count; ++m) {
        for (index_t t : live[m].entry->trials) {
          transitions[t] += steps;
          retired[t] += 1;
        }
      }
      return;
    }
    for (index_t m = 0; m < live_count;) {
      LiveGroup& e = live[m];
      if (aw < e.delta) {
        // Sticky truncation: the crossing step is counted, not accumulated.
        for (index_t t : e.entry->trials) transitions[t] += steps;
        e = live[--live_count];
        continue;
      }
      e.acc[state] += weight;
      if (steps == e.cutoff) {
        for (index_t t : e.entry->trials) transitions[t] += steps;
        e = live[--live_count];
        continue;
      }
      ++m;
    }
    if (mark[static_cast<std::size_t>(state)] != epoch) {
      mark[static_cast<std::size_t>(state)] = epoch;
      visited.push_back(state);
    }
  }
  // Absorption: the surviving groups' cutoffs all exceed `steps` (a group
  // reaching its cutoff is removed the same step), so each one consumed
  // exactly the shared walk's length.
  for (index_t m = 0; m < live_count; ++m) {
    for (index_t t : live[m].entry->trials) transitions[t] += steps;
  }
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
  real_t* weights = nullptr;  ///< per-alpha weights, 1.0 at chain start
  long long* trans = nullptr; ///< per-unit transition counters of this lane
  long long* retired = nullptr;  ///< per-unit divergence retirements
  u32* mark = nullptr;        ///< lane-private epoch marks (size n)
  std::vector<index_t>* visited = nullptr;  ///< lane-private touched states
  u64 diverged = 0;           ///< per-alpha sticky divergence bitmask
};

/// Advance every lane's chain in lockstep, one step per lane per round: the
/// lanes' dependent kernel-load chains (state -> row_ptr -> alias table ->
/// succ) are mutually independent, so interleaving them lets the CPU
/// overlap R pointer chases where the serial per-replicate loop exposes one
/// — this is where R x O(walks) collapses into ~1 x O(walks) of wall time.
///
/// Per-lane step semantics are exactly run_shared_walk's (which mirrors the
/// standalone run_walk): lanes write disjoint accumulators and each lane's
/// adds land in the standalone chain-major, step-major order, so every
/// (trial, replicate) output stays bit-identical.  Finished lanes are
/// swap-removed so the round loop only touches running walks.
///
/// With `multi_alpha`, successor draws are shared across alphas (the caller
/// guarantees bitwise-identical sampling structures; `kernels[0]` samples)
/// while each alpha multiplies its own signed row-sum stream — a diverging
/// alpha retires only its own groups, bit-tracked in `Lane::diverged`.
///
/// Touched states are tracked per lane (`Lane::mark` / `Lane::visited`), not
/// as a cross-lane union: each replicate's emission and snapshot copies then
/// stream exactly the states its own walks reached, so a replicate pays the
/// same emission work it would standalone even when replicate walks touch
/// disjoint regions of a large graph.
template <SamplingMethod method, bool multi_alpha>
void run_lockstep_chains(const WalkKernel* const* kernels, index_t n_alphas,
                         Lane* lanes, Lane** active_lanes, index_t n_lanes,
                         u32 epoch) {
  const WalkKernel& k0 = *kernels[0];
  index_t active = n_lanes;
  for (index_t w = 0; w < n_lanes; ++w) active_lanes[w] = &lanes[w];
  while (active > 0) {
    for (index_t w = 0; w < active;) {
      Lane& lane = *active_lanes[w];
      const index_t begin = k0.row_ptr[lane.state];
      const index_t end = k0.row_ptr[lane.state + 1];
      if (begin == end) {
        // Absorbing state: the surviving groups consumed the whole walk.
        for (index_t m = 0; m < lane.live_count; ++m) {
          for (index_t t : lane.live[m].entry->trials) {
            lane.trans[t] += lane.steps;
          }
        }
        active_lanes[w] = active_lanes[--active];
        continue;
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
        lane.weights[0] *= k0.signed_sum[p];
        const real_t aw = std::abs(lane.weights[0]);
        if (aw > kDivergenceGuard) {
          // Blow-up: every still-running group breaks at this counted step,
          // nothing accumulated (run_walk breaks before the accumulate).
          for (index_t m = 0; m < lane.live_count; ++m) {
            for (index_t t : lane.live[m].entry->trials) {
              lane.trans[t] += lane.steps;
              lane.retired[t] += 1;
            }
          }
          active_lanes[w] = active_lanes[--active];
          continue;
        }
        for (index_t m = 0; m < lane.live_count;) {
          LiveGroup& e = lane.live[m];
          if (aw < e.delta) {
            // Sticky truncation: crossing step counted, not accumulated.
            for (index_t t : e.entry->trials) lane.trans[t] += lane.steps;
            e = lane.live[--lane.live_count];
            continue;
          }
          e.acc[lane.state] += lane.weights[0];
          if (lane.steps == e.cutoff) {
            for (index_t t : e.entry->trials) lane.trans[t] += lane.steps;
            e = lane.live[--lane.live_count];
            continue;
          }
          ++m;
        }
      } else {
        // Shared successor draw, one weight stream per alpha.  A diverged
        // alpha stops updating (its walks have ended; the flag keeps inf
        // out of the stream) and retires its groups at this counted step.
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
            for (index_t t : e.entry->trials) {
              lane.trans[t] += lane.steps;
              lane.retired[t] += 1;
            }
            e = lane.live[--lane.live_count];
            continue;
          }
          const real_t weight = lane.weights[e.alpha];
          const real_t aw = std::abs(weight);
          if (aw < e.delta) {
            for (index_t t : e.entry->trials) lane.trans[t] += lane.steps;
            e = lane.live[--lane.live_count];
            continue;
          }
          e.acc[lane.state] += weight;
          if (lane.steps == e.cutoff) {
            for (index_t t : e.entry->trials) lane.trans[t] += lane.steps;
            e = lane.live[--lane.live_count];
            continue;
          }
          ++m;
        }
      }
      // Mark before retiring the lane: a cutoff removal above accumulated
      // into this state, so this lane's emission must see it.
      if (lane.mark[static_cast<std::size_t>(lane.state)] != epoch) {
        lane.mark[static_cast<std::size_t>(lane.state)] = epoch;
        lane.visited->push_back(lane.state);
      }
      if (lane.live_count == 0) {
        active_lanes[w] = active_lanes[--active];
        continue;
      }
      ++w;
    }
  }
}

/// The compile-time lane-width tier of the lockstep engine: the same chain
/// semantics as `run_lockstep_chains<method, false>` with the per-lane walk
/// state (RNG words, position, weight, step count) hoisted out of the `Lane`
/// structs into W-wide struct-of-arrays locals the compiler can keep in
/// registers, a batched RNG that advances all W streams per round
/// (`Xoshiro256Batch`), and batched alias-table lookups
/// (`AliasTable::sample_batch`) that issue the W dependent loads together.
/// Lane retirement is a bitmask instead of pointer swap-removal, so the
/// round loops have a compile-time trip count.
///
/// Bit-identity with the dynamic tier: each lane's chain stream is recreated
/// per chain via make_stream, so advancing a retired lane's (dead) stream in
/// the batched draw is unobservable; an active lane at round s has consumed
/// exactly s draws in both tiers (absorbing lanes retire *before* the round's
/// draw, exactly as the dynamic engine checks `begin == end` before
/// sampling), and every weight/accumulator/mark update below is the
/// dynamic engine's, expression for expression.  Single-alpha only — the
/// multi-alpha ensemble always runs the dynamic tier.
/// The single-unit engine of the specialised tier: when every lane's live
/// list holds exactly one group — one (alpha, trial) unit per replicate,
/// the shape of the tuning loop's per-candidate replicate evaluation — the
/// whole stop rule is lane-invariant (the unit's delta, cutoff, and
/// accounting entry are shared; only the accumulator differs per lane), so
/// it lifts out of the `LiveGroup` scratch into scalars and per-lane
/// pointer arrays.  The per-transition inner loop then touches no `Lane`
/// or `LiveGroup` storage at all: stop-rule compares run against
/// register-resident scalars and the three remaining memory accesses are
/// the kernel loads, the accumulator add, and the epoch mark — the
/// irreducible set.  Same per-lane expression order as the dynamic tier,
/// so bit-identity is preserved (see run_lockstep_chains_spec below).
template <SamplingMethod method, int W>
void run_lockstep_chains_spec_single(const WalkKernel& k0, Lane* lanes,
                                     u32 epoch) {
  const real_t delta = lanes[0].live[0].delta;
  const index_t cutoff = lanes[0].live[0].cutoff;
  const SegEntry* entry = lanes[0].live[0].entry;
  Xoshiro256Batch<W> rng;
  index_t state[W];
  index_t steps[W];
  real_t weight[W];
  real_t* acc[W];
  u32* mark[W];
  std::vector<index_t>* vis[W];
  u32 active = 0;
  for (int l = 0; l < W; ++l) {
    rng.set_lane(l, lanes[l].rng);
    state[l] = lanes[l].state;
    steps[l] = lanes[l].steps;
    weight[l] = lanes[l].weights[0];
    acc[l] = lanes[l].live[0].acc;
    mark[l] = lanes[l].mark;
    vis[l] = lanes[l].visited;
    active |= u32{1} << l;
  }
  u64 bits[W];
  index_t begin[W];
  index_t end[W];
  index_t p[W];
  while (active != 0) {
    for (int l = 0; l < W; ++l) {
      begin[l] = k0.row_ptr[state[l]];
      end[l] = k0.row_ptr[state[l] + 1];
    }
    for (int l = 0; l < W; ++l) {
      if (((active >> l) & 1u) != 0 && begin[l] == end[l]) {
        // Absorbing state: the group consumed the whole walk, no draw spent.
        for (index_t t : entry->trials) lanes[l].trans[t] += steps[l];
        active &= ~(u32{1} << l);
      }
    }
    if (active == 0) break;
    rng.next(bits);
    if constexpr (method == SamplingMethod::kAlias) {
      k0.alias.template sample_batch<W>(begin, end, bits, p);
    } else {
      for (int l = 0; l < W; ++l) {
        if (((active >> l) & 1u) == 0) {
          p[l] = 0;
          continue;
        }
        const real_t target = static_cast<real_t>(bits[l] >> 11) * 0x1.0p-53 *
                              k0.row_sum[state[l]];
        const auto first = k0.cum_abs.begin() + begin[l];
        const auto last = k0.cum_abs.begin() + end[l];
        auto it = std::upper_bound(first, last, target);
        if (it == last) --it;
        p[l] = static_cast<index_t>(it - k0.cum_abs.begin());
      }
    }
    for (int l = 0; l < W; ++l) {
      if (((active >> l) & 1u) == 0) continue;
      weight[l] *= k0.signed_sum[p[l]];
      state[l] = k0.succ[p[l]];
      ++steps[l];
      const real_t aw = std::abs(weight[l]);
      if (aw > kDivergenceGuard) {
        // Blow-up: break at this counted step, nothing accumulated, no mark.
        for (index_t t : entry->trials) {
          lanes[l].trans[t] += steps[l];
          lanes[l].retired[t] += 1;
        }
        active &= ~(u32{1} << l);
        continue;
      }
      bool done;
      if (aw < delta) {
        // Sticky truncation: crossing step counted, not accumulated.
        for (index_t t : entry->trials) lanes[l].trans[t] += steps[l];
        done = true;
      } else {
        acc[l][state[l]] += weight[l];
        done = steps[l] == cutoff;
        if (done) {
          for (index_t t : entry->trials) lanes[l].trans[t] += steps[l];
        }
      }
      // Mark before retiring the lane: a cutoff removal above accumulated
      // into this state, so this lane's emission must see it (and the
      // dynamic tier marks on delta truncation too — a zero-accumulator
      // candidate the emission threshold then drops).
      if (mark[l][static_cast<std::size_t>(state[l])] != epoch) {
        mark[l][static_cast<std::size_t>(state[l])] = epoch;
        vis[l]->push_back(state[l]);
      }
      if (done) active &= ~(u32{1} << l);
    }
  }
}

template <SamplingMethod method, int W>
void run_lockstep_chains_spec(const WalkKernel& k0, Lane* lanes, u32 epoch) {
  if (lanes[0].live_count == 1) {
    // One live group per lane (the live template is lane-uniform): take the
    // register-resident single-unit engine.
    run_lockstep_chains_spec_single<method, W>(k0, lanes, epoch);
    return;
  }
  Xoshiro256Batch<W> rng;
  index_t state[W];
  index_t steps[W];
  real_t weight[W];
  u32 active = 0;
  for (int l = 0; l < W; ++l) {
    rng.set_lane(l, lanes[l].rng);
    state[l] = lanes[l].state;
    steps[l] = lanes[l].steps;
    weight[l] = lanes[l].weights[0];
    active |= u32{1} << l;
  }
  u64 bits[W];
  index_t begin[W];
  index_t end[W];
  index_t p[W];
  while (active != 0) {
    // Gather the row ranges of all W lanes together (a retired lane reads
    // its stale — still valid — position; its range is never acted on).
    for (int l = 0; l < W; ++l) {
      begin[l] = k0.row_ptr[state[l]];
      end[l] = k0.row_ptr[state[l] + 1];
    }
    // Absorbing states retire before the draw: the surviving groups
    // consumed the whole walk, and no RNG word is spent (the dynamic tier
    // breaks before sampling too).
    for (int l = 0; l < W; ++l) {
      if (((active >> l) & 1u) != 0 && begin[l] == end[l]) {
        Lane& lane = lanes[l];
        for (index_t m = 0; m < lane.live_count; ++m) {
          for (index_t t : lane.live[m].entry->trials) {
            lane.trans[t] += steps[l];
          }
        }
        active &= ~(u32{1} << l);
      }
    }
    if (active == 0) break;
    // One batched draw advances every lane's stream; retired lanes' words
    // are dead (their streams are re-keyed at the next chain).
    rng.next(bits);
    if constexpr (method == SamplingMethod::kAlias) {
      k0.alias.template sample_batch<W>(begin, end, bits, p);
    } else {
      for (int l = 0; l < W; ++l) {
        if (((active >> l) & 1u) == 0) {
          p[l] = 0;
          continue;
        }
        const real_t target = static_cast<real_t>(bits[l] >> 11) * 0x1.0p-53 *
                              k0.row_sum[state[l]];
        const auto first = k0.cum_abs.begin() + begin[l];
        const auto last = k0.cum_abs.begin() + end[l];
        auto it = std::upper_bound(first, last, target);
        if (it == last) --it;
        p[l] = static_cast<index_t>(it - k0.cum_abs.begin());
      }
    }
    for (int l = 0; l < W; ++l) {
      if (((active >> l) & 1u) == 0) continue;
      Lane& lane = lanes[l];
      weight[l] *= k0.signed_sum[p[l]];
      state[l] = k0.succ[p[l]];
      ++steps[l];
      const real_t aw = std::abs(weight[l]);
      if (aw > kDivergenceGuard) {
        // Blow-up: every still-running group breaks at this counted step,
        // nothing accumulated and no mark (run_walk breaks before both).
        for (index_t m = 0; m < lane.live_count; ++m) {
          for (index_t t : lane.live[m].entry->trials) {
            lane.trans[t] += steps[l];
            lane.retired[t] += 1;
          }
        }
        active &= ~(u32{1} << l);
        continue;
      }
      for (index_t m = 0; m < lane.live_count;) {
        LiveGroup& e = lane.live[m];
        if (aw < e.delta) {
          // Sticky truncation: crossing step counted, not accumulated.
          for (index_t t : e.entry->trials) lane.trans[t] += steps[l];
          e = lane.live[--lane.live_count];
          continue;
        }
        e.acc[state[l]] += weight[l];
        if (steps[l] == e.cutoff) {
          for (index_t t : e.entry->trials) lane.trans[t] += steps[l];
          e = lane.live[--lane.live_count];
          continue;
        }
        ++m;
      }
      // Mark before retiring the lane: a cutoff removal above accumulated
      // into this state, so this lane's emission must see it.
      if (lane.mark[static_cast<std::size_t>(state[l])] != epoch) {
        lane.mark[static_cast<std::size_t>(state[l])] = epoch;
        lane.visited->push_back(state[l]);
      }
      if (lane.live_count == 0) active &= ~(u32{1} << l);
    }
  }
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

/// The interleaved ensemble build shared by replicate_batched_grid_build
/// (one alpha, R lanes) and the multi-alpha fast path (A alphas, R lanes):
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
  const bool multi = n_alphas > 1;

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

  const index_t row_budget = std::max<index_t>(
      1, static_cast<index_t>(std::llround(
             options.filling_factor * static_cast<real_t>(a.nnz()) /
             static_cast<real_t>(n))));
  const real_t threshold = options.truncation_threshold;

  // Per-(lane, unit) arenas and row slices: the assembly path of the
  // standalone inverter, instantiated once per build.  Flat index
  // lane * n_units + unit throughout.
  const auto n_builds = static_cast<std::size_t>(n_lanes) *
                        static_cast<std::size_t>(n_units);
  const auto num_threads = static_cast<std::size_t>(max_threads());
  std::vector<std::vector<RowArena>> arenas(
      n_builds, std::vector<RowArena>(num_threads));
  std::vector<std::vector<RowSlice>> row_slices(
      n_builds, std::vector<RowSlice>(static_cast<std::size_t>(n)));
  std::vector<long long> transitions(n_builds, 0);
  std::vector<long long> retired(n_builds, 0);
  // Cooperative cancellation: an `omp for` cannot break, so a shared flag
  // turns the remaining rows into no-ops; the partial ensemble is discarded
  // after the loops.
  std::atomic<bool> aborted{false};

  const ChainPartition partition(n, options.ranks);
  for (index_t rank = 0; rank < options.ranks; ++rank) {
    const index_t row_begin = partition.begin(rank);
    const index_t row_end = partition.end(rank);
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
      std::vector<u32> mark(static_cast<std::size_t>(n_lanes) *
                                static_cast<std::size_t>(n),
                            0);
      u32 epoch = 0;
      std::vector<std::vector<index_t>> visited(
          static_cast<std::size_t>(n_lanes));
      // One emission engine per thread: its scratch is recycled across every
      // (trial, replicate, alpha) lane instead of re-allocated per emission.
      RowEmitter emitter;
      std::vector<EmissionUnit> group(static_cast<std::size_t>(n_units));
      std::vector<long long> local_transitions(n_builds, 0);
      std::vector<long long> local_retired(n_builds, 0);
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
                {e.delta, acc_of(lane, e.target), e.cutoff, e.alpha, &e});
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
        lane.trans = local_transitions.data() +
                     static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(n_units);
        lane.retired = local_retired.data() +
                       static_cast<std::size_t>(r) *
                           static_cast<std::size_t>(n_units);
        lane.mark = mark.data() +
                    static_cast<std::size_t>(r) * static_cast<std::size_t>(n);
        lane.visited = &visited[static_cast<std::size_t>(r)];
      }
#pragma omp for schedule(dynamic, 8)
      for (index_t i = row_begin; i < row_end; ++i) {
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
        ++epoch;
        for (index_t r = 0; r < n_lanes; ++r) {
          visited[static_cast<std::size_t>(r)].clear();
          visited[static_cast<std::size_t>(r)].push_back(i);
          mark[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(i)] = epoch;
        }
        for (std::size_t s = 0; s < segments.size(); ++s) {
          const ChainSegment& seg = segments[s];
          const auto entries =
              static_cast<index_t>(segments[s].entries.size());
          for (index_t c = seg.chain_begin; c < seg.chain_end; ++c) {
            for (index_t r = 0; r < n_lanes; ++r) {
              Lane& lane = lanes[static_cast<std::size_t>(r)];
              lane.rng = make_stream(seeds[static_cast<std::size_t>(r)],
                                     static_cast<u64>(i), static_cast<u64>(c));
              lane.state = i;
              lane.steps = 0;
              lane.diverged = 0;
              std::copy(live_template[s].begin() +
                            static_cast<std::ptrdiff_t>(r * entries),
                        live_template[s].begin() +
                            static_cast<std::ptrdiff_t>((r + 1) * entries),
                        lane.live);
              lane.live_count = entries;
              for (index_t al = 0; al < n_alphas; ++al) {
                lane.weights[al] = 1.0;
              }
              // k = 0 term of the Neumann series, once per chain per group.
              for (index_t m = 0; m < entries; ++m) lane.live[m].acc[i] += 1.0;
            }
            // Lane-tier dispatch on the active lane count: single-alpha
            // ensembles whose lane count matches a compiled width run the
            // SIMD tier (register-resident SoA state, batched RNG + alias
            // lookups); everything else — multi-alpha, odd lane counts, or
            // an explicit opt-out — runs the dynamic tier.  Both tiers are
            // bit-identical, so the choice is invisible in the output.
            const bool spec = !multi && !options.force_dynamic_lanes &&
                              (n_lanes == 4 || n_lanes == 8 || n_lanes == 16);
            if (options.sampling == SamplingMethod::kAlias) {
              if (multi) {
                run_lockstep_chains<SamplingMethod::kAlias, true>(
                    kernels.data(), n_alphas, lanes.data(), active_ptrs.data(),
                    n_lanes, epoch);
              } else if (spec && n_lanes == 4) {
                run_lockstep_chains_spec<SamplingMethod::kAlias, 4>(
                    *kernels[0], lanes.data(), epoch);
              } else if (spec && n_lanes == 8) {
                run_lockstep_chains_spec<SamplingMethod::kAlias, 8>(
                    *kernels[0], lanes.data(), epoch);
              } else if (spec && n_lanes == 16) {
                run_lockstep_chains_spec<SamplingMethod::kAlias, 16>(
                    *kernels[0], lanes.data(), epoch);
              } else {
                run_lockstep_chains<SamplingMethod::kAlias, false>(
                    kernels.data(), n_alphas, lanes.data(), active_ptrs.data(),
                    n_lanes, epoch);
              }
            } else {
              if (multi) {
                run_lockstep_chains<SamplingMethod::kInverseCdf, true>(
                    kernels.data(), n_alphas, lanes.data(), active_ptrs.data(),
                    n_lanes, epoch);
              } else if (spec && n_lanes == 4) {
                run_lockstep_chains_spec<SamplingMethod::kInverseCdf, 4>(
                    *kernels[0], lanes.data(), epoch);
              } else if (spec && n_lanes == 8) {
                run_lockstep_chains_spec<SamplingMethod::kInverseCdf, 8>(
                    *kernels[0], lanes.data(), epoch);
              } else if (spec && n_lanes == 16) {
                run_lockstep_chains_spec<SamplingMethod::kInverseCdf, 16>(
                    *kernels[0], lanes.data(), epoch);
              } else {
                run_lockstep_chains<SamplingMethod::kInverseCdf, false>(
                    kernels.data(), n_alphas, lanes.data(), active_ptrs.data(),
                    n_lanes, epoch);
              }
            }
          }
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
        for (index_t r = 0; r < n_lanes; ++r) {
          std::sort(visited[static_cast<std::size_t>(r)].begin(),
                    visited[static_cast<std::size_t>(r)].end());
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
        for (std::size_t b = 0; b < n_builds; ++b) {
          transitions[b] += local_transitions[b];
          retired[b] += local_retired[b];
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

}  // namespace

BatchedGridResult batched_grid_build(const CsrMatrix& a, real_t alpha,
                                     const std::vector<GridTrial>& trials,
                                     const McmcOptions& options,
                                     WalkKernelCache* kernel_cache) {
  check_grid_request(a, alpha, trials, options);

  WallTimer ensemble_timer;
  const index_t n = a.rows();
  const auto g = static_cast<index_t>(trials.size());

  std::shared_ptr<const WalkKernel> cached;
  WalkKernel local;
  bool cache_hit = false;
  if (kernel_cache != nullptr) {
    cached = kernel_cache->get(a, alpha, &cache_hit);
  } else {
    local = build_walk_kernel(a, alpha);
  }
  const WalkKernel& kernel = cached ? *cached : local;

  std::vector<index_t> n_chains(trials.size());
  std::vector<index_t> cutoffs(trials.size());
  std::vector<real_t> deltas(trials.size());
  BatchedGridResult result;
  result.info.resize(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    n_chains[t] = chains_for_eps(trials[t].eps);
    cutoffs[t] = walk_length_for_delta(trials[t].delta, kernel.norm_inf,
                                       options.walk_cap);
    deltas[t] = trials[t].delta;
    McmcBuildInfo& info = result.info[t];
    info.b_norm_inf = kernel.norm_inf;
    info.neumann_convergent = kernel.norm_inf < 1.0;
    info.chains_per_row = n_chains[t];
    info.walk_cutoff = cutoffs[t];
    info.kernel_cache_hit = cache_hit;
  }
  const std::vector<index_t> alpha_of(trials.size(), 0);
  const std::vector<ChainSegment> segments =
      build_segments(n_chains, deltas, cutoffs, alpha_of);

  const index_t row_budget = std::max<index_t>(
      1, static_cast<index_t>(std::llround(
             options.filling_factor * static_cast<real_t>(a.nnz()) /
             static_cast<real_t>(n))));
  const real_t threshold = options.truncation_threshold;

  // Per-trial arenas and row slices: the assembly path of the standalone
  // inverter, instantiated once per trial.
  const auto num_threads = static_cast<std::size_t>(max_threads());
  std::vector<std::vector<RowArena>> arenas(
      trials.size(), std::vector<RowArena>(num_threads));
  std::vector<std::vector<RowSlice>> row_slices(
      trials.size(), std::vector<RowSlice>(static_cast<std::size_t>(n)));
  std::vector<long long> transitions(trials.size(), 0);
  std::vector<long long> retired(trials.size(), 0);
  // Cooperative cancellation: an `omp for` cannot break, so a shared flag
  // turns the remaining rows into no-ops; the partial batch is discarded
  // after the loops.
  std::atomic<bool> aborted{false};

  const ChainPartition partition(n, options.ranks);
  for (index_t rank = 0; rank < options.ranks; ++rank) {
    const index_t row_begin = partition.begin(rank);
    const index_t row_end = partition.end(rank);
#pragma omp parallel
    {
      const int tid = thread_id();
      // Thread-private workspace.  accum holds one dense accumulator per
      // trial; mark/visited track the union of touched states per row — a
      // superset of every trial's own touched set, harmless because
      // never-touched states carry an exact 0.0 and fall to the threshold
      // filter, leaving each trial's emitted row bit-identical.
      std::vector<real_t> accum(
          static_cast<std::size_t>(g) * static_cast<std::size_t>(n), 0.0);
      std::vector<u32> mark(static_cast<std::size_t>(n), 0);
      u32 epoch = 0;
      std::vector<index_t> visited;
      // One emission engine per thread, recycled across every trial's rows.
      RowEmitter emitter;
      std::vector<EmissionUnit> group(static_cast<std::size_t>(g));
      std::vector<long long> local_transitions(trials.size(), 0);
      std::vector<long long> local_retired(trials.size(), 0);
      std::vector<real_t> inv_chains(trials.size());
      for (std::size_t t = 0; t < trials.size(); ++t) {
        inv_chains[t] = 1.0 / static_cast<real_t>(n_chains[t]);
      }
      const auto acc_of = [&](index_t t) {
        return accum.data() +
               static_cast<std::size_t>(t) * static_cast<std::size_t>(n);
      };
      // Per-segment live-list templates with this thread's accumulator
      // pointers patched in, plus the scratch copy each chain consumes.
      std::vector<std::vector<LiveGroup>> live_template(segments.size());
      std::size_t max_entries = 0;
      for (std::size_t s = 0; s < segments.size(); ++s) {
        for (const SegEntry& e : segments[s].entries) {
          live_template[s].push_back(
              {e.delta, acc_of(e.target), e.cutoff, e.alpha, &e});
        }
        max_entries = std::max(max_entries, live_template[s].size());
      }
      std::vector<LiveGroup> live(max_entries);
#pragma omp for schedule(dynamic, 8)
      for (index_t i = row_begin; i < row_end; ++i) {
        if (aborted.load(std::memory_order_relaxed)) continue;
        if (options.cancel != nullptr && options.cancel->should_stop()) {
          aborted.store(true, std::memory_order_relaxed);
          continue;
        }
        // ---- Phase A: one shared walk per chain, scattering into every
        // running group's stream accumulator; at each segment boundary the
        // finished members freeze bit-copies of their stream (see the CRN
        // invariant in the header).
        ++epoch;
        visited.clear();
        for (std::size_t s = 0; s < segments.size(); ++s) {
          const ChainSegment& seg = segments[s];
          const auto live_count =
              static_cast<index_t>(live_template[s].size());
          for (index_t c = seg.chain_begin; c < seg.chain_end; ++c) {
            std::copy(live_template[s].begin(), live_template[s].end(),
                      live.begin());
            Xoshiro256 rng = make_stream(options.seed, static_cast<u64>(i),
                                         static_cast<u64>(c));
            if (options.sampling == SamplingMethod::kAlias) {
              run_shared_walk<SamplingMethod::kAlias>(
                  kernel, i, live.data(), live_count,
                  local_transitions.data(), local_retired.data(), rng, mark,
                  epoch, visited);
            } else {
              run_shared_walk<SamplingMethod::kInverseCdf>(
                  kernel, i, live.data(), live_count,
                  local_transitions.data(), local_retired.data(), rng, mark,
                  epoch, visited);
            }
          }
          for (const CopyOp& op : seg.copies) {
            const real_t* src = acc_of(op.src);
            real_t* dst = acc_of(op.dst);
            for (index_t j : visited) dst[j] = src[j];
          }
        }
        std::sort(visited.begin(), visited.end());

        // ---- Phase B: emit every trial's row through the arena path.
        // One emit_group() over the trials: they share the sorted union (a
        // touched superset), so trial 0's kept columns pre-rank the
        // candidates for the rest of the group.
        for (index_t t = 0; t < g; ++t) {
          group[static_cast<std::size_t>(t)] = {
              &arenas[static_cast<std::size_t>(t)]
                     [static_cast<std::size_t>(tid)],
              acc_of(t), inv_chains[static_cast<std::size_t>(t)],
              &kernel.inv_diag,
              &row_slices[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(i)]};
        }
        emitter.emit_group(group.data(), g, tid, visited, i, threshold,
                           row_budget);
      }
#pragma omp critical(mcmi_batched_transitions)
      {
        for (std::size_t t = 0; t < trials.size(); ++t) {
          transitions[t] += local_transitions[t];
          retired[t] += local_retired[t];
        }
      }
    }
  }
  const real_t ensemble_seconds = ensemble_timer.seconds();

  // Phase C: per-trial CSR assembly, timed per trial; the shared ensemble
  // time is apportioned by each trial's own truncated transition share so
  // build_seconds reflects the work the trial would have paid standalone.
  // An aborted batch skips assembly: every trial reports the stop reason
  // and an empty matrix (partial artifacts discarded).
  long long total_transitions = 0;
  for (std::size_t t = 0; t < trials.size(); ++t) {
    total_transitions += transitions[t];
  }
  const bool was_aborted = aborted.load();
  result.preconditioners.reserve(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    WallTimer assembly_timer;
    result.preconditioners.push_back(
        was_aborted ? CsrMatrix()
                    : assemble_csr_from_arenas(n, row_slices[t], arenas[t]));
    McmcBuildInfo& info = result.info[t];
    if (was_aborted) info.status = build_stop_reason(*options.cancel);
    info.total_transitions = transitions[t];
    info.divergence_retirements = retired[t];
    const real_t share =
        total_transitions > 0
            ? static_cast<real_t>(transitions[t]) /
                  static_cast<real_t>(total_transitions)
            : 1.0 / static_cast<real_t>(trials.size());
    info.build_seconds = ensemble_seconds * share + assembly_timer.seconds();
  }
  return result;
}

ReplicatedGridResult replicate_batched_grid_build(
    const CsrMatrix& a, real_t alpha, const std::vector<GridTrial>& trials,
    const std::vector<u64>& replicate_seeds, const McmcOptions& options,
    WalkKernelCache* kernel_cache) {
  check_grid_request(a, alpha, trials, options);
  MCMI_CHECK(!replicate_seeds.empty(),
             "replicate-batched build needs at least one replicate seed");

  ReplicatedGridResult result;
  if (replicate_seeds.size() == 1) {
    // One lane is exactly the single-ensemble build — no lockstep overhead.
    McmcOptions single = options;
    single.seed = replicate_seeds.front();
    result.replicates.push_back(
        batched_grid_build(a, alpha, trials, single, kernel_cache));
    return result;
  }

  std::shared_ptr<const WalkKernel> cached;
  WalkKernel local;
  bool cache_hit = false;
  if (kernel_cache != nullptr) {
    cached = kernel_cache->get(a, alpha, &cache_hit);
  } else {
    local = build_walk_kernel(a, alpha);
  }
  const WalkKernel& kernel = cached ? *cached : local;

  EngineUnits units;
  units.trials = trials;
  units.alpha_of.assign(trials.size(), 0);
  EngineOutput out = run_interleaved_engine(a, {&kernel}, {cache_hit}, units,
                                            replicate_seeds, options);
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
