#pragma once
// Arena-based CSR row storage shared by the MCMC inverters.
//
// Each worker thread appends its finished rows to a private flat arena
// (cols/vals grow amortised — no per-row heap vectors), records where every
// row landed, and a prefix-sum plus parallel copy concatenates the arenas
// into the final CSR buffers.  Rows enter the arena in sorted-column order,
// so no trailing re-sort pass is needed.
//
// Rows are written into the arena by the emission engine (mcmc/emission.hpp,
// RowEmitter) — the accumulator -> CSR-row pipeline with threshold-tracked
// budget truncation that every builder shares.

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "sparse/csr.hpp"

namespace mcmi {

/// Per-thread append-only row storage.  Every emitted entry writes the
/// two vectors' end pointers, so the padding keeps neighbouring threads'
/// arenas in one std::vector out of each other's cache lines without
/// asking the allocator for over-aligned storage.
struct RowArena {
  std::vector<index_t> cols;
  std::vector<real_t> vals;
  char pad[128 - sizeof(std::vector<index_t>) - sizeof(std::vector<real_t>)];
};

/// Where one assembled row lives: (arena index, offset, length).
struct RowSlice {
  std::int32_t arena = 0;
  index_t offset = 0;
  index_t count = 0;
};

/// Phase 2 of the two-phase assembly: prefix-sum the per-row lengths into a
/// CSR row_ptr and copy every arena row into the final buffers in parallel.
CsrMatrix assemble_csr_from_arenas(index_t n,
                                   const std::vector<RowSlice>& rows,
                                   const std::vector<RowArena>& arenas);

}  // namespace mcmi
