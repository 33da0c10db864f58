#pragma once
// Public in-place transposition API.
//
//   inplace::transpose(data, rows, cols)        — transpose a row-major
//       rows x cols matrix in place; afterwards the buffer is the
//       row-major cols x rows transpose.  A storage_order argument selects
//       the column-major interpretation instead.
//
//   inplace::c2r(data, m, n) / inplace::r2c(data, m, n) — the raw
//       "Columns to Rows" / "Rows to Columns" permutations of Figure 1 on
//       an m x n row-major view.  They are mutual inverses; C2R equals the
//       row-major transposition (Theorem 1).
//
// All entry points run in O(mn) work with O(max(m, n)) auxiliary space
// (Theorem 6) and are parallelized with OpenMP when available.
//
// The free functions execute through the process-wide default_context()
// (core/context.hpp): repeated same-shape calls reuse the cached plan,
// scratch arenas and memoized permutation cycles instead of rebuilding
// them per call.  Construct a dedicated transpose_context (or a
// transposer<T>, core/executor.hpp) for isolated caching, async
// submission, or batch execution.  An uncached one-shot run of a plan is
// transposer<T>{plan}(data).

#include <cstddef>

#include "core/context.hpp"

namespace inplace {

/// Transposes a rows x cols matrix in place.  For row-major storage the
/// buffer afterwards holds the row-major cols x rows transpose; for
/// column-major, the column-major transpose.
template <typename T>
void transpose(T* data, std::size_t rows, std::size_t cols,
               storage_order order = storage_order::row_major,
               const options& opts = {}) {
  default_context().transpose(data, rows, cols, order, opts);
}

/// The raw C2R permutation of an m x n row-major view (Figure 1, left to
/// right).  Equivalent to row-major transposition (Theorem 1): afterwards
/// the buffer is the row-major n x m transpose.
template <typename T>
void c2r(T* data, std::size_t m, std::size_t n, const options& opts = {}) {
  default_context().c2r(data, m, n, opts);
}

/// The raw R2C permutation of an m x n row-major view — the inverse of
/// c2r(data, m, n).  Per Theorem 2, r2c(data, n, m) also transposes a
/// row-major m x n matrix.
template <typename T>
void r2c(T* data, std::size_t m, std::size_t n, const options& opts = {}) {
  default_context().r2c(data, m, n, opts);
}

}  // namespace inplace
