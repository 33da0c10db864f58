#pragma once
// Out-of-place row/column permutation primitives and the reusable scratch
// workspace.  Algorithm 1 performs every permutation out-of-place into a
// temporary vector of max(m, n) elements and copies the result back; these
// helpers are those two loops, expressed once.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/contracts.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/aligned.hpp"

namespace inplace::detail {

/// Copies `count` elements dst <- src (disjoint).  Trivially copyable
/// element types go through memcpy — the compiler cannot always prove
/// the equivalence through the template, and glibc's memcpy beats an
/// element loop on whole-row copy-backs — everything else through
/// std::copy.
template <typename T>
inline void copy_back(T* dst, const T* src, std::uint64_t count) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    std::memcpy(dst, src, static_cast<std::size_t>(count) * sizeof(T));
  } else {
    std::copy(src, src + count, dst);
  }
}

/// Like copy_back, with the plan's kernel set and streaming decision:
/// `stream` selects the tier's self-fencing non-temporal copy for
/// destinations that will not be re-read before eviction.
template <typename T>
inline void copy_back(T* dst, const T* src, std::uint64_t count,
                      const kernels::kernel_set* ks, bool stream) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    if (ks != nullptr) {
      kernels::copy_elems(*ks, dst, src, static_cast<std::size_t>(count),
                          stream);
      return;
    }
  }
  copy_back(dst, src, count);
}

#if INPLACE_CHECKS_ENABLED
/// Checked-mode slot-coverage tracker: proves that a shuffle of `size`
/// slots touches every slot exactly once (i.e. its index map is a
/// bijection).  Marking all `size` slots without a duplicate is exactly
/// that proof, since the indices are range-checked first.  A thread-local
/// generation-stamped array makes each tracker O(size) without clearing,
/// and keeps the concurrent engines' checks race-free.
class shuffle_coverage {
 public:
  explicit shuffle_coverage(std::uint64_t size) : size_(size) {
    if (stamps_.size() < size) {
      // inplace-lint: allow-next(raw-alloc): checked-mode-only coverage
      // tracker; thread-local, grows monotonically to max(size) and is
      // absent from release builds (INPLACE_CHECKS_ENABLED gate)
      stamps_.resize(static_cast<std::size_t>(size), 0);
    }
    gen_ = ++generation_;
  }

  /// Marks `slot` visited; fails the contract on a duplicate visit.
  void mark(std::uint64_t slot, const char* what) {
    if (stamps_[static_cast<std::size_t>(slot)] == gen_) {
      contract_fail("postcondition", "slot visited once", __FILE__, __LINE__,
                    what);
    }
    stamps_[static_cast<std::size_t>(slot)] = gen_;
    ++marked_;
  }

  /// True when every slot in [0, size) was marked exactly once.
  [[nodiscard]] bool complete() const { return marked_ == size_; }

 private:
  inline static thread_local std::vector<std::uint64_t> stamps_;
  inline static thread_local std::uint64_t generation_ = 0;
  std::uint64_t size_;
  std::uint64_t gen_ = 0;
  std::uint64_t marked_ = 0;
};
#endif

/// Scratch storage for one in-place transposition.  Holds the paper's
/// max(m, n)-element temporary vector plus the small fixed-size buffers
/// used by the cache-aware passes (Sections 4.6-4.7): a head buffer of
/// width^2 elements, one sub-row, a visited bitmap and the cycle-leader
/// list for the row permutation.
/// All scratch buffers are 64-byte aligned (util::aligned_vector): the
/// vector kernels' non-temporal and aligned paths require it, and the
/// scalar loops assume it (std::assume_aligned below).
template <typename T>
struct workspace {
  util::aligned_vector<T> line;    ///< max(m, n) elements (Algorithm 1's tmp)
  util::aligned_vector<T> head;    ///< width * width elements (fine rotation)
  util::aligned_vector<T> subrow;  ///< width elements (coarse rotation)
  std::vector<std::uint8_t> visited;        ///< m flags (cycle discovery)
  std::vector<std::uint64_t> cycle_starts;  ///< row-permutation cycles
  std::vector<std::uint64_t> offsets;       ///< per-column residual shifts
  util::aligned_vector<std::uint64_t> index;  ///< kernel gather offsets

  void reserve(std::uint64_t m, std::uint64_t n, std::uint64_t width) {
    // inplace-lint: allow-block(raw-alloc): this IS the audited scratch
    // funnel — acquire_scratch sizes every workspace through here, once
    // per plan, before the engines run (Theorem 6's O(max(m,n)) bound)
    line.resize(static_cast<std::size_t>(std::max(m, n)));
    head.resize(static_cast<std::size_t>(width * width));
    subrow.resize(static_cast<std::size_t>(width));
    visited.assign(static_cast<std::size_t>(m), 0);
    offsets.resize(static_cast<std::size_t>(width));
    index.resize(static_cast<std::size_t>(width));
    cycle_starts.clear();
    // inplace-lint: end-block
    INPLACE_ENSURE(line.size() >= std::max(m, n),
                   "workspace line smaller than max(m, n) — Theorem 6's "
                   "scratch bound");
    INPLACE_ENSURE(util::is_scratch_aligned(line.data()) &&
                       util::is_scratch_aligned(head.data()) &&
                       util::is_scratch_aligned(subrow.data()),
                   "workspace scratch is not 64-byte aligned (the kernel "
                   "layer's streaming/aligned paths require it)");
  }

  /// True when this workspace can serve an m x n problem with `width`-wide
  /// column groups (checked-mode capacity precondition for the engines).
  [[nodiscard]] bool fits(std::uint64_t m, std::uint64_t n,
                          std::uint64_t width) const {
    return line.size() >= std::max(m, n) && head.size() >= width * width &&
           subrow.size() >= width && visited.size() >= m &&
           offsets.size() >= width && index.size() >= width;
  }
};

/// Distinguishes which pass family discovered a memo: the same (m, n,
/// width) tuple produces different cycle structures for q vs q^-1 and for
/// the fused C2R vs R2C column shuffles, so the pass identity is part of
/// the fingerprint.
enum class memo_pass : std::uint64_t {
  row_q = 1,
  row_q_inv = 2,
  col_c2r = 3,
  col_r2c = 4,
};

/// Folds the identifying tuple of a memoized cycle structure into one
/// nonzero fingerprint word (FNV-1a over the four fields).  A memo stamped
/// at discovery and re-checked on replay turns a shape-mismatched replay —
/// which would silently scramble the buffer — into a contract violation.
inline std::uint64_t memo_fingerprint(std::uint64_t m, std::uint64_t n,
                                      std::uint64_t width, memo_pass pass) {
  std::uint64_t h = 1469598103934665603ull;
  const std::uint64_t words[4] = {m, n, width,
                                  static_cast<std::uint64_t>(pass)};
  for (const std::uint64_t v : words) {
    for (unsigned b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h != 0 ? h : 1;
}

/// Memoized cycle-leader list for a row permutation that is replayed
/// across executions of one cached plan (transpose_context / transposer
/// warm path).  Valid for exactly one permutation — one (m, n, direction)
/// tuple — so it lives next to the arena that discovered it.  `key` is the
/// memo_fingerprint of the discovering pass; checked mode REQUIREs it to
/// match on replay.
struct cycle_memo {
  std::vector<std::uint64_t> starts;
  bool ready = false;
  std::uint64_t key = 0;
};

/// Per-column-group memoized cycle structure for the fused column shuffles
/// (engine_blocked): groups[g] holds the cycle leaders of group g's
/// group-local permutation.  Valid for one (m, n, width, direction) tuple,
/// fingerprinted in `key` like cycle_memo.
struct col_cycle_memo {
  std::vector<std::vector<std::uint64_t>> groups;
  bool ready = false;
  std::uint64_t key = 0;
};

/// tmp[j] = row[idx(j)] for j in [0, n), then copy tmp back over the row.
/// `tmp` must be 64-byte-aligned scratch disjoint from the row (the
/// engines pass workspace::line); the loop asserts both to the compiler.
/// Checked mode proves idx is a bijection on [0, n): n in-range gathers
/// without a duplicate source read every slot exactly once.
template <typename T, typename IndexFn>
void row_gather_inplace(T* row, std::uint64_t n, T* tmp, IndexFn idx) {
  INPLACE_CHECK(util::is_scratch_aligned(tmp),
                "row shuffle scratch is not 64-byte aligned (use "
                "workspace/aligned_vector scratch)");
#if INPLACE_CHECKS_ENABLED
  shuffle_coverage cover(n);
#endif
  const T* __restrict src = row;
  T* __restrict dst = std::assume_aligned<util::scratch_alignment>(tmp);
  for (std::uint64_t j = 0; j < n; ++j) {
    const std::uint64_t s = idx(j);
    INPLACE_CHECK(s < n, "row shuffle gather index out of range (Eq. 31)");
#if INPLACE_CHECKS_ENABLED
    cover.mark(s, "row shuffle gather read a slot twice (Eq. 31 is not a "
                  "bijection)");
#endif
    dst[j] = src[s];
  }
  INPLACE_ENSURE(cover.complete(),
                 "row shuffle gather skipped a slot (Eq. 31)");
  copy_back(row, tmp, n);
}

/// tmp[idx(j)] = row[j] for j in [0, n), then copy tmp back over the row.
/// Same tmp alignment/aliasing contract as row_gather_inplace.
/// Checked mode proves idx is a bijection on [0, n): n in-range scatters
/// without a collision fill every slot exactly once.
template <typename T, typename IndexFn>
void row_scatter_inplace(T* row, std::uint64_t n, T* tmp, IndexFn idx) {
  INPLACE_CHECK(util::is_scratch_aligned(tmp),
                "row shuffle scratch is not 64-byte aligned (use "
                "workspace/aligned_vector scratch)");
#if INPLACE_CHECKS_ENABLED
  shuffle_coverage cover(n);
#endif
  const T* __restrict src = row;
  T* __restrict dst = std::assume_aligned<util::scratch_alignment>(tmp);
  for (std::uint64_t j = 0; j < n; ++j) {
    const std::uint64_t d = idx(j);
    INPLACE_CHECK(d < n, "row shuffle scatter index out of range (Eq. 24)");
#if INPLACE_CHECKS_ENABLED
    cover.mark(d, "row shuffle scatter wrote a slot twice (Eq. 24 is not a "
                  "bijection)");
#endif
    dst[d] = src[j];
  }
  INPLACE_ENSURE(cover.complete(),
                 "row shuffle scatter left a slot unwritten (Eq. 24)");
  copy_back(row, tmp, n);
}

/// tmp[i] = A[idx(i)][j] for i in [0, m), then copy tmp back down column j.
/// A is row-major m x n.  (Reference path; the cache-aware engines use the
/// blocked primitives in rotate.hpp instead.)  Checked mode proves idx is
/// a bijection on [0, m) — the column shuffle visits every row once.
template <typename T, typename IndexFn>
void column_gather_inplace(T* a, std::uint64_t m, std::uint64_t n,
                           std::uint64_t j, T* tmp, IndexFn idx) {
  INPLACE_CHECK(util::is_scratch_aligned(tmp),
                "column shuffle scratch is not 64-byte aligned (use "
                "workspace/aligned_vector scratch)");
#if INPLACE_CHECKS_ENABLED
  shuffle_coverage cover(m);
#endif
  const T* __restrict src = a;
  T* __restrict dst = std::assume_aligned<util::scratch_alignment>(tmp);
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t s = idx(i);
    INPLACE_CHECK(s < m, "column shuffle index out of range (Eq. 26)");
#if INPLACE_CHECKS_ENABLED
    cover.mark(s, "column shuffle read a row twice (Eq. 26 is not a "
                  "bijection)");
#endif
    dst[i] = src[s * n + j];
  }
  INPLACE_ENSURE(cover.complete(),
                 "column shuffle skipped a row (Eq. 26)");
  for (std::uint64_t i = 0; i < m; ++i) {
    a[i * n + j] = tmp[i];
  }
}

/// Finds the cycle structure of the row permutation P (a gather:
/// dst[i] = src[P(i)]), recording one starting index per nontrivial cycle.
/// Runs once per transposition; every column group then replays the cycles
/// (Section 4.7 computes cycles dynamically and stores the descriptors in
/// temporary memory).
template <typename PermFn>
void find_cycles(std::uint64_t m, PermFn perm,
                 std::vector<std::uint8_t>& visited,
                 std::vector<std::uint64_t>& cycle_starts) {
  std::fill(visited.begin(), visited.end(), std::uint8_t{0});
  cycle_starts.clear();
#if INPLACE_CHECKS_ENABLED
  // A bijection on [0, m) decomposes into disjoint cycles whose lengths
  // sum to m; walking more than m steps in total means perm merged two
  // cycles (not injective) and the walk would never terminate.
  std::uint64_t steps = 0;
#endif
  for (std::uint64_t y = 0; y < m; ++y) {
    if (visited[y]) {
      continue;
    }
    visited[y] = 1;
    const std::uint64_t first = perm(y);
    INPLACE_CHECK(first < m, "row permutation index out of range");
    if (first == y) {
      continue;  // fixed point
    }
    // inplace-lint: allow-next(raw-alloc): cycle discovery appends into
    // workspace-owned storage bounded by m; the vector is reused (and
    // its capacity retained) across executions via the arena cache
    cycle_starts.push_back(y);
    for (std::uint64_t i = first; i != y; i = perm(i)) {
      INPLACE_CHECK(i < m, "row permutation index out of range");
      INPLACE_CHECK(++steps <= m,
                    "row permutation cycle walk exceeded m steps (the map "
                    "is not a bijection)");
      INPLACE_CHECK(!visited[i],
                    "row permutation revisited a row (the map is not a "
                    "bijection)");
      visited[i] = 1;
    }
  }
}

/// Hints the `bytes`-byte sub-row of row `row` in a column group whose
/// rows start at `base` and lie n elements apart.  The row must be inside
/// the m-row matrix: forming a pointer past it is UB even though the hint
/// itself cannot fault.  always_inline for the reason given on
/// kernels::prefetch_read.
template <typename T>
[[gnu::always_inline]] inline void prefetch_subrow(
    const T* base, std::uint64_t row, [[maybe_unused]] std::uint64_t m,
    std::uint64_t n, std::size_t bytes) {
  INPLACE_CHECK(row < m, "sub-row prefetch past the last matrix row");
  kernels::prefetch_span(base + row * n, bytes);
}

/// Applies the row permutation (gather dst[i] = src[P(i)]) to the width-wide
/// column group starting at column j0, by following the precomputed cycles
/// and moving width-element sub-rows through `tmp` (width elements).
///
/// The cycle hops visit rows in permutation order — exactly the random
/// stride pattern hardware prefetchers miss.  A column slice (width < n)
/// therefore walks the cycle kernels::subrow_prefetch_window hops ahead of
/// the moves through a small ring of upcoming sources, hinting each
/// source's whole sub-row as it enters the ring; perm still runs once per
/// hop, and every hinted row is one the walk then moves.  Whole-row
/// sweeps (width == n) keep a one-hop, one-line hint: hardware prefetchers
/// already stream the rest of a contiguous row.
/// With a kernel set, sub-row moves of trivially copyable elements go
/// through the tier's copy/stream_subrow kernels; `stream` selects
/// unfenced non-temporal stores (one fence() published at the end).
template <typename T, typename PermFn>
void permute_rows_in_group(T* a, std::uint64_t n, std::uint64_t j0,
                           std::uint64_t width, PermFn perm,
                           const std::vector<std::uint64_t>& cycle_starts,
                           T* tmp, const kernels::kernel_set* ks = nullptr,
                           bool stream = false) {
  INPLACE_REQUIRE(j0 + width <= n,
                  "row permutation column group exceeds the row width");
  constexpr bool use_kernels = std::is_trivially_copyable_v<T>;
  const std::size_t sub_bytes = static_cast<std::size_t>(width) * sizeof(T);
  // Matrix-destination moves may stream (their lines are dead for this
  // pass); the tmp save stays temporal — tmp is cache-hot scratch that
  // the cycle close re-reads.
  const auto move = [&](T* dst, const T* src) {
    if constexpr (use_kernels) {
      if (ks != nullptr) {
        (stream ? ks->stream_subrow : ks->copy)(dst, src, sub_bytes);
        return;
      }
    }
    std::copy(src, src + width, dst);
  };
  const auto save = [&](T* dst, const T* src) {
    if constexpr (use_kernels) {
      if (ks != nullptr) {
        ks->copy(dst, src, sub_bytes);
        return;
      }
    }
    std::copy(src, src + width, dst);
  };
  constexpr std::uint64_t ring_size = kernels::subrow_prefetch_window;
  static_assert((ring_size & (ring_size - 1)) == 0,
                "the prefetch ring indexes by mask");
  const bool strided = width < n;
  const std::uint64_t depth = strided ? ring_size : 1;
  const std::size_t hint_bytes = strided ? sub_bytes : 1;
  T* base = a + j0;
  std::uint64_t ring[ring_size] = {};
  for (const std::uint64_t y : cycle_starts) {
    save(tmp, base + y * n);
    // `next` runs `depth` hops ahead of the moves; the ring holds the
    // sources in between, oldest at `head`.
    std::uint64_t next = perm(y);
    std::uint64_t head = 0;
    std::uint64_t queued = 0;
    const auto enqueue = [&] {
      if (next == y) {
        return;  // the cycle closes through tmp
      }
      kernels::prefetch_span(base + next * n, hint_bytes);
      ring[(head + queued) & (ring_size - 1)] = next;
      ++queued;
      next = perm(next);
    };
    while (queued < depth && next != y) {
      enqueue();
    }
    std::uint64_t i = y;
    while (queued != 0) {
      const std::uint64_t s = ring[head];
      head = (head + 1) & (ring_size - 1);
      --queued;
      enqueue();
      move(base + i * n, base + s * n);
      i = s;
    }
    move(base + i * n, tmp);
  }
  if constexpr (use_kernels) {
    if (ks != nullptr && stream) {
      ks->fence();
    }
  }
}

}  // namespace inplace::detail
