#pragma once
// The one cycle walker behind every cycle-following path in the library:
// the generic permutation executor (core/perm_engine.hpp), the tensor
// chunk-grid passes (core/tensor_nd.hpp) and the 2-D executor's last OOM
// rung (core/execute.hpp).  It is the paper introduction's baseline —
// plain cycle following — written once.
//
// A walk applies an index bijection `idx` on the slots [0, slots) to a
// buffer of slots x chunk elements (slot s is data[s*chunk, (s+1)*chunk)).
// Its four parts:
//
//   * scratch ladder (acquire_cycle_scratch): a visited byte map, then a
//     packed visited bitset, then no marks at all.  Only std::bad_alloc
//     demotes; each allocating rung fires the caller's failpoint once, so
//     the failpoint literal stays in the caller's file;
//   * leader enumeration (for_each_cycle_leader): on every rung the
//     leaders come out as cycle minima in ascending order, each after a
//     full walk of its cycle.  The no-marks rung proves leadership by
//     walking the cycle until a smaller member appears ("leader-min":
//     O(1) space, O(slots x cycle) time);
//   * step bound (guard_walk): always on — a walk longer than `slots`
//     steps proves idx maps two slots to one and throws inplace::error
//     before any element of that cycle moves.  The no-marks rung also
//     counts the slots its leader walks cover: a map whose extra slot
//     only feeds a smaller cycle never trips the bound there, and the
//     shortfall throws once the scan ends (the caller rolls back the
//     cycles it moved);
//   * cycle move (cycle_move): one cycle in gather form (slot w receives
//     slot idx(w)) or scatter form (slot idx(w) receives slot w, its
//     exact inverse).  With a chunk buffer, chunks of trivially copyable
//     elements move through the kernel set — optionally as non-temporal
//     stores, with the sources a window of hops ahead prefetched; without
//     one, a single element is in flight at a time.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "core/errors.hpp"
#include "core/plan.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/aligned.hpp"

namespace inplace::detail {

/// Which way a cycle moves: gather (dst[w] = src[idx(w)]) or scatter
/// (dst[idx(w)] = src[w]).  Each is the other's inverse, so a rollback
/// replays a cycle in the opposite form.
enum class cycle_form : std::uint8_t { gather, scatter };

[[nodiscard]] constexpr cycle_form opposite(cycle_form f) {
  return f == cycle_form::gather ? cycle_form::scatter : cycle_form::gather;
}

/// Hard bound on every discovery walk: a bijection's cycle closes within
/// `slots` steps, so one step more proves two slots map to one.  Always
/// on (not checked-mode-only): the alternative is an endless walk.
inline void guard_walk(std::uint64_t steps, std::uint64_t slots) {
  if (steps > slots) {
    throw error(
        "inplace: permutation is not a bijection — a cycle walk "
        "exceeded n steps (two indices map to one slot)");
  }
}

/// A walker's scratch: the visited marks of the rung it landed on, plus
/// an optional one-chunk buffer.  Both are empty on the cycle_follow rung.
template <typename T>
struct cycle_scratch {
  util::aligned_vector<std::uint8_t> marks;  ///< byte map or packed bitset
  util::aligned_vector<T> buf;  ///< one chunk in flight (empty: one element)
  scratch_rung rung = scratch_rung::cycle_follow;

  [[nodiscard]] std::size_t bytes() const {
    return marks.capacity() + buf.capacity() * sizeof(T);
  }
};

/// Walks the scratch ladder for `slots` slots and a `buf_elems`-element
/// chunk buffer (0 for none): full (one mark byte per slot), reduced (one
/// mark bit per slot), cycle_follow (nothing).  `fire` runs once before
/// each allocating rung — the caller's failpoint.  Exceptions other than
/// std::bad_alloc propagate with nothing built.
template <typename T, typename Fire>
cycle_scratch<T> acquire_cycle_scratch(std::uint64_t slots,
                                       std::uint64_t buf_elems, Fire&& fire) {
  cycle_scratch<T> s;
  for (const scratch_rung rung :
       {scratch_rung::full, scratch_rung::reduced}) {
    try {
      fire();
      const std::uint64_t mark_bytes =
          rung == scratch_rung::full ? slots : (slots + 7) / 8;
      // inplace-lint: allow-block(raw-alloc): the walker's acquisition
      // funnel — aligned_vector growth carries the alloc.aligned
      // failpoint, and bad_alloc demotes to the next rung
      s.marks.resize(static_cast<std::size_t>(mark_bytes));
      s.buf.resize(static_cast<std::size_t>(buf_elems));
      // inplace-lint: end-block
      s.rung = rung;
      return s;
    } catch (const std::bad_alloc&) {
      s.marks = util::aligned_vector<std::uint8_t>();
      s.buf = util::aligned_vector<T>();
    }
  }
  s.rung = scratch_rung::cycle_follow;
  return s;
}

/// Calls on_leader(y) for the minimum y of every cycle of `idx` longer
/// than one, in ascending order, each after its whole cycle was walked
/// (guard_walk bounds the walk).  Marks rungs clear and reuse s.marks;
/// the cycle_follow rung touches no memory, and may detect a
/// non-bijection only after the scan, when on_leader already ran for
/// every cycle the map does have.
template <typename T, typename Index, typename OnLeader>
void for_each_cycle_leader(std::uint64_t slots, const Index& idx,
                           cycle_scratch<T>& s, OnLeader&& on_leader) {
  if (s.rung == scratch_rung::cycle_follow) {
    // Each cycle is walked whole exactly once, from its minimum, so for a
    // bijection the closed walks cover every slot.
    std::uint64_t covered = 0;
    for (std::uint64_t y = 0; y < slots; ++y) {
      // y leads iff the walk returns to y before meeting a smaller member.
      std::uint64_t i = idx(y);
      std::uint64_t steps = 1;
      while (i > y) {
        i = idx(i);
        guard_walk(++steps, slots);
      }
      if (i == y) {
        covered += steps;
        if (steps > 1) {
          on_leader(y);
        }
      }
    }
    if (covered != slots) {
      throw error(
          "inplace: permutation is not a bijection — some index lies on "
          "no cycle (two indices map to one slot)");
    }
    return;
  }
  std::uint8_t* marks = s.marks.data();
  std::fill(s.marks.begin(), s.marks.end(), std::uint8_t{0});
  const bool packed = s.rung == scratch_rung::reduced;
  const auto marked = [&](std::uint64_t i) {
    return packed ? ((marks[i >> 3] >> (i & 7)) & 1u) != 0 : marks[i] != 0;
  };
  const auto mark = [&](std::uint64_t i) {
    if (packed) {
      marks[i >> 3] = static_cast<std::uint8_t>(marks[i >> 3] | 1u << (i & 7));
    } else {
      marks[i] = 1;
    }
  };
  for (std::uint64_t y = 0; y < slots; ++y) {
    if (marked(y)) {
      continue;
    }
    std::uint64_t steps = 0;
    std::uint64_t i = y;
    do {
      mark(i);
      i = idx(i);
      guard_walk(++steps, slots);
    } while (i != y);
    if (steps > 1) {
      on_leader(y);
    }
  }
}

/// Moves whole cycles of a slots x chunk buffer.  `buf` (chunk elements)
/// carries a chunk in flight; without it each element offset walks the
/// cycle on its own with one element in flight.  With a kernel set,
/// trivially copyable chunks move through ks->copy, and `stream` makes
/// the gather destinations unfenced non-temporal stores (each slot is
/// written once and not re-read within the walk) — the caller fences.
template <typename T>
struct cycle_move {
  T* data = nullptr;
  std::uint64_t chunk = 1;
  T* buf = nullptr;
  const kernels::kernel_set* ks = nullptr;
  bool stream = false;

  /// Moves the cycle through leader `y`.  The cycle must close at y
  /// (for_each_cycle_leader or a memoized leader proved it).
  template <typename Index>
  void operator()(const Index& idx, std::uint64_t y, cycle_form form) const {
    if (buf == nullptr) {
      for (std::uint64_t off = 0; off < chunk; ++off) {
        move_elements(idx, y, off, form);
      }
    } else if (form == cycle_form::gather) {
      gather_chunks(idx, y, [](std::uint64_t) {});
    } else {
      scatter_chunks(idx, y);
    }
  }

  /// Publishes the non-temporal stores of a streamed walk.
  void fence() const {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (ks != nullptr && stream) {
        ks->fence();
      }
    }
  }

  /// Gathers the cycle through `y` a chunk at a time, calling visit(s)
  /// for every other slot s of the cycle.  The hops land at random,
  /// beyond any hardware prefetcher, so `ahead` walks the cycle
  /// kernels::subrow_prefetch_window hops in front of the moves and hints
  /// each source chunk whole — several misses in flight, not one per hop.
  template <typename Index, typename Visit>
  void gather_chunks(const Index& idx, std::uint64_t y, Visit&& visit) const {
    const std::size_t bytes = static_cast<std::size_t>(chunk) * sizeof(T);
    put(buf, at(y), false);
    std::uint64_t ahead = idx(y);
    for (std::uint64_t k = 0;
         k < kernels::subrow_prefetch_window && ahead != y; ++k) {
      kernels::prefetch_span(at(ahead), bytes);
      ahead = idx(ahead);
    }
    std::uint64_t w = y;
    for (;;) {
      const std::uint64_t src = idx(w);
      if (src == y) {
        put(at(w), buf, stream);
        return;
      }
      visit(src);
      if (ahead != y) {
        kernels::prefetch_span(at(ahead), bytes);
        ahead = idx(ahead);
      }
      put(at(w), at(src), stream);
      w = src;
    }
  }

 private:
  [[nodiscard]] T* at(std::uint64_t slot) const { return data + slot * chunk; }

  /// Chunk copy; `nt` selects the streaming store for grid destinations.
  void put(T* dst, T* src, bool nt) const {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (ks != nullptr) {
        const std::size_t bytes = static_cast<std::size_t>(chunk) * sizeof(T);
        (nt ? ks->stream_subrow : ks->copy)(dst, src, bytes);
        return;
      }
    }
    std::move(src, src + chunk, dst);
  }

  template <typename Index>
  void scatter_chunks(const Index& idx, std::uint64_t y) const {
    put(buf, at(y), false);
    for (std::uint64_t i = idx(y); i != y; i = idx(i)) {
      std::swap_ranges(buf, buf + chunk, at(i));
    }
    put(at(y), buf, false);
  }

  template <typename Index>
  void move_elements(const Index& idx, std::uint64_t y, std::uint64_t off,
                     cycle_form form) const {
    T saved = std::move(at(y)[off]);
    if (form == cycle_form::gather) {
      std::uint64_t w = y;
      for (std::uint64_t src = idx(w); src != y; src = idx(w)) {
        at(w)[off] = std::move(at(src)[off]);
        w = src;
      }
      at(w)[off] = std::move(saved);
    } else {
      for (std::uint64_t i = idx(y); i != y; i = idx(i)) {
        std::swap(saved, at(i)[off]);
      }
      at(y)[off] = std::move(saved);
    }
  }
};

/// Applies all of `idx` in `form`: every cycle leader, then the fence.
///
/// A map that is a bijection by construction declares
/// `static constexpr bool bijective = true` (the tensor grid map does).
/// It cannot fail the step bound, so on the byte-map rung its gather
/// cycles mark their slots as they move instead of after a separate
/// discovery walk: the index chain then overlaps the chunk moves rather
/// than running alone before them.  The cycles and their order are the
/// same.
template <typename T, typename Index>
void permute_cycles(const cycle_move<T>& mv, std::uint64_t slots,
                    const Index& idx, cycle_scratch<T>& s, cycle_form form) {
  if constexpr (requires { requires Index::bijective; }) {
    if (s.rung == scratch_rung::full && form == cycle_form::gather &&
        mv.buf != nullptr) {
      std::uint8_t* marks = s.marks.data();
      std::fill(s.marks.begin(), s.marks.end(), std::uint8_t{0});
      for (std::uint64_t y = 0; y < slots; ++y) {
        if (marks[y] == 0 && idx(y) != y) {
          mv.gather_chunks(idx, y, [marks](std::uint64_t w) { marks[w] = 1; });
        }
        marks[y] = 1;
      }
      mv.fence();
      return;
    }
  }
  for_each_cycle_leader(slots, idx, s,
                        [&](std::uint64_t y) { mv(idx, y, form); });
  mv.fence();
}

}  // namespace inplace::detail
