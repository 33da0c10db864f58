#pragma once
// Planning for the general in-place permutation engine (core/perm.hpp):
// a plan-time classifier maps an arbitrary index permutation onto the
// cheapest specialized executor the library owns.
//
//   identity      nothing moves (n <= 1 or pi[i] == i everywhere)
//   rotation      pi[i] = (i + k) mod n — gcd-juggling via the Section
//                 4.6 coarse-rotation machinery (core/rotate.hpp), with
//                 the 3-reversal form as the O(1)-scratch rung
//   bit_reversal  n = 2^w, pi[i] = bitrev_w(i) — the COBRA cache-blocked
//                 kernel (Knauth et al.), pairing 2^q x 2^q tiles so
//                 every memory touch is a contiguous 2^q-element sub-row
//   transpose2d   pi[i] = i*a mod (n-1) with a | n — exactly the C2R
//                 permutation of an (n/a) x a matrix (Catanzaro Eq. 2),
//                 dispatched to the existing strength-reduced transpose
//                 engines (Eq. 24/26 kernels) via transposer<T>
//   generic       memoized cycle-leader scan with the byte-map -> bitset
//                 -> O(1) leader-min scratch ladder (Dudek et al.'s
//                 problem class; the ladder mirrors detail::
//                 acquire_scratch's rungs)
//
// The classifier runs on every permute() call (the context cache is keyed
// by what it finds), so it is built to run at read bandwidth: it reads pi
// as its own index type, one block of perm_scan_block entries at a time,
// and checks only the structured candidates still alive against closed
// forms — i, i + k split at n - k, a reversed-low-bits table plus the
// block's reversed high bits (Knauth et al.), and the affine C2R form
// pi[x*rows + y] = y*cols + x — with branch-free comparisons that
// vectorize.  A candidate is dropped after its first failing block.  A
// structured verdict needs neither a range check (every entry equalled an
// in-range expected value) nor a hash ((kind, parameters) identify pi
// exactly); only a generic pi pays for validating every index (< n,
// throwing inplace::error naming the first bad one) and for a 128-bit
// content hash over independent lanes.  Bijectivity of a generic pi is
// the caller's contract (checked mode proves it during execution via the
// coverage machinery).
//
// The plan is element-type independent, like transpose_plan.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

#include "core/plan.hpp"

namespace inplace {

/// Which specialized executor the classifier selected.
enum class perm_kind : std::uint8_t {
  identity,
  rotation,
  bit_reversal,
  transpose2d,
  generic,
};

/// Stable display names (telemetry plan records, bench JSON).  The perm
/// engine reports engine="perm" and carries the classifier verdict in the
/// plan record's calibration slot (unused by the 2-D paths).
[[nodiscard]] constexpr const char* perm_kind_name(perm_kind k) {
  switch (k) {
    case perm_kind::identity:
      return "identity";
    case perm_kind::rotation:
      return "rotation";
    case perm_kind::bit_reversal:
      return "bit_reversal";
    case perm_kind::transpose2d:
      return "transpose2d";
    case perm_kind::generic:
      return "generic";
  }
  return "unknown";
}

/// What the classifier scan established about pi.  For a structured kind
/// the parameters determine every entry, so (n, verdict) identifies pi
/// exactly; a generic pi is identified by its 128-bit content hash.  The
/// context cache keys permuter arenas on it and checked mode re-derives
/// it at execution.
struct perm_verdict {
  perm_kind kind = perm_kind::generic;

  /// rotation: the gather offset k (pi[i] = (i + k) mod n, k in [1, n)).
  std::uint64_t rot_k = 0;

  /// bit_reversal: w with n = 2^w.
  std::uint64_t log2n = 0;

  /// transpose2d: the (rows x cols) C2R factorization (rows*cols = n,
  /// cols = pi[1]); the executor runs direction c2r for the forward
  /// permutation and r2c for the inverse.
  std::uint64_t t2d_rows = 0;
  std::uint64_t t2d_cols = 0;

  /// generic only: the content hash of pi (both words nonzero); zero for
  /// the structured kinds, whose parameters already pin pi down.
  std::uint64_t fingerprint_lo = 0;
  std::uint64_t fingerprint_hi = 0;

  friend bool operator==(const perm_verdict&, const perm_verdict&) = default;
};

/// A resolved permutation plan: the classifier's verdict plus what the
/// executor needs beyond it.
struct perm_plan : perm_verdict {
  std::uint64_t n = 0;  ///< permutation length
  bool inverse = false;  ///< apply pi^-1 (scatter) instead of pi (gather)

  /// bit_reversal: the COBRA tile bits q (tiles are 2^q x 2^q sub-rows;
  /// q = 0 selects the naive pair-swap loop).
  std::uint64_t cobra_q = 0;

  /// Resolved hot-path kernel tier (same resolution chain as
  /// transpose_plan.ktier, including INPLACE_FORCE_KERNEL_TIER).
  kernels::tier ktier = kernels::tier::scalar;

  /// Where the executor's scratch acquisition landed on the OOM ladder
  /// (planning emits full; permuter<T, I> demotes on bad_alloc only).
  scratch_rung rung = scratch_rung::full;

  [[nodiscard]] const perm_verdict& verdict() const { return *this; }
};

namespace detail {

/// Reverses the low `w` bits of `v` (v < 2^w).  Plan/setup-time only —
/// the classifier builds a block table from it and the COBRA executor
/// tile-local tables, instead of calling it per element.
[[nodiscard]] constexpr std::uint64_t perm_bitrev(std::uint64_t v,
                                                  std::uint64_t w) {
  std::uint64_t r = 0;
  for (std::uint64_t b = 0; b < w; ++b) {
    r = (r << 1) | ((v >> b) & 1u);
  }
  return r;
}

/// Entries the classifier checks per block: small enough that a block
/// stays in L1 while every live candidate re-reads it, large enough that
/// per-block set-up (the bit-reversal high half, the transpose2d run
/// split) is noise.
inline constexpr unsigned perm_scan_block_bits = 10;
inline constexpr std::size_t perm_scan_block = std::size_t{1}
                                               << perm_scan_block_bits;

/// Fires the "perm.plan.classify" failpoint (perm_plan.cpp).  Called
/// before pi is read, so an injected planning fault provably leaves the
/// data buffer and the permutation untouched.
void perm_classify_begin();

/// Throws the out-of-range inplace::error naming pi[i] = v (perm_plan.cpp).
[[noreturn]] void throw_perm_out_of_range(std::uint64_t i, std::uint64_t v,
                                          std::uint64_t n);

/// Completes a plan from the scan's verdict: kernel tier and, for bit
/// reversal, the COBRA tile bits (perm_plan.cpp).
[[nodiscard]] perm_plan plan_from_verdict(const perm_verdict& v,
                                          std::uint64_t n, bool inverse,
                                          const options& opts,
                                          std::size_t elem_size);

/// OR over j < len of pi[j] ^ (start + j * stride), in the index type's
/// unsigned width: zero iff the run is the affine sequence.
template <typename U, typename I>
[[nodiscard]] inline U perm_diff_affine(const I* p, std::size_t len, U start,
                                        U stride) {
  U acc = 0;
  for (std::size_t j = 0; j < len; ++j) {
    const auto want = static_cast<U>(start + static_cast<U>(j) * stride);
    acc = static_cast<U>(acc | (static_cast<U>(p[j]) ^ want));
  }
  return acc;
}

/// OR over j < len of pi[j] ^ (tab[j] + add): zero iff the run matches
/// the table shifted by `add`.
template <typename U, typename I>
[[nodiscard]] inline U perm_diff_table(const I* p, const U* tab,
                                       std::size_t len, U add) {
  U acc = 0;
  for (std::size_t j = 0; j < len; ++j) {
    const auto want = static_cast<U>(tab[j] + add);
    acc = static_cast<U>(acc | (static_cast<U>(p[j]) ^ want));
  }
  return acc;
}

/// 128-bit content hash of a generic pi: four independent 64-bit lanes
/// (entry i feeds lane i mod 4, xxHash64's round), so the multiplies of
/// neighbouring entries overlap instead of forming one serial chain.  The
/// rotate in each round also carries a changed input bit into lower hash
/// bits, which a multiply-only (FNV) word stream never does; a collision
/// here makes the context apply a cached plan built for another pi.
class perm_hash {
 public:
  /// Feeds `len` entries starting at a global index that is a multiple
  /// of 4 (every block but the last has a multiple-of-4 length).
  template <typename U, typename I>
  void feed(const I* p, std::size_t len) {
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        lane_[l] = round(lane_[l], static_cast<U>(p[j + l]));
      }
    }
    for (std::size_t l = 0; j < len; ++j, ++l) {
      lane_[l] = round(lane_[l], static_cast<U>(p[j]));
    }
  }

  /// The two hash words for a pi of length n, both nonzero: each folds
  /// all four lanes, from its own seed and with its own input rotation.
  void finish(std::uint64_t n, perm_verdict& v) const {
    std::uint64_t lo = n;
    std::uint64_t hi = n ^ p3;
    for (const std::uint64_t a : lane_) {
      lo = round(lo, a);
      hi = round(hi, std::rotl(a, 32));
    }
    v.fingerprint_lo = nonzero(avalanche(lo));
    v.fingerprint_hi = nonzero(avalanche(hi));
  }

 private:
  static constexpr std::uint64_t p1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t p2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t p3 = 0x165667B19E3779F9ull;

  static constexpr std::uint64_t round(std::uint64_t acc, std::uint64_t x) {
    return std::rotl(acc + x * p2, 31) * p1;
  }
  static constexpr std::uint64_t avalanche(std::uint64_t h) {
    h = (h ^ (h >> 33)) * p2;
    h = (h ^ (h >> 29)) * p3;
    return h ^ (h >> 32);
  }
  static constexpr std::uint64_t nonzero(std::uint64_t h) {
    return h != 0 ? h : 1;
  }

  std::array<std::uint64_t, 4> lane_{p1 + p2, p2, 0, 0 - p1};
};

/// The classifier scan: the verdict for pi, or inplace::error when an
/// entry is out of range.  `structured = false` skips the candidates and
/// goes straight to the generic range check and hash (checked mode
/// re-verifies a generic plan that way: its executor accepts any pi).
template <typename I>
[[nodiscard]] perm_verdict scan_permutation(std::span<const I> pi,
                                            bool structured = true) {
  static_assert(std::is_integral_v<I>, "permutation indices are integers");
  // Comparisons run in the index type's own unsigned width; a negative
  // entry maps past the signed maximum, which is never a valid index.
  using U = std::make_unsigned_t<
      std::conditional_t<std::is_same_v<I, bool>, unsigned char, I>>;
  constexpr std::size_t block = perm_scan_block;
  const std::uint64_t n = pi.size();
  const I* const p = pi.data();
  perm_verdict v;
  if (n == 0) {
    v.kind = perm_kind::identity;
    return v;
  }
  const auto widen = [](I x) { return static_cast<std::uint64_t>(x); };
  const auto max_entry =
      static_cast<std::uint64_t>(std::numeric_limits<I>::max());

  // Every structured family takes the value n - 1 somewhere, so an index
  // type that cannot hold it leaves only the generic verdict.
  if (structured && n - 1 <= max_entry) {
    bool id = true;
    const std::uint64_t k = widen(p[0]);
    bool rot = k != 0 && k < n;  // k = 0 is the identity
    const bool pow2 = std::has_single_bit(n);
    const auto w =
        pow2 ? static_cast<std::uint64_t>(std::countr_zero(n)) : 0;
    bool brev = pow2;
    // transpose2d: pi[i] = i*a mod (n-1) is the C2R gather of an
    // (n/a) x a matrix (Catanzaro Eq. 2 with cols = a); both factors must
    // be >= 2 for the 2-D engines to have anything to chew on.
    const std::uint64_t a = n >= 4 ? widen(p[1]) : 0;
    bool t2d = n >= 4 && a >= 2 && a < n && n % a == 0 && n / a >= 2;
    const std::uint64_t rows = t2d ? n / a : 0;

    // Bit reversal splits i = (hi, lo) with tb = min(w, 10) low bits:
    // bitrev_w(i) = (bitrev_tb(lo) << (w - tb)) + bitrev_{w-tb}(hi), the
    // first term a table and the second one value per aligned block.  Only
    // the 2^tb entries written here are ever read, so no zero-fill.
    std::array<U, block> brev_tab;
    const std::uint64_t tb = std::min<std::uint64_t>(w, perm_scan_block_bits);
    if (brev) {
      for (std::uint64_t j = 0; j < (std::uint64_t{1} << tb); ++j) {
        brev_tab[j] = static_cast<U>(perm_bitrev(j, tb) << (w - tb));
      }
    }

    for (std::uint64_t b0 = 0; b0 < n; b0 += block) {
      const auto len = static_cast<std::size_t>(std::min<std::uint64_t>(
          block, n - b0));
      const std::uint64_t end = b0 + len;
      const I* const blk = p + b0;
      if (id) {
        id = perm_diff_affine(blk, len, static_cast<U>(b0), U{1}) == 0;
      }
      if (rot) {
        // Entries before s = n - k expect i + k, the rest i - s.
        const std::uint64_t s = n - k;
        const auto cut = static_cast<std::size_t>(
            std::clamp(s, b0, end) - b0);
        rot = (perm_diff_affine(blk, cut, static_cast<U>(b0 + k), U{1}) |
               perm_diff_affine(blk + cut, len - cut,
                                static_cast<U>(b0 + cut - s), U{1})) == 0;
      }
      if (brev) {
        brev = perm_diff_table(blk, brev_tab.data(), len,
                               static_cast<U>(perm_bitrev(b0 >> tb,
                                                          w - tb))) == 0;
      }
      if (t2d) {
        // Entry i = x*rows + y expects y*cols + x: runs of constant x,
        // each an affine sequence of stride cols.
        U diff = 0;
        std::uint64_t x = b0 / rows;
        std::uint64_t y = b0 % rows;
        for (std::uint64_t i = b0; i < end; ++x, y = 0) {
          const std::uint64_t run = std::min(rows - y, end - i);
          diff |= perm_diff_affine(p + i, static_cast<std::size_t>(run),
                                   static_cast<U>(y * a + x),
                                   static_cast<U>(a));
          i += run;
        }
        t2d = diff == 0;
      }
      if (!(id || rot || brev || t2d)) {
        break;
      }
    }

    // Specificity order on survivors: identity > rotation > bit_reversal
    // > transpose2d (n = 4, a = 2 is both of the last two; COBRA wins).
    if (id) {
      v.kind = perm_kind::identity;
      return v;
    }
    if (rot) {
      v.kind = perm_kind::rotation;
      v.rot_k = k;
      return v;
    }
    if (brev) {
      v.kind = perm_kind::bit_reversal;
      v.log2n = w;
      return v;
    }
    if (t2d) {
      v.kind = perm_kind::transpose2d;
      v.t2d_rows = rows;
      v.t2d_cols = a;
      return v;
    }
  }

  // Generic: every entry must be <= last (the largest valid index the
  // type can hold), and the content hash covers them all.
  const auto last = static_cast<U>(std::min(n - 1, max_entry));
  perm_hash h;
  for (std::uint64_t b0 = 0; b0 < n; b0 += block) {
    const auto len = static_cast<std::size_t>(std::min<std::uint64_t>(
        block, n - b0));
    const I* const blk = p + b0;
    bool bad = false;
    for (std::size_t j = 0; j < len; ++j) {
      bad |= static_cast<U>(blk[j]) > last;
    }
    if (bad) {
      std::size_t j = 0;
      while (static_cast<U>(blk[j]) <= last) {
        ++j;
      }
      throw_perm_out_of_range(b0 + j, widen(blk[j]), n);
    }
    h.feed<U>(blk, len);
  }
  h.finish(n, v);
  return v;
}

}  // namespace detail

/// Builds the plan for applying `pi` (gather: out[i] = in[pi[i]]) or, with
/// `inverse`, pi^-1 (scatter: out[pi[i]] = in[i]) to an n-element buffer.
/// Validates pi's range; bijectivity is a precondition (checked mode
/// proves it at execution time).
template <typename I>
[[nodiscard]] perm_plan make_perm_plan(std::span<const I> pi, bool inverse,
                                       const options& opts,
                                       std::size_t elem_size) {
  static_assert(std::is_integral_v<I>, "permutation indices are integers");
  detail::perm_classify_begin();
  return detail::plan_from_verdict(detail::scan_permutation(pi), pi.size(),
                                   inverse, opts, elem_size);
}

}  // namespace inplace
