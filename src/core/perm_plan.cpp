// Non-template half of the permutation classifier.  The scan itself is a
// template in perm_plan.hpp, instantiated for the caller's index type so
// it reads pi directly and its block comparisons vectorize; this file
// holds what does not depend on that type: the planning failpoint, the
// out-of-range error, and the executor choices derived from a verdict.
//
// Compiled with INPLACE_FAILPOINTS=1 (src/CMakeLists.txt): planning is
// cold, and the rollback tests need a provably pre-mutation fault site.

#include "core/perm_plan.hpp"

#include <string>

#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "cpu/kernels/kernel_set.hpp"

namespace inplace::detail {

namespace {

/// COBRA tile bits: the largest q with a 2^q x 2^q tile pair (two tile
/// buffers, 2 * W^2 elements) fitting in half of L1 and with enough
/// address bits left for the middle field (w >= 2q).  q = 0 selects the
/// naive pair-swap loop — below 2 the tile machinery is pure overhead.
std::uint64_t cobra_tile_bits(std::uint64_t w, std::size_t elem_size) {
  const std::size_t l1 = kernels::probed_caches().l1_bytes;
  std::uint64_t q = w / 2;
  constexpr std::uint64_t q_cap = 6;  // 64x64 tiles: past diminishing returns
  if (q > q_cap) {
    q = q_cap;
  }
  while (q > 0) {
    const std::uint64_t tile_elems = 2ull << (2 * q);  // 2 * W^2
    if (tile_elems * elem_size <= l1 / 2) {
      break;
    }
    --q;
  }
  return q >= 2 ? q : 0;
}

}  // namespace

void perm_classify_begin() {
  // Fires before pi is even read: an injected planning fault must leave
  // both the data buffer and the permutation untouched.
  INPLACE_FAILPOINT("perm.plan.classify");
}

void throw_perm_out_of_range(std::uint64_t i, std::uint64_t v,
                             std::uint64_t n) {
  throw error("inplace: permutation entry out of range: pi[" +
              std::to_string(i) + "] = " + std::to_string(v) +
              " with n = " + std::to_string(n));
}

perm_plan plan_from_verdict(const perm_verdict& v, std::uint64_t n,
                            bool inverse, const options& opts,
                            std::size_t elem_size) {
  perm_plan plan;
  static_cast<perm_verdict&>(plan) = v;
  plan.n = n;
  plan.inverse = inverse;
  plan.ktier = kernels::resolve_tier(opts.kernel);
  if (v.kind == perm_kind::bit_reversal) {
    plan.cobra_q = cobra_tile_bits(v.log2n, elem_size);
  }
  return plan;
}

}  // namespace inplace::detail
