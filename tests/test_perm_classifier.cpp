// Differential suite for the permutation classifier (core/perm_plan.hpp):
// the block-wise scan against the serial one-pass scan it replaced, kept
// here verbatim in logic as the reference.  Both must agree on the
// verdict, on every parameter the executors read (rot_k, log2n, cobra_q,
// t2d_rows, t2d_cols) and, for an out-of-range pi, on the error message
// naming the first bad index — over every length up to 70, the lengths
// around the scan's block size, each structured family disturbed at the
// block edges and the ends, and six index types.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/perm_plan.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;

constexpr std::uint64_t B = detail::perm_scan_block;

struct ref_verdict {
  perm_kind kind = perm_kind::generic;
  std::uint64_t rot_k = 0;
  std::uint64_t log2n = 0;
  std::uint64_t cobra_q = 0;
  std::uint64_t t2d_rows = 0;
  std::uint64_t t2d_cols = 0;
};

/// The COBRA tile-bit rule, as the plan derives it.
std::uint64_t ref_cobra_tile_bits(std::uint64_t w, std::size_t elem_size) {
  const std::size_t l1 = kernels::probed_caches().l1_bytes;
  std::uint64_t q = std::min<std::uint64_t>(w / 2, 6);
  while (q > 0 && (2ull << (2 * q)) * elem_size > l1 / 2) {
    --q;
  }
  return q >= 2 ? q : 0;
}

/// The serial reference: one pass validating every entry while stepping
/// each candidate's expectation incrementally (the bit-reversal carry
/// walk, the transpose2d i*a mod (n-1) stepper).
template <typename I>
ref_verdict reference_classify(std::span<const I> pi, std::size_t elem_size) {
  const std::uint64_t n = pi.size();
  const auto get = [&](std::uint64_t i) {
    return static_cast<std::uint64_t>(pi[static_cast<std::size_t>(i)]);
  };
  ref_verdict r;
  if (n == 0) {
    r.kind = perm_kind::identity;
    return r;
  }
  bool identity = true;
  const std::uint64_t rot_k = get(0);
  bool rotation = rot_k < n;
  const bool pow2 = std::has_single_bit(n);
  const std::uint64_t w =
      pow2 ? static_cast<std::uint64_t>(std::countr_zero(n)) : 0;
  bool bitrev_ok = pow2;
  const std::uint64_t a = n >= 4 ? get(1) : 0;
  bool t2d = n >= 4 && a >= 2 && a < n && n % a == 0 && n / a >= 2;
  std::uint64_t rv = 0;
  std::uint64_t t2d_want = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t v = get(i);
    if (v >= n) {
      throw error("inplace: permutation entry out of range: pi[" +
                  std::to_string(i) + "] = " + std::to_string(v) +
                  " with n = " + std::to_string(n));
    }
    identity = identity && v == i;
    rotation = rotation && v == (i + rot_k >= n ? i + rot_k - n : i + rot_k);
    if (bitrev_ok) {
      bitrev_ok = v == rv;
      std::uint64_t bit = n >> 1;
      while ((rv & bit) != 0) {
        rv ^= bit;
        bit >>= 1;
      }
      rv |= bit;
    }
    if (t2d) {
      t2d = v == (i == n - 1 ? n - 1 : t2d_want);
      t2d_want += a;
      if (t2d_want >= n - 1) {
        t2d_want -= n - 1;
      }
    }
  }
  if (identity) {
    r.kind = perm_kind::identity;
  } else if (rotation) {
    r.kind = perm_kind::rotation;
    r.rot_k = rot_k;
  } else if (bitrev_ok) {
    r.kind = perm_kind::bit_reversal;
    r.log2n = w;
    r.cobra_q = ref_cobra_tile_bits(w, elem_size);
  } else if (t2d) {
    r.kind = perm_kind::transpose2d;
    r.t2d_rows = n / a;
    r.t2d_cols = a;
  }
  return r;
}

/// Classifies `values` (converted to I, so narrow types wrap and signed
/// ones turn huge values negative) both ways and compares everything.
template <typename I>
void expect_same(const std::vector<std::uint64_t>& values,
                 const std::string& what) {
  // A plain array, not std::vector: vector<bool> has no contiguous data.
  const auto pi = std::make_unique<I[]>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    pi[i] = static_cast<I>(values[i]);
  }
  const std::span<const I> ps(pi.get(), values.size());
  constexpr std::size_t elem = sizeof(double);
  ref_verdict want;
  std::string want_err;
  try {
    want = reference_classify(ps, elem);
  } catch (const error& e) {
    want_err = e.what();
  }
  perm_plan got;
  std::string got_err;
  try {
    got = make_perm_plan(ps, false, options{}, elem);
  } catch (const error& e) {
    got_err = e.what();
  }
  const std::string ctx =
      what + " n=" + std::to_string(values.size()) + " sizeof(I)=" +
      std::to_string(sizeof(I)) + (std::is_signed_v<I> ? " signed" : "");
  ASSERT_EQ(got_err, want_err) << ctx;
  if (!want_err.empty()) {
    return;
  }
  ASSERT_EQ(got.kind, want.kind) << ctx << " got " << perm_kind_name(got.kind);
  EXPECT_EQ(got.n, values.size()) << ctx;
  EXPECT_EQ(got.rot_k, want.rot_k) << ctx;
  EXPECT_EQ(got.log2n, want.log2n) << ctx;
  EXPECT_EQ(got.cobra_q, want.cobra_q) << ctx;
  EXPECT_EQ(got.t2d_rows, want.t2d_rows) << ctx;
  EXPECT_EQ(got.t2d_cols, want.t2d_cols) << ctx;
  // Only a generic verdict carries (and needs) a content hash.
  EXPECT_EQ(got.fingerprint_lo != 0, got.kind == perm_kind::generic) << ctx;
}

void expect_same_all_types(const std::vector<std::uint64_t>& values,
                           const std::string& what) {
  expect_same<std::uint8_t>(values, what);
  expect_same<std::uint16_t>(values, what);
  expect_same<std::int32_t>(values, what);
  expect_same<std::uint32_t>(values, what);
  expect_same<std::int64_t>(values, what);
  expect_same<std::uint64_t>(values, what);
}

std::vector<std::uint64_t> identity_values(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), std::uint64_t{0});
  return v;
}

std::vector<std::uint64_t> rotation_values(std::uint64_t n, std::uint64_t k) {
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    v[i] = (i + k) % n;
  }
  return v;
}

std::vector<std::uint64_t> bitrev_values(std::uint64_t w) {
  std::vector<std::uint64_t> v(std::uint64_t{1} << w);
  for (std::uint64_t i = 0; i < v.size(); ++i) {
    v[i] = detail::perm_bitrev(i, w);
  }
  return v;
}

/// pi[i] = i*a mod (n-1), pi[n-1] = n-1: the C2R gather of (n/a) x a.
std::vector<std::uint64_t> t2d_values(std::uint64_t n, std::uint64_t a) {
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t i = 0; i + 1 < n; ++i) {
    v[i] = i * a % (n - 1);
  }
  v[n - 1] = n - 1;
  return v;
}

/// Every structured permutation of length n the classifier can name.
std::vector<std::pair<std::string, std::vector<std::uint64_t>>> families(
    std::uint64_t n) {
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> out;
  out.emplace_back("identity", identity_values(n));
  for (const std::uint64_t k : {std::uint64_t{1}, n / 3, n / 2, n - 1}) {
    if (k >= 1 && k < n) {
      out.emplace_back("rotation k=" + std::to_string(k),
                       rotation_values(n, k));
    }
  }
  if (std::has_single_bit(n)) {
    out.emplace_back("bitrev",
                     bitrev_values(static_cast<std::uint64_t>(
                         std::countr_zero(n))));
  }
  for (std::uint64_t a = 2; n >= 4 && a <= n / 2; ++a) {
    if (n % a == 0) {
      out.emplace_back("t2d a=" + std::to_string(a), t2d_values(n, a));
    }
  }
  return out;
}

/// The family itself, then one entry disturbed at each of positions 0, 1,
/// B-1, B, n-2, n-1: by a swap (still a bijection), by the out-of-range
/// value n, and by -1 (negative for signed index types).
void check_family_with_disturbances(const std::string& name,
                                    const std::vector<std::uint64_t>& base) {
  const std::uint64_t n = base.size();
  expect_same_all_types(base, name);
  for (const std::uint64_t pos : {std::uint64_t{0}, std::uint64_t{1}, B - 1, B,
                                  n - 2, n - 1}) {
    if (n < 2 || pos >= n) {
      continue;
    }
    const std::string at = name + " @" + std::to_string(pos);
    auto swapped = base;
    std::swap(swapped[pos], swapped[(pos + n / 2 + 1) % n]);
    expect_same_all_types(swapped, at + " swap");
    auto high = base;
    high[pos] = n;
    expect_same_all_types(high, at + " =n");
    auto negative = base;
    negative[pos] = ~std::uint64_t{0};
    expect_same_all_types(negative, at + " =-1");
  }
}

TEST(PermClassifier, MatchesSerialScanForEveryLengthUpTo70) {
  for (std::uint64_t n = 0; n <= 70; ++n) {
    // Every rotation offset, undisturbed.
    for (std::uint64_t k = 1; k < n; ++k) {
      expect_same_all_types(rotation_values(n, k), "rotation");
    }
    for (const auto& [name, values] : families(n)) {
      check_family_with_disturbances(name, values);
    }
  }
}

TEST(PermClassifier, MatchesSerialScanAroundTheBlockSize) {
  for (const std::uint64_t n : {B - 1, B, B + 1, 2 * B, 3 * B + 7}) {
    for (const auto& [name, values] : families(n)) {
      check_family_with_disturbances(name, values);
    }
  }
}

TEST(PermClassifier, BitReversalBelowAndAboveTheTableWidth) {
  // The low-bits table covers log2(B) = 10 bits: w < 10 is one partial
  // block, w = 10 one full block, w > 10 adds the per-block high half.
  for (const std::uint64_t w : {2u, 5u, 9u, 10u, 11u, 13u}) {
    check_family_with_disturbances("bitrev w=" + std::to_string(w),
                                   bitrev_values(w));
  }
}

TEST(PermClassifier, TransposeWithTwoRowsOrTwoColumns) {
  // rows = 2 (a = n/2) and cols = 2 (a = 2), short and tall: runs of one
  // or two entries, and runs that straddle a block boundary.
  for (const std::uint64_t n : {8u, 70u, 2u * 1000u, 2u * 1536u, 2u * 4099u}) {
    check_family_with_disturbances("t2d rows=2", t2d_values(n, n / 2));
    check_family_with_disturbances("t2d cols=2", t2d_values(n, 2));
  }
  // Tall matrices whose columns span blocks: rows > B.
  check_family_with_disturbances("t2d 1500x3", t2d_values(4500, 3));
  check_family_with_disturbances("t2d 1025x4", t2d_values(4100, 4));
}

TEST(PermClassifier, NegativeEntriesFailAtTheFirstBadIndex) {
  for (const std::uint64_t n : {1u, 4u, 33u, 1030u}) {
    auto v = rotation_values(n, n / 2);
    v[0] = ~std::uint64_t{0};  // pi[0] = -1: no rotation candidate
    expect_same_all_types(v, "pi[0]=-1");
    if (n >= 2) {
      auto w = identity_values(n);
      w[1] = ~std::uint64_t{1};  // pi[1] = -2: no transpose2d candidate
      expect_same_all_types(w, "pi[1]=-2");
      w[n - 1] = ~std::uint64_t{0};
      expect_same_all_types(w, "pi[1]=-2,pi[n-1]=-1");
    }
  }
}

TEST(PermClassifier, RandomPermutationsAndSwappedFamilies) {
  util::xoshiro256 rng(0xC1A551F7);
  for (int t = 0; t < 60; ++t) {
    const std::uint64_t n = rng.uniform(0, 3 * B);
    auto v = identity_values(n);
    for (std::uint64_t i = n; i > 1; --i) {
      std::swap(v[i - 1], v[rng.uniform(0, i)]);
    }
    expect_same_all_types(v, "random");
    if (n >= 2) {
      // A rotation with one random transposition of two entries.
      auto r = rotation_values(n, rng.uniform(1, n));
      std::swap(r[rng.uniform(0, n)], r[rng.uniform(0, n)]);
      expect_same_all_types(r, "rotation+swap");
    }
  }
}

TEST(PermClassifier, EveryIntegralIndexTypeCompiles) {
  const std::vector<std::uint64_t> values = {1, 0};
  expect_same<bool>(values, "bool");
  expect_same<char>(values, "char");
  expect_same<signed char>(values, "signed char");
  expect_same<char8_t>(values, "char8_t");
  expect_same<char16_t>(values, "char16_t");
  expect_same<char32_t>(values, "char32_t");
  expect_same<wchar_t>(values, "wchar_t");
  expect_same<short>(values, "short");
  expect_same<long long>(values, "long long");
  expect_same<unsigned long long>(values, "unsigned long long");
}

}  // namespace
