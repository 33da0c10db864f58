// Tests for the permutation and rotation primitives (core/permute.hpp,
// core/rotate.hpp) against brute-force models: row gathers/scatters,
// column gathers, cycle discovery and replay, coarse/fine/naive rotation
// equivalence, the window-normalization logic, and the fallback path for
// amount functions that violate the sub-row window assumption, and the
// strided sub-row sweeps with a real kernel set and their prefetch window,
// and the cycle walker (core/cycles.hpp) on every rung.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cycles.hpp"
#include "core/permute.hpp"
#include "core/rotate.hpp"
#include "core/tensor_nd.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "util/aligned.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;
using namespace inplace::detail;

// Brute-force rotation model: dst[i][j] = src[(i + amount(j)) % m][j].
template <typename AmountFn>
std::vector<std::uint32_t> rotated_model(const std::vector<std::uint32_t>& a,
                                         std::uint64_t m, std::uint64_t n,
                                         AmountFn amount) {
  std::vector<std::uint32_t> out(a.size());
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      out[i * n + j] = a[(i + amount(j)) % m * n + j];
    }
  }
  return out;
}

TEST(Primitives, RowGatherAndScatterAreInverses) {
  const std::uint64_t n = 17;
  std::vector<std::uint32_t> row(n);
  util::fill_iota(std::span<std::uint32_t>(row));
  const auto src = row;
  util::aligned_vector<std::uint32_t> tmp(n);
  const auto idx = [n](std::uint64_t j) { return (j * 5 + 3) % n; };
  row_gather_inplace(row.data(), n, tmp.data(), idx);
  for (std::uint64_t j = 0; j < n; ++j) {
    EXPECT_EQ(row[j], src[idx(j)]);
  }
  row_scatter_inplace(row.data(), n, tmp.data(), idx);
  EXPECT_EQ(row, src);
}

TEST(Primitives, ColumnGatherMatchesModel) {
  const std::uint64_t m = 9;
  const std::uint64_t n = 5;
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  util::aligned_vector<std::uint32_t> tmp(m);
  const auto idx = [m](std::uint64_t i) { return (i * 2 + 1) % m; };
  column_gather_inplace(a.data(), m, n, 3, tmp.data(), idx);
  for (std::uint64_t i = 0; i < m; ++i) {
    EXPECT_EQ(a[i * n + 3], src[idx(i) * n + 3]);
    EXPECT_EQ(a[i * n + 0], src[i * n + 0]);  // other columns untouched
  }
}

TEST(Primitives, FindCyclesCoversPermutation) {
  const std::uint64_t m = 12;
  const auto perm = [m](std::uint64_t i) { return (i * 5) % m; };  // gcd=1
  std::vector<std::uint8_t> visited(m);
  std::vector<std::uint64_t> cycles;
  find_cycles(m, perm, visited, cycles);
  // Every element visited exactly once.
  for (std::uint64_t i = 0; i < m; ++i) {
    EXPECT_TRUE(visited[i]) << i;
  }
  // Fixed points are not recorded as cycles.
  std::vector<std::uint8_t> v2(m);
  std::vector<std::uint64_t> c2;
  find_cycles(m, [](std::uint64_t i) { return i; }, v2, c2);
  EXPECT_TRUE(c2.empty());
}

TEST(Primitives, PermuteRowsInGroupMatchesModel) {
  const std::uint64_t m = 10;
  const std::uint64_t n = 8;
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  const auto perm = [m](std::uint64_t i) { return (i * 3 + 1) % m; };
  std::vector<std::uint8_t> visited(m);
  std::vector<std::uint64_t> cycles;
  find_cycles(m, perm, visited, cycles);
  std::vector<std::uint32_t> tmp(n);
  // Apply in two groups of width 4.
  permute_rows_in_group(a.data(), n, 0, 4, perm, cycles, tmp.data());
  permute_rows_in_group(a.data(), n, 4, 4, perm, cycles, tmp.data());
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      EXPECT_EQ(a[i * n + j], src[perm(i) * n + j]) << i << "," << j;
    }
  }
}

TEST(Primitives, CoarseRotateEqualsNaive) {
  util::xoshiro256 rng(31);
  for (int t = 0; t < 30; ++t) {
    const std::uint64_t m = rng.uniform(2, 40);
    const std::uint64_t n = rng.uniform(4, 24);
    const std::uint64_t w = rng.uniform(1, n + 1);
    const std::uint64_t k = rng.uniform(0, m);
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto want = rotated_model(a, m, n, [&](std::uint64_t j) {
      return j < w ? k : 0;  // rotate only the group at j0 = 0
    });
    std::vector<std::uint32_t> sub(w);
    coarse_rotate_group(a.data(), m, n, 0, w, k, sub.data());
    ASSERT_EQ(a, want) << m << "x" << n << " w=" << w << " k=" << k;
  }
}

TEST(Primitives, FineRotateEqualsNaive) {
  util::xoshiro256 rng(32);
  for (int t = 0; t < 30; ++t) {
    const std::uint64_t m = rng.uniform(3, 50);
    const std::uint64_t n = rng.uniform(2, 16);
    const std::uint64_t w = n;
    const std::uint64_t max_res = std::min(w, m) - 1;
    std::vector<std::uint64_t> res(w);
    for (auto& r : res) {
      r = max_res == 0 ? 0 : rng.uniform(0, max_res + 1);
    }
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto want = rotated_model(
        a, m, n, [&](std::uint64_t j) { return res[j]; });
    std::vector<std::uint32_t> head(std::max<std::uint64_t>(1, max_res) * w);
    fine_rotate_group(a.data(), m, n, 0, w, res.data(), head.data());
    ASSERT_EQ(a, want) << m << "x" << n;
  }
}

TEST(Primitives, GroupRotateHandlesAllPaperAmountFamilies) {
  // The four rotation families the engines use: +j, -j, +⌊j/b⌋, -⌊j/b⌋.
  util::xoshiro256 rng(33);
  for (int t = 0; t < 40; ++t) {
    const std::uint64_t m = rng.uniform(2, 60);
    const std::uint64_t n = rng.uniform(2, 60);
    const std::uint64_t b = rng.uniform(1, 8);
    const std::uint64_t width = rng.uniform(4, 20);
    const int family = static_cast<int>(rng.uniform(0, 4));
    const auto amount = [&](std::uint64_t j) -> std::uint64_t {
      switch (family) {
        case 0:
          return j % m;
        case 1:
          return (m - j % m) % m;
        case 2:
          return (j / b) % m;
        default:
          return (m - (j / b) % m) % m;
      }
    };
    auto a = util::iota_matrix<std::uint32_t>(m, n);
    const auto want = rotated_model(a, m, n, amount);
    workspace<std::uint32_t> ws;
    ws.reserve(m, n, width);
    rotate_columns_blocked(a.data(), m, n, width, amount, ws);
    ASSERT_EQ(a, want) << "family " << family << " " << m << "x" << n
                       << " b=" << b << " w=" << width;
  }
}

TEST(Primitives, GroupRotateFallsBackOnWindowViolation) {
  // A pseudo-random amount function violates the window assumption; the
  // group machinery must detect it and fall back to naive rotation.
  const std::uint64_t m = 29;
  const std::uint64_t n = 16;
  const auto amount = [m](std::uint64_t j) { return (j * 13 + 5) % m; };
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto want = rotated_model(a, m, n, amount);
  workspace<std::uint32_t> ws;
  ws.reserve(m, n, 8);
  rotate_columns_blocked(a.data(), m, n, 8, amount, ws);
  EXPECT_EQ(a, want);
}

TEST(Primitives, RotateDegenerateRows) {
  // m == 1: rotation is the identity regardless of amounts.
  auto a = util::iota_matrix<std::uint32_t>(1, 10);
  const auto src = a;
  workspace<std::uint32_t> ws;
  ws.reserve(1, 10, 4);
  rotate_columns_blocked(a.data(), 1, 10, 4,
                         [](std::uint64_t j) { return j; }, ws);
  EXPECT_EQ(a, src);
}

TEST(Primitives, WorkspaceReserveSizes) {
  workspace<double> ws;
  ws.reserve(100, 30, 8);
  EXPECT_EQ(ws.line.size(), 100u);  // max(m, n)
  EXPECT_EQ(ws.head.size(), 64u);   // width^2
  EXPECT_EQ(ws.subrow.size(), 8u);
  EXPECT_EQ(ws.visited.size(), 100u);
  EXPECT_EQ(ws.offsets.size(), 8u);
}

// --- strided sub-row sweeps with a real kernel set ------------------------
//
// The engines call the three sub-row sweeps on column slices (width < n)
// with the plan's kernel set; these tests do the same, with streaming off
// and on, over every group of a row (the last one ends at n and is not a
// whole number of cache lines wide), and check each column against the
// per-column reference primitives.

// Non-trivially-copyable element: the sweeps must take the std::copy path
// even when handed a kernel set.
struct boxed {
  std::uint64_t v = 0;
  boxed() = default;
  explicit boxed(std::uint64_t x) : v(x) {}
  boxed(const boxed& o) : v(o.v) {}
  boxed& operator=(const boxed& o) {
    v = o.v;
    return *this;
  }
  bool operator==(const boxed& o) const { return v == o.v; }
};
static_assert(!std::is_trivially_copyable_v<boxed>);

constexpr std::uint64_t kWindow = kernels::subrow_prefetch_window;
constexpr std::uint64_t kCols = 29;  // prime: no group width divides it

// Scalar plus the native tier when it differs.
std::vector<const kernels::kernel_set*> real_kernel_sets() {
  std::vector<const kernels::kernel_set*> sets{
      &kernels::set_for(kernels::tier::scalar)};
  const kernels::kernel_set& native =
      kernels::set_for(kernels::native_tier());
  if (native.t != kernels::tier::scalar) {
    sets.push_back(&native);
  }
  return sets;
}

template <typename T>
std::vector<T> index_matrix(std::uint64_t m, std::uint64_t n) {
  std::vector<T> a;
  a.reserve(m * n);
  for (std::uint64_t i = 0; i < m * n; ++i) {
    a.push_back(static_cast<T>(i));
  }
  return a;
}

// Calls fn(j0, w) for each width-wide group of an n-column row; the last
// group is narrower when width does not divide n.
template <typename Fn>
void for_each_group(std::uint64_t n, std::uint64_t width, Fn fn) {
  for (std::uint64_t j0 = 0; j0 < n; j0 += width) {
    fn(j0, std::min(width, n - j0));
  }
}

// Gather map on m rows made of cycles of the given lengths over shuffled
// row labels; the rows left over are fixed points.
std::vector<std::uint64_t> cycle_perm(std::uint64_t m,
                                      const std::vector<std::uint64_t>& lens,
                                      std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  std::vector<std::uint64_t> label(m);
  std::iota(label.begin(), label.end(), std::uint64_t{0});
  for (std::uint64_t i = m; i > 1; --i) {
    std::swap(label[i - 1], label[rng.uniform(0, i)]);
  }
  std::vector<std::uint64_t> p(m);
  std::iota(p.begin(), p.end(), std::uint64_t{0});
  std::uint64_t at = 0;
  for (const std::uint64_t len : lens) {
    for (std::uint64_t t = 0; t < len; ++t) {
      p[label[at + t]] = label[at + (t + 1) % len];
    }
    at += len;
  }
  return p;
}

template <typename T>
class StridedSweeps : public ::testing::Test {};
using SweepTypes = ::testing::Types<std::uint32_t, double, boxed>;
TYPED_TEST_SUITE(StridedSweeps, SweepTypes);

TYPED_TEST(StridedSweeps, PermuteRowsInGroupMatchesColumnGather) {
  using T = TypeParam;
  // Cycles of length 2, below, at and above the window, plus fixed points.
  const std::vector<std::uint64_t> lens{2, kWindow - 3, kWindow, kWindow + 1,
                                        2 * kWindow + 5};
  const std::uint64_t m =
      std::accumulate(lens.begin(), lens.end(), std::uint64_t{0}) + 4;
  const auto table = cycle_perm(m, lens, 41);
  const auto perm = [&](std::uint64_t i) { return table[i]; };
  std::vector<std::uint8_t> visited(m);
  std::vector<std::uint64_t> cycles;
  find_cycles(m, perm, visited, cycles);
  ASSERT_EQ(cycles.size(), lens.size());

  auto want = index_matrix<T>(m, kCols);
  util::aligned_vector<T> line(m);
  for (std::uint64_t j = 0; j < kCols; ++j) {
    column_gather_inplace(want.data(), m, kCols, j, line.data(), perm);
  }
  util::aligned_vector<T> sub(kCols);
  for (const kernels::kernel_set* ks : real_kernel_sets()) {
    for (const bool stream : {false, true}) {
      for (const std::uint64_t width : {std::uint64_t{16}, std::uint64_t{6},
                                        kCols}) {
        auto a = index_matrix<T>(m, kCols);
        for_each_group(kCols, width, [&](std::uint64_t j0, std::uint64_t w) {
          permute_rows_in_group(a.data(), kCols, j0, w, perm, cycles,
                                sub.data(), ks, stream);
        });
        ASSERT_TRUE(a == want) << kernels::tier_name(ks->t)
                               << " stream=" << stream << " width=" << width;
      }
    }
  }
}

TYPED_TEST(StridedSweeps, FineRotateMatchesNaive) {
  using T = TypeParam;
  util::xoshiro256 rng(42);
  // m around max_res + window, where the sweep's prefetch must stop at
  // row m - 1, and well past it.
  for (const std::uint64_t m :
       {std::uint64_t{3}, std::uint64_t{9}, kWindow + 3, kWindow + 4,
        kWindow + 5, std::uint64_t{40}}) {
    for (const std::uint64_t width : {std::uint64_t{16}, std::uint64_t{6},
                                      kCols}) {
      for (const std::uint64_t target : {1, 3, 4, 15}) {
        // Residuals per column; each group's first column carries its
        // largest residual, clipped below min(w, m).
        std::vector<std::uint64_t> res(kCols);
        for_each_group(kCols, width, [&](std::uint64_t j0, std::uint64_t w) {
          const std::uint64_t top = std::min(target, std::min(w, m) - 1);
          for (std::uint64_t jj = 0; jj < w; ++jj) {
            res[j0 + jj] = jj == 0 ? top : rng.uniform(0, top + 1);
          }
        });
        auto want = index_matrix<T>(m, kCols);
        std::vector<T> line(m);
        for (std::uint64_t j = 0; j < kCols; ++j) {
          rotate_column_naive(want.data(), m, kCols, j, res[j], line.data());
        }
        util::aligned_vector<T> head(width * width);
        util::aligned_vector<std::uint64_t> idx(width);
        for (const kernels::kernel_set* ks : real_kernel_sets()) {
          for (const bool stream : {false, true}) {
            auto a = index_matrix<T>(m, kCols);
            for_each_group(kCols, width,
                           [&](std::uint64_t j0, std::uint64_t w) {
                             fine_rotate_group(a.data(), m, kCols, j0, w,
                                               res.data() + j0, head.data(),
                                               ks, idx.data(), stream);
                           });
            ASSERT_TRUE(a == want)
                << kernels::tier_name(ks->t) << " stream=" << stream
                << " m=" << m << " width=" << width << " target=" << target;
          }
        }
      }
    }
  }
}

TYPED_TEST(StridedSweeps, CoarseRotateMatchesNaive) {
  using T = TypeParam;
  for (const std::uint64_t m : {std::uint64_t{5}, std::uint64_t{12},
                                2 * kWindow, std::uint64_t{37}}) {
    // Cycle lengths m / gcd(m, k) from 2 up to m, below, at and above the
    // window.
    for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                                  m / 2, m - 1, 3 * m / 8}) {
      auto want = index_matrix<T>(m, kCols);
      std::vector<T> line(m);
      for (std::uint64_t j = 0; j < kCols; ++j) {
        rotate_column_naive(want.data(), m, kCols, j, k, line.data());
      }
      util::aligned_vector<T> sub(kCols);
      for (const kernels::kernel_set* ks : real_kernel_sets()) {
        for (const bool stream : {false, true}) {
          for (const std::uint64_t width :
               {std::uint64_t{16}, std::uint64_t{6}, kCols}) {
            auto a = index_matrix<T>(m, kCols);
            for_each_group(kCols, width,
                           [&](std::uint64_t j0, std::uint64_t w) {
                             coarse_rotate_group(a.data(), m, kCols, j0, w, k,
                                                 sub.data(), ks, stream);
                           });
            ASSERT_TRUE(a == want)
                << kernels::tier_name(ks->t) << " stream=" << stream
                << " m=" << m << " k=" << k << " width=" << width;
          }
        }
      }
    }
  }
}

// --- the cycle walker (core/cycles.hpp) -------------------------------------
//
// Every rung x form x chunk width x element type against an out-of-place
// reference, over grid, random and rotation-by-one maps tabulated so the
// reference and the walker read the same map.

// Scratch on the requested rung: the fire hook refuses the rungs above it
// with std::bad_alloc, exactly as an allocator under pressure would.
template <typename T>
cycle_scratch<T> scratch_on(scratch_rung rung, std::uint64_t slots,
                            std::uint64_t buf_elems) {
  const int refuse = static_cast<int>(rung);
  int fired = 0;
  cycle_scratch<T> s = acquire_cycle_scratch<T>(slots, buf_elems, [&] {
    if (fired++ < refuse) {
      throw std::bad_alloc();
    }
  });
  EXPECT_EQ(s.rung, rung);
  EXPECT_EQ(fired, std::min(refuse + 1, 2)) << "one fire per allocating rung";
  return s;
}

struct table_index {
  const std::vector<std::uint64_t>* p;
  std::uint64_t operator()(std::uint64_t i) const { return (*p)[i]; }
};

struct walker_map {
  std::string name;
  std::vector<std::uint64_t> p;
  std::uint64_t rows = 0;  ///< grid maps: the grid the table came from
  std::uint64_t cols = 0;
};

// Rotation-by-one and random maps at 0, 1, 2 and odd slot counts, plus the
// tensor chunk pass's grid map (checked against its closed form).
std::vector<walker_map> walker_maps() {
  std::vector<walker_map> maps;
  for (const std::uint64_t slots : {0u, 1u, 2u, 7u, 31u, 101u}) {
    walker_map rot{"rotation-by-one/" + std::to_string(slots), {}};
    walker_map rnd{"random/" + std::to_string(slots), {}};
    for (std::uint64_t i = 0; i < slots; ++i) {
      rot.p.push_back((i + 1) % slots);
      rnd.p.push_back(i);
    }
    util::xoshiro256 rng(slots + 1);
    for (std::uint64_t i = slots; i > 1; --i) {
      std::swap(rnd.p[i - 1], rnd.p[rng.uniform(0, i)]);
    }
    maps.push_back(std::move(rot));
    maps.push_back(std::move(rnd));
  }
  const std::uint64_t shapes[][2] = {{1, 1}, {1, 2}, {2, 1}, {3, 5},
                                     {7, 3}, {4, 4}, {9, 11}};
  for (const auto& rc : shapes) {
    const std::uint64_t rows = rc[0];
    const std::uint64_t cols = rc[1];
    const grid_transpose_index grid(rows, cols);
    walker_map g{"grid/" + std::to_string(rows) + "x" + std::to_string(cols),
                 {}, rows, cols};
    for (std::uint64_t w = 0; w < rows * cols; ++w) {
      g.p.push_back(grid(w));
    }
    // Block (i, j) lands in slot j*rows + i: the gather source of that
    // slot is i*cols + j.
    for (std::uint64_t i = 0; i < rows; ++i) {
      for (std::uint64_t j = 0; j < cols; ++j) {
        EXPECT_EQ(g.p[j * rows + i], i * cols + j) << g.name;
      }
    }
    maps.push_back(std::move(g));
  }
  return maps;
}

template <typename T>
std::vector<T> reference_cycles(const std::vector<T>& in,
                                const std::vector<std::uint64_t>& p,
                                std::uint64_t chunk, cycle_form form) {
  std::vector<T> out(in.size());
  for (std::uint64_t w = 0; w < p.size(); ++w) {
    for (std::uint64_t off = 0; off < chunk; ++off) {
      if (form == cycle_form::gather) {
        out[w * chunk + off] = in[p[w] * chunk + off];
      } else {
        out[p[w] * chunk + off] = in[w * chunk + off];
      }
    }
  }
  return out;
}

constexpr scratch_rung kRungs[] = {scratch_rung::full, scratch_rung::reduced,
                                   scratch_rung::cycle_follow};
constexpr cycle_form kForms[] = {cycle_form::gather, cycle_form::scatter};

template <typename T>
class Cycles : public ::testing::Test {};
TYPED_TEST_SUITE(Cycles, SweepTypes);

TYPED_TEST(Cycles, EveryRungFormAndChunkWidthMatchesTheReference) {
  using T = TypeParam;
  // Portable moves, then each real kernel set with streaming off and on.
  std::vector<std::pair<const kernels::kernel_set*, bool>> movers{
      {nullptr, false}};
  for (const kernels::kernel_set* ks : real_kernel_sets()) {
    movers.emplace_back(ks, false);
    movers.emplace_back(ks, true);
  }
  for (const walker_map& map : walker_maps()) {
    const std::uint64_t slots = map.p.size();
    for (const std::uint64_t chunk : {1u, 3u, 16u}) {
      const auto src = index_matrix<T>(slots, chunk);
      for (const cycle_form form : kForms) {
        const auto want = reference_cycles(src, map.p, chunk, form);
        for (const scratch_rung rung : kRungs) {
          // The marks rungs run with and without the chunk buffer; the
          // cycle_follow rung never has one.
          for (const bool buffered : {false, true}) {
            if (buffered && rung == scratch_rung::cycle_follow) {
              continue;
            }
            auto s = scratch_on<T>(rung, slots, buffered ? chunk : 0);
            for (const auto& [ks, stream] : movers) {
              auto a = src;
              const cycle_move<T> mv{a.data(), chunk,
                                     buffered ? s.buf.data() : nullptr, ks,
                                     stream};
              permute_cycles(mv, slots, table_index{&map.p}, s, form);
              ASSERT_TRUE(a == want)
                  << map.name << " chunk=" << chunk << " form="
                  << (form == cycle_form::gather ? "gather" : "scatter")
                  << " rung=" << rung_name(rung) << " buffered=" << buffered
                  << " tier=" << (ks ? kernels::tier_name(ks->t) : "none")
                  << " stream=" << stream;
              if (map.rows == 0) {
                continue;
              }
              // The grid map itself declares it is a bijection, which on
              // the byte map takes the walk that marks while it moves.
              auto g = src;
              const cycle_move<T> gm{g.data(), chunk,
                                     buffered ? s.buf.data() : nullptr, ks,
                                     stream};
              permute_cycles(gm, slots,
                             grid_transpose_index(map.rows, map.cols), s,
                             form);
              ASSERT_TRUE(g == want)
                  << map.name << " (grid functor) chunk=" << chunk
                  << " rung=" << rung_name(rung) << " buffered=" << buffered;
            }
          }
        }
      }
    }
  }
}

TYPED_TEST(Cycles, NonBijectionThrowsBeforeTheBadCycleMoves) {
  using T = TypeParam;
  // Slots 0..5 form one good cycle in both maps.  In `loop`, 6 -> 7 ->
  // ... -> 11 -> 7 never returns to 6, so the walk from 6 passes the step
  // bound.  In `tail`, slot i >= 6 feeds slot i - 6 of the good cycle: on
  // the no-marks rung no walk from 6..11 outlasts the bound (each meets a
  // smaller member), so the uncovered slots must throw after the scan.
  // Either way slots 6..11 stay untouched.
  std::vector<std::uint64_t> loop(12);
  std::vector<std::uint64_t> tail(12);
  for (std::uint64_t i = 0; i < 12; ++i) {
    loop[i] = i < 6 ? (i + 1) % 6 : (i == 11 ? 7 : i + 1);
    tail[i] = i < 6 ? (i + 1) % 6 : i - 6;
  }
  for (const auto* p : {&loop, &tail}) {
    for (const std::uint64_t chunk : {1u, 3u}) {
      const auto src = index_matrix<T>(12, chunk);
      for (const cycle_form form : kForms) {
        for (const scratch_rung rung : kRungs) {
          auto s = scratch_on<T>(rung, 12, chunk);
          auto a = src;
          const cycle_move<T> mv{a.data(), chunk,
                                 s.buf.empty() ? nullptr : s.buf.data()};
          EXPECT_THROW(permute_cycles(mv, 12, table_index{p}, s, form),
                       inplace::error)
              << (p == &loop ? "loop" : "tail") << " " << rung_name(rung);
          for (std::uint64_t e = 6 * chunk; e < 12 * chunk; ++e) {
            ASSERT_TRUE(a[e] == src[e])
                << (p == &loop ? "loop" : "tail") << ": bad-slot element "
                << e << " moved on rung " << rung_name(rung);
          }
        }
      }
    }
  }
}

TEST(Cycles, EveryRungYieldsTheSameAscendingCycleMinima) {
  for (const walker_map& map : walker_maps()) {
    const std::uint64_t slots = map.p.size();
    // Brute force: the minimum of every cycle longer than one.
    std::vector<std::uint64_t> want;
    for (std::uint64_t y = 0; y < slots; ++y) {
      std::uint64_t lo = y;
      std::uint64_t len = 1;
      for (std::uint64_t i = map.p[y]; i != y; i = map.p[i], ++len) {
        lo = std::min(lo, i);
      }
      if (len > 1 && lo == y) {
        want.push_back(y);
      }
    }
    for (const scratch_rung rung : kRungs) {
      auto s = scratch_on<std::uint32_t>(rung, slots, 0);
      std::vector<std::uint64_t> got;
      for_each_cycle_leader(slots, table_index{&map.p}, s,
                            [&](std::uint64_t y) { got.push_back(y); });
      EXPECT_EQ(got, want) << map.name << " rung=" << rung_name(rung);
    }
  }
}

// The 2-D last rung's index map at shapes whose (mn - 1) * max(m, n)
// passes 2^64: a 64-bit product would wrap and name the wrong source.
// Only the functor runs — no buffer is allocated.
TEST(Cycles, TransposeIndexTakesItsProductIn128Bits) {
  using u128 = __uint128_t;
  const std::uint64_t shapes[][2] = {
      {8, std::uint64_t{1} << 31},
      {std::uint64_t{1} << 31, 8},
      {3, (std::uint64_t{1} << 62) + 1},
      {0xFFFFFFFFu, 0xFFFFFFFFu},
      {2, (std::uint64_t{1} << 63) - 1},
  };
  util::xoshiro256 rng(64);
  for (const auto& mn : shapes) {
    const std::uint64_t m = mn[0];
    const std::uint64_t n = mn[1];
    const std::uint64_t wrap = m * n - 1;
    ASSERT_EQ(u128{m} * n - 1, u128{wrap}) << "shape must address in 64 bits";
    ASSERT_GE(u128{wrap} * std::max(m, n), u128{1} << 64);
    const transpose_cycle_index c2r(m, n, direction::c2r);
    const transpose_cycle_index r2c(m, n, direction::r2c);
    std::vector<std::uint64_t> ls{0, 1, 2, 3, wrap / 2, wrap - 2, wrap - 1,
                                  wrap};
    for (int k = 0; k < 256; ++k) {
      ls.push_back(rng.uniform(0, wrap));
    }
    for (const std::uint64_t l : ls) {
      const std::uint64_t want_c2r =
          l == wrap ? l : static_cast<std::uint64_t>(u128{l} * n % wrap);
      const std::uint64_t want_r2c =
          l == wrap ? l : static_cast<std::uint64_t>(u128{l} * m % wrap);
      ASSERT_EQ(c2r(l), want_c2r) << m << "x" << n << " l=" << l;
      ASSERT_EQ(r2c(l), want_r2c) << m << "x" << n << " l=" << l;
      // The two directions are mutual inverses (n*m = 1 mod mn-1).
      ASSERT_EQ(r2c(c2r(l)), l) << m << "x" << n << " l=" << l;
    }
  }
}

}  // namespace
