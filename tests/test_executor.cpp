// Tests for the plan-reusing executor (core/executor.hpp): correctness of
// transposer<T> across engines and shapes, repeated reuse, batched
// transposition, and validation.

#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/transpose.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace inplace;

struct shape {
  std::uint64_t m;
  std::uint64_t n;
};

std::ostream& operator<<(std::ostream& os, const shape& s) {
  return os << s.m << "x" << s.n;
}

const shape kShapes[] = {{1, 1},   {1, 9},    {9, 1},    {3, 8},
                         {4, 8},   {30, 42},  {97, 89},  {128, 96},
                         {512, 24}, {24, 512}, {1000, 6}, {211, 199}};

class ExecutorShapes : public ::testing::TestWithParam<shape> {};
INSTANTIATE_TEST_SUITE_P(AllShapes, ExecutorShapes,
                         ::testing::ValuesIn(kShapes));

TEST_P(ExecutorShapes, MatchesOneShotTranspose) {
  const auto [m, n] = GetParam();
  transposer<std::uint32_t> tr(m, n);
  auto a = util::iota_matrix<std::uint32_t>(m, n);
  const auto src = a;
  tr(a.data());
  auto b = src;
  transpose(b.data(), m, n);
  EXPECT_EQ(a, b);
}

TEST_P(ExecutorShapes, ReusePingPongsCorrectly) {
  // Transposing with a planned m x n executor and then a planned n x m
  // executor must round-trip; repeated many times to confirm scratch
  // reuse doesn't corrupt state.
  const auto [m, n] = GetParam();
  transposer<std::uint64_t> fwd(m, n);
  transposer<std::uint64_t> bwd(n, m);
  auto a = util::iota_matrix<std::uint64_t>(m, n);
  const auto src = a;
  for (int round = 0; round < 5; ++round) {
    fwd(a.data());
    bwd(a.data());
    ASSERT_EQ(a, src) << "round " << round;
  }
}

TEST_P(ExecutorShapes, AllEnginesAgree) {
  const auto [m, n] = GetParam();
  const auto src = util::iota_matrix<std::uint32_t>(m, n);
  std::vector<std::vector<std::uint32_t>> results;
  for (engine_kind eng : {engine_kind::reference, engine_kind::blocked,
                          engine_kind::skinny}) {
    options opts;
    opts.engine = eng;
    transposer<std::uint32_t> tr(m, n, storage_order::row_major, opts);
    auto a = src;
    tr(a.data());
    results.push_back(std::move(a));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Batched, TransposesEveryMatrixInTheBatch) {
  const std::size_t batch = 7;
  const std::size_t m = 33;
  const std::size_t n = 55;
  std::vector<float> data(batch * m * n);
  for (std::size_t l = 0; l < data.size(); ++l) {
    data[l] = static_cast<float>(l);
  }
  const auto src = data;
  transpose_batched(data.data(), batch, m, n);
  for (std::size_t k = 0; k < batch; ++k) {
    const std::span<const float> in(src.data() + k * m * n, m * n);
    const auto want = util::reference_transpose(in, m, n);
    for (std::size_t l = 0; l < m * n; ++l) {
      ASSERT_EQ(data[k * m * n + l], want[l]) << "matrix " << k;
    }
  }
}

TEST(Batched, ZeroBatchIsANoOp) {
  EXPECT_NO_THROW(transpose_batched<int>(nullptr, 0, 3, 4));
}

TEST(Batched, RandomizedAgainstLoop) {
  util::xoshiro256 rng(77);
  for (int t = 0; t < 10; ++t) {
    const std::size_t batch = rng.uniform(1, 6);
    const std::size_t m = rng.uniform(2, 100);
    const std::size_t n = rng.uniform(2, 100);
    std::vector<std::uint32_t> a(batch * m * n);
    for (std::size_t l = 0; l < a.size(); ++l) {
      a[l] = static_cast<std::uint32_t>(l * 7919);
    }
    auto b = a;
    transpose_batched(a.data(), batch, m, n);
    for (std::size_t k = 0; k < batch; ++k) {
      transpose(b.data() + k * m * n, m, n);
    }
    ASSERT_EQ(a, b);
  }
}

TEST(Executor, PlanIsExposed) {
  transposer<double> tall(1000, 8);
  EXPECT_EQ(tall.plan().dir, direction::c2r);
  EXPECT_EQ(tall.plan().engine, engine_kind::skinny);
  transposer<double> square(500, 500);
  EXPECT_EQ(square.plan().engine, engine_kind::blocked);
}

TEST(Executor, InvalidShapesThrowAtConstruction) {
  const auto big = std::size_t{1} << 40;
  EXPECT_THROW(transposer<int>(big, big), error);
}

// Regression: transpose_batched computed batch * rows * cols with plain
// size_t multiplies, so a huge batch wrapped the offsets and the loop
// scribbled from the start of the buffer instead of throwing.  The extent
// must now be validated in elements and in bytes before any work runs.
TEST(Batched, ElementCountOverflowThrows) {
  const std::size_t batch =
      std::numeric_limits<std::size_t>::max() / 15 + 1;
  int dummy = 0;
  EXPECT_THROW(transpose_batched(&dummy, batch, 3, 5), error);
}

TEST(Batched, ByteExtentOverflowThrows) {
  // 2^61 doubles fit size_t in elements but overflow it in bytes.
  const std::size_t batch = (std::size_t{1} << 61U) / 15 + 1;
  double dummy = 0.0;
  EXPECT_THROW(transpose_batched(&dummy, batch, 3, 5), error);
}

TEST(Batched, OverflowIsDetectedBeforeTouchingData) {
  // With a poisoned pointer the call must throw from the validation, not
  // reach the transposition loop.
  const std::size_t batch = std::numeric_limits<std::size_t>::max() / 2;
  auto* poisoned = reinterpret_cast<float*>(0x4);
  EXPECT_THROW(transpose_batched(poisoned, batch, 64, 64), error);
}

// Regression: a forged/corrupted plan that still carries
// engine_kind::automatic used to fall through and silently run the blocked
// engine; it must fail loudly now.  Checked builds trip the invariant's
// contract_violation before the error throw — both count as loud.
TEST(Executor, UnresolvedAutomaticPlanFailsLoudly) {
  transpose_plan forged;
  forged.m = 8;
  forged.n = 8;
  forged.engine = engine_kind::automatic;
  std::vector<float> buf(64, 1.0f);
  try {
    transposer<float>{forged}(buf.data());
    FAIL() << "a forged automatic plan executed silently";
  } catch (const error&) {
  } catch (const contract_violation&) {
  }
}

TEST(Executor, PlannedEnginesAreAlwaysConcrete) {
  util::xoshiro256 rng(11);
  for (int t = 0; t < 50; ++t) {
    const std::size_t m = rng.uniform(1, 3000);
    const std::size_t n = rng.uniform(1, 3000);
    options opts;
    opts.engine = engine_kind::automatic;  // explicit request must resolve
    transposer<float> tr(m, n, storage_order::row_major, opts);
    EXPECT_NE(tr.plan().engine, engine_kind::automatic)
        << m << "x" << n;
  }
}

}  // namespace
