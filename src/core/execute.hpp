#pragma once
// Plan execution internals behind transposer<T> (core/executor.hpp), the
// one 2-D execution path: every public entry point — the free functions
// (core/transpose.hpp, routed through core/context.hpp), the context's
// cached arenas and a one-shot transposer<T>{plan}(data) — runs through
// it.
//
// This header also owns the two halves of the failure-semantics layer
// that sit between the entry points and the engines:
//
//   * acquire_scratch — workspace acquisition walks a degradation ladder
//     under memory pressure instead of failing: full Theorem 6 scratch →
//     a reduced serial footprint → the cycle walker's O(1)-auxiliary-space
//     rung (core/cycles.hpp), recording the rung in the plan and
//     telemetry;
//   * rollback_stages — when an engine throws at a stage boundary, the
//     inverses of the completed passes run in reverse order (each pass
//     of the decomposition is a bijection whose inverse is the matching
//     pass of the opposite direction, Theorems 1-2), restoring the
//     caller's buffer bit-exactly before the exception continues.

#include <cstddef>
#include <memory>
#include <new>
#include <optional>

#include "core/contracts.hpp"
#include "core/cycles.hpp"
#include "core/equations.hpp"
#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/layout.hpp"
#include "core/plan.hpp"
#include "core/recovery.hpp"
#include "core/telemetry.hpp"
#include "cpu/engine_blocked.hpp"
#include "cpu/engine_reference.hpp"
#include "cpu/kernels/tile_inreg.hpp"
#include "cpu/skinny.hpp"
#include "util/threads.hpp"

namespace inplace::detail {

/// Emits one telemetry plan record for an execution about to run.
/// Compiles to an empty function unless the translation unit defines
/// INPLACE_TELEMETRY.  `from_cache` marks transpose_context cache hits so
/// warm and cold executions separate in the collector's dedup table.
template <typename T>
inline void note_plan_record([[maybe_unused]] const transpose_plan& plan,
                             [[maybe_unused]] bool from_cache = false) {
#if INPLACE_TELEMETRY_ENABLED
  if (telemetry::current_sink() != nullptr) {
    // Predict the pool this plan's request would get WITHOUT touching the
    // OpenMP runtime.  The old probe constructed a thread_count_guard,
    // whose omp_set_num_threads mutates global state: two concurrent
    // telemetry-enabled transposes raced, and one could observe (or run
    // its parallel region with) the other's probe value.
    const util::thread_probe probe = util::probe_thread_count(plan.threads);
    telemetry::plan_record rec;
    rec.engine = engine_name(plan.engine);
    rec.direction = direction_name(plan.dir);
    rec.m = plan.m;
    rec.n = plan.n;
    rec.block_width = plan.block_width;
    rec.elem_size = sizeof(T);
    rec.strength_reduction = plan.strength_reduction;
    rec.kernel_tier = plan.tile_block != 0
                          ? kernels::tier_name_inreg(plan.ktier)
                          : kernels::tier_name(plan.ktier);
    rec.threads_requested = probe.requested;
    rec.threads_active = probe.active;
    rec.threads_honored = probe.honored;
    rec.from_cache = from_cache;
    rec.rung = rung_name(plan.rung);
    INPLACE_TELEMETRY_PLAN(rec);
  }
#endif
}

/// Type-erased executor for in-register tile plans (plan.tile_block != 0).
/// The W template parameter must be a compile-time constant (lane_chunk's
/// width is part of its type), so acquire_scratch dispatches once on
/// plan.tile_block and the executors call through this interface.
template <typename T>
struct tile_runner_base {
  virtual ~tile_runner_base() = default;
  /// Runs the full chunked transposition, recording stage completion in
  /// `prog` for rollback.  Throws like the skinny engine does.
  virtual void run(T* data, const transpose_plan& plan,
                   stage_progress* prog) = 0;
  /// Inverts the completed stages in reverse order (best-effort, never
  /// throws) — the tile-plan arm of rollback_stages.
  virtual void rollback(T* data, const transpose_plan& plan,
                        const stage_progress& prog) noexcept = 0;
  /// Bytes retained by the chunk workspace and cycle memo.
  [[nodiscard]] virtual std::size_t cached_bytes() const = 0;
};

/// The chunked skinny execution behind a tile plan: the element matrix is
/// reinterpreted as an (m / W) x n grid of W-element lane_chunks and run
/// through the ordinary skinny engine on chunks, with the in-register
/// tile pass fused into the row pass as the engine's block hook — forward
/// (static_r2c<n, W>) *before* the C2R scatter consumes each W x n slab,
/// inverse (static_c2r) *after* the R2C gather assembles each row.  The
/// composition is exactly the element-level C2R/R2C permutation (see
/// cpu/kernels/tile_inreg.hpp for the factorization), and pairing each
/// direction with its inverse hook keeps the two directions exact
/// inverses, which the rollback path relies on.
template <typename T, unsigned W>
class tile_runner final : public tile_runner_base<T> {
 public:
  using chunk = kernels::lane_chunk<T, W>;

  explicit tile_runner(const transpose_plan& plan)
      : mm_(plan.m / W, plan.n) {
    reserve_skinny(ws_, plan.m / W, plan.n);
  }

  void run(T* data, const transpose_plan& plan,
           stage_progress* prog) override {
    INPLACE_REQUIRE(plan.tile_block == W && plan.m == mm_.m * W &&
                        plan.n == mm_.n,
                    "tile runner shape does not match the plan");
    const kernels::kernel_set& ks = kernels::set_for(plan.ktier);
    INPLACE_CHECK(kernels::tile_lanes<T>(ks) == W,
                  "plan's kernel tier lost its tile pass after planning");
    chunk* c = reinterpret_cast<chunk*>(data);
    const std::uint64_t nregs = plan.n;
    if (plan.dir == direction::c2r) {
      const auto hook = [&ks, nregs](chunk* rows, std::uint64_t k) {
        kernels::tile_pass<T>(ks, reinterpret_cast<T*>(rows), nregs, k,
                              /*forward=*/true);
      };
      c2r_skinny(c, mm_, ws_, &memo_, &ks, plan.streaming_stores, prog, hook);
    } else {
      const auto hook = [&ks, nregs](chunk* rows, std::uint64_t k) {
        kernels::tile_pass<T>(ks, reinterpret_cast<T*>(rows), nregs, k,
                              /*forward=*/false);
      };
      r2c_skinny(c, mm_, ws_, &memo_, &ks, plan.streaming_stores, prog, hook);
    }
  }

  void rollback(T* data, const transpose_plan& plan,
                const stage_progress& prog) noexcept override {
    if (!prog.dirty() || !prog.at_boundary()) {
      return;
    }
    chunk* c = reinterpret_cast<chunk*>(data);
    const bool fwd_c2r = plan.dir == direction::c2r;
    // Portable hooks: rollback must not depend on the tier that planned
    // the run (the ISA dispatch could differ after a partial failure).
    const auto fwd_hook = [nregs = plan.n](chunk* rows, std::uint64_t k) {
      kernels::tile_pass_portable(reinterpret_cast<T*>(rows), nregs, W, k,
                                  /*forward=*/true);
    };
    const auto inv_hook = [nregs = plan.n](chunk* rows, std::uint64_t k) {
      kernels::tile_pass_portable(reinterpret_cast<T*>(rows), nregs, W, k,
                                  /*forward=*/false);
    };
    try {
      for (std::size_t k = prog.completed; k-- > 0;) {
        switch (prog.done[k]) {
          case stage_id::skinny_fused_row:
            // The fused row pass computed (scatter ∘ tile) or
            // (tile⁻¹ ∘ gather); the mirror pass with the opposite hook
            // is its exact inverse (see skinny_fused_gather's contract).
            if (fwd_c2r) {
              skinny_fused_gather(c, mm_, ws_, nullptr, false, inv_hook);
            } else {
              skinny_fused_scatter(c, mm_, ws_, nullptr, false, fwd_hook);
            }
            break;
          case stage_id::skinny_rotation:
            if (fwd_c2r) {
              skinny_rotate_p_inv(c, mm_, ws_, nullptr, false);
            } else {
              skinny_rotate_p(c, mm_, ws_, nullptr, false);
            }
            break;
          case stage_id::skinny_permute:
            if (fwd_c2r) {
              skinny_permute_q_inv(c, mm_, ws_, nullptr, nullptr, false);
            } else {
              skinny_permute_q(c, mm_, ws_, nullptr, nullptr, false);
            }
            break;
          default:
            break;  // non-skinny stages cannot appear in a tile run
        }
      }
    } catch (...) {
      // Swallowed, same policy as rollback_stages: the original exception
      // is the one the caller must see.
    }
  }

  [[nodiscard]] std::size_t cached_bytes() const override {
    std::size_t total =
        (ws_.line.size() + ws_.head.size() + ws_.subrow.size()) *
        sizeof(chunk);
    total += ws_.visited.size();
    total += (ws_.cycle_starts.capacity() + ws_.offsets.size() +
              ws_.index.size() + memo_.starts.capacity()) *
             sizeof(std::uint64_t);
    return total;
  }

 private:
  transpose_math<fast_divmod> mm_;  ///< chunk-grid math: (m / W) x n
  workspace<chunk> ws_;
  cycle_memo memo_;
};

/// Builds the tile runner for a tile plan, dispatching plan.tile_block to
/// the compile-time chunk width.  Returns null when T cannot take the
/// tile path (wrong size or not trivially copyable — possible only for a
/// plan built with a mismatched elem_size) or the width is unknown; the
/// caller demotes to the scratch-line path.  Propagates std::bad_alloc
/// from the chunk workspace.
template <typename T>
std::unique_ptr<tile_runner_base<T>> make_tile_runner(
    const transpose_plan& plan) {
  if constexpr (std::is_trivially_copyable_v<T> &&
                (sizeof(T) == 4 || sizeof(T) == 8)) {
    // inplace-lint: allow-block(raw-alloc): acquisition-funnel extension —
    // acquire_scratch's tile rung allocates the chunk workspace through
    // here, once per plan, inside the same bad_alloc demotion ladder as
    // the element workspaces
    switch (plan.tile_block) {
      case 2:
        return std::make_unique<tile_runner<T, 2>>(plan);
      case 4:
        return std::make_unique<tile_runner<T, 4>>(plan);
      case 8:
        return std::make_unique<tile_runner<T, 8>>(plan);
      case 16:
        return std::make_unique<tile_runner<T, 16>>(plan);
      default:
        return nullptr;
    }
    // inplace-lint: end-block
  } else {
    return nullptr;
  }
}

/// Runs a tile plan with the same stage-boundary rollback contract as
/// transposer<T>::execute.
template <typename T>
void run_tile(T* data, const transpose_plan& plan,
              tile_runner_base<T>& runner) {
  stage_progress prog;
  try {
    runner.run(data, plan, &prog);
  } catch (...) {
    runner.rollback(data, plan, prog);
    throw;
  }
}

/// The scratch an execution owns: at most one of the three members is
/// engaged (pool for the blocked engine, ws for reference/skinny, tile
/// for in-register tile plans); all stay empty on the cycle_follow rung
/// and for degenerate shapes.
template <typename T>
struct scratch_bundle {
  std::optional<workspace<T>> ws;
  std::optional<workspace_pool<T>> pool;
  std::unique_ptr<tile_runner_base<T>> tile;
};

/// Acquires engine scratch for `plan`, walking the OOM degradation
/// ladder on std::bad_alloc:
///
///   full         — Theorem 6 scratch, one workspace per thread
///   reduced      — serial (threads = 1), minimum sub-row width, a
///                  single workspace
///   cycle_follow — no scratch at all; the executor dispatches to the
///                  O(1)-space cycle-following permutation instead of
///                  the planned engine
///
/// Demotion rewrites the plan to match (rung, threads, block_width), so
/// everything downstream — engines, telemetry, cached_bytes — sees a
/// self-consistent plan.  Exceptions other than bad_alloc (including
/// injected_fault from the failpoints below) propagate untouched, with
/// the caller's buffer untouched too: nothing has run yet.
template <typename T>
scratch_bundle<T> acquire_scratch(transpose_plan& plan) {
  scratch_bundle<T> bundle;
  if (plan.m <= 1 || plan.n <= 1) {
    return bundle;
  }
  if (plan.tile_block != 0) {
    // Tile rung: the chunk workspace replaces (not supplements) the
    // element workspace.  If it cannot be allocated, clear tile_block and
    // fall through to the ordinary ladder — the scratch-line skinny path
    // is the documented demotion target.
    try {
      INPLACE_FAILPOINT("exec.alloc.full");
      bundle.tile = make_tile_runner<T>(plan);
    } catch (const std::bad_alloc&) {
      bundle.tile.reset();
    }
    if (bundle.tile != nullptr) {
      plan.rung = scratch_rung::full;
      return bundle;
    }
    plan.tile_block = 0;
  }
  try {
    INPLACE_FAILPOINT("exec.alloc.full");
    if (plan.engine == engine_kind::blocked) {
      bundle.pool.emplace(plan.m, plan.n, plan.block_width, plan.threads);
    } else {
      bundle.ws.emplace();
      if (plan.engine == engine_kind::skinny) {
        reserve_skinny(*bundle.ws, plan.m, plan.n);
      } else {
        bundle.ws->reserve(plan.m, plan.n, plan.block_width);
      }
    }
    plan.rung = scratch_rung::full;
    return bundle;
  } catch (const std::bad_alloc&) {
    bundle.ws.reset();
    bundle.pool.reset();
  }
  try {
    INPLACE_FAILPOINT("exec.alloc.reduced");
    plan.threads = 1;
    if (plan.engine == engine_kind::blocked) {
      plan.block_width = 4;  // the planner's floor — minimum sub-row
      bundle.pool.emplace(plan.m, plan.n, plan.block_width,
                          serial_workspace_tag{});
    } else {
      bundle.ws.emplace();
      if (plan.engine == engine_kind::skinny) {
        reserve_skinny(*bundle.ws, plan.m, plan.n);
      } else {
        plan.block_width = 4;
        bundle.ws->reserve(plan.m, plan.n, plan.block_width);
      }
    }
    plan.rung = scratch_rung::reduced;
    return bundle;
  } catch (const std::bad_alloc&) {
    bundle.ws.reset();
    bundle.pool.reset();
  }
  // Last rung: no allocation at all.  The failpoint lets tests forbid
  // even this rung, proving the caller's buffer survives a full ladder
  // failure untouched.
  INPLACE_FAILPOINT("exec.rung.cycle_follow");
  plan.threads = 1;
  plan.rung = scratch_rung::cycle_follow;
  return bundle;
}

/// The C2R/R2C permutation of a row-major m x n buffer as a gather over
/// the linear index: slot l receives slot l * mult mod (mn - 1), where
/// mult = n for C2R and m for R2C (n*m ≡ 1 mod mn-1, so the two maps are
/// mutual inverses), and slots 0 and mn-1 are fixed.  The product takes
/// 128 bits: with mn up to 2^64, l * mult can pass 2^64 long before mn
/// does.
struct transpose_cycle_index {
  std::uint64_t mult;
  std::uint64_t wrap;  ///< mn - 1

  transpose_cycle_index(std::uint64_t m, std::uint64_t n, direction dir)
      : mult(dir == direction::c2r ? n : m), wrap(m * n - 1) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t l) const {
    if (l >= wrap) {
      return l;
    }
    return static_cast<std::uint64_t>(static_cast<__uint128_t>(l) * mult %
                                      wrap);
  }
};

/// Executes a cycle_follow-rung plan: the cycle walker's no-marks rung
/// over transpose_cycle_index, serial, one element in flight, no scratch
/// (the paper introduction's cycle-following baseline).
template <typename T>
void run_cycle_follow(T* data, const transpose_plan& plan) {
  checked_extent(data, plan.m, plan.n);  // null data throws inplace::error
  cycle_scratch<T> none;  // rung cycle_follow: no marks, no chunk buffer
  permute_cycles(cycle_move<T>{data}, plan.m * plan.n,
                 transpose_cycle_index(plan.m, plan.n, plan.dir), none,
                 cycle_form::gather);
}

/// Restores the caller's buffer after a stage-boundary failure by
/// replaying the inverses of the completed passes in reverse order.
/// Best-effort by design: if the buffer is mid-pass (prog.in_flight) or
/// an inverse pass itself fails, the buffer is left as-is — the
/// documented "unrecoverable" row of the failure taxonomy (DESIGN.md
/// §11).  Never throws.
template <typename T, typename Math>
void rollback_stages(T* data, const Math& mm, const transpose_plan& plan,
                     workspace<T>* ws, workspace_pool<T>* pool,
                     const stage_progress& prog) noexcept {
  if (!prog.dirty() || !prog.at_boundary()) {
    return;
  }
  const bool fwd_c2r = plan.dir == direction::c2r;
  try {
    // The inverse passes run with the plan's threading (the pool is
    // sized for it) and without kernels/streaming: rollback is a cold
    // path where simplicity beats throughput.
    util::thread_count_guard guard(plan.threads);
    if (pool != nullptr) {
      pool->ensure(util::hardware_threads());
    }
    for (std::size_t k = prog.completed; k-- > 0;) {
      switch (prog.done[k]) {
        case stage_id::prerotate:
          if (pool != nullptr) {
            if (fwd_c2r) {
              rotate_all_parallel(
                  data, mm.m, mm.n, plan.block_width,
                  [&](std::uint64_t j) { return mm.prerotate_inv_offset(j); },
                  *pool);
            } else {
              rotate_all_parallel(
                  data, mm.m, mm.n, plan.block_width,
                  [&](std::uint64_t j) { return mm.prerotate_offset(j); },
                  *pool);
            }
          } else if (fwd_c2r) {
            reference_prerotate_inv(data, mm, *ws);
          } else {
            reference_prerotate(data, mm, *ws);
          }
          break;
        case stage_id::row_shuffle:
          if (pool != nullptr) {
            if (fwd_c2r) {
              r2c_row_pass(data, mm, *pool);
            } else {
              c2r_row_pass(data, mm, *pool);
            }
          } else if (fwd_c2r) {
            reference_row_gather(data, mm, *ws);
          } else {
            reference_row_scatter(data, mm, *ws);
          }
          break;
        case stage_id::col_shuffle:
          if (pool != nullptr) {
            if (fwd_c2r) {
              r2c_col_shuffle(data, mm, plan.block_width, *pool);
            } else {
              c2r_col_shuffle(data, mm, plan.block_width, *pool);
            }
          } else if (fwd_c2r) {
            reference_col_shuffle_inv(data, mm, *ws);
          } else {
            reference_col_shuffle(data, mm, *ws);
          }
          break;
        case stage_id::skinny_fused_row:
          if (fwd_c2r) {
            skinny_fused_gather(data, mm, *ws, nullptr, false);
          } else {
            skinny_fused_scatter(data, mm, *ws, nullptr, false);
          }
          break;
        case stage_id::skinny_rotation:
          if (fwd_c2r) {
            skinny_rotate_p_inv(data, mm, *ws, nullptr, false);
          } else {
            skinny_rotate_p(data, mm, *ws, nullptr, false);
          }
          break;
        case stage_id::skinny_permute:
          // No memo: the inverse permutation's cycles differ from the
          // forward memo the engine may hold.
          if (fwd_c2r) {
            skinny_permute_q_inv(data, mm, *ws, nullptr, nullptr, false);
          } else {
            skinny_permute_q(data, mm, *ws, nullptr, nullptr, false);
          }
          break;
      }
    }
  } catch (...) {
    // Swallowed: the original exception (in flight in the caller) is the
    // one the user must see; a failed rollback downgrades the guarantee
    // from "restored" to "left at a stage boundary", never hides errors.
  }
}

}  // namespace inplace::detail
