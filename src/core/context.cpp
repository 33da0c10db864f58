#include "core/context.hpp"

#include <algorithm>

#include "util/threads.hpp"

namespace inplace {

namespace detail {

std::size_t context_key_hash::operator()(
    const context_key& k) const noexcept {
  // FNV-1a over the key fields; the packed byte word keeps the four
  // enum-ish fields from washing each other out.  The multiplicative mix
  // diffuses every field into the high bits too — context_shard_index
  // stripes on those, and the dispersion test in tests/test_context.cpp
  // holds this hash to a chi-square bound over adversarial shape sweeps.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.rows);
  mix(k.cols);
  mix(k.elem_size);
  mix(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(
      k.type_tag)));
  mix((std::uint64_t{k.tile} << 40) | (std::uint64_t{k.kernel} << 32) |
      (std::uint64_t{k.mode} << 24) | (std::uint64_t{k.order} << 16) |
      (std::uint64_t{k.alg} << 8) | std::uint64_t{k.engine});
  mix(static_cast<std::uint64_t>(k.strength_reduction));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.threads)));
  mix(k.block_bytes);
  // permute_nd identity: the normalized extents and the packed perm.
  // nd_rank bounds the loop so the 2-D modes (rank 0) pay nothing extra
  // beyond one mix of the packed word.
  for (std::size_t a = 0; a < k.nd_rank; ++a) {
    mix(k.nd_dims[a]);
  }
  mix((std::uint64_t{k.nd_rank} << 32) | std::uint64_t{k.nd_perm});
  // permute identity: only permute keys carry a non-default verdict, so
  // the other modes' hashes (and their shard spread) do not depend on it.
  if (k.perm != perm_verdict{}) {
    mix(static_cast<std::uint64_t>(k.perm.kind));
    mix(k.perm.rot_k);
    mix(k.perm.log2n);
    mix(k.perm.t2d_rows);
    mix(k.perm.t2d_cols);
    mix(k.perm.fingerprint_lo);
    mix(k.perm.fingerprint_hi);
  }
  return static_cast<std::size_t>(h);
}

namespace {

/// Resolves context_options::cache_shards: 0 means the default, then
/// round up to a power of two (context_shard_index needs one) and clamp.
std::size_t resolve_shard_count(std::size_t requested) {
  std::size_t n = requested == 0 ? 8 : requested;
  n = std::bit_ceil(n);
  return std::min<std::size_t>(n, 256);
}

std::vector<std::unique_ptr<cache_shard>> make_shards(std::size_t count) {
  std::vector<std::unique_ptr<cache_shard>> shards;
  shards.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    shards.push_back(std::make_unique<cache_shard>());
  }
  return shards;
}

}  // namespace

}  // namespace detail

transpose_context::transpose_context(const context_options& copts)
    : max_plans_(std::max<std::size_t>(1, copts.max_plans)),
      max_arenas_per_plan_(std::max<std::size_t>(1, copts.max_arenas_per_plan)),
      max_cached_bytes_(copts.max_cached_bytes),
      shard_count_(detail::resolve_shard_count(copts.cache_shards)),
      worker_count_(copts.workers),
      max_queue_(std::max<std::size_t>(1, copts.max_queue)),
      pin_workers_(copts.pin_workers),
      shards_(detail::make_shards(shard_count_)) {}

transpose_context::~transpose_context() {
  // Deterministic teardown: fail queued jobs, finish in-flight ones, join
  // the workers.  Every future submit() ever returned is settled by now.
  shutdown(/*drain_pending=*/false);
}

std::shared_ptr<detail::context_entry> transpose_context::acquire_entry(
    const detail::context_key& key, bool& hit) {
  detail::cache_shard& shard =
      *shards_[detail::context_shard_index(key, shard_count_)];
  util::mutex_guard lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    hit = true;
    plan_hits_.fetch_add(1, std::memory_order_relaxed);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->entry;
  }
  hit = false;
  plan_misses_.fetch_add(1, std::memory_order_relaxed);
  // Capacity is global, eviction local: make room from THIS shard's LRU
  // tail while the whole cache is full.  With one shard this is exactly
  // the classic global-LRU bound; with N shards a full cache whose
  // overflow lives elsewhere lets the insert through after draining the
  // local tail, so total plans stay within max_plans_ + shard_count_ - 1
  // while a skewed key distribution never shrinks the effective cache
  // (a hard ceil(max_plans/shards) quota would evict a 4-plan working
  // set out of a 16-plan cache whenever two keys shared a stripe).
  while (plan_count_.load(std::memory_order_relaxed) >= max_plans_ &&
         !shard.lru.empty()) {
    evict_locked(shard, std::prev(shard.lru.end()));
  }
  shard.lru.push_front({key, std::make_shared<detail::context_entry>()});
  shard.map.emplace(key, shard.lru.begin());
  plan_count_.fetch_add(1, std::memory_order_relaxed);
  return shard.lru.front().entry;
}

void transpose_context::evict_locked(detail::cache_shard& shard,
                                     detail::context_lru_iter it) {
  // "ctx.shard.evict" models an eviction-path fault (e.g. a failing
  // bookkeeping allocation).  Fires before any mutation so a fault
  // leaves the shard — map, LRU, byte accounting — fully intact.
  INPLACE_FAILPOINT("ctx.shard.evict");
  const std::shared_ptr<detail::context_entry> entry = it->entry;
  shard.map.erase(it->key);
  shard.lru.erase(it);
  plan_count_.fetch_sub(1, std::memory_order_relaxed);
  plan_evictions_.fetch_add(1, std::memory_order_relaxed);

  // Mark the entry dead and release its stored arenas; executions holding
  // the entry finish on their checked-out arena and then drop it (the
  // evicted flag blocks recycling into the orphaned entry).
  std::size_t bytes = 0;
  std::size_t dropped = 0;
  {
    util::mutex_guard elock(entry->mu);
    entry->evicted = true;
    for (const auto& [arena, b] : entry->arenas) {
      bytes += b;
      ++dropped;
    }
    entry->arenas.clear();
  }
  retained_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  arenas_dropped_.fetch_add(dropped, std::memory_order_relaxed);
}

context_stats transpose_context::stats() const {
  context_stats s;
  // Settle-side counters before enqueue-side ones, for the same
  // monotonic-snapshot reason as context_workers::qos_stats(): reading
  // jobs_cancelled (a settled count) before async_jobs can only
  // undercount settles relative to the enqueues read after it.
  s.jobs_cancelled = jobs_cancelled_.load(std::memory_order_acquire);
  detail::context_workers* pool = nullptr;
  {
    util::mutex_guard lock(workers_mu_);
    pool = workers_.get();
  }
  if (pool != nullptr) {
    s.qos = pool->qos_stats();
    s.pinned_workers = pool->pinned_workers();
  }
  s.async_jobs = async_jobs_.load(std::memory_order_relaxed);
  s.executions = executions_.load(std::memory_order_relaxed);
  s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  s.plan_evictions = plan_evictions_.load(std::memory_order_relaxed);
  s.arenas_created = arenas_created_.load(std::memory_order_relaxed);
  s.arenas_reused = arenas_reused_.load(std::memory_order_relaxed);
  s.arenas_dropped = arenas_dropped_.load(std::memory_order_relaxed);
  s.arenas_degraded = arenas_degraded_.load(std::memory_order_relaxed);
  return s;
}

std::size_t transpose_context::cached_plans() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    util::mutex_guard lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

std::size_t transpose_context::cached_bytes() const {
  return retained_bytes_.load(std::memory_order_relaxed);
}

void transpose_context::clear() {
  for (const auto& shard : shards_) {
    util::mutex_guard lock(shard->mu);
    while (!shard->lru.empty()) {
      evict_locked(*shard, std::prev(shard->lru.end()));
    }
  }
}

void transpose_context::shutdown(bool drain_pending) {
  detail::context_workers* pool = nullptr;
  {
    util::mutex_guard lock(workers_mu_);
    shutdown_ = true;  // later submit()s fail before touching the pool
    pool = workers_.get();
  }
  if (pool == nullptr) {
    return;  // never went async; nothing to stop
  }
  const std::size_t failed = pool->shutdown(drain_pending);
  jobs_cancelled_.fetch_add(failed, std::memory_order_release);
}

std::size_t transpose_context::cancel_pending() {
  detail::context_workers* pool = nullptr;
  {
    util::mutex_guard lock(workers_mu_);
    pool = workers_.get();
  }
  if (pool == nullptr) {
    return 0;
  }
  const std::size_t failed = pool->cancel_pending();
  jobs_cancelled_.fetch_add(failed, std::memory_order_release);
  return failed;
}

detail::context_workers& transpose_context::workers() {
  util::mutex_guard lock(workers_mu_);
  if (shutdown_) {
    throw context_shutdown(
        "inplace: submit on a transpose_context after shutdown()");
  }
  if (!workers_) {
    detail::context_workers::config cfg;
    cfg.count = worker_count_;
    if (cfg.count == 0) {
      // Small default: enough to overlap planning/allocation with engine
      // execution without oversubscribing the OpenMP pool badly.
      cfg.count = std::clamp<std::size_t>(
          static_cast<std::size_t>(util::hardware_threads()), 2, 4);
    }
    cfg.max_queue = max_queue_;
    cfg.pin_workers = pin_workers_;
    workers_ = std::make_unique<detail::context_workers>(cfg);
  }
  return *workers_;
}

transpose_context& default_context() {
  // Intentionally leaked: worker threads and cached arenas must outlive
  // any static-destruction-order transposes, and the OS reclaims the
  // memory anyway.
  static auto* ctx = new transpose_context();
  return *ctx;
}

}  // namespace inplace
