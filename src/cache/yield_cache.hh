/**
 * @file
 * Cached front ends for the expensive deterministic computations of
 * the design flow, backed by one process-wide content-addressed
 * Store.
 *
 * Every cached result is a pure function of the fingerprinted inputs
 * (see cache/fingerprint.hh): estimateYield and allocateFrequencies
 * are bit-identical across thread counts by the qpad::runtime
 * contract, so runtime::Options is deliberately *excluded* from the
 * keys, while the draw-order version kDrawOrderVersion (which does
 * change the drawn numbers) is included. Cache-on is therefore
 * bit-identical to cache-off by construction — a hit returns exactly
 * the bytes a miss would have computed.
 *
 * The global store is configured from the environment on first use:
 *   QPAD_CACHE=0       disable memoization entirely
 *   QPAD_CACHE_DIR     enable the persistent on-disk log
 *   QPAD_CACHE_BYTES   in-memory LRU budget (default 64 MiB)
 * configureGlobalCache() overrides this programmatically (tests,
 * benches). Reconfiguration is not thread-safe against concurrent
 * cached calls; do it before spawning parallel work.
 */

#ifndef QPAD_CACHE_YIELD_CACHE_HH
#define QPAD_CACHE_YIELD_CACHE_HH

#include "cache/store.hh"
#include "design/freq_alloc.hh"
#include "exec/context.hh"
#include "yield/yield_sim.hh"

namespace qpad::cache
{

/** The process-wide store (created from the environment on first
 * use; never null). */
Store &globalStore();

namespace detail
{

/** The CacheOptions the QPAD_CACHE* environment selects, as the
 * global store reads them on first use; a malformed or out-of-range
 * value raises qpad_fatal. */
CacheOptions optionsFromEnv();

} // namespace detail

/** Replace the global store (tests/benches). */
void configureGlobalCache(const CacheOptions &options);

/** Counter snapshot of the global store. */
StoreStats globalCacheStats();

/** Cache key of one estimateYield invocation (tagged, versioned). */
Fingerprint yieldKey(const arch::Architecture &arch,
                     const yield::YieldOptions &options);

/** Cache key of one allocateFrequencies invocation. */
Fingerprint freqAllocKey(const arch::Architecture &arch,
                         const design::FreqAllocOptions &options);

/**
 * estimateYield through the global cache: exact-key memoization of
 * the deterministic result. Zero-trial calls and a disabled cache
 * pass straight through. Concurrent identical requests deduplicate
 * via Store::getOrCompute — exactly one computes, the rest wait
 * (each honouring its own `ctx`; a cancelled waiter never cancels
 * the computing owner).
 */
yield::YieldResult
cachedEstimateYield(const arch::Architecture &arch,
                    const yield::YieldOptions &options = {},
                    const exec::Context &ctx = exec::Context::none());

/** allocateFrequencies through the global cache (same dedup and
 * cancellation semantics as cachedEstimateYield). */
design::FreqAllocResult
cachedAllocateFrequencies(
    const arch::Architecture &arch,
    const design::FreqAllocOptions &options = {},
    const exec::Context &ctx = exec::Context::none());

} // namespace qpad::cache

#endif // QPAD_CACHE_YIELD_CACHE_HH
