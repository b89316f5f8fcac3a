#include "cache/yield_cache.hh"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>

#include "common/gauss_block.hh"
#include "common/logging.hh"
#include "obs/log.hh"

namespace qpad::cache
{

namespace
{

std::mutex g_store_mutex;
std::unique_ptr<Store> g_store;

/** Strict nonnegative-integer env parse (bench_common convention:
 * malformed values fail loudly instead of being coerced), at most
 * `max` so the caller's narrowing cast cannot wrap. */
uint64_t
parseEnvUint(const char *name, const char *value,
             uint64_t max = UINT64_MAX)
{
    for (const char *c = value; *c; ++c)
        if (!std::isdigit(static_cast<unsigned char>(*c)))
            qpad_fatal("invalid ", name, " value '", value,
                       "' (expected a nonnegative integer)");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (errno == ERANGE || *end != '\0' || v > max)
        qpad_fatal("invalid ", name, " value '", value,
                   "' (out of range, at most ", max, ")");
    return v;
}

} // namespace

namespace detail
{

CacheOptions
optionsFromEnv()
{
    CacheOptions options;
    if (const char *flag = std::getenv("QPAD_CACHE");
        flag && *flag) {
        if (flag[0] == '0' && flag[1] == '\0')
            options.enabled = false;
        else if (!(flag[0] == '1' && flag[1] == '\0'))
            qpad_fatal("invalid QPAD_CACHE value '", flag,
                       "' (expected 0 or 1)");
    }
    if (const char *dir = std::getenv("QPAD_CACHE_DIR"); dir && *dir)
        options.dir = dir;
    if (const char *bytes = std::getenv("QPAD_CACHE_BYTES");
        bytes && *bytes)
        options.max_bytes =
            std::size_t(parseEnvUint("QPAD_CACHE_BYTES", bytes));
    if (const char *sync = std::getenv("QPAD_CACHE_SYNC");
        sync && *sync) {
        const std::string_view value(sync);
        if (value == "flush")
            options.sync = SyncPolicy::kFlush;
        else if (value == "full")
            options.sync = SyncPolicy::kFull;
        else
            qpad_fatal("invalid QPAD_CACHE_SYNC value '", sync,
                       "' (expected flush or full)");
    }
    if (const char *factor = std::getenv("QPAD_CACHE_COMPACT");
        factor && *factor)
        options.compact_factor =
            uint32_t(parseEnvUint("QPAD_CACHE_COMPACT", factor,
                                  UINT32_MAX));
    if (const char *ms = std::getenv("QPAD_CACHE_LOCK_MS");
        ms && *ms)
        options.lock_timeout_ms =
            uint32_t(parseEnvUint("QPAD_CACHE_LOCK_MS", ms, UINT32_MAX));
    return options;
}

} // namespace detail

namespace
{

std::vector<uint8_t>
encodeYieldResult(const yield::YieldResult &result)
{
    Encoder enc;
    enc.u64(result.successes);
    enc.u64(result.trials);
    for (std::size_t c : result.condition_trials)
        enc.u64(c);
    return enc.bytes();
}

bool
decodeYieldResult(const std::vector<uint8_t> &blob,
                  const yield::YieldOptions &options,
                  yield::YieldResult &result)
{
    Decoder in(blob);
    uint64_t successes, trials;
    if (!in.u64(successes) || !in.u64(trials))
        return false;
    for (std::size_t &c : result.condition_trials) {
        uint64_t v;
        if (!in.u64(v))
            return false;
        c = std::size_t(v);
    }
    // The trials field doubles as an integrity check against the
    // requested key (a mismatch means corruption or a 128-bit
    // collision; recompute rather than serve it).
    if (!in.atEnd() || trials != options.trials || successes > trials)
        return false;
    result.successes = std::size_t(successes);
    result.trials = std::size_t(trials);
    result.yield = double(successes) / double(trials);
    return true;
}

std::vector<uint8_t>
encodeFreqAllocResult(const design::FreqAllocResult &result)
{
    Encoder enc;
    enc.u64(result.freqs.size());
    for (double f : result.freqs)
        enc.f64(f);
    enc.u64(result.order.size());
    for (arch::PhysQubit q : result.order)
        enc.u32(q);
    enc.u64(result.local_scores.size());
    for (double s : result.local_scores)
        enc.f64(s);
    return enc.bytes();
}

bool
decodeFreqAllocResult(const std::vector<uint8_t> &blob,
                      std::size_t num_qubits,
                      design::FreqAllocResult &result)
{
    Decoder in(blob);
    uint64_t n;
    if (!in.u64(n) || n != num_qubits)
        return false;
    result.freqs.resize(n);
    for (double &f : result.freqs)
        if (!in.f64(f))
            return false;
    uint64_t m;
    if (!in.u64(m) || m > num_qubits)
        return false;
    result.order.resize(m);
    for (arch::PhysQubit &q : result.order) {
        uint32_t v;
        if (!in.u32(v) || v >= num_qubits)
            return false;
        q = v;
    }
    uint64_t k;
    if (!in.u64(k) || k != m)
        return false;
    result.local_scores.resize(k);
    for (double &s : result.local_scores)
        if (!in.f64(s))
            return false;
    return in.atEnd();
}

} // namespace

Store &
globalStore()
{
    std::lock_guard<std::mutex> lock(g_store_mutex);
    if (!g_store)
        g_store = std::make_unique<Store>(detail::optionsFromEnv());
    return *g_store;
}

void
configureGlobalCache(const CacheOptions &options)
{
    std::lock_guard<std::mutex> lock(g_store_mutex);
    g_store = std::make_unique<Store>(options);
}

StoreStats
globalCacheStats()
{
    return globalStore().stats();
}

Fingerprint
yieldKey(const arch::Architecture &arch,
         const yield::YieldOptions &options)
{
    Encoder enc;
    enc.str("qpad.yield/v1");
    encodeArchitecture(enc, arch);
    enc.u64(options.trials);
    enc.f64(options.sigma_ghz);
    enc.u64(options.seed);
    enc.u8(options.collect_condition_stats ? 1 : 0);
    encodeCollisionModel(enc, options.model);
    // The draw order changes the drawn numbers, so it must change
    // the key. options.exec never does (the runtime contract) and is
    // excluded.
    enc.u8(kDrawOrderVersion);
    return enc.digest();
}

Fingerprint
freqAllocKey(const arch::Architecture &arch,
             const design::FreqAllocOptions &options)
{
    Encoder enc;
    enc.str("qpad.freqalloc/v1");
    // The allocator reads the topology (coords + buses via the
    // coupling graph) and never the pre-existing frequencies.
    encodeTopology(enc, arch);
    enc.f64(options.grid_step_ghz);
    enc.u64(options.local_trials);
    enc.f64(options.sigma_ghz);
    encodeCollisionModel(enc, options.model);
    enc.u64(options.seed);
    enc.u32(options.refine_sweeps);
    enc.u8(kDrawOrderVersion);
    return enc.digest();
}

yield::YieldResult
cachedEstimateYield(const arch::Architecture &arch,
                    const yield::YieldOptions &options,
                    const exec::Context &ctx)
{
    Store &store = globalStore();
    if (!store.options().enabled || options.trials == 0)
        return yield::estimateYield(arch, options, ctx);

    // getOrCompute deduplicates concurrent identical estimates: one
    // caller computes, the rest block on its result. The owner runs
    // under its own ctx; a waiter's ctx only governs its wait. The
    // encode/decode round trip is lossless (exact integers; the
    // yield ratio is recomputed from them), so the returned result
    // is bit-identical to the uncached call.
    const Fingerprint key = yieldKey(arch, options);
    const std::vector<uint8_t> blob = store.getOrCompute(
        key,
        [&] {
            return encodeYieldResult(
                yield::estimateYield(arch, options, ctx));
        },
        ctx.token());
    yield::YieldResult result;
    if (decodeYieldResult(blob, options, result))
        return result;
    // Undecodable bytes (corrupt disk record or a 128-bit key
    // collision): recompute and overwrite, exactly as a plain miss
    // would have.
    obs::logWarn("cache.record_dropped",
                 {{"kind", "yield"}, {"key", key.hex()}});
    result = yield::estimateYield(arch, options, ctx);
    store.put(key, encodeYieldResult(result));
    return result;
}

design::FreqAllocResult
cachedAllocateFrequencies(const arch::Architecture &arch,
                          const design::FreqAllocOptions &options,
                          const exec::Context &ctx)
{
    Store &store = globalStore();
    if (!store.options().enabled)
        return design::allocateFrequencies(arch, options, ctx);

    const Fingerprint key = freqAllocKey(arch, options);
    const std::vector<uint8_t> blob = store.getOrCompute(
        key,
        [&] {
            return encodeFreqAllocResult(
                design::allocateFrequencies(arch, options, ctx));
        },
        ctx.token());
    design::FreqAllocResult result;
    if (decodeFreqAllocResult(blob, arch.numQubits(), result))
        return result;
    obs::logWarn("cache.record_dropped",
                 {{"kind", "freq_alloc"}, {"key", key.hex()}});
    result = design::allocateFrequencies(arch, options, ctx);
    store.put(key, encodeFreqAllocResult(result));
    return result;
}

} // namespace qpad::cache
