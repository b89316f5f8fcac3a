/**
 * @file
 * Tests for qpad::cache: fingerprint stability and sensitivity, the
 * sharded LRU store (memory and disk), and the cached front ends'
 * bit-identity and zero-recompute contracts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/ibm.hh"
#include "arch/serialize.hh"
#include "benchmarks/suite.hh"
#include "cache/fingerprint.hh"
#include "cache/store.hh"
#include "cache/yield_cache.hh"
#include "design/anneal.hh"
#include "design/design_flow.hh"
#include "eval/experiment.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "profile/coupling.hh"
#include "runtime/parallel.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
namespace fs = std::filesystem;

/** Fresh, memory-only global cache for one test. */
void
freshGlobalCache(std::size_t max_bytes = 64ull << 20)
{
    cache::CacheOptions options;
    options.max_bytes = max_bytes;
    cache::configureGlobalCache(options);
}

/** A unique scratch directory under the test temp dir. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "qpad_cache_" + name;
    fs::remove_all(dir);
    return dir;
}

cache::Fingerprint
keyOf(uint64_t i)
{
    cache::Encoder enc;
    enc.str("test.key");
    enc.u64(i);
    return enc.digest();
}

// --------------------------------------------------------------------
// Fingerprint
// --------------------------------------------------------------------

TEST(Fingerprint, DigestIsStableAndHexRenders)
{
    cache::Encoder a;
    a.str("hello");
    a.u64(42);
    a.f64(1.5);
    cache::Encoder b;
    b.str("hello");
    b.u64(42);
    b.f64(1.5);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.digest().hex().size(), 32u);
    EXPECT_EQ(a.digest().hex(), b.digest().hex());
}

TEST(Fingerprint, TailLengthsAllDistinct)
{
    // Exercise every MurmurHash3 tail length (1..17 spans two
    // blocks) and make sure nothing degenerates.
    std::set<std::string> seen;
    std::vector<uint8_t> data(17, 0xa5);
    for (std::size_t len = 0; len <= data.size(); ++len)
        seen.insert(cache::hashBytes(data.data(), len).hex());
    EXPECT_EQ(seen.size(), data.size() + 1);
}

TEST(Fingerprint, EncoderIsPositionSensitive)
{
    cache::Encoder a;
    a.u32(1);
    a.u32(2);
    cache::Encoder b;
    b.u32(2);
    b.u32(1);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Fingerprint, ArchitectureContentNotNameIsHashed)
{
    arch::Architecture a(arch::Layout::grid(2, 3), "first");
    arch::Architecture b(arch::Layout::grid(2, 3), "second");
    EXPECT_EQ(cache::fingerprintArchitecture(a),
              cache::fingerprintArchitecture(b));

    // Adding a bus, or assigning frequencies, changes the content.
    arch::Architecture bused(arch::Layout::grid(2, 3), "first");
    bused.addFourQubitBus({0, 0});
    EXPECT_NE(cache::fingerprintArchitecture(a),
              cache::fingerprintArchitecture(bused));

    arch::Architecture tuned(arch::Layout::grid(2, 3), "first");
    tuned.setAllFrequencies({5.0, 5.1, 5.2, 5.3, 5.0, 5.1});
    EXPECT_NE(cache::fingerprintArchitecture(a),
              cache::fingerprintArchitecture(tuned));

    arch::Architecture retuned(arch::Layout::grid(2, 3), "first");
    retuned.setAllFrequencies({5.0, 5.1, 5.2, 5.3, 5.0, 5.11});
    EXPECT_NE(cache::fingerprintArchitecture(tuned),
              cache::fingerprintArchitecture(retuned));
}

TEST(Fingerprint, YieldKeyTracksOptionsButNotExec)
{
    auto arch = arch::ibm16Q(false);
    yield::YieldOptions base;
    base.trials = 1000;

    const cache::Fingerprint k0 = cache::yieldKey(arch, base);

    yield::YieldOptions threaded = base;
    threaded.exec.num_threads = 7;
    EXPECT_EQ(k0, cache::yieldKey(arch, threaded))
        << "exec is bit-identical by contract and must not key";

    yield::YieldOptions more = base;
    more.trials = 10000;
    EXPECT_NE(k0, cache::yieldKey(arch, more));

    yield::YieldOptions reseeded = base;
    reseeded.seed = 2;
    EXPECT_NE(k0, cache::yieldKey(arch, reseeded));

    yield::YieldOptions noisier = base;
    noisier.sigma_ghz = 0.031;
    EXPECT_NE(k0, cache::yieldKey(arch, noisier));

    yield::YieldOptions stats = base;
    stats.collect_condition_stats = true;
    EXPECT_NE(k0, cache::yieldKey(arch, stats));

    yield::YieldOptions model = base;
    model.model.thr1 = 0.018;
    EXPECT_NE(k0, cache::yieldKey(arch, model));
}

TEST(Fingerprint, KeysArePinnedAcrossReleases)
{
    // Persistent QPAD_CACHE_DIR logs outlive the process that wrote
    // them: an unintended change to any key encoder silently turns
    // every stored entry into a miss. Changing these constants is a
    // deliberate cache invalidation.
    const auto arch = arch::ibm16Q(false);
    EXPECT_EQ(cache::yieldKey(arch, yield::YieldOptions{}).hex(),
              "1e85c94f65d8c8afc14671334d1bcb45");
    EXPECT_EQ(
        cache::freqAllocKey(arch, design::FreqAllocOptions{}).hex(),
        "2581e1dab48d4df348fae8b6f590adf3");
}

TEST(Fingerprint, SerializeRoundTripPreservesFingerprint)
{
    // Generated architectures survive a JSON round trip with their
    // cache identity intact — the invariant that lets exported
    // designs re-enter a warm cache.
    std::vector<arch::Architecture> archs = arch::ibmBaselines();

    auto circuit = benchmarks::getBenchmark("sym6_145").generate();
    profile::CouplingProfile prof = profile::profileCircuit(circuit);
    design::DesignFlowOptions flow;
    flow.freq_options.local_trials = 100;
    flow.freq_options.refine_sweeps = 0;
    archs.push_back(
        design::designArchitecture(prof, flow, "eff-rt").architecture);

    for (const arch::Architecture &a : archs) {
        SCOPED_TRACE(a.name());
        const arch::Architecture restored =
            arch::fromJson(arch::toJson(a));
        EXPECT_EQ(cache::fingerprintArchitecture(a),
                  cache::fingerprintArchitecture(restored));
    }
}

// --------------------------------------------------------------------
// Store (memory)
// --------------------------------------------------------------------

TEST(Store, PutGetAndCounters)
{
    cache::Store store;
    std::vector<uint8_t> blob;
    EXPECT_FALSE(store.get(keyOf(1), blob));

    const std::vector<uint8_t> payload = {1, 2, 3, 4};
    store.put(keyOf(1), payload);
    ASSERT_TRUE(store.get(keyOf(1), blob));
    EXPECT_EQ(blob, payload);

    const cache::StoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GE(s.bytes, payload.size());
}

TEST(Store, OverwriteKeepsOneEntry)
{
    cache::Store store;
    store.put(keyOf(9), std::vector<uint8_t>(10, 0xaa));
    store.put(keyOf(9), std::vector<uint8_t>(20, 0xbb));
    std::vector<uint8_t> blob;
    ASSERT_TRUE(store.get(keyOf(9), blob));
    EXPECT_EQ(blob, std::vector<uint8_t>(20, 0xbb));
    EXPECT_EQ(store.stats().entries, 1u);
}

TEST(Store, LruEvictionRespectsBudgetAndRecency)
{
    // One shard, ~10-entry budget of 100-byte payloads.
    cache::CacheOptions options;
    options.shards = 1;
    options.max_bytes = 2048;
    cache::Store store(options);

    const std::vector<uint8_t> payload(100, 0x11);
    for (uint64_t i = 0; i < 10; ++i)
        store.put(keyOf(i), payload);
    EXPECT_EQ(store.stats().evictions, 0u);

    // Touch key 0 so key 1 is now the coldest, then overflow.
    std::vector<uint8_t> blob;
    ASSERT_TRUE(store.get(keyOf(0), blob));
    store.put(keyOf(10), payload);

    EXPECT_GE(store.stats().evictions, 1u);
    EXPECT_TRUE(store.get(keyOf(0), blob)) << "recently used survives";
    EXPECT_FALSE(store.get(keyOf(1), blob)) << "coldest is evicted";
    EXPECT_TRUE(store.get(keyOf(10), blob));
    EXPECT_LE(store.stats().bytes, options.max_bytes);
}

TEST(Store, ClearDropsEntriesKeepsCounters)
{
    cache::Store store;
    store.put(keyOf(1), {1});
    store.clear();
    std::vector<uint8_t> blob;
    EXPECT_FALSE(store.get(keyOf(1), blob));
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_EQ(store.stats().inserts, 1u);
}

TEST(Store, ConcurrentAccessUnderThreadPool)
{
    cache::CacheOptions options;
    options.shards = 8;
    cache::Store store(options);

    constexpr uint64_t kKeys = 64;
    runtime::Options exec; // one worker per hardware thread
    runtime::parallel_for(
        exec, 2048, 1, [&](std::size_t b, std::size_t e, std::size_t) {
            for (std::size_t i = b; i < e; ++i) {
                const uint64_t k = uint64_t(i) % kKeys;
                std::vector<uint8_t> blob;
                if (store.get(keyOf(k), blob)) {
                    // Payload is a pure function of the key.
                    ASSERT_EQ(blob.size(), 8 + k);
                    for (uint8_t byte : blob)
                        ASSERT_EQ(byte, uint8_t(k));
                } else {
                    store.put(keyOf(k),
                              std::vector<uint8_t>(8 + k, uint8_t(k)));
                }
            }
        });

    std::vector<uint8_t> blob;
    for (uint64_t k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(store.get(keyOf(k), blob));
        EXPECT_EQ(blob, std::vector<uint8_t>(8 + k, uint8_t(k)));
    }
    const cache::StoreStats s = store.stats();
    EXPECT_EQ(s.entries, kKeys);
    EXPECT_GE(s.inserts, kKeys);
}

// --------------------------------------------------------------------
// Store: in-flight dedup (getOrCompute)
// --------------------------------------------------------------------

TEST(StoreDedup, UncontendedOwnerPathMatchesReadThrough)
{
    // Without contention, getOrCompute must be counter-identical to
    // the classic get-miss / compute / put sequence, so the exact-
    // count assertions of the cached front-end tests keep holding.
    cache::Store store;
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return std::vector<uint8_t>{1, 2, 3};
    };
    EXPECT_EQ(store.getOrCompute(keyOf(1), compute),
              (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_EQ(computes, 1);
    cache::StoreStats s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.dedup_waits, 0u);

    EXPECT_EQ(store.getOrCompute(keyOf(1), compute),
              (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_EQ(computes, 1) << "warm call must not recompute";
    s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.dedup_waits, 0u);
}

TEST(StoreDedup, ConcurrentIdenticalRequestsComputeExactlyOnce)
{
    cache::Store store;
    constexpr std::size_t kWaiters = 3;
    std::atomic<int> computes{0};
    const auto key = keyOf(42);

    // The owner's computation stays open until every waiter has
    // registered on the in-flight entry (bounded at ~2 s so a
    // scheduling hiccup degrades the assertion, never hangs it).
    const auto compute = [&] {
        ++computes;
        for (int spin = 0;
             store.stats().dedup_waits < kWaiters && spin < 2000;
             ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::vector<uint8_t>{7, 7};
    };

    std::vector<std::vector<uint8_t>> results(kWaiters + 1);
    std::thread owner(
        [&] { results[0] = store.getOrCompute(key, compute); });
    while (computes.load() == 0)
        std::this_thread::yield();
    std::vector<std::thread> waiters;
    for (std::size_t i = 1; i <= kWaiters; ++i)
        waiters.emplace_back([&store, &results, &key, &compute, i] {
            results[i] = store.getOrCompute(key, compute);
        });
    for (std::thread &t : waiters)
        t.join();
    owner.join();

    EXPECT_EQ(computes.load(), 1)
        << "identical concurrent requests must share one computation";
    for (const auto &r : results)
        EXPECT_EQ(r, (std::vector<uint8_t>{7, 7}));
    const cache::StoreStats s = store.stats();
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.dedup_waits, kWaiters);
}

TEST(StoreDedup, CancellingAWaiterNeverDisturbsTheOwner)
{
    cache::Store store;
    exec::CancelToken waiter_token;
    std::atomic<int> computes{0};
    const auto key = keyOf(9);

    std::thread owner([&] {
        const auto r = store.getOrCompute(key, [&] {
            ++computes;
            // Wait for the waiter to register, cancel it, and keep
            // computing: the waiter's stop is its own business.
            for (int spin = 0;
                 store.stats().dedup_waits < 1 && spin < 2000; ++spin)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            waiter_token.cancel();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(30));
            return std::vector<uint8_t>{5};
        });
        EXPECT_EQ(r, (std::vector<uint8_t>{5}));
    });

    while (computes.load() == 0)
        std::this_thread::yield();
    bool waiter_cancelled = false;
    try {
        store.getOrCompute(
            key,
            [&]() -> std::vector<uint8_t> {
                ADD_FAILURE() << "the waiter must never compute";
                return {};
            },
            &waiter_token);
    } catch (const exec::CancelledError &) {
        waiter_cancelled = true;
    }
    owner.join();

    EXPECT_TRUE(waiter_cancelled);
    EXPECT_EQ(computes.load(), 1);
    std::vector<uint8_t> blob;
    EXPECT_TRUE(store.get(key, blob))
        << "the owner's result must land in the cache";
    EXPECT_EQ(blob, (std::vector<uint8_t>{5}));
}

TEST(StoreDedup, OwnerFailurePromotesAWaiter)
{
    cache::Store store;
    std::atomic<int> attempts{0};
    const auto key = keyOf(13);

    std::thread owner([&] {
        EXPECT_THROW(
            store.getOrCompute(
                key,
                [&]() -> std::vector<uint8_t> {
                    ++attempts;
                    for (int spin = 0; store.stats().dedup_waits < 1 &&
                                       spin < 2000;
                         ++spin)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    throw std::runtime_error("owner boom");
                },
                nullptr),
            std::runtime_error);
    });

    while (attempts.load() == 0)
        std::this_thread::yield();
    // The waiter outlives the owner's failure: it wakes, finds no
    // cached value, takes ownership, and computes.
    const auto r = store.getOrCompute(key, [&] {
        ++attempts;
        return std::vector<uint8_t>{8, 8};
    });
    owner.join();

    EXPECT_EQ(r, (std::vector<uint8_t>{8, 8}));
    EXPECT_EQ(attempts.load(), 2);
    std::vector<uint8_t> blob;
    EXPECT_TRUE(store.get(key, blob));
    EXPECT_EQ(blob, (std::vector<uint8_t>{8, 8}));
}

// --------------------------------------------------------------------
// Store (disk)
// --------------------------------------------------------------------

TEST(Store, DiskRoundTripAcrossInstances)
{
    const std::string dir = scratchDir("roundtrip");
    cache::CacheOptions options;
    options.dir = dir;

    {
        cache::Store writer(options);
        for (uint64_t i = 0; i < 6; ++i)
            writer.put(keyOf(i),
                       std::vector<uint8_t>(5 + 3 * i, uint8_t(i + 1)));
    } // writer closed: simulates the end of one process invocation

    cache::Store reader(options);
    const cache::StoreStats s = reader.stats();
    EXPECT_EQ(s.disk_loaded, 6u);
    EXPECT_EQ(s.disk_dropped, 0u);
    std::vector<uint8_t> blob;
    for (uint64_t i = 0; i < 6; ++i) {
        ASSERT_TRUE(reader.get(keyOf(i), blob)) << "record " << i;
        EXPECT_EQ(blob,
                  std::vector<uint8_t>(5 + 3 * i, uint8_t(i + 1)));
    }
    fs::remove_all(dir);
}

TEST(Store, TornTailIsTruncatedNotFatal)
{
    const std::string dir = scratchDir("torn");
    cache::CacheOptions options;
    options.dir = dir;
    const std::string path = dir + "/qpad_cache.qpc";

    {
        cache::Store writer(options);
        for (uint64_t i = 0; i < 4; ++i)
            writer.put(keyOf(i), std::vector<uint8_t>(32, uint8_t(i)));
    }

    // Rip 3 bytes off the last record, as a crash mid-append would.
    const auto full_size = fs::file_size(path);
    fs::resize_file(path, full_size - 3);

    {
        cache::Store reader(options);
        const cache::StoreStats s = reader.stats();
        EXPECT_EQ(s.disk_loaded, 3u);
        EXPECT_EQ(s.disk_dropped, 1u);
        std::vector<uint8_t> blob;
        EXPECT_FALSE(reader.get(keyOf(3), blob));
        ASSERT_TRUE(reader.get(keyOf(0), blob));
        // The torn tail is gone; appends land on a clean file again.
        reader.put(keyOf(7), std::vector<uint8_t>(16, 0x77));
    }

    cache::Store reopened(options);
    EXPECT_EQ(reopened.stats().disk_loaded, 4u);
    EXPECT_EQ(reopened.stats().disk_dropped, 0u);
    std::vector<uint8_t> blob;
    EXPECT_TRUE(reopened.get(keyOf(7), blob));
    fs::remove_all(dir);
}

TEST(Store, CorruptPayloadIsDetectedByChecksum)
{
    const std::string dir = scratchDir("checksum");
    cache::CacheOptions options;
    options.dir = dir;
    const std::string path = dir + "/qpad_cache.qpc";

    {
        cache::Store writer(options);
        writer.put(keyOf(0), std::vector<uint8_t>(64, 0x42));
    }

    // Flip one payload byte in place (header 16 + fixed fields 28).
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 16 + 28 + 10, SEEK_SET);
        std::fputc(0x43, f);
        std::fclose(f);
    }

    cache::Store reader(options);
    EXPECT_EQ(reader.stats().disk_loaded, 0u);
    EXPECT_EQ(reader.stats().disk_dropped, 1u);
    std::vector<uint8_t> blob;
    EXPECT_FALSE(reader.get(keyOf(0), blob));
    fs::remove_all(dir);
}

TEST(Store, UnknownHeaderStartsFresh)
{
    const std::string dir = scratchDir("header");
    cache::CacheOptions options;
    options.dir = dir;
    const std::string path = dir + "/qpad_cache.qpc";

    {
        cache::Store writer(options);
        writer.put(keyOf(1), {1, 2, 3});
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fputc('X', f); // clobber the magic
        std::fclose(f);
    }

    cache::Store reader(options);
    EXPECT_EQ(reader.stats().disk_loaded, 0u);
    std::vector<uint8_t> blob;
    EXPECT_FALSE(reader.get(keyOf(1), blob));
    // And the store is usable/persistent again afterwards.
    reader.put(keyOf(2), {9});
    cache::Store reopened(options);
    EXPECT_EQ(reopened.stats().disk_loaded, 1u);
    fs::remove_all(dir);
}

// --------------------------------------------------------------------
// Environment configuration
// --------------------------------------------------------------------

TEST(CacheEnv, Uint32KnobsRejectValuesPastUint32Max)
{
    // Both knobs are uint32_t fields: 2^32 would wrap to a zero-wait
    // lock and 2^32 + 1 to a compaction factor of 1.
    for (const char *name : {"QPAD_CACHE_COMPACT", "QPAD_CACHE_LOCK_MS"}) {
        for (const char *value : {"4294967296", "4294967297"}) {
            ::setenv(name, value, 1);
            EXPECT_THROW(cache::detail::optionsFromEnv(),
                         std::runtime_error)
                << name << "=" << value;
        }
        ::unsetenv(name);
    }
    ::setenv("QPAD_CACHE_COMPACT", "4294967295", 1);
    ::setenv("QPAD_CACHE_LOCK_MS", "4294967295", 1);
    const cache::CacheOptions options = cache::detail::optionsFromEnv();
    EXPECT_EQ(options.compact_factor, 4294967295u);
    EXPECT_EQ(options.lock_timeout_ms, 4294967295u);
    ::unsetenv("QPAD_CACHE_COMPACT");
    ::unsetenv("QPAD_CACHE_LOCK_MS");
}

// --------------------------------------------------------------------
// Cached front ends
// --------------------------------------------------------------------

void
expectSameYield(const yield::YieldResult &a, const yield::YieldResult &b)
{
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.yield, b.yield); // exact: same division of same ints
    EXPECT_EQ(a.condition_trials, b.condition_trials);
}

TEST(CachedYield, BitIdenticalToUncachedAndZeroRecompute)
{
    freshGlobalCache();
    auto arch = arch::ibm16Q(false);
    yield::YieldOptions options;
    options.trials = 3000;

    const yield::YieldResult direct = yield::estimateYield(arch, options);
    const yield::YieldResult miss =
        cache::cachedEstimateYield(arch, options);
    expectSameYield(direct, miss);

    cache::StoreStats s = cache::globalCacheStats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 1u);

    const yield::YieldResult hit =
        cache::cachedEstimateYield(arch, options);
    expectSameYield(direct, hit);

    s = cache::globalCacheStats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u) << "warm lookup must not recompute";
    EXPECT_EQ(s.inserts, 1u);
}

TEST(CachedYield, ConditionStatsVariantIsItsOwnKey)
{
    freshGlobalCache();
    auto arch = arch::ibm16Q(true);
    yield::YieldOptions options;
    options.trials = 1500;

    yield::YieldOptions stats_options = options;
    stats_options.collect_condition_stats = true;

    const yield::YieldResult plain =
        cache::cachedEstimateYield(arch, options);
    const yield::YieldResult stats =
        cache::cachedEstimateYield(arch, stats_options);
    EXPECT_EQ(cache::globalCacheStats().misses, 2u);

    // Same stream, same successes; only the tallies differ.
    EXPECT_EQ(plain.successes, stats.successes);
    std::size_t tallied = 0;
    for (std::size_t c : stats.condition_trials)
        tallied += c;
    EXPECT_GT(tallied, 0u) << "a bused 16q chip collides at 30 MHz";

    // Both variants replay from the cache, tallies included.
    expectSameYield(stats, cache::cachedEstimateYield(arch, stats_options));
    expectSameYield(plain, cache::cachedEstimateYield(arch, options));
    EXPECT_EQ(cache::globalCacheStats().misses, 2u);
}

TEST(CachedYield, DisabledCachePassesThrough)
{
    cache::CacheOptions off;
    off.enabled = false;
    cache::configureGlobalCache(off);

    auto arch = arch::ibm16Q(false);
    yield::YieldOptions options;
    options.trials = 500;
    expectSameYield(yield::estimateYield(arch, options),
                    cache::cachedEstimateYield(arch, options));
    const cache::StoreStats s = cache::globalCacheStats();
    EXPECT_EQ(s.hits + s.misses + s.inserts, 0u);
    freshGlobalCache();
}

TEST(CachedFreqAlloc, BitIdenticalAndCached)
{
    freshGlobalCache();
    auto arch = arch::ibm16Q(true);
    design::FreqAllocOptions options;
    options.local_trials = 150;
    options.refine_sweeps = 1;

    const design::FreqAllocResult direct =
        design::allocateFrequencies(arch, options);
    const design::FreqAllocResult miss =
        cache::cachedAllocateFrequencies(arch, options);
    const design::FreqAllocResult hit =
        cache::cachedAllocateFrequencies(arch, options);

    EXPECT_EQ(direct.freqs, miss.freqs);
    EXPECT_EQ(direct.order, miss.order);
    EXPECT_EQ(direct.local_scores, miss.local_scores);
    EXPECT_EQ(direct.freqs, hit.freqs);
    EXPECT_EQ(direct.order, hit.order);
    EXPECT_EQ(direct.local_scores, hit.local_scores);

    const cache::StoreStats s = cache::globalCacheStats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);

    // The allocator ignores pre-assigned frequencies, so a re-tuned
    // copy of the same topology must share the key.
    auto retuned = arch;
    std::vector<double> flat(retuned.numQubits(), 5.2);
    retuned.setAllFrequencies(flat);
    EXPECT_EQ(cache::freqAllocKey(arch, options),
              cache::freqAllocKey(retuned, options));
}

/** How many `cache.record_dropped` events of `kind` a text-format
 * log file holds. */
std::size_t
droppedRecords(const std::string &log_path, const std::string &kind)
{
    std::ifstream in(log_path);
    const std::string needle =
        "cache.record_dropped kind=\"" + kind + "\"";
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);)
        n += line.find(needle) != std::string::npos;
    return n;
}

TEST(CachedYield, UndecodableRecordIsRecomputedAndOverwritten)
{
    // Bytes the decoder rejects (a corrupt disk record or a 128-bit
    // key collision) must be dropped with a structured warning,
    // recomputed exactly as a miss would be, and overwritten with a
    // decodable record — so the next call is a plain hit that drops
    // nothing. Checked for both cached computations.
    const obs::LogConfig saved_log = obs::currentLogConfig();
    obs::LogConfig log;
    log.path = testing::TempDir() + "qpad_cache_record_dropped.txt";
    std::remove(log.path.c_str()); // the sink appends
    obs::configureLog(log);
    const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
    const auto arch = arch::ibm16Q(true);
    std::vector<uint8_t> stored;

    // Input 1: a yield estimate.
    freshGlobalCache();
    yield::YieldOptions yopts;
    yopts.trials = 1000;
    const cache::Fingerprint ykey = cache::yieldKey(arch, yopts);
    cache::globalStore().put(ykey, garbage);
    const yield::YieldResult ydirect = yield::estimateYield(arch, yopts);
    expectSameYield(ydirect, cache::cachedEstimateYield(arch, yopts));
    EXPECT_EQ(droppedRecords(log.path, "yield"), 1u);
    ASSERT_TRUE(cache::globalStore().get(ykey, stored));
    EXPECT_NE(stored, garbage);
    expectSameYield(ydirect, cache::cachedEstimateYield(arch, yopts));
    EXPECT_EQ(droppedRecords(log.path, "yield"), 1u)
        << "the overwritten record must decode";

    // Input 2: a frequency allocation.
    freshGlobalCache();
    design::FreqAllocOptions fopts;
    fopts.local_trials = 150;
    fopts.refine_sweeps = 1;
    const cache::Fingerprint fkey = cache::freqAllocKey(arch, fopts);
    cache::globalStore().put(fkey, garbage);
    const design::FreqAllocResult fdirect =
        design::allocateFrequencies(arch, fopts);
    for (int pass = 0; pass < 2; ++pass) {
        const design::FreqAllocResult cached =
            cache::cachedAllocateFrequencies(arch, fopts);
        EXPECT_EQ(cached.freqs, fdirect.freqs);
        EXPECT_EQ(cached.order, fdirect.order);
        EXPECT_EQ(cached.local_scores, fdirect.local_scores);
        EXPECT_EQ(droppedRecords(log.path, "freq_alloc"), 1u)
            << "pass " << pass;
        if (pass == 0) {
            ASSERT_TRUE(cache::globalStore().get(fkey, stored));
            EXPECT_NE(stored, garbage);
        }
    }

    obs::configureLog(saved_log);
    freshGlobalCache();
}

TEST(CachedAnneal, RestartChainsReplayFromCache)
{
    freshGlobalCache();
    auto circuit = benchmarks::getBenchmark("sym6_145").generate();
    profile::CouplingProfile prof = profile::profileCircuit(circuit);
    design::LayoutResult start = design::designLayout(prof);

    design::AnnealOptions options;
    options.iterations = 2000;
    options.restarts = 3;

    const design::AnnealResult cold =
        design::annealLayout(prof, start, options);
    cache::StoreStats s = cache::globalCacheStats();
    EXPECT_EQ(s.misses, 3u) << "one key per chain";
    EXPECT_EQ(s.inserts, 3u);

    const design::AnnealResult warm =
        design::annealLayout(prof, start, options);
    s = cache::globalCacheStats();
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 3u) << "warm rerun computes no chain";
    EXPECT_EQ(warm.final_cost, cold.final_cost);
    EXPECT_EQ(warm.winning_chain, cold.winning_chain);
    EXPECT_EQ(warm.accepted_moves, cold.accepted_moves);
    EXPECT_EQ(warm.layout.coord_of_logical,
              cold.layout.coord_of_logical);

    // More restarts reuse the finished chains and only run the new
    // ones — and match a cold run of the same configuration.
    design::AnnealOptions more = options;
    more.restarts = 5;
    const design::AnnealResult extended =
        design::annealLayout(prof, start, more);
    s = cache::globalCacheStats();
    EXPECT_EQ(s.hits, 6u);
    EXPECT_EQ(s.misses, 5u) << "only the two new chains computed";

    freshGlobalCache();
    const design::AnnealResult cold5 =
        design::annealLayout(prof, start, more);
    EXPECT_EQ(extended.final_cost, cold5.final_cost);
    EXPECT_EQ(extended.winning_chain, cold5.winning_chain);
    EXPECT_EQ(extended.layout.coord_of_logical,
              cold5.layout.coord_of_logical);
}

// --------------------------------------------------------------------
// Experiment harness integration
// --------------------------------------------------------------------

eval::ExperimentOptions
smallExperiment()
{
    eval::ExperimentOptions options;
    options.yield_options.trials = 300;
    options.max_yield_trials = 3000;
    options.freq_options.local_trials = 120;
    options.freq_options.refine_sweeps = 1;
    options.random_bus_samples = 1;
    return options;
}

void
expectSamePoints(const eval::BenchmarkExperiment &a,
                 const eval::BenchmarkExperiment &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const eval::DataPoint &p = a.points[i];
        const eval::DataPoint &q = b.points[i];
        EXPECT_EQ(p.config, q.config);
        EXPECT_EQ(p.arch_name, q.arch_name);
        EXPECT_EQ(p.num_qubits, q.num_qubits);
        EXPECT_EQ(p.num_edges, q.num_edges);
        EXPECT_EQ(p.num_buses, q.num_buses);
        EXPECT_EQ(p.gate_count, q.gate_count);
        EXPECT_EQ(p.swaps, q.swaps);
        EXPECT_EQ(p.yield, q.yield) << "point " << i;
        EXPECT_EQ(p.yield_trials, q.yield_trials);
        EXPECT_EQ(p.norm_recip_gates, q.norm_recip_gates);
    }
}

TEST(CachedExperiment, WarmRunIsBitIdenticalWithZeroYieldWork)
{
    const auto &info = benchmarks::getBenchmark("sym6_145");

    // Reference run with the cache disabled entirely.
    cache::CacheOptions off;
    off.enabled = false;
    cache::configureGlobalCache(off);
    const eval::BenchmarkExperiment uncached =
        eval::runBenchmark(info, smallExperiment());

    freshGlobalCache();
    const eval::BenchmarkExperiment cold =
        eval::runBenchmark(info, smallExperiment());
    expectSamePoints(uncached, cold);
    EXPECT_GT(obs::valueOf(cold.metrics, "cache.misses"), 0.0);

    const eval::BenchmarkExperiment warm =
        eval::runBenchmark(info, smallExperiment());
    expectSamePoints(uncached, warm);
    EXPECT_EQ(obs::valueOf(warm.metrics, "cache.misses"), 0.0)
        << "a warm sweep performs zero estimateYield trial work";
    EXPECT_GT(obs::valueOf(warm.metrics, "cache.hits"), 0.0);
    EXPECT_EQ(obs::valueOf(warm.metrics, "cache.inserts"), 0.0);
    freshGlobalCache();
}

TEST(CachedExperiment, AdaptiveEscalationStepsAreCached)
{
    // The dense bused 20q baseline yields ~0 at 200 trials, forcing
    // escalation; every escalation step must be served from the
    // cache on the second measurement.
    freshGlobalCache();
    auto arch = arch::ibm20Q(true);
    auto circuit =
        benchmarks::getBenchmark("UCCSD_ansatz_8").generate();

    eval::ExperimentOptions options = smallExperiment();
    options.yield_options.trials = 200;
    options.max_yield_trials = 20000;

    const eval::DataPoint first =
        eval::measure("probe", arch, circuit, options);
    const cache::StoreStats after_first = cache::globalCacheStats();
    EXPECT_GT(after_first.misses, 1u) << "escalation ran and cached";

    const eval::DataPoint second =
        eval::measure("probe", arch, circuit, options);
    const cache::StoreStats after_second = cache::globalCacheStats();
    EXPECT_EQ(second.yield, first.yield);
    EXPECT_EQ(second.yield_trials, first.yield_trials);
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_EQ(after_second.hits - after_first.hits,
              after_first.misses);
    freshGlobalCache();
}

} // namespace
