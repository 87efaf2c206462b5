/**
 * @file
 * Property test for the batch feed path: for any generated stream,
 * any board geometry, and any batch size, feedBatch must be
 * byte-identical to feeding the same stream through feedCommitted one
 * transaction at a time — acceptance flags, counters, directories,
 * and buffer statistics alike.
 *
 * The same file proves the two halves feedBatch is built from: the
 * buffer's admissiblePrefix probe is exact on a fault-free line, and
 * admitBatch with emulateQueued run later, in any chunking, matches
 * feedBatch.
 *
 * A divergence does not just fail: it is handed to the oracle's
 * delta-debugging shrinker (oracle::shrinkStream), so the log carries
 * a minimal reproducing stream instead of a 4000-transaction haystack.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "fault/injector.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"

namespace memories::ies
{
namespace
{

struct FeedOutcome
{
    std::vector<std::uint8_t> accepted;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::size_t bufferHighWater = 0;

    bool operator==(const FeedOutcome &) const = default;
};

FeedOutcome
outcomeOf(MemoriesBoard &board, std::vector<std::uint8_t> accepted)
{
    FeedOutcome out;
    out.accepted = std::move(accepted);
    board.globalCounters().snapshot([&](const CounterSample &s) {
        out.counters.emplace_back(s.name, s.value);
    });
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot([&](const CounterSample &s) {
            out.counters.emplace_back(s.name, s.value);
        });
        out.dirs.push_back(board.node(i).directorySnapshot());
    }
    out.bufferRetired = board.bufferRetired();
    out.bufferSize = board.bufferSize();
    out.bufferHighWater = board.bufferHighWater();
    return out;
}

FeedOutcome
runSerial(const BoardConfig &cfg,
          const std::vector<bus::BusTransaction> &txns)
{
    MemoriesBoard board(cfg);
    std::vector<std::uint8_t> accepted;
    accepted.reserve(txns.size());
    for (const auto &t : txns)
        accepted.push_back(board.feedCommitted(t) ? 1 : 0);
    return outcomeOf(board, std::move(accepted));
}

/** feedBatch in chunks of @p batch_size. @p shards > 1 first makes
 *  the retired enableSharding() call that the benchmark's shard probe
 *  still makes; the board must clamp it to 1 and change nothing. */
FeedOutcome
runBatched(const BoardConfig &cfg,
           const std::vector<bus::BusTransaction> &txns,
           std::size_t batch_size, std::size_t shards)
{
    MemoriesBoard board(cfg);
    if (shards > 1) {
        EXPECT_EQ(board.enableSharding(shards), 1u);
    }
    std::vector<std::uint8_t> accepted(txns.size(), 0);
    std::vector<char> flags(batch_size, 0);
    for (std::size_t at = 0; at < txns.size(); at += batch_size) {
        const std::size_t n = std::min(batch_size, txns.size() - at);
        board.feedBatch(&txns[at], n,
                        reinterpret_cast<bool *>(flags.data()));
        for (std::size_t i = 0; i < n; ++i)
            accepted[at + i] = static_cast<std::uint8_t>(flags[i]);
    }
    return outcomeOf(board, std::move(accepted));
}

std::string
firstDifference(const FeedOutcome &serial, const FeedOutcome &batched)
{
    std::ostringstream os;
    for (std::size_t i = 0;
         i < std::min(serial.accepted.size(), batched.accepted.size());
         ++i) {
        if (serial.accepted[i] != batched.accepted[i]) {
            os << "acceptance of txn " << i << ": serial "
               << int{serial.accepted[i]} << " batched "
               << int{batched.accepted[i]};
            return os.str();
        }
    }
    for (std::size_t i = 0; i < serial.counters.size(); ++i) {
        if (serial.counters[i].second != batched.counters[i].second) {
            os << "counter " << serial.counters[i].first << ": serial "
               << serial.counters[i].second << " batched "
               << batched.counters[i].second;
            return os.str();
        }
    }
    for (std::size_t n = 0; n < serial.dirs.size(); ++n) {
        if (serial.dirs[n] != batched.dirs[n]) {
            os << "node " << n << " directory contents";
            return os.str();
        }
    }
    os << "buffer stats: retired " << serial.bufferRetired << "/"
       << batched.bufferRetired << " size " << serial.bufferSize << "/"
       << batched.bufferSize << " high-water "
       << serial.bufferHighWater << "/" << batched.bufferHighWater;
    return os.str();
}

/** The property; on failure, shrink to a minimal stream and report. */
void
checkEquivalence(const BoardConfig &cfg,
                 const std::vector<bus::BusTransaction> &txns,
                 std::size_t batch_size, std::size_t shards,
                 const std::string &what)
{
    const FeedOutcome serial = runSerial(cfg, txns);
    const FeedOutcome batched =
        runBatched(cfg, txns, batch_size, shards);
    if (serial == batched)
        return;

    const auto still_fails =
        [&](const std::vector<bus::BusTransaction> &candidate) {
            return runSerial(cfg, candidate) !=
                   runBatched(cfg, candidate, batch_size, shards);
        };
    const auto shrunk = oracle::shrinkStream(txns, still_fails);
    const FeedOutcome s2 = runSerial(cfg, shrunk);
    const FeedOutcome b2 = runBatched(cfg, shrunk, batch_size, shards);
    ADD_FAILURE() << what << ": feedBatch diverged ("
                  << firstDifference(serial, batched)
                  << "); ddmin shrank " << txns.size() << " txns to "
                  << shrunk.size() << " ("
                  << firstDifference(s2, b2) << ")";
}

std::vector<bus::BusTransaction>
propertyStream(std::uint64_t seed)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = 4000;
    p.cpus = 8;
    p.pBurst = 0.4;
    return oracle::StimulusGen(p).generate();
}

TEST(FeedBatchPropertyTest, BatchSizesAreEquivalentToSerial)
{
    const BoardConfig cfg = makeUniformBoard(
        4, 2,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    for (std::uint64_t seed : {3u, 17u, 91u}) {
        const auto txns = propertyStream(seed);
        for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096}}) {
            checkEquivalence(cfg, txns, batch, 1,
                             "seed " + std::to_string(seed) +
                                 " batch " + std::to_string(batch));
        }
    }
}

TEST(FeedBatchPropertyTest, BatchSizesAreEquivalentUnderSharding)
{
    const BoardConfig cfg = makeUniformBoard(
        4, 2,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    const auto txns = propertyStream(7);
    for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{4096}}) {
        checkEquivalence(cfg, txns, batch, 4,
                         "batch " + std::to_string(batch) +
                             " after enableSharding(4)");
    }
}

TEST(FeedBatchPropertyTest, PacedBufferStaysEquivalent)
{
    // A slow, tiny buffer makes retirement timing and overflow depend
    // on exactly when drainDue runs — the riskiest batching surface.
    BoardConfig cfg = makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    cfg.bufferEntries = 32;
    cfg.sdramThroughputPercent = 10;
    for (std::uint64_t seed : {5u, 23u}) {
        const auto txns = propertyStream(seed);
        for (std::size_t batch :
             {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
            checkEquivalence(cfg, txns, batch, 1,
                             "paced seed " + std::to_string(seed) +
                                 " batch " + std::to_string(batch));
        }
    }
}

TEST(FeedBatchPropertyTest, AdmissiblePrefixIsExactOnAFaultFreeLine)
{
    // Random gaps (bursts to sparse), filtered ops, buffer sizes and
    // drain rates, with a stall and a slot-loss window left open by a
    // warm-up run. Each line's probed prefix must be taken whole by
    // feedBatch, and the next record must overflow.
    std::size_t clamped = 0, whole = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        BoardConfig cfg = makeUniformBoard(
            2, 4,
            cache::CacheConfig{2 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU});
        const std::size_t sizes[] = {4, 12, 64};
        const unsigned rates[] = {10, 42, 100};
        cfg.bufferEntries = sizes[rng.nextBounded(3)];
        cfg.sdramThroughputPercent = rates[rng.nextBounded(3)];

        oracle::StimulusParams p;
        p.seed = seed;
        p.count = 3000;
        p.maxGap = 1 + static_cast<unsigned>(rng.nextBounded(12));
        p.pBurst = 0.1 * static_cast<double>(rng.nextBounded(8));
        p.pFiltered = 0.2;
        const auto txns = oracle::StimulusGen(p).generate();

        fault::FaultPlan plan;
        fault::FaultSpec stall;
        stall.kind = fault::FaultKind::RetirementStall;
        stall.atTenure = 1 + rng.nextBounded(200);
        stall.cycles = 1 + rng.nextBounded(400);
        fault::FaultSpec slots;
        slots.kind = fault::FaultKind::SlotLoss;
        slots.atTenure = 1 + rng.nextBounded(200);
        slots.slots = 1 + rng.nextBounded(cfg.bufferEntries);
        slots.cycles = 1 + rng.nextBounded(2000);
        plan.faults = {stall, slots};

        MemoriesBoard board(cfg);
        fault::FaultInjector injector(plan, seed);
        board.attachFaultInjector(injector);
        const std::size_t warm = 300;
        board.feedBatch(txns.data(), warm);
        board.detachFaultInjector();

        std::vector<char> flags(txns.size());
        for (std::size_t at = warm; at < txns.size();) {
            const std::size_t n = std::min<std::size_t>(
                1 + rng.nextBounded(300), txns.size() - at);
            const std::size_t k = board.admissiblePrefix(&txns[at], n);
            const std::string what = "seed " + std::to_string(seed) +
                                     " line at " + std::to_string(at);
            const std::uint64_t retries = board.retriesPosted();
            EXPECT_EQ(board.feedBatch(&txns[at], k,
                                      reinterpret_cast<bool *>(
                                          flags.data())),
                      k)
                << what;
            EXPECT_EQ(board.retriesPosted(), retries) << what;
            if (k == n) {
                ++whole;
                at += n;
                continue;
            }
            ++clamped;
            EXPECT_EQ(board.feedBatch(&txns[at + k], 1), 0u)
                << what << ": record " << k << " should overflow";
            EXPECT_EQ(board.retriesPosted(), retries + 1) << what;
            at += k + 1;
        }
    }
    // Both outcomes must actually have been exercised.
    EXPECT_GT(clamped, 50u);
    EXPECT_GT(whole, 50u);
}

TEST(FeedBatchPropertyTest, DeferredEmulationMatchesFeedBatch)
{
    // admitBatch leaves retirements queued; emulating them later, in
    // chunks or behind a feedCommitted, drainAll or further batch,
    // must leave the board exactly where feedBatch leaves it.
    BoardConfig cfg = makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    cfg.bufferEntries = 32;
    cfg.sdramThroughputPercent = 42;
    for (std::uint64_t seed : {4u, 29u}) {
        const auto txns = propertyStream(seed);
        MemoriesBoard golden(cfg);
        std::vector<std::uint8_t> goldenFlags;
        MemoriesBoard deferred(cfg);
        std::vector<std::uint8_t> deferredFlags;
        std::vector<char> flags(txns.size());
        Rng rng(seed);
        std::size_t queuedSeen = 0;
        for (std::size_t at = 0; at < txns.size();) {
            const std::size_t n = std::min<std::size_t>(
                1 + rng.nextBounded(200), txns.size() - at);
            bool *f = reinterpret_cast<bool *>(flags.data());
            golden.feedBatch(&txns[at], n, f);
            goldenFlags.insert(goldenFlags.end(), flags.begin(),
                               flags.begin() + n);
            switch (rng.nextBounded(4)) {
              case 0: // a single tenure settles the queue first
                deferredFlags.push_back(deferred.feedCommitted(txns[at]));
                deferred.admitBatch(&txns[at + 1], n - 1, f);
                deferredFlags.insert(deferredFlags.end(), flags.begin(),
                                     flags.begin() + (n - 1));
                break;
              default:
                deferred.admitBatch(&txns[at], n, f);
                deferredFlags.insert(deferredFlags.end(), flags.begin(),
                                     flags.begin() + n);
                break;
            }
            queuedSeen = std::max(queuedSeen,
                                  deferred.queuedRetirements());
            // Emulate part of the backlog, or none of it.
            deferred.emulateQueued(rng.nextBounded(3) * 64);
            at += n;
        }
        golden.drainAll();
        deferred.drainAll();
        EXPECT_EQ(deferred.queuedRetirements(), 0u);
        EXPECT_GT(queuedSeen, 64u) << "seed " << seed;
        const FeedOutcome want = outcomeOf(golden, goldenFlags);
        const FeedOutcome got = outcomeOf(deferred, deferredFlags);
        EXPECT_TRUE(want == got)
            << "seed " << seed << ": " << firstDifference(want, got);
    }
}

} // namespace
} // namespace memories::ies
