/**
 * @file
 * The sharding equivalence tier: MemoriesBoard::feedBatch — threadless,
 * and sharded across every supported worker count — must be
 * byte-identical to the serial feedCommitted path. "Byte-identical"
 * is taken literally: every global and node counter, every node's
 * directorySnapshot(), the retirement order, the buffer statistics,
 * and the chrome-trace JSON rendered from the flight-recorder ring
 * must match, and so must the board's full IESCKPT checkpoint image,
 * transaction stream for transaction stream.
 *
 * Run under TSan (MEMORIES_SANITIZE=thread) this doubles as the data
 * race proof for the shard pool: docs/SHARDING.md documents the
 * partitioning invariant these tests pin down.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/file.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{
namespace
{

/** Everything observable about a board after a run. */
struct BoardSignature
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::size_t bufferHighWater = 0;
    /** traceIds of Retire events, in ring order. */
    std::vector<std::uint32_t> retirementOrder;
    /** Chrome-trace JSON of the full recorder ring. */
    std::string chromeTrace;
    /** The board's full IESCKPT image (saveState). */
    std::vector<std::uint8_t> checkpoint;
};

BoardSignature
signatureOf(const MemoriesBoard &board,
            const trace::FlightRecorder *recorder)
{
    BoardSignature sig;
    board.globalCounters().snapshot([&](const CounterSample &s) {
        sig.counters.emplace_back(s.name, s.value);
    });
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot([&](const CounterSample &s) {
            sig.counters.emplace_back(s.name, s.value);
        });
        sig.dirs.push_back(board.node(i).directorySnapshot());
    }
    sig.bufferRetired = board.bufferRetired();
    sig.bufferSize = board.bufferSize();
    sig.bufferHighWater = board.bufferHighWater();
    ckpt::CheckpointWriter writer;
    board.saveState(writer);
    sig.checkpoint = writer.bytes(board.config().fingerprint());
    if (recorder) {
        const auto events = recorder->snapshot();
        for (const auto &ev : events) {
            if (ev.kind == trace::EventKind::Retire)
                sig.retirementOrder.push_back(ev.traceId);
        }
        sig.chromeTrace = trace::chromeTraceToString(events, recorder);
    }
    return sig;
}

void
expectIdentical(const BoardSignature &serial,
                const BoardSignature &sharded, const std::string &what)
{
    ASSERT_EQ(serial.counters.size(), sharded.counters.size()) << what;
    for (std::size_t i = 0; i < serial.counters.size(); ++i) {
        EXPECT_EQ(serial.counters[i].second, sharded.counters[i].second)
            << what << ": counter " << serial.counters[i].first;
    }
    ASSERT_EQ(serial.dirs.size(), sharded.dirs.size()) << what;
    for (std::size_t n = 0; n < serial.dirs.size(); ++n)
        EXPECT_EQ(serial.dirs[n], sharded.dirs[n])
            << what << ": node " << n << " directory";
    EXPECT_EQ(serial.bufferRetired, sharded.bufferRetired) << what;
    EXPECT_EQ(serial.bufferSize, sharded.bufferSize) << what;
    EXPECT_EQ(serial.bufferHighWater, sharded.bufferHighWater) << what;
    EXPECT_EQ(serial.retirementOrder, sharded.retirementOrder) << what;
    EXPECT_EQ(serial.chromeTrace, sharded.chromeTrace) << what;
    EXPECT_TRUE(serial.checkpoint == sharded.checkpoint)
        << what << ": checkpoint images differ";
}

std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count, unsigned cpus = 8)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = cpus;
    return oracle::StimulusGen(p).generate();
}

cache::CacheConfig
cacheCfg(std::uint64_t bytes, unsigned assoc,
         cache::ReplacementPolicy policy = cache::ReplacementPolicy::LRU)
{
    return cache::CacheConfig{bytes, assoc, 128, policy};
}

/** The geometries the tier sweeps; each stresses a different path. */
struct EquivConfig
{
    std::string name;
    BoardConfig board;
};

std::vector<EquivConfig>
equivConfigs()
{
    std::vector<EquivConfig> cfgs;
    cfgs.push_back({"mesi-4node", makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4))});
    cfgs.push_back(
        {"mesi-2node-random",
         makeUniformBoard(2, 4,
                          cacheCfg(2 * MiB, 4,
                                   cache::ReplacementPolicy::Random))});
    cfgs.push_back(
        {"moesi-2node-fifo",
         makeUniformBoard(2, 4,
                          cacheCfg(2 * MiB, 2,
                                   cache::ReplacementPolicy::FIFO),
                          "MOESI")});
    {
        // Multi-configuration board: three geometries against the same
        // traffic, multiple target-machine groups per emulation step.
        BoardConfig multi = makeMultiConfigBoard(
            {cacheCfg(2 * MiB, 2), cacheCfg(4 * MiB, 4),
             cacheCfg(8 * MiB, 8)},
            4);
        cfgs.push_back({"multicfg", std::move(multi)});
    }
    {
        // Set sampling: shard keys must come from the sampled window.
        BoardConfig sampled = makeUniformBoard(2, 4, cacheCfg(8 * MiB, 4));
        for (auto &node : sampled.nodes)
            node.setSamplingShift = 2;
        cfgs.push_back({"sampled4", std::move(sampled)});
    }
    {
        // Tiny, slow buffer: pacing, overflow, and drop paths fire.
        BoardConfig tiny = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
        tiny.bufferEntries = 32;
        tiny.sdramThroughputPercent = 10;
        cfgs.push_back({"tinybuf", std::move(tiny)});
    }
    return cfgs;
}

/** Serial reference: feedCommitted per element. */
BoardSignature
runSerial(const BoardConfig &cfg,
          const std::vector<bus::BusTransaction> &txns,
          std::vector<bool> *accepted = nullptr, bool record = false)
{
    MemoriesBoard board(cfg);
    std::unique_ptr<trace::FlightRecorder> recorder;
    if (record) {
        recorder = std::make_unique<trace::FlightRecorder>(1 << 14);
        board.attachFlightRecorder(*recorder);
    }
    for (const auto &t : txns) {
        const bool ok = board.feedCommitted(t);
        if (accepted)
            accepted->push_back(ok);
    }
    return signatureOf(board, recorder.get());
}

/** Batched run at a requested shard count. */
BoardSignature
runSharded(const BoardConfig &cfg,
           const std::vector<bus::BusTransaction> &txns,
           std::size_t shards, std::vector<bool> *accepted = nullptr,
           bool record = false, std::size_t batchSize = 0)
{
    MemoriesBoard board(cfg);
    std::unique_ptr<trace::FlightRecorder> recorder;
    if (record) {
        recorder = std::make_unique<trace::FlightRecorder>(1 << 14);
        board.attachFlightRecorder(*recorder);
    }
    if (shards > 1)
        board.enableSharding(shards);
    if (batchSize == 0)
        batchSize = txns.size();
    std::vector<std::uint8_t> raw(txns.size(), 0);
    for (std::size_t at = 0; at < txns.size(); at += batchSize) {
        const std::size_t n = std::min(batchSize, txns.size() - at);
        // bool* out array: use a plain buffer, vector<bool> is packed.
        std::vector<char> out(n, 0);
        board.feedBatch(&txns[at], n,
                        reinterpret_cast<bool *>(out.data()));
        for (std::size_t i = 0; i < n; ++i)
            raw[at + i] = static_cast<std::uint8_t>(out[i]);
    }
    if (accepted)
        for (std::size_t i = 0; i < txns.size(); ++i)
            accepted->push_back(raw[i] != 0);
    return signatureOf(board, recorder.get());
}

TEST(ShardEquivTest, BatchPathMatchesSerialWithoutRecorder)
{
    for (const auto &cfg : equivConfigs()) {
        const auto txns = stream(11, 4000);
        std::vector<bool> serial_ok, batch_ok;
        const auto serial = runSerial(cfg.board, txns, &serial_ok);
        const auto batch = runSharded(cfg.board, txns, 1, &batch_ok);
        EXPECT_EQ(serial_ok, batch_ok) << cfg.name;
        expectIdentical(serial, batch, cfg.name + " recorder-less batch");
    }
}

TEST(ShardEquivTest, ShardedMatchesSerialAcrossThreadCounts)
{
    for (const auto &cfg : equivConfigs()) {
        const auto txns = stream(23, 4000);
        std::vector<bool> serial_ok;
        const auto serial = runSerial(cfg.board, txns, &serial_ok, true);
        for (std::size_t shards : {1u, 2u, 4u, 8u}) {
            std::vector<bool> sharded_ok;
            const auto sharded = runSharded(cfg.board, txns, shards,
                                            &sharded_ok, true);
            const std::string what =
                cfg.name + " @" + std::to_string(shards) + " shards";
            EXPECT_EQ(serial_ok, sharded_ok) << what;
            expectIdentical(serial, sharded, what);
        }
    }
}

TEST(ShardEquivTest, ChunkedBatchesMatchOneBigBatch)
{
    const BoardConfig cfg = makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4));
    const auto txns = stream(31, 3000);
    const auto serial = runSerial(cfg, txns, nullptr, true);
    for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{4096}}) {
        const auto sharded =
            runSharded(cfg, txns, 4, nullptr, true, batch);
        expectIdentical(serial, sharded,
                        "batch size " + std::to_string(batch));
    }
}

TEST(ShardEquivTest, ShardCountClampsToSmallestNodeWindow)
{
    // 2MB / 8 ways / 16KB lines = 16 sets; sampling shift 2 keeps 4.
    // A 4-set directory can contain at most 4 shards, so a request
    // for 8 must clamp — and the clamped pool stays bit-exact.
    BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    cfg.nodes[0].cache = cache::CacheConfig{
        2 * MiB, 8, 16 * KiB, cache::ReplacementPolicy::LRU};
    cfg.nodes[0].setSamplingShift = 2;
    {
        MemoriesBoard board(cfg);
        EXPECT_EQ(board.enableSharding(8), 4u);
    }
    {
        // Sampling shift 4 leaves a single set: everything must
        // serialize onto one shard.
        BoardConfig one = cfg;
        one.nodes[0].setSamplingShift = 4;
        MemoriesBoard board(one);
        EXPECT_EQ(board.enableSharding(8), 1u);
    }

    // Whatever the clamp chose must still be bit-exact.
    const auto txns = stream(47, 2000);
    const auto serial = runSerial(cfg, txns, nullptr, true);
    const auto sharded = runSharded(cfg, txns, 8, nullptr, true);
    expectIdentical(serial, sharded, "clamped shard count");
}

TEST(ShardEquivTest, NonPowerOfTwoRequestRoundsDown)
{
    BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    MemoriesBoard board(cfg);
    EXPECT_EQ(board.enableSharding(3), 2u);
    EXPECT_EQ(board.enableSharding(7), 4u);
    EXPECT_EQ(board.enableSharding(1), 1u);
    EXPECT_EQ(board.enableSharding(0), 1u);
    board.disableSharding();
    EXPECT_EQ(board.shardCount(), 1u);
}

TEST(ShardEquivTest, MixedSerialAndBatchFeedsAgree)
{
    const BoardConfig cfg = makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4));
    const auto txns = stream(59, 3000);
    const auto serial = runSerial(cfg, txns, nullptr, true);

    MemoriesBoard board(cfg);
    trace::FlightRecorder recorder(1 << 14);
    board.attachFlightRecorder(recorder);
    board.enableSharding(4);
    // First third serial, middle third batched, last third serial.
    const std::size_t third = txns.size() / 3;
    for (std::size_t i = 0; i < third; ++i)
        board.feedCommitted(txns[i]);
    board.feedBatch(&txns[third], third);
    for (std::size_t i = 2 * third; i < txns.size(); ++i)
        board.feedCommitted(txns[i]);
    expectIdentical(serial, signatureOf(board, &recorder),
                    "mixed serial/batch feeds");
}

TEST(ShardEquivTest, DrainAllAfterBatchMatchesSerial)
{
    const BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    const auto txns = stream(67, 2000);

    MemoriesBoard serial_board(cfg);
    for (const auto &t : txns)
        serial_board.feedCommitted(t);
    serial_board.drainAll();

    MemoriesBoard sharded_board(cfg);
    sharded_board.enableSharding(4);
    sharded_board.feedBatch(txns);
    sharded_board.drainAll();

    expectIdentical(signatureOf(serial_board, nullptr),
                    signatureOf(sharded_board, nullptr),
                    "post-drainAll state");
}

} // namespace
} // namespace memories::ies
