/**
 * @file
 * DiffHarness tests. Two halves:
 *
 *  - *Agreement*: the production board and the faithful oracle agree
 *    bit-for-bit over generated streams on every lattice config (a
 *    miniature of the CI sweep, kept small enough for the unit tier).
 *
 *  - *Mutation smoke*: a harness that can only ever pass proves
 *    nothing. Seeding the oracle with a known bug (a skipped PLRU
 *    touch, a dropped snooper downgrade, a flipped protocol-table
 *    entry) must produce a divergence, and ddmin must shrink the
 *    witness to a handful of transactions — the paper-trail an
 *    engineer actually debugs from.
 */

#include "oracle/diff.hh"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/logging.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "protocol/state.hh"
#include "protocol/table.hh"

namespace memories::oracle
{
namespace
{

std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count,
       const StimulusParams &base = {})
{
    StimulusParams p = base;
    p.seed = seed;
    p.count = count;
    return StimulusGen(p).generate();
}

/**
 * Few-set geometry for the replacement-policy smoke: 2MiB / (4KiB
 * lines x 4 ways) = 128 sets, so a short stream piles plenty of
 * conflict misses into every set and replacement decisions matter.
 */
ies::BoardConfig
conflictBoard(cache::ReplacementPolicy policy)
{
    return ies::makeUniformBoard(
        1, 8, cache::CacheConfig{2 * MiB, 4, 4096, policy});
}

/** Hot small footprint: frequent hits between the conflict misses. */
StimulusParams
hotParams()
{
    StimulusParams p;
    p.footprintLines = 1 << 13; // 1MiB per CPU: ~16 4KiB lines per set
    p.sharedLines = 256;
    return p;
}

TEST(DiffLatticeTest, LatticeIsBroadAndUniquelyNamed)
{
    const auto lattice = latticeConfigs();
    EXPECT_GE(lattice.size(), 12u);

    std::set<std::string> names;
    std::set<std::string> policies;
    std::set<std::string> protocols;
    bool multi_node = false;
    bool sampled = false;
    for (const auto &lc : lattice) {
        names.insert(lc.name);
        EXPECT_TRUE(lc.config.validationErrors().empty()) << lc.name;
        for (const auto &node : lc.config.nodes) {
            policies.insert(
                cache::replacementPolicyName(node.cache.policy));
            protocols.insert(node.protocol.name());
            sampled |= node.setSamplingShift > 0;
        }
        multi_node |= lc.config.nodes.size() > 1;
    }
    EXPECT_EQ(names.size(), lattice.size()) << "duplicate config names";
    EXPECT_GE(policies.size(), 4u) << "lattice misses a policy";
    EXPECT_GE(protocols.size(), 2u) << "lattice misses a protocol";
    EXPECT_TRUE(multi_node) << "lattice has no coherent multi-node box";
    EXPECT_TRUE(sampled) << "lattice has no set-sampled config";
}

TEST(DiffLatticeTest, SmallSweepIsClean)
{
    // A miniature of the CI acceptance sweep: every lattice config,
    // three seeds. The 100-seed version runs in CI via oracle_diff.
    const LatticeRun run = runLattice(1, 3, 300);
    EXPECT_EQ(run.comparisons, 3 * latticeConfigs().size());
    for (const auto &div : run.divergences) {
        ADD_FAILURE() << "config " << div.configName << " seed "
                      << div.seed << ":\n"
                      << div.report.describe();
    }
}

TEST(DiffLatticeTest, ShardedSweepIsClean)
{
    // Same miniature sweep, but the production board is fed through
    // feedBatch with no recorder, so its retirements are queued and
    // emulated in one pass per batch. The oracle never batches, so
    // this diffs the queued hot path against the naive model; the
    // 100-seed version runs in CI via oracle_diff --batch=128.
    for (const std::size_t batch : {std::size_t{7}, std::size_t{128}}) {
        DiffOptions opts;
        opts.batchSize = batch;
        const LatticeRun run = runLattice(1, 2, 300, "", opts);
        EXPECT_EQ(run.comparisons, 2 * latticeConfigs().size());
        for (const auto &div : run.divergences) {
            ADD_FAILURE() << "config " << div.configName << " seed "
                          << div.seed << " batch " << batch << ":\n"
                          << div.report.describe();
        }
    }
}

TEST(DiffHarnessTest, ShardedFeedStillCatchesMutations)
{
    // The batch feed must not blunt the harness: a mutated oracle
    // still has to diverge when the production side batches, and the
    // recorded re-run must still hand back a witness dump.
    const auto cfg = conflictBoard(cache::ReplacementPolicy::TreePLRU);
    DiffOptions opts;
    opts.mutation = RefMutation::SkipPlruTouchOnHit;
    opts.batchSize = 128;
    DiffReport report;
    for (std::uint64_t seed = 1; seed <= 5 && !report.diverged; ++seed)
        report = diffStream(cfg, stream(seed, 600, hotParams()), opts);
    EXPECT_TRUE(report.diverged)
        << "PLRU mutation survived the batch-feed harness";
    EXPECT_FALSE(report.flightDump.empty())
        << "batched divergence carries no flight dump";
}

TEST(DiffHarnessTest, AgreesOnDefaultBoard)
{
    const auto cfg = conflictBoard(cache::ReplacementPolicy::LRU);
    const DiffReport report = diffStream(cfg, stream(21, 500));
    EXPECT_FALSE(report.diverged) << report.describe();
    EXPECT_TRUE(report.summary.empty());
    EXPECT_TRUE(report.flightDump.empty());
}

TEST(DiffHarnessTest, PlruMutationIsCaughtAndShrinksSmall)
{
    const auto cfg = conflictBoard(cache::ReplacementPolicy::TreePLRU);
    DiffOptions opts;
    opts.mutation = RefMutation::SkipPlruTouchOnHit;

    // Find a seed the mutation bites on (it needs a hit wedged between
    // the fills and the conflict miss of one set; a hot footprint makes
    // that nearly certain immediately).
    std::vector<bus::BusTransaction> failing;
    DiffReport report;
    for (std::uint64_t seed = 1; seed <= 5 && failing.empty(); ++seed) {
        auto txns = stream(seed, 600, hotParams());
        report = diffStream(cfg, txns, opts);
        if (report.diverged)
            failing = std::move(txns);
    }
    ASSERT_FALSE(failing.empty())
        << "SkipPlruTouchOnHit never diverged: the harness is blind "
           "to replacement bugs";
    EXPECT_FALSE(report.summary.empty());
    EXPECT_FALSE(report.describe().empty());
    EXPECT_FALSE(report.flightDump.empty())
        << "divergence arrived without its flight-recorder dump";

    // The acceptance bar: ddmin reduces the witness to <= 10 txns
    // (minimum possible here is ~6: four fills, a hit, a conflict).
    const auto shrunk = shrinkStream(
        failing, [&](const std::vector<bus::BusTransaction> &s) {
            return diffStream(cfg, s, opts).diverged;
        });
    EXPECT_LE(shrunk.size(), 10u);
    EXPECT_TRUE(diffStream(cfg, shrunk, opts).diverged);
}

TEST(DiffHarnessTest, SnooperDowngradeMutationIsCaught)
{
    // Coherence bugs only bite across nodes: 4 nodes x 2 CPUs, with
    // enough sharing that remote Rwitm/Read snoops hit valid lines.
    const auto cfg = ies::makeUniformBoard(
        4, 2,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    DiffOptions opts;
    opts.mutation = RefMutation::DropSnooperDowngrade;

    StimulusParams p = hotParams();
    p.shareFraction = 0.6;
    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 5 && !caught; ++seed)
        caught = diffStream(cfg, stream(seed, 600, p), opts).diverged;
    EXPECT_TRUE(caught)
        << "DropSnooperDowngrade never diverged: the harness is blind "
           "to coherence bugs";
}

TEST(DiffHarnessTest, ProtocolTableFlipIsCaught)
{
    // Flip one data bit of the spec itself: a clean Read miss installs
    // Shared instead of Exclusive in the oracle's copy of MESI. The
    // tables now disagree (fingerprint check), and the boards must too.
    const auto cfg = conflictBoard(cache::ReplacementPolicy::LRU);
    auto ref_cfg = cfg;
    ref_cfg.nodes[0].protocol.setRequester(
        bus::BusOp::Read, protocol::LineState::Invalid,
        protocol::SnoopSummary::None,
        {protocol::LineState::Shared, true});
    ASSERT_NE(cfg.nodes[0].protocol.fingerprint(),
              ref_cfg.nodes[0].protocol.fingerprint());

    DiffOptions opts;
    opts.refConfig = &ref_cfg;
    const DiffReport report = diffStream(cfg, stream(31, 400), opts);
    EXPECT_TRUE(report.diverged)
        << "a flipped protocol-table entry went undetected";
    EXPECT_FALSE(report.details.empty());
}

TEST(DiffHarnessTest, ReportDetailListIsBounded)
{
    // A protocol flip diverges nearly everywhere; the report must
    // still truncate at maxDetails instead of dumping thousands of
    // lines into a CI log.
    const auto cfg = conflictBoard(cache::ReplacementPolicy::LRU);
    auto ref_cfg = cfg;
    ref_cfg.nodes[0].protocol.setRequester(
        bus::BusOp::Read, protocol::LineState::Invalid,
        protocol::SnoopSummary::None,
        {protocol::LineState::Shared, true});

    DiffOptions opts;
    opts.refConfig = &ref_cfg;
    opts.maxDetails = 3;
    const DiffReport report = diffStream(cfg, stream(31, 400), opts);
    ASSERT_TRUE(report.diverged);
    EXPECT_LE(report.details.size(), 3u);
}

} // namespace
} // namespace memories::oracle
