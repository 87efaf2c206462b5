/**
 * @file
 * IESPROF unit tier: stage accounting, the child-never-exceeds-parent
 * rule over a real board run, and the export surfaces (folded stacks,
 * merged chrome trace, profile JSON, telemetry series). The
 * non-perturbation claim — attached vs detached byte-equivalence —
 * lives in prof_equiv_test.cc; this file pins the arithmetic and the
 * formats.
 */

#include "profile/profiler.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "profile/profexport.hh"
#include "telemetry/exporter.hh"
#include "telemetry/sampler.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"

namespace memories::profile
{
namespace
{

TEST(ProfilerTest, StageNamesAndParentsFormATree)
{
    // Every stage has a printable name; every non-root stage's parent
    // chain terminates at FeedBatch (the folded-stack renderer and
    // describe() both walk it).
    for (std::size_t s = 0; s < numStages; ++s) {
        const Stage stage = static_cast<Stage>(s);
        EXPECT_NE(std::string(stageName(stage)), "");
        if (stage == Stage::FeedBatch)
            continue;
        Stage at = stage;
        int hops = 0;
        while (at != Stage::FeedBatch && hops < 8) {
            at = stageParent(at);
            ++hops;
        }
        EXPECT_EQ(at, Stage::FeedBatch)
            << stageName(stage) << " does not root at feed_batch";
    }
}

TEST(ProfilerTest, RecordStageAccumulatesCallsAndTime)
{
    Profiler prof;
    const std::uint64_t t0 = Profiler::nowNs();
    prof.recordStage(Stage::Emulation, t0);
    prof.recordStage(Stage::Emulation, t0);
    const ProfReport report = prof.snapshot();
    EXPECT_EQ(report.stage(Stage::Emulation).calls, 2u);
    // Every bout is timed: the estimate is exactly what was measured.
    EXPECT_EQ(report.stage(Stage::Emulation).estNs(),
              report.stage(Stage::Emulation).ns);
}

TEST(ProfilerTest, ScopedStageIsANoOpOnNullProfiler)
{
    // The detached contract: a null profiler pointer must be exactly
    // one branch, with no cell writes to crash or misattribute.
    ScopedStage scope(nullptr, Stage::BatchAdmission);
    SUCCEED();
}

TEST(ProfilerTest, ResetClearsEverything)
{
    Profiler prof;
    prof.beginBatch(0);
    prof.recordStage(Stage::Emulation, Profiler::nowNs());
    prof.endBatch(100, Profiler::nowNs() - 10);
    ASSERT_GT(prof.snapshot().batches, 0u);
    prof.reset();
    const ProfReport report = prof.snapshot();
    EXPECT_EQ(report.batches, 0u);
    EXPECT_EQ(report.spansRecorded, 0u);
    EXPECT_EQ(report.stage(Stage::Emulation).calls, 0u);
}

TEST(ProfilerTest, SpanRingDropsNewAtCapacity)
{
    Profiler prof(/*span_capacity=*/4);
    for (int b = 0; b < 8; ++b) {
        prof.beginBatch(b * 100);
        prof.endBatch(b * 100 + 50, Profiler::nowNs() - 1000);
    }
    const ProfReport report = prof.snapshot();
    EXPECT_EQ(prof.spans().size(), 4u);
    EXPECT_EQ(report.spansRecorded, 4u);
    EXPECT_GT(report.spansDropped, 0u);
    // Drop-new keeps the *first* batches: span 0 is batch 1.
    EXPECT_EQ(prof.spans().front().batch, 1u);
}

/** A profiled batch run over a real board, for the export tests. */
Profiler &
profiledRun(ies::MemoriesBoard &board, Profiler &prof,
            std::size_t count = 2000)
{
    board.attachProfiler(prof);
    oracle::StimulusParams p;
    p.seed = 7;
    p.count = count;
    const auto txns = oracle::StimulusGen(p).generate();
    constexpr std::size_t chunk = 256;
    for (std::size_t at = 0; at < txns.size(); at += chunk) {
        const std::size_t n = std::min(chunk, txns.size() - at);
        board.feedBatch(&txns[at], n);
    }
    board.drainAll();
    return prof;
}

ies::BoardConfig
smallBoard()
{
    return ies::makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
}

TEST(ProfilerTest, BoardRunAttributesTimeToEveryHotStage)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof);

    const ProfReport report = prof.snapshot();
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.stage(Stage::FeedBatch).estNs(), 0u);
    EXPECT_GT(report.stage(Stage::BatchAdmission).estNs(), 0u);
    EXPECT_GT(report.stage(Stage::Emulation).estNs(), 0u);

    // The stage tree must attribute ~all of feed_batch to its direct
    // children — the same invariant check_bench_regression.py gates.
    const std::uint64_t total = report.stage(Stage::FeedBatch).estNs();
    const std::uint64_t children =
        report.stage(Stage::BatchAdmission).estNs() +
        report.stage(Stage::Emulation).estNs();
    EXPECT_LT(children, total * 11 / 10);
}

TEST(ProfilerTest, BoardRunNoStageExceedsItsParent)
{
    // Each child's clock pair nests inside its parent's, so a child
    // can never report more time than its parent, and the children
    // together never more than the root. The bench gate checks the
    // same rule on the profile JSON.
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof, 20000);
    const ProfReport report = prof.snapshot();
    std::uint64_t children = 0;
    for (const Stage s : recordedStages) {
        if (s == Stage::FeedBatch)
            continue;
        const Stage parent = stageParent(s);
        EXPECT_GT(report.stage(s).calls, 0u) << stageName(s);
        EXPECT_LE(report.stage(s).ns, report.stage(parent).ns)
            << stageName(s) << " exceeds " << stageName(parent);
        children += report.stage(s).ns;
    }
    EXPECT_LE(children, report.stage(Stage::FeedBatch).ns);
    // The stub stage is recorded nowhere.
    EXPECT_EQ(report.stage(Stage::CreditPacing).calls, 0u);
    EXPECT_EQ(report.stage(Stage::CreditPacing).ns, 0u);
}

TEST(ProfilerTest, DescribeNamesStagesAndShards)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof);
    const std::string text = prof.describe();
    EXPECT_NE(text.find("feed_batch"), std::string::npos);
    EXPECT_NE(text.find("batch_admission"), std::string::npos);
    EXPECT_NE(text.find("emulation"), std::string::npos);
    EXPECT_EQ(text.find("credit_pacing"), std::string::npos);
    EXPECT_EQ(text.find("sampled"), std::string::npos);
    // Stages only: no shard table.
    EXPECT_EQ(text.find("shard"), std::string::npos);
    EXPECT_EQ(text.find("imbalance"), std::string::npos);
}

TEST(ProfilerTest, FoldedStacksCarryRootedSemicolonPaths)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof);
    const std::string folded = foldedStacks(prof);
    ASSERT_FALSE(folded.empty());
    // Every line: "frame(;frame)* <integer>\n", rooted at feed_batch.
    std::size_t at = 0;
    while (at < folded.size()) {
        const std::size_t nl = folded.find('\n', at);
        ASSERT_NE(nl, std::string::npos);
        const std::string line = folded.substr(at, nl - at);
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.rfind("feed_batch", 0), 0u) << line;
        const std::string count = line.substr(space + 1);
        EXPECT_NE(count.find_first_of("0123456789"), std::string::npos)
            << line;
        at = nl + 1;
    }
    // Admission and emulation are direct children of the root.
    EXPECT_NE(folded.find("feed_batch;emulation "), std::string::npos);
    EXPECT_NE(folded.find("feed_batch;batch_admission "),
              std::string::npos);
    EXPECT_EQ(folded.find("credit_pacing"), std::string::npos);
    EXPECT_EQ(folded.find("shard"), std::string::npos);
}

TEST(ProfilerTest, MergedTraceExtendsThePlainExportByteForByte)
{
    ies::MemoriesBoard board(smallBoard());
    trace::FlightRecorder recorder(1 << 12);
    board.attachFlightRecorder(recorder);
    Profiler prof;
    profiledRun(board, prof);

    const auto events = recorder.snapshot();
    const std::string plain =
        trace::chromeTraceToString(events, &recorder);
    const std::string merged =
        mergedChromeTrace(events, prof, &recorder);

    // Non-perturbation at the export layer: the merged document is the
    // plain one with profiler rows spliced in before the closing
    // bracket — the plain export's bytes all survive, in order.
    static const std::string suffix = "\n]}\n";
    ASSERT_GE(plain.size(), suffix.size());
    const std::string prefix =
        plain.substr(0, plain.size() - suffix.size());
    EXPECT_EQ(merged.rfind(prefix, 0), 0u);
    EXPECT_EQ(merged.substr(merged.size() - suffix.size()), suffix);
    EXPECT_GT(merged.size(), plain.size());

    // The splice carries the dedicated profiler pid and its lanes.
    EXPECT_NE(merged.find("\"pid\":99"), std::string::npos);
    EXPECT_NE(merged.find("IESPROF (emulator)"), std::string::npos);
    EXPECT_NE(merged.find("\"feed_batch\""), std::string::npos);
    EXPECT_EQ(merged.find("credit_pacing"), std::string::npos);
    EXPECT_EQ(merged.find("\"sampled\""), std::string::npos);
    // And the plain export never mentions any of it.
    EXPECT_EQ(plain.find("IESPROF"), std::string::npos);
}

TEST(ProfilerTest, MergedTraceWithNoLifecycleEventsIsStillValid)
{
    Profiler prof;
    prof.beginBatch(0);
    prof.recordStage(Stage::Emulation, Profiler::nowNs());
    prof.endBatch(50, Profiler::nowNs() - 1000);
    const std::string merged = mergedChromeTrace({}, prof);
    EXPECT_EQ(merged.rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_EQ(merged.substr(merged.size() - 4), "\n]}\n");
    EXPECT_NE(merged.find("\"pid\":99"), std::string::npos);
    // No leading comma before the first spliced event.
    EXPECT_EQ(merged.find("[\n,"), std::string::npos);
}

TEST(ProfilerTest, ProfileJsonCarriesStagesShardsAndImbalance)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof);
    const std::string json = profileJson(prof, 2000);
    EXPECT_EQ(json.rfind("{", 0), 0u);
    EXPECT_NE(json.find("\"refs\":2000"), std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"feed_batch\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ns_per_ref\""), std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"emulation\""), std::string::npos);
    EXPECT_EQ(json.find("credit_pacing"), std::string::npos);
    // Stages only: no per-shard table or skew.
    EXPECT_EQ(json.find("\"shards\""), std::string::npos);
    EXPECT_EQ(json.find("\"imbalance\""), std::string::npos);
}

TEST(ProfilerTest, AttachTelemetryExportsStageAndShardSeries)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    board.attachProfiler(prof);

    telemetry::Sampler sampler(1000);
    std::vector<std::string> names;
    class Capture final : public telemetry::Exporter
    {
      public:
        explicit Capture(std::vector<std::string> &n) : names_(n) {}
        void
        exportWindow(const telemetry::WindowRecord &w) override
        {
            for (const auto &c : w.counters)
                names_.push_back(*c.name);
        }
        void close() override {}

      private:
        std::vector<std::string> &names_;
    } capture(names);
    sampler.addExporter(capture);
    prof.attachTelemetry(sampler);

    oracle::StimulusParams p;
    p.seed = 3;
    p.count = 500;
    const auto txns = oracle::StimulusGen(p).generate();
    board.feedBatch(txns);
    board.drainAll();
    sampler.finish(txns.back().cycle + 1);

    auto has = [&names](const std::string &name) {
        for (const auto &n : names)
            if (n == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("prof.stage.feed_batch.ns"));
    EXPECT_TRUE(has("prof.stage.batch_admission.calls"));
    EXPECT_TRUE(has("prof.stage.emulation.ns"));
    EXPECT_FALSE(has("prof.stage.credit_pacing.ns"));
    // Stages only: no per-shard series.
    for (const auto &n : names)
        EXPECT_EQ(n.find("prof.shard"), std::string::npos) << n;
}

} // namespace
} // namespace memories::profile
