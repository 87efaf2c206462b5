/**
 * @file
 * replay_ladder: one seeded 8-CPU stimulus stream replayed with
 * feedBatch into a four-rung multi-config board (Fig. 11's L3 ladder
 * as one board), on one thread.
 *
 * Each repetition generates the stream and builds the board (set-up),
 * warms the caches with an untimed prefix, clears the counters, and
 * times the rest in segments of 64 batches. The reference is serial
 * feedCommitted over the same stream on a fresh board.
 */

#include <memory>

#include "common.hh"
#include "oracle/stimulus.hh"
#include "probes.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t warmRefs = 2'000'000;
constexpr std::size_t measuredRefs = 5'000'000; // >= 1000 batches a rep
constexpr std::size_t setupReps = 5;
constexpr std::size_t batchRefs = 4096;
constexpr std::size_t segmentRefs = 64 * batchRefs;

oracle::StimulusParams
streamParams(std::uint64_t seed)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = warmRefs + measuredRefs;
    p.cpus = 8;
    // 2^19 lines per CPU (512 MB across 8 CPUs) with a 0.9 Zipf skew
    // gives each rung its own miss ratio; at 2^18 lines the 256 MB and
    // 1 GB rungs tie.
    p.footprintLines = std::uint64_t{1} << 19;
    p.zipfTheta = 0.9;
    return p;
}

struct Rep
{
    std::vector<bus::BusTransaction> stream;
    std::unique_ptr<ies::MemoriesBoard> board;
};

/**
 * One repetition on a fresh board. The first setupReps untraced
 * repetitions and every traced one also regenerate the stream, and the
 * untraced ones record generation + construction as a set-up sample;
 * the rest reuse the stream so more of the run is measured.
 */
void
runRep(std::uint64_t seed, Report &report, Tracer *tr, Rep &rep)
{
    const bool setup = tr || report.setupS.size() < setupReps;
    const std::int64_t setup0 = nowNs();
    if (setup) {
        Scope sc(tr, "workload.gen");
        rep.stream = oracle::StimulusGen(streamParams(seed)).generate();
    }
    {
        Scope sc(tr, "ies.construct");
        rep.board = ies::MemoriesBoard::make(ladderBoard());
    }
    if (tr)
        tr->work("workload.gen", static_cast<double>(rep.stream.size()));
    else if (setup)
        report.setupS.push_back(secondsSince(setup0));
    if (!tr)
        report.feedUs.emplace_back();

    ies::MemoriesBoard &board = *rep.board;
    const auto &s = rep.stream;
    feedBatches(board, s, 0, warmRefs);
    board.drainAll();
    board.clearCounters();

    std::size_t accepted = 0;
    std::uint64_t req = 0;
    Scope pass(tr, "workload.pass");
    for (std::size_t seg = warmRefs; seg < s.size(); seg += segmentRefs) {
        const std::size_t segEnd = std::min(s.size(), seg + segmentRefs);
        const std::int64_t t0 = nowNs();
        for (std::size_t at = seg; at < segEnd; at += batchRefs) {
            const std::size_t n = std::min(batchRefs, segEnd - at);
            const std::int64_t b0 = nowNs();
            std::size_t a;
            {
                Scope sc(tr, "ies.feed_batch", ++req);
                a = board.feedBatch(&s[at], n);
            }
            if (!tr)
                report.feedUs.back().push_back(
                    static_cast<double>(nowNs() - b0) / 1e3);
            ++report.attempted;
            if (a < n)
                ++report.failed;
            accepted += a;
        }
        if (segEnd == s.size()) {
            Scope sc(tr, "ies.drain_all");
            board.drainAll();
        }
        report.segments.push_back({static_cast<double>(segEnd - seg),
                                   secondsSince(t0), tr != nullptr});
    }
    if (tr)
        tr->work("ies.feed_batch", static_cast<double>(measuredRefs));
    report.values["ies.admit_frac"] =
        static_cast<double>(accepted) / static_cast<double>(measuredRefs);
    report.repDigests.push_back(hex64(streamDigest(s)) + ":" +
                                hex64(counterDigest(board)));
}

} // namespace

void
runReplayLadder(const Options &opts, Report &report)
{
    Rep last;
    repeat(opts, 2, report, [&](Tracer *tr) {
        last.board.reset();
        runRep(opts.seed, report, tr, last);
    });

    const std::uint64_t full = fullDigest(*last.board);
    for (std::size_t i = 0; i < last.board->numNodes(); ++i)
        report.values["ies.node" + std::to_string(i) + ".miss_ratio"] =
            last.board->node(i).stats().missRatio();
    last.board.reset();

    // Reference path: serial feedCommitted on a fresh board. In a
    // traced run its spans are the ies.feed_committed layer metric.
    const ProbeInput all = probeInput(last.stream, warmRefs, measuredRefs);
    {
        auto ref = ies::MemoriesBoard::make(ladderBoard());
        serialReplay(*ref, all, opts.trace ? &report.spans : nullptr,
                     "ies.feed_committed");
        const std::uint64_t want = fullDigest(*ref);
        report.check("replay_vs_serial_feedCommitted", want == full,
                     "batch " + hex64(full) + " serial " + hex64(want));
    }

    if (opts.trace) {
        const ProbeInput in = probeInput(last.stream, warmRefs);
        probeShard4(in, report);
        probeTagStore(in, report);
        probeProfiler(in, report);
        probeFleet(in, report);
        probeHost(opts.seed, report);
        probeService(last.stream, opts.outDir, report);
    }
}

} // namespace perfbench
