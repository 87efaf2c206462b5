/**
 * @file
 * Microbenchmark: the reproduction's "real-time" budget.
 *
 * The hardware board is real-time by construction. The software
 * reproduction's equivalent claim is throughput: how many bus
 * references per second the board path retires, versus the host-model
 * cost of *generating* realistic traffic, versus the detailed
 * simulator. This bench prints all three plus the implied wall-clock
 * for paper-scale runs, which EXPERIMENTS.md cites for every scaled
 * experiment.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

int
main(int argc, char **argv)
{
    using namespace memories;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::banner("Microbenchmark: reproduction throughput",
                  "board path vs host model vs detailed simulator");

    const std::uint64_t n = args.refsOrDefault(4.0);

    // Pre-generate a transaction stream.
    std::vector<bus::BusTransaction> trace;
    trace.reserve(n);
    {
        Rng rng(9);
        ZipfSampler zipf(1 << 20, 0.8);
        for (std::uint64_t i = 0; i < n; ++i) {
            bus::BusTransaction txn;
            txn.addr = zipf.sample(rng) * 128;
            txn.op = rng.nextBool(0.3) ? bus::BusOp::Rwitm
                                       : bus::BusOp::Read;
            txn.cpu = static_cast<CpuId>(i % 8);
            txn.cycle = 5 * i;
            trace.push_back(txn);
        }
    }

    std::vector<bench::BenchResult> results;
    std::string profile_json; // "\"profile\": {...}" when --profile ran
    auto report = [&results](const char *label, double seconds,
                             double count,
                             std::vector<double> trials = {}) {
        std::printf("%-34s %8.1f M/s  %6.1f ns/ref\n", label,
                    count / seconds / 1e6, seconds / count * 1e9);
        results.push_back({label, seconds, count, std::move(trials)});
    };

    {
        bus::Bus6xx bus;
        ies::MemoriesBoard board(ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU}));
        board.plugInto(bus);

        // Optional telemetry emission; the default (flag absent) keeps
        // the timed loop instrumentation-free, which is the number the
        // real-time claim rests on.
        std::unique_ptr<telemetry::Sampler> sampler;
        std::unique_ptr<telemetry::JsonLinesExporter> jsonl;
        std::unique_ptr<telemetry::CsvExporter> csv;
        if (!args.telemetryDir.empty()) {
            std::filesystem::create_directories(args.telemetryDir);
            sampler = std::make_unique<telemetry::Sampler>(500'000);
            const std::string base =
                args.telemetryDir + "/microbench";
            jsonl = std::make_unique<telemetry::JsonLinesExporter>(
                base + ".jsonl");
            csv = std::make_unique<telemetry::CsvExporter>(base +
                                                           ".csv");
            sampler->addExporter(*jsonl);
            sampler->addExporter(*csv);
            board.attachTelemetry(*sampler);
            bus.attachSampler(*sampler);
        }

        bench::Stopwatch clock;
        for (const auto &txn : trace) {
            bus.advanceTo(txn.cycle);
            bus.issue(txn);
        }
        board.drainAll();
        report("board path (1 node), bus refs", clock.seconds(),
               static_cast<double>(trace.size()));
        if (sampler) {
            bus.detachSampler();
            sampler->finish(bus.now());
            std::printf("  telemetry: %llu windows -> %s.{jsonl,csv}\n",
                        static_cast<unsigned long long>(
                            sampler->windowsEmitted()),
                        (args.telemetryDir + "/microbench").c_str());
        }
    }
    {
        // The feed-path ladder: the same board and stream, fed one
        // tenure at a time (serial), then in 4096-tenure batches.
        // batch_equiv_test proves both produce byte-identical state;
        // this is their price.
        const auto config = ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU});
        static constexpr std::size_t chunk = 4096;
        const auto feed_batches = [&trace](ies::MemoriesBoard &board,
                                           std::size_t refs) {
            for (std::size_t at = 0; at < refs; at += chunk)
                board.feedBatch(&trace[at], std::min(chunk, refs - at));
            board.drainAll();
        };
        {
            ies::MemoriesBoard board(config);
            bench::Stopwatch clock;
            for (const auto &txn : trace)
                board.feedCommitted(txn);
            board.drainAll();
            report("feed serial (feedCommitted)", clock.seconds(),
                   static_cast<double>(trace.size()));
        }
        // The batch rung, and with --profile its IESPROF-instrumented
        // twin: the (profiled) row vs the plain one is the measured-
        // overhead gate (<5%, enforced by check_bench_regression.py on
        // the median of the per-pair ratios). The twins run as
        // interleaved pairs, alternating which goes first, so drift in
        // the machine's speed lands on both sides of every ratio; the
        // pair count is even, so each order runs equally often and a
        // second-run penalty cannot tilt the median.
        const bool profiling = !args.profileDir.empty();
        const std::size_t pairs = profiling ? 12 : 1;
        std::vector<double> plain_s, profiled_s;
        profile::Profiler prof; // keeps the last profiled run
        for (std::size_t pair = 0; pair < pairs; ++pair) {
            for (const bool profiled : {pair % 2 == 1, pair % 2 == 0}) {
                if (profiled && !profiling)
                    continue;
                ies::MemoriesBoard board(config);
                if (profiled) {
                    prof.reset();
                    board.attachProfiler(prof);
                }
                bench::Stopwatch clock;
                feed_batches(board, trace.size());
                (profiled ? profiled_s : plain_s)
                    .push_back(clock.seconds());
            }
        }
        const auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            const std::size_t m = v.size() / 2;
            return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
        };
        const auto report_trials = [&](const char *label,
                                       const std::vector<double> &t) {
            report(label, median(t), static_cast<double>(trace.size()),
                   t.size() > 1 ? t : std::vector<double>{});
        };
        report_trials("feed batch", plain_s);
        if (profiling) {
            report_trials("feed batch (profiled)", profiled_s);
            std::printf("  profiled/plain per pair:");
            for (std::size_t i = 0; i < pairs; ++i)
                std::printf(" %.3f", profiled_s[i] / plain_s[i]);
            std::printf("\n");
            // The stage breakdown of the last profiled run becomes the
            // "profile" object in the JSON artifact.
            std::filesystem::create_directories(args.profileDir);
            const std::string folded =
                args.profileDir + "/microbench_profile.folded";
            profile::writeFoldedFile(prof, folded);
            std::printf("  flamegraph stacks -> %s\n", folded.c_str());
            profile_json =
                "\"profile\": " +
                profile::profileJson(
                    prof, static_cast<std::uint64_t>(trace.size()));
            std::printf("%s", prof.describe().c_str());

            // A short recorder+profiler run for the merged timeline:
            // emulated spans (pids 0/1+) and emulator stage spans
            // (pid 99) in one chrome://tracing file.
            {
                ies::MemoriesBoard board(config);
                trace::FlightRecorder recorder(std::size_t{1} << 16);
                board.attachFlightRecorder(recorder, 0);
                profile::Profiler timeline;
                board.attachProfiler(timeline);
                feed_batches(board, std::min<std::size_t>(trace.size(),
                                                          64 * chunk));
                const std::string merged =
                    args.profileDir + "/microbench_profile.chrome.json";
                profile::writeMergedChromeTraceFile(
                    recorder.snapshot(), timeline, merged, &recorder);
                std::printf("  merged chrome trace -> %s\n",
                            merged.c_str());
            }
        }
    }
    {
        bus::Bus6xx bus;
        ies::MemoriesBoard board(ies::makeMultiConfigBoard(
            {cache::CacheConfig{16 * MiB, 4, 128,
                                cache::ReplacementPolicy::LRU},
             cache::CacheConfig{64 * MiB, 4, 128,
                                cache::ReplacementPolicy::LRU},
             cache::CacheConfig{256 * MiB, 4, 128,
                                cache::ReplacementPolicy::LRU},
             cache::CacheConfig{1 * GiB, 8, 128,
                                cache::ReplacementPolicy::LRU}},
            8));
        board.plugInto(bus);
        bench::Stopwatch clock;
        for (const auto &txn : trace) {
            bus.advanceTo(txn.cycle);
            bus.issue(txn);
        }
        board.drainAll();
        report("board path (4 configs), bus refs", clock.seconds(),
               static_cast<double>(trace.size()));
    }
    {
        // Lifecycle-tracing overhead: the board+bus path again, first
        // with no recorder attached (the one-branch "detached" cost
        // every run now pays) and then with a flight recorder actually
        // recording. The detached number must stay within noise of the
        // plain board path above — the recorder's always-on claim.
        bus::Bus6xx bus;
        ies::MemoriesBoard board(ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU}));
        board.plugInto(bus);
        bench::Stopwatch detached;
        for (const auto &txn : trace) {
            bus.advanceTo(txn.cycle);
            bus.issue(txn);
        }
        board.drainAll();
        report("board path, recorder detached", detached.seconds(),
               static_cast<double>(trace.size()));

        trace::FlightRecorder recorder(std::size_t{1} << 16);
        bus.attachFlightRecorder(recorder);
        board.attachFlightRecorder(recorder, 0);
        bench::Stopwatch attached;
        for (const auto &txn : trace) {
            bus.advanceTo(txn.cycle);
            bus.issue(txn);
        }
        board.drainAll();
        report("board path, recorder attached", attached.seconds(),
               static_cast<double>(trace.size()));
        std::printf("  flight recorder: %llu events recorded, %llu "
                    "retained, %llu overwritten\n",
                    static_cast<unsigned long long>(recorder.recorded()),
                    static_cast<unsigned long long>(recorder.size()),
                    static_cast<unsigned long long>(
                        recorder.overwritten()));
    }
    {
        workload::OltpParams oltp;
        oltp.threads = 8;
        oltp.dbBytes = 256 * MiB;
        workload::OltpWorkload wl(oltp);
        host::HostMachine machine(host::s7aConfig(), wl);
        ies::MemoriesBoard board(ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU}));
        board.plugInto(machine.bus());
        bench::Stopwatch clock;
        machine.run(n);
        board.drainAll();
        report("full stack (workload+host+board), CPU refs",
               clock.seconds(), static_cast<double>(n));
    }
    {
        sim::DetailedParams params;
        params.cache = cache::CacheConfig{64 * MiB, 4, 128,
                                          cache::ReplacementPolicy::LRU};
        sim::DetailedCacheSimulator simulator(params);
        bench::Stopwatch clock;
        for (const auto &txn : trace)
            simulator.process(txn);
        simulator.finish();
        report("detailed simulator, bus refs", clock.seconds(),
               static_cast<double>(trace.size()));
    }

    if (!args.jsonPath.empty()) {
        char config[128];
        std::snprintf(config, sizeof(config),
                      "%llu refs, 64MiB/4-way/128B LRU board, 8 CPUs",
                      static_cast<unsigned long long>(n));
        bench::writeJsonResults(args.jsonPath, "microbench_throughput",
                                config, results, profile_json);
        std::printf("\nJSON results -> %s\n", args.jsonPath.c_str());
    }

    std::printf("\ncontext: the real board retires bus references at "
                "the bus's own pace\n(1e7/s effective at the paper's "
                "load); the software board path runs within\na small "
                "factor of that on one core, which is what makes "
                "scaled paper-shape\nreproductions minutes-long "
                "instead of days-long.\n");
    return 0;
}
