/**
 * @file
 * Ablation: fan-out throughput vs worker count.
 *
 * One committed bus stream is recorded once, then pushed through
 * (a) the serial baseline — a single 4-node multi-configuration board
 * processing all four geometries in lock step, the way the hardware
 * board runs Figure 4 style studies — and (b) an ExperimentFleet of
 * four single-config boards at 1, 2, 4 and 8 workers. Both sides use
 * the identical feedCommitted() replay path, so the comparison
 * isolates the fan-out machinery itself.
 *
 * Reported: streams/sec (full stream replays per second) and the
 * aggregate configs-emulated/sec (streams/sec x 4 configs), with the
 * speedup over the serial baseline. On a multi-core host the 4-worker
 * row is expected to clear 2x.
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

std::vector<cache::CacheConfig>
sweep()
{
    std::vector<cache::CacheConfig> configs;
    for (std::uint64_t mb : {4, 8, 16, 32})
        configs.push_back(cache::CacheConfig{
            mb * MiB, 4, 128, cache::ReplacementPolicy::LRU});
    return configs;
}

/** Record the committed stream of one host run. */
std::vector<bus::BusTransaction>
recordStream(std::uint64_t refs)
{
    struct Recorder final : bus::BusObserver
    {
        std::vector<bus::BusTransaction> events;
        void observeResult(const bus::BusTransaction &txn,
                           bus::SnoopResponse combined) override
        {
            if (bus::isFilteredOp(txn.op) ||
                combined == bus::SnoopResponse::Retry)
                return;
            events.push_back(txn);
        }
    };

    workload::ZipfWorkload wl(8, 8192, 4096, 0.8, 0.3, 17);
    host::HostConfig cfg;
    cfg.l2 = cache::CacheConfig{512 * KiB, 4, 128,
                                cache::ReplacementPolicy::LRU};
    cfg.cyclesPerRef = 6; // the paper's utilization band; no overflow
    host::HostMachine machine(cfg, wl);
    Recorder rec;
    machine.bus().attachObserver(&rec);
    machine.run(refs);
    machine.bus().detachObserver(&rec);
    return rec.events;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::banner("Ablation: multi-config fan-out vs serial lock-step",
                  "one stream, 4 geometries; hardware needs 4 real-time "
                  "runs, the fleet needs 1");

    setLoggingQuiet(true);
    const std::uint64_t refs = args.refsOrDefault(2.0);
    const auto events = recordStream(refs);
    const auto configs = sweep();
    std::printf("committed stream: %zu events (%llu host refs); "
                "%u hardware threads\n\n",
                events.size(), static_cast<unsigned long long>(refs),
                std::thread::hardware_concurrency());

    // Serial baseline: one 4-node multi-config board, lock-step.
    double serial_cps = 0;
    {
        auto board = ies::MemoriesBoard::make(
            ies::makeMultiConfigBoard(configs, 8));
        bench::Stopwatch sw;
        for (const auto &ev : events)
            board->feedCommitted(ev);
        board->drainAll();
        const double secs = sw.seconds();
        const double streams = 1.0 / secs;
        serial_cps = streams * static_cast<double>(configs.size());
        std::printf("%-22s %8.3f streams/s %10.3f configs/s\n",
                    "serial 4-config board", streams, serial_cps);
    }

    for (std::size_t workers : {1u, 2u, 4u, 8u}) {
        // Throughput-oriented options: a replay feed has no liveness
        // concern, so large batches amortize the ring lock and keep
        // each board's working set hot across a long run of events.
        ies::FleetOptions opts;
        opts.ringCapacity = 1u << 17;
        opts.batchSize = 8192;
        ies::ExperimentFleet fleet(opts);
        for (const auto &cfg : configs)
            fleet.addExperiment(ies::makeUniformBoard(1, 8, cfg));
        fleet.start(workers);
        bench::Stopwatch sw;
        for (const auto &ev : events)
            fleet.publish(ev);
        fleet.finish();
        const double secs = sw.seconds();
        const double streams = 1.0 / secs;
        const double cps = streams * static_cast<double>(configs.size());
        char label[32];
        std::snprintf(label, sizeof(label), "fleet %zu worker%s",
                      workers, workers == 1 ? "" : "s");
        std::printf("%-22s %8.3f streams/s %10.3f configs/s  "
                    "(%.2fx serial)\n",
                    label, streams, cps, cps / serial_cps);
    }

    std::printf("\n(streams/s = full-stream replays per second; "
                "configs/s = streams/s x %zu configs emulated)\n",
                configs.size());
    if (std::thread::hardware_concurrency() < 2) {
        std::printf("note: this host exposes a single hardware thread, "
                    "so the worker rows time-slice one core and no\n"
                    "parallel speedup is observable; on a >=4-core host "
                    "the 4-worker row runs the boards concurrently.\n");
    }
    return 0;
}
