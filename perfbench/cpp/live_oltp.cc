/**
 * @file
 * live_oltp: the paper's deployment. An OLTP workload runs on the S7A
 * host model while an ExperimentFleet of four single-node boards (the
 * ladder's rungs) taps its bus live: fleetWorkers (2) fleet workers
 * plus the host thread that produces the tenures.
 *
 * Each repetition builds workload, host and fleet (set-up), runs an
 * untimed warm-up pass, clears host and board counters, and times a
 * measured pass in host slices. The reference runs the same host with
 * a plain capture tap and replays the captured tenures into each rung
 * board alone.
 */

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>

#include "common.hh"
#include "ies/fanout.hh"
#include "probes.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t rungs = 4;
constexpr std::uint64_t segmentSlices = 64;

struct Rep
{
    std::unique_ptr<workload::OltpWorkload> wl;
    std::unique_ptr<host::HostMachine> machine;
    std::unique_ptr<ies::ExperimentFleet> fleet;
    double measuredCpuSeconds = 0; //!< host slices of the measured pass
};

std::uint64_t
hostDigest(const host::HostMachine &m)
{
    const auto st = m.totalStats();
    const auto &bs = m.bus().stats();
    const std::uint64_t w[] = {st.refs,       st.l1Hits,     st.l2Hits,
                               st.l2Misses,   st.l2Upgrades, st.writebacks,
                               st.snoopInvalidations, bs.tenures,
                               bs.memoryOps,  bs.retries};
    return fnv(w, sizeof w);
}

void
runRep(std::uint64_t seed, Report &report, Tracer *tr, Rep &rep)
{
    const std::int64_t setup0 = nowNs();
    {
        Scope sc(tr, "host.construct");
        rep.wl = std::make_unique<workload::OltpWorkload>(oltpParams(seed));
        rep.machine =
            std::make_unique<host::HostMachine>(hostConfig(seed), *rep.wl);
    }
    {
        Scope sc(tr, "ies.construct");
        rep.fleet = std::make_unique<ies::ExperimentFleet>();
        for (std::size_t i = 0; i < rungs; ++i)
            rep.fleet->addExperiment(ladderRungBoard(i), 1);
    }
    if (!tr)
        report.setupS.push_back(secondsSince(setup0));

    host::HostMachine &machine = *rep.machine;
    ies::ExperimentFleet &fleet = *rep.fleet;
    fleet.attach(machine.bus());
    fleet.start(fleetWorkers);
    machine.run(liveWarmRefs);
    fleet.finish();
    for (std::size_t i = 0; i < rungs; ++i)
        fleet.board(i).clearCounters();
    machine.clearStats();

    fleet.attach(machine.bus());
    fleet.start(fleetWorkers);
    if (!tr)
        report.feedUs.emplace_back();
    std::uint64_t req = 0;
    {
        Scope pass(tr, "workload.pass");
        for (std::uint64_t done = 0; done < liveMeasuredRefs;) {
            const std::int64_t t0 = nowNs();
            const std::uint64_t published0 = fleet.eventsPublished();
            for (std::uint64_t k = 0;
                 k < segmentSlices && done < liveMeasuredRefs; ++k) {
                const std::uint64_t n =
                    std::min(liveSliceRefs, liveMeasuredRefs - done);
                const std::int64_t s0 = nowNs();
                {
                    Scope sc(tr, "host.run_tapped", ++req);
                    machine.run(n);
                }
                const double us = static_cast<double>(nowNs() - s0) / 1e3;
                if (!tr) {
                    report.feedUs.back().push_back(us);
                    rep.measuredCpuSeconds += us * 1e-6;
                }
                ++report.attempted;
                done += n;
            }
            if (done >= liveMeasuredRefs) {
                Scope sc(tr, "fanout.finish");
                fleet.finish();
            }
            report.segments.push_back(
                {static_cast<double>(fleet.eventsPublished() - published0),
                 secondsSince(t0), tr != nullptr});
        }
    }
    if (tr)
        tr->work("host.run_tapped", static_cast<double>(liveMeasuredRefs));

    std::uint64_t h = hostDigest(machine);
    double consumed = 0, dropped = 0, stalls = 0;
    for (std::size_t i = 0; i < rungs; ++i) {
        h = fnv(hex64(counterDigest(fleet.board(i))), h);
        consumed += static_cast<double>(fleet.eventsConsumed(i));
        dropped += static_cast<double>(fleet.overflowDrops(i));
        stalls += static_cast<double>(fleet.backpressureStalls(i));
        if (fleet.overflowDrops(i) > 0)
            ++report.failed;
        report.values["ies.node" + std::to_string(i) + ".miss_ratio"] =
            fleet.board(i).node(0).stats().missRatio();
    }
    report.attempted += rungs;
    report.repDigests.push_back(hex64(h));
    report.values["ies.admit_frac"] = (consumed - dropped) / consumed;
    if (!tr)
        report.values["fanout.backpressure_stalls"] = stalls;
}

} // namespace

void
runLiveOltp(const Options &opts, Report &report)
{
    Rep last;
    std::vector<double> liveNsPerCpuRef;
    repeat(opts, 2, report, [&](Tracer *tr) {
        last = Rep{};
        runRep(opts.seed, report, tr, last);
        if (!tr)
            liveNsPerCpuRef.push_back(last.measuredCpuSeconds /
                                      liveMeasuredRefs * 1e9);
    });

    std::vector<std::uint64_t> fleetFull(rungs);
    std::vector<double> consumed(rungs);
    for (std::size_t i = 0; i < rungs; ++i) {
        fleetFull[i] = fullDigest(last.fleet->board(i));
        consumed[i] = static_cast<double>(last.fleet->eventsConsumed(i));
    }
    const std::uint64_t liveHost = hostDigest(*last.machine);
    last = Rep{};

    // Reference: the same host with a plain capture tap, then each rung
    // board replaying the captured tenures alone.
    CaptureTap tap;
    std::size_t warmTenures = 0;
    {
        workload::OltpWorkload wl(oltpParams(opts.seed));
        host::HostMachine machine(hostConfig(opts.seed), wl);
        machine.bus().attachObserver(&tap);
        machine.run(liveWarmRefs);
        warmTenures = tap.tenures.size();
        machine.clearStats();
        machine.run(liveMeasuredRefs);
        machine.bus().detachObserver(&tap);
        const bool same = hostDigest(machine) == liveHost;
        report.check("live_host_unperturbed", same,
                     same ? "" : "host counters with the fleet attached "
                                 "differ from the capture run");
    }
    const ProbeInput all =
        probeInput(tap.tenures, warmTenures, tap.tenures.size());
    std::vector<std::uint64_t> want(rungs);
    std::vector<double> nsPerRef(rungs);
    std::vector<std::string> errors(rungs);
    auto replayRung = [&](std::size_t i) {
        try {
            auto board = ies::MemoriesBoard::make(ladderRungBoard(i));
            const std::int64_t t0 = nowNs();
            serialReplay(*board, all, nullptr, "");
            nsPerRef[i] =
                secondsSince(t0) / static_cast<double>(all.end) * 1e9;
            want[i] = fullDigest(*board);
        } catch (const std::exception &e) {
            errors[i] = e.what();
        }
    };
    if (opts.trace) {
        // One at a time, so each board's timing is its own.
        for (std::size_t i = 0; i < rungs; ++i)
            replayRung(i);
    } else {
        std::vector<std::thread> replays;
        for (std::size_t i = 0; i < rungs; ++i)
            replays.emplace_back(replayRung, i);
        for (auto &t : replays)
            t.join();
    }
    double worst = 0;
    std::vector<double> load(rungs);
    for (std::size_t i = 0; i < rungs; ++i) {
        worst = std::max(worst, nsPerRef[i]);
        load[i] = nsPerRef[i] * consumed[i];
        report.check("live_board" + std::to_string(i) + "_vs_replay",
                     errors[i].empty() && want[i] == fleetFull[i],
                     errors[i].empty() ? "fleet " + hex64(fleetFull[i]) +
                                             " replay " + hex64(want[i])
                                       : errors[i]);
    }

    if (opts.trace) {
        report.values["fanout.board_ns_per_ref.max"] = worst;
        report.values["fanout.worker_load.max_over_mean"] =
            workerLoadSkew(load);

        // The generator alone: the OLTP reference stream without host.
        {
            workload::OltpWorkload wl(oltpParams(opts.seed));
            constexpr std::uint64_t genRefs = 2'000'000;
            std::uint64_t sink = 0;
            {
                Scope sc(&report.spans, "workload.gen");
                for (std::uint64_t i = 0; i < genRefs; ++i)
                    sink += wl.next(static_cast<unsigned>(i % 8)).addr;
            }
            report.spans.work("workload.gen", genRefs);
            // Reported so the generation loop cannot be optimized away.
            report.values["probe.gen.checksum"] =
                static_cast<double>(sink % 1000003);
        }
        const ProbeInput in = probeInput(tap.tenures, warmTenures);
        probeFeedBatch(in, report);
        probeFeedCommitted(in, report);
        probeShard4(in, report);
        probeTagStore(in, report);
        probeProfiler(in, report);
        probeHost(opts.seed, report);
        report.values["fanout.overhead_frac"] =
            median(liveNsPerCpuRef) /
                report.values["probe.host.ns_per_cpu_ref"] -
            1;
        probeService(tap.tenures, opts.outDir, report);
    }
}

} // namespace perfbench
