/**
 * @file
 * serve_ingest: an in-process IESSERV daemon serving two closed-loop
 * client sessions over AF_UNIX. Each session is paced at 42% like
 * loadtest's, streams its own seeded stream with ServiceClient::feedAll
 * in 256-record feed lines, and reads `stats` after every 64 lines'
 * worth of records. Two client threads plus the two
 * daemon threads serving them make 4 busy threads.
 *
 * Each repetition generates both streams and starts a fresh daemon
 * (set-up), runs both sessions to completion, and stops the daemon.
 * The reference is the in-process golden per session: a console with
 * the same script, feedBatch of the canonical wire stream, drain.
 */

#include <exception>
#include <filesystem>
#include <memory>
#include <thread>

#include <unistd.h>

#include "common.hh"
#include "ies/console.hh"
#include "oracle/stimulus.hh"
#include "probes.hh"
#include "service/daemon.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t sessions = 2;
constexpr std::size_t sessionRefs = 400'000;

std::vector<bus::BusTransaction>
sessionStream(std::uint64_t seed, std::size_t s)
{
    oracle::StimulusParams p;
    p.seed = seed * 1000 + s + 1;
    p.count = sessionRefs;
    p.cpus = 8;
    return oracle::StimulusGen(p).generate();
}

/** One repetition: set-up, both sessions to completion, teardown. */
void
runRep(const Options &opts, const std::string &work, Report &report,
       Tracer *pass, std::vector<std::vector<bus::BusTransaction>> &streams,
       std::vector<std::uint64_t> &sigs)
{
    std::vector<Tracer> tracers;
    for (std::size_t s = 0; s < sessions; ++s)
        tracers.emplace_back(static_cast<std::uint32_t>(s + 1));
    auto tracerOf = [&](std::size_t s) { return pass ? &tracers[s] : nullptr; };

    const std::int64_t setup0 = nowNs();
    for (std::size_t s = 0; s < sessions; ++s) {
        Scope sc(tracerOf(s), "workload.gen");
        streams[s] = sessionStream(opts.seed, s);
        if (pass)
            tracers[s].work("workload.gen", sessionRefs);
    }
    service::DaemonOptions dopts;
    dopts.socketPath = work + "/iesserv.sock";
    dopts.stateDir = work + "/state";
    dopts.maxSessions = sessions;
    auto daemon = std::make_unique<service::Daemon>(dopts);
    {
        Scope sc(tracerOf(0), "service.daemon_start");
        daemon->start();
    }
    if (!pass)
        report.setupS.push_back(secondsSince(setup0));

    std::vector<WireSession> results(sessions);
    {
        std::vector<std::thread> clients;
        for (std::size_t s = 0; s < sessions; ++s)
            clients.emplace_back([&, s] {
                try {
                    results[s] = runWireSession(
                        dopts.socketPath, sessionScript(s), streams[s],
                        tracerOf(s),
                        work + "/session" + std::to_string(s) + ".ckpt");
                } catch (const std::exception &e) {
                    results[s].error = e.what();
                }
            });
        for (auto &t : clients)
            t.join();
    }
    daemon->stop();
    daemon.reset();
    std::filesystem::remove_all(dopts.stateDir);

    double accepted = 0, offered = 0;
    std::string digest;
    for (std::size_t s = 0; s < sessions; ++s) {
        const WireSession &ws = results[s];
        if (pass) {
            pass->absorb(tracers[s]);
        } else {
            if (s == 0) {
                report.feedUs.emplace_back();
                report.queryUs.emplace_back();
            }
            auto &feed = report.feedUs.back();
            auto &query = report.queryUs.back();
            feed.insert(feed.end(), ws.feedUs.begin(), ws.feedUs.end());
            query.insert(query.end(), ws.queryUs.begin(), ws.queryUs.end());
        }
        report.attempted += ws.feedLines + ws.queries + 1;
        report.failed += ws.failedRequests;
        if (!ws.error.empty() || ws.accepted != ws.offered) {
            ++report.failed;
            report.check("session" + std::to_string(s) + "_completed",
                         false, ws.error);
        }
        for (const auto &[refs, secs] : ws.slices)
            report.segments.push_back({refs, secs, pass != nullptr,
                                       static_cast<std::uint32_t>(s)});
        accepted += static_cast<double>(ws.accepted);
        offered += static_cast<double>(ws.offered);
        digest += hex64(streamDigest(streams[s])) + ":" +
                  hex64(ws.signature) + ";";
        if (sigs.size() < sessions)
            sigs.push_back(ws.signature);
    }
    report.values["ies.admit_frac"] = accepted / offered;
    report.repDigests.push_back(digest);
}

} // namespace

void
runServeIngest(const Options &opts, Report &report)
{
    const std::string work = opts.outDir + "/serve-" +
                             std::to_string(::getpid());
    std::filesystem::create_directories(work);

    std::vector<std::vector<bus::BusTransaction>> streams(sessions);
    std::vector<std::uint64_t> sigs;
    repeat(opts, 3, report, [&](Tracer *pass) {
        runRep(opts, work, report, pass, streams, sigs);
    });

    // Reference: the in-process golden of each session's stream.
    for (std::size_t s = 0; s < sessions; ++s) {
        std::vector<double> miss;
        const std::uint64_t golden = goldenSignature(
            sessionScript(s), canonicalStream(streams[s]),
            work + "/golden.ckpt", s == 0 ? &miss : nullptr);
        report.check("session" + std::to_string(s) + "_vs_golden",
                     golden != 0 && golden == sigs[s],
                     "wire " + hex64(sigs[s]) + " golden " + hex64(golden));
        for (std::size_t i = 0; i < miss.size(); ++i)
            report.values["ies.node" + std::to_string(i) + ".miss_ratio"] =
                miss[i];
    }

    if (opts.trace) {
        // Board construction alone: the session script's init, in
        // process, timed three times.
        for (int k = 0; k < 3; ++k) {
            bus::Bus6xx bus;
            ies::Console console(bus);
            const auto script = sessionScript(0);
            for (const auto &line : script) {
                Scope sc(line == "init" ? &report.spans : nullptr,
                         "ies.construct");
                console.execute(line);
            }
        }
        const auto canon = canonicalStream(streams[0]);
        const ProbeInput in = probeInput(canon, 0);
        probeFeedBatch(in, report);
        probeFeedCommitted(in, report);
        probeShard4(in, report);
        probeTagStore(in, report);
        probeProfiler(in, report);
        probeFleet(in, report);
        probeHost(opts.seed, report);
        probeService(streams[0], work, report);
    }
    std::filesystem::remove_all(work);
}

} // namespace perfbench
