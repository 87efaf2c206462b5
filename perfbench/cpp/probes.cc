/**
 * @file
 * Layer probes, the live host settings, and the IESSERV client loop.
 */

#include "probes.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "bus/busop.hh"
#include "cache/tagstore.hh"
#include "ies/console.hh"
#include "ies/fanout.hh"
#include "profile/profiler.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/session.hh"
#include "service/wire.hh"
#include "trace/record.hh"

namespace perfbench
{

ProbeInput
probeInput(const std::vector<bus::BusTransaction> &s, std::size_t warm,
           std::size_t cap)
{
    ProbeInput in;
    in.stream = &s;
    in.warm = std::min(warm, s.size());
    in.end = std::min(s.size(), in.warm + cap);
    return in;
}

workload::OltpParams
oltpParams(std::uint64_t seed)
{
    workload::OltpParams p;
    p.threads = 8;
    p.writeFrac = 0.25;
    p.sharedFrac = 0.35;
    p.dbBytes = 2 * GiB;
    p.seed = seed;
    return p;
}

host::HostConfig
hostConfig(std::uint64_t seed)
{
    host::HostConfig c = host::s7aConfig();
    c.seed = seed;
    return c;
}

double
workerLoadSkew(const std::vector<double> &boardLoad)
{
    std::vector<double> load(fleetWorkers, 0);
    double total = 0;
    for (std::size_t i = 0; i < boardLoad.size(); ++i) {
        load[i % fleetWorkers] += boardLoad[i];
        total += boardLoad[i];
    }
    return *std::max_element(load.begin(), load.end()) /
           (total / static_cast<double>(fleetWorkers));
}

void
CaptureTap::observeResult(const bus::BusTransaction &txn,
                          bus::SnoopResponse combined)
{
    if (bus::isFilteredOp(txn.op) || combined == bus::SnoopResponse::Retry)
        return;
    tenures.push_back(txn);
}

void
serialReplay(ies::MemoriesBoard &board, const ProbeInput &in,
             Tracer *tracer, const char *span)
{
    const auto &s = *in.stream;
    for (std::size_t i = 0; i < in.warm; ++i)
        board.feedCommitted(s[i]);
    board.drainAll();
    board.clearCounters();
    for (std::size_t at = in.warm; at < in.end; at += 4096) {
        const std::size_t stop = std::min(in.end, at + 4096);
        Scope sc(tracer, span);
        for (std::size_t i = at; i < stop; ++i)
            board.feedCommitted(s[i]);
        if (tracer)
            tracer->work(span, static_cast<double>(stop - at));
    }
    board.drainAll();
}

void
probeFeedBatch(const ProbeInput &in, Report &report)
{
    auto board = ies::MemoriesBoard::make(ladderBoard());
    feedBatches(*board, *in.stream, 0, in.warm);
    board->drainAll();
    board->clearCounters();
    feedBatches(*board, *in.stream, in.warm, in.end, &report.spans,
                "ies.feed_batch");
    Scope sc(&report.spans, "ies.drain_all");
    board->drainAll();
}

void
probeFeedCommitted(const ProbeInput &in, Report &report)
{
    auto board = ies::MemoriesBoard::make(ladderBoard());
    serialReplay(*board, in, &report.spans, "ies.feed_committed");
}

void
probeShard4(const ProbeInput &in, Report &report)
{
    auto board = ies::MemoriesBoard::make(ladderBoard());
    board->enableSharding(4);
    feedBatches(*board, *in.stream, 0, in.warm);
    board->drainAll();
    feedBatches(*board, *in.stream, in.warm, in.end, &report.spans,
                "ies.feed_batch_shard4");
    board->drainAll();
}

void
probeTagStore(const ProbeInput &in, Report &report)
{
    Tracer *tr = &report.spans;
    cache::TagStore store(ladderCaches()[3]);
    const auto &s = *in.stream;
    auto access = [&](const bus::BusTransaction &t) {
        if (!store.lookup(t.addr).hit)
            store.allocate(t.addr, 1);
    };
    for (std::size_t i = 0; i < in.warm; ++i)
        access(s[i]);
    for (std::size_t at = in.warm; at < in.end; at += 4096) {
        const std::size_t stop = std::min(in.end, at + 4096);
        Scope sc(tr, "cache.tagstore.access");
        for (std::size_t i = at; i < stop; ++i)
            access(s[i]);
    }
    tr->work("cache.tagstore.access",
             static_cast<double>(in.end - in.warm));
}

void
probeProfiler(const ProbeInput &in, Report &report)
{
    auto board = ies::MemoriesBoard::make(ladderBoard());
    feedBatches(*board, *in.stream, 0, in.warm);
    board->drainAll();
    profile::Profiler prof;
    board->attachProfiler(prof);
    feedBatches(*board, *in.stream, in.warm, in.end, &report.spans,
                "prof.feed_batch");
    const auto snap = prof.snapshot();
    using profile::Stage;
    report.values["prof.est_ns.feed_batch"] =
        static_cast<double>(snap.stage(Stage::FeedBatch).estNs());
    report.values["prof.est_ns.batch_admission"] =
        static_cast<double>(snap.stage(Stage::BatchAdmission).estNs());
    report.values["prof.est_ns.credit_pacing"] =
        static_cast<double>(snap.stage(Stage::CreditPacing).estNs());
    board->detachProfiler();
    board->drainAll();
}

void
probeFleet(const ProbeInput &in, Report &report)
{
    Tracer *tr = &report.spans;
    const std::size_t rungs = ladderCaches().size();
    std::vector<double> lone(rungs);
    for (std::size_t i = 0; i < rungs; ++i) {
        auto board = ies::MemoriesBoard::make(ladderRungBoard(i));
        const std::int64_t t0 = nowNs();
        serialReplay(*board, in, nullptr, "");
        lone[i] = secondsSince(t0);
    }
    ies::ExperimentFleet fleet;
    for (std::size_t i = 0; i < rungs; ++i)
        fleet.addExperiment(ladderRungBoard(i), 1);
    const auto &s = *in.stream;
    const std::int64_t t0 = nowNs();
    {
        Scope sc(tr, "fanout.offline_replay");
        fleet.start(fleetWorkers);
        for (std::size_t i = 0; i < in.warm; ++i)
            fleet.publish(s[i]);
        fleet.finish();
        for (std::size_t i = 0; i < rungs; ++i)
            fleet.board(i).clearCounters();
        fleet.start(fleetWorkers);
        for (std::size_t i = in.warm; i < in.end; ++i)
            fleet.publish(s[i]);
        fleet.finish();
    }
    const double fleetS = secondsSince(t0);
    double stalls = 0, worst = 0;
    for (std::size_t i = 0; i < rungs; ++i) {
        stalls += static_cast<double>(fleet.backpressureStalls(i));
        worst = std::max(worst, lone[i]);
    }
    const double refs = static_cast<double>(in.end);
    report.values["fanout.overhead_frac"] = fleetS / worst - 1;
    report.values["fanout.backpressure_stalls"] = stalls;
    report.values["fanout.board_ns_per_ref.max"] = worst / refs * 1e9;
    report.values["fanout.worker_load.max_over_mean"] = workerLoadSkew(lone);
}

void
probeHost(std::uint64_t seed, Report &report)
{
    Tracer *tr = &report.spans;
    workload::OltpWorkload wl(oltpParams(seed));
    host::HostMachine machine(hostConfig(seed), wl);
    machine.run(liveWarmRefs);
    machine.clearStats();
    const std::int64_t t0 = nowNs();
    for (std::uint64_t done = 0; done < liveMeasuredRefs;) {
        const std::uint64_t n =
            std::min(liveSliceRefs, liveMeasuredRefs - done);
        Scope sc(tr, "host.run");
        machine.run(n);
        done += n;
    }
    report.values["probe.host.ns_per_cpu_ref"] =
        secondsSince(t0) / liveMeasuredRefs * 1e9;
    tr->work("host.run", static_cast<double>(liveMeasuredRefs));
    const auto st = machine.totalStats();
    report.values["host.l2_miss_ratio"] =
        static_cast<double>(st.l2Misses) / static_cast<double>(st.refs);
    report.values["bus.tenures_per_cpu_ref"] =
        static_cast<double>(machine.bus().stats().tenures) /
        static_cast<double>(st.refs);
}

std::vector<std::string>
sessionScript(std::size_t variant)
{
    // loadtest's shape (paced at 42%, small node caches, a shallow
    // buffer) on four nodes of two CPUs each, so the board has the
    // same node count as the ladder.
    const std::string size = variant % 2 == 0 ? "2MB" : "4MB";
    std::vector<std::string> script;
    for (int n = 0; n < 4; ++n) {
        script.push_back("node " + std::to_string(n) + " cache " + size +
                         " 4 128B LRU");
        script.push_back("node " + std::to_string(n) + " cpus " +
                         std::to_string(2 * n) + "," +
                         std::to_string(2 * n + 1));
    }
    script.push_back(variant % 2 == 0 ? "buffer 64" : "buffer 128");
    script.push_back("throughput 42");
    script.push_back("init");
    return script;
}

namespace
{

std::string
chomp(std::string text)
{
    if (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::uint64_t
signatureOf(const std::string &counters, const std::string &stats,
            const std::string &ckptPath)
{
    const std::string bytes = readFileBytes(ckptPath);
    std::remove(ckptPath.c_str());
    std::uint64_t h = fnv(counters);
    h = fnv(stats, h);
    return bytes.empty() ? 0 : fnv(bytes, h);
}

} // namespace

std::vector<bus::BusTransaction>
canonicalStream(const std::vector<bus::BusTransaction> &txns)
{
    std::vector<bus::BusTransaction> out;
    out.reserve(txns.size());
    Cycle prev = 0;
    for (const auto &txn : txns) {
        const auto rec = trace::BusRecord::pack(txn, prev);
        prev = txn.cycle;
        out.push_back(rec.unpack(out.empty() ? 0 : out.back().cycle));
    }
    return out;
}

std::uint64_t
goldenSignature(const std::vector<std::string> &script,
                const std::vector<bus::BusTransaction> &canon,
                const std::string &ckptPath,
                std::vector<double> *missRatios)
{
    bus::Bus6xx bus;
    ies::Console console(bus);
    for (const auto &line : script)
        if (console.execute(line).rfind("error:", 0) == 0)
            return 0;
    console.board()->feedBatch(canon);
    console.board()->drainAll();
    if (missRatios)
        for (std::size_t i = 0; i < console.board()->numNodes(); ++i)
            missRatios->push_back(
                console.board()->node(i).stats().missRatio());
    const std::string counters = chomp(console.execute("counters"));
    const std::string stats = chomp(console.execute("stats"));
    console.execute("save-state " + ckptPath);
    return signatureOf(counters, stats, ckptPath);
}

WireSession
runWireSession(const std::string &socket,
               const std::vector<std::string> &script,
               const std::vector<bus::BusTransaction> &txns, Tracer *tr,
               const std::string &ckptPath)
{
    WireSession ws;
    ws.offered = txns.size();
    std::vector<std::vector<bus::BusTransaction>> chunks;
    for (std::size_t at = 0; at < txns.size(); at += sliceRecords)
        chunks.emplace_back(
            txns.begin() + static_cast<std::ptrdiff_t>(at),
            txns.begin() + static_cast<std::ptrdiff_t>(
                               std::min(txns.size(), at + sliceRecords)));

    service::ServiceClient client;
    {
        Scope sc(tr, "service.connect");
        if (!client.connect(socket, 5000)) {
            ws.error = "connect failed";
            return ws;
        }
    }
    for (const auto &line : script) {
        Scope sc(tr, "service.configure");
        if (!client.exec(line).ok) {
            ws.error = "config rejected: " + line;
            return ws;
        }
    }

    const std::int64_t start = nowNs();
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        const std::int64_t t0 = nowNs();
        service::FeedTotals fed;
        {
            Scope sc(tr, "service.feed_all", c + 1);
            fed = client.feedAll(chunks[c], feedLineRecords, &ws.feedUs);
        }
        ws.accepted += fed.accepted;
        ws.feedLines += fed.feedLines;
        if (fed.accepted != fed.offered) {
            ++ws.failedRequests;
            ws.error = "feed stopped at record " +
                       std::to_string(ws.accepted) + " of " +
                       std::to_string(ws.offered);
            break;
        }
        if ((c + 1) % slicesPerQuery == 0) {
            const std::int64_t q0 = nowNs();
            service::Reply stats;
            {
                Scope sc(tr, "service.query", ws.queries + 1);
                stats = client.exec("stats");
            }
            ws.queryUs.push_back(static_cast<double>(nowNs() - q0) / 1e3);
            ++ws.queries;
            if (!stats.ok)
                ++ws.failedRequests;
        }
        ws.slices.push_back(
            {static_cast<double>(fed.accepted), secondsSince(t0)});
    }
    {
        Scope sc(tr, "service.drain");
        if (!client.exec("drain").ok) {
            ++ws.failedRequests;
            ws.error = "drain failed";
        }
    }
    ws.seconds = secondsSince(start);

    const std::string counters = chomp(client.exec("counters").text());
    const std::string stats = chomp(client.exec("stats").text());
    if (!client.exec("save-state " + ckptPath).ok)
        ws.error = "save-state failed";
    ws.signature = signatureOf(counters, stats, ckptPath);
    return ws;
}

namespace
{

/** Hex tokens of @p txns as feedAll packs them, chained from cycle 0. */
std::vector<std::string>
packHex(const std::vector<bus::BusTransaction> &txns)
{
    std::vector<std::string> hex;
    hex.reserve(txns.size());
    Cycle prev = 0;
    for (const auto &txn : txns) {
        hex.push_back(service::encodeRecordHex(
            trace::BusRecord::pack(txn, prev).raw));
        prev = txn.cycle;
    }
    return hex;
}

std::string
feedLine(const std::vector<std::string> &hex, std::size_t at,
         std::size_t n)
{
    std::string line = "feed";
    for (std::size_t i = at; i < at + n; ++i) {
        line += ' ';
        line += hex[i];
    }
    return line;
}

} // namespace

void
probeService(const std::vector<bus::BusTransaction> &stream,
             const std::string &workDir, Report &report)
{
    Tracer *tr = &report.spans;
    constexpr std::size_t prefix = 100'000;
    const std::vector<bus::BusTransaction> txns(
        stream.begin(),
        stream.begin() + static_cast<std::ptrdiff_t>(
                             std::min(prefix, stream.size())));
    const auto script = sessionScript(0);

    // Client packing alone: what feedAll does before its first line
    // goes out (pack, hex-encode, assemble 256-record feed lines).
    {
        constexpr int passes = 3;
        const double records = passes * static_cast<double>(txns.size());
        std::size_t bytes = 0;
        for (int k = 0; k < passes; ++k) {
            Scope sc(tr, "service.client_pack");
            const auto hex = packHex(txns);
            for (std::size_t at = 0; at < hex.size(); at += feedLineRecords) {
                const std::size_t n =
                    std::min(feedLineRecords, hex.size() - at);
                bytes += feedLine(hex, at, n).size();
            }
        }
        tr->work("service.client_pack", records);
        // Reported so the packing loop cannot be optimized away.
        report.values["probe.pack.bytes_per_record"] =
            static_cast<double>(bytes) / records;
    }

    service::DaemonOptions options;
    options.socketPath = workDir + "/probe.sock";
    options.stateDir = workDir + "/probe-state";
    options.maxSessions = 2;
    service::Daemon daemon(options);
    daemon.start();

    // Round trip of a trivial request on its own connection.
    {
        service::ServiceClient client;
        if (client.connect(options.socketPath, 5000)) {
            for (const auto &line : script)
                client.exec(line);
            for (int i = 0; i < 500; ++i) {
                Scope sc(tr, "service.rtt");
                client.exec("stream status");
            }
        }
    }
    const WireSession ws = runWireSession(options.socketPath, script, txns,
                                          tr, workDir + "/probe-session.ckpt");
    daemon.stop();
    std::filesystem::remove_all(options.stateDir);
    report.check("service_probe_session", ws.error.empty() &&
                                              ws.accepted == ws.offered,
                 ws.error);

    // Session::execute, timed line by line in process. feedAll does not
    // hand back its feed lines, so this loop builds them as it does:
    // 256-record lines cut at the same feedAll-call boundaries, re-sending
    // the tail a paced session did not admit. Admission depends only on
    // the records' cycles, so lines and admissions equal the wire
    // session's; the check below compares their counts. The admitted
    // chunk sizes then drive the board-alone replay.
    service::SessionOptions sopts;
    sopts.stateDir = workDir + "/probe-state";
    std::vector<std::size_t> fedCounts;
    std::uint64_t lines = 0, sent = 0, accepted = 0;
    std::string error;
    {
        service::Session session(sopts, "probe");
        for (const auto &line : script)
            session.execute(line);
        const auto hex = packHex(txns);
        for (std::size_t chunk = 0; chunk < hex.size() && error.empty();
             chunk += sliceRecords) {
            const std::size_t chunkEnd =
                std::min(hex.size(), chunk + sliceRecords);
            int zeroProgress = 0;
            for (std::size_t next = chunk; next < chunkEnd;) {
                const std::size_t n =
                    std::min(feedLineRecords, chunkEnd - next);
                const std::string line = feedLine(hex, next, n);
                std::string reply;
                {
                    Scope sc(tr, "service.session_exec", lines + 1);
                    reply = session.execute(line);
                }
                ++lines;
                sent += n;
                unsigned long long fed = 0, acc = 0, of = 0;
                if (std::sscanf(reply.c_str(),
                                "fed %llu accepted %llu of %llu", &fed,
                                &acc, &of) != 3 ||
                    fed > n) {
                    error = "in-process feed failed: " + reply;
                    break;
                }
                accepted += acc;
                if (fed == 0 && ++zeroProgress > 10000) {
                    error = "in-process feed made no progress";
                    break;
                }
                if (fed > 0) {
                    zeroProgress = 0;
                    next += fed;
                    fedCounts.push_back(fed);
                }
            }
        }
        tr->work("service.session_exec", static_cast<double>(accepted));
        session.execute("drain");
        for (int i = 0; i < 200; ++i) {
            Scope sc(tr, "service.query_exec");
            session.execute("stats");
        }
    }
    const bool same = error.empty() && lines == ws.feedLines &&
                      accepted == ws.accepted;
    report.check("service_inprocess_matches_wire", same,
                 same ? ""
                      : error + " in-process " + std::to_string(lines) +
                            " lines " + std::to_string(accepted) +
                            " accepted, wire " +
                            std::to_string(ws.feedLines) + " lines " +
                            std::to_string(ws.accepted) + " accepted");

    // The board alone, fed in the chunks the session admitted.
    {
        const auto canon = canonicalStream(txns);
        bus::Bus6xx bus;
        ies::Console console(bus);
        for (const auto &line : script)
            console.execute(line);
        std::size_t at = 0;
        for (std::size_t fed : fedCounts) {
            Scope sc(tr, "service.board_feed");
            console.board()->feedBatch(&canon[at], fed);
            at += fed;
        }
        tr->work("service.board_feed", static_cast<double>(at));
        console.board()->drainAll();
    }

    const double refs = static_cast<double>(ws.accepted);
    report.values["service.feed_lines_per_kref"] =
        static_cast<double>(ws.feedLines) / refs * 1e3;
    report.values["service.resend_frac"] =
        static_cast<double>(sent - ws.offered) / static_cast<double>(sent);
    double queryS = 0;
    for (double us : ws.queryUs)
        queryS += us * 1e-6;
    report.values["service.wire_ns_per_ref"] =
        (ws.seconds - queryS) / refs * 1e9;
}

} // namespace perfbench
