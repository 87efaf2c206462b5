/**
 * @file
 * IESSERV load harness: N concurrent clients x M board configs
 * against one daemon, measuring per-request ingest latency (p50/p99)
 * and aggregate accepted refs/s over the real wire protocol.
 *
 * Two timed phases share one run so the gates are runner-speed
 * independent: a solo client first (the single-session baseline),
 * then the full fleet. check_bench_regression.py compares fleet vs
 * solo throughput and p99 vs p50 within this run — see
 * bench/BENCH_service.baseline.json and docs/SERVICE.md.
 *
 * Usage: loadtest [--clients=N] [--configs=M] [--refs=F(millions per
 *        client)] [--batch=B] [--socket=PATH (attach to an external
 *        daemon instead of an in-process one)] [--json=FILE]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/benchutil.hh"
#include "oracle/stimulus.hh"
#include "service/client.hh"
#include "service/daemon.hh"

namespace
{

using namespace memories;

struct LoadArgs
{
    std::size_t clients = 8;
    std::size_t configs = 2;
    std::size_t batch = 256;
    double refsMillions = 0.05; //!< per client
    std::string socketPath;     //!< empty = own in-process daemon
    std::string jsonPath;

    static LoadArgs
    parse(int argc, char **argv)
    {
        LoadArgs args;
        for (int i = 1; i < argc; ++i) {
            if (std::strncmp(argv[i], "--clients=", 10) == 0)
                args.clients = std::strtoull(argv[i] + 10, nullptr, 10);
            else if (std::strncmp(argv[i], "--configs=", 10) == 0)
                args.configs = std::strtoull(argv[i] + 10, nullptr, 10);
            else if (std::strncmp(argv[i], "--batch=", 8) == 0)
                args.batch = std::strtoull(argv[i] + 8, nullptr, 10);
            else if (std::strncmp(argv[i], "--refs=", 7) == 0)
                args.refsMillions = std::strtod(argv[i] + 7, nullptr);
            else if (std::strncmp(argv[i], "--socket=", 9) == 0)
                args.socketPath = argv[i] + 9;
            else if (std::strncmp(argv[i], "--json=", 7) == 0)
                args.jsonPath = argv[i] + 7;
            else {
                std::fprintf(stderr,
                             "unknown option %s\n"
                             "usage: %s [--clients=N] [--configs=M] "
                             "[--refs=F] [--batch=B] [--socket=PATH] "
                             "[--json=FILE]\n",
                             argv[i], argv[0]);
                std::exit(2);
            }
        }
        if (args.clients == 0)
            args.clients = 1;
        if (args.configs == 0)
            args.configs = 1;
        if (args.batch == 0)
            args.batch = 1;
        return args;
    }
};

/** The M board shapes, cycled across the client fleet. */
std::vector<std::string>
configLines(std::size_t variant)
{
    // Vary cache size and buffer depth; all stay in-rate at 42%.
    const char *cache = variant % 2 == 0 ? "2MB" : "4MB";
    const std::string buffer =
        "buffer " + std::to_string(variant % 4 < 2 ? 64 : 128);
    return {
        std::string("node 0 cache ") + cache + " 4 128B LRU",
        "node 0 cpus 0,1,2,3",
        std::string("node 1 cache ") + cache + " 4 128B LRU",
        "node 1 cpus 4,5,6,7",
        buffer,
        "throughput 42",
        "init",
    };
}

struct ClientResult
{
    service::FeedTotals totals;
    std::vector<double> latenciesUs;
    std::string error;
};

/** One full session: connect, configure, stream, drain. */
ClientResult
runClient(const std::string &socket, std::size_t variant,
          std::uint64_t seed, std::uint64_t refs, std::size_t batch)
{
    ClientResult r;
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = refs;
    const auto txns = oracle::StimulusGen(p).generate();

    service::ServiceClient client;
    if (!client.connect(socket, /*retry_ms=*/5000)) {
        r.error = "connect failed";
        return r;
    }
    for (const auto &line : configLines(variant)) {
        const auto reply = client.exec(line);
        if (!reply.ok) {
            r.error = "config rejected: " + line;
            return r;
        }
    }
    r.totals = client.feedAll(txns, batch, &r.latenciesUs);
    if (r.totals.accepted != r.totals.offered)
        r.error = "accepted " + std::to_string(r.totals.accepted) +
                  " of " + std::to_string(r.totals.offered);
    else if (!client.exec("drain").ok)
        r.error = "drain failed";
    return r;
}

double
percentile(std::vector<double> sorted, double pct)
{
    if (sorted.empty())
        return 0;
    const auto idx = static_cast<std::size_t>(
        pct / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    const LoadArgs args = LoadArgs::parse(argc, argv);
    const std::uint64_t refs =
        static_cast<std::uint64_t>(args.refsMillions * 1e6);

    bench::banner(
        "IESSERV load test: concurrent emulation-as-a-service ingest",
        "MemorIES boards emulate in real time while the host runs; "
        "the service front-end must hold that rate per tenant");

    // An external daemon (--socket) or our own on a unique path,
    // whose socket and state directory go when main returns.
    struct OwnDaemon
    {
        std::unique_ptr<service::Daemon> daemon;
        std::string stateDir;
        ~OwnDaemon()
        {
            if (!daemon)
                return;
            daemon->stop(); // unlinks the socket
            std::error_code ec;
            std::filesystem::remove_all(stateDir, ec);
        }
    } own;
    std::unique_ptr<service::Daemon> &daemon = own.daemon;
    std::string socket = args.socketPath;
    if (socket.empty()) {
        service::DaemonOptions options;
        const std::string stem =
            "/tmp/iesserv-load-" + std::to_string(::getpid());
        options.socketPath = stem + ".sock";
        options.stateDir = stem + "-state";
        options.maxSessions = args.clients + 1;
        own.stateDir = options.stateDir;
        daemon = std::make_unique<service::Daemon>(options);
        daemon->start();
        socket = options.socketPath;
    }
    std::printf("daemon: %s\n", socket.c_str());
    std::printf("fleet: %zu clients x %zu configs, %.0fk refs/client, "
                "batch %zu\n\n",
                args.clients, args.configs,
                static_cast<double>(refs) / 1000.0, args.batch);

    std::vector<bench::BenchResult> sections;

    // Phase 1: solo baseline — one session, no concurrency.
    bench::Stopwatch soloWatch;
    const ClientResult solo =
        runClient(socket, 0, /*seed=*/900, refs, args.batch);
    const double soloSeconds = soloWatch.seconds();
    if (!solo.error.empty()) {
        std::fprintf(stderr, "solo client failed: %s\n",
                     solo.error.c_str());
        return 1;
    }
    sections.push_back({"ingest solo", soloSeconds,
                        static_cast<double>(solo.totals.accepted), {}});
    std::printf("solo: %llu refs in %.3fs = %.0f refs/s "
                "(%llu feed lines)\n",
                static_cast<unsigned long long>(solo.totals.accepted),
                soloSeconds, sections.back().eventsPerSec(),
                static_cast<unsigned long long>(solo.totals.feedLines));

    // Phase 2: the fleet, one thread per client.
    std::vector<ClientResult> results(args.clients);
    bench::Stopwatch fleetWatch;
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < args.clients; ++i)
        threads.emplace_back([&, i] {
            results[i] = runClient(socket, i % args.configs,
                                   /*seed=*/1000 + i, refs, args.batch);
        });
    for (auto &t : threads)
        t.join();
    const double fleetSeconds = fleetWatch.seconds();

    std::uint64_t accepted = 0, feedLines = 0;
    std::size_t sustained = 0;
    std::vector<double> latencies;
    for (std::size_t i = 0; i < args.clients; ++i) {
        const ClientResult &r = results[i];
        if (!r.error.empty()) {
            std::fprintf(stderr, "client %zu failed: %s\n", i,
                         r.error.c_str());
            continue;
        }
        ++sustained;
        accepted += r.totals.accepted;
        feedLines += r.totals.feedLines;
        latencies.insert(latencies.end(), r.latenciesUs.begin(),
                         r.latenciesUs.end());
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 50);
    const double p99 = percentile(latencies, 99);

    sections.push_back({"ingest fleet", fleetSeconds,
                        static_cast<double>(accepted), {}});
    std::printf("fleet: %zu/%zu sessions sustained, %llu refs in "
                "%.3fs = %.0f refs/s aggregate\n",
                sustained, args.clients,
                static_cast<unsigned long long>(accepted), fleetSeconds,
                sections.back().eventsPerSec());
    std::printf("ingest latency over %zu feed requests: p50 %.1f us, "
                "p99 %.1f us\n",
                latencies.size(), p50, p99);

    if (daemon) {
        std::printf("daemon totals: %llu sessions, %llu requests, "
                    "%llu refs accepted\n",
                    static_cast<unsigned long long>(
                        daemon->sessionsOpened()),
                    static_cast<unsigned long long>(
                        daemon->requestsServed()),
                    static_cast<unsigned long long>(
                        daemon->refsAccepted()));
        daemon->stop();
    }

    if (!args.jsonPath.empty()) {
        char extra[512];
        std::snprintf(
            extra, sizeof extra,
            "\"service\": {\"clients\": %zu, \"configs\": %zu, "
            "\"batch\": %zu, \"refs_per_client\": %llu, "
            "\"sessions_sustained\": %zu, \"feed_requests\": %zu, "
            "\"p50_us\": %.1f, \"p99_us\": %.1f}",
            args.clients, args.configs, args.batch,
            static_cast<unsigned long long>(refs), sustained,
            latencies.size(), p50, p99);
        bench::writeJsonResults(
            args.jsonPath, "loadtest",
            std::to_string(args.clients) + " clients x " +
                std::to_string(args.configs) + " configs, batch " +
                std::to_string(args.batch),
            sections, extra);
        std::printf("wrote %s\n", args.jsonPath.c_str());
    }

    return sustained == args.clients ? 0 : 1;
}
