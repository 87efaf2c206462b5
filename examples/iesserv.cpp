/**
 * @file
 * iesserv: the IESSERV multi-tenant emulation daemon.
 *
 * Serves the console grammar over an AF_UNIX socket; each connection
 * gets a private session (bus + board + twin fleet + stream ingest)
 * with credit-paced admission control, suspend/resume, and the health
 * eviction ladder (docs/SERVICE.md). Talk to it with any line client:
 *
 *   ./iesserv --socket /tmp/ies.sock &
 *   bench/loadtest --socket /tmp/ies.sock --clients 8
 *
 * Usage: iesserv [--socket <path>] [--state-dir <dir>]
 *                [--max-sessions <n>] [--max-batch <n>]
 *                [--window <requests>] [--jsonl <path>]
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/units.hh"
#include "service/daemon.hh"

namespace
{

std::atomic<bool> stopRequested{false};

void
usage()
{
    std::fprintf(stderr,
                 "usage: iesserv [--socket <path>] [--state-dir <dir>] "
                 "[--max-sessions <n>] [--max-batch <n>] "
                 "[--window <requests>] [--jsonl <path>]\n");
}

void
onSignal(int)
{
    stopRequested.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace memories;

    service::DaemonOptions options;
    options.socketPath = "/tmp/iesserv.sock";
    options.stateDir = "/tmp/iesserv-state";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto number = [&]() -> std::uint64_t {
            const std::string text = value();
            std::uint64_t n = 0;
            if (parseDecimal(text, n) != DecimalParse::Ok) {
                std::fprintf(stderr, "%s: bad number '%s'\n", arg.c_str(),
                             text.c_str());
                usage();
                std::exit(2);
            }
            return n;
        };
        if (arg == "--socket")
            options.socketPath = value();
        else if (arg == "--state-dir")
            options.stateDir = value();
        else if (arg == "--max-sessions")
            options.maxSessions = number();
        else if (arg == "--max-batch")
            options.maxBatch = number();
        else if (arg == "--window")
            options.windowRequests = number();
        else if (arg == "--jsonl")
            options.jsonlPath = value();
        else {
            usage();
            return 2;
        }
    }

    service::Daemon daemon(options);
    daemon.start();
    std::printf("iesserv listening on %s (state %s, max %zu sessions)\n",
                options.socketPath.c_str(), options.stateDir.c_str(),
                options.maxSessions);
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!stopRequested.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::printf("iesserv: draining %llu active sessions...\n",
                static_cast<unsigned long long>(daemon.sessionsActive()));
    daemon.stop();
    std::printf("iesserv: served %llu requests across %llu sessions "
                "(%llu refs accepted)\n",
                static_cast<unsigned long long>(daemon.requestsServed()),
                static_cast<unsigned long long>(daemon.sessionsOpened()),
                static_cast<unsigned long long>(daemon.refsAccepted()));
    return 0;
}
