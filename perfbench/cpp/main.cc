/**
 * @file
 * perfbench: runs one benchmark workload and writes its raw report.
 *
 * Usage: perfbench --workload <replay_ladder|live_oltp|serve_ingest>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *
 * Writes its raw report (and, traced, its spans) under .perfbench/ in
 * the working directory. perfbench/run.py builds this program, runs it
 * from the checkout root, and turns the raw report into metrics; see
 * perfbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hh"

namespace
{

const char *const usage =
    "usage: perfbench --workload <replay_ladder|live_oltp|serve_ingest> "
    "--seed <n> --seconds <s> --trace <0|1>\n";

[[noreturn]] void
badUsage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n%s", why.c_str(), usage);
    std::exit(2);
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return true;
}

perfbench::Options
parse(int argc, char **argv)
{
    perfbench::Options opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            badUsage("missing value for " + flag);
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, opts.seed))
                badUsage("bad --seed " + value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n == 0)
                badUsage("bad --seconds " + value);
            opts.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                badUsage("bad --trace " + value);
            opts.trace = value == "1";
            haveTrace = true;
        } else {
            badUsage("unknown option " + flag);
        }
    }
    if (opts.workload != "replay_ladder" && opts.workload != "live_oltp" &&
        opts.workload != "serve_ingest")
        badUsage("unknown or missing --workload '" + opts.workload + "'");
    if (!haveSeed || !haveSeconds || !haveTrace)
        badUsage("--seed, --seconds and --trace are required");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Options opts = parse(argc, argv);
    perfbench::Report report;
    report.workload = opts.workload;
    report.seed = opts.seed;
    report.trace = opts.trace;
    try {
        // Probes and the daemon put sockets and state here before the
        // report is written; the daemon creates only the last level.
        std::filesystem::create_directories(opts.outDir);
        if (opts.workload == "replay_ladder")
            perfbench::runReplayLadder(opts, report);
        else if (opts.workload == "live_oltp")
            perfbench::runLiveOltp(opts, report);
        else
            perfbench::runServeIngest(opts, report);
        report.write(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
