/**
 * @file
 * Differential-oracle sweep: diff the production MemoriesBoard against
 * the naive RefBoard over many property-generated streams and the full
 * configuration lattice. This is the executable CI runs (and the tool
 * an engineer reaches for after touching src/cache, src/protocol or
 * src/ies): exit status 0 means every comparison agreed bit-for-bit.
 *
 *   oracle_diff [--seeds=N] [--txns=N] [--start-seed=N] [--out=DIR]
 *               [--batch=N]
 *
 * --batch=N (default 0: one feedCommitted call per tenure) feeds the
 * production board through feedBatch in chunks of N transactions with
 * no flight recorder attached, so the queued emulation pass is diffed
 * against the serial reference; a divergent comparison is re-run with
 * the recorder for its witness dump.
 *
 * On a divergence the minimized witness stream is written to DIR as a
 * replayable trace (see docs/TESTING.md for the reproduction recipe).
 *
 * Checkpoint-resume mode:
 *
 *   oracle_diff --from-checkpoint=FILE --config=NAME
 *               [--trace=FILE | --txns=N --start-seed=N]
 *               [--batch=N]
 *
 * Both boards restore the IESCKPT checkpoint first (counters cleared),
 * then diff over the tail stream: either a replayable trace file
 * (typically the witness a lattice run dumped) or one generated
 * stimulus stream. --config names the lattice configuration the
 * checkpoint was taken under; its fingerprint must match.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "memories/memories.hh"

namespace
{

std::uint64_t
parseArg(const char *arg, const char *name, std::uint64_t fallback)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return fallback;
    return std::strtoull(arg + len + 1, nullptr, 10);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace memories;

    std::uint64_t seeds = 100;
    std::uint64_t txns = 800;
    std::uint64_t start_seed = 1;
    std::uint64_t batch = 0;
    std::string out_dir = "oracle-out";
    std::string checkpoint;
    std::string config_name;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        seeds = parseArg(argv[i], "--seeds", seeds);
        txns = parseArg(argv[i], "--txns", txns);
        start_seed = parseArg(argv[i], "--start-seed", start_seed);
        batch = parseArg(argv[i], "--batch", batch);
        if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_dir = argv[i] + 6;
        if (std::strncmp(argv[i], "--from-checkpoint=", 18) == 0)
            checkpoint = argv[i] + 18;
        if (std::strncmp(argv[i], "--config=", 9) == 0)
            config_name = argv[i] + 9;
        if (std::strncmp(argv[i], "--trace=", 8) == 0)
            trace_path = argv[i] + 8;
    }

    oracle::DiffOptions opts;
    opts.batchSize = static_cast<std::size_t>(batch);

    if (!checkpoint.empty()) {
        if (config_name.empty()) {
            std::fprintf(stderr,
                         "oracle_diff: --from-checkpoint needs "
                         "--config=NAME (the lattice configuration the "
                         "checkpoint was taken under)\n");
            return 2;
        }
        const ies::BoardConfig *cfg = nullptr;
        const auto lattice = oracle::latticeConfigs();
        for (const auto &lc : lattice) {
            if (lc.name == config_name)
                cfg = &lc.config;
        }
        if (!cfg) {
            std::fprintf(stderr,
                         "oracle_diff: unknown --config '%s'; known:\n",
                         config_name.c_str());
            for (const auto &lc : lattice)
                std::fprintf(stderr, "  %s\n", lc.name.c_str());
            return 2;
        }
        std::vector<bus::BusTransaction> stream;
        if (!trace_path.empty()) {
            stream = oracle::readTrace(trace_path);
        } else {
            oracle::StimulusParams params;
            params.seed = start_seed;
            params.count = static_cast<std::size_t>(txns);
            params.cpus = 8;
            stream = oracle::StimulusGen(params).generate();
        }
        std::printf("oracle_diff: resuming config %s from %s, "
                    "%zu tail txns (%s)\n",
                    config_name.c_str(), checkpoint.c_str(),
                    stream.size(),
                    trace_path.empty() ? "generated" : trace_path.c_str());
        const oracle::DiffReport report = oracle::diffStreamFromCheckpoint(
            *cfg, checkpoint, stream, opts);
        std::printf("%s", report.describe().c_str());
        if (report.diverged) {
            std::printf("ORACLE_DIFF FAILED: resumed comparison "
                        "diverged\n");
            return 1;
        }
        std::printf("ORACLE_DIFF ok: 1 resumed comparison, "
                    "0 divergences\n");
        return 0;
    }

    const auto lattice = oracle::latticeConfigs();
    std::string feed_desc;
    if (batch > 0)
        feed_desc = ", batch feed of " + std::to_string(batch);
    std::printf("oracle_diff: %llu seeds x %zu configs, %llu txns each "
                "(start seed %llu%s)\n",
                static_cast<unsigned long long>(seeds), lattice.size(),
                static_cast<unsigned long long>(txns),
                static_cast<unsigned long long>(start_seed),
                feed_desc.c_str());
    for (const auto &lc : lattice)
        std::printf("  config %s\n", lc.name.c_str());

    const oracle::LatticeRun run = oracle::runLattice(
        start_seed, static_cast<std::size_t>(seeds),
        static_cast<std::size_t>(txns), out_dir, opts);

    if (!run.clean()) {
        for (const auto &div : run.divergences) {
            std::printf("\n=== divergence: config %s, seed %llu "
                        "(shrunk to %zu txns) ===\n",
                        div.configName.c_str(),
                        static_cast<unsigned long long>(div.seed),
                        div.shrunk.size());
            std::printf("%s", div.report.describe().c_str());
            if (!div.tracePath.empty())
                std::printf("replayable witness: %s\n",
                            div.tracePath.c_str());
        }
        std::printf("\nORACLE_DIFF FAILED: %zu of %zu comparisons "
                    "diverged\n",
                    run.divergences.size(), run.comparisons);
        return 1;
    }

    std::printf("ORACLE_DIFF ok: %zu comparisons, 0 divergences\n",
                run.comparisons);
    return 0;
}
