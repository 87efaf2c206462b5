/**
 * @file
 * Shared plumbing for the table/figure reproduction harnesses.
 *
 * Every bench accepts:
 *   --refs=N        host references to run, in millions (default per
 *                   bench; raise to approach paper-sized runs)
 *   --scale=F       footprint scale factor relative to the bench default
 *   --telemetry=DIR write windowed telemetry files into DIR (benches
 *                   that support it; off by default so the timed loops
 *                   stay instrumentation-free)
 *   --json=FILE     also write machine-readable results to FILE
 *                   (benches that support it; CI uploads these as
 *                   artifacts so throughput is trackable over time)
 *   --profile=DIR   attach an IESPROF profiler to the profiled
 *                   sections and write flamegraph/chrome-trace
 *                   artifacts into DIR (benches that support it); the
 *                   per-stage breakdown also lands in the JSON file
 *
 * The harnesses print the same rows/series the paper's tables and
 * figures report, alongside the paper's published values where they
 * exist, so EXPERIMENTS.md can record paper-vs-measured shape checks.
 */

#ifndef MEMORIES_BENCH_BENCHUTIL_HH
#define MEMORIES_BENCH_BENCHUTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace memories::bench
{

/** Parsed common command-line options. */
struct BenchArgs
{
    double refsMillions = 0;  //!< 0 = use the bench's default
    double scale = 1.0;
    std::string telemetryDir; //!< empty = no telemetry emission
    std::string jsonPath;     //!< empty = no JSON results file
    std::string profileDir;   //!< empty = no self-profiling

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        for (int i = 1; i < argc; ++i) {
            if (std::strncmp(argv[i], "--refs=", 7) == 0)
                args.refsMillions = std::strtod(argv[i] + 7, nullptr);
            else if (std::strncmp(argv[i], "--scale=", 8) == 0)
                args.scale = std::strtod(argv[i] + 8, nullptr);
            else if (std::strncmp(argv[i], "--telemetry=", 12) == 0)
                args.telemetryDir = argv[i] + 12;
            else if (std::strncmp(argv[i], "--json=", 7) == 0)
                args.jsonPath = argv[i] + 7;
            else if (std::strncmp(argv[i], "--profile=", 10) == 0)
                args.profileDir = argv[i] + 10;
            else {
                std::fprintf(stderr,
                             "unknown option %s\n"
                             "usage: %s [--refs=N] [--scale=F] "
                             "[--telemetry=DIR] [--json=FILE] "
                             "[--profile=DIR]\n",
                             argv[i], argv[0]);
                std::exit(2);
            }
        }
        return args;
    }

    std::uint64_t
    refsOrDefault(double default_millions) const
    {
        const double m =
            refsMillions > 0 ? refsMillions : default_millions;
        return static_cast<std::uint64_t>(m * 1e6);
    }
};

/** Wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start_(clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(clock::now() - start_)
            .count();
    }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/** One timed section's result, for the optional JSON results file. */
struct BenchResult
{
    std::string label;
    double seconds = 0;
    double events = 0;
    /** Seconds of each repeated trial (seconds is their median);
     *  empty for a section timed once. */
    std::vector<double> trials;

    double
    eventsPerSec() const
    {
        return seconds > 0 ? events / seconds : 0;
    }
};

/** Commit SHA CI stamps into results files, or "unknown" locally. */
inline std::string
buildSha()
{
    for (const char *var : {"GITHUB_SHA", "MEMORIES_GIT_SHA"}) {
        if (const char *sha = std::getenv(var); sha != nullptr &&
                                                *sha != '\0')
            return sha;
    }
    return "unknown";
}

/**
 * Write timed sections as a machine-readable JSON artifact (the
 * BENCH_<name>.json files CI uploads): bench name, the commit they
 * measure, a one-line config description, and events/sec per section.
 */
/**
 * @param extraJson Optional extra top-level members, rendered verbatim
 *        after the sections array (e.g. "\"profile\": {...}"); pass ""
 *        for the plain schema.
 */
inline void
writeJsonResults(const std::string &path, const std::string &bench,
                 const std::string &config,
                 const std::vector<BenchResult> &results,
                 const std::string &extraJson = "")
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", bench.c_str());
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", buildSha().c_str());
    std::fprintf(f, "  \"config\": \"%s\",\n", config.c_str());
    std::fprintf(f, "  \"sections\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"seconds\": %.6f, "
                     "\"events\": %.0f, \"events_per_sec\": %.1f",
                     r.label.c_str(), r.seconds, r.events,
                     r.eventsPerSec());
        if (!r.trials.empty()) {
            std::fprintf(f, ", \"trials\": [");
            for (std::size_t t = 0; t < r.trials.size(); ++t)
                std::fprintf(f, "%s%.6f", t > 0 ? ", " : "",
                             r.trials[t]);
            std::fprintf(f, "]");
        }
        std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", extraJson.empty() ? "" : ",");
    if (!extraJson.empty())
        std::fprintf(f, "  %s\n", extraJson.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
}

/** Print a banner naming the experiment being reproduced. */
inline void
banner(const char *experiment, const char *paper_summary)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", experiment);
    std::printf("paper: %s\n", paper_summary);
    std::printf("==============================================================\n");
}

} // namespace memories::bench

#endif // MEMORIES_BENCH_BENCHUTIL_HH
