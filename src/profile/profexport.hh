/**
 * @file
 * IESPROF export surfaces: folded-stack flamegraph text, profiler
 * spans merged into the emulated Chrome trace, and the bench JSON
 * stage breakdown.
 *
 * Three renderings of one Profiler:
 *
 *  - foldedStacks() emits `flamegraph.pl` / speedscope folded lines
 *    ("feed_batch;batch_admission 1234"), weights in measured
 *    nanoseconds, self time per frame clamped at zero.
 *
 *  - mergedChromeTrace() appends the profiler's batch spans to an
 *    emulated lifecycle trace on dedicated pid 99 so emulator cost and
 *    emulated behavior line up on one chrome://tracing timeline. Span
 *    timestamps are bus cycles (the batch's admitted cycle range);
 *    wall-clock cost rides in each span's args. The emulated bytes are
 *    untouched: the merged output is the plain writeChromeTrace()
 *    output with the profiler track spliced in before the closing
 *    bracket, and is byte-deterministic for a given (events, spans)
 *    pair.
 *
 *  - profileJson() renders the per-stage ns and ns/ref breakdown that
 *    `bench --profile` embeds in BENCH_throughput.json.
 */

#ifndef MEMORIES_PROFILE_PROFEXPORT_HH
#define MEMORIES_PROFILE_PROFEXPORT_HH

#include <string>
#include <vector>

#include "profile/profiler.hh"
#include "trace/lifecycle.hh"

namespace memories::trace
{
class FlightRecorder;
} // namespace memories::trace

namespace memories::profile
{

/** The merged trace renders profiler spans under this process id,
 *  far from pid 0 (host bus) and pids 1+b (boards). */
constexpr unsigned profilerPid = 99;

/** Folded-stack flamegraph lines, newline-terminated. */
std::string foldedStacks(const Profiler &profiler);

/** foldedStacks() to a file; fatal() when it cannot be written. */
void writeFoldedFile(const Profiler &profiler, const std::string &path);

/**
 * The plain Chrome-trace export of @p events with the profiler's
 * span ring spliced in on pid 99 (see file comment).
 */
std::string mergedChromeTrace(
    const std::vector<trace::LifecycleEvent> &events,
    const Profiler &profiler,
    const trace::FlightRecorder *labels = nullptr);

/** mergedChromeTrace() to a file; fatal() when it cannot be written. */
void writeMergedChromeTraceFile(
    const std::vector<trace::LifecycleEvent> &events,
    const Profiler &profiler, const std::string &path,
    const trace::FlightRecorder *labels = nullptr);

/**
 * JSON object (no trailing newline) with the per-stage breakdown:
 * {"refs":N,"batches":B,"stages":[{"stage":...,"calls":...,"ns":...,
 * "ns_per_ref":...},...]}. ns_per_ref divides by @p refs (0 renders
 * as 0).
 */
std::string profileJson(const Profiler &profiler, std::uint64_t refs);

} // namespace memories::profile

#endif // MEMORIES_PROFILE_PROFEXPORT_HH
