/**
 * @file
 * Layer probes and the pieces two workloads share.
 *
 * A traced run replays its workload's own tenure stream through each
 * layer in isolation (batch and serial admission, sharded admission,
 * a standalone tag store, an offline fan-out fleet, one IESSERV
 * session) and times every call from outside with spans, so each
 * per-layer metric is measured on every workload.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <string>
#include <vector>

#include "common.hh"
#include "host/machine.hh"
#include "workload/oltp.hh"

namespace perfbench
{

/** A workload's tenure stream as the probes replay it. */
struct ProbeInput
{
    const std::vector<bus::BusTransaction> *stream = nullptr;
    std::size_t warm = 0; //!< prefix fed untimed before timing starts
    std::size_t end = 0;  //!< timed tenures are [warm, end)
};

/** ProbeInput over @p s, timing at most @p cap tenures after @p warm. */
ProbeInput probeInput(const std::vector<bus::BusTransaction> &s,
                      std::size_t warm, std::size_t cap = 1'000'000);

// --- live_oltp's host: shared by the workload and the host probe.

workload::OltpParams oltpParams(std::uint64_t seed);
host::HostConfig hostConfig(std::uint64_t seed);
inline constexpr std::uint64_t liveWarmRefs = 6'000'000;
inline constexpr std::uint64_t liveMeasuredRefs = 12'000'000;
inline constexpr std::uint64_t liveSliceRefs = 8192;

/**
 * Fleet worker threads. With 3 workers plus the producer (every vCPU
 * of a 4-vCPU host busy) live_oltp's throughput fell 2.6x whenever the
 * host was contended; 2 workers plus the producer held steady.
 */
inline constexpr std::size_t fleetWorkers = 2;

/** Busiest worker's load over the mean (boards go to worker i % W). */
double workerLoadSkew(const std::vector<double> &boardLoad);

/** BusObserver that records committed memory tenures (the fleet tap's
 *  filter), so a live run can be replayed board by board. */
class CaptureTap final : public bus::BusObserver
{
  public:
    void observeResult(const bus::BusTransaction &txn,
                       bus::SnoopResponse combined) override;
    std::vector<bus::BusTransaction> tenures;
};

/**
 * Serial reference for one board: feedCommitted over the warm prefix,
 * drain, clear counters, then the timed part under "ies.feed_committed"
 * spans (4096 tenures each), drain.
 */
void serialReplay(ies::MemoriesBoard &board, const ProbeInput &in,
                           Tracer *tracer, const char *span);

// --- Probes (trace runs only). Each records spans and work units into
//     report.spans and any direct values into report.values.

/** feedBatch in 4096-tenure batches under "ies.feed_batch" spans,
 *  then "ies.drain_all". */
void probeFeedBatch(const ProbeInput &in, Report &report);
/** Serial feedCommitted under "ies.feed_committed" spans. */
void probeFeedCommitted(const ProbeInput &in, Report &report);
/** feedBatch after enableSharding(4), "ies.feed_batch_shard4". */
void probeShard4(const ProbeInput &in, Report &report);
/** TagStore lookup + allocate-on-miss at 1 GB/8-way, in 4096-address
 *  chunks under "cache.tagstore.access" spans. */
void probeTagStore(const ProbeInput &in, Report &report);
/** feedBatch with an IESPROF profiler attached ("prof.feed_batch"
 *  spans); stores the profiler's own estimates for the cross-check. */
void probeProfiler(const ProbeInput &in, Report &report);
/** Offline fan-out: each ladder rung replays alone, then a fleet of all
 *  four with fleetWorkers workers replays the same tenures. */
void probeFleet(const ProbeInput &in, Report &report);
/** Host model alone (no tap) at live_oltp's settings. */
void probeHost(std::uint64_t seed, Report &report);
/** Client packing alone, one solo IESSERV session over the wire on a
 *  stream prefix, and the same feed lines through Session::execute and
 *  the board in process. */
void probeService(const std::vector<bus::BusTransaction> &stream,
                  const std::string &workDir, Report &report);

// --- IESSERV session pieces shared by serve_ingest and probeService.

/** Console script of serve_ingest session @p variant (paced, 42%). */
std::vector<std::string> sessionScript(std::size_t variant);

/** Records per feed line of an IESSERV session. */
inline constexpr std::size_t feedLineRecords = 256;
/** Records per feedAll call, each one timed slice. Short slices let
 *  the median slice rate pass over millisecond request stalls. */
inline constexpr std::size_t sliceRecords = 16 * feedLineRecords;
/** A `stats` read follows every 4th slice (64 full lines' worth). */
inline constexpr std::size_t slicesPerQuery = 4;

/** What one client session did over the wire. */
struct WireSession
{
    std::uint64_t offered = 0;  //!< records in the stream
    std::uint64_t accepted = 0; //!< records the board accepted
    std::uint64_t feedLines = 0;
    std::uint64_t queries = 0;
    std::uint64_t failedRequests = 0;
    double seconds = 0; //!< first feed to drain reply
    std::vector<double> feedUs, queryUs;
    /** (records accepted, seconds) per sliceRecords chunk, including
     *  the stats read after it, if any. */
    std::vector<std::pair<double, double>> slices;
    std::uint64_t signature = 0;
    std::string error;
};

/**
 * Connect to @p socket, configure with @p script, stream @p txns with
 * ServiceClient::feedAll (256-record feed lines, re-sending what a
 * paced session does not admit) in chunks of sliceRecords with a
 * `stats` read after every slicesPerQuery chunks, drain, and take the
 * session's signature (counters, stats, checkpoint bytes; checkpoint
 * written to @p ckptPath). Spans go to @p tracer when non-null.
 */
WireSession runWireSession(const std::string &socket,
                           const std::vector<std::string> &script,
                           const std::vector<bus::BusTransaction> &txns,
                           Tracer *tracer, const std::string &ckptPath);

/** The canonical wire stream (pack/unpack round trip of @p txns). */
std::vector<bus::BusTransaction>
canonicalStream(const std::vector<bus::BusTransaction> &txns);

/** In-process golden: console + feedBatch of the canonical stream;
 *  same signature as runWireSession. */
std::uint64_t goldenSignature(const std::vector<std::string> &script,
                              const std::vector<bus::BusTransaction> &canon,
                              const std::string &ckptPath,
                              std::vector<double> *missRatios = nullptr);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
