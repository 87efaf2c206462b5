/**
 * @file
 * Shared plumbing of the perfbench driver: run options, the raw
 * report the Python front end turns into metrics, outside-the-program
 * spans, board digests, and the configurations the workloads share.
 *
 * Everything here sits outside the program under test: spans are
 * opened and closed by the benchmark around public calls into the
 * MemorIES libraries, never inside them.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bus/transaction.hh"
#include "cache/config.hh"
#include "ies/board.hh"

namespace perfbench
{

using namespace memories;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".perfbench"; //!< raw report, spans, sockets
};

/** Monotonic wall clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** One closed span: a benchmark-side interval around a public call. */
struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::uint64_t req = 0;    //!< request the span belongs to (0 = none)
    std::uint32_t tid = 0;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
};

/**
 * Per-thread span collector. A null Tracer pointer means tracing is
 * off, and Scope then costs one branch and no clock read. Spans stay
 * in memory until the report is written.
 */
class Tracer
{
  public:
    explicit Tracer(std::uint32_t tid) : tid_(tid) {}

    void
    open(const char *name, std::uint64_t req)
    {
        Span s;
        s.name = name;
        s.id = nextId.fetch_add(1, std::memory_order_relaxed);
        s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
        s.req = req;
        s.tid = tid_;
        stack_.push_back(spans_.size());
        spans_.push_back(s);
        spans_.back().t0 = nowNs();
    }

    void
    close()
    {
        const std::int64_t t1 = nowNs();
        spans_[stack_.back()].t1 = t1;
        stack_.pop_back();
    }

    /** Units of work done inside spans named @p name (refs, calls). */
    void work(const std::string &name, double units) { work_[name] += units; }

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::string, double> &workUnits() const { return work_; }

    /** Fold another thread's spans and work into this one. */
    void absorb(const Tracer &other);

  private:
    /** Span ids are unique across every Tracer of the process, so
     *  spans from per-thread tracers stay distinct once absorbed. */
    static inline std::atomic<std::uint64_t> nextId{1};

    std::uint32_t tid_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::map<std::string, double> work_;
};

/** RAII span; no-op when @p tracer is null. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::uint64_t req = 0)
        : tracer_(tracer)
    {
        if (tracer_)
            tracer_->open(name, req);
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
};

/** One timed slice of a measured pass. */
struct Segment
{
    double refs = 0;    //!< committed tenures delivered
    double seconds = 0; //!< host wall time
    bool traced = false;
    /** Concurrent stream the slice belongs to (a serve_ingest session;
     *  0 elsewhere). Throughput adds up across streams. */
    std::uint32_t stream = 0;
};

/** Outcome of one correctness comparison. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/**
 * Everything one run measured, before any statistics: the Python
 * front end (perfbench/analysis.py) derives every metric from this.
 */
struct Report
{
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Check> checks;
    std::vector<std::string> repDigests;
    std::vector<double> setupS;
    std::vector<Segment> segments;
    /** Untraced ingest-request latencies, one list per repetition. */
    std::vector<std::vector<double>> feedUs;
    /** Untraced stats-read latencies, one list per repetition. */
    std::vector<std::vector<double>> queryUs;
    std::map<std::string, double> values; //!< directly measured values
    /** Peak resident set when the measured repetitions ended, before
     *  the reference path or any probe ran (set by repeat()). */
    std::uint64_t workloadRssKb = 0;
    Tracer spans{0};

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        checks.push_back({name, ok, detail});
    }

    /** Write the raw JSON report and the Chrome-trace span file. */
    void write(const Options &opts) const;
};

/** Peak resident set of this process, in KiB. */
std::uint64_t peakRssKb();

/** 64-bit FNV-1a over bytes, continuing from @p h. */
std::uint64_t fnv(const void *data, std::size_t len,
                  std::uint64_t h = 14695981039346656037ull);

inline std::uint64_t
fnv(const std::string &s, std::uint64_t h = 14695981039346656037ull)
{
    return fnv(s.data(), s.size(), h);
}

std::string hex64(std::uint64_t v);

/** Digest of every counter bank of @p board (global + each node). */
std::uint64_t counterDigest(const ies::MemoriesBoard &board);

/**
 * Digest of the board's counters and every node directory, the latter
 * through the checkpoint codec (tags, states, replacement metadata).
 */
std::uint64_t fullDigest(const ies::MemoriesBoard &board);

/** Hash of a tenure stream (proves regeneration is deterministic). */
std::uint64_t streamDigest(const std::vector<bus::BusTransaction> &s);

/** Fig. 11's L3 ladder: 16 MB, 64 MB, 256 MB (4-way), 1 GB (8-way). */
std::vector<cache::CacheConfig> ladderCaches();

/** The four-rung ladder as one multi-config board, 8 CPUs. */
ies::BoardConfig ladderBoard();

/** The ladder rung @p i as a single-node board, 8 CPUs. */
ies::BoardConfig ladderRungBoard(std::size_t i);

/**
 * Feed @p txns[begin, end) with feedBatch in 4096-tenure batches. With
 * a @p tracer, each batch runs under a @p span span and the tenures
 * are recorded as that span's work units.
 */
std::size_t feedBatches(ies::MemoriesBoard &board,
                        const std::vector<bus::BusTransaction> &txns,
                        std::size_t begin, std::size_t end,
                        Tracer *tracer = nullptr, const char *span = "");

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Call @p rep(tracer) until opts.seconds have passed and at least
 * @p min_reps repetitions ran. A trace run interleaves untraced and
 * traced repetitions (tracer null or &report.spans) in ABBA order, at
 * least @p min_reps of each, so a drift in host speed during the run
 * does not show up as tracing overhead. Records the peak resident
 * set on return, before the caller's reference path runs.
 */
template <typename Rep>
void
repeat(const Options &opts, std::size_t min_reps, Report &report, Rep rep)
{
    const std::int64_t start = nowNs();
    std::size_t plain = 0, traced = 0;
    while (secondsSince(start) < opts.seconds || plain < min_reps ||
           (opts.trace && traced < min_reps)) {
        const std::size_t k = plain + traced;
        const bool trace = opts.trace && (k % 4 == 1 || k % 4 == 2);
        rep(trace ? &report.spans : nullptr);
        ++(trace ? traced : plain);
    }
    report.workloadRssKb = peakRssKb();
}

// Workload runners (one translation unit each).
void runReplayLadder(const Options &opts, Report &report);
void runLiveOltp(const Options &opts, Report &report);
void runServeIngest(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
