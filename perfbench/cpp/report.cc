/**
 * @file
 * Report serialization, digests, and the shared board shapes.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <sys/resource.h>

#include "checkpoint/codec.hh"
#include "common.hh"

namespace perfbench
{

void
Tracer::absorb(const Tracer &other)
{
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    for (const auto &[name, units] : other.work_)
        work_[name] += units;
}

std::uint64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::uint64_t
fnv(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

namespace
{

std::uint64_t
bankDigest(const CounterBank &bank, std::uint64_t h)
{
    for (std::size_t i = 0; i < bank.size(); ++i) {
        const auto handle = static_cast<CounterBank::Handle>(i);
        h = fnv(bank.name(handle), h);
        const std::uint64_t v = bank.value(handle);
        h = fnv(&v, sizeof v, h);
    }
    return h;
}

/** Word-at-a-time mix for the large directory images. */
std::uint64_t
wordDigest(const std::vector<std::uint8_t> &bytes, std::uint64_t h)
{
    const std::size_t words = bytes.size() / 8;
    for (std::size_t i = 0; i < words; ++i) {
        std::uint64_t w;
        std::memcpy(&w, bytes.data() + 8 * i, 8);
        h = (h ^ w) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    }
    return fnv(bytes.data() + 8 * words, bytes.size() - 8 * words, h);
}

} // namespace

std::uint64_t
counterDigest(const ies::MemoriesBoard &board)
{
    std::uint64_t h = bankDigest(board.globalCounters(),
                                 14695981039346656037ull);
    for (std::size_t i = 0; i < board.numNodes(); ++i)
        h = bankDigest(board.node(i).counters(), h);
    return h;
}

std::uint64_t
fullDigest(const ies::MemoriesBoard &board)
{
    std::uint64_t h = counterDigest(board);
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        ckpt::Sink sink;
        board.node(i).saveDirectoryState(sink);
        h = wordDigest(sink.bytes(), h);
    }
    return h;
}

std::uint64_t
streamDigest(const std::vector<bus::BusTransaction> &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const auto &t : s) {
        const std::uint64_t w[3] = {t.addr, t.cycle,
                                    (static_cast<std::uint64_t>(t.op)
                                     << 8) |
                                        t.cpu};
        h = fnv(w, sizeof w, h);
    }
    return h;
}

std::vector<cache::CacheConfig>
ladderCaches()
{
    using cache::ReplacementPolicy;
    return {cache::CacheConfig{16 * MiB, 4, 128, ReplacementPolicy::LRU},
            cache::CacheConfig{64 * MiB, 4, 128, ReplacementPolicy::LRU},
            cache::CacheConfig{256 * MiB, 4, 128, ReplacementPolicy::LRU},
            cache::CacheConfig{1 * GiB, 8, 128, ReplacementPolicy::LRU}};
}

ies::BoardConfig
ladderBoard()
{
    return ies::makeMultiConfigBoard(ladderCaches(), 8);
}

ies::BoardConfig
ladderRungBoard(std::size_t i)
{
    return ies::makeMultiConfigBoard({ladderCaches()[i]}, 8);
}

std::size_t
feedBatches(ies::MemoriesBoard &board,
            const std::vector<bus::BusTransaction> &txns,
            std::size_t begin, std::size_t end, Tracer *tracer,
            const char *span)
{
    std::size_t accepted = 0;
    for (std::size_t at = begin; at < end; at += 4096) {
        Scope sc(tracer, span);
        accepted += board.feedBatch(&txns[at], std::min<std::size_t>(
                                                   4096, end - at));
    }
    if (tracer)
        tracer->work(span, static_cast<double>(end - begin));
    return accepted;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace
{

void
writeNumbers(std::FILE *f, const std::vector<double> &v)
{
    std::fputc('[', f);
    for (std::size_t i = 0; i < v.size(); ++i)
        std::fprintf(f, "%s%.9g", i ? "," : "", v[i]);
    std::fputc(']', f);
}

void
writeLists(std::FILE *f, const std::vector<std::vector<double>> &v)
{
    std::fputc('[', f);
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            std::fputc(',', f);
        writeNumbers(f, v[i]);
    }
    std::fputc(']', f);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

void
Report::write(const Options &opts) const
{
    const std::string stem = opts.outDir + "/" + workload + "-seed" +
                             std::to_string(seed) +
                             (trace ? "-trace" : "");
    const std::string spanPath = stem + ".spans.json";
    const std::string rawPath = stem + ".raw.json";

    if (trace) {
        // Chrome trace-event format: open in chrome://tracing or
        // https://ui.perfetto.dev. Times are microseconds from the
        // first span; args carry the span id, parent, and request.
        std::int64_t base = 0;
        for (const auto &s : spans.spans())
            if (base == 0 || s.t0 < base)
                base = s.t0;
        std::FILE *f = std::fopen(spanPath.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + spanPath);
        std::fprintf(f, "{\"traceEvents\":[");
        bool first = true;
        for (const auto &s : spans.spans()) {
            std::fprintf(
                f,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                "\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                ",\"req\":%" PRIu64 "}}",
                first ? "" : ",", s.name, s.tid,
                static_cast<double>(s.t0 - base) / 1e3,
                static_cast<double>(s.t1 - s.t0) / 1e3, s.id, s.parent,
                s.req);
            first = false;
        }
        std::fprintf(f, "\n]}\n");
        std::fclose(f);
    }

    std::FILE *f = std::fopen(rawPath.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + rawPath);
    std::fprintf(f, "{\"workload\":%s,\"seed\":%" PRIu64
                    ",\"trace\":%s,\n",
                 jsonString(workload).c_str(), seed,
                 trace ? "true" : "false");
    std::fprintf(f, "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\n",
                 attempted, failed);
    std::fprintf(f, "\"peak_rss_kb\":%" PRIu64 ",\n", workloadRssKb);
    std::fprintf(f, "\"checks\":[");
    for (std::size_t i = 0; i < checks.size(); ++i)
        std::fprintf(f, "%s{\"name\":%s,\"ok\":%s,\"detail\":%s}",
                     i ? "," : "", jsonString(checks[i].name).c_str(),
                     checks[i].ok ? "true" : "false",
                     jsonString(checks[i].detail).c_str());
    std::fprintf(f, "],\n\"rep_digests\":[");
    for (std::size_t i = 0; i < repDigests.size(); ++i)
        std::fprintf(f, "%s%s", i ? "," : "",
                     jsonString(repDigests[i]).c_str());
    std::fprintf(f, "],\n\"setup_s\":");
    writeNumbers(f, setupS);
    std::fprintf(f, ",\n\"segments\":[");
    for (std::size_t i = 0; i < segments.size(); ++i)
        std::fprintf(f, "%s[%.9g,%.9g,%s,%u]", i ? "," : "",
                     segments[i].refs, segments[i].seconds,
                     segments[i].traced ? "true" : "false",
                     segments[i].stream);
    std::fprintf(f, "],\n\"feed_us\":");
    writeLists(f, feedUs);
    std::fprintf(f, ",\n\"query_us\":");
    writeLists(f, queryUs);
    std::fprintf(f, ",\n\"values\":{");
    bool first = true;
    for (const auto &[k, v] : values) {
        std::fprintf(f, "%s%s:%.12g", first ? "" : ",",
                     jsonString(k).c_str(), v);
        first = false;
    }
    std::fprintf(f, "},\n\"work\":{");
    first = true;
    for (const auto &[k, v] : spans.workUnits()) {
        std::fprintf(f, "%s%s:%.12g", first ? "" : ",",
                     jsonString(k).c_str(), v);
        first = false;
    }
    std::fprintf(f, "},\n\"spans_file\":%s}\n",
                 trace ? jsonString(spanPath).c_str() : "null");
    std::fclose(f);
    std::printf("raw report: %s\n", rawPath.c_str());
}

} // namespace perfbench
