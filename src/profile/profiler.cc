#include "profile/profiler.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "telemetry/sampler.hh"

namespace memories::profile
{

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::FeedBatch:      return "feed_batch";
      case Stage::BatchAdmission: return "batch_admission";
      case Stage::CreditPacing:   return "credit_pacing";
      case Stage::Emulation:      return "emulation";
      case Stage::NumStages:      break;
    }
    return "?";
}

Stage
stageParent(Stage)
{
    return Stage::FeedBatch;
}

Profiler::Profiler(std::size_t span_capacity)
    : spanCapacity_(span_capacity)
{
    ring_.reserve(std::min<std::size_t>(spanCapacity_, 4096));
}

Profiler::~Profiler() = default;

void
Profiler::reset()
{
    for (StageCell &c : stageCells_) {
        c.calls.store(0, std::memory_order_relaxed);
        c.ns.store(0, std::memory_order_relaxed);
        c.batchNs.store(0, std::memory_order_relaxed);
    }
    batches_ = 0;
    ring_.clear();
    spansDropped_ = 0;
}

void
Profiler::beginBatch(Cycle first_cycle)
{
    ++batches_;
    batchBeginCycle_ = first_cycle;
    for (StageCell &c : stageCells_)
        c.batchNs.store(0, std::memory_order_relaxed);
}

void
Profiler::pushSpan(Stage s, Cycle begin, Cycle end,
                   std::uint64_t wall_ns)
{
    if (ring_.size() >= spanCapacity_) {
        ++spansDropped_;
        return;
    }
    ProfSpan span;
    span.stage = s;
    span.beginCycle = begin;
    span.endCycle = end;
    span.wallNs = wall_ns;
    span.batch = batches_;
    ring_.push_back(span);
}

void
Profiler::endBatch(Cycle last_cycle, std::uint64_t root_t0)
{
    const std::uint64_t wall = nowNs() - root_t0;
    StageCell &root =
        stageCells_[static_cast<std::size_t>(Stage::FeedBatch)];
    bump(root.calls, 1);
    bump(root.ns, wall);

    const Cycle begin = batchBeginCycle_;
    const Cycle end = std::max(last_cycle, begin);
    pushSpan(Stage::FeedBatch, begin, end, wall);
    for (Stage s : {Stage::BatchAdmission, Stage::Emulation}) {
        const std::uint64_t ns =
            stageCells_[static_cast<std::size_t>(s)].batchNs.load(
                std::memory_order_relaxed);
        if (ns > 0)
            pushSpan(s, begin, end, ns);
    }
}

ProfReport
Profiler::snapshot() const
{
    ProfReport report;
    report.stages.resize(numStages);
    for (std::size_t i = 0; i < numStages; ++i) {
        const StageCell &c = stageCells_[i];
        report.stages[i].calls =
            c.calls.load(std::memory_order_relaxed);
        report.stages[i].ns = c.ns.load(std::memory_order_relaxed);
    }
    report.batches = batches_;
    report.spansRecorded = ring_.size();
    report.spansDropped = spansDropped_;
    return report;
}

std::vector<ProfSpan>
Profiler::spans() const
{
    return ring_;
}

namespace
{

std::string
fmtNs(std::uint64_t ns)
{
    char buf[32];
    if (ns >= 1'000'000'000)
        std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
    else if (ns >= 1'000'000)
        std::snprintf(buf, sizeof(buf), "%.3f ms", ns / 1e6);
    else if (ns >= 1'000)
        std::snprintf(buf, sizeof(buf), "%.3f us", ns / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%llu ns",
                      static_cast<unsigned long long>(ns));
    return buf;
}

} // namespace

std::string
Profiler::describe() const
{
    const ProfReport r = snapshot();
    const double total = static_cast<double>(
        std::max<std::uint64_t>(r.stage(Stage::FeedBatch).ns, 1));
    std::ostringstream os;
    os << "IESPROF: " << r.batches << " batches, " << r.spansRecorded
       << " spans";
    if (r.spansDropped > 0)
        os << " (" << r.spansDropped << " dropped)";
    os << "\n";
    os << "  stage               calls            time    share\n";
    for (const Stage s : recordedStages) {
        const StageStats &st = r.stage(s);
        if (st.calls == 0)
            continue;
        const std::string label =
            (s == Stage::FeedBatch ? "" : "  ") +
            std::string(stageName(s));
        os << "  " << std::left << std::setw(20) << label << std::right
           << std::setw(8) << st.calls << std::setw(16) << fmtNs(st.ns)
           << std::setw(8) << std::fixed << std::setprecision(1)
           << 100.0 * static_cast<double>(st.ns) / total << "%\n";
    }
    return os.str();
}

void
Profiler::attachTelemetry(telemetry::Sampler &sampler,
                          const std::string &prefix)
{
    for (const Stage s : recordedStages) {
        const StageCell *cell = &stageCells_[static_cast<std::size_t>(s)];
        const std::string base = prefix + ".stage." + stageName(s);
        sampler.addValue(base + ".ns", [cell] {
            return cell->ns.load(std::memory_order_relaxed);
        });
        sampler.addValue(base + ".calls", [cell] {
            return cell->calls.load(std::memory_order_relaxed);
        });
    }
}

} // namespace memories::profile
