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
      case Stage::ShardDispatch:  return "shard_dispatch";
      case Stage::ShardEmulation: return "shard_emulation";
      case Stage::CounterMerge:   return "counter_merge";
      case Stage::NumStages:      break;
    }
    return "?";
}

Stage
stageParent(Stage stage)
{
    switch (stage) {
      case Stage::CreditPacing:   return Stage::BatchAdmission;
      case Stage::ShardEmulation: return Stage::ShardDispatch;
      default:                    return Stage::FeedBatch;
    }
}

double
occupancySkew(const std::vector<std::uint64_t> &items)
{
    if (items.size() < 2)
        return 1.0;
    std::uint64_t max = 0, sum = 0;
    for (std::uint64_t v : items) {
        max = std::max(max, v);
        sum += v;
    }
    if (sum == 0)
        return 1.0;
    const double mean =
        static_cast<double>(sum) / static_cast<double>(items.size());
    return static_cast<double>(max) / mean;
}

double
ProfReport::imbalance() const
{
    std::vector<std::uint64_t> busy, items;
    busy.reserve(shards.size());
    items.reserve(shards.size());
    for (const ShardStats &s : shards) {
        busy.push_back(s.busyNs);
        items.push_back(s.items);
    }
    const double by_time = occupancySkew(busy);
    return by_time != 1.0 ? by_time : occupancySkew(items);
}

Profiler::Profiler(std::size_t span_capacity)
    : spanCapacity_(span_capacity)
{
    bindShards(1);
    ring_.reserve(std::min<std::size_t>(spanCapacity_, 4096));
}

Profiler::~Profiler() = default;

void
Profiler::bindShards(std::size_t shards)
{
    shardCount_ = shards == 0 ? 1 : shards;
    shardCells_ = std::make_unique<ShardCell[]>(shardCount_);
}

void
Profiler::reset()
{
    for (StageCell &c : stageCells_) {
        c.calls.store(0, std::memory_order_relaxed);
        c.timed.store(0, std::memory_order_relaxed);
        c.ns.store(0, std::memory_order_relaxed);
        c.batchNs.store(0, std::memory_order_relaxed);
    }
    bindShards(shardCount_);
    sampleSeq_ = 0;
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
    for (std::size_t s = 0; s < shardCount_; ++s) {
        shardCells_[s].batchBusyNs.store(0, std::memory_order_relaxed);
        shardCells_[s].batchItems.store(0, std::memory_order_relaxed);
    }
}

void
Profiler::pushSpan(Stage s, std::uint32_t shard, Cycle begin,
                   Cycle end, std::uint64_t wall_ns)
{
    if (ring_.size() >= spanCapacity_) {
        ++spansDropped_;
        return;
    }
    ProfSpan span;
    span.stage = s;
    span.shard = shard;
    span.beginCycle = begin;
    span.endCycle = end;
    span.wallNs = wall_ns;
    span.batch = batches_;
    if (s == Stage::ShardEmulation)
        span.items =
            shardCells_[shard].batchItems.load(
                std::memory_order_relaxed);
    ring_.push_back(span);
}

void
Profiler::endBatch(Cycle last_cycle, std::uint64_t root_t0)
{
    const std::uint64_t wall = nowNs() - root_t0;
    StageCell &root =
        stageCells_[static_cast<std::size_t>(Stage::FeedBatch)];
    bump(root.calls, 1);
    bump(root.timed, 1);
    bump(root.ns, wall);

    const Cycle begin = batchBeginCycle_;
    const Cycle end = std::max(last_cycle, begin);
    pushSpan(Stage::FeedBatch, 0, begin, end, wall);
    for (Stage s : {Stage::BatchAdmission, Stage::CreditPacing,
                    Stage::ShardDispatch, Stage::CounterMerge}) {
        const std::uint64_t ns =
            stageCells_[static_cast<std::size_t>(s)].batchNs.load(
                std::memory_order_relaxed);
        if (ns > 0)
            pushSpan(s, 0, begin, end, ns);
    }
    for (std::size_t sh = 0; sh < shardCount_; ++sh) {
        const std::uint64_t busy =
            shardCells_[sh].batchBusyNs.load(
                std::memory_order_relaxed);
        if (busy > 0)
            pushSpan(Stage::ShardEmulation,
                     static_cast<std::uint32_t>(sh), begin, end, busy);
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
        report.stages[i].timed =
            c.timed.load(std::memory_order_relaxed);
        report.stages[i].ns = c.ns.load(std::memory_order_relaxed);
    }
    report.shards.resize(shardCount_);
    for (std::size_t s = 0; s < shardCount_; ++s) {
        const ShardCell &c = shardCells_[s];
        report.shards[s].busyNs =
            c.busyNs.load(std::memory_order_relaxed);
        report.shards[s].items =
            c.items.load(std::memory_order_relaxed);
        report.shards[s].dispatches =
            c.dispatches.load(std::memory_order_relaxed);
        report.shards[s].queueWaitNs =
            c.queueWaitNs.load(std::memory_order_relaxed);
    }
    // The workers' summed busy time is the ShardEmulation stage.
    StageStats &emu = report.stages[static_cast<std::size_t>(
        Stage::ShardEmulation)];
    for (const ShardStats &s : report.shards) {
        emu.calls += s.dispatches;
        emu.timed += s.dispatches;
        emu.ns += s.busyNs;
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
        std::max<std::uint64_t>(r.stage(Stage::FeedBatch).estNs(), 1));
    std::ostringstream os;
    os << "IESPROF: " << r.batches << " batches, " << shardCount_
       << " shard" << (shardCount_ == 1 ? "" : "s") << ", "
       << r.spansRecorded << " spans";
    if (r.spansDropped > 0)
        os << " (" << r.spansDropped << " dropped)";
    os << "\n";
    os << "  stage               calls        est time    share\n";
    for (std::size_t i = 0; i < numStages; ++i) {
        const Stage s = static_cast<Stage>(i);
        const StageStats &st = r.stages[i];
        if (st.calls == 0)
            continue;
        const std::uint64_t est = st.estNs();
        const char *indent =
            s == Stage::FeedBatch                ? ""
            : stageParent(s) == Stage::FeedBatch ? "  "
                                                 : "    ";
        std::ostringstream label;
        label << indent << stageName(s);
        os << "  " << std::left << std::setw(20) << label.str()
           << std::right << std::setw(8) << st.calls << std::setw(16)
           << fmtNs(est) << std::setw(8) << std::fixed
           << std::setprecision(1)
           << 100.0 * static_cast<double>(est) / total << "%";
        if (st.timed != st.calls)
            os << "  (sampled " << st.timed << "/" << st.calls << ")";
        os << "\n";
    }
    bool any_shard = false;
    for (const ShardStats &s : r.shards)
        any_shard = any_shard || s.items > 0 || s.busyNs > 0;
    if (any_shard) {
        for (std::size_t s = 0; s < r.shards.size(); ++s) {
            const ShardStats &sh = r.shards[s];
            os << "  shard " << s << ": busy " << fmtNs(sh.busyNs)
               << ", items " << sh.items << ", queue-wait "
               << fmtNs(sh.queueWaitNs) << ", dispatches "
               << sh.dispatches << "\n";
        }
        os << "  imbalance (max/mean): " << std::fixed
           << std::setprecision(2) << r.imbalance() << "\n";
    }
    return os.str();
}

void
Profiler::attachTelemetry(telemetry::Sampler &sampler,
                          const std::string &prefix)
{
    for (std::size_t i = 0; i < numStages; ++i) {
        const Stage s = static_cast<Stage>(i);
        if (s == Stage::ShardEmulation)
            continue; // summed from the per-shard busy values below
        const StageCell *cell = &stageCells_[i];
        const std::string base =
            prefix + ".stage." + stageName(s);
        sampler.addValue(base + ".ns", [cell] {
            return cell->ns.load(std::memory_order_relaxed);
        });
        sampler.addValue(base + ".calls", [cell] {
            return cell->calls.load(std::memory_order_relaxed);
        });
    }
    for (std::size_t s = 0; s < shardCount_; ++s) {
        const std::string base =
            prefix + ".shard" + std::to_string(s);
        sampler.addValue(base + ".busy_ns", [this, s] {
            return s < shardCount_
                       ? shardCells_[s].busyNs.load(
                             std::memory_order_relaxed)
                       : 0;
        });
        sampler.addValue(base + ".items", [this, s] {
            return s < shardCount_
                       ? shardCells_[s].items.load(
                             std::memory_order_relaxed)
                       : 0;
        });
        sampler.addValue(base + ".queue_wait_ns", [this, s] {
            return s < shardCount_
                       ? shardCells_[s].queueWaitNs.load(
                             std::memory_order_relaxed)
                       : 0;
        });
    }
    sampler.addGauge(prefix + ".shard.imbalance",
                     [this] { return snapshot().imbalance(); });
}

} // namespace memories::profile
