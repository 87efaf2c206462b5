#include "ies/analysis.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace memories::ies
{

std::vector<CurvePoint>
missRatioCurve(const MemoriesBoard &board)
{
    std::vector<CurvePoint> curve;
    for (std::size_t n = 0; n < board.numNodes(); ++n) {
        const auto &node = board.node(n);
        const auto s = node.stats();
        CurvePoint p;
        p.label = node.config().cache.describe();
        p.sizeBytes = node.config().cache.sizeBytes;
        p.refs = s.localRefs;
        p.misses = s.localMisses;
        p.missRatio = s.missRatio();
        curve.push_back(std::move(p));
    }
    std::sort(curve.begin(), curve.end(),
              [](const CurvePoint &a, const CurvePoint &b) {
                  return a.sizeBytes < b.sizeBytes;
              });
    return curve;
}

BoardReport
BoardReport::capture(const MemoriesBoard &board)
{
    BoardReport report;
    const auto &g = board.globalCounters();
    report.memoryTenures = g.valueByName("global.tenures.memory");
    report.committed = g.valueByName("global.tenures.committed");
    report.filtered = g.valueByName("global.tenures.filtered");
    report.retriesPosted = g.valueByName("global.retries_posted");
    report.bufferHighWater = board.bufferHighWater();
    if (const auto *capture = board.captureBuffer())
        report.captureDropped = capture->dropped();
    report.lostInflight = g.valueByName("global.tenures.lost_inflight");
    report.faultDropped = g.valueByName("global.tenures.fault_dropped");
    report.sampledOut = g.valueByName("global.tenures.sampled_out");
    report.shed = g.valueByName("global.tenures.shed");
    report.quarantined = g.valueByName("global.tenures.quarantined");
    report.healthTransitions =
        g.valueByName("global.health.transitions");
    report.healthState =
        std::string(fault::healthStateName(board.healthState()));
    for (std::size_t n = 0; n < board.numNodes(); ++n) {
        const auto &node = board.node(n);
        report.nodeLabels.push_back(
            node.config().label.empty() ? node.config().cache.describe()
                                        : node.config().label);
        report.nodes.push_back(node.stats());
    }
    return report;
}

std::string
BoardReport::toCsv() const
{
    std::ostringstream os;
    os << "node,refs,hits,misses,miss_ratio,sat_cache,sat_modint,"
          "sat_shrint,sat_memory,fills,evictions_clean,"
          "evictions_dirty,remote_invalidations,supplied_modified,"
          "supplied_shared,global_tenures,global_committed,"
          "global_filtered,retries_posted,capture_dropped,"
          "lost_inflight,fault_dropped,sampled_out,shed,quarantined,"
          "health\n";
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const auto &s = nodes[n];
        os << nodeLabels[n] << ',' << s.localRefs << ',' << s.localHits
           << ',' << s.localMisses << ',' << s.missRatio() << ','
           << s.satisfiedByCache << ','
           << s.satisfiedByModIntervention << ','
           << s.satisfiedByShrIntervention << ','
           << s.satisfiedByMemory << ',' << s.fills << ','
           << s.evictionsClean << ',' << s.evictionsDirty << ','
           << s.remoteInvalidations << ',' << s.suppliedModified << ','
           << s.suppliedShared << ',' << memoryTenures << ','
           << committed << ',' << filtered << ',' << retriesPosted
           << ',' << captureDropped << ',' << lostInflight << ','
           << faultDropped << ',' << sampledOut << ',' << shed << ','
           << quarantined << ',' << healthState << '\n';
    }
    return os.str();
}

std::string
BoardReport::toText() const
{
    std::ostringstream os;
    os << "memory tenures " << memoryTenures << ", committed "
       << committed << ", filtered " << filtered << ", retries "
       << retriesPosted << ", buffer high-water " << bufferHighWater
       << "\n";
    if (captureDropped > 0) {
        os << "  ** lossy capture: " << captureDropped
           << " references dropped after the capture buffer filled **\n";
    }
    if (lostInflight > 0) {
        os << "  ** lossy buffer: " << lostInflight
           << " committed tenures lost in flight **\n";
    }
    if (faultDropped + sampledOut + shed + quarantined > 0 ||
        healthState != "healthy") {
        os << "  health " << healthState << ": fault-dropped "
           << faultDropped << " sampled-out " << sampledOut << " shed "
           << shed << " quarantined " << quarantined << " transitions "
           << healthTransitions << "\n";
    }
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const auto &s = nodes[n];
        os << "  " << nodeLabels[n] << ": refs " << s.localRefs
           << " miss-ratio " << s.missRatio() << " (cache "
           << s.satisfiedByCache << " / mod-int "
           << s.satisfiedByModIntervention << " / shr-int "
           << s.satisfiedByShrIntervention << " / memory "
           << s.satisfiedByMemory << ")\n";
    }
    return os.str();
}

std::string
countersToCsv(const CounterBank &bank)
{
    std::ostringstream os;
    os << "counter,value\n";
    bank.snapshot([&os](const CounterSample &s) {
        os << s.name << ',' << s.value << '\n';
    });
    return os.str();
}

FleetReport
FleetReport::capture(const ExperimentFleet &fleet)
{
    FleetReport report;
    report.published = fleet.eventsPublished();
    report.tapFiltered = fleet.tapFiltered();
    report.tapRetryDropped = fleet.tapRetryDropped();
    for (std::size_t i = 0; i < fleet.numExperiments(); ++i) {
        BoardLine line;
        line.label = fleet.label(i);
        line.consumed = fleet.eventsConsumed(i);
        line.overflowDrops = fleet.overflowDrops(i);
        line.backpressureStalls = fleet.backpressureStalls(i);
        if (const auto *capture = fleet.board(i).captureBuffer())
            line.captureDropped = capture->dropped();
        line.lostInflight = fleet.board(i).tenuresLostInflight();
        line.healthState = std::string(
            fault::healthStateName(fleet.board(i).healthState()));
        report.boards.push_back(std::move(line));
    }
    return report;
}

std::uint64_t
FleetReport::totalOverflowDrops() const
{
    std::uint64_t total = 0;
    for (const BoardLine &b : boards)
        total += b.overflowDrops;
    return total;
}

std::string
FleetReport::toCsv() const
{
    std::ostringstream os;
    os << "board,consumed,overflow_drops,backpressure_stalls,"
          "capture_dropped,lost_inflight,health,published,"
          "tap_filtered,tap_retry_dropped\n";
    for (const BoardLine &b : boards) {
        os << b.label << ',' << b.consumed << ',' << b.overflowDrops
           << ',' << b.backpressureStalls << ',' << b.captureDropped
           << ',' << b.lostInflight << ',' << b.healthState << ','
           << published << ',' << tapFiltered << ','
           << tapRetryDropped << '\n';
    }
    return os.str();
}

std::string
FleetReport::toText() const
{
    std::ostringstream os;
    os << "tap published " << published << ", filtered " << tapFiltered
       << ", retry-dropped " << tapRetryDropped << "\n";
    for (const BoardLine &b : boards) {
        os << "  " << b.label << ": consumed " << b.consumed
           << " drops " << b.overflowDrops << " stalls "
           << b.backpressureStalls;
        if (b.overflowDrops > 0) {
            os << "  ** lossy: this board saw " << b.overflowDrops
               << " fewer tenures than the host bus **";
        }
        if (b.captureDropped > 0) {
            os << "  ** lossy capture: " << b.captureDropped
               << " references not captured **";
        }
        if (b.lostInflight > 0) {
            os << "  ** lossy buffer: " << b.lostInflight
               << " committed tenures lost in flight **";
        }
        if (b.healthState != "healthy")
            os << "  ** health: " << b.healthState << " **";
        os << "\n";
    }
    return os.str();
}

double
l3SpeedupEstimate(double l2_miss_cycles_fraction, double l3_hit_ratio,
                  double l3_cycles, double memory_cycles)
{
    if (l2_miss_cycles_fraction < 0.0 || l2_miss_cycles_fraction > 1.0)
        fatal("miss-cycle fraction must be in [0,1]");
    if (l3_hit_ratio < 0.0 || l3_hit_ratio > 1.0)
        fatal("L3 hit ratio must be in [0,1]");
    // Fraction of miss cycles removed: hits move from memory latency
    // to L3 latency.
    const double saved_per_miss =
        l3_hit_ratio * (1.0 - l3_cycles / memory_cycles);
    return l2_miss_cycles_fraction * saved_per_miss;
}

} // namespace memories::ies
