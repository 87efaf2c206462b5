#include "ies/fanout.hh"

#include <algorithm>
#include <sstream>

#include "bus/busop.hh"
#include "common/logging.hh"
#include "trace/tracefile.hh"

namespace memories::ies
{

// ---------------------------------------------------------------------
// EventRing
// ---------------------------------------------------------------------

EventRing::EventRing(std::size_t capacity, std::size_t consumers)
    : ring_(capacity), tails_(consumers, 0), stalls_(consumers, 0)
{
    if (capacity == 0)
        fatal("event ring needs at least one slot");
    if (consumers == 0)
        fatal("event ring needs at least one consumer");
}

std::size_t
EventRing::freeSpaceLocked() const
{
    const std::uint64_t min_tail =
        *std::min_element(tails_.begin(), tails_.end());
    return ring_.size() - static_cast<std::size_t>(head_ - min_tail);
}

void
EventRing::push(const bus::BusTransaction *events, std::size_t n)
{
    std::unique_lock lock(mu_);
    std::size_t done = 0;
    while (done < n) {
        if (freeSpaceLocked() == 0) {
            // Wall-clock backpressure, charged to the laggards. The
            // emulated host never sees it: bus time is virtual.
            const std::uint64_t min_tail =
                *std::min_element(tails_.begin(), tails_.end());
            for (std::size_t c = 0; c < tails_.size(); ++c) {
                if (tails_[c] == min_tail)
                    ++stalls_[c];
            }
            notFull_.wait(lock, [&] { return freeSpaceLocked() > 0; });
        }
        while (done < n && freeSpaceLocked() > 0) {
            ring_[head_ % ring_.size()] = events[done++];
            ++head_;
        }
        notEmpty_.notify_all();
    }
}

void
EventRing::close()
{
    {
        std::lock_guard lock(mu_);
        closed_ = true;
    }
    notEmpty_.notify_all();
}

std::size_t
EventRing::pop(std::size_t c, bus::BusTransaction *out, std::size_t max,
               bool *drained)
{
    std::unique_lock lock(mu_);
    std::size_t n = 0;
    while (n < max && tails_[c] < head_) {
        out[n++] = ring_[tails_[c] % ring_.size()];
        ++tails_[c];
    }
    if (drained)
        *drained = closed_ && tails_[c] == head_;
    if (n > 0)
        notFull_.notify_one(); // only the producer waits on notFull_
    return n;
}

bool
EventRing::drained(std::size_t c) const
{
    std::lock_guard lock(mu_);
    return closed_ && tails_[c] == head_;
}

void
EventRing::waitForEvents(const std::vector<std::size_t> &consumers)
{
    std::unique_lock lock(mu_);
    notEmpty_.wait(lock, [&] {
        if (closed_)
            return true;
        for (std::size_t c : consumers) {
            if (tails_[c] < head_)
                return true;
        }
        return false;
    });
}

std::uint64_t
EventRing::published() const
{
    std::lock_guard lock(mu_);
    return head_;
}

std::uint64_t
EventRing::stalls(std::size_t c) const
{
    std::lock_guard lock(mu_);
    return stalls_[c];
}

// ---------------------------------------------------------------------
// ExperimentFleet
// ---------------------------------------------------------------------

ExperimentFleet::ExperimentFleet(FleetOptions opts) : opts_(opts)
{
    if (opts_.ringCapacity == 0)
        fatal("fleet ring capacity must be positive");
    if (opts_.batchSize == 0)
        fatal("fleet batch size must be positive");
}

ExperimentFleet::~ExperimentFleet()
{
    finish();
}

std::size_t
ExperimentFleet::addExperiment(const BoardConfig &config,
                               std::uint64_t seed,
                               const std::string &label)
{
    requireIdle("addExperiment");
    boards_.push_back(MemoriesBoard::make(config, seed));
    labels_.push_back(label.empty()
                          ? "experiment" + std::to_string(boards_.size() - 1)
                          : label);
    return boards_.size() - 1;
}

void
ExperimentFleet::attach(bus::Bus6xx &bus)
{
    if (tappedBus_)
        fatal("ExperimentFleet is already attached to a bus");
    bus.attachObserver(this);
    tappedBus_ = &bus;
}

void
ExperimentFleet::detach(bus::Bus6xx &bus)
{
    bus.detachObserver(this);
    if (tappedBus_ == &bus)
        tappedBus_ = nullptr;
}

void
ExperimentFleet::start(std::size_t workers)
{
    requireIdle("start");
    if (boards_.empty())
        fatal("ExperimentFleet::start with no experiments added");
    const std::size_t count =
        std::min(std::max<std::size_t>(workers, 1), boards_.size());

    ring_ = std::make_unique<EventRing>(opts_.ringCapacity,
                                        boards_.size());
    producerBuf_.clear();
    producerBuf_.reserve(opts_.batchSize);
    slotCount_ = boards_.size();
    overflowDrops_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(slotCount_);
    eventsConsumed_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(slotCount_);
    for (std::size_t i = 0; i < slotCount_; ++i) {
        overflowDrops_[i].store(0, std::memory_order_relaxed);
        eventsConsumed_[i].store(0, std::memory_order_relaxed);
    }
    published_ = 0;
    tapFiltered_ = 0;
    tapRetryDropped_ = 0;
    running_ = true;

    workers_.reserve(count);
    for (std::size_t w = 0; w < count; ++w)
        workers_.emplace_back(
            [this, w, count] { workerMain(w, count); });
}

void
ExperimentFleet::finish()
{
    if (!running_)
        return;
    flushProducer();
    ring_->close();
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    running_ = false;
    if (tappedBus_) {
        tappedBus_->detachObserver(this);
        tappedBus_ = nullptr;
    }
    // The host has gone quiet: let every board's SDRAM side catch up,
    // exactly as a directly-plugged board would at end of measurement.
    for (auto &b : boards_)
        b->drainAll();
}

void
ExperimentFleet::replayFile(const std::string &path, std::size_t workers)
{
    trace::TraceReader reader(path);
    start(workers);
    bus::BusTransaction txn;
    while (reader.next(txn))
        publish(txn);
    finish();
}

void
ExperimentFleet::publish(const bus::BusTransaction &txn)
{
    if (!running_)
        fatal("ExperimentFleet::publish before start()");
    producerBuf_.push_back(txn);
    ++published_;
    if (producerBuf_.size() >= opts_.batchSize)
        flushProducer();
}

void
ExperimentFleet::observeResult(const bus::BusTransaction &txn,
                               bus::SnoopResponse combined)
{
    if (!running_)
        return;
    if (bus::isFilteredOp(txn.op)) {
        ++tapFiltered_;
        return;
    }
    if (combined == bus::SnoopResponse::Retry) {
        // The tenure did not complete; the host will replay it.
        ++tapRetryDropped_;
        return;
    }
    publish(txn);
}

void
ExperimentFleet::flushProducer()
{
    if (producerBuf_.empty())
        return;
    ring_->push(producerBuf_.data(), producerBuf_.size());
    producerBuf_.clear();
}

void
ExperimentFleet::workerMain(std::size_t worker, std::size_t worker_count)
{
    std::vector<std::size_t> owned;
    for (std::size_t i = worker; i < boards_.size(); i += worker_count)
        owned.push_back(i);
    if (owned.empty())
        return;

    std::vector<bus::BusTransaction> batch(opts_.batchSize);
    while (true) {
        bool progressed = false;
        bool all_drained = true;
        for (std::size_t i : owned) {
            bool drained = false;
            const std::size_t n =
                ring_->pop(i, batch.data(), batch.size(), &drained);
            if (n > 0) {
                feedBoard(i, batch.data(), n);
                progressed = true;
            }
            if (!drained)
                all_drained = false;
        }
        if (all_drained)
            return;
        if (!progressed)
            ring_->waitForEvents(owned);
    }
}

void
ExperimentFleet::feedBoard(std::size_t i, const bus::BusTransaction *events,
                           std::size_t n)
{
    MemoriesBoard &b = *boards_[i];
    for (std::size_t k = 0; k < n; ++k) {
        if (!b.feedCommitted(events[k])) {
            // A live board would have posted a bus retry and seen the
            // host replay the tenure; in replay there is no host to
            // replay it, so the event is lost to this board only.
            overflowDrops_[i].fetch_add(1, std::memory_order_relaxed);
        }
    }
    eventsConsumed_[i].fetch_add(n, std::memory_order_relaxed);
}

void
ExperimentFleet::requireIdle(const char *what) const
{
    if (running_)
        fatal("ExperimentFleet::", what, " while the fleet is running");
}

std::uint64_t
ExperimentFleet::backpressureStalls(std::size_t i) const
{
    requireIdle("backpressureStalls");
    return ring_ ? ring_->stalls(i) : 0;
}

std::uint64_t
ExperimentFleet::overflowDrops(std::size_t i) const
{
    requireIdle("overflowDrops");
    return overflowDropsRelaxed(i);
}

std::uint64_t
ExperimentFleet::eventsConsumed(std::size_t i) const
{
    requireIdle("eventsConsumed");
    return eventsConsumedRelaxed(i);
}

std::string
ExperimentFleet::dumpStats() const
{
    requireIdle("dumpStats");
    std::ostringstream os;
    os << "=== experiment fleet ===\n";
    os << "published " << published_ << " tap-filtered " << tapFiltered_
       << " tap-retry-dropped " << tapRetryDropped_ << "\n";
    for (std::size_t i = 0; i < boards_.size(); ++i) {
        os << "board " << i << " (" << labels_[i] << "): consumed "
           << eventsConsumedRelaxed(i) << " overflow-drops "
           << overflowDropsRelaxed(i) << " backpressure-stalls "
           << (ring_ ? ring_->stalls(i) : 0) << "\n";
    }
    return os.str();
}

void
ExperimentFleet::attachTelemetry(telemetry::Sampler &sampler,
                                 bool board_progress)
{
    sampler.addValue("fleet.published", [this] { return published_; });
    sampler.addValue("fleet.tap_filtered",
                     [this] { return tapFiltered_; });
    sampler.addValue("fleet.tap_retry_dropped",
                     [this] { return tapRetryDropped_; });
    if (!board_progress)
        return;
    for (std::size_t i = 0; i < boards_.size(); ++i) {
        const std::string prefix =
            "fleet.board" + std::to_string(i) + ".";
        sampler.addValue(prefix + "events_consumed",
                         [this, i] { return eventsConsumedRelaxed(i); });
        sampler.addValue(prefix + "overflow_drops",
                         [this, i] { return overflowDropsRelaxed(i); });
        sampler.addValue(prefix + "ring_stalls", [this, i] {
            return ring_ ? ring_->stalls(i) : 0;
        });
    }
}

} // namespace memories::ies
