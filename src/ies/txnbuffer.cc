#include "ies/txnbuffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memories::ies
{

TransactionBuffer::TransactionBuffer(std::size_t entries,
                                     unsigned throughput_percent)
    : capacity_(entries), throughputPercent_(throughput_percent)
{
    if (entries == 0)
        fatal("transaction buffer needs at least one entry");
    if (throughput_percent == 0 || throughput_percent > 100)
        fatal("throughput percent must be in (0, 100]");
    ring_.resize(capacity_);
}

bool
TransactionBuffer::push(const bus::BusTransaction &txn)
{
    if (count_ >= effectiveCapacity(txn.cycle)) {
        ++rejected_;
        return false;
    }
    std::size_t slot = head_ + count_;
    if (slot >= capacity_)
        slot -= capacity_;
    ring_[slot] = txn;
    ++count_;
    if (count_ > highWater_)
        highWater_ = count_;
    if (occupancyHist_)
        occupancyHist_->record(count_);
    return true;
}

std::uint64_t
TransactionBuffer::creditsAt(std::uint64_t credits, Cycle last,
                             Cycle now) const
{
    if (now <= last)
        return credits;
    // An injected retirement stall suppresses credit earning for
    // the stalled span; the span is skipped, never paid back.
    Cycle from = last;
    if (from < stallUntil_)
        from = now < stallUntil_ ? now : stallUntil_;
    if (now > from)
        credits += (now - from) * throughputPercent_;
    // Cap banked credits at one buffer's worth of retirements so an
    // idle stretch cannot bank unbounded instant throughput.
    const std::uint64_t cap = static_cast<std::uint64_t>(capacity_) * 100;
    return credits > cap ? cap : credits;
}

void
TransactionBuffer::earn(Cycle now)
{
    if (now <= lastEarnCycle_)
        return;
    credits_ = creditsAt(credits_, lastEarnCycle_, now);
    lastEarnCycle_ = now;
}

std::size_t
TransactionBuffer::admissiblePrefix(const bus::BusTransaction *txns,
                                    std::size_t n) const
{
    // A copy of the pacing state, stepped record by record: earn up to
    // the record's cycle, retire everything the credits cover, then
    // push if a slot is free.
    std::uint64_t credits = credits_;
    Cycle last = lastEarnCycle_;
    std::size_t count = count_;
    for (std::size_t i = 0; i < n; ++i) {
        const bus::BusTransaction &txn = txns[i];
        if (bus::isFilteredOp(txn.op))
            continue;
        if (txn.cycle > last) {
            credits = creditsAt(credits, last, txn.cycle);
            last = txn.cycle;
        }
        const std::uint64_t retired =
            std::min<std::uint64_t>(count, credits / 100);
        count -= static_cast<std::size_t>(retired);
        credits -= retired * 100;
        if (count >= effectiveCapacity(txn.cycle))
            return i;
        ++count;
    }
    return n;
}

bus::BusTransaction
TransactionBuffer::popFront()
{
    bus::BusTransaction txn = ring_[head_];
    if (++head_ == capacity_)
        head_ = 0;
    --count_;
    ++retired_;
    return txn;
}

std::optional<bus::BusTransaction>
TransactionBuffer::drain(Cycle now)
{
    earn(now);
    if (count_ == 0 || credits_ < 100)
        return std::nullopt;
    credits_ -= 100;
    bus::BusTransaction txn = popFront();
    if (latencyHist_ && now >= txn.cycle)
        latencyHist_->record(now - txn.cycle);
    return txn;
}

std::size_t
TransactionBuffer::drainInto(Cycle now, std::vector<bus::BusTransaction> &out)
{
    earn(now);
    std::size_t drained = 0;
    while (count_ != 0 && credits_ >= 100) {
        credits_ -= 100;
        bus::BusTransaction txn = popFront();
        if (latencyHist_ && now >= txn.cycle)
            latencyHist_->record(now - txn.cycle);
        out.push_back(txn);
        ++drained;
    }
    return drained;
}

std::optional<bus::BusTransaction>
TransactionBuffer::drainUnpaced()
{
    if (count_ == 0)
        return std::nullopt;
    return popFront();
}

void
TransactionBuffer::saveState(ckpt::Sink &sink) const
{
    sink.u64(count_);
    for (std::size_t i = 0; i < count_; ++i) {
        std::size_t slot = head_ + i;
        if (slot >= capacity_)
            slot -= capacity_;
        bus::saveTransaction(sink, ring_[slot]);
    }
    sink.u64(lastEarnCycle_);
    sink.u64(stallUntil_);
    sink.u64(slotLossSlots_);
    sink.u64(slotLossUntil_);
    sink.u64(credits_);
    sink.u64(highWater_);
    sink.u64(rejected_);
    sink.u64(retired_);
}

TransactionBuffer::State
TransactionBuffer::decodeState(ckpt::Source &source) const
{
    State state;
    const std::uint64_t count = source.u64();
    if (count > capacity_) {
        fatal(source.context(), ": ", count,
              " in-flight entries exceed this buffer's capacity of ",
              capacity_);
    }
    state.entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        state.entries.push_back(bus::decodeTransaction(source));
    state.lastEarnCycle = source.u64();
    state.stallUntil = source.u64();
    state.slotLossSlots = source.u64();
    state.slotLossUntil = source.u64();
    state.credits = source.u64();
    const std::uint64_t cap = static_cast<std::uint64_t>(capacity_) * 100;
    if (state.credits > cap) {
        fatal(source.context(), ": ", state.credits,
              " banked credits exceed the earning cap of ", cap);
    }
    state.highWater = source.u64();
    if (state.highWater > capacity_) {
        fatal(source.context(), ": high-water mark ", state.highWater,
              " exceeds capacity ", capacity_);
    }
    state.rejected = source.u64();
    state.retired = source.u64();
    return state;
}

void
TransactionBuffer::restoreState(const State &state)
{
    head_ = 0;
    count_ = state.entries.size();
    for (std::size_t i = 0; i < count_; ++i)
        ring_[i] = state.entries[i];
    lastEarnCycle_ = state.lastEarnCycle;
    stallUntil_ = state.stallUntil;
    slotLossSlots_ = state.slotLossSlots;
    slotLossUntil_ = state.slotLossUntil;
    credits_ = state.credits;
    highWater_ = state.highWater;
    rejected_ = state.rejected;
    retired_ = state.retired;
}

} // namespace memories::ies
