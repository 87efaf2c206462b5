/**
 * @file
 * The board's transaction buffering and SDRAM pacing model.
 *
 * Paper section 3.3: the SDRAMs that implement the tag/state/LRU
 * directories sustain roughly 42% of the maximum 6xx bus bandwidth.
 * Transaction buffers (512 entries in the node-controller FPGAs) absorb
 * bursts above that rate; if they ever fill, the address filter posts a
 * retry on the bus — the only case in which MemorIES is not perfectly
 * passive (never observed in months of lab use at 2-20% utilization).
 *
 * The model: entries arrive stamped with their bus cycle; the SDRAM
 * side earns `throughputPercent` credits per 100 bus cycles and retires
 * one entry per 100 credits. Because all four node controllers run in
 * lock step (section 3.1), one buffer paces the whole board.
 */

#ifndef MEMORIES_IES_TXNBUFFER_HH
#define MEMORIES_IES_TXNBUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "bus/transaction.hh"
#include "checkpoint/codec.hh"
#include "common/types.hh"
#include "telemetry/histogram.hh"

namespace memories::ies
{

/** Bounded transaction FIFO with a rate-limited drain. */
class TransactionBuffer
{
  public:
    /**
     * @param entries            Capacity (board: 512).
     * @param throughput_percent Drain rate as % of bus bandwidth
     *                           (board: 42).
     */
    TransactionBuffer(std::size_t entries, unsigned throughput_percent);

    /**
     * Offer a transaction arriving at its stamped bus cycle.
     * @return false when the buffer is full (caller posts a bus retry).
     */
    bool push(const bus::BusTransaction &txn);

    /**
     * Earn drain credits up to bus cycle @p now and pop the next
     * retirable transaction, if any. Call repeatedly until it returns
     * nullopt to drain everything that is due.
     */
    std::optional<bus::BusTransaction> drain(Cycle now);

    /**
     * Batch drain: earn credits up to @p now once, then append every
     * retirable transaction to @p out in FIFO order. Byte-identical to
     * calling drain(now) until nullopt — the first drain call earns all
     * credits for the span, later same-cycle calls earn nothing.
     * @return the number of transactions appended.
     */
    std::size_t drainInto(Cycle now, std::vector<bus::BusTransaction> &out);

    /**
     * Pop everything regardless of credits (end-of-run flush: the host
     * has stopped issuing, so the SDRAM catches up in real time).
     */
    std::optional<bus::BusTransaction> drainUnpaced();

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return capacity_; }
    bool empty() const { return count_ == 0; }

    /**
     * Fault hook (RetirementStall): the SDRAM side earns no drain
     * credits for bus cycles before @p until — the stalled span is
     * skipped, never paid back. Extends any stall already active.
     */
    void injectStall(Cycle until)
    {
        if (until > stallUntil_)
            stallUntil_ = until;
    }

    /**
     * Fault hook (SlotLoss): @p slots entries of capacity are lost
     * until bus cycle @p until (at least one slot always survives). A
     * new fault replaces any previous one.
     */
    void injectSlotLoss(std::size_t slots, Cycle until)
    {
        slotLossSlots_ = slots;
        slotLossUntil_ = until;
    }

    /**
     * Mutation-free admission probe: the longest prefix of the @p n
     * tenures at @p txns this buffer would take, offered in order at
     * their own stamped cycles, without a rejection. Steps a copy of
     * the pacing state through earn()/drain()/push() one record at a
     * time (stall windows, slot-loss capacity, the banked-credit cap)
     * and skips filtered ops, as the board's address filter drops them
     * before they reach the buffer. Exact for a fault-free board: the
     * prefix is accepted whole and the next tenure would overflow.
     * Commit-time faults change the buffer mid-line, which no probe
     * can foresee. The IESSERV service layer prices paced feed lines
     * with this (docs/SERVICE.md).
     */
    std::size_t admissiblePrefix(const bus::BusTransaction *txns,
                                 std::size_t n) const;

    /** Capacity minus any slot-loss fault active at bus cycle @p now. */
    std::size_t effectiveCapacity(Cycle now) const
    {
        if (now >= slotLossUntil_ || slotLossSlots_ == 0)
            return capacity_;
        const std::size_t lost =
            slotLossSlots_ < capacity_ ? slotLossSlots_ : capacity_ - 1;
        return capacity_ - lost;
    }

    /** Deepest occupancy seen (board diagnostic counter). */
    std::size_t highWater() const { return highWater_; }

    /** Pushes rejected because the buffer was full. */
    std::uint64_t rejected() const { return rejected_; }

    /** Entries retired by the SDRAM side (paced or unpaced). */
    std::uint64_t retired() const { return retired_; }

    /**
     * Telemetry hook: record occupancy after every accepted push into
     * @p occupancy, and snoop-to-commit residency (retire cycle minus
     * arrival cycle) of every paced retirement into @p latency. Either
     * may be null; the caller retains ownership. Costs one null check
     * per push/drain when detached. Unpaced end-of-run flushes skip the
     * latency histogram (the host has stopped, so bus time is frozen
     * and residency is no longer meaningful).
     */
    void setTelemetry(telemetry::Histogram *occupancy,
                      telemetry::Histogram *latency)
    {
        occupancyHist_ = occupancy;
        latencyHist_ = latency;
    }

    /**
     * StateCodec: append the full pacing state — in-flight entries in
     * FIFO order, earned credits, fault windows (stall / slot loss) and
     * the diagnostic counters — to @p sink. Telemetry histogram
     * attachments are runtime wiring, not state, and are not saved.
     */
    void saveState(ckpt::Sink &sink) const;

    /** Decoded-but-unapplied buffer state (see decodeState). */
    struct State
    {
        std::vector<bus::BusTransaction> entries; //!< FIFO order
        Cycle lastEarnCycle = 0;
        Cycle stallUntil = 0;
        std::uint64_t slotLossSlots = 0;
        Cycle slotLossUntil = 0;
        std::uint64_t credits = 0;
        std::uint64_t highWater = 0;
        std::uint64_t rejected = 0;
        std::uint64_t retired = 0;
    };

    /**
     * Validate-only half of loadState: decode a saveState() payload
     * against this buffer's capacity without mutating anything;
     * fatal() on occupancy overflow, unknown bus ops, or credits
     * beyond the earning cap.
     */
    State decodeState(ckpt::Source &source) const;

    /** Apply a state staged by decodeState(). */
    void restoreState(const State &state);

    /** StateCodec: decodeState + restoreState in one step. */
    void loadState(ckpt::Source &source) { restoreState(decodeState(source)); }

  private:
    /** Earn drain credits for the span (lastEarnCycle_, now]. */
    void earn(Cycle now);

    /**
     * earn()'s arithmetic without the mutation: @p credits banked at
     * bus cycle @p last, grown to cycle @p now (stalled spans earn
     * nothing) and capped at one buffer's worth of retirements.
     */
    std::uint64_t creditsAt(std::uint64_t credits, Cycle last,
                            Cycle now) const;

    /** Pop the head entry (caller has checked count_ and credits). */
    bus::BusTransaction popFront();

    std::size_t capacity_;
    unsigned throughputPercent_;
    /** Fixed-size ring of capacity_ entries; head_ indexes the oldest. */
    std::vector<bus::BusTransaction> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    Cycle lastEarnCycle_ = 0;
    Cycle stallUntil_ = 0;         //!< injected retirement stall
    std::size_t slotLossSlots_ = 0; //!< injected capacity loss
    Cycle slotLossUntil_ = 0;
    std::uint64_t credits_ = 0; //!< hundredths of a retirement
    std::size_t highWater_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t retired_ = 0;
    telemetry::Histogram *occupancyHist_ = nullptr;
    telemetry::Histogram *latencyHist_ = nullptr;
};

} // namespace memories::ies

#endif // MEMORIES_IES_TXNBUFFER_HH
