/**
 * @file
 * Event counters modelled on the MemorIES board's counter fabric.
 *
 * The board implements more than 400 counters, each 40 bits wide; at 20%
 * utilization of a 100 MHz bus a 40-bit counter holds more than 30 hours
 * of events before wrapping (paper section 3). Counter40 reproduces that
 * width exactly, including wraparound, and CounterBank groups named
 * counters for one FPGA/node so the console can dump them.
 */

#ifndef MEMORIES_COMMON_COUNTERS_HH
#define MEMORIES_COMMON_COUNTERS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/codec.hh"

namespace memories
{

/** A single 40-bit hardware event counter; increments wrap at 2^40. */
class Counter40
{
  public:
    static constexpr std::uint64_t widthBits = 40;
    static constexpr std::uint64_t mask = (std::uint64_t{1} << widthBits) - 1;

    Counter40() = default;

    /** Add @p n events (default one), wrapping at 40 bits. */
    void add(std::uint64_t n = 1) { value_ = (value_ + n) & mask; }

    /** Raw 40-bit value. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero (console "clear counters" command). */
    void clear() { value_ = 0; }

    /**
     * Events elapsed between two reads of the same counter, exact as
     * long as fewer than 2^40 events happened in between — the windowed
     * sampling the console performs live (paper section 3: the counter
     * width buys >30 hours between mandatory polls).
     */
    static constexpr std::uint64_t delta(std::uint64_t newer,
                                         std::uint64_t older)
    {
        return (newer - older) & mask;
    }

  private:
    std::uint64_t value_ = 0;
};

/** Handle identifying one counter within a CounterBank. */
using CounterHandle = std::uint32_t;

/** One counter's state as read out by CounterBank::snapshot(). */
struct CounterSample
{
    std::string_view name;
    CounterHandle handle = 0;
    std::uint64_t value = 0;
};

/**
 * A set of named 40-bit counters with stable integer handles.
 *
 * Handles are allocated up front (when the FPGA personality is
 * configured) so the per-event hot path is a plain array increment.
 */
class CounterBank
{
  public:
    using Handle = CounterHandle;

    /**
     * Register a counter and return its handle.
     * Registering a duplicate name returns the existing handle.
     */
    Handle add(std::string_view name);

    /** Increment counter @p h by @p n. */
    void bump(Handle h, std::uint64_t n = 1) { counters_[h].add(n); }

    /** Value of counter @p h. */
    std::uint64_t value(Handle h) const { return counters_[h].value(); }

    /** Look up a counter value by name; fatal() if absent. */
    std::uint64_t valueByName(std::string_view name) const;

    /** True when a counter with @p name exists. */
    bool has(std::string_view name) const;

    /** Handle for @p name; fatal() if absent. */
    Handle handle(std::string_view name) const;

    /** Number of registered counters. */
    std::size_t size() const { return counters_.size(); }

    /** Name of counter @p h. */
    const std::string &name(Handle h) const { return names_[h]; }

    /** Zero every counter. */
    void clearAll();

    /**
     * The canonical traversal API: invoke @p visit with each
     * CounterSample in handle order without materializing a vector.
     * Everything that reads counters out of a bank — dump(), the CSV
     * exporters, the telemetry sampler, the differential oracle, and
     * the checkpoint codec (saveState) — consumes this one visitor.
     */
    template <typename Visitor>
    void snapshot(Visitor &&visit) const
    {
        for (std::size_t i = 0; i < counters_.size(); ++i) {
            visit(CounterSample{names_[i], static_cast<Handle>(i),
                                counters_[i].value()});
        }
    }

    /**
     * Compatibility shim over the visitor overload for callers that
     * want a materialized vector. Prefer the visitor form in new code
     * (it is the single traversal the StateCodec is defined against).
     */
    std::vector<CounterSample> snapshot() const;

    /** Render "name value" lines: a thin formatter over snapshot(). */
    std::string dump() const;

    /**
     * StateCodec: append this bank's state (count + 40-bit values, in
     * handle order) to @p sink. Names are not serialized — the bank
     * layout is part of the board configuration the checkpoint header
     * fingerprints, so the value array alone pins the state.
     */
    void saveState(ckpt::Sink &sink) const;

    /**
     * StateCodec: restore a bank saved by saveState(). Fails closed —
     * fatal() without touching any counter when the stored count does
     * not match size() or a value exceeds the 40-bit width.
     */
    void loadState(ckpt::Source &source)
    {
        restoreState(decodeState(source));
    }

    /**
     * Validate-only half of loadState: decode and bounds-check the
     * value array without touching this bank. Containers that must
     * stay untouched on *any* section failure (MemoriesBoard) decode
     * every component first and apply the staged values after.
     */
    std::vector<std::uint64_t> decodeState(ckpt::Source &source) const;

    /** Apply values staged by decodeState(). */
    void restoreState(const std::vector<std::uint64_t> &values);

  private:
    std::vector<Counter40> counters_;
    std::vector<std::string> names_;
};

} // namespace memories

#endif // MEMORIES_COMMON_COUNTERS_HH
