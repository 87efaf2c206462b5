/**
 * @file
 * One node-controller FPGA: an emulated shared cache (L2/L3/remote)
 * serving a subset of the host CPUs.
 *
 * The controller keeps only tags and states in its directory (never
 * data), drives every transition through its loaded ProtocolTable, and
 * counts events in 40-bit counters exactly as the board does. Local
 * tenures (from CPUs this node owns) walk the requester map; tenures
 * from other nodes of the same target machine walk the snooper map and
 * produce the *emulated* snoop responses the requester map keys on.
 */

#ifndef MEMORIES_IES_NODECONTROLLER_HH
#define MEMORIES_IES_NODECONTROLLER_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bus/transaction.hh"
#include "cache/tagstore.hh"
#include "checkpoint/codec.hh"
#include "common/counters.hh"
#include "ies/boardconfig.hh"
#include "protocol/table.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{

/** Digest of a node's counters in ready-to-plot form. */
struct NodeStats
{
    std::uint64_t localRefs = 0;   //!< Read/Ifetch/Rwitm/DClaim tenures
    std::uint64_t localHits = 0;
    std::uint64_t localMisses = 0;
    /** L2-miss service-point breakdown (Figure 12). */
    std::uint64_t satisfiedByCache = 0;     //!< hit in this shared cache
    std::uint64_t satisfiedByModIntervention = 0;
    std::uint64_t satisfiedByShrIntervention = 0;
    std::uint64_t satisfiedByMemory = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictionsClean = 0;
    std::uint64_t evictionsDirty = 0;
    std::uint64_t remoteInvalidations = 0;
    std::uint64_t suppliedModified = 0;     //!< we intervened (dirty)
    std::uint64_t suppliedShared = 0;       //!< we intervened (clean)

    /** Miss ratio over local cacheable references. */
    double missRatio() const
    {
        return localRefs == 0
                   ? 0.0
                   : static_cast<double>(localMisses) /
                         static_cast<double>(localRefs);
    }
};

/** One emulated shared-cache node. */
class NodeController
{
  public:
    NodeController(NodeId id, const NodeConfig &config,
                   std::uint64_t seed = 1);

    /** True when @p cpu is one of this node's local processors. */
    bool ownsCpu(CpuId cpu) const
    {
        return (cpuMask_ & (std::uint64_t{1} << cpu)) != 0;
    }

    unsigned targetMachine() const { return config_.targetMachine; }
    NodeId id() const { return id_; }
    const NodeConfig &config() const { return config_; }

    /**
     * Local-requester path: apply the requester map given the combined
     * emulated snoop response @p emu_resp of the other nodes in this
     * target machine.
     */
    void processLocal(const bus::BusTransaction &txn,
                      bus::SnoopResponse emu_resp);

    /**
     * Remote-snoop path: apply the snooper map and return the emulated
     * response this node drives.
     */
    bus::SnoopResponse snoopRemote(const bus::BusTransaction &txn);

    /**
     * Pull the directory set for @p addr towards the cache ahead of an
     * emulation step (batch hot loop: issue these a few transactions
     * ahead so tag loads overlap the current step's work).
     */
    void prefetchDirectory(Addr addr) const
    {
        if (inSample(addr))
            directory_.prefetch(sampleAddr(addr));
    }

    /** Raw 40-bit counters ("console read"). */
    const CounterBank &counters() const { return counters_; }

    /** Digest for tables and plots. */
    NodeStats stats() const;

    /** Clear counters without touching the directory. */
    void clearCounters() { counters_.clearAll(); }

    /** Cold-start the directory (console reset). */
    void resetDirectory()
    {
        directory_.reset();
        corrupted_.clear();
    }

    /**
     * Fault hook (TagFlip): flip state bit @p bit of the directory
     * line holding @p addr. The stored state is left untouched — the
     * model is a parity-protected tag SRAM, so the corruption is
     * *detected* on the next access to the line, which scrubs it
     * (invalidates the entry, counts "parity.scrubs", and emits a
     * ParityScrub lifecycle event) and then proceeds as a miss.
     * @return true when the flip landed on a valid, in-sample line.
     */
    bool corruptLine(Addr addr, unsigned bit);

    /** Corrupt lines detected and invalidated by the parity check. */
    std::uint64_t parityScrubs() const
    {
        return counters_.value(hParityScrubs_);
    }

    /** Valid lines currently in the directory. */
    std::uint64_t directoryOccupancy() const
    {
        return directory_.occupancy();
    }

    /** Probe for tests: state of a line (Invalid if absent). */
    protocol::LineState probeState(Addr addr) const;

    /** Set-sampling shift this node runs with (0 = every set). */
    unsigned samplingShift() const { return config_.setSamplingShift; }

    /**
     * Visit every valid directory line as (lineAddr, state) — the
     * canonical directory traversal. Observational consumers (the
     * differential oracle, directorySnapshot) are built on it; exact
     * state capture goes through the StateCodec (saveState), which
     * additionally carries replacement metadata this visitor cannot
     * express.
     */
    void exportDirectory(
        const std::function<void(Addr, cache::LineStateRaw)> &fn) const
    {
        directory_.forEachValid(fn);
    }

    /**
     * Compatibility shim over exportDirectory(): directory contents as
     * (line address, state) pairs sorted by address, the materialized
     * form the differential oracle compares. Prefer exportDirectory()
     * in new code.
     */
    std::vector<std::pair<Addr, cache::LineStateRaw>>
    directorySnapshot() const
    {
        std::vector<std::pair<Addr, cache::LineStateRaw>> lines;
        exportDirectory([&](Addr addr, cache::LineStateRaw s) {
            lines.emplace_back(addr, s);
        });
        std::sort(lines.begin(), lines.end());
        return lines;
    }

    /** Geometry fingerprint used to validate checkpoints/resyncs. */
    std::uint64_t geometrySignature() const;

    /**
     * StateCodec: append this node's full state — geometry signature,
     * counter bank, pending parity scrubs, and the exact directory
     * (tags, states, recency stamps, PLRU bits, replacement RNGs) — to
     * @p sink.
     */
    void saveState(ckpt::Sink &sink) const;

    /** Decoded-but-unapplied node state (see decodeState). */
    struct State
    {
        std::vector<std::uint64_t> counters;
        std::vector<Addr> corrupted;
        cache::TagStore::State directory;
    };

    /**
     * Validate-only half of loadState: fatal() when the saved geometry
     * signature does not match this node's, no mutation.
     */
    State decodeState(ckpt::Source &source) const;

    /** Apply a state staged by decodeState(). */
    void restoreState(const State &state);

    /** StateCodec: decodeState + restoreState in one step. */
    void loadState(ckpt::Source &source) { restoreState(decodeState(source)); }

    /**
     * Directory-only codec half for the resync path: like saveState /
     * decodeState but without the counter bank (a resynced board keeps
     * its own counters; a restored board gets the saved ones).
     */
    void saveDirectoryState(ckpt::Sink &sink) const;
    State decodeDirectoryState(ckpt::Source &source) const;
    void restoreDirectoryState(const State &state);

    /** References that fell outside the sampled sets. */
    std::uint64_t unsampledRefs() const
    {
        return counters_.value(hUnsampled_);
    }

    /**
     * Emit lifecycle events (hit/miss, castout, protocol state
     * transition) into @p recorder, stamped with @p board (the fleet
     * board index, lifecycleNoOwner for a lone board) and this node's
     * id. Pass nullptr to detach. Costs one null check per tenure when
     * detached.
     */
    void setFlightRecorder(trace::FlightRecorder *recorder,
                           std::uint8_t board = trace::lifecycleNoOwner)
    {
        recorder_ = recorder;
        boardId_ = board;
    }

  private:
    /** Shared decode body of decodeState/decodeDirectoryState. */
    void decodeDirectoryInto(State &state, ckpt::Source &source) const;

    /** True when @p addr falls in a tracked (sampled) set. */
    bool inSample(Addr addr) const;

    /** Map an address into the reduced directory's index space. */
    Addr sampleAddr(Addr addr) const;

    /** Parity check: scrub @p sampled if a TagFlip landed on it. */
    void scrubIfCorrupt(Addr sampled, const bus::BusTransaction &txn);
    using LS = protocol::LineState;

    /** Build the common fields of a lifecycle event for @p txn. */
    trace::LifecycleEvent makeEvent(trace::EventKind kind,
                                    const bus::BusTransaction &txn) const
    {
        trace::LifecycleEvent ev;
        ev.kind = kind;
        ev.cycle = txn.cycle;
        ev.addr = txn.addr;
        ev.traceId = txn.traceId;
        ev.board = boardId_;
        ev.node = id_;
        ev.cpu = txn.cpu;
        ev.op = txn.op;
        return ev;
    }

    NodeId id_;
    NodeConfig config_;
    std::uint64_t cpuMask_ = 0;
    cache::TagStore directory_;
    protocol::ProtocolTable protocol_;
    CounterBank counters_;
    trace::FlightRecorder *recorder_ = nullptr;
    std::uint8_t boardId_ = trace::lifecycleNoOwner;

    /** Cached counter handles, hot-path indexed. */
    CounterBank::Handle hLocalHit_[bus::numBusOps];
    CounterBank::Handle hLocalMiss_[bus::numBusOps];
    CounterBank::Handle hRemoteSeen_[bus::numBusOps];
    CounterBank::Handle hSatCache_, hSatModInt_, hSatShrInt_, hSatMem_;
    CounterBank::Handle hFills_, hEvClean_, hEvDirty_;
    CounterBank::Handle hRemoteInv_, hRemoteDowngrade_;
    CounterBank::Handle hSupplyMod_, hSupplyShr_;
    CounterBank::Handle hLocalRefs_, hRemoteRefs_;
    CounterBank::Handle hUnsampled_;
    CounterBank::Handle hParityCorrupted_, hParityScrubs_;

    /** Sampled line addresses with an undetected injected tag flip. */
    std::vector<Addr> corrupted_;

    unsigned lineShift_ = 0;
    /** Low set-index bits that must be 0 for a tracked set. */
    std::uint64_t setSamplingMask_ = 0;
};

} // namespace memories::ies

#endif // MEMORIES_IES_NODECONTROLLER_HH
