#include "ies/board.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "checkpoint/file.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "fault/injector.hh"
#include "profile/profiler.hh"

namespace memories::ies
{

MemoriesBoard::MemoriesBoard(const BoardConfig &config, std::uint64_t seed)
    : config_(config),
      buffer_(config.bufferEntries, config.sdramThroughputPercent),
      health_(config.health)
{
    config_.validate();
    for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
        nodes_.push_back(std::make_unique<NodeController>(
            static_cast<NodeId>(i), config_.nodes[i], seed));
    }
    if (config_.traceCapture)
        capture_.emplace(config_.traceCaptureRecords);

    hTenures_ = global_.add("global.tenures.memory");
    hCommitted_ = global_.add("global.tenures.committed");
    hFiltered_ = global_.add("global.tenures.filtered");
    hDroppedRetry_ = global_.add("global.tenures.dropped_retry");
    hReads_ = global_.add("global.reads");
    hWrites_ = global_.add("global.writes");
    hWritebacks_ = global_.add("global.writebacks");
    hRetriesPosted_ = global_.add("global.retries_posted");
    hLostInflight_ = global_.add("global.tenures.lost_inflight");
    hFaultDropped_ = global_.add("global.tenures.fault_dropped");
    hSampledOut_ = global_.add("global.tenures.sampled_out");
    hShed_ = global_.add("global.tenures.shed");
    hQuarantined_ = global_.add("global.tenures.quarantined");
    hHealthTransitions_ = global_.add("global.health.transitions");

    // All nodes share one line size (boardconfig validates geometries
    // against the same bounds); degraded sampling keys on it.
    healthLineShift_ = static_cast<unsigned>(
        log2i(config_.nodes.front().cache.lineSize));
    health_.onTransition([this](fault::HealthState from,
                                fault::HealthState to) {
        global_.bump(hHealthTransitions_);
        if (!recorder_)
            return;
        trace::LifecycleEvent ev;
        ev.kind = trace::EventKind::HealthTransition;
        ev.cycle = healthCycle_;
        ev.traceId = healthTraceId_;
        ev.board = boardId_;
        ev.arg0 = static_cast<std::uint8_t>(from);
        ev.arg1 = static_cast<std::uint8_t>(to);
        recorder_->record(ev);
        if (to == fault::HealthState::Degraded) {
            recorder_->notifyAnomaly(trace::AnomalyKind::HealthDegraded,
                                     healthCycle_, healthTraceId_);
        } else if (to == fault::HealthState::Quarantined) {
            recorder_->notifyAnomaly(trace::AnomalyKind::BoardQuarantined,
                                     healthCycle_, healthTraceId_);
        }
    });

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const unsigned machine = nodes_[i]->targetMachine();
        MachineGroup *group = nullptr;
        for (auto &g : machines_) {
            if (g.machine == machine) {
                group = &g;
                break;
            }
        }
        if (!group) {
            machines_.push_back(MachineGroup{machine, {}});
            group = &machines_.back();
        }
        group->nodes.push_back(static_cast<std::uint8_t>(i));
    }
    rebuildSerialSinks();
    rebuildShardScratch();
}

MemoriesBoard::~MemoriesBoard() = default;

std::unique_ptr<MemoriesBoard>
MemoriesBoard::make(const BoardConfig &config, std::uint64_t seed)
{
    return std::make_unique<MemoriesBoard>(config, seed);
}

void
MemoriesBoard::plugInto(bus::Bus6xx &bus)
{
    bus.attach(this);
    bus.attachObserver(this);
}

void
MemoriesBoard::unplug(bus::Bus6xx &bus)
{
    bus.detach(this);
    bus.detachObserver(this);
}

std::uint64_t
MemoriesBoard::retriesPosted() const
{
    return global_.value(hRetriesPosted_);
}

void
MemoriesBoard::attachFlightRecorder(trace::FlightRecorder &recorder,
                                    std::uint8_t boardId)
{
    recorder_ = &recorder;
    boardId_ = boardId;
    for (auto &node : nodes_)
        node->setFlightRecorder(&recorder, boardId);
    rebuildSerialSinks();
}

void
MemoriesBoard::detachFlightRecorder()
{
    recorder_ = nullptr;
    for (auto &node : nodes_)
        node->setFlightRecorder(nullptr);
    if (injector_)
        injector_->setFlightRecorder(nullptr);
    rebuildSerialSinks();
}

void
MemoriesBoard::attachFaultInjector(fault::FaultInjector &injector)
{
    injector_ = &injector;
    injector_->setFlightRecorder(recorder_, boardId_);
}

void
MemoriesBoard::detachFaultInjector()
{
    if (injector_)
        injector_->setFlightRecorder(nullptr);
    injector_ = nullptr;
}

void
MemoriesBoard::attachProfiler(profile::Profiler &profiler)
{
    prof_ = &profiler;
    prof_->bindShards(shardCount_);
}

void
MemoriesBoard::detachProfiler()
{
    prof_ = nullptr;
}

double
MemoriesBoard::shardSkew() const
{
    return profile::occupancySkew(shardItems_);
}

void
MemoriesBoard::resyncFrom(const MemoriesBoard &healthy)
{
    if (&healthy == this)
        fatal("a board cannot resync from itself");
    if (healthy.nodes_.size() != nodes_.size()) {
        fatal("resync source has ", healthy.nodes_.size(),
              " nodes but this board has ", nodes_.size());
    }
    // Round-trip each directory through the StateCodec and stage every
    // decoded state before touching anything, so a mismatch partway
    // through leaves this board intact.
    std::vector<NodeController::State> staged;
    staged.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (healthy.nodes_[i]->geometrySignature() !=
            nodes_[i]->geometrySignature()) {
            fatal("resync geometry mismatch at node ", i);
        }
        ckpt::Sink sink;
        healthy.nodes_[i]->saveDirectoryState(sink);
        ckpt::Source source(sink.bytes().data(), sink.size(),
                            "resync node " + std::to_string(i));
        staged.push_back(nodes_[i]->decodeDirectoryState(source));
        source.expectEnd();
    }
    // Buffered tenures predate the mirrored directories; retiring them
    // now would corrupt the copy, so they are lost in flight (keeping
    // committed == retired + lost_inflight).
    while (buffer_.drainUnpaced())
        global_.bump(hLostInflight_);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        nodes_[i]->restoreDirectoryState(staged[i]);
    health_.resync();
}

void
MemoriesBoard::drainDue(Cycle now)
{
    if (!batching_ || recorder_ || inlineEmulation_) {
        // Inline: the recorder sees Retire and node events in serial
        // order, and a pending scrub mutates state every shard would
        // race on.
        while (auto txn = buffer_.drain(now)) {
            if (recorder_)
                recorder_->record(
                    makeEvent(trace::EventKind::Retire, *txn, now));
            emulate(*txn);
        }
        if (inlineEmulation_)
            inlineEmulation_ = anyNodeCorruption();
        return;
    }
    // Queue everything due in one credit-earning pass. This is the
    // only per-tenure-frequency profiler hook, so it is sampled (1 in
    // 2^6 timed) instead of paying a clock pair every call.
    const std::size_t before = retireSlab_.size();
    if (prof_) {
        const std::uint64_t t0 =
            prof_->sampledBegin(profile::Stage::CreditPacing);
        buffer_.drainInto(now, retireSlab_);
        prof_->sampledEnd(profile::Stage::CreditPacing, t0);
    } else {
        buffer_.drainInto(now, retireSlab_);
    }
    if (shardCount_ > 1) {
        for (std::size_t k = before; k < retireSlab_.size(); ++k)
            buckets_[shardOf(retireSlab_[k].addr)].push_back(
                static_cast<std::uint32_t>(k));
    }
}

MemoriesBoard::Admission
MemoriesBoard::admit(bus::BusTransaction &t, bool live)
{
    // Address-filter FPGA: non-emulation operations (I/O register
    // accesses, interrupts, syncs) are dropped before they consume any
    // buffer space.
    if (bus::isFilteredOp(t.op)) {
        global_.bump(hFiltered_);
        return Admission::Filtered;
    }

    fault::FaultInjector::StreamFaults stream;
    if (injector_)
        stream = injector_->onTenure(t);
    healthCycle_ = t.cycle;
    healthTraceId_ = t.traceId;

    global_.bump(hTenures_);
    if (bus::isReadOp(t.op))
        global_.bump(hReads_);
    if (bus::isWriteIntentOp(t.op))
        global_.bump(hWrites_);
    if (t.op == bus::BusOp::WriteBack)
        global_.bump(hWritebacks_);

    if (stream.drop) {
        // Injected DropReply: the board never saw this tenure.
        global_.bump(hFaultDropped_);
        return Admission::Skipped;
    }

    // Let the SDRAM side catch up to this bus cycle before judging
    // buffer fullness.
    drainDue(t.cycle);

    if (health_.state() == fault::HealthState::Quarantined) {
        // The board is off the bus until an operator resyncs it; keep
        // draining what it already holds, accept nothing new.
        global_.bump(hQuarantined_);
        return Admission::Skipped;
    }

    if (health_.sampledOut(t.addr, healthLineShift_)) {
        // Degraded: shed load by sampling lines instead of dropping
        // arbitrary tenures.
        global_.bump(hSampledOut_);
        return Admission::Skipped;
    }

    if (buffer_.size() >= buffer_.effectiveCapacity(t.cycle)) {
        // Either the one non-passive behaviour the board has (a retry)
        // or, in a retry storm, backing off the bus and dropping the
        // tenure instead of wedging the host.
        const bool shed =
            health_.onOverflow() == fault::OverflowAction::Shed;
        global_.bump(shed ? hShed_ : hRetriesPosted_);
        if (recorder_) {
            auto ev = makeEvent(trace::EventKind::BufferOverflow, t,
                                t.cycle);
            ev.arg0 = live ? 0 : 1; // retried on the bus / fed and dropped
            recorder_->record(ev);
            recorder_->notifyAnomaly(
                live ? trace::AnomalyKind::TxnBufferOverflow
                     : trace::AnomalyKind::FleetDrop,
                t.cycle, t.traceId);
        }
        return shed ? Admission::Skipped : Admission::Overflow;
    }

    if (!live)
        commit(t, t.cycle + 1);
    return Admission::Accepted;
}

bus::SnoopResponse
MemoriesBoard::snoop(const bus::BusTransaction &txn)
{
    bus::BusTransaction t = txn;
    const Admission admission = admit(t, true);
    if (admission == Admission::Filtered)
        return bus::SnoopResponse::None;
    // An accepted tenure commits in observeResult() once the response
    // window shows no other agent retried it.
    pendingRetried_ = admission == Admission::Overflow;
    if (admission == Admission::Accepted)
        pending_ = t;
    else
        pending_.reset();
    return pendingRetried_ ? bus::SnoopResponse::Retry
                           : bus::SnoopResponse::None;
}

void
MemoriesBoard::observeResult(const bus::BusTransaction &txn,
                             bus::SnoopResponse combined)
{
    if (bus::isFilteredOp(txn.op))
        return;
    if (pendingRetried_) {
        // We retried it ourselves; the replay will come back.
        pendingRetried_ = false;
        return;
    }
    if (!pending_)
        return;

    if (combined == bus::SnoopResponse::Retry) {
        // Some other agent retried the tenure: it did not complete, so
        // the filter drops it (the replay will be processed instead).
        global_.bump(hDroppedRetry_);
        if (recorder_)
            recorder_->record(makeEvent(trace::EventKind::BoardDropRetry,
                                        txn, txn.cycle + 1));
        pending_.reset();
        return;
    }

    commit(*pending_, txn.cycle + 1);
    pending_.reset();
}

void
MemoriesBoard::commit(const bus::BusTransaction &txn, Cycle event_cycle)
{
    global_.bump(hCommitted_);
    if (recorder_)
        recorder_->record(makeEvent(trace::EventKind::BoardCommit, txn,
                                    event_cycle));
    if (capture_)
        capture_->record(txn);
    if (injector_)
        applyCommitFaults(txn);
    health_.onAdmit(buffer_.size(), buffer_.capacity());
    if (!buffer_.push(txn)) {
        // The capacity check passed when the tenure was snooped, but a
        // commit-time fault (slot loss) can shrink the buffer in
        // between. The hardware would have wedged here; the software
        // board counts the loss and carries on.
        global_.bump(hLostInflight_);
        if (recorder_) {
            auto ev = makeEvent(trace::EventKind::BufferOverflow, txn,
                                event_cycle);
            ev.arg0 = 2; // committed tenure lost in flight
            recorder_->record(ev);
            recorder_->notifyAnomaly(trace::AnomalyKind::TxnBufferOverflow,
                                     event_cycle, txn.traceId);
        }
    }
}

void
MemoriesBoard::applyCommitFaults(const bus::BusTransaction &txn)
{
    const fault::FaultInjector::CommitFaults faults =
        injector_->onCommit(txn);
    if (faults.stall)
        buffer_.injectStall(faults.stallUntil);
    if (faults.slotLoss)
        buffer_.injectSlotLoss(faults.slots, faults.slotsUntil);
    if (faults.tagFlip && !nodes_.empty()) {
        // The flip probes the live directory, so retirement emulation
        // queued behind it must land first; while the corruption
        // awaits its scrub, later retirements emulate inline on this
        // thread (the scrub mutates state every shard would race on).
        dispatchBuckets();
        nodes_[faults.tagNode % nodes_.size()]->corruptLine(
            txn.addr, faults.tagBit);
        inlineEmulation_ = anyNodeCorruption();
    }
}

bool
MemoriesBoard::feedCommitted(const bus::BusTransaction &txn)
{
    bus::BusTransaction t = txn;
    return admit(t, false) != Admission::Overflow;
}

void
MemoriesBoard::drainAll()
{
    while (auto txn = buffer_.drainUnpaced()) {
        if (recorder_)
            recorder_->record(
                makeEvent(trace::EventKind::Retire, *txn, txn->cycle));
        emulate(*txn);
    }
}

void
MemoriesBoard::emulate(const bus::BusTransaction &txn)
{
    emulateStep(txn, serialSinks_.data());
}

void
MemoriesBoard::emulateStep(const bus::BusTransaction &txn,
                           const EmuSink *sinks)
{
    // Lock-step emulation step: within each target machine (groups
    // precomputed at construction) the non-owning nodes snoop first
    // (their combined emulated response is the "resulting state from
    // other cache nodes" input of the requester's protocol table),
    // then the owning node applies its requester transition. Each
    // node's effects go to its sink — its own bank and the recorder
    // inline, a counter replica under the pool.
    for (const MachineGroup &m : machines_) {
        NodeController *owner = nullptr;
        const EmuSink *owner_sink = nullptr;
        auto emu_resp = bus::SnoopResponse::None;
        for (std::uint8_t n : m.nodes) {
            NodeController *node = nodes_[n].get();
            if (node->ownsCpu(txn.cpu)) {
                owner = node;
                owner_sink = &sinks[n];
            } else {
                emu_resp = bus::combineSnoop(
                    emu_resp, node->snoopRemote(txn, sinks[n]));
            }
        }
        if (owner)
            owner->processLocal(txn, emu_resp, *owner_sink);
    }
}

void
MemoriesBoard::emulateQueued(std::size_t shard)
{
    // A single shard walks the slab itself: its bucket would only ever
    // hold 0, 1, 2, ...
    const bool dense = shardCount_ == 1;
    const std::uint32_t *bucket = buckets_[shard].data();
    const std::size_t end =
        dense ? retireSlab_.size() : buckets_[shard].size();
    const EmuSink *sinks = shardSinks_[shard].data();
    // Pull the directory sets a few retirements ahead so the tag loads
    // overlap the current step's protocol work.
    constexpr std::size_t prefetch_dist = 8;
    for (std::size_t i = 0; i < end; ++i) {
        if (i + prefetch_dist < end) {
            const std::size_t ahead = i + prefetch_dist;
            const Addr addr =
                retireSlab_[dense ? ahead : bucket[ahead]].addr;
            for (const auto &node : nodes_)
                node->prefetchDirectory(addr);
        }
        emulateStep(retireSlab_[dense ? i : bucket[i]], sinks);
    }
}

void
MemoriesBoard::dispatchBuckets()
{
    if (retireSlab_.empty())
        return;
    const auto items = [this](std::size_t shard) {
        return shardCount_ > 1 ? buckets_[shard].size()
                               : retireSlab_.size();
    };
    for (std::size_t s = 0; s < shardCount_; ++s)
        shardItems_[s] += items(s);
    std::uint64_t disp_t0 = 0;
    if (prof_) {
        disp_t0 = profile::Profiler::nowNs();
        prof_->noteDispatch(disp_t0);
        for (std::size_t s = 0; s < shardCount_; ++s)
            prof_->noteShardItems(s, items(s));
    }
    const auto run = [this](std::size_t shard) {
        const std::uint64_t t0 = prof_ ? prof_->shardBegin(shard) : 0;
        emulateQueued(shard);
        if (prof_)
            prof_->shardEnd(shard, t0);
    };
    if (pool_)
        pool_->runAll(run);
    else
        run(0);
    if (prof_)
        prof_->recordStage(profile::Stage::ShardDispatch, disp_t0);
    retireSlab_.clear();
    if (!pool_)
        return;
    for (auto &bucket : buckets_)
        bucket.clear();
    // Fold the per-shard counter deltas into the node banks. Counter40
    // adds commute modulo 2^40, so folding at every join yields the
    // same bytes as one fold at the end — and as the serial path.
    profile::ScopedStage merge_scope(prof_,
                                     profile::Stage::CounterMerge);
    for (std::size_t s = 0; s < shardCount_; ++s)
        for (std::size_t n = 0; n < nodes_.size(); ++n)
            nodes_[n]->absorbShardCounters(shardCounters_[s][n]);
}

void
MemoriesBoard::rebuildSerialSinks()
{
    serialSinks_.clear();
    for (auto &node : nodes_)
        serialSinks_.push_back(EmuSink{node->counterData(), recorder_});
}

void
MemoriesBoard::rebuildShardScratch()
{
    shardItems_.assign(shardCount_, 0);
    buckets_.assign(shardCount_, {});
    shardCounters_.clear();
    shardSinks_.clear();
    shardCounters_.resize(shardCount_);
    shardSinks_.resize(shardCount_);
    for (std::size_t s = 0; s < shardCount_; ++s) {
        for (std::size_t n = 0; n < nodes_.size(); ++n) {
            if (shardCount_ > 1) {
                shardCounters_[s].emplace_back(
                    nodes_[n]->counterCount());
                shardSinks_[s].push_back(
                    EmuSink{shardCounters_[s][n].data(), nullptr});
            } else {
                // Single shard runs inline on the coordinator: write
                // the node banks directly, nothing to fold.
                shardSinks_[s].push_back(
                    EmuSink{nodes_[n]->counterData(), nullptr});
            }
        }
    }
}

bool
MemoriesBoard::anyNodeCorruption() const
{
    for (const auto &node : nodes_) {
        if (node->hasCorruption())
            return true;
    }
    return false;
}

std::size_t
MemoriesBoard::enableSharding(std::size_t shards)
{
    std::size_t want = 1;
    while (want * 2 <= shards && want < 64)
        want *= 2;
    // Containment: the key must be address bits that are part of the
    // set index of *every* node's directory, so two tenures that can
    // ever share a directory set always share a shard. Node i's
    // (sampled) set index covers address bits [lineShift_i + shift_i,
    // lineShift_i + shift_i + log2(sets_i)); the key window
    // [base, base + log2(want)) must sit inside all of them
    // (docs/SHARDING.md). Line sizes may differ per node, so this is
    // computed in absolute address-bit space.
    unsigned base = 0;
    unsigned min_top = 64;
    for (const auto &node : nodes_) {
        const unsigned lo =
            static_cast<unsigned>(
                log2i(node->config().cache.lineSize)) +
            node->samplingShift();
        const unsigned top =
            lo + static_cast<unsigned>(log2i(node->directorySets()));
        base = std::max(base, lo);
        min_top = std::min(min_top, top);
    }
    while (want > 1 && base + log2i(want) > min_top)
        want /= 2;

    shardCount_ = want;
    shardShift_ = base;
    shardMask_ = shardCount_ - 1;
    pool_ = shardCount_ > 1 ? std::make_unique<ShardPool>(shardCount_)
                            : nullptr;
    rebuildShardScratch();
    if (prof_)
        prof_->bindShards(shardCount_);
    return shardCount_;
}

void
MemoriesBoard::disableSharding()
{
    pool_.reset();
    shardCount_ = 1;
    shardShift_ = 0;
    shardMask_ = 0;
    rebuildShardScratch();
    if (prof_)
        prof_->bindShards(shardCount_);
}

std::size_t
MemoriesBoard::feedBatch(const bus::BusTransaction *txns,
                         std::size_t count, bool *accepted)
{
    const std::uint64_t prof_t0 =
        prof_ ? profile::Profiler::nowNs() : 0;
    if (prof_)
        prof_->beginBatch(count > 0 ? txns[0].cycle : 0);

    batching_ = true;
    inlineEmulation_ = anyNodeCorruption();
    std::size_t ok_count = 0;
    {
        profile::ScopedStage admission_scope(
            prof_, profile::Stage::BatchAdmission);
        for (std::size_t i = 0; i < count; ++i) {
            bus::BusTransaction t = txns[i];
            const bool ok = admit(t, false) != Admission::Overflow;
            if (accepted)
                accepted[i] = ok;
            ok_count += ok;
        }
    }
    dispatchBuckets();
    batching_ = false;
    if (prof_)
        prof_->endBatch(count > 0 ? txns[count - 1].cycle : 0,
                        prof_t0);
    return ok_count;
}

std::size_t
MemoriesBoard::feedBatch(const std::vector<bus::BusTransaction> &txns,
                         bool *accepted)
{
    return txns.empty() ? 0
                        : feedBatch(txns.data(), txns.size(), accepted);
}

void
MemoriesBoard::attachTelemetry(telemetry::Sampler &sampler,
                               const std::string &prefix)
{
    sampler.addBank(prefix, global_);
    for (const auto &node : nodes_)
        sampler.addBank(prefix, node->counters());
    sampler.addGauge(prefix + ".buffer.occupancy", [this] {
        return static_cast<double>(buffer_.size());
    });

    if (!occupancyHist_) {
        // Occupancy in 16-entry steps covers the 512-entry board buffer
        // exactly; latency buckets span 0..2047 cycles before the
        // overflow bin (a full buffer draining at 42% sits near 1200).
        occupancyHist_ = std::make_unique<telemetry::Histogram>(
            prefix + ".buffer.occupancy", 16, 32);
        commitLatencyHist_ = std::make_unique<telemetry::Histogram>(
            prefix + ".commit_latency_cycles", 64, 32);
        buffer_.setTelemetry(occupancyHist_.get(),
                             commitLatencyHist_.get());
    }
    sampler.addHistogram(*occupancyHist_);
    sampler.addHistogram(*commitLatencyHist_);
}

void
MemoriesBoard::clearCounters()
{
    global_.clearAll();
    for (auto &node : nodes_)
        node->clearCounters();
    std::fill(shardItems_.begin(), shardItems_.end(), 0);
}

void
MemoriesBoard::reset()
{
    clearCounters();
    for (auto &node : nodes_)
        node->resetDirectory();
    if (capture_)
        capture_->reset();
    buffer_.restoreState({});
    health_.restoreState({});
    pending_.reset();
    pendingRetried_ = false;
    healthCycle_ = 0;
    healthTraceId_ = 0;
    inlineEmulation_ = false;
}

std::string
MemoriesBoard::dumpStats() const
{
    std::ostringstream os;
    os << "=== MemorIES board ===\n";
    os << "memory tenures " << global_.value(hTenures_)
       << " committed " << global_.value(hCommitted_)
       << " filtered " << global_.value(hFiltered_)
       << " dropped-on-retry " << global_.value(hDroppedRetry_)
       << " retries-posted " << global_.value(hRetriesPosted_)
       << " lost-inflight " << global_.value(hLostInflight_) << "\n";
    os << "buffer high-water " << buffer_.highWater() << "/"
       << buffer_.capacity() << "\n";
    const std::uint64_t degraded = global_.value(hFaultDropped_) +
                                   global_.value(hSampledOut_) +
                                   global_.value(hShed_) +
                                   global_.value(hQuarantined_);
    if (health_.enabled() || degraded > 0 ||
        global_.value(hHealthTransitions_) > 0) {
        os << "health " << health_.describe() << ": fault-dropped "
           << global_.value(hFaultDropped_) << " sampled-out "
           << global_.value(hSampledOut_) << " shed "
           << global_.value(hShed_) << " quarantined "
           << global_.value(hQuarantined_) << " transitions "
           << global_.value(hHealthTransitions_) << "\n";
    }
    if (injector_)
        os << injector_->dumpStats();
    if (capture_) {
        os << "capture " << capture_->size() << "/"
           << capture_->capacity() << " records";
        if (capture_->dropped() > 0)
            os << " (LOSSY: " << capture_->dropped()
               << " references dropped after fill)";
        os << "\n";
    }
    for (const auto &node : nodes_) {
        const NodeStats s = node->stats();
        os << "node " << static_cast<unsigned>(node->id());
        if (!node->config().label.empty())
            os << " (" << node->config().label << ")";
        os << " [" << node->config().cache.describe() << ", "
           << node->config().protocol.name() << "]\n";
        os << "  refs " << s.localRefs << " hits " << s.localHits
           << " misses " << s.localMisses << " miss-ratio "
           << s.missRatio() << "\n";
        os << "  satisfied: cache " << s.satisfiedByCache << " mod-int "
           << s.satisfiedByModIntervention << " shr-int "
           << s.satisfiedByShrIntervention << " memory "
           << s.satisfiedByMemory << "\n";
        os << "  fills " << s.fills << " evictions clean "
           << s.evictionsClean << " dirty " << s.evictionsDirty
           << " remote-inv " << s.remoteInvalidations << "\n";
    }
    return os.str();
}

void
MemoriesBoard::saveState(ckpt::CheckpointWriter &writer) const
{
    {
        ckpt::Sink &sink = writer.section(ckpt::secBoard);
        sink.u64(nodes_.size());
        global_.saveState(sink);
        sink.u8(pending_ ? 1 : 0);
        if (pending_)
            bus::saveTransaction(sink, *pending_);
        sink.u8(pendingRetried_ ? 1 : 0);
        sink.u64(healthCycle_);
        sink.u32(healthTraceId_);
    }
    buffer_.saveState(writer.section(ckpt::secBuffer));
    health_.saveState(writer.section(ckpt::secHealth));
    if (injector_)
        injector_->saveState(writer.section(ckpt::secInjector));
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i]->saveState(writer.section(
            ckpt::secNodeBase + static_cast<std::uint32_t>(i)));
    }
}

void
MemoriesBoard::saveState(const std::string &path) const
{
    ckpt::CheckpointWriter writer;
    saveState(writer);
    writer.writeFile(path, config_.fingerprint());
}

void
MemoriesBoard::loadState(const ckpt::CheckpointImage &image)
{
    // Gate on the configuration fingerprint first: a checkpoint from a
    // differently-shaped board is rejected before any section decode.
    const std::vector<std::string> errors =
        config_.validationErrors(image.configFingerprint());
    if (!errors.empty()) {
        std::ostringstream os;
        os << "cannot restore checkpoint (" << errors.size()
           << " problem" << (errors.size() == 1 ? "" : "s") << "):";
        for (const std::string &e : errors)
            os << "\n  - " << e;
        fatal(os.str());
    }

    // The injector's RNG position is load-bearing state: restoring a
    // checkpoint taken with an injector into a board without one (or
    // vice versa) cannot resume deterministically.
    if (image.has(ckpt::secInjector) && !injector_) {
        fatal("checkpoint was taken with a fault injector attached; "
              "attach the same injector before restoring");
    }
    if (!image.has(ckpt::secInjector) && injector_) {
        fatal("checkpoint was taken without a fault injector but one "
              "is attached; detach it before restoring");
    }

    // Decode every section into staging state before mutating anything,
    // so any failure leaves the board untouched.
    ckpt::Source boardSrc = image.open(ckpt::secBoard);
    const std::uint64_t nodeCount = boardSrc.u64();
    if (nodeCount != nodes_.size()) {
        fatal(boardSrc.context(), ": checkpoint holds ", nodeCount,
              " nodes but this board has ", nodes_.size());
    }
    const std::vector<std::uint64_t> globalValues =
        global_.decodeState(boardSrc);
    const std::uint8_t hasPending = boardSrc.u8();
    if (hasPending > 1)
        fatal(boardSrc.context(), ": pending flag must be 0 or 1");
    std::optional<bus::BusTransaction> pending;
    if (hasPending)
        pending = bus::decodeTransaction(boardSrc);
    const bool pendingRetried = boardSrc.u8() != 0;
    const Cycle healthCycle = boardSrc.u64();
    const std::uint32_t healthTraceId = boardSrc.u32();
    boardSrc.expectEnd();

    ckpt::Source bufferSrc = image.open(ckpt::secBuffer);
    const TransactionBuffer::State bufferState =
        buffer_.decodeState(bufferSrc);
    bufferSrc.expectEnd();

    ckpt::Source healthSrc = image.open(ckpt::secHealth);
    const fault::HealthMonitor::State healthState =
        health_.decodeState(healthSrc);
    healthSrc.expectEnd();

    std::optional<fault::FaultInjector::State> injectorState;
    if (injector_) {
        ckpt::Source injectorSrc = image.open(ckpt::secInjector);
        injectorState = injector_->decodeState(injectorSrc);
        injectorSrc.expectEnd();
    }

    std::vector<NodeController::State> nodeStates;
    nodeStates.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        ckpt::Source nodeSrc = image.open(
            ckpt::secNodeBase + static_cast<std::uint32_t>(i));
        nodeStates.push_back(nodes_[i]->decodeState(nodeSrc));
        nodeSrc.expectEnd();
    }

    // Everything validated — commit the staged state.
    global_.restoreState(globalValues);
    pending_ = pending;
    pendingRetried_ = pendingRetried;
    healthCycle_ = healthCycle;
    healthTraceId_ = healthTraceId;
    buffer_.restoreState(bufferState);
    health_.restoreState(healthState);
    if (injector_)
        injector_->restoreState(*injectorState);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        nodes_[i]->restoreState(nodeStates[i]);
}

void
MemoriesBoard::loadState(const std::string &path)
{
    loadState(ckpt::CheckpointImage::fromFile(path));
}

BoardConfig
makeUniformBoard(std::size_t node_count, unsigned cpus_per_node,
                 const cache::CacheConfig &cache,
                 const std::string &protocol_name)
{
    BoardConfig cfg;
    CpuId next_cpu = 0;
    for (std::size_t n = 0; n < node_count; ++n) {
        NodeConfig node;
        node.cache = cache;
        node.protocol = protocol::makeBuiltinTable(protocol_name);
        node.targetMachine = 0;
        node.label = "node" + std::to_string(n);
        for (unsigned c = 0; c < cpus_per_node; ++c)
            node.cpus.push_back(next_cpu++);
        cfg.nodes.push_back(std::move(node));
    }
    return cfg;
}

BoardConfig
makeMultiConfigBoard(const std::vector<cache::CacheConfig> &caches,
                     unsigned cpus, const std::string &protocol_name)
{
    BoardConfig cfg;
    for (std::size_t i = 0; i < caches.size(); ++i) {
        NodeConfig node;
        node.cache = caches[i];
        node.protocol = protocol::makeBuiltinTable(protocol_name);
        node.targetMachine = static_cast<unsigned>(i);
        node.label = caches[i].describe();
        for (unsigned c = 0; c < cpus; ++c)
            node.cpus.push_back(static_cast<CpuId>(c));
        cfg.nodes.push_back(std::move(node));
    }
    return cfg;
}

} // namespace memories::ies
