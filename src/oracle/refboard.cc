#include "oracle/refboard.hh"

#include <algorithm>
#include <array>

#include "bus/busop.hh"
#include "checkpoint/file.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "protocol/state.hh"

namespace memories::oracle
{

using protocol::LineState;

namespace
{

/** 40-bit hardware counter width (common/counters.hh). */
constexpr std::uint64_t counterMask =
    (std::uint64_t{1} << 40) - 1;

} // namespace

RefBoard::RefBoard(const ies::BoardConfig &config, std::uint64_t seed,
                   RefMutation mutation)
    : config_(config), mutation_(mutation),
      capacity_(config.bufferEntries),
      throughputPercent_(config.sdramThroughputPercent)
{
    config_.validate();
    if (config_.health.enabled) {
        fatal("the oracle models the always-healthy hardware board; "
              "disable health monitoring to diff against it");
    }
    if (config_.traceCapture)
        fatal("the oracle does not model on-board trace capture");

    // The global-events bank, by the production board's names. Health
    // and fault counters exist (the name sets must match exactly) but
    // can never move: the paths that bump them are out of scope here.
    for (const char *name :
         {"global.tenures.memory", "global.tenures.committed",
          "global.tenures.filtered", "global.tenures.dropped_retry",
          "global.reads", "global.writes", "global.writebacks",
          "global.retries_posted", "global.tenures.lost_inflight",
          "global.tenures.fault_dropped", "global.tenures.sampled_out",
          "global.tenures.shed", "global.tenures.quarantined",
          "global.health.transitions"}) {
        counters_[name] = 0;
    }

    for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
        Node node;
        node.cfg = config_.nodes[i];
        node.lineShift = log2i(node.cfg.cache.lineSize);
        node.setSamplingMask = lowMask(node.cfg.setSamplingShift);
        // Set sampling shrinks the directory to 1/2^shift of the sets,
        // exactly as the production board builds its reduced TagStore.
        const std::uint64_t sampled_sets =
            (node.cfg.cache.sizeBytes >> node.cfg.setSamplingShift) /
            (node.cfg.cache.lineSize * node.cfg.cache.assoc);
        node.setMask = sampled_sets - 1;
        node.assoc = node.cfg.cache.assoc;
        node.seedBase = seed + i * 7919;
        node.prefix = "node" + std::to_string(i) + ".";

        // Pre-register every per-node counter name so the name sets
        // compare equal against the production banks even at zero.
        for (std::size_t op = 0; op < bus::numBusOps; ++op) {
            const std::string opname{
                bus::busOpName(static_cast<bus::BusOp>(op))};
            counters_[node.prefix + "local." + opname + ".hit"] = 0;
            counters_[node.prefix + "local." + opname + ".miss"] = 0;
            counters_[node.prefix + "remote." + opname + ".seen"] = 0;
        }
        for (const char *suffix :
             {"satisfied.cache", "satisfied.modified_intervention",
              "satisfied.shared_intervention", "satisfied.memory",
              "directory.fills", "directory.evictions.clean",
              "directory.evictions.dirty", "remote.invalidations",
              "remote.downgrades", "supplied.modified",
              "supplied.shared", "local.refs", "remote.refs",
              "unsampled.refs", "parity.corrupted", "parity.scrubs"}) {
            counters_[node.prefix + suffix] = 0;
        }
        nodes_.push_back(std::move(node));
    }
}

void
RefBoard::restoreFromCheckpoint(const ckpt::CheckpointImage &image)
{
    if (image.configFingerprint() != config_.fingerprint()) {
        fatal("oracle restore: checkpoint was taken under a different "
              "board configuration (fingerprint 0x", std::hex,
              image.configFingerprint(), " vs this board's 0x",
              config_.fingerprint(), std::dec, ")");
    }
    if (image.has(ckpt::secInjector)) {
        fatal("oracle restore: the checkpoint was taken with a fault "
              "injector attached; the oracle models the fault-free "
              "board only");
    }

    // Board meta section. Counter values are skipped, not restored:
    // from-checkpoint diffs compare deltas over the resumed stream.
    ckpt::Source meta = image.open(ckpt::secBoard);
    const std::uint64_t node_count = meta.u64();
    if (node_count != nodes_.size()) {
        fatal("oracle restore: checkpoint holds ", node_count,
              " nodes but this configuration has ", nodes_.size());
    }
    const std::uint64_t global_counters = meta.u64();
    for (std::uint64_t i = 0; i < global_counters; ++i)
        meta.u64();
    if (meta.u8() != 0) {
        fatal("oracle restore: the checkpoint holds an in-flight retry "
              "tenure; checkpoint at a quiescent feed point to diff "
              "from it");
    }
    meta.u8();  // retry latch: meaningless without a pending tenure
    meta.u64(); // health cycle (oracle configs have health disabled)
    meta.u32(); // next trace id (the oracle does not assign ids)
    meta.expectEnd();

    // Transaction buffer: FIFO contents plus the credit-pacing state.
    ckpt::Source buf = image.open(ckpt::secBuffer);
    const std::uint64_t inflight = buf.u64();
    if (inflight > capacity_) {
        fatal("oracle restore: ", inflight,
              " in-flight entries exceed this buffer's capacity of ",
              capacity_);
    }
    std::deque<bus::BusTransaction> fifo;
    for (std::uint64_t i = 0; i < inflight; ++i)
        fifo.push_back(bus::decodeTransaction(buf));
    const std::uint64_t last_earn = buf.u64();
    const std::uint64_t stall_until = buf.u64();
    const std::uint64_t loss_slots = buf.u64();
    const std::uint64_t loss_until = buf.u64();
    if (stall_until != 0 || loss_slots != 0 || loss_until != 0) {
        fatal("oracle restore: the checkpointed buffer carries "
              "stall/slot-loss fault state the oracle does not model");
    }
    const std::uint64_t credits = buf.u64();
    const std::uint64_t high_water = buf.u64();
    buf.u64(); // rejected total (the oracle counts retries_posted)
    const std::uint64_t retired = buf.u64();
    buf.expectEnd();

    // Node sections: decode each directory into staging first so a
    // malformed later section cannot leave the oracle half-restored.
    struct StagedNode
    {
        std::vector<std::uint64_t> frames;
        std::vector<std::uint8_t> plru;
        std::vector<std::array<std::uint64_t, 4>> rngWords;
    };
    std::vector<StagedNode> staged(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &node = nodes_[i];
        ckpt::Source src = image.open(
            ckpt::secNodeBase + static_cast<std::uint32_t>(i));
        src.u64(); // geometry signature: the fingerprint gate above
                   // already pins the full configuration
        const std::uint64_t node_counters = src.u64();
        for (std::uint64_t c = 0; c < node_counters; ++c)
            src.u64();
        const std::uint64_t corrupted = src.u64();
        if (corrupted != 0) {
            fatal("oracle restore: node ", i, " carries ", corrupted,
                  " parity-corrupted lines; the oracle models the "
                  "fault-free board only");
        }
        const std::uint64_t sets = node.setMask + 1;
        const std::uint64_t stride = 2ull * node.assoc;
        const std::uint64_t words = src.u64();
        if (words != sets * stride) {
            fatal("oracle restore: node ", i, " directory holds ",
                  words, " words but this geometry needs ",
                  sets * stride);
        }
        StagedNode &st = staged[i];
        st.frames.resize(words);
        for (std::uint64_t w = 0; w < words; ++w)
            st.frames[w] = src.u64();
        // The production TagStore sizes these arrays by policy: PLRU
        // bits exist only under TreePLRU, per-set RNG streams only
        // under Random. Mirror that exactly.
        const std::uint64_t want_plru =
            node.cfg.cache.policy ==
                    cache::ReplacementPolicy::TreePLRU
                ? sets
                : 0;
        const std::uint64_t plru_count = src.u64();
        if (plru_count != want_plru) {
            fatal("oracle restore: node ", i, " holds ", plru_count,
                  " PLRU entries but this geometry expects ",
                  want_plru);
        }
        st.plru.resize(plru_count);
        if (plru_count > 0)
            src.raw(st.plru.data(), plru_count);
        const std::uint64_t want_rng =
            node.cfg.cache.policy == cache::ReplacementPolicy::Random
                ? sets
                : 0;
        const std::uint64_t rng_count = src.u64();
        if (rng_count != want_rng) {
            fatal("oracle restore: node ", i, " holds ", rng_count,
                  " per-set RNG streams but this geometry expects ",
                  want_rng);
        }
        st.rngWords.resize(rng_count);
        for (std::uint64_t s = 0; s < rng_count; ++s) {
            for (std::uint64_t w = 0; w < 4; ++w)
                st.rngWords[s][w] = src.u64();
        }
        src.expectEnd();
    }

    // Everything decoded; commit. Only sets that differ from a
    // freshly-built one are materialized, preserving the lazy map.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        Node &node = nodes_[i];
        const StagedNode &st = staged[i];
        const std::uint64_t sets = node.setMask + 1;
        const std::uint64_t stride = 2ull * node.assoc;
        node.sets.clear();
        node.tick = 0;
        for (std::uint64_t s = 0; s < sets; ++s) {
            const std::uint64_t *block = &st.frames[s * stride];
            bool touched = !st.plru.empty() && st.plru[s] != 0;
            for (std::uint64_t w = 0; w < stride && !touched; ++w)
                touched = block[w] != 0;
            const Rng pristine(node.seedBase +
                               s * 0x9E3779B97F4A7C15ull);
            if (!touched && (st.rngWords.empty() ||
                             st.rngWords[s] == pristine.state()))
                continue;
            Set &set = node.sets[s];
            set.ways.resize(node.assoc);
            for (unsigned w = 0; w < node.assoc; ++w) {
                // Packed tag|state word: (line << 8) | state; stale
                // line/stamp bits of invalid frames restore too, so
                // future recency math matches the production board.
                Frame &frame = set.ways[w];
                frame.line = block[w] >> 8;
                frame.state = static_cast<std::uint8_t>(block[w] & 0xff);
                frame.stamp = block[node.assoc + w];
                if (frame.stamp > node.tick)
                    node.tick = frame.stamp;
            }
            set.plruBits = st.plru.empty() ? 0 : st.plru[s];
            // A materialized set must match what setFor() would build:
            // restore the checkpointed RNG stream under Random, the
            // pristine per-set seed otherwise.
            if (!st.rngWords.empty())
                set.rng.setState(st.rngWords[s]);
            else
                set.rng = pristine;
        }
    }

    fifo_ = std::move(fifo);
    lastEarnCycle_ = last_earn;
    credits_ = credits;
    highWater_ = static_cast<std::size_t>(high_water);
    retired_ = retired;
    retirements_.clear();
}

std::uint64_t &
RefBoard::slot(const std::string &name)
{
    const auto it = counters_.find(name);
    if (it == counters_.end())
        fatal("oracle counter '", name, "' was never registered");
    return it->second;
}

void
RefBoard::bump(const std::string &name, std::uint64_t n)
{
    slot(name) += n;
}

std::map<std::string, std::uint64_t>
RefBoard::counters() const
{
    std::map<std::string, std::uint64_t> masked;
    for (const auto &[name, value] : counters_)
        masked[name] = value & counterMask;
    return masked;
}

std::uint64_t
RefBoard::counter(std::string_view name) const
{
    const auto it = counters_.find(std::string(name));
    if (it == counters_.end())
        fatal("oracle has no counter named '", name, "'");
    return it->second & counterMask;
}

std::vector<std::pair<Addr, std::uint8_t>>
RefBoard::directorySnapshot(std::size_t node) const
{
    if (node >= nodes_.size())
        fatal("oracle directorySnapshot: node ", node, " out of range");
    std::vector<std::pair<Addr, std::uint8_t>> lines;
    const Node &n = nodes_[node];
    for (const auto &[set_index, set] : n.sets) {
        (void)set_index;
        for (const Frame &frame : set.ways) {
            if (frame.state != 0)
                lines.emplace_back(frame.line << n.lineShift,
                                   frame.state);
        }
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

bool
RefBoard::inSample(const Node &node, Addr addr) const
{
    return ((addr >> node.lineShift) & node.setSamplingMask) == 0;
}

Addr
RefBoard::sampleAddr(const Node &node, Addr addr) const
{
    if (node.cfg.setSamplingShift == 0)
        return addr;
    const Addr line = addr >> node.lineShift;
    return (line >> node.cfg.setSamplingShift) << node.lineShift;
}

RefBoard::Set &
RefBoard::setFor(Node &node, std::uint64_t line)
{
    const std::uint64_t index = line & node.setMask;
    Set &set = node.sets[index];
    if (set.ways.empty()) {
        set.ways.resize(node.assoc);
        // Same per-set seeding formula as the production TagStore
        // (golden-gamma offset per set index within the sampled
        // directory), so Random-policy victim draws stay in lockstep.
        set.rng = Rng(node.seedBase + index * 0x9E3779B97F4A7C15ull);
    }
    return set;
}

void
RefBoard::plruTouch(Set &set, unsigned way, unsigned assoc)
{
    // Point every tree node on the touched way's root->leaf path away
    // from it (bit clear = victim search goes left, set = right).
    unsigned node = 1;
    for (unsigned span = assoc / 2; span >= 1; span /= 2) {
        const unsigned dir = (way / span) & 1u ? 1u : 0u;
        if (dir)
            set.plruBits &= static_cast<std::uint8_t>(~(1u << node));
        else
            set.plruBits |= static_cast<std::uint8_t>(1u << node);
        node = 2 * node + dir;
        if (span == 1)
            break;
    }
}

unsigned
RefBoard::plruVictim(const Set &set, unsigned assoc)
{
    unsigned node = 1;
    unsigned way = 0;
    for (unsigned span = assoc / 2; span >= 1; span /= 2) {
        const unsigned dir = (set.plruBits >> node) & 1u;
        way += dir * span;
        node = 2 * node + dir;
        if (span == 1)
            break;
    }
    return way;
}

unsigned
RefBoard::victimWay(Node &node, Set &set)
{
    for (unsigned w = 0; w < node.assoc; ++w) {
        if (set.ways[w].state == 0)
            return w;
    }
    switch (node.cfg.cache.policy) {
      case cache::ReplacementPolicy::LRU:
      case cache::ReplacementPolicy::FIFO: {
        unsigned victim = 0;
        for (unsigned w = 1; w < node.assoc; ++w) {
            if (set.ways[w].stamp < set.ways[victim].stamp)
                victim = w;
        }
        return victim;
      }
      case cache::ReplacementPolicy::Random:
        return static_cast<unsigned>(set.rng.nextBounded(node.assoc));
      case cache::ReplacementPolicy::TreePLRU:
        return node.assoc == 1 ? 0 : plruVictim(set, node.assoc);
    }
    fatal("oracle: unknown replacement policy");
}

void
RefBoard::processLocal(Node &node, const bus::BusTransaction &raw_txn,
                       bus::SnoopResponse emu_resp)
{
    if (!inSample(node, raw_txn.addr)) {
        bump(node.prefix + "unsampled.refs");
        return;
    }
    const Addr addr = sampleAddr(node, raw_txn.addr);
    const std::uint64_t line = addr >> node.lineShift;
    const std::string opname{bus::busOpName(raw_txn.op)};

    Set &set = setFor(node, line);
    int hit_way = -1;
    for (unsigned w = 0; w < node.assoc; ++w) {
        if (set.ways[w].state != 0 && set.ways[w].line == line) {
            hit_way = static_cast<int>(w);
            break;
        }
    }
    if (hit_way >= 0) {
        // A hit refreshes recency: LRU restamps, tree-PLRU repoints
        // its bits; FIFO and Random keep their insertion order.
        if (node.cfg.cache.policy == cache::ReplacementPolicy::LRU) {
            set.ways[hit_way].stamp = ++node.tick;
        } else if (node.cfg.cache.policy ==
                       cache::ReplacementPolicy::TreePLRU &&
                   node.assoc > 1 &&
                   mutation_ != RefMutation::SkipPlruTouchOnHit) {
            plruTouch(set, static_cast<unsigned>(hit_way), node.assoc);
        }
    }
    const auto state = hit_way >= 0
                           ? static_cast<LineState>(set.ways[hit_way].state)
                           : LineState::Invalid;

    const bool is_reference =
        raw_txn.op == bus::BusOp::Read ||
        raw_txn.op == bus::BusOp::ReadIfetch ||
        raw_txn.op == bus::BusOp::Rwitm ||
        raw_txn.op == bus::BusOp::DClaim;
    if (is_reference)
        bump(node.prefix + "local.refs");

    bump(node.prefix + "local." + opname +
         (hit_way >= 0 ? ".hit" : ".miss"));

    // Service-point classification for data-bearing requests: a hit is
    // served here, a miss by whichever node intervened, else memory.
    if (raw_txn.op == bus::BusOp::Read ||
        raw_txn.op == bus::BusOp::ReadIfetch ||
        raw_txn.op == bus::BusOp::Rwitm) {
        if (hit_way >= 0) {
            bump(node.prefix + "satisfied.cache");
        } else if (emu_resp == bus::SnoopResponse::Modified) {
            bump(node.prefix + "satisfied.modified_intervention");
        } else if (emu_resp == bus::SnoopResponse::Shared) {
            bump(node.prefix + "satisfied.shared_intervention");
        } else {
            bump(node.prefix + "satisfied.memory");
        }
    }

    const auto &entry = node.cfg.protocol.requester(
        raw_txn.op, state, protocol::summarize(emu_resp));

    if (hit_way >= 0) {
        if (entry.next == LineState::Invalid)
            set.ways[hit_way].state = 0;
        else if (entry.next != state)
            set.ways[hit_way].state =
                static_cast<std::uint8_t>(entry.next);
        return;
    }

    if (entry.allocate && entry.next != LineState::Invalid) {
        bump(node.prefix + "directory.fills");
        const unsigned way = victimWay(node, set);
        Frame &frame = set.ways[way];
        if (frame.state != 0) {
            const auto victim_state = static_cast<LineState>(frame.state);
            bump(node.prefix + (protocol::isDirtyState(victim_state)
                                    ? "directory.evictions.dirty"
                                    : "directory.evictions.clean"));
            // The paper's passive-board limitation applies: the victim
            // is simply forgotten, nothing propagates downward.
        }
        frame.line = line;
        frame.state = static_cast<std::uint8_t>(entry.next);
        frame.stamp = ++node.tick;
        if (node.cfg.cache.policy == cache::ReplacementPolicy::TreePLRU &&
            node.assoc > 1)
            plruTouch(set, way, node.assoc);
    }
}

bus::SnoopResponse
RefBoard::snoopRemote(Node &node, const bus::BusTransaction &raw_txn)
{
    if (!inSample(node, raw_txn.addr)) {
        bump(node.prefix + "unsampled.refs");
        return bus::SnoopResponse::None;
    }
    const Addr addr = sampleAddr(node, raw_txn.addr);
    const std::uint64_t line = addr >> node.lineShift;
    const std::string opname{bus::busOpName(raw_txn.op)};

    bump(node.prefix + "remote." + opname + ".seen");
    bump(node.prefix + "remote.refs");

    // Snoops probe without touching recency.
    Set &set = setFor(node, line);
    Frame *frame = nullptr;
    for (unsigned w = 0; w < node.assoc; ++w) {
        if (set.ways[w].state != 0 && set.ways[w].line == line) {
            frame = &set.ways[w];
            break;
        }
    }
    if (!frame)
        return bus::SnoopResponse::None;

    const auto state = static_cast<LineState>(frame->state);
    const auto &entry = node.cfg.protocol.snooper(raw_txn.op, state);

    if (entry.next == LineState::Invalid) {
        frame->state = 0;
        bump(node.prefix + "remote.invalidations");
    } else if (entry.next != state &&
               mutation_ != RefMutation::DropSnooperDowngrade) {
        frame->state = static_cast<std::uint8_t>(entry.next);
        bump(node.prefix + "remote.downgrades");
    }

    if (entry.response == bus::SnoopResponse::Modified)
        bump(node.prefix + "supplied.modified");
    else if (entry.response == bus::SnoopResponse::Shared)
        bump(node.prefix + "supplied.shared");
    return entry.response;
}

void
RefBoard::emulate(const bus::BusTransaction &txn)
{
    // Lock-step semantics (paper 3.1): within each target-machine
    // group, every non-owning node snoops first and their responses
    // combine (strongest wins); then the owning node walks its
    // requester map with that combined emulated response. Groups are
    // visited in order of first appearance in the node list.
    std::vector<unsigned> machines;
    for (const Node &node : nodes_) {
        if (std::find(machines.begin(), machines.end(),
                      node.cfg.targetMachine) == machines.end())
            machines.push_back(node.cfg.targetMachine);
    }

    for (const unsigned machine : machines) {
        Node *owner = nullptr;
        auto emu_resp = bus::SnoopResponse::None;
        for (Node &node : nodes_) {
            if (node.cfg.targetMachine != machine)
                continue;
            const bool owns =
                txn.cpu < maxHostCpus &&
                std::find(node.cfg.cpus.begin(), node.cfg.cpus.end(),
                          txn.cpu) != node.cfg.cpus.end();
            if (owns) {
                owner = &node;
            } else {
                emu_resp = bus::combineSnoop(emu_resp,
                                             snoopRemote(node, txn));
            }
        }
        if (owner)
            processLocal(*owner, txn, emu_resp);
    }
}

void
RefBoard::drainDue(Cycle now)
{
    // Credit pacing (paper 3.3): the SDRAM side earns
    // throughputPercent credits per bus cycle and spends 100 per
    // retirement, never banking more than one buffer's worth.
    if (now > lastEarnCycle_) {
        credits_ += (now - lastEarnCycle_) * throughputPercent_;
        lastEarnCycle_ = now;
        const std::uint64_t cap =
            static_cast<std::uint64_t>(capacity_) * 100;
        if (credits_ > cap)
            credits_ = cap;
    }
    while (!fifo_.empty() && credits_ >= 100) {
        credits_ -= 100;
        const bus::BusTransaction txn = fifo_.front();
        fifo_.pop_front();
        ++retired_;
        retirements_.push_back(
            {txn.traceId, txn.addr, txn.op, txn.cpu, now});
        emulate(txn);
    }
}

bool
RefBoard::feedCommitted(const bus::BusTransaction &txn)
{
    // Address-filter FPGA: non-memory operations never reach a buffer.
    if (bus::isFilteredOp(txn.op)) {
        bump("global.tenures.filtered");
        return true;
    }

    bump("global.tenures.memory");
    if (bus::isReadOp(txn.op))
        bump("global.reads");
    if (bus::isWriteIntentOp(txn.op))
        bump("global.writes");
    if (txn.op == bus::BusOp::WriteBack)
        bump("global.writebacks");

    // Let the SDRAM side catch up before judging buffer fullness.
    drainDue(txn.cycle);

    if (fifo_.size() >= capacity_) {
        bump("global.retries_posted");
        return false;
    }

    bump("global.tenures.committed");
    fifo_.push_back(txn);
    if (fifo_.size() > highWater_)
        highWater_ = fifo_.size();
    return true;
}

void
RefBoard::drainAll()
{
    // End-of-run flush: the host has gone quiet, so pacing no longer
    // applies and everything buffered retires in order.
    while (!fifo_.empty()) {
        const bus::BusTransaction txn = fifo_.front();
        fifo_.pop_front();
        ++retired_;
        retirements_.push_back(
            {txn.traceId, txn.addr, txn.op, txn.cpu, txn.cycle});
        emulate(txn);
    }
}

} // namespace memories::oracle
