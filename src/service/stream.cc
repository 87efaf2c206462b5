#include "service/stream.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/units.hh"
#include "service/wire.hh"
#include "trace/record.hh"
#include "trace/tracefile.hh"

namespace memories::service
{

namespace
{

std::uint64_t
parseCount(const std::string &token, const char *what)
{
    std::uint64_t value = 0;
    switch (parseDecimal(token, value)) {
      case DecimalParse::Ok:
        return value;
      case DecimalParse::Malformed:
        fatal("bad ", what, " '", token, "'");
      case DecimalParse::OutOfRange:
        break;
    }
    fatal(what, " '", token, "' is out of range");
}

ies::MemoriesBoard &
requireBoard(ies::Console &console, const char *family)
{
    if (!console.initialized())
        fatal(family, " requires an initialized board; run init first");
    return *console.board();
}

} // namespace

ies::MemoriesBoard &
StreamIngest::addTwin(const ies::BoardConfig &config, std::uint64_t seed,
                      const std::string &label)
{
    twins_.push_back({ies::MemoriesBoard::make(config, seed), label, seed});
    return *twins_.back().board;
}

std::string
StreamIngest::resyncFromTwin(ies::MemoriesBoard &board)
{
    // resyncFrom() refuses a source with retirements still queued, and
    // settles the board itself.
    for (const Twin &twin : twins_)
        twin.board->emulateQueued();
    const std::uint64_t want = board.config().fingerprint();
    for (std::size_t i = 0; i < twins_.size(); ++i) {
        const ies::MemoriesBoard &twin = *twins_[i].board;
        if (twin.healthState() == fault::HealthState::Healthy &&
            twin.config().fingerprint() == want) {
            board.resyncFrom(twin);
            ++resyncs_;
            return "resynced from twin " + std::to_string(i) + " '" +
                   twins_[i].label + "'";
        }
    }
    return "";
}

StreamIngest::State
StreamIngest::state() const
{
    State s;
    s.prevCycle = prevCycle_;
    s.paced = paced_;
    s.refsOffered = refsOffered_;
    s.refsAttempted = refsAttempted_;
    s.refsAccepted = refsAccepted_;
    s.backpressure = backpressure_;
    s.overflowDrops = overflowDrops_;
    s.feedLines = feedLines_;
    s.resyncs = resyncs_;
    return s;
}

void
StreamIngest::restore(const State &state)
{
    prevCycle_ = state.prevCycle;
    paced_ = state.paced;
    refsOffered_ = state.refsOffered;
    refsAttempted_ = state.refsAttempted;
    refsAccepted_ = state.refsAccepted;
    backpressure_ = state.backpressure;
    overflowDrops_ = state.overflowDrops;
    feedLines_ = state.feedLines;
    resyncs_ = state.resyncs;
}

std::size_t
StreamIngest::deferredRetirements(ies::Console &console) const
{
    if (!console.initialized())
        return 0;
    std::size_t most = console.board()->queuedRetirements();
    for (const Twin &twin : twins_)
        most = std::max(most, twin.board->queuedRetirements());
    return most;
}

bool
StreamIngest::emulateDeferred(ies::Console &console, std::size_t max)
{
    if (!console.initialized())
        return false;
    bool left = console.board()->emulateQueued(max) != 0;
    for (const Twin &twin : twins_)
        left |= twin.board->emulateQueued(max) != 0;
    return left;
}

std::size_t
StreamIngest::feedAttempted(ies::Console &console,
                            const bus::BusTransaction *txns, std::size_t n,
                            bool defer, std::string &notes)
{
    // Deferred, a board only admits; a profiled board still emulates
    // inline, so its feed_batch stage encloses the emulation.
    auto feed = [&](ies::MemoriesBoard &board) {
        return defer && !board.profiler() ? board.admitBatch(txns, n)
                                          : board.feedBatch(txns, n);
    };
    ies::MemoriesBoard &board = *console.board();
    const std::size_t accepted = feed(board);
    // Twin boards see the identical attempted sequence (the session's
    // fan-out); their own buffers decide what they keep.
    for (const Twin &twin : twins_)
        feed(*twin.board);

    refsAttempted_ += n;
    refsAccepted_ += accepted;
    overflowDrops_ += n - accepted;
    prevCycle_ = txns[n - 1].cycle;

    // Health ladder: a quarantined board is pulled back from the first
    // healthy same-fingerprint twin; with no twin the session is done.
    if (board.healthState() == fault::HealthState::Quarantined) {
        const std::string resynced = resyncFromTwin(board);
        if (resynced.empty()) {
            evictRequested_ = true;
            fatal("quarantined: no healthy twin to resync from; "
                  "session must be evicted");
        }
        notes += "\n" + resynced;
    }
    return accepted;
}

std::string
StreamIngest::handleFeed(ies::Console &console,
                         const std::vector<std::string> &tokens)
{
    ies::MemoriesBoard &board = requireBoard(console, "feed");
    if (tokens.size() < 2)
        fatal("usage: feed <hex16> [<hex16> ...]");
    const std::size_t n = tokens.size() - 1;
    if (n > maxBatch_)
        fatal("feed of ", n, " records exceeds the session batch limit ",
              maxBatch_);

    // Unpack the whole line along the session's cycle chain, so a bad
    // token anywhere rejects the line before any state changes.
    txns_.clear();
    Cycle prev = prevCycle_;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto raw = decodeRecordHex(tokens[i]);
        if (!raw)
            fatal("bad record token '", tokens[i],
                  "' (want 16 lower-case hex digits)");
        txns_.push_back(trace::BusRecord(*raw).unpack(prev));
        prev = txns_.back().cycle;
    }

    ++feedLines_;
    refsOffered_ += n;

    // Admission: paced mode admits the prefix the credit-paced buffer
    // takes record by record at the records' own cycles; the tail is
    // re-sent by the client. Raw mode attempts the whole line exactly
    // once (overflow drops and all).
    const std::size_t attempted =
        paced_ ? board.admissiblePrefix(txns_.data(), n) : n;
    if (attempted == 0) {
        ++backpressure_;
        return "fed 0 accepted 0 of " + std::to_string(n);
    }
    std::string notes;
    const std::size_t accepted =
        feedAttempted(console, txns_.data(), attempted, /*defer=*/true,
                      notes);
    return "fed " + std::to_string(attempted) + " accepted " +
           std::to_string(accepted) + " of " + std::to_string(n) + notes;
}

std::string
StreamIngest::handleDrain(ies::Console &console)
{
    ies::MemoriesBoard &board = requireBoard(console, "drain");
    board.drainAll();
    for (const Twin &twin : twins_)
        twin.board->drainAll();
    return "drained buffer " + std::to_string(board.bufferSize()) +
           " retired " + std::to_string(board.bufferRetired());
}

std::string
StreamIngest::replayFile(ies::Console &console, const std::string &path)
{
    requireBoard(console, "stream replay");
    trace::TraceReader reader(path);
    std::uint64_t replayed = 0;
    std::uint64_t accepted = 0;
    std::vector<bus::BusTransaction> chunk;
    chunk.reserve(maxBatch_);
    bus::BusTransaction txn;
    bool more = reader.next(txn);
    std::string notes;
    while (more) {
        chunk.clear();
        while (chunk.size() < maxBatch_ && more) {
            chunk.push_back(txn);
            more = reader.next(txn);
        }
        // A captured trace is already paced by its recorded
        // inter-arrival deltas, so replay always attempts each record
        // exactly once (raw semantics) — there is no client to
        // back-pressure.
        refsOffered_ += chunk.size();
        ++feedLines_;
        replayed += chunk.size();
        accepted += feedAttempted(console, chunk.data(), chunk.size(),
                                  false, notes);
    }
    std::string reply = "replayed " + std::to_string(replayed) +
                        " accepted " + std::to_string(accepted) +
                        " dropped " + std::to_string(replayed - accepted);
    return reply + notes;
}

std::string
StreamIngest::handleStream(ies::Console &console,
                           const std::vector<std::string> &tokens)
{
    if (tokens.size() == 1 || tokens[1] == "status") {
        std::ostringstream os;
        os << "pace " << (paced_ ? "on" : "off") << "\n"
           << "prev-cycle " << prevCycle_ << "\n"
           << "offered " << refsOffered_ << " attempted " << refsAttempted_
           << " accepted " << refsAccepted_ << "\n"
           << "backpressure " << backpressure_ << " overflow-drops "
           << overflowDrops_ << " feed-lines " << feedLines_
           << " resyncs " << resyncs_;
        return os.str();
    }
    const std::string &sub = tokens[1];
    if (sub == "pace") {
        if (tokens.size() != 3 ||
            (tokens[2] != "on" && tokens[2] != "off"))
            fatal("usage: stream pace on|off");
        paced_ = tokens[2] == "on";
        return std::string("pace ") + (paced_ ? "on" : "off");
    }
    if (sub == "reset") {
        prevCycle_ = 0;
        refsOffered_ = refsAttempted_ = refsAccepted_ = 0;
        backpressure_ = overflowDrops_ = feedLines_ = resyncs_ = 0;
        return "stream reset";
    }
    if (sub == "replay") {
        if (tokens.size() != 3)
            fatal("usage: stream replay <path>");
        return replayFile(console, tokens[2]);
    }
    fatal("usage: stream [status|pace on|off|reset|replay <path>]");
}

std::string
StreamIngest::handleFleet(ies::Console &console,
                          const std::vector<std::string> &tokens)
{
    if (tokens.size() == 1 || tokens[1] == "list" ||
        tokens[1] == "status") {
        if (twins_.empty())
            return "fleet empty";
        std::ostringstream os;
        for (std::size_t i = 0; i < twins_.size(); ++i) {
            if (i)
                os << "\n";
            os << i << " '" << twins_[i].label << "' seed "
               << twins_[i].seed << " health "
               << fault::healthStateName(twins_[i].board->healthState());
        }
        return os.str();
    }
    const std::string &sub = tokens[1];
    if (sub == "add") {
        ies::MemoriesBoard &board = requireBoard(console, "fleet add");
        if (tokens.size() > 4)
            fatal("usage: fleet add [label] [seed]");
        const std::size_t index = twins_.size();
        const std::string label =
            tokens.size() >= 3 ? tokens[2] : "twin" + std::to_string(index);
        const std::uint64_t seed =
            tokens.size() == 4 ? parseCount(tokens[3], "seed") : 1;
        addTwin(board.config(), seed, label);
        return "fleet board " + std::to_string(index) + " '" + label +
               "' added";
    }
    if (sub == "counters" || sub == "stats") {
        if (tokens.size() != 3)
            fatal("usage: fleet ", sub, " <index>");
        const std::size_t i =
            static_cast<std::size_t>(parseCount(tokens[2], "fleet index"));
        if (i >= twins_.size())
            fatal("fleet index ", i, " out of range (", twins_.size(),
                  " boards)");
        return twins_[i].board->dumpStats();
    }
    if (sub == "resync") {
        const std::string resynced =
            resyncFromTwin(requireBoard(console, "fleet resync"));
        if (resynced.empty())
            fatal("no healthy same-fingerprint twin to resync from");
        return resynced;
    }
    fatal("usage: fleet [add [label] [seed]|list|counters <i>|resync]");
}

void
StreamIngest::registerCommands(ies::Console &console)
{
    console.registerCommand(
        "feed", [this](ies::Console &c,
                       const std::vector<std::string> &tokens) {
            return handleFeed(c, tokens);
        });
    console.registerCommand(
        "drain",
        [this](ies::Console &c, const std::vector<std::string> &) {
            return handleDrain(c);
        });
    console.registerCommand(
        "stream", [this](ies::Console &c,
                         const std::vector<std::string> &tokens) {
            return handleStream(c, tokens);
        });
    console.registerCommand(
        "fleet", [this](ies::Console &c,
                        const std::vector<std::string> &tokens) {
            return handleFleet(c, tokens);
        });
}

} // namespace memories::service
