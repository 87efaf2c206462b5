#include "ies/console.hh"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <map>
#include <sstream>

#include "checkpoint/file.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "ies/analysis.hh"
#include "profile/profexport.hh"
#include "profile/profiler.hh"
#include "telemetry/exporter.hh"
#include "trace/chrometrace.hh"
#include "trace/tracefile.hh"

namespace memories::ies
{

namespace
{

/**
 * Internal exporter behind the console's "monitor" command: keeps a
 * formatted view of the most recent closed window — per-node miss
 * ratios computed from window *deltas* (the live readout the hardware
 * console gave the operator) plus bus activity.
 */
class MonitorView final : public telemetry::Exporter
{
  public:
    void exportWindow(const telemetry::WindowRecord &w) override
    {
        struct NodeWindow
        {
            std::uint64_t hits = 0;
            std::uint64_t misses = 0;
        };
        std::map<std::string, NodeWindow> nodes;
        std::uint64_t busTenures = 0;
        bool sawBus = false;

        for (const auto &c : w.counters) {
            const std::string &name = *c.name;
            if (name == "bus.tenures") {
                busTenures = c.delta;
                sawBus = true;
                continue;
            }
            // Per-node references look like
            // "<prefix>.nodeN.local.<op>.hit|miss".
            const auto local = name.find(".local.");
            if (local == std::string::npos)
                continue;
            const auto node = name.rfind("node", local);
            if (node == std::string::npos)
                continue;
            NodeWindow &nw = nodes[name.substr(node, local - node)];
            if (name.size() >= 4 &&
                name.compare(name.size() - 4, 4, ".hit") == 0)
                nw.hits += c.delta;
            else if (name.size() >= 5 &&
                     name.compare(name.size() - 5, 5, ".miss") == 0)
                nw.misses += c.delta;
        }

        std::ostringstream os;
        os << "window " << w.index << " [" << w.beginCycle << ", "
           << w.endCycle << ")";
        if (sawBus) {
            const Cycle span = w.endCycle - w.beginCycle;
            os << " bus tenures " << busTenures;
            if (span > 0) {
                os << " utilization " << std::fixed
                   << std::setprecision(1)
                   << 100.0 * static_cast<double>(busTenures) /
                          static_cast<double>(span)
                   << "%";
            }
        }
        os << "\n";
        for (const auto &[label, nw] : nodes) {
            const std::uint64_t refs = nw.hits + nw.misses;
            os << "  " << label << ": refs " << refs << " misses "
               << nw.misses << " miss-ratio ";
            if (refs == 0) {
                os << "n/a";
            } else {
                os << std::fixed << std::setprecision(4)
                   << static_cast<double>(nw.misses) /
                          static_cast<double>(refs);
            }
            os << "\n";
        }
        latest_ = os.str();
    }

    const std::string &latest() const { return latest_; }

  private:
    std::string latest_;
};

} // namespace

/** Owns one monitor session: the sampler, its view, and file sinks. */
struct ConsoleMonitor
{
    telemetry::Sampler sampler;
    MonitorView view;
    std::unique_ptr<telemetry::JsonLinesExporter> jsonl;

    explicit ConsoleMonitor(Cycle window) : sampler(window) {}
};

namespace
{

/** The classic locale's whitespace: ' ' and '\t' '\n' '\v' '\f' '\r'. */
constexpr std::array<bool, 256> separators = [] {
    std::array<bool, 256> table{};
    for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        table[static_cast<unsigned char>(c)] = true;
    return table;
}();

bool
isSeparator(char c)
{
    return separators[static_cast<unsigned char>(c)];
}

/**
 * Skip from @p p toward @p end, 8 bytes at a time, past words that
 * cannot hold a separator. Every separator is below 0x21, and the
 * word test below is true exactly when some byte of the word is below
 * 0x21. Stops at the first word that might hold a separator, or where
 * fewer than 8 bytes are left; the caller scans on byte by byte.
 */
const char *
skipLongRun(const char *p, const char *end)
{
    constexpr std::uint64_t ones = 0x0101010101010101ULL;
    while (end - p >= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, sizeof word);
        if (((word - ones * 0x21) & ~word & ones * 0x80) != 0)
            break;
        p += 8;
    }
    return p;
}

/** Parse an unsigned decimal token; fatal() on anything else. */
std::uint64_t
parseNumber(const std::string &token)
{
    if (token.empty() || token[0] == '-')
        fatal("'", token, "' is not a non-negative number");
    std::uint64_t value = 0;
    if (parseDecimal(token, value) != DecimalParse::Ok)
        fatal("'", token, "' is not a number");
    return value;
}

std::vector<CpuId>
parseCpuList(const std::string &text)
{
    std::vector<CpuId> cpus;
    std::istringstream is(text);
    std::string part;
    while (std::getline(is, part, ',')) {
        if (part.empty())
            fatal("empty CPU id in list '", text, "'");
        cpus.push_back(static_cast<CpuId>(parseNumber(part)));
    }
    if (cpus.empty())
        fatal("empty CPU list");
    return cpus;
}

} // namespace

void
splitTokens(std::string_view line, std::vector<std::string> &tokens)
{
    // One pass; no counting pass to size the vector first, because
    // on a feed line that second scan costs as much as the split.
    std::size_t count = 0;
    const char *p = line.data();
    const char *const end = p + line.size();
    for (;;) {
        while (p != end && isSeparator(*p))
            ++p;
        if (p == end)
            break;
        const char *const start = p;
        p = skipLongRun(p, end);
        while (p != end && !isSeparator(*p))
            ++p;
        if (count < tokens.size())
            tokens[count].assign(start, p);
        else
            tokens.emplace_back(start, p);
        ++count;
    }
    tokens.resize(count);
}

Console::Console(bus::Bus6xx &bus) : bus_(bus)
{
}

Console::~Console()
{
    stopMonitor();
    stopTrace();
    stopProf();
    disarmFaults();
    if (board_)
        board_->unplug(bus_);
}

void
Console::disarmFaults()
{
    if (!injector_)
        return;
    bus_.detach(injector_.get());
    if (board_ && board_->faultInjector() == injector_.get())
        board_->detachFaultInjector();
    injector_.reset();
}

void
Console::stopMonitor()
{
    if (!monitor_)
        return;
    bus_.detachSampler();
    monitor_->sampler.finish(bus_.now());
    monitor_.reset();
}

void
Console::stopTrace()
{
    if (!recorder_)
        return;
    if (bus_.flightRecorder() == recorder_.get())
        bus_.detachFlightRecorder();
    if (board_ && board_->flightRecorder() == recorder_.get())
        board_->detachFlightRecorder();
    recorder_.reset();
}

void
Console::stopProf()
{
    if (!profiler_)
        return;
    if (board_ && board_->profiler() == profiler_.get())
        board_->detachProfiler();
    profiler_.reset();
}

NodeConfig &
Console::nodeFor(std::size_t index)
{
    if (index >= 2 * maxBoardNodes)
        fatal("node index ", index, " out of range");
    while (staged_.nodes.size() <= index)
        staged_.nodes.emplace_back();
    return staged_.nodes[index];
}

void
Console::registerCommand(const std::string &name,
                         CommandHandler handler)
{
    if (name.empty() || !handler)
        fatal("registerCommand needs a name and a handler");
    extensions_[name] = std::move(handler);
}

std::string
Console::execute(const std::string &command_line)
{
    std::vector<std::string> tokens;
    splitTokens(command_line, tokens);
    return execute(tokens);
}

std::string
Console::execute(const std::vector<std::string> &tokens)
{
    try {
        return handle(tokens);
    } catch (const FatalError &err) {
        return std::string("error: ") + err.what();
    } catch (const std::exception &err) {
        // A handler (builtin or registered extension) leaked a raw
        // exception. The console is the wire surface of a long-running
        // daemon, so convert it to an error reply instead of letting
        // it unwind a serve thread into std::terminate.
        return std::string("error: internal: ") + err.what();
    }
}

std::string
Console::handle(const std::vector<std::string> &tokens)
{
    if (tokens.empty())
        return "";
    const std::string &cmd = tokens[0];

    auto require_staged = [&] {
        if (board_)
            fatal("'", cmd, "' is only legal before init");
    };
    auto require_board = [&]() -> MemoriesBoard & {
        if (!board_)
            fatal("'", cmd, "' requires an initialized board");
        return *board_;
    };

    if (cmd == "node") {
        require_staged();
        if (tokens.size() < 3)
            fatal("usage: node <i> <subcommand> ...");
        NodeConfig &node = nodeFor(parseNumber(tokens[1]));
        const std::string &sub = tokens[2];
        if (sub == "cache") {
            if (tokens.size() < 6)
                fatal("usage: node <i> cache <size> <assoc> <line> "
                      "[policy]");
            node.cache.sizeBytes = parseByteSize(tokens[3]);
            node.cache.assoc =
                static_cast<unsigned>(parseNumber(tokens[4]));
            node.cache.lineSize = parseByteSize(tokens[5]);
            if (tokens.size() > 6) {
                const std::string &pol = tokens[6];
                if (pol == "LRU")
                    node.cache.policy = cache::ReplacementPolicy::LRU;
                else if (pol == "FIFO")
                    node.cache.policy = cache::ReplacementPolicy::FIFO;
                else if (pol == "Random")
                    node.cache.policy =
                        cache::ReplacementPolicy::Random;
                else if (pol == "TreePLRU")
                    node.cache.policy =
                        cache::ReplacementPolicy::TreePLRU;
                else
                    fatal("unknown replacement policy '", pol, "'");
            }
            node.cache.validate(cache::boardBounds());
            return "node cache set to " + node.cache.describe();
        }
        if (sub == "cpus") {
            if (tokens.size() != 4)
                fatal("usage: node <i> cpus <id>[,<id>...]");
            node.cpus = parseCpuList(tokens[3]);
            return "node cpus set (" + std::to_string(node.cpus.size()) +
                   " processors)";
        }
        if (sub == "protocol") {
            if (tokens.size() != 4)
                fatal("usage: node <i> protocol <name>");
            node.protocol = protocol::makeBuiltinTable(tokens[3]);
            return "node protocol set to " + node.protocol.name();
        }
        if (sub == "protocol-file") {
            if (tokens.size() != 4)
                fatal("usage: node <i> protocol-file <path>");
            node.protocol = protocol::loadMapFile(tokens[3]);
            return "node protocol loaded: " + node.protocol.name();
        }
        if (sub == "machine") {
            if (tokens.size() != 4)
                fatal("usage: node <i> machine <m>");
            node.targetMachine =
                static_cast<unsigned>(parseNumber(tokens[3]));
            return "node target machine set";
        }
        fatal("unknown node subcommand '", sub, "'");
    }

    if (cmd == "buffer") {
        require_staged();
        if (tokens.size() != 2)
            fatal("usage: buffer <entries>");
        staged_.bufferEntries = parseNumber(tokens[1]);
        return "buffer depth set";
    }
    if (cmd == "throughput") {
        require_staged();
        if (tokens.size() != 2)
            fatal("usage: throughput <percent>");
        staged_.sdramThroughputPercent =
            static_cast<unsigned>(parseNumber(tokens[1]));
        return "SDRAM throughput set";
    }
    if (cmd == "capture") {
        require_staged();
        if (tokens.size() != 2)
            fatal("usage: capture <records>");
        staged_.traceCapture = true;
        staged_.traceCaptureRecords = parseNumber(tokens[1]);
        return "trace capture armed";
    }
    if (cmd == "init") {
        require_staged();
        staged_.validate();
        board_ = std::make_unique<MemoriesBoard>(staged_);
        board_->plugInto(bus_);
        if (recorder_)
            board_->attachFlightRecorder(*recorder_);
        return "board initialized: " +
               std::to_string(board_->numNodes()) + " node(s) attached";
    }
    if (cmd == "stats")
        return require_board().dumpStats();
    if (cmd == "counters") {
        auto &board = require_board();
        std::ostringstream os;
        const auto emit = [&os](const CounterSample &s) {
            os << s.name << " " << s.value << "\n";
        };
        board.globalCounters().snapshot(emit);
        for (std::size_t i = 0; i < board.numNodes(); ++i)
            board.node(i).counters().snapshot(emit);
        return os.str();
    }
    if (cmd == "clear") {
        require_board().clearCounters();
        return "counters cleared";
    }
    if (cmd == "reset") {
        require_board().reset();
        return "board reset";
    }
    if (cmd == "dump-trace") {
        if (tokens.size() != 2)
            fatal("usage: dump-trace <path>");
        auto &board = require_board();
        auto *capture = board.captureBuffer();
        if (!capture)
            fatal("trace capture was not armed before init");
        capture->dumpToFile(tokens[1]);
        std::string reply = "wrote " + std::to_string(capture->size()) +
                            " records to " + tokens[1];
        if (capture->dropped() > 0) {
            reply += " (LOSSY: " + std::to_string(capture->dropped()) +
                     " references dropped after the buffer filled)";
        }
        return reply;
    }
    if (cmd == "save-state") {
        if (tokens.size() != 2)
            fatal("usage: save-state <path>");
        require_board().saveState(tokens[1]);
        return "board state saved to " + tokens[1];
    }
    if (cmd == "load-state") {
        if (tokens.size() != 2)
            fatal("usage: load-state <path>");
        require_board().loadState(tokens[1]);
        return "board state restored from " + tokens[1];
    }
    if (cmd == "ckpt") {
        if (tokens.size() < 2)
            fatal("usage: ckpt <save|load|info> <path>");
        const std::string &sub = tokens[1];
        if (sub == "save") {
            if (tokens.size() != 3)
                fatal("usage: ckpt save <path>");
            require_board().saveState(tokens[2]);
            return "checkpoint saved to " + tokens[2];
        }
        if (sub == "load") {
            if (tokens.size() != 3)
                fatal("usage: ckpt load <path>");
            require_board().loadState(tokens[2]);
            return "checkpoint restored from " + tokens[2];
        }
        if (sub == "info") {
            if (tokens.size() != 3)
                fatal("usage: ckpt info <path>");
            return ckpt::CheckpointImage::fromFile(tokens[2]).describe();
        }
        fatal("unknown ckpt subcommand '", sub, "'");
    }
    if (cmd == "save-protocol") {
        if (tokens.size() != 3)
            fatal("usage: save-protocol <node> <path>");
        const std::size_t index = parseNumber(tokens[1]);
        const protocol::ProtocolTable *table = nullptr;
        if (board_) {
            if (index >= board_->numNodes())
                fatal("node index ", index, " out of range");
            table = &board_->node(index).config().protocol;
        } else {
            if (index >= staged_.nodes.size())
                fatal("node index ", index, " out of range");
            table = &staged_.nodes[index].protocol;
        }
        std::FILE *f = std::fopen(tokens[2].c_str(), "wb");
        if (!f)
            fatal("cannot create '", tokens[2], "'");
        const std::string text = table->toMapText();
        const bool ok =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        std::fclose(f);
        if (!ok)
            fatal("failed writing '", tokens[2], "'");
        return "saved protocol " + table->name() + " to " + tokens[2];
    }
    if (cmd == "export-csv") {
        if (tokens.size() != 2)
            fatal("usage: export-csv <path>");
        auto &board = require_board();
        std::FILE *f = std::fopen(tokens[1].c_str(), "wb");
        if (!f)
            fatal("cannot create '", tokens[1], "'");
        const std::string csv = BoardReport::capture(board).toCsv();
        const bool ok =
            std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
        std::fclose(f);
        if (!ok)
            fatal("failed writing '", tokens[1], "'");
        return "exported statistics to " + tokens[1];
    }
    if (cmd == "monitor") {
        auto &board = require_board();
        if (tokens.size() == 1 || tokens[1] == "show") {
            if (!monitor_)
                fatal("no monitor session; use: monitor start "
                      "<cycles> [jsonl-path]");
            if (monitor_->view.latest().empty())
                return "no window closed yet (monitoring every " +
                       std::to_string(monitor_->sampler.windowCycles()) +
                       " bus cycles)";
            return monitor_->view.latest();
        }
        if (tokens[1] == "start") {
            if (tokens.size() < 3 || tokens.size() > 4)
                fatal("usage: monitor start <cycles> [jsonl-path]");
            if (monitor_)
                fatal("monitor already running; 'monitor stop' first");
            const Cycle window = parseNumber(tokens[2]);
            auto mon = std::make_unique<ConsoleMonitor>(window);
            board.attachTelemetry(mon->sampler);
            mon->sampler.addExporter(mon->view);
            if (tokens.size() == 4) {
                mon->jsonl =
                    std::make_unique<telemetry::JsonLinesExporter>(
                        tokens[3]);
                mon->sampler.addExporter(*mon->jsonl);
            }
            monitor_ = std::move(mon);
            // Attach last: registers the bus's own sources and makes
            // the bus clock the sampler from here on. The session may
            // already be deep into bus time, so skip the sampler ahead
            // rather than emitting every empty window since cycle 0.
            bus_.attachSampler(monitor_->sampler);
            monitor_->sampler.resync(bus_.now());
            return "monitoring every " + tokens[2] + " bus cycles" +
                   (tokens.size() == 4 ? " -> " + tokens[3] : "");
        }
        if (tokens[1] == "stop") {
            if (!monitor_)
                fatal("no monitor session to stop");
            stopMonitor();
            return "monitor stopped";
        }
        fatal("unknown monitor subcommand '", tokens[1], "'");
    }
    if (cmd == "trace")
        return handleTrace(tokens);
    if (cmd == "prof")
        return handleProf(tokens);
    if (cmd == "fault")
        return handleFault(tokens);
    if (cmd == "health")
        return handleHealth(tokens);
    if (cmd == "script") {
        if (tokens.size() != 2)
            fatal("usage: script <path>");
        std::FILE *f = std::fopen(tokens[1].c_str(), "rb");
        if (!f)
            fatal("cannot open script '", tokens[1], "'");
        std::string text;
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, got);
        std::fclose(f);

        std::string output;
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const std::string reply = execute(line);
            output += "> " + line + "\n";
            if (!reply.empty())
                output += reply + "\n";
            if (reply.rfind("error:", 0) == 0)
                break; // stop the script at the first error
        }
        return output;
    }
    if (cmd == "shutdown") {
        auto &board = require_board();
        stopMonitor();  // its sampler reads this board's counters
        stopProf();     // the profiler is attached to this board
        disarmFaults(); // the injector is attached to this board
        board.unplug(bus_);
        board_.reset();
        return "board detached";
    }
    if (cmd == "help") {
        std::string text =
            "commands: node buffer throughput capture init stats "
            "counters monitor trace prof fault health clear reset "
            "dump-trace ckpt save-state load-state shutdown";
        for (const auto &[name, handler] : extensions_)
            text += " " + name;
        return text;
    }
    const auto ext = extensions_.find(cmd);
    if (ext != extensions_.end())
        return ext->second(*this, tokens);
    fatal("unknown command '", cmd, "'");
}

std::string
Console::handleTrace(const std::vector<std::string> &tokens)
{
    if (tokens.size() < 2)
        fatal("usage: trace <start|status|show|mark|dump|chrome|"
              "autodump|stop> ...");
    const std::string &sub = tokens[1];

    auto require_recorder = [&]() -> trace::FlightRecorder & {
        if (!recorder_)
            fatal("no flight recorder; use: trace start [events]");
        return *recorder_;
    };

    if (sub == "start") {
        if (tokens.size() > 3)
            fatal("usage: trace start [events]");
        if (recorder_)
            fatal("flight recorder already running; 'trace stop' first");
        std::size_t capacity = std::size_t{1} << 16;
        if (tokens.size() == 3)
            capacity = parseNumber(tokens[2]);
        recorder_ = std::make_unique<trace::FlightRecorder>(capacity);
        bus_.attachFlightRecorder(*recorder_);
        if (board_)
            board_->attachFlightRecorder(*recorder_);
        return "flight recorder attached (" +
               std::to_string(recorder_->capacity()) + " events)";
    }
    if (sub == "stop") {
        require_recorder();
        stopTrace();
        return "flight recorder detached";
    }
    if (sub == "status") {
        auto &rec = require_recorder();
        std::ostringstream os;
        os << "recorded " << rec.recorded() << " retained " << rec.size()
           << "/" << rec.capacity() << " overwritten "
           << rec.overwritten() << " anomalies " << rec.anomalies();
        return os.str();
    }
    if (sub == "show") {
        auto &rec = require_recorder();
        std::size_t n = 16;
        if (tokens.size() == 3)
            n = parseNumber(tokens[2]);
        const auto events = rec.snapshot();
        const std::size_t first =
            events.size() > n ? events.size() - n : 0;
        std::ostringstream os;
        for (std::size_t i = first; i < events.size(); ++i) {
            os << events[i].describe();
            if (events[i].kind == trace::EventKind::Mark) {
                os << " \""
                   << rec.markLabel(
                          static_cast<std::size_t>(events[i].addr))
                   << "\"";
            }
            os << "\n";
        }
        return os.str();
    }
    if (sub == "mark") {
        if (tokens.size() < 3)
            fatal("usage: trace mark <label...>");
        auto &rec = require_recorder();
        std::string label = tokens[2];
        for (std::size_t i = 3; i < tokens.size(); ++i)
            label += " " + tokens[i];
        rec.mark(label, bus_.now());
        return "marked '" + label + "' at cycle " +
               std::to_string(bus_.now());
    }
    if (sub == "dump") {
        if (tokens.size() != 3)
            fatal("usage: trace dump <path>");
        auto &rec = require_recorder();
        trace::LifecycleWriter writer(tokens[2]);
        writer.appendAll(rec.snapshot());
        writer.flush();
        return "wrote " + std::to_string(writer.count()) +
               " lifecycle events to " + tokens[2] + " (" +
               std::to_string(rec.overwritten()) +
               " older events overwritten)";
    }
    if (sub == "chrome") {
        if (tokens.size() != 3)
            fatal("usage: trace chrome <path>");
        auto &rec = require_recorder();
        const auto events = rec.snapshot();
        trace::writeChromeTraceFile(events, tokens[2], &rec);
        return "wrote " + std::to_string(events.size()) +
               " lifecycle events as Chrome trace JSON to " + tokens[2];
    }
    if (sub == "autodump") {
        if (tokens.size() != 3)
            fatal("usage: trace autodump <path>");
        auto &rec = require_recorder();
        rec.onAnomaly([path = tokens[2]](
                          const trace::FlightRecorder &r,
                          const trace::LifecycleEvent &) {
            trace::LifecycleWriter writer(path);
            writer.appendAll(r.snapshot());
            writer.flush();
        });
        return "flight recorder will dump to " + tokens[2] +
               " on every anomaly";
    }
    fatal("unknown trace subcommand '", sub, "'");
}

std::string
Console::handleProf(const std::vector<std::string> &tokens)
{
    auto require_profiler = [&]() -> profile::Profiler & {
        if (!profiler_)
            fatal("no profiler; use: prof start [spans]");
        return *profiler_;
    };

    if (tokens.size() == 1)
        return require_profiler().describe();
    const std::string &sub = tokens[1];

    if (sub == "start") {
        if (tokens.size() > 3)
            fatal("usage: prof start [spans]");
        if (profiler_)
            fatal("profiler already running; 'prof stop' first");
        if (!board_)
            fatal("no board; run init first");
        std::size_t capacity = std::size_t{1} << 16;
        if (tokens.size() == 3)
            capacity = parseNumber(tokens[2]);
        profiler_ = std::make_unique<profile::Profiler>(capacity);
        board_->attachProfiler(*profiler_);
        return "profiler attached (" + std::to_string(capacity) +
               " spans)";
    }
    if (sub == "stop") {
        require_profiler();
        stopProf();
        return "profiler detached";
    }
    if (sub == "show") {
        if (tokens.size() != 2)
            fatal("usage: prof show");
        return require_profiler().describe();
    }
    if (sub == "dump") {
        if (tokens.size() != 3)
            fatal("usage: prof dump <path>");
        auto &prof = require_profiler();
        profile::writeFoldedFile(prof, tokens[2]);
        return "wrote folded flamegraph stacks to " + tokens[2];
    }
    if (sub == "chrome") {
        if (tokens.size() != 3)
            fatal("usage: prof chrome <path>");
        auto &prof = require_profiler();
        // Merge the profiler track with whatever the flight recorder
        // holds; without one the file carries the profiler track alone.
        std::vector<trace::LifecycleEvent> events;
        if (recorder_)
            events = recorder_->snapshot();
        profile::writeMergedChromeTraceFile(events, prof, tokens[2],
                                            recorder_.get());
        return "wrote " + std::to_string(events.size()) +
               " lifecycle events + " +
               std::to_string(prof.snapshot().spansRecorded) +
               " profiler spans as Chrome trace JSON to " + tokens[2];
    }
    fatal("unknown prof subcommand '", sub, "'");
}

std::string
Console::handleFault(const std::vector<std::string> &tokens)
{
    if (tokens.size() < 2)
        fatal("usage: fault <load|arm|status|disarm> ...");
    const std::string &sub = tokens[1];

    if (sub == "load") {
        if (tokens.size() != 3)
            fatal("usage: fault load <path>");
        if (injector_)
            fatal("fault injector armed; 'fault disarm' first");
        plan_ = fault::FaultPlan::load(tokens[2]);
        planLoaded_ = true;
        return "fault plan loaded (" + std::to_string(plan_.size()) +
               " spec" + (plan_.size() == 1 ? "" : "s") + ")";
    }
    if (sub == "arm") {
        if (tokens.size() > 3)
            fatal("usage: fault arm [seed]");
        if (!board_)
            fatal("'fault arm' requires an initialized board");
        if (injector_)
            fatal("fault injector already armed; 'fault disarm' first");
        if (!planLoaded_)
            fatal("no fault plan; use: fault load <path>");
        std::uint64_t seed = 1;
        if (tokens.size() == 3)
            seed = parseNumber(tokens[2]);
        injector_ = std::make_unique<fault::FaultInjector>(plan_, seed);
        board_->attachFaultInjector(*injector_);
        // On the live bus the injector is one more snooper, so
        // SpuriousRetry specs really retry host tenures.
        bus_.attach(injector_.get());
        return "fault injector armed (" + std::to_string(plan_.size()) +
               " spec" + (plan_.size() == 1 ? "" : "s") + ", seed " +
               std::to_string(seed) + ")";
    }
    if (sub == "status") {
        if (tokens.size() != 2)
            fatal("usage: fault status");
        if (injector_)
            return injector_->dumpStats();
        if (planLoaded_) {
            return "fault plan loaded (" + std::to_string(plan_.size()) +
                   " specs), not armed\n" + plan_.describe();
        }
        return "no fault plan loaded";
    }
    if (sub == "disarm") {
        if (tokens.size() != 2)
            fatal("usage: fault disarm");
        if (!injector_)
            fatal("no fault injector to disarm");
        disarmFaults();
        return "fault injector disarmed";
    }
    fatal("unknown fault subcommand '", sub, "'");
}

std::string
Console::handleHealth(const std::vector<std::string> &tokens)
{
    if (tokens.size() == 1 ||
        (tokens.size() == 2 && tokens[1] == "status")) {
        if (board_) {
            const auto &g = board_->globalCounters();
            std::ostringstream os;
            os << "health " << board_->health().describe()
               << "\nfault-dropped "
               << g.valueByName("global.tenures.fault_dropped")
               << " sampled-out "
               << g.valueByName("global.tenures.sampled_out")
               << " shed " << g.valueByName("global.tenures.shed")
               << " quarantined "
               << g.valueByName("global.tenures.quarantined")
               << " lost-inflight "
               << g.valueByName("global.tenures.lost_inflight")
               << " transitions "
               << g.valueByName("global.health.transitions");
            return os.str();
        }
        return "staged health policy: " +
               fault::HealthMonitor(staged_.health).describe();
    }
    if (board_)
        fatal("health policy can only be changed before init");
    const std::string &key = tokens[1];
    if (key == "on" || key == "off") {
        if (tokens.size() != 2)
            fatal("usage: health on|off");
        staged_.health.enabled = (key == "on");
        return std::string("health state machine ") +
               (staged_.health.enabled ? "enabled" : "disabled");
    }
    if (tokens.size() != 3)
        fatal("usage: health <key> <value>");
    const std::uint64_t value = parseNumber(tokens[2]);
    if (key == "degrade-occupancy")
        staged_.health.degradeOccupancyPercent =
            static_cast<unsigned>(value);
    else if (key == "degrade-window")
        staged_.health.degradeWindow = static_cast<unsigned>(value);
    else if (key == "recover-window")
        staged_.health.recoverWindow = static_cast<unsigned>(value);
    else if (key == "sampling-shift")
        staged_.health.degradedSamplingShift =
            static_cast<unsigned>(value);
    else if (key == "backoff-limit")
        staged_.health.backoffLimit = static_cast<unsigned>(value);
    else if (key == "quarantine-storms")
        staged_.health.quarantineStorms = static_cast<unsigned>(value);
    else
        fatal("unknown health key '", key, "'");
    return "health " + key + " set to " + tokens[2];
}

} // namespace memories::ies
