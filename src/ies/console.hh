/**
 * @file
 * The console interface: what the paper's Windows PC + AMCC parallel
 * port card does — power-up initialization, cache parameter setting and
 * statistics extraction — as a text-command front end over the board.
 *
 * Commands (one per call, tokens space-separated):
 *
 *   node <i> cache <size> <assoc> <line> [LRU|FIFO|Random]
 *   node <i> cpus <id>[,<id>...]
 *   node <i> protocol <MSI|MESI|MOESI>
 *   node <i> protocol-file <path>
 *   node <i> machine <m>
 *   buffer <entries>
 *   throughput <percent>
 *   capture <records>
 *   init                     -- build the board and plug into the bus
 *   stats                    -- human-readable statistics
 *   counters                 -- raw 40-bit counter dump
 *   clear                    -- zero all counters
 *   reset                    -- cold-start directories + counters
 *   dump-trace <path>        -- write the capture buffer to disk
 *   save-protocol <i> <path> -- write node i's table as a map file
 *   export-csv <path>        -- write per-node statistics as CSV
 *   monitor start <cycles> [jsonl-path]
 *                            -- begin windowed telemetry sampling
 *   monitor                  -- live view of the last closed window
 *   monitor stop             -- finish sampling (flushes exporters)
 *   trace start [events]     -- attach a flight recorder (ring size)
 *   trace status             -- recorded/retained/anomaly counts
 *   trace show [n]           -- describe the last n retained events
 *   trace mark <label...>    -- drop an operator annotation in the ring
 *   trace dump <path>        -- write retained events (binary, IESSPANS)
 *   trace chrome <path>      -- write retained events as Chrome JSON
 *   trace autodump <path>    -- dump automatically on every anomaly
 *   trace stop               -- detach and discard the recorder
 *   prof start [spans]       -- attach an IESPROF profiler (span ring)
 *   prof [show]              -- stage attribution report
 *   prof dump <path>         -- write folded-stack flamegraph lines
 *   prof chrome <path>       -- write emulated trace + profiler spans
 *                               merged as Chrome JSON (pid 99)
 *   prof stop                -- detach and discard the profiler
 *   fault load <path>        -- load a fault plan (see fault/faultplan.hh)
 *   fault arm [seed]         -- build the injector and attach it
 *   fault status             -- plan and per-kind injection counts
 *   fault disarm             -- detach and discard the injector
 *   health on|off            -- enable the degradation state machine
 *   health <key> <n>         -- tune the staged policy (degrade-occupancy,
 *                               degrade-window, recover-window,
 *                               sampling-shift, backoff-limit,
 *                               quarantine-storms)
 *   health [status]          -- current state and degradation counters
 *   script <path>            -- execute commands from a file
 *   shutdown                 -- unplug from the bus
 *
 * Libraries layered above the board can register further command
 * families with registerCommand(); campaign::registerConsoleCommands
 * adds `campaign start|resume|status` (see src/campaign/console.hh).
 *
 * Configuration commands are only legal before init; fatal() errors
 * come back as "error: ..." strings, like a console status line.
 */

#ifndef MEMORIES_IES_CONSOLE_HH
#define MEMORIES_IES_CONSOLE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bus/bus6xx.hh"
#include "fault/faultplan.hh"
#include "fault/injector.hh"
#include "ies/board.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{

/** Monitor-session state (sampler + live view); see console.cc. */
struct ConsoleMonitor;

/**
 * Split @p line into tokens exactly as repeated
 * `std::istream >> std::string` does in the classic locale: the six
 * separators are ' ', '\t', '\n', '\v', '\f' and '\r', a run of them
 * counts as one, and leading or trailing ones make no empty token.
 * @p tokens ends up holding exactly the tokens; the strings it
 * already holds are overwritten in place, so a caller that reuses one
 * vector across lines of the same shape allocates nothing per token.
 */
void splitTokens(std::string_view line, std::vector<std::string> &tokens);

/** Text-command console controlling one board on one host bus. */
class Console
{
  public:
    /** @param bus Host bus the board will be plugged into at init. */
    explicit Console(bus::Bus6xx &bus);

    ~Console();

    /** Execute one command line; returns the console's reply text. */
    std::string execute(const std::string &command_line);

    /**
     * Execute a command line already split by splitTokens(); the reply
     * is what execute() of the line itself gives. Callers that must
     * look at the tokens themselves (the IESSERV session) split once
     * and hand them over here.
     */
    std::string execute(const std::vector<std::string> &tokens);

    /** True once init has built and attached the board. */
    bool initialized() const { return board_ != nullptr; }

    /** The live board (nullptr before init). */
    MemoriesBoard *board() { return board_.get(); }

    /** The live flight recorder (nullptr unless `trace start` ran). */
    trace::FlightRecorder *flightRecorder() { return recorder_.get(); }

    /** The live fault injector (nullptr unless `fault arm` ran). */
    fault::FaultInjector *faultInjector() { return injector_.get(); }

    /** The live profiler (nullptr unless `prof start` ran). */
    profile::Profiler *profiler() { return profiler_.get(); }

    /** True while a `monitor start` telemetry session is live. */
    bool monitoring() const { return monitor_ != nullptr; }

    /**
     * Handler for an extension command family. Invoked with the full
     * token list (tokens[0] is the family name); fatal() inside a
     * handler comes back as "error: ..." text like any built-in.
     */
    using CommandHandler = std::function<std::string(
        Console &, const std::vector<std::string> &)>;

    /**
     * Register @p handler for top-level command @p name. Libraries
     * that sit *above* the board (the IESCAMP campaign engine) plug
     * their command families in here instead of the console linking
     * them — the console stays the bottom of the dependency stack.
     * Re-registering a name replaces the old handler; built-in
     * commands cannot be shadowed (they are matched first).
     */
    void registerCommand(const std::string &name,
                         CommandHandler handler);

  private:
    std::string handle(const std::vector<std::string> &tokens);
    std::string handleTrace(const std::vector<std::string> &tokens);
    std::string handleProf(const std::vector<std::string> &tokens);
    std::string handleFault(const std::vector<std::string> &tokens);
    std::string handleHealth(const std::vector<std::string> &tokens);
    NodeConfig &nodeFor(std::size_t index);

    void stopMonitor();
    void stopTrace();
    void stopProf();
    void disarmFaults();

    bus::Bus6xx &bus_;
    BoardConfig staged_;
    std::unique_ptr<MemoriesBoard> board_;
    std::unique_ptr<ConsoleMonitor> monitor_;
    std::unique_ptr<trace::FlightRecorder> recorder_;
    std::unique_ptr<profile::Profiler> profiler_;
    fault::FaultPlan plan_;
    bool planLoaded_ = false;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::map<std::string, CommandHandler> extensions_;
};

} // namespace memories::ies

#endif // MEMORIES_IES_CONSOLE_HH
