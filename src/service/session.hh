/**
 * @file
 * One IESSERV session: a private bus + console + board (+ twin fleet)
 * behind the console grammar, with a suspend/resume story.
 *
 * Lifecycle state machine (docs/SERVICE.md):
 *
 *   Fresh --configure--> Fresh --init--> Serving --feed*--> Serving
 *     Serving --session suspend--> Suspended (connection closes)
 *     Fresh --session resume <name>--> Serving (state restored)
 *     Serving --quarantine w/o twin--> Evicted (connection closes)
 *
 * Suspend persists two durable artifacts under the session state
 * directory, both through the checkpoint layer's atomic-write
 * primitive:
 *
 *   <name>.iessess        text manifest: config script, stream-ingest
 *                         state, twin roster (docs/SERVICE.md)
 *   <name>.ckpt           the board as an IESCKPT container
 *   <name>.twin<i>.ckpt   each twin board likewise
 *
 * Resume replays the manifest's config script through the console,
 * inits, restores every board from its checkpoint, and restores the
 * stream-ingest scalars — a resumed session continues the cycle-delta
 * chain exactly where the suspended one stopped, so the conformance
 * tier can require byte-identical counters across the break.
 *
 * The Session is transport-free (it maps request lines to reply
 * strings); the daemon owns sockets, the tests call execute() in
 * process — one behavior, two carriers.
 */

#ifndef MEMORIES_SERVICE_SESSION_HH
#define MEMORIES_SERVICE_SESSION_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bus/bus6xx.hh"
#include "ies/console.hh"
#include "service/stream.hh"

namespace memories::service
{

/** Session tunables shared by daemon and in-process tests. */
struct SessionOptions
{
    /** Directory for suspend manifests + checkpoints. */
    std::string stateDir = "iesserv-state";
    /** Most records accepted on one feed line. */
    std::size_t maxBatch = 4096;
};

/** One client's console, board, twin fleet, and stream state. */
class Session
{
  public:
    explicit Session(const SessionOptions &options, std::string name);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Execute one request line and return the reply text ("error: ..."
     * for failures, like the console). Also maintains the config
     * script used by suspend and serves the `session` family.
     *
     * A `feed` line only admits (StreamIngest, deferred emulation):
     * its reply is final, and its retirements wait for
     * emulateDeferred(). Every other line, and a feed arriving with
     * more than maxBatch retirements still queued, first emulates
     * everything deferred, so no reply can tell the difference.
     */
    std::string execute(const std::string &line);

    /**
     * Emulate up to @p max deferred retirements per board.
     * @return true while any remain.
     */
    bool emulateDeferred(std::size_t max)
    {
        return ingest_.emulateDeferred(*console_, max);
    }

    /**
     * Returns a copy under the name lock: the daemon reads session
     * names from other threads (`server evict <name>`) while the
     * owning thread may be renaming concurrently.
     */
    std::string name() const
    {
        std::lock_guard<std::mutex> lock(nameMu_);
        return name_;
    }
    ies::Console &console() { return *console_; }
    StreamIngest &ingest() { return ingest_; }

    /** True after `session suspend` completed; close the connection. */
    bool suspended() const { return suspendedOk_; }

    /** True when the health ladder ran out of twins; evict. */
    bool evictRequested() const { return ingest_.evictRequested(); }

    /** Manifest path a suspend of @p name would write. */
    static std::string manifestPath(const std::string &state_dir,
                                    const std::string &name);

  private:
    std::string handleSession(const std::vector<std::string> &tokens);
    std::string suspend();
    std::string resume(const std::string &name);
    std::string executeScript(const std::vector<std::string> &tokens);
    void recordConfigLine(const std::string &line,
                          const std::vector<std::string> &tokens);
    void setName(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(nameMu_);
        name_ = name;
    }

    SessionOptions options_;
    /** Guards name_ against the daemon's cross-thread evict lookup. */
    mutable std::mutex nameMu_;
    std::string name_;
    std::unique_ptr<bus::Bus6xx> bus_;
    std::unique_ptr<ies::Console> console_;
    StreamIngest ingest_;
    /** The current request's tokens, reused across requests. */
    std::vector<std::string> tokens_;
    /** Pre-init configuration lines, replayed verbatim on resume. */
    std::vector<std::string> configScript_;
    bool suspendedOk_ = false;
};

} // namespace memories::service

#endif // MEMORIES_SERVICE_SESSION_HH
