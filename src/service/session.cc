#include "service/session.hh"

#include <cstdio>
#include <sstream>

#include "campaign/console.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "fault/health.hh"

namespace memories::service
{

namespace
{

/** Session names become file names; keep them path-safe. */
void
validateName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        fatal("session name must be 1..64 characters");
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
        if (!ok)
            fatal("session name '", name,
                  "' may only use letters, digits, '-', '_', '.'");
    }
    if (name[0] == '.')
        fatal("session name may not start with '.'");
}

std::uint64_t
parseField(const std::string &line, const std::string &key)
{
    if (line.rfind(key + " ", 0) != 0)
        fatal("session manifest: expected '", key, " ...', got '", line,
              "'");
    const std::string value = line.substr(key.size() + 1);
    std::uint64_t n = 0;
    switch (parseDecimal(value, n)) {
      case DecimalParse::Ok:
        return n;
      case DecimalParse::Malformed:
        fatal("session manifest: bad ", key, " '", value, "'");
      case DecimalParse::OutOfRange:
        break;
    }
    fatal("session manifest: ", key, " '", value, "' out of range");
}

} // namespace

Session::Session(const SessionOptions &options, std::string name)
    : options_(options), name_(std::move(name)),
      bus_(std::make_unique<bus::Bus6xx>()),
      console_(std::make_unique<ies::Console>(*bus_)),
      ingest_(options.maxBatch)
{
    ingest_.registerCommands(*console_);
    campaign::registerConsoleCommands(*console_);
    console_->registerCommand(
        "session", [this](ies::Console &,
                          const std::vector<std::string> &tokens) {
            return handleSession(tokens);
        });
}

Session::~Session() = default;

std::string
Session::manifestPath(const std::string &state_dir, const std::string &name)
{
    return state_dir + "/" + name + ".iessess";
}

void
Session::recordConfigLine(const std::string &line,
                          const std::vector<std::string> &tokens)
{
    if (tokens.empty())
        return;
    const std::string &family = tokens[0];
    const bool config =
        family == "node" || family == "buffer" || family == "throughput" ||
        family == "capture" ||
        (family == "health" && tokens.size() >= 2 &&
         tokens[1] != "status");
    if (config)
        configScript_.push_back(line);
}

std::string
Session::execute(const std::string &line)
{
    // The line is split once, here, and the console runs on the same
    // tokens. tokens_ is reused from line to line, so a feed line's
    // record tokens overwrite the last one's in place.
    ies::splitTokens(line, tokens_);
    // A feed replies once admitted and leaves its emulation queued;
    // every other line, and a feed behind too long a queue, first
    // emulates everything queued.
    if (tokens_.empty() || tokens_[0] != "feed" ||
        ingest_.deferredRetirements(*console_) > options_.maxBatch)
        ingest_.settle(*console_);
    // Expand `script` here, not in the console: the console runs the
    // file's lines internally, which would bypass config recording
    // and leave a scripted session unable to resume. Routing each
    // line back through execute() records exactly the config lines a
    // hand-typed session would.
    if (!tokens_.empty() && tokens_[0] == "script")
        return executeScript(tokens_);
    const bool preInit = !console_->initialized();
    const std::string reply = console_->execute(tokens_);
    if (preInit && reply.rfind("error:", 0) != 0)
        recordConfigLine(line, tokens_);
    return reply;
}

std::string
Session::executeScript(const std::vector<std::string> &tokens)
{
    try {
        if (tokens.size() != 2)
            fatal("usage: script <path>");
        // tokens is tokens_, which the nested execute() calls below
        // overwrite: read the path before the first of them.
        std::FILE *f = std::fopen(tokens[1].c_str(), "rb");
        if (!f)
            fatal("cannot open script '", tokens[1], "'");
        std::string text;
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, got);
        std::fclose(f);

        // Same surface behavior as the console's builtin: skip blank
        // and '#' lines, echo each command, stop at the first error.
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
                break;
        }
        return output;
    } catch (const FatalError &err) {
        return std::string("error: ") + err.what();
    }
}

std::string
Session::handleSession(const std::vector<std::string> &tokens)
{
    if (tokens.size() == 1 || tokens[1] == "status") {
        std::ostringstream os;
        os << "name " << name_ << "\n"
           << "state "
           << (suspendedOk_
                   ? "suspended"
                   : (console_->initialized() ? "serving" : "fresh"))
           << "\n"
           << "refs " << ingest_.refsAccepted() << " twins "
           << ingest_.twins().size();
        if (console_->initialized())
            os << "\nhealth "
               << fault::healthStateName(
                      console_->board()->healthState());
        return os.str();
    }
    const std::string &sub = tokens[1];
    if (sub == "name") {
        if (tokens.size() != 3)
            fatal("usage: session name <name>");
        validateName(tokens[2]);
        setName(tokens[2]);
        return "session named '" + tokens[2] + "'";
    }
    if (sub == "suspend") {
        if (tokens.size() != 2)
            fatal("usage: session suspend");
        return suspend();
    }
    if (sub == "resume") {
        if (tokens.size() != 3)
            fatal("usage: session resume <name>");
        validateName(tokens[2]);
        return resume(tokens[2]);
    }
    fatal("usage: session [status|name <n>|suspend|resume <n>]");
}

std::string
Session::suspend()
{
    if (!console_->initialized())
        fatal("session suspend requires an initialized board");
    // Fail closed on runtime attachments a resume cannot rebuild: the
    // checkpoint captures the board, not console-side wiring.
    if (console_->flightRecorder())
        fatal("session suspend: stop the flight recorder first "
              "('trace stop')");
    if (console_->profiler())
        fatal("session suspend: stop the profiler first ('prof stop')");
    if (console_->faultInjector())
        fatal("session suspend: disarm fault injection first "
              "('fault disarm')");
    if (console_->monitoring())
        fatal("session suspend: stop the telemetry monitor first "
              "('monitor stop')");
    validateName(name_);

    ckpt::ensureDir(options_.stateDir);
    const std::string base = options_.stateDir + "/" + name_;
    console_->board()->saveState(base + ".ckpt");
    const auto &twins = ingest_.twins();
    for (std::size_t i = 0; i < twins.size(); ++i)
        twins[i].board->saveState(base + ".twin" + std::to_string(i) +
                                  ".ckpt");

    const StreamIngest::State s = ingest_.state();
    std::ostringstream os;
    os << "IESSESS 1\n"
       << "name " << name_ << "\n"
       << "pace " << (s.paced ? 1 : 0) << "\n"
       << "prev-cycle " << s.prevCycle << "\n"
       << "offered " << s.refsOffered << "\n"
       << "attempted " << s.refsAttempted << "\n"
       << "accepted " << s.refsAccepted << "\n"
       << "backpressure " << s.backpressure << "\n"
       << "overflow " << s.overflowDrops << "\n"
       << "feed-lines " << s.feedLines << "\n"
       << "resyncs " << s.resyncs << "\n"
       << "twins " << twins.size() << "\n";
    for (const StreamIngest::Twin &twin : twins)
        os << "twin " << twin.seed << " " << twin.label << "\n";
    os << "config-lines " << configScript_.size() << "\n";
    for (const std::string &line : configScript_)
        os << line << "\n";
    os << "end\n";
    const std::string manifest = os.str();
    ckpt::atomicWriteFile(manifestPath(options_.stateDir, name_),
                          manifest.data(), manifest.size());

    suspendedOk_ = true;
    return "suspended '" + name_ + "' (" +
           std::to_string(s.refsAccepted) +
           " refs); reconnect and run: session resume " + name_;
}

std::string
Session::resume(const std::string &name)
{
    if (console_->initialized())
        fatal("session resume requires a fresh session (no init yet)");
    if (ingest_.refsOffered() != 0)
        fatal("session resume requires a fresh session (no feeds yet)");

    const std::string path = manifestPath(options_.stateDir, name);
    const std::vector<std::uint8_t> bytes =
        ckpt::readFileBytes(path, "session manifest");
    std::istringstream is(
        std::string(reinterpret_cast<const char *>(bytes.data()),
                    bytes.size()));
    std::string line;
    auto nextLine = [&]() -> std::string & {
        if (!std::getline(is, line))
            fatal("session manifest ", path, ": truncated");
        return line;
    };

    if (nextLine() != "IESSESS 1")
        fatal("session manifest ", path, ": bad magic/version '", line,
              "'");
    if (nextLine() != "name " + name)
        fatal("session manifest ", path, ": name mismatch ('", line,
              "')");
    StreamIngest::State s;
    s.paced = parseField(nextLine(), "pace") != 0;
    s.prevCycle = parseField(nextLine(), "prev-cycle");
    s.refsOffered = parseField(nextLine(), "offered");
    s.refsAttempted = parseField(nextLine(), "attempted");
    s.refsAccepted = parseField(nextLine(), "accepted");
    s.backpressure = parseField(nextLine(), "backpressure");
    s.overflowDrops = parseField(nextLine(), "overflow");
    s.feedLines = parseField(nextLine(), "feed-lines");
    s.resyncs = parseField(nextLine(), "resyncs");
    const std::uint64_t twins = parseField(nextLine(), "twins");
    struct TwinEntry
    {
        std::uint64_t seed;
        std::string label;
    };
    std::vector<TwinEntry> twinEntries;
    for (std::uint64_t i = 0; i < twins; ++i) {
        std::vector<std::string> tokens;
        ies::splitTokens(nextLine(), tokens);
        if (tokens.size() != 3 || tokens[0] != "twin")
            fatal("session manifest ", path, ": bad twin line '", line,
                  "'");
        std::uint64_t seed = 0;
        switch (parseDecimal(tokens[1], seed)) {
          case DecimalParse::Ok:
            break;
          case DecimalParse::Malformed:
            fatal("session manifest ", path, ": bad twin seed '",
                  tokens[1], "'");
          case DecimalParse::OutOfRange:
            fatal("session manifest ", path, ": twin seed '", tokens[1],
                  "' out of range");
        }
        twinEntries.push_back({seed, tokens[2]});
    }
    const std::uint64_t configLines =
        parseField(nextLine(), "config-lines");
    std::vector<std::string> script;
    for (std::uint64_t i = 0; i < configLines; ++i)
        script.push_back(nextLine());
    if (nextLine() != "end")
        fatal("session manifest ", path, ": missing 'end'");

    // Rebuild: config script, init, board + twin checkpoints, stream
    // scalars. Every step fails closed through fatal(), leaving the
    // caller's "error: ..." reply to describe the first mismatch.
    for (const std::string &cfg : script) {
        const std::string reply = console_->execute(cfg);
        if (reply.rfind("error:", 0) == 0)
            fatal("resume: config replay of '", cfg, "' failed: ", reply);
        configScript_.push_back(cfg);
    }
    const std::string initReply = console_->execute("init");
    if (initReply.rfind("error:", 0) == 0)
        fatal("resume: init failed: ", initReply);
    const std::string base = options_.stateDir + "/" + name;
    console_->board()->loadState(base + ".ckpt");
    for (std::size_t i = 0; i < twinEntries.size(); ++i)
        ingest_
            .addTwin(console_->board()->config(), twinEntries[i].seed,
                     twinEntries[i].label)
            .loadState(base + ".twin" + std::to_string(i) + ".ckpt");
    ingest_.restore(s);
    setName(name);
    return "resumed '" + name + "' at cycle " +
           std::to_string(s.prevCycle) + " (" +
           std::to_string(s.refsAccepted) + " refs)";
}

} // namespace memories::service
