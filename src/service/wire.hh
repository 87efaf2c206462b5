/**
 * @file
 * IESSERV wire protocol: the console grammar over a byte stream.
 *
 * The daemon does not invent a new RPC surface — a request is exactly
 * one console command line (src/ies/console.hh), so anything typeable
 * at the interactive console is speakable on the wire, including the
 * command families layered in through Console::registerCommand. Only
 * the *reply* needs framing, because console replies span multiple
 * lines:
 *
 *   request  := <command line> "\n"
 *   reply    := ("ok" | "err") " " <n> "\n" <n> reply lines
 *
 * An `err` frame carries the console's "error: ..." diagnostic text;
 * the connection stays usable afterwards except where the session
 * layer decides to evict (docs/SERVICE.md).
 *
 * Bulk ingest rides the same grammar: `feed` takes v2 BusRecords
 * (trace/record.hh) as 16-digit lower-case hex words, one token per
 * reference, cycle-delta chained per session exactly like a trace
 * file. LineChannel is the shared buffered line reader/writer over a
 * connected socket fd used by both daemon and client.
 */

#ifndef MEMORIES_SERVICE_WIRE_HH
#define MEMORIES_SERVICE_WIRE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace memories::service
{

/** Longest accepted request/reply line, in bytes (fuzz-tier bound). */
inline constexpr std::size_t maxLineBytes = std::size_t{1} << 20;

/** One parsed reply frame. */
struct Reply
{
    bool ok = false;
    std::vector<std::string> lines;

    /** The reply lines re-joined with '\n' (no trailing newline). */
    std::string text() const;
};

/** Render a reply frame ("ok <n>\n" + lines, each '\n'-terminated). */
std::string renderReply(bool ok, const std::string &body);

/** Append a raw BusRecord word to @p out as 16 lower-case hex digits. */
void appendRecordHex(std::string &out, std::uint64_t raw);

/** Pack a raw BusRecord word as 16 lower-case hex digits. */
std::string encodeRecordHex(std::uint64_t raw);

/**
 * Parse a 16-digit hex record token; nullopt on any malformed input
 * (wrong length, non-hex digit) — the fuzz tier feeds this garbage.
 */
std::optional<std::uint64_t> decodeRecordHex(const std::string &token);

/**
 * Buffered line I/O over a connected stream socket. Reads are
 * newline-delimited with a hard maxLineBytes bound; writes always
 * push the full buffer. All methods return false on EOF/error and
 * never throw — peers vanishing mid-line is normal daemon weather.
 */
class LineChannel
{
  public:
    /** Wrap a connected fd; the channel owns and closes it. */
    explicit LineChannel(int fd) : fd_(fd) {}
    ~LineChannel();

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    /**
     * Read one '\n'-terminated line (newline stripped) into @p line.
     * @return false on EOF, error, or an over-long line.
     */
    bool readLine(std::string &line);

    /**
     * True when the next readLine() has input to start on without
     * blocking: a whole line already buffered, or bytes (or EOF)
     * waiting on the socket.
     */
    bool inputWaiting();

    /** Write all of @p data. @return false when the peer is gone. */
    bool writeAll(const std::string &data);

    /** Send a framed reply. */
    bool sendReply(bool ok, const std::string &body)
    {
        return writeAll(renderReply(ok, body));
    }

    /**
     * Read a framed reply. @return nullopt on EOF/garbage framing.
     */
    std::optional<Reply> readReply();

    int fd() const { return fd_; }

    /** shutdown(2) both directions — unblocks a reader on another
     *  thread without racing the close. */
    void shutdownBoth();

    /** shutdown(2) the read side only: the peer's next request gets
     *  EOF but a reply already in flight still drains (eviction). */
    void shutdownRead();

  private:
    int fd_;
    std::string buf_;
};

} // namespace memories::service

#endif // MEMORIES_SERVICE_WIRE_HH
