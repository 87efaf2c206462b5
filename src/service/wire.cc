#include "service/wire.hh"

#include <bit>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/units.hh"

namespace memories::service
{

std::string
Reply::text() const
{
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i)
            out += '\n';
        out += lines[i];
    }
    return out;
}

std::string
renderReply(bool ok, const std::string &body)
{
    // Count body lines; an empty body is a zero-line frame.
    std::size_t n = 0;
    if (!body.empty()) {
        n = 1;
        for (char c : body)
            n += c == '\n';
        if (body.back() == '\n')
            --n; // trailing newline does not open a new line
    }
    std::string out = ok ? "ok " : "err ";
    out += std::to_string(n);
    out += '\n';
    out += body;
    if (!body.empty() && body.back() != '\n')
        out += '\n';
    return out;
}

void
appendRecordHex(std::string &out, std::uint64_t raw)
{
    static constexpr char digits[] = "0123456789abcdef";
    char buf[16];
    for (int i = 15; i >= 0; --i, raw >>= 4)
        buf[i] = digits[raw & 0xf];
    out.append(buf, sizeof buf);
}

std::string
encodeRecordHex(std::uint64_t raw)
{
    std::string hex;
    appendRecordHex(hex, raw);
    return hex;
}

namespace
{

constexpr std::uint64_t byteOnes = 0x0101010101010101ULL;
constexpr std::uint64_t byteHighs = byteOnes * 0x80;

/** Bytes of @p word in [@p lo, @p hi], as their high bits; every byte
 *  must be below 0x80, so no sum carries into its neighbor. */
constexpr std::uint64_t
bytesInRange(std::uint64_t word, unsigned lo, unsigned hi)
{
    return (word + byteOnes * (0x80 - lo)) & ~(word + byteOnes * (0x7f - hi)) &
           byteHighs;
}

/**
 * Decode 8 lower-case hex digits held in @p text, the first digit
 * most significant, all 8 at once; false when any is not [0-9a-f].
 */
bool
decodeHex8(const char *text, std::uint32_t &out)
{
    std::uint64_t word = 0;
    std::memcpy(&word, text, sizeof word);
    // Lay the first digit in the top byte whatever the host order.
    if constexpr (std::endian::native == std::endian::little)
        word = __builtin_bswap64(word);
    if ((word & byteHighs) != 0 ||
        (bytesInRange(word, '0', '9') | bytesInRange(word, 'a', 'f')) !=
            byteHighs)
        return false;
    // Each byte's value: its low nibble, plus 9 for 'a'..'f' (bit 6).
    std::uint64_t v = (word & byteOnes * 0x0f) + ((word >> 6) & byteOnes) * 9;
    // Fold the 8 nibbles together: pairs, then quads, then all 8.
    v = (v | (v >> 4)) & 0x00ff00ff00ff00ffULL;
    v = (v | (v >> 8)) & 0x0000ffff0000ffffULL;
    v = (v | (v >> 16)) & 0x00000000ffffffffULL;
    out = static_cast<std::uint32_t>(v);
    return true;
}

} // namespace

std::optional<std::uint64_t>
decodeRecordHex(const std::string &token)
{
    std::uint32_t high = 0, low = 0;
    if (token.size() != 16 || !decodeHex8(token.data(), high) ||
        !decodeHex8(token.data() + 8, low))
        return std::nullopt;
    return (std::uint64_t{high} << 32) | low;
}

LineChannel::~LineChannel()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineChannel::readLine(std::string &line)
{
    for (;;) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            line.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        if (buf_.size() > maxLineBytes)
            return false; // unterminated monster line
        char chunk[4096];
        ssize_t got;
        do {
            got = ::read(fd_, chunk, sizeof chunk);
        } while (got < 0 && errno == EINTR);
        if (got <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(got));
    }
}

bool
LineChannel::inputWaiting()
{
    if (buf_.find('\n') != std::string::npos)
        return true;
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, 0) > 0;
}

bool
LineChannel::writeAll(const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t put;
        do {
            // MSG_NOSIGNAL: a vanished peer must surface as EPIPE,
            // not kill the daemon with SIGPIPE.
            put = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
        } while (put < 0 && errno == EINTR);
        if (put <= 0)
            return false;
        off += static_cast<std::size_t>(put);
    }
    return true;
}

std::optional<Reply>
LineChannel::readReply()
{
    std::string head;
    if (!readLine(head))
        return std::nullopt;
    Reply reply;
    std::size_t off;
    if (head.rfind("ok ", 0) == 0) {
        reply.ok = true;
        off = 3;
    } else if (head.rfind("err ", 0) == 0) {
        reply.ok = false;
        off = 4;
    } else {
        return std::nullopt;
    }
    // An out-of-range count is garbage framing, like any other.
    std::uint64_t n = 0;
    if (parseDecimal(head.substr(off), n) != DecimalParse::Ok ||
        n > maxLineBytes)
        return std::nullopt;
    reply.lines.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string line;
        if (!readLine(line))
            return std::nullopt;
        reply.lines.push_back(std::move(line));
    }
    return reply;
}

void
LineChannel::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
LineChannel::shutdownRead()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RD);
}

} // namespace memories::service
