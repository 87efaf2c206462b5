#include "common/units.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>

#include "common/logging.hh"
#include "common/types.hh"

namespace memories
{

DecimalParse
parseDecimal(std::string_view text, std::uint64_t &value)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string_view::npos)
        return DecimalParse::Malformed;
    // All digits, so the only way from_chars can fail is overflow.
    std::uint64_t parsed = 0;
    if (std::from_chars(text.data(), text.data() + text.size(), parsed)
            .ec != std::errc())
        return DecimalParse::OutOfRange;
    value = parsed;
    return DecimalParse::Ok;
}

DecimalParse
parseHexOrDecimal(std::string_view text, std::uint64_t &value)
{
    if (text.size() < 2 || text[0] != '0')
        return parseDecimal(text, value);
    // A multi-digit token led by 0 is octal to strtoul: refuse it rather
    // than read it as a different number.
    if (text[1] != 'x' && text[1] != 'X')
        return DecimalParse::Malformed;
    const std::string_view digits = text.substr(2);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string_view::npos)
        return DecimalParse::Malformed;
    std::uint64_t parsed = 0;
    if (std::from_chars(digits.data(), digits.data() + digits.size(), parsed,
                        16)
            .ec != std::errc())
        return DecimalParse::OutOfRange;
    value = parsed;
    return DecimalParse::Ok;
}

std::uint64_t
parseByteSize(std::string_view text)
{
    if (text.empty())
        fatal("empty byte-size string");

    const std::size_t digits = std::min(
        text.find_first_not_of("0123456789"), text.size());
    if (digits == 0)
        fatal("byte-size string '", std::string(text),
              "' does not start with a number");
    std::uint64_t value = 0;
    if (parseDecimal(text.substr(0, digits), value) != DecimalParse::Ok)
        fatal("byte-size string '", std::string(text),
              "' is out of range");

    std::string_view unit = text.substr(digits);
    std::uint64_t scale = 1;
    if (unit.empty() || unit == "B" || unit == "b") {
        scale = 1;
    } else if (unit == "KB" || unit == "KiB" || unit == "K" || unit == "kB") {
        scale = KiB;
    } else if (unit == "MB" || unit == "MiB" || unit == "M") {
        scale = MiB;
    } else if (unit == "GB" || unit == "GiB" || unit == "G") {
        scale = GiB;
    } else {
        fatal("unknown byte-size unit '", std::string(unit), "'");
    }
    if (value > std::numeric_limits<std::uint64_t>::max() / scale)
        fatal("byte-size string '", std::string(text),
              "' is out of range");
    return value * scale;
}

std::string
formatByteSize(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= GiB && bytes % GiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluGB",
                      static_cast<unsigned long long>(bytes / GiB));
    else if (bytes >= MiB && bytes % MiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluMB",
                      static_cast<unsigned long long>(bytes / MiB));
    else if (bytes >= KiB && bytes % KiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluKB",
                      static_cast<unsigned long long>(bytes / KiB));
    else
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

std::string
formatSeconds(double seconds)
{
    char buf[48];
    if (seconds < 1e-3)
        std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
    else if (seconds < 1.0)
        std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
    else if (seconds < 120.0)
        std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
    else if (seconds < 7200.0)
        std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
    else if (seconds < 2.0 * 86400.0)
        std::snprintf(buf, sizeof(buf), "%.1f hours", seconds / 3600.0);
    else
        std::snprintf(buf, sizeof(buf), "%.1f days", seconds / 86400.0);
    return buf;
}

} // namespace memories
