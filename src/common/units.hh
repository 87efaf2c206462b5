/**
 * @file
 * Human-readable numbers, byte sizes and durations.
 *
 * The console software configures the board with strings like "64MB" or
 * "1GB"; these helpers parse and print them. Sizes are binary (MB == MiB),
 * matching the paper's usage. Every unsigned decimal token read from
 * outside the process (console, wire, manifests, fault plans) goes
 * through parseDecimal().
 */

#ifndef MEMORIES_COMMON_UNITS_HH
#define MEMORIES_COMMON_UNITS_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace memories
{

/** Outcome of parseDecimal(). */
enum class DecimalParse
{
    Ok,
    Malformed,  //!< empty, or anything but ASCII digits (no sign)
    OutOfRange, //!< only digits, but above 2^64 - 1
};

/**
 * Parse @p text as one or more ASCII digits into @p value: no sign,
 * no whitespace, no base prefix, no overflow. @p value is written
 * only on Ok.
 */
DecimalParse parseDecimal(std::string_view text, std::uint64_t &value);

/**
 * parseDecimal(), or, after a "0x"/"0X" prefix, one or more hex digits
 * (either case): no sign, no whitespace, no overflow, and no octal (a
 * decimal token of more than one digit must not start with 0, so
 * "010" is Malformed rather than 8 or 10). @p value is written only
 * on Ok.
 */
DecimalParse parseHexOrDecimal(std::string_view text, std::uint64_t &value);

/**
 * Parse a byte-size string such as "128B", "2KB", "64MB", "8GB".
 * A bare number is taken as bytes. Throws FatalError on malformed
 * input and on sizes that do not fit in 64 bits.
 */
std::uint64_t parseByteSize(std::string_view text);

/** Format a byte count using the largest exact binary unit. */
std::string formatByteSize(std::uint64_t bytes);

/** Format a duration given in seconds like the paper's tables do. */
std::string formatSeconds(double seconds);

} // namespace memories

#endif // MEMORIES_COMMON_UNITS_HH
