#include "ies/commandmap.hh"

#include <cstdio>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace memories::ies
{

namespace
{

/** A map file's opcode token: hex or decimal, at most 32 bits. */
std::uint32_t
parseOpcode(const std::string &token, int lineno)
{
    std::uint64_t value = 0;
    switch (parseHexOrDecimal(token, value)) {
      case DecimalParse::Ok:
        if (value <= 0xffffffffu)
            return static_cast<std::uint32_t>(value);
        break;
      case DecimalParse::Malformed:
        fatal("command map line ", lineno, ": bad opcode '", token,
              "' (want hex 0x.. or decimal without a leading 0)");
      case DecimalParse::OutOfRange:
        break;
    }
    fatal("command map line ", lineno, ": opcode '", token,
          "' does not fit in 32 bits");
}

} // namespace

void
CommandMap::map(std::uint32_t opcode, bus::BusOp op)
{
    auto [it, inserted] = table_.insert_or_assign(opcode,
                                                  Entry{false, op});
    (void)it;
    if (inserted)
        ++mapped_;
}

void
CommandMap::drop(std::uint32_t opcode)
{
    auto it = table_.find(opcode);
    if (it != table_.end() && !it->second.dropped)
        --mapped_;
    table_.insert_or_assign(opcode, Entry{true, bus::BusOp::Read});
}

std::optional<bus::BusOp>
CommandMap::translate(std::uint32_t opcode) const
{
    const auto it = table_.find(opcode);
    if (it == table_.end()) {
        if (unknown_ == UnknownPolicy::Fatal)
            fatal("unmapped foreign bus opcode 0x", std::hex, opcode);
        return std::nullopt;
    }
    if (it->second.dropped)
        return std::nullopt;
    return it->second.op;
}

CommandMap
CommandMap::parse(std::string_view text)
{
    CommandMap cmap;
    std::istringstream is{std::string(text)};
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::istringstream ls(line);
        std::vector<std::string> tokens;
        std::string tok;
        while (ls >> tok) {
            if (tok[0] == '#')
                break;
            tokens.push_back(tok);
        }
        if (tokens.empty())
            continue;
        const std::string &kind = tokens[0];
        if (kind == "map") {
            if (tokens.size() != 3)
                fatal("command map line ", lineno,
                      ": expected 'map <opcode> <OP>'");
            cmap.map(parseOpcode(tokens[1], lineno),
                     bus::busOpFromName(tokens[2]));
        } else if (kind == "drop") {
            if (tokens.size() != 2)
                fatal("command map line ", lineno,
                      ": expected 'drop <opcode>'");
            cmap.drop(parseOpcode(tokens[1], lineno));
        } else if (kind == "unknown") {
            if (tokens.size() != 2 ||
                (tokens[1] != "drop" && tokens[1] != "fatal")) {
                fatal("command map line ", lineno,
                      ": expected 'unknown drop|fatal'");
            }
            cmap.setUnknownPolicy(tokens[1] == "drop"
                                      ? UnknownPolicy::Drop
                                      : UnknownPolicy::Fatal);
        } else {
            fatal("command map line ", lineno, ": unknown directive '",
                  kind, "'");
        }
    }
    return cmap;
}

CommandMap
CommandMap::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open command map file '", path, "'");
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return parse(text);
}

CommandMap
makeP6BusCommandMap()
{
    CommandMap cmap;
    cmap.map(0x00, bus::BusOp::Read);       // BRL: bus read line
    cmap.map(0x01, bus::BusOp::Rwitm);      // BRIL: read & invalidate
    cmap.map(0x02, bus::BusOp::WriteBack);  // BWL: write line (castout)
    cmap.map(0x03, bus::BusOp::DClaim);     // BIL: invalidate line
    cmap.map(0x04, bus::BusOp::ReadIfetch); // code read
    cmap.map(0x05, bus::BusOp::WriteKill);  // full-line write
    cmap.map(0x08, bus::BusOp::IoRead);
    cmap.map(0x09, bus::BusOp::IoWrite);
    cmap.map(0x0c, bus::BusOp::Interrupt);
    cmap.map(0x0d, bus::BusOp::Sync);       // fence
    cmap.drop(0x0f);                        // split-reply phase
    return cmap;
}

InterposerCard::InterposerCard(bus::Bus6xx &bus, CommandMap map)
    : bus_(bus), map_(std::move(map))
{
}

bus::SnoopResponse
InterposerCard::deliver(const ForeignTransaction &txn)
{
    const auto op = map_.translate(txn.opcode);
    if (!op) {
        ++stats_.dropped;
        return bus::SnoopResponse::None;
    }
    ++stats_.translated;

    bus::BusTransaction out;
    out.addr = txn.addr;
    out.op = *op;
    out.cpu = txn.agent;
    out.size = txn.size;
    bus_.advanceTo(txn.cycle);
    const auto resp = bus_.issue(out);
    if (resp == bus::SnoopResponse::Retry)
        ++stats_.retriedBy6xxSide;
    return resp;
}

} // namespace memories::ies
