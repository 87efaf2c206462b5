#include "campaign/console.hh"

#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "oracle/diff.hh"

namespace memories::campaign
{

namespace
{

std::uint64_t
parseCount(const std::string &token, const char *what)
{
    std::uint64_t value = 0;
    if (parseDecimal(token, value) != DecimalParse::Ok)
        fatal("bad ", what, " '", token, "'");
    return value;
}

std::string
handleCampaign(ies::Console &, const std::vector<std::string> &tokens)
{
    if (tokens.size() < 2)
        fatal("usage: campaign <start|resume|status> <dir> ...");
    const std::string &sub = tokens[1];
    if (sub == "start") {
        if (tokens.size() < 5 || tokens.size() > 6)
            fatal("usage: campaign start <dir> <seeds> <txns> "
                  "[every]");
        const std::string &dir = tokens[2];
        const std::uint64_t seeds = parseCount(tokens[3], "seed count");
        const std::uint64_t txns = parseCount(tokens[4], "txn count");
        const std::uint64_t every =
            tokens.size() == 6 ? parseCount(tokens[5], "cadence")
                               : std::min<std::uint64_t>(txns, 4096);
        ckpt::ensureDir(dir);
        const CampaignPlan plan =
            buildPlan(oracle::latticeConfigs(), 1,
                      static_cast<std::size_t>(seeds), txns,
                      static_cast<std::uint32_t>(every));
        CampaignRunner runner(oracle::latticeConfigs(), dir);
        const CampaignTotals totals = runner.start(plan);
        return "campaign complete: " + totals.describe();
    }
    if (sub == "resume") {
        if (tokens.size() != 3)
            fatal("usage: campaign resume <dir>");
        CampaignRunner runner(oracle::latticeConfigs(), tokens[2]);
        const CampaignTotals totals = runner.resume();
        return "campaign complete: " + totals.describe();
    }
    if (sub == "status") {
        if (tokens.size() != 3)
            fatal("usage: campaign status <dir>");
        return CampaignRunner::status(tokens[2]);
    }
    fatal("unknown campaign subcommand '", sub, "'");
}

} // namespace

void
registerConsoleCommands(ies::Console &console)
{
    console.registerCommand("campaign", handleCampaign);
}

} // namespace memories::campaign
