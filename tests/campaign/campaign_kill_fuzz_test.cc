/**
 * @file
 * Kill-and-resume fuzz: a real campaign process SIGKILLed at
 * randomized wall-clock points — including mid-manifest-rewrite and
 * mid-checkpoint-write, since the kill lands wherever the process
 * happens to be — must, after resuming to completion, produce unit
 * artifacts byte-identical to an uninterrupted run.
 *
 * Each trial forks a child that starts (or resumes) the campaign and
 * _exits 0 on completion; the parent SIGKILLs it after a seeded
 * random delay and goes again until a child survives. The delay window
 * is proportional to the golden run's wall time in this process, so
 * kills land anywhere in a run however fast the build is (a sanitizer
 * build runs the same work many times slower). Seeds default
 * to a quick smoke count locally; CI raises MEMORIES_CAMP_SEEDS to
 * fuzz at least 20 schedules (see .github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "campaign/manifest.hh"
#include "campaign/plan.hh"
#include "campaign/runner.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "oracle/diff.hh"
#include "testutil/temppath.hh"

namespace memories::campaign
{
namespace
{

std::vector<oracle::LatticeConfig>
testConfigs()
{
    std::vector<oracle::LatticeConfig> picked;
    for (oracle::LatticeConfig &c : oracle::latticeConfigs()) {
        if (c.name == "mesi-2m-4w-lru" || c.name == "mesi-2m-4w-fifo")
            picked.push_back(std::move(c));
    }
    return picked;
}

CampaignPlan
testPlan()
{
    CampaignPlan plan = buildPlan(testConfigs(), /*firstSeed=*/5,
                                  /*numSeeds=*/1, /*txnsPerUnit=*/768,
                                  /*checkpointEvery=*/128);
    plan.fleetWorkers = 2;
    return plan;
}

std::string
freshDir(const std::string &tag)
{
    const std::string dir = test::uniqueTempPath("iescamp_kill_" + tag);
    std::filesystem::remove_all(dir);
    ckpt::ensureDir(dir);
    return dir;
}

std::vector<std::vector<std::uint8_t>>
resultArtifacts(const std::string &dir)
{
    const Manifest m = Manifest::open(dir);
    std::vector<std::vector<std::uint8_t>> results;
    for (std::size_t i = 0; i < m.units().size(); ++i)
        results.push_back(
            ckpt::readFileBytes(m.resultPath(i), "unit result"));
    return results;
}

/** Run the campaign at @p dir to completion in a child process. */
pid_t
spawnCampaignChild(const std::string &dir)
{
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    // Child: never return into gtest. _exit skips atexit/destructors,
    // so a clean completion looks exactly like the CLI's exit path.
    try {
        CampaignRunner runner(testConfigs(), dir);
        const CampaignTotals totals =
            ckpt::fileExists(Manifest::manifestPath(dir))
                ? runner.resume()
                : runner.start(testPlan());
        _exit(totals.allDone() ? 0 : 2);
    } catch (...) {
        _exit(3);
    }
}

TEST(CampaignKillFuzzTest, KillAndResumeIsByteIdentical)
{
    // Golden uninterrupted run, same process, timed: it sets the
    // kill-delay window.
    const std::string goldenDir = freshDir("golden");
    const test::TempPathGuard goldenGuard(goldenDir);
    const auto goldenStart = std::chrono::steady_clock::now();
    {
        CampaignRunner runner(testConfigs(), goldenDir);
        ASSERT_TRUE(runner.start(testPlan()).allDone());
    }
    const auto goldenUs =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - goldenStart)
            .count();
    // Delays span one golden run, so kills land anywhere in it; each
    // resumed child has less left to do and soon outlives its delay.
    const std::uint64_t window =
        std::max<std::uint64_t>(static_cast<std::uint64_t>(goldenUs), 1);
    const auto golden = resultArtifacts(goldenDir);
    const Manifest goldenManifest = Manifest::open(goldenDir);

    unsigned seeds = 4; // local smoke; CI sets >= 20
    if (const char *env = std::getenv("MEMORIES_CAMP_SEEDS"))
        seeds = static_cast<unsigned>(std::strtoul(env, nullptr, 10));

    for (unsigned seed = 1; seed <= seeds; ++seed) {
        const std::string dir = freshDir("s" + std::to_string(seed));
        const test::TempPathGuard guard(dir);
        Rng rng(seed * 977 + 11);
        unsigned kills = 0;
        for (int attempt = 0;; ++attempt) {
            ASSERT_LT(attempt, 200)
                << "campaign never completed under kill fuzzing";
            const pid_t pid = spawnCampaignChild(dir);
            ASSERT_GT(pid, 0);
            ::usleep(static_cast<useconds_t>(rng.nextBounded(window)));
            ::kill(pid, SIGKILL);
            int status = 0;
            ASSERT_EQ(::waitpid(pid, &status, 0), pid);
            if (WIFEXITED(status)) {
                ASSERT_EQ(WEXITSTATUS(status), 0)
                    << "child failed instead of completing or dying";
                break;
            }
            ASSERT_TRUE(WIFSIGNALED(status));
            ++kills;
        }

        const auto results = resultArtifacts(dir);
        EXPECT_EQ(results, golden)
            << "seed " << seed << " (" << kills
            << " kills) changed the campaign artifacts";
        const Manifest m = Manifest::open(dir);
        for (std::size_t i = 0; i < m.units().size(); ++i) {
            EXPECT_EQ(m.unit(i).retireCrc,
                      goldenManifest.unit(i).retireCrc)
                << "seed " << seed << " changed retirement order of "
                << "unit " << i;
        }
    }
}

} // namespace
} // namespace memories::campaign
