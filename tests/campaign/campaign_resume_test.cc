/**
 * @file
 * IESCAMP crash-tolerance: the campaign must survive a crash at
 * *every* durable operation boundary and still produce byte-identical
 * artifacts.
 *
 * The sweep uses a DiskFaultShim that throws at the N-th
 * atomicWriteFile() call — abandoning the in-flight campaign exactly
 * where a kill -9 between two durable operations would — then resumes
 * and compares every unit result file against a golden uninterrupted
 * run. Transient injected disk faults (ENOSPC, short writes) must be
 * retried per unit without changing the artifacts; persistent faults
 * must quarantine the unit after maxAttempts; latent corruption
 * (bit flips, hand-edited checkpoints) must fail the resume closed.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "campaign/faultshim.hh"
#include "campaign/manifest.hh"
#include "campaign/plan.hh"
#include "campaign/runner.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "oracle/diff.hh"
#include "testutil/temppath.hh"

namespace memories::campaign
{
namespace
{

/** Thrown by the shim to abandon the campaign mid-flight. */
struct SimulatedCrash
{
};

/** Crashes (throws) immediately before the target-th atomic write. */
class CrashAtOp final : public ckpt::DiskFaultShim
{
  public:
    explicit CrashAtOp(std::uint64_t target) : target_(target) {}

    ckpt::DiskFault onAtomicWrite(const std::string &) override
    {
        if (ops_++ == target_)
            throw SimulatedCrash{};
        return ckpt::DiskFault{};
    }

    std::uint64_t opsSeen() const { return ops_; }

  private:
    std::uint64_t target_;
    std::uint64_t ops_ = 0;
};

/** Always refuses writes whose path contains @p needle. */
class PoisonPath final : public ckpt::DiskFaultShim
{
  public:
    explicit PoisonPath(std::string needle)
        : needle_(std::move(needle))
    {
    }

    ckpt::DiskFault onAtomicWrite(const std::string &path) override
    {
        if (path.find(needle_) != std::string::npos)
            return {ckpt::DiskFaultKind::NoSpace, 0};
        return ckpt::DiskFault{};
    }

  private:
    std::string needle_;
};

/** Clears the global shim even when a test assertion throws. */
struct ShimGuard
{
    explicit ShimGuard(ckpt::DiskFaultShim *shim)
    {
        ckpt::setDiskFaultShim(shim);
    }
    ~ShimGuard() { ckpt::setDiskFaultShim(nullptr); }
};

std::vector<oracle::LatticeConfig>
testConfigs()
{
    std::vector<oracle::LatticeConfig> picked;
    for (oracle::LatticeConfig &c : oracle::latticeConfigs()) {
        if (c.name == "mesi-2m-4w-lru" || c.name == "msi-2m-4w-lru")
            picked.push_back(std::move(c));
    }
    return picked;
}

CampaignPlan
testPlan(std::uint64_t txns = 512, std::uint32_t every = 128)
{
    CampaignPlan plan =
        buildPlan(testConfigs(), /*firstSeed=*/21, /*numSeeds=*/1,
                  txns, every);
    plan.fleetWorkers = 2;
    return plan;
}

std::string
freshDir(const std::string &tag)
{
    const std::string dir = test::uniqueTempPath("iescamp_resume_" + tag);
    std::filesystem::remove_all(dir);
    ckpt::ensureDir(dir);
    return dir;
}

/** Every unit result file, in unit order (missing file = fatal). */
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

/** One golden uninterrupted run per process, reused by every sweep. */
const std::string &
goldenDir()
{
    static const std::string dir = [] {
        const std::string d = freshDir("golden");
        CampaignRunner runner(testConfigs(), d);
        if (!runner.start(testPlan()).allDone())
            fatal("golden campaign did not complete");
        return d;
    }();
    static const test::TempPathGuard cleanup(dir);
    return dir;
}

TEST(CampaignResumeTest, CrashAtEveryDurableOpResumesByteIdentical)
{
    const auto golden = resultArtifacts(goldenDir());
    const Manifest goldenManifest = Manifest::open(goldenDir());

    for (std::uint64_t crashOp = 0;; ++crashOp) {
        const std::string dir =
            freshDir("crash" + std::to_string(crashOp));
        const test::TempPathGuard cleanup(dir);
        bool crashed = false;
        {
            CrashAtOp shim(crashOp);
            ShimGuard guard(&shim);
            CampaignRunner runner(testConfigs(), dir);
            try {
                runner.start(testPlan());
            } catch (const SimulatedCrash &) {
                crashed = true;
            }
        }
        if (!crashed) {
            // The campaign has fewer durable ops than crashOp: the
            // whole op space has been swept.
            ASSERT_GT(crashOp, 10u)
                << "campaign made suspiciously few durable writes";
            break;
        }

        CampaignRunner again(testConfigs(), dir);
        const CampaignTotals totals =
            crashOp == 0 ? again.start(testPlan()) : again.resume();
        EXPECT_TRUE(totals.allDone())
            << "crash at op " << crashOp << ": " << totals.describe();
        EXPECT_EQ(resultArtifacts(dir), golden)
            << "crash at op " << crashOp
            << " changed the campaign artifacts";
        const Manifest m = Manifest::open(dir);
        for (std::size_t i = 0; i < m.units().size(); ++i) {
            EXPECT_EQ(m.unit(i).retireCrc,
                      goldenManifest.unit(i).retireCrc)
                << "crash at op " << crashOp
                << " changed the retirement order of unit " << i;
            EXPECT_EQ(m.unit(i).consumed,
                      goldenManifest.unit(i).consumed);
            EXPECT_EQ(m.unit(i).overflowDrops,
                      goldenManifest.unit(i).overflowDrops);
        }
    }
}

TEST(CampaignResumeTest, DoubleCrashChainsResumeByteIdentical)
{
    const auto golden = resultArtifacts(goldenDir());
    // Crash once during start, again during the first resume, then
    // finish on the third process — the CI drill, deterministically.
    for (const auto &[first, second] :
         {std::pair<std::uint64_t, std::uint64_t>{2, 1},
          {3, 4},
          {5, 0}}) {
        const std::string dir =
            freshDir("double" + std::to_string(first) + "_" +
                     std::to_string(second));
        const test::TempPathGuard cleanup(dir);
        CampaignRunner runner(testConfigs(), dir);
        {
            CrashAtOp shim(first);
            ShimGuard guard(&shim);
            EXPECT_THROW(runner.start(testPlan()), SimulatedCrash);
        }
        {
            CrashAtOp shim(second);
            ShimGuard guard(&shim);
            EXPECT_THROW(runner.resume(), SimulatedCrash);
        }
        EXPECT_TRUE(runner.resume().allDone());
        EXPECT_EQ(resultArtifacts(dir), golden);
    }
}

TEST(CampaignResumeTest, FaultSpecRejectsOutOfRangeNumbers)
{
    // Every malformed spec is a FatalError, out-of-range numbers too.
    EXPECT_THROW(parseFaultSpec("crash@99999999999999999999999"),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("shortwrite@2:99999999999999999999999"),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("crash@+3"), FatalError);
    EXPECT_EQ(parseFaultSpec("crash@18446744073709551615").size(), 1u);
}

TEST(CampaignResumeTest, TransientDiskFaultsAreRetriedByteIdentical)
{
    const auto golden = resultArtifacts(goldenDir());
    const std::string dir = freshDir("transient");
    const test::TempPathGuard cleanup(dir);
    // Ops 2 and 3 are the first segment's unit checkpoint writes
    // (op 0 creates the manifest, op 1 marks the wave running); a
    // short write and an ENOSPC there must each fail only that
    // unit's attempt, and backoff retries must converge on the same
    // artifacts.
    ScriptedDiskFaults shim(
        parseFaultSpec("shortwrite@2:64,enospc@3"));
    ShimGuard guard(&shim);
    CampaignRunner runner(testConfigs(), dir);
    const CampaignTotals totals = runner.start(testPlan());
    EXPECT_TRUE(totals.allDone()) << totals.describe();
    EXPECT_EQ(shim.injected(), 2u);
    EXPECT_EQ(resultArtifacts(dir), golden);
    const Manifest m = Manifest::open(dir);
    EXPECT_GT(m.unit(0).attempts + m.unit(1).attempts, 2u)
        << "injected faults should have cost extra attempts";
}

TEST(CampaignResumeTest, PersistentFaultQuarantinesOnlyThatUnit)
{
    const auto golden = resultArtifacts(goldenDir());
    const std::string dir = freshDir("quarantine");
    const test::TempPathGuard cleanup(dir);
    PoisonPath shim("unit0.");
    ShimGuard guard(&shim);
    CampaignRunner runner(testConfigs(), dir);
    const CampaignTotals totals = runner.start(testPlan());
    EXPECT_TRUE(totals.complete());
    EXPECT_EQ(totals.quarantined, 1u);
    EXPECT_EQ(totals.done, 1u);
    const Manifest m = Manifest::open(dir);
    EXPECT_EQ(m.unit(0).state, UnitState::Quarantined);
    EXPECT_EQ(m.unit(0).attempts, m.plan().maxAttempts);
    // The healthy unit's artifact must be untouched by its sick
    // neighbour.
    EXPECT_EQ(ckpt::readFileBytes(m.resultPath(1), "unit result"),
              golden[1]);
}

TEST(CampaignResumeTest, LatentCheckpointCorruptionFailsResumeClosed)
{
    const std::string dir = freshDir("latent");
    const test::TempPathGuard cleanup(dir);
    {
        // Flip a bit in the first unit checkpoint (op 2) — latent
        // corruption the writer cannot see — then crash a few durable
        // ops later, so resume must restore from the corrupt file.
        class FlipThenCrash final : public ckpt::DiskFaultShim
        {
          public:
            ckpt::DiskFault onAtomicWrite(const std::string &) override
            {
                const std::uint64_t op = ops_++;
                if (op == 2)
                    return {ckpt::DiskFaultKind::BitFlip, 501};
                if (op == 7)
                    throw SimulatedCrash{};
                return ckpt::DiskFault{};
            }

          private:
            std::uint64_t ops_ = 0;
        } flip;
        ShimGuard guard(&flip);
        CampaignRunner runner(testConfigs(), dir);
        EXPECT_THROW(runner.start(testPlan()), SimulatedCrash);
    }
    CampaignRunner again(testConfigs(), dir);
    try {
        again.resume();
        FAIL() << "resume accepted a checkpoint whose bytes no longer "
                  "match the manifest hash";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("corrupt checkpoint"),
                  std::string::npos)
            << err.what();
    }
}

TEST(CampaignResumeTest, CorruptResultArtifactFailsResumeClosed)
{
    const std::string dir = freshDir("badresult");
    const test::TempPathGuard cleanup(dir);
    CampaignRunner runner(testConfigs(), dir);
    ASSERT_TRUE(runner.start(testPlan()).allDone());
    const Manifest m = Manifest::open(dir);
    std::vector<std::uint8_t> bytes =
        ckpt::readFileBytes(m.resultPath(0), "unit result");
    bytes[bytes.size() / 2] ^= 0x10;
    {
        std::FILE *f = std::fopen(m.resultPath(0).c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }
    CampaignRunner again(testConfigs(), dir);
    EXPECT_THROW(again.resume(), FatalError);
}

TEST(CampaignResumeTest, ResumeRejectsChangedConfigRegistry)
{
    const std::string dir = freshDir("changedcfg");
    const test::TempPathGuard cleanup(dir);
    CampaignRunner runner(testConfigs(), dir);
    ASSERT_TRUE(runner.start(testPlan()).allDone());
    // Rerun against a registry whose board geometry changed under the
    // same name: fingerprint validation must refuse.
    std::vector<oracle::LatticeConfig> mutated = testConfigs();
    mutated[0].config.nodes[0].cache.sizeBytes *= 2;
    CampaignRunner again(mutated, dir, {});
    // All units are Done, so resume succeeds without touching configs;
    // force revalidation by clearing one unit back to Pending.
    {
        Manifest m = Manifest::open(dir);
        UnitStatus s = m.unit(0);
        s.state = UnitState::Pending;
        s.position = 0;
        s.ckptCrc = 0;
        m.update(0, s);
    }
    EXPECT_THROW(again.resume(), FatalError);
}

TEST(CampaignResumeTest, WatchdogDeadlineFailsSlowAttempts)
{
    const std::string dir = freshDir("watchdog");
    const test::TempPathGuard cleanup(dir);
    RunnerOptions opts;
    opts.attemptDeadlineMs = 1; // every wave blows the budget
    CampaignRunner runner(testConfigs(), dir, opts);
    const CampaignTotals totals = runner.start(testPlan(4096, 64));
    EXPECT_TRUE(totals.complete());
    EXPECT_EQ(totals.quarantined, 2u) << totals.describe();
    const Manifest m = Manifest::open(dir);
    EXPECT_NE(m.unit(0).note.find("watchdog"), std::string::npos)
        << m.unit(0).note;
}

} // namespace
} // namespace memories::campaign
