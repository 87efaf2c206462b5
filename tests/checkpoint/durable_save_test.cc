/**
 * @file
 * Durable checkpoint saves: a failed or killed save must never
 * clobber or truncate the checkpoint already on disk. The save path
 * (CheckpointWriter::writeFile -> ckpt::atomicWriteFile) renders to a
 * temp file, fsyncs, and renames — these tests drive every failure
 * mode through the disk-fault shim plus a real SIGKILL loop and
 * assert the prior bytes survive intact.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "ies/board.hh"
#include "ies/boardconfig.hh"
#include "testutil/temppath.hh"

namespace memories::ckpt
{
namespace
{

ies::BoardConfig
smallBoard()
{
    return ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
}

void
warmUp(ies::MemoriesBoard &board, std::uint64_t seed)
{
    Rng rng(seed);
    Cycle cycle = 0;
    for (int i = 0; i < 2000; ++i) {
        cycle += 3;
        bus::BusTransaction t;
        t.addr = rng.nextBounded(1 << 13) * 128;
        t.op = rng.nextBool(0.3) ? bus::BusOp::Rwitm
                                 : bus::BusOp::Read;
        t.cpu = static_cast<CpuId>(rng.nextBounded(8));
        t.cycle = cycle;
        board.feedCommitted(t);
    }
    board.drainAll();
}

/** Injects one scripted fault on the next atomic write, then clears. */
class OneShotFault final : public DiskFaultShim
{
  public:
    explicit OneShotFault(DiskFault fault) : fault_(fault) {}

    DiskFault onAtomicWrite(const std::string &) override
    {
        const DiskFault f = fault_;
        fault_ = DiskFault{};
        return f;
    }

  private:
    DiskFault fault_;
};

struct ShimGuard
{
    explicit ShimGuard(DiskFaultShim *shim) { setDiskFaultShim(shim); }
    ~ShimGuard() { setDiskFaultShim(nullptr); }
};

class DurableSaveTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = test::uniqueTempPath("durable_save.ckpt");
        removeFileIfExists(path_);
        removeFileIfExists(path_ + ".tmp");
    }

    void TearDown() override
    {
        removeFileIfExists(path_);
        removeFileIfExists(path_ + ".tmp");
    }

    std::string path_;
};

TEST_F(DurableSaveTest, FailedSaveNeverClobbersExistingCheckpoint)
{
    ies::MemoriesBoard board(smallBoard());
    warmUp(board, 11);
    board.saveState(path_);
    const std::vector<std::uint8_t> before =
        readFileBytes(path_, "checkpoint");

    // Mutate the board so the refused saves would have written
    // different bytes, then drive every injectable failure mode.
    warmUp(board, 22);
    const DiskFault faults[] = {
        {DiskFaultKind::NoSpace, 0},
        {DiskFaultKind::ShortWrite, 0},
        {DiskFaultKind::ShortWrite, 100},
        {DiskFaultKind::TornRename, 0},
    };
    for (const DiskFault f : faults) {
        OneShotFault shim(f);
        ShimGuard guard(&shim);
        EXPECT_THROW(board.saveState(path_), FatalError)
            << diskFaultKindName(f.kind);
        EXPECT_EQ(readFileBytes(path_, "checkpoint"), before)
            << diskFaultKindName(f.kind)
            << " damaged the existing checkpoint";
        // The survivor must still parse and restore cleanly.
        EXPECT_NO_THROW(CheckpointImage::fromFile(path_));
    }

    // With the shim gone the same save succeeds and replaces the
    // file atomically.
    board.saveState(path_);
    const std::vector<std::uint8_t> after =
        readFileBytes(path_, "checkpoint");
    EXPECT_NE(after, before);
    ies::MemoriesBoard restored(smallBoard());
    EXPECT_NO_THROW(restored.loadState(path_));
}

TEST_F(DurableSaveTest, ShortWriteLeavesTornTempNotTornCheckpoint)
{
    ies::MemoriesBoard board(smallBoard());
    warmUp(board, 33);
    board.saveState(path_);
    const std::vector<std::uint8_t> before =
        readFileBytes(path_, "checkpoint");

    warmUp(board, 44);
    OneShotFault shim({DiskFaultKind::ShortWrite, 64});
    ShimGuard guard(&shim);
    EXPECT_THROW(board.saveState(path_), FatalError);
    // The torn bytes are in the temp file — visibly partial, never
    // published over the real checkpoint.
    EXPECT_TRUE(fileExists(path_ + ".tmp"));
    EXPECT_EQ(readFileBytes(path_ + ".tmp", "temp").size(), 64u);
    EXPECT_EQ(readFileBytes(path_, "checkpoint"), before);
}

TEST_F(DurableSaveTest, KilledWriterNeverTearsTheCheckpoint)
{
    // A child process overwrites the checkpoint in a tight loop,
    // alternating between two board states; the parent SIGKILLs it at
    // a random moment. Whatever instruction the kill lands on, the
    // file at path_ must afterwards parse as one complete, valid
    // checkpoint (the old bytes or the new — never a hybrid).
    ies::MemoriesBoard board(smallBoard());
    warmUp(board, 55);
    board.saveState(path_);

    Rng rng(7);
    for (int trial = 0; trial < 6; ++trial) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ies::MemoriesBoard child(smallBoard());
            warmUp(child, 55);
            ies::MemoriesBoard other(smallBoard());
            warmUp(other, 66);
            for (;;) {
                child.saveState(path_);
                other.saveState(path_);
            }
        }
        ::usleep(static_cast<useconds_t>(
            5000 + rng.nextBounded(40000)));
        ::kill(pid, SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status));
        EXPECT_NO_THROW(CheckpointImage::fromFile(path_))
            << "trial " << trial
            << ": kill mid-save left a torn checkpoint";
    }
}

} // namespace
} // namespace memories::ckpt
