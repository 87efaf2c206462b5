#include "ies/console.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "testutil/temppath.hh"
#include "trace/tracefile.hh"

namespace memories::ies
{
namespace
{

bus::BusTransaction
readTxn(Addr addr, CpuId cpu)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = bus::BusOp::Read;
    t.cpu = cpu;
    return t;
}

TEST(ConsoleTest, ConfiguresAndInitializesBoard)
{
    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_FALSE(console.initialized());

    EXPECT_NE(console.execute("node 0 cache 64MB 4 128B LRU")
                  .find("64MB"), std::string::npos);
    console.execute("node 0 cpus 0,1,2,3");
    console.execute("node 0 protocol MESI");
    const auto reply = console.execute("init");
    EXPECT_NE(reply.find("1 node"), std::string::npos);
    EXPECT_TRUE(console.initialized());
    ASSERT_NE(console.board(), nullptr);
    EXPECT_EQ(console.board()->numNodes(), 1u);
}

TEST(ConsoleTest, StatsReflectTraffic)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    bus.issue(readTxn(0x1000, 0));
    bus.tick(1000);
    bus.issue(readTxn(0x1000, 1));
    console.board()->drainAll();

    const auto stats = console.execute("stats");
    EXPECT_NE(stats.find("refs 2"), std::string::npos);
    EXPECT_NE(stats.find("hits 1"), std::string::npos);
}

TEST(ConsoleTest, CountersCommandDumpsRawNames)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    const auto counters = console.execute("counters");
    EXPECT_NE(counters.find("node0.local.READ.hit"), std::string::npos);
    EXPECT_NE(counters.find("global.tenures.memory"),
              std::string::npos);
}

TEST(ConsoleTest, ErrorsComeBackAsText)
{
    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_NE(console.execute("bogus").find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("stats").find("error:"),
              std::string::npos); // no board yet
    EXPECT_NE(console.execute("node 0 cache 1KB 4 128B").find("error:"),
              std::string::npos); // below Table 2 range
}

TEST(ConsoleTest, NumbersAreUnsignedDecimalDigitsOnly)
{
    // Digits only: no sign, no base prefix, nothing past 2^64 - 1,
    // and no byte size that overflows once scaled.
    bus::Bus6xx bus;
    Console console(bus);
    for (const char *cmd :
         {"buffer +64", "buffer 0x40", "buffer 99999999999999999999999",
          "node 0 cache 17179869184GB 4 128B",
          "node 0 cache 18446744073709551744 4 128B"})
        EXPECT_EQ(console.execute(cmd).rfind("error:", 0), 0u) << cmd;
    EXPECT_EQ(console.execute("buffer 64").find("error:"),
              std::string::npos);
}

TEST(ConsoleTest, ConfigAfterInitIsRejected)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    EXPECT_NE(console.execute("node 0 cache 4MB 4 128B").find("error:"),
              std::string::npos);
}

TEST(ConsoleTest, ClearAndReset)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    bus.issue(readTxn(0x1000, 0));
    console.board()->drainAll();

    console.execute("clear");
    EXPECT_EQ(console.board()->node(0).stats().localRefs, 0u);
    EXPECT_EQ(console.board()->node(0).directoryOccupancy(), 1u);

    console.execute("reset");
    EXPECT_EQ(console.board()->node(0).directoryOccupancy(), 0u);
}

TEST(ConsoleTest, MultiNodeMultiProtocol)
{
    // Section 3.2: different state tables on different node
    // controllers in the same measurement.
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("node 0 protocol MESI");
    console.execute("node 1 cache 2MB 4 128B");
    console.execute("node 1 cpus 2,3");
    console.execute("node 1 protocol MOESI");
    console.execute("init");
    EXPECT_EQ(console.board()->node(0).config().protocol.name(), "MESI");
    EXPECT_EQ(console.board()->node(1).config().protocol.name(),
              "MOESI");
}

TEST(ConsoleTest, CaptureAndDumpTrace)
{
    const std::string path = test::uniqueTempPath("console_trace.ies");
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("capture 1024");
    console.execute("init");

    bus.issue(readTxn(0x1000, 0));
    bus.issue(readTxn(0x2000, 0));
    console.board()->drainAll();

    const auto reply = console.execute("dump-trace " + path);
    EXPECT_NE(reply.find("2 records"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ConsoleTest, ShutdownDetaches)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    EXPECT_EQ(bus.snooperCount(), 1u);
    console.execute("shutdown");
    EXPECT_EQ(bus.snooperCount(), 0u);
    EXPECT_FALSE(console.initialized());
}

TEST(ConsoleTest, HelpListsCommands)
{
    bus::Bus6xx bus;
    Console console(bus);
    const auto help = console.execute("help");
    EXPECT_NE(help.find("init"), std::string::npos);
    EXPECT_NE(help.find("stats"), std::string::npos);
}

TEST(ConsoleTest, MonitorShowsLiveWindows)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    EXPECT_NE(console.execute("monitor start 1000")
                  .find("monitoring every 1000 bus cycles"),
              std::string::npos);
    EXPECT_NE(console.execute("monitor").find("no window closed yet"),
              std::string::npos);

    bus.issue(readTxn(0x1000, 0));
    bus.tick(2500); // crosses at least two window boundaries

    const auto view = console.execute("monitor");
    EXPECT_NE(view.find("window"), std::string::npos);
    EXPECT_NE(view.find("utilization"), std::string::npos);
    EXPECT_NE(view.find("node0: refs"), std::string::npos);

    EXPECT_NE(console.execute("monitor stop").find("monitor stopped"),
              std::string::npos);
    // The bus must no longer drive a sampler.
    EXPECT_NO_THROW(bus.tick(5000));
}

TEST(ConsoleTest, MonitorRequiresBoardAndSingleSession)
{
    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_NE(console.execute("monitor start 1000").find("error"),
              std::string::npos);

    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");
    console.execute("monitor start 1000");
    EXPECT_NE(console.execute("monitor start 500").find("error"),
              std::string::npos);
    EXPECT_NE(console.execute("monitor stop").find("stopped"),
              std::string::npos);
    EXPECT_NE(console.execute("monitor stop").find("error"),
              std::string::npos);
}

TEST(ConsoleTest, MonitorStartsMidSessionWithoutBackfill)
{
    // Starting the monitor after bus time has advanced must not emit
    // the empty windows since cycle 0 — the first closed window begins
    // at the attach-time boundary.
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    bus.tick(10'000);
    console.execute("monitor start 1000");
    bus.issue(readTxn(0x2000, 0));
    bus.tick(1'500); // to cycle 11500: closes [10000,11000) only

    const auto view = console.execute("monitor");
    EXPECT_NE(view.find("[10000, 11000)"), std::string::npos)
        << view;
}

TEST(ConsoleTest, TraceCommandFamilyDrivesFlightRecorder)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    EXPECT_EQ(console.flightRecorder(), nullptr);
    console.execute("trace start 1024");
    ASSERT_NE(console.flightRecorder(), nullptr);

    bus.issue(readTxn(0x1000, 0));
    bus.tick(1000);
    bus.issue(readTxn(0x1000, 1));
    console.board()->drainAll();
    console.execute("trace mark phase one done");

    const auto status = console.execute("trace status");
    EXPECT_NE(status.find("recorded"), std::string::npos) << status;
    const auto shown = console.execute("trace show 64");
    EXPECT_NE(shown.find("issue"), std::string::npos) << shown;
    EXPECT_NE(shown.find("phase one done"), std::string::npos) << shown;

    const std::string dumpPath =
        test::uniqueTempPath("console_trace_dump.iesspan");
    const std::string jsonPath =
        test::uniqueTempPath("console_trace_dump.json");
    console.execute("trace dump " + dumpPath);
    console.execute("trace chrome " + jsonPath);
    {
        trace::LifecycleReader reader(dumpPath);
        EXPECT_GT(reader.count(), 0u);
    }
    {
        std::FILE *f = std::fopen(jsonPath.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char head[16] = {};
        EXPECT_GT(std::fread(head, 1, sizeof(head), f), 0u);
        std::fclose(f);
        EXPECT_EQ(head[0], '{');
    }
    std::remove(dumpPath.c_str());
    std::remove(jsonPath.c_str());

    console.execute("trace stop");
    EXPECT_EQ(console.flightRecorder(), nullptr);
    EXPECT_EQ(bus.flightRecorder(), nullptr);
}

TEST(ConsoleTest, TraceAutodumpWritesRingOnAnomaly)
{
    // A 2-entry transaction buffer plus back-to-back issues forces an
    // overflow anomaly; the armed autodump must leave the lifecycle
    // history on disk without any further operator action.
    const std::string dumpPath =
        test::uniqueTempPath("console_autodump.iesspan");
    std::remove(dumpPath.c_str());

    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("buffer 2");
    console.execute("init");
    console.execute("trace start 1024");
    console.execute("trace autodump " + dumpPath);

    for (int i = 0; i < 8; ++i)
        bus.issue(readTxn(0x1000u + 128u * i, 0));

    ASSERT_NE(console.flightRecorder(), nullptr);
    EXPECT_GE(console.flightRecorder()->anomalies(), 1u);
    trace::LifecycleReader reader(dumpPath);
    EXPECT_GT(reader.count(), 0u);
    std::remove(dumpPath.c_str());
}

TEST(ConsoleTest, FaultCommandFamilyArmsAndDisarms)
{
    const std::string planPath =
        test::uniqueTempPath("console_fault.plan");
    {
        std::FILE *f = std::fopen(planPath.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char text[] = "dropreply at 1\n";
        std::fwrite(text, 1, sizeof(text) - 1, f);
        std::fclose(f);
    }

    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    // Arming requires a loaded plan; loading requires a real file.
    EXPECT_NE(console.execute("fault arm").find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("fault load /not/there.plan")
                  .find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("fault status").find("no fault plan"),
              std::string::npos);

    EXPECT_NE(console.execute("fault load " + planPath)
                  .find("fault plan loaded (1 spec)"),
              std::string::npos);
    EXPECT_NE(console.execute("fault status").find("dropreply"),
              std::string::npos);
    EXPECT_NE(console.execute("fault arm 7")
                  .find("armed (1 spec, seed 7)"),
              std::string::npos);
    ASSERT_NE(console.faultInjector(), nullptr);
    // Reloading or re-arming while armed is rejected.
    EXPECT_NE(console.execute("fault load " + planPath).find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("fault arm").find("error:"),
              std::string::npos);

    // The scheduled fault fires on the first live tenure.
    bus.issue(readTxn(0x1000, 0));
    bus.tick(1000);
    bus.issue(readTxn(0x1000, 1));
    console.board()->drainAll();
    EXPECT_EQ(console.board()->globalCounters().valueByName(
                  "global.tenures.fault_dropped"),
              1u);
    const auto status = console.execute("fault status");
    EXPECT_NE(status.find("seed 7"), std::string::npos) << status;
    EXPECT_NE(status.find("1 injected"), std::string::npos) << status;

    EXPECT_NE(console.execute("fault disarm").find("disarmed"),
              std::string::npos);
    EXPECT_EQ(console.faultInjector(), nullptr);
    // The plan survives disarm: re-arming is immediate.
    EXPECT_NE(console.execute("fault arm").find("armed"),
              std::string::npos);
    // Shutdown disarms rather than leaving a dangling snooper.
    console.execute("shutdown");
    EXPECT_EQ(console.faultInjector(), nullptr);
    std::remove(planPath.c_str());
}

TEST(ConsoleTest, HealthCommandFamilyStagesPolicyBeforeInit)
{
    bus::Bus6xx bus;
    Console console(bus);

    EXPECT_NE(console.execute("health").find("staged health policy:"),
              std::string::npos);
    console.execute("health on");
    console.execute("health degrade-window 4");
    console.execute("health quarantine-storms 3");
    EXPECT_NE(console.execute("health bogus-key 1").find("error:"),
              std::string::npos);

    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    const auto status = console.execute("health status");
    EXPECT_NE(status.find("health healthy"), std::string::npos)
        << status;
    EXPECT_NE(status.find("lost-inflight 0"), std::string::npos)
        << status;
    // The policy is frozen once the board exists.
    EXPECT_NE(console.execute("health off").find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("health degrade-window 9").find("error:"),
              std::string::npos);
}

TEST(ConsoleTest, ProfCommandFamilyDrivesProfiler)
{
    bus::Bus6xx bus;
    Console console(bus);
    // Before init, start must refuse and read-outs must explain.
    EXPECT_NE(console.execute("prof start").find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("prof").find("error:"),
              std::string::npos);

    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    EXPECT_EQ(console.profiler(), nullptr);
    EXPECT_NE(console.execute("prof start 4096")
                  .find("profiler attached (4096 spans)"),
              std::string::npos);
    ASSERT_NE(console.profiler(), nullptr);
    EXPECT_NE(console.execute("prof start").find("error:"),
              std::string::npos);

    // Drive traffic through the batch path so the hooks fire; spread
    // the cycles out so the paced buffer actually dispatches work.
    std::vector<bus::BusTransaction> txns;
    for (std::uint64_t i = 0; i < 64; ++i) {
        auto t = readTxn(0x1000 + i * 128, i % 2);
        t.cycle = i * 100;
        txns.push_back(t);
    }
    console.board()->feedBatch(txns);
    console.board()->drainAll();

    const auto show = console.execute("prof show");
    EXPECT_NE(show.find("feed_batch"), std::string::npos) << show;
    EXPECT_NE(show.find("emulation"), std::string::npos) << show;

    const std::string folded = test::uniqueTempPath("console.folded");
    EXPECT_NE(console.execute("prof dump " + folded)
                  .find("wrote folded flamegraph stacks"),
              std::string::npos);
    const std::string chrome = test::uniqueTempPath("console.chrome");
    const auto reply = console.execute("prof chrome " + chrome);
    EXPECT_NE(reply.find("profiler spans as Chrome trace JSON"),
              std::string::npos)
        << reply;
    std::remove(folded.c_str());
    std::remove(chrome.c_str());

    EXPECT_NE(console.execute("prof stop").find("profiler detached"),
              std::string::npos);
    EXPECT_EQ(console.profiler(), nullptr);
    EXPECT_EQ(console.board()->profiler(), nullptr);
}

} // namespace
} // namespace memories::ies
