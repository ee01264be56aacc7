/**
 * @file
 * Supervised-worker state machine (DESIGN.md §10): crash -> bounded
 * restart with backoff, hang -> SIGKILL -> restart, clean exit ->
 * done, budget spent -> give up with the worker's status. The worker
 * body runs in a forked child, so tests communicate through an
 * append-only incarnation log on disk. Every suite name starts with
 * "Supervise" so the CI chaos lane selects the lot with
 * `ctest -R '^Supervise'`.
 */

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "service/supervisor.h"

#include "scratch_dir.h"

namespace paqoc {
namespace {

std::string
scratchLog(const std::string &name)
{
    return test_support::scratchDir("supervisor_" + name)
        + "/incarnations.log";
}

/** Append one line to the incarnation log (child-side, crash-safe). */
void
logIncarnation(const std::string &path, int incarnation)
{
    std::ofstream out(path, std::ios::app);
    out << incarnation << "\n";
    out.flush();
}

std::vector<int>
readLog(const std::string &path)
{
    std::vector<int> incarnations;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            incarnations.push_back(std::stoi(line));
    return incarnations;
}

/** Fast-restart options so the suite stays well under a second. */
SupervisorOptions
fastOptions()
{
    SupervisorOptions o;
    o.backoffMs = 10.0;
    o.backoffCapMs = 50.0;
    o.heartbeatIntervalMs = 20.0;
    o.heartbeatTimeoutMs = 400.0;
    return o;
}

TEST(SuperviseLifecycle, CleanExitStopsSupervision)
{
    const std::string log = scratchLog("clean");
    const int code =
        runSupervised(fastOptions(), [&](const WorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            return 0;
        });
    EXPECT_EQ(code, 0);
    EXPECT_EQ(readLog(log), (std::vector<int>{0}));
}

TEST(SuperviseLifecycle, CrashedWorkerRestartsAndServes)
{
    const std::string log = scratchLog("crash");
    const int code =
        runSupervised(fastOptions(), [&](const WorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            if (ctx.incarnation == 0)
                std::_Exit(3); // simulated crash before serving
            return 0;
        });
    EXPECT_EQ(code, 0);
    EXPECT_EQ(readLog(log), (std::vector<int>{0, 1}));
}

TEST(SuperviseLifecycle, SignalDeathAlsoCountsAsCrash)
{
    const std::string log = scratchLog("sigdeath");
    const int code =
        runSupervised(fastOptions(), [&](const WorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            if (ctx.incarnation == 0)
                std::raise(SIGKILL);
            return 0;
        });
    EXPECT_EQ(code, 0);
    EXPECT_EQ(readLog(log), (std::vector<int>{0, 1}));
}

TEST(SuperviseLifecycle, RestartBudgetBoundsTheLoop)
{
    const std::string log = scratchLog("giveup");
    SupervisorOptions opts = fastOptions();
    opts.maxRestarts = 2;
    const int code =
        runSupervised(opts, [&](const WorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            return 7; // persistently broken worker
        });
    // The supervisor hands back the worker's last status and runs it
    // exactly 1 + maxRestarts times.
    EXPECT_EQ(code, 7);
    EXPECT_EQ(readLog(log), (std::vector<int>{0, 1, 2}));
}

TEST(SuperviseHang, SilentWorkerIsKilledAndRestarted)
{
    const std::string log = scratchLog("hang");
    const int code =
        runSupervised(fastOptions(), [&](const WorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            if (ctx.incarnation == 0) {
                // Alive but never beating: the supervisor must SIGKILL
                // this incarnation once the heartbeat timeout passes.
                std::this_thread::sleep_for(
                    std::chrono::seconds(30));
                return 0;
            }
            HeartbeatThread beat(ctx.heartbeatFd,
                                 ctx.heartbeatIntervalMs);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(600));
            return 0;
        });
    EXPECT_EQ(code, 0);
    // Incarnation 1 outlived the heartbeat timeout because it beat.
    EXPECT_EQ(readLog(log), (std::vector<int>{0, 1}));
}

TEST(SuperviseHang, StallFailpointArmsInFirstIncarnationOnly)
{
    const std::string log = scratchLog("stall");
    // PAQOC_WORKER_FAILPOINTS arms inside incarnation 0 only: its
    // heartbeat stalls (a wedged worker), it gets killed, and the
    // restarted incarnation -- same code path, no failpoint -- beats
    // normally and finishes.
    ::setenv("PAQOC_WORKER_FAILPOINTS",
             "heartbeat.stall=return-error", 1);
    const int code =
        runSupervised(fastOptions(), [&](const WorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            HeartbeatThread beat(ctx.heartbeatFd,
                                 ctx.heartbeatIntervalMs);
            // Long enough that a stalled incarnation is reliably
            // killed before it can exit cleanly on its own.
            std::this_thread::sleep_for(std::chrono::milliseconds(
                ctx.incarnation == 0 ? 30000 : 600));
            return 0;
        });
    ::unsetenv("PAQOC_WORKER_FAILPOINTS");
    EXPECT_EQ(code, 0);
    EXPECT_EQ(readLog(log), (std::vector<int>{0, 1}));
}

TEST(SuperviseHang, FailedHeartbeatWriteReadsAsHang)
{
    const std::string log = scratchLog("beatwrite");
    // heartbeat.write fails the byte write itself (vs. heartbeat.stall,
    // which skips it): a worker whose heartbeat pipe write errors must
    // look exactly like a wedged worker to the supervisor -- killed
    // after the timeout, then restarted into an incarnation whose
    // beats flow again.
    ::setenv("PAQOC_WORKER_FAILPOINTS",
             "heartbeat.write=return-error", 1);
    const int code =
        runSupervised(fastOptions(), [&](const WorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            HeartbeatThread beat(ctx.heartbeatFd,
                                 ctx.heartbeatIntervalMs);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                ctx.incarnation == 0 ? 30000 : 600));
            return 0;
        });
    ::unsetenv("PAQOC_WORKER_FAILPOINTS");
    EXPECT_EQ(code, 0);
    EXPECT_EQ(readLog(log), (std::vector<int>{0, 1}));
}

TEST(SuperviseContext, UnsupervisedHeartbeatIsInert)
{
    // paqocd runs the same serve() body with and without --supervise;
    // a default WorkerContext must make the heartbeat a no-op.
    const WorkerContext ctx;
    EXPECT_EQ(ctx.heartbeatFd, -1);
    HeartbeatThread beat(ctx.heartbeatFd, ctx.heartbeatIntervalMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace
} // namespace paqoc
