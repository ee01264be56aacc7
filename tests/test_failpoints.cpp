/**
 * @file
 * Chaos tests for the failure-injection framework (DESIGN.md §9): the
 * failpoint registry itself, the checked I/O wrappers, and every layer
 * that must *survive* an injected failure -- journal recovery, the
 * pulse library's read-only degraded mode, scheduler backpressure,
 * protocol timeouts and dead peers, client retry/backoff, and the
 * stitched GRAPE fallback. Every suite name starts with "Failpoint" so
 * the CI chaos lane can select the lot with `ctest -R '^Failpoint'`.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "circuit/gate.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/thread_annotations.h"
#include "qoc/pulse_cache.h"
#include "qoc/pulse_generator.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/service.h"
#include "store/journal.h"
#include "store/pulse_library.h"

#include "scratch_dir.h"

namespace paqoc {
namespace {

namespace fp = failpoint;

/**
 * Every test arms points through one of these so a failing assertion
 * can never leak an armed failpoint into the next test.
 */
struct FailpointGuard
{
    FailpointGuard() { fp::disarmAll(); }
    ~FailpointGuard() { fp::disarmAll(); }
};

using test_support::scratchDir;
using test_support::scratchSocket;

/** A healthy (non-degraded) library entry for a 1-qubit gate. */
CachedPulse
entryFor(const Matrix &unitary, double latency)
{
    CachedPulse e;
    e.unitary = unitary;
    e.numQubits = 1;
    e.latency = latency;
    e.error = 1e-3;
    return e;
}

std::string
keyFor(const Matrix &unitary)
{
    return PulseCache::canonicalKey(unitary, 1);
}

// ---------------------------------------------------------------------
// Registry: grammar, budgets, introspection.
// ---------------------------------------------------------------------

TEST(FailpointRegistry, UnarmedPointsAreOff)
{
    FailpointGuard guard;
    EXPECT_EQ(fp::evaluate("no.such.point").action, fp::Action::Off);
    EXPECT_TRUE(fp::armed().empty());
    EXPECT_EQ(fp::fired("no.such.point"), 0u);
}

TEST(FailpointRegistry, CountedBudgetExhausts)
{
    FailpointGuard guard;
    fp::arm("t.counted", "return-error:2");
    EXPECT_EQ(fp::evaluate("t.counted").action,
              fp::Action::ReturnError);
    EXPECT_EQ(fp::evaluate("t.counted").action,
              fp::Action::ReturnError);
    EXPECT_EQ(fp::evaluate("t.counted").action, fp::Action::Off);
    EXPECT_EQ(fp::fired("t.counted"), 2u);
}

TEST(FailpointRegistry, SpecGrammarParsesArgumentAndCount)
{
    FailpointGuard guard;
    fp::armFromSpec(" t.delay = delay-ms(0):2 , t.nospace = enospc ");
    const std::vector<std::string> expected = {"t.delay=delay-ms(0):2",
                                               "t.nospace=enospc"};
    EXPECT_EQ(fp::armed(), expected);

    const fp::Hit hit = fp::evaluate("t.delay");
    EXPECT_EQ(hit.action, fp::Action::DelayMs);
    EXPECT_EQ(hit.arg, 0);
    // One firing consumed: the remaining budget is visible.
    const std::vector<std::string> after = {"t.delay=delay-ms(0):1",
                                            "t.nospace=enospc"};
    EXPECT_EQ(fp::armed(), after);
    EXPECT_EQ(fp::evaluate("t.nospace").action, fp::Action::Enospc);
}

TEST(FailpointRegistry, MalformedSpecsAreRejected)
{
    FailpointGuard guard;
    EXPECT_THROW(fp::arm("t.bad", "explode"), FatalError);
    EXPECT_THROW(fp::arm("t.bad", "return-error:0"), FatalError);
    EXPECT_THROW(fp::arm("t.bad", "delay-ms(x)"), FatalError);
    EXPECT_THROW(fp::arm("", "enospc"), FatalError);
    EXPECT_THROW(fp::armFromSpec("missing-equals-sign"), FatalError);
    EXPECT_TRUE(fp::armed().empty());
}

TEST(FailpointRegistry, DisarmStopsInjection)
{
    FailpointGuard guard;
    fp::arm("t.a", "return-error");
    fp::arm("t.b", "eintr");
    fp::disarm("t.a");
    EXPECT_EQ(fp::evaluate("t.a").action, fp::Action::Off);
    EXPECT_EQ(fp::evaluate("t.b").action, fp::Action::Eintr);
    fp::disarmAll();
    EXPECT_EQ(fp::evaluate("t.b").action, fp::Action::Off);
    EXPECT_TRUE(fp::armed().empty());
}

// ---------------------------------------------------------------------
// Checked wrappers: the boundary between injection and real syscalls.
// ---------------------------------------------------------------------

TEST(FailpointWrappers, InjectedErrnosReachTheCaller)
{
    FailpointGuard guard;
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    fp::arm("t.w", "return-error:1");
    errno = 0;
    EXPECT_EQ(fp::checkedWrite("t.w", fds[1], "abcd", 4), -1);
    EXPECT_EQ(errno, EIO);

    fp::arm("t.w", "enospc:1");
    errno = 0;
    EXPECT_EQ(fp::checkedWrite("t.w", fds[1], "abcd", 4), -1);
    EXPECT_EQ(errno, ENOSPC);

    fp::arm("t.w", "eintr:1");
    errno = 0;
    EXPECT_EQ(fp::checkedWrite("t.w", fds[1], "abcd", 4), -1);
    EXPECT_EQ(errno, EINTR);

    // Unarmed: bytes really flow.
    EXPECT_EQ(fp::checkedWrite("t.w", fds[1], "abcd", 4), 4);
    char buf[8] = {};
    EXPECT_EQ(::read(fds[0], buf, sizeof buf), 4);
    EXPECT_EQ(std::string(buf, 4), "abcd");
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FailpointWrappers, ShortWriteReallyTransfersAPrefix)
{
    FailpointGuard guard;
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    fp::arm("t.w", "short-write:1");
    errno = 0;
    EXPECT_EQ(fp::checkedWrite("t.w", fds[1], "abcdefgh", 8), -1);
    EXPECT_EQ(errno, EIO);
    // Half the buffer landed before the failure: a torn record.
    char buf[8] = {};
    EXPECT_EQ(::read(fds[0], buf, sizeof buf), 4);
    EXPECT_EQ(std::string(buf, 4), "abcd");
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FailpointWrappers, CheckedFsyncInjectsAndPassesThrough)
{
    FailpointGuard guard;
    const std::string dir = scratchDir("fsync");
    const int fd =
        ::open((dir + "/f").c_str(), O_CREAT | O_RDWR, 0644);
    ASSERT_GE(fd, 0);
    fp::arm("t.sync", "return-error:1");
    EXPECT_EQ(fp::checkedFsync("t.sync", fd), -1);
    EXPECT_EQ(fp::checkedFsync("t.sync", fd), 0);
    ::close(fd);
}

TEST(FailpointWrappers, CheckedSendSurvivesADeadPeer)
{
    // The MSG_NOSIGNAL contract: sending into a closed socket yields
    // EPIPE instead of a process-killing SIGPIPE.
    FailpointGuard guard;
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[1]);
    errno = 0;
    EXPECT_EQ(fp::checkedSend("t.s", fds[0], "abcd", 4), -1);
    EXPECT_EQ(errno, EPIPE);
    ::close(fds[0]);
}

// ---------------------------------------------------------------------
// Journal: torn tails, disk-full, recovery after restart.
// ---------------------------------------------------------------------

TEST(FailpointJournal, TornAppendIsSkippedAndTruncatedOnReopen)
{
    FailpointGuard guard;
    const std::string path = scratchDir("journal_torn") + "/j.bin";
    {
        JournalWriter w = JournalWriter::openAppend(path, "fp", 0);
        w.append("hello");
        fp::arm("journal.append", "short-write:1");
        EXPECT_THROW(w.append("worldworldworld"), FatalError);
        fp::disarmAll();
    }
    std::vector<std::string> records;
    JournalScan scan = scanJournal(
        path, "fp", [&](const std::string &p) { records.push_back(p); });
    EXPECT_EQ(scan.records, 1u);
    EXPECT_GT(scan.droppedBytes, 0u);
    EXPECT_FALSE(scan.warning.empty());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0], "hello");

    // Reopen at the committed prefix: the torn tail is cut away and
    // appends continue as if the fault never happened.
    {
        JournalWriter w =
            JournalWriter::openAppend(path, "fp", scan.committedBytes);
        w.append("again");
        EXPECT_TRUE(w.sync());
    }
    records.clear();
    scan = scanJournal(
        path, "fp", [&](const std::string &p) { records.push_back(p); });
    EXPECT_EQ(scan.records, 2u);
    EXPECT_EQ(scan.droppedBytes, 0u);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1], "again");
}

TEST(FailpointJournal, EintrIsRetriedTransparently)
{
    FailpointGuard guard;
    const std::string path = scratchDir("journal_eintr") + "/j.bin";
    JournalWriter w = JournalWriter::openAppend(path, "fp", 0);
    fp::arm("journal.append", "eintr:1");
    w.append("persisted"); // must NOT throw: EINTR means retry
    w.close();
    std::size_t n = 0;
    scanJournal(path, "fp", [&](const std::string &) { ++n; });
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fp::fired("journal.append"), 1u);
}

TEST(FailpointJournal, HeaderWriteFailureIsATypedError)
{
    FailpointGuard guard;
    const std::string path = scratchDir("journal_open") + "/j.bin";
    fp::arm("journal.open", "return-error:1");
    EXPECT_THROW(JournalWriter::openAppend(path, "fp", 0), FatalError);
    fp::disarmAll();
    // The next open starts clean (empty file gets a fresh header).
    JournalWriter w = JournalWriter::openAppend(path, "fp", 0);
    w.append("ok");
}

TEST(FailpointJournal, FsyncFailureIsReportedNotThrown)
{
    FailpointGuard guard;
    const std::string path = scratchDir("journal_fsync") + "/j.bin";
    JournalWriter w = JournalWriter::openAppend(path, "fp", 0);
    w.append("rec");
    fp::arm("journal.fsync", "return-error:1");
    EXPECT_FALSE(w.sync());
    EXPECT_TRUE(w.sync());
}

// ---------------------------------------------------------------------
// Pulse library: disk faults flip it to read-only degraded mode; it
// keeps serving from memory and a restart recovers the journaled part.
// ---------------------------------------------------------------------

TEST(FailpointLibrary, EnospcDegradesToMemoryOnlyServing)
{
    FailpointGuard guard;
    const std::string dir = scratchDir("lib_enospc");
    const Matrix ux = Gate(Op::X, {0}).unitary();
    const Matrix uh = Gate(Op::H, {0}).unitary();
    const Matrix uz = Gate(Op::Z, {0}).unitary();
    {
        PulseLibrary lib(dir, "test-fp");
        lib.onInsert(keyFor(ux), entryFor(ux, 10.0)); // journaled
        fp::arm("journal.append", "enospc:1");
        lib.onInsert(keyFor(uh), entryFor(uh, 20.0)); // fault -> degrade
        lib.onInsert(keyFor(uz), entryFor(uz, 30.0)); // memory only
        fp::disarmAll();

        // All three keep being served from memory...
        EXPECT_EQ(lib.size(), 3u);
        EXPECT_EQ(lib.entriesSnapshot().size(), 3u);
        const PulseLibraryStats st = lib.stats();
        EXPECT_TRUE(st.degraded);
        EXPECT_EQ(st.appendedRecords, 1u);
        EXPECT_EQ(st.failedAppends, 2u);
        ASSERT_FALSE(st.warnings.empty());
        EXPECT_NE(st.warnings.back().find("degraded to read-only"),
                  std::string::npos);
        // ...and compaction refuses to touch the failing disk.
        lib.compact();
        EXPECT_TRUE(lib.stats().degraded);
    }
    // Restart on a healthy disk: everything journaled before the
    // fault is back, and the library is healthy again.
    PulseLibrary fresh(dir, "test-fp");
    EXPECT_EQ(fresh.size(), 1u);
    const PulseLibraryStats st = fresh.stats();
    EXPECT_FALSE(st.degraded);
    EXPECT_EQ(st.journalRecords, 1u);
}

TEST(FailpointLibrary, FsyncFailureDegradesWhenSyncingEveryAppend)
{
    FailpointGuard guard;
    const std::string dir = scratchDir("lib_fsync");
    const Matrix ux = Gate(Op::X, {0}).unitary();
    PulseLibraryOptions opts;
    opts.syncEveryAppend = true;
    {
        PulseLibrary lib(dir, "test-fp", opts);
        fp::arm("journal.fsync", "return-error:1");
        lib.onInsert(keyFor(ux), entryFor(ux, 10.0));
        fp::disarmAll();
        const PulseLibraryStats st = lib.stats();
        EXPECT_TRUE(st.degraded);
        // The append itself landed before the fsync refusal...
        EXPECT_EQ(st.appendedRecords, 1u);
    }
    // ...so the record survives the restart.
    PulseLibrary fresh(dir, "test-fp", opts);
    EXPECT_EQ(fresh.size(), 1u);
    EXPECT_FALSE(fresh.stats().degraded);
}

TEST(FailpointLibrary, CompactionFailureDegradesAndRestartRecovers)
{
    FailpointGuard guard;
    const std::string dir = scratchDir("lib_compact");
    const Matrix ux = Gate(Op::X, {0}).unitary();
    {
        PulseLibrary lib(dir, "test-fp");
        lib.onInsert(keyFor(ux), entryFor(ux, 10.0));
        fp::arm("library.compact", "return-error:1");
        lib.compact(); // must not throw
        fp::disarmAll();
        EXPECT_TRUE(lib.stats().degraded);
        EXPECT_EQ(lib.size(), 1u); // still serving
    }
    PulseLibrary fresh(dir, "test-fp");
    EXPECT_EQ(fresh.size(), 1u);
    EXPECT_FALSE(fresh.stats().degraded);
}

TEST(FailpointLibrary, DegradedPulsesAreNeverPersisted)
{
    FailpointGuard guard;
    const std::string dir = scratchDir("lib_degraded_entry");
    const Matrix ux = Gate(Op::X, {0}).unitary();
    const Matrix uh = Gate(Op::H, {0}).unitary();
    {
        PulseLibrary lib(dir, "test-fp");
        lib.onInsert(keyFor(ux), entryFor(ux, 10.0));
        CachedPulse stitched = entryFor(uh, 20.0);
        stitched.degraded = true;
        lib.onInsert(keyFor(uh), stitched);
        EXPECT_EQ(lib.size(), 1u);
        EXPECT_EQ(lib.stats().skippedDegradedPulses, 1u);
        EXPECT_FALSE(lib.stats().degraded); // entry-level, not library
    }
    PulseLibrary fresh(dir, "test-fp");
    EXPECT_EQ(fresh.size(), 1u);
}

// ---------------------------------------------------------------------
// Scheduler and protocol boundaries.
// ---------------------------------------------------------------------

TEST(FailpointScheduler, InjectedOverloadIsCountedAndRecoverable)
{
    FailpointGuard guard;
    SessionScheduler sched(8);
    fp::arm("scheduler.submit", "return-error:1");
    std::atomic<int> ran{0};
    EXPECT_EQ(sched.submit([&]() { ran.fetch_add(1); }),
              SessionScheduler::Admit::Overloaded);
    EXPECT_EQ(sched.submit([&]() { ran.fetch_add(1); }),
              SessionScheduler::Admit::Accepted);
    sched.drain();
    EXPECT_EQ(ran.load(), 1);
    const SessionScheduler::Stats st = sched.stats();
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.accepted, 1u);
}

TEST(FailpointProtocol, InjectedWriteFailureThrowsThenClears)
{
    FailpointGuard guard;
    fp::arm("protocol.write", "return-error:1");
    {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        EXPECT_THROW(protocol::writeFrame(fds[0], "{}"), FatalError);
        ::close(fds[0]);
        ::close(fds[1]);
    }
    {
        // Budget spent: frames flow again on a fresh pair.
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        protocol::writeFrame(fds[0], "{\"op\":\"ping\"}");
        std::string got;
        ASSERT_TRUE(protocol::readFrame(fds[1], got));
        EXPECT_EQ(got, "{\"op\":\"ping\"}");
        ::close(fds[0]);
        ::close(fds[1]);
    }
}

TEST(FailpointProtocol, InjectedReadFailureIsATypedError)
{
    FailpointGuard guard;
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    protocol::writeFrame(fds[0], "{}");
    fp::arm("protocol.read", "return-error:1");
    std::string got;
    EXPECT_THROW(protocol::readFrame(fds[1], got), FatalError);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FailpointProtocol, WriteToDeadPeerThrowsInsteadOfKilling)
{
    FailpointGuard guard;
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[1]);
    // Without MSG_NOSIGNAL in the frame writer this would SIGPIPE the
    // whole test binary.
    EXPECT_THROW(protocol::writeFrame(fds[0], "{\"op\":\"ping\"}"),
                 FatalError);
    ::close(fds[0]);
}

// ---------------------------------------------------------------------
// Client: retry, backoff, timeouts, backpressure, deadline budget.
// ---------------------------------------------------------------------

/** The shared live-daemon fixture from the service tests. */
struct ServerFixture
{
    PulseService service;
    SocketServer server;
    std::thread runner;

    explicit ServerFixture(const std::string &name,
                           ServiceOptions sopts = {},
                           std::size_t max_queue = 64)
        : service(std::move(sopts)), server(service, [&] {
              ServerOptions opts;
              opts.socketPath = scratchSocket("failpoints_" + name);
              opts.maxQueue = max_queue;
              return opts;
          }())
    {
        ::unlink(server.socketPath().c_str());
        server.start();
        runner = std::thread([this]() { server.run(); });
    }

    ~ServerFixture()
    {
        server.requestStop();
        runner.join();
    }
};

/**
 * A daemon that accepts connections but answers every frame with the
 * overloaded backpressure response -- the pathological case of a
 * permanently saturated queue.
 */
struct OverloadedServer
{
    std::string path;
    int listen_fd = -1;
    std::thread runner;
    std::atomic<bool> stop{false};
    std::atomic<int> frames{0};

    explicit OverloadedServer(const std::string &name)
        : path(scratchSocket("failpoints_" + name))
    {
        ::unlink(path.c_str());
        listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        PAQOC_FATAL_IF(listen_fd < 0, "socket(): fixture setup failed");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        PAQOC_FATAL_IF(::bind(listen_fd,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr))
                           != 0,
                       "bind(): fixture setup failed");
        PAQOC_FATAL_IF(::listen(listen_fd, 8) != 0,
                       "listen(): fixture setup failed");
        runner = std::thread([this]() {
            for (;;) {
                const int fd = ::accept(listen_fd, nullptr, nullptr);
                if (fd < 0 || stop.load()) {
                    if (fd >= 0)
                        ::close(fd);
                    return;
                }
                try {
                    std::string frame;
                    while (protocol::readFrame(fd, frame)) {
                        frames.fetch_add(1);
                        protocol::writeFrame(
                            fd, protocol::overloadedResponse().dump());
                    }
                } catch (const FatalError &) {
                }
                ::close(fd);
            }
        });
    }

    ~OverloadedServer()
    {
        stop.store(true);
        // accept() does not reliably wake when the listening fd
        // closes; poke it with a throwaway connection instead.
        const int poke = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        (void)::connect(poke, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr));
        ::close(poke);
        runner.join();
        ::close(listen_fd);
        ::unlink(path.c_str());
    }
};

/** Listens but never accepts: the shape of a wedged daemon. */
struct HungListener
{
    std::string path;
    int listen_fd = -1;

    explicit HungListener(const std::string &name)
        : path(scratchSocket("failpoints_" + name))
    {
        ::unlink(path.c_str());
        listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        PAQOC_FATAL_IF(listen_fd < 0, "socket(): fixture setup failed");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        PAQOC_FATAL_IF(::bind(listen_fd,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr))
                           != 0,
                       "bind(): fixture setup failed");
        PAQOC_FATAL_IF(::listen(listen_fd, 8) != 0,
                       "listen(): fixture setup failed");
    }

    ~HungListener()
    {
        ::close(listen_fd);
        ::unlink(path.c_str());
    }
};

TEST(FailpointClient, BackoffScheduleIsDeterministicAndCapped)
{
    ClientOptions opts;
    opts.backoffMs = 10.0;
    EXPECT_EQ(ServiceClient::backoffDelayMs(opts, 0), 10.0);
    EXPECT_EQ(ServiceClient::backoffDelayMs(opts, 1), 20.0);
    EXPECT_EQ(ServiceClient::backoffDelayMs(opts, 4), 160.0);
    // Exponent clamps at 16 so the delay never overflows to infinity.
    EXPECT_EQ(ServiceClient::backoffDelayMs(opts, 16),
              ServiceClient::backoffDelayMs(opts, 40));
    // Negative attempts (defensive) clamp to the base delay.
    EXPECT_EQ(ServiceClient::backoffDelayMs(opts, -1), 10.0);
}

TEST(FailpointClient, ConnectFailureIsATypedErrorNotAnAbort)
{
    FailpointGuard guard;
    const std::string path = scratchSocket("failpoints_nodaemon");
    ::unlink(path.c_str());
    ClientOptions opts;
    opts.retries = 2;
    opts.backoffMs = 1.0;
    try {
        ServiceClient client(path, opts);
        FAIL() << "connect to a missing socket must throw";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cannot connect"), std::string::npos)
            << what;
        EXPECT_NE(what.find("is paqocd running?"), std::string::npos)
            << what;
    }
}

TEST(FailpointClient, ConnectRetriesPastInjectedFailures)
{
    FailpointGuard guard;
    ServerFixture fx("client_retry");
    fp::arm("client.connect", "return-error:2");
    ClientOptions opts;
    opts.retries = 3;
    opts.backoffMs = 1.0;
    ServiceClient client(fx.server.socketPath(), opts);
    EXPECT_EQ(fp::fired("client.connect"), 2u);
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    const Json resp = client.request(ping);
    EXPECT_TRUE(resp.at("ok").asBool());
}

TEST(FailpointClient, RequestTimesOutOnAHungDaemon)
{
    FailpointGuard guard;
    HungListener hung("hung");
    ClientOptions opts;
    opts.timeoutMs = 100.0;
    ServiceClient client(hung.path, opts); // connect = backlog, fine
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    const auto start = std::chrono::steady_clock::now();
    try {
        (void)client.request(ping);
        FAIL() << "request against a hung daemon must time out";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("timed out"),
                  std::string::npos)
            << e.what();
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed_ms, 5000.0);
}

TEST(FailpointClient, DeadlineBudgetBoundsRetries)
{
    FailpointGuard guard;
    HungListener hung("deadline");
    ClientOptions opts;
    opts.retries = 50; // would take many seconds without a budget
    opts.backoffMs = 100.0;
    opts.timeoutMs = 50.0;
    ServiceClient client(hung.path, opts);
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    ping.set("deadline_ms", Json(150.0));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW((void)client.request(ping), FatalError);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // The deadline_ms budget must stop the retry loop long before the
    // 50-retry worst case (tens of seconds of backoff alone).
    EXPECT_LT(elapsed_ms, 3000.0);
}

TEST(FailpointClient, BackpressureIsRetriedThenReturnedAsIs)
{
    FailpointGuard guard;
    OverloadedServer overloaded("backpressure");
    ClientOptions opts;
    opts.retries = 2;
    opts.backoffMs = 1.0;
    ServiceClient client(overloaded.path, opts);
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    const Json resp = client.request(ping);
    // Budget exhausted: the caller sees the daemon's final word, a
    // well-formed backpressure response, not an exception.
    EXPECT_FALSE(resp.at("ok").asBool());
    EXPECT_TRUE(resp.at("retry").asBool());
    EXPECT_EQ(overloaded.frames.load(), 3); // initial + 2 retries
}

TEST(FailpointClient, ReconnectsAfterTheDaemonDropsTheConnection)
{
    FailpointGuard guard;
    ServerFixture fx("client_reconnect");
    ServiceClient client(fx.server.socketPath());
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    EXPECT_TRUE(client.request(ping).at("ok").asBool());
    // Sever the connection under the client, then retry: a client
    // with a retry budget re-dials instead of failing the request.
    client.close();
    ClientOptions opts;
    opts.retries = 1;
    opts.backoffMs = 1.0;
    ServiceClient retrying(fx.server.socketPath(), opts);
    retrying.close();
    EXPECT_TRUE(retrying.request(ping).at("ok").asBool());
}

// ---------------------------------------------------------------------
// GRAPE: forced non-convergence must yield a served, tagged pulse.
// ---------------------------------------------------------------------

GrapeOptions
tinyGrape()
{
    GrapeOptions o;
    o.maxIterations = 2;
    o.restarts = 1;
    o.durationProbes = 1;
    return o;
}

TEST(FailpointGrape, ForcedNonConvergenceServesAStitchedPulse)
{
    FailpointGuard guard;
    fp::arm("grape.converge", "return-error");
    GrapePulseGenerator gen(tinyGrape());
    const Matrix ux = Gate(Op::X, {0}).unitary();
    const PulseGenResult r = gen.generate(ux, 1);
    EXPECT_TRUE(r.degraded);
    ASSERT_TRUE(r.schedule.has_value());
    EXPECT_GT(r.schedule->numSlices(), 0u);
    EXPECT_GT(r.latency, 0.0);

    // Served again from the session cache, still tagged.
    const PulseGenResult again = gen.generate(ux, 1);
    EXPECT_TRUE(again.cacheHit);
    EXPECT_TRUE(again.degraded);
}

TEST(FailpointGrape, StitchedPulsesAreExcludedFromSavedDatabases)
{
    FailpointGuard guard;
    fp::arm("grape.converge", "return-error");
    GrapePulseGenerator gen(tinyGrape());
    const Matrix ux = Gate(Op::X, {0}).unitary();
    EXPECT_TRUE(gen.generate(ux, 1).degraded);
    fp::disarmAll();
    EXPECT_EQ(gen.cache().size(), 1u);

    const std::string path = scratchDir("grape_db") + "/pulses.db";
    gen.saveDatabase(path);
    GrapePulseGenerator fresh(tinyGrape());
    fresh.loadDatabase(path);
    EXPECT_EQ(fresh.cache().size(), 0u);
}

// ---------------------------------------------------------------------
// Service: degraded state is visible in payloads and stats, the
// daemon survives dead clients, and a restart heals everything.
// ---------------------------------------------------------------------

Json
generateRequest(const Matrix &unitary, const std::string &backend)
{
    Json r = Json::object();
    r.set("op", Json("generate"));
    r.set("backend", Json(backend));
    r.set("unitary", protocol::matrixToJson(unitary));
    return r;
}

TEST(FailpointService, LibraryFaultDegradesButServiceKeepsServing)
{
    FailpointGuard guard;
    const std::string dir = scratchDir("svc_enospc");
    ServiceOptions sopts;
    sopts.libraryDir = dir;
    const Matrix ux = Gate(Op::X, {0}).unitary();
    const Matrix uh = Gate(Op::H, {0}).unitary();
    std::string healthy_payload;
    {
        PulseService svc(sopts);
        // First derivation journals cleanly...
        Json resp = svc.handle(generateRequest(ux, "spectral"));
        ASSERT_TRUE(resp.at("ok").asBool());
        healthy_payload = resp.at("payload").dump();
        // ...then the disk fills and the next one degrades the lib.
        fp::arm("journal.append", "enospc:1");
        resp = svc.handle(generateRequest(uh, "spectral"));
        fp::disarmAll();
        ASSERT_TRUE(resp.at("ok").asBool());

        const Json stats = svc.statsJson();
        const Json &lib = stats.at("libraries").at("spectral");
        EXPECT_TRUE(lib.at("degraded").asBool());
        EXPECT_EQ(lib.at("failed_appends").asInt(), 1);

        // Degraded is not down: repeat requests still answer, byte
        // for byte what a healthy service answers.
        resp = svc.handle(generateRequest(ux, "spectral"));
        ASSERT_TRUE(resp.at("ok").asBool());
        EXPECT_EQ(resp.at("payload").dump(), healthy_payload);
    }
    // A restart on a healthy disk recovers the journaled entry and
    // clears the degraded flag.
    PulseService fresh(sopts);
    const Json stats = fresh.statsJson();
    const Json &lib = stats.at("libraries").at("spectral");
    EXPECT_FALSE(lib.at("degraded").asBool());
    EXPECT_EQ(lib.at("records").asInt(), 1);
}

TEST(FailpointService, DegradedPulseIsTaggedInPayloadAndStats)
{
    FailpointGuard guard;
    ServiceOptions sopts;
    sopts.grape = tinyGrape();
    PulseService svc(sopts);
    fp::arm("grape.converge", "return-error");
    const Matrix ux = Gate(Op::X, {0}).unitary();
    const Json resp = svc.handle(generateRequest(ux, "grape"));
    fp::disarmAll();
    ASSERT_TRUE(resp.at("ok").asBool());
    const Json &payload = resp.at("payload");
    ASSERT_TRUE(payload.contains("degraded"));
    EXPECT_TRUE(payload.at("degraded").asBool());
    ASSERT_TRUE(payload.contains("schedule"));
    EXPECT_TRUE(payload.at("schedule").at("degraded").asBool());
    EXPECT_EQ(svc.statsJson()
                  .at("serving")
                  .at("degraded_pulses")
                  .asInt(),
              1);
}

TEST(FailpointService, HealthyPayloadsCarryNoDegradedKey)
{
    // The zero-behavior-change guarantee: without armed failpoints the
    // degraded machinery must be invisible on the wire.
    FailpointGuard guard;
    PulseService svc;
    const Matrix ux = Gate(Op::X, {0}).unitary();
    const Json resp = svc.handle(generateRequest(ux, "spectral"));
    ASSERT_TRUE(resp.at("ok").asBool());
    EXPECT_FALSE(resp.at("payload").contains("degraded"));
    EXPECT_EQ(svc.statsJson()
                  .at("serving")
                  .at("degraded_pulses")
                  .asInt(),
              0);
}

TEST(FailpointService, ServerSurvivesAClientThatDiesMidRequest)
{
    FailpointGuard guard;
    ServerFixture fx("dead_client");
    // A client that sends a request and vanishes before the response:
    // the server's reply hits a closed socket and must not take the
    // daemon down with SIGPIPE or an escaping exception.
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      fx.server.socketPath().c_str());
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        Json req = Json::object();
        req.set("op", Json("ping"));
        protocol::writeFrame(fd, req.dump());
        ::close(fd); // die without reading the response
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // The daemon is still alive and serving.
    ServiceClient client(fx.server.socketPath());
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    EXPECT_TRUE(client.request(ping).at("ok").asBool());
}

TEST(FailpointService, ClientResendsBufferedRequestWhenServerDiesMidResponse)
{
    // The inverse of the dead-client test: the *server* "dies" after
    // reading the request but before writing a byte of the response
    // (server.response severs the socket, exactly what a crash
    // between compute and reply looks like). The client must not hang
    // on the missing frame: it reconnects and resends its buffered
    // request copy -- the caller handed over the payload once and
    // never re-reads it -- and the retried attempt succeeds.
    FailpointGuard guard;
    ServerFixture fx("sever_response");
    fp::arm("server.response", "return-error:1");

    ClientOptions copts;
    copts.retries = 2;
    copts.backoffMs = 5.0;
    ServiceClient client(fx.server.socketPath(), copts);
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    const Json resp = client.request(ping);
    EXPECT_TRUE(resp.at("ok").asBool());
    // Exactly one response was suppressed; the success came from the
    // resent copy, not from a lucky first attempt.
    EXPECT_EQ(fp::fired("server.response"), 1u);
}

TEST(FailpointService, SeveredResponseWithoutRetriesFailsFast)
{
    // Same injected mid-response death, but a fail-fast client
    // (retries = 0): at most one failed request, a typed error, and
    // never a hang on the torn frame.
    FailpointGuard guard;
    ServerFixture fx("sever_failfast");
    fp::arm("server.response", "return-error:1");
    ServiceClient client(fx.server.socketPath());
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    EXPECT_THROW(client.request(ping), FatalError);
}

} // namespace
} // namespace paqoc
