#ifndef E2EBENCH_SERVING_H_
#define E2EBENCH_SERVING_H_

/**
 * @file
 * The serving side of the benchmark, driven from outside: a paqocd
 * child process, /proc sampling of it and every process it forked, and
 * closed-loop clients over ServiceClient.
 */

#include <cstddef>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common/json.h"

namespace e2ebench {

/** A paqocd child process; stopped (SIGTERM, then waited) on destruction. */
class Daemon
{
  public:
    /**
     * Spawn `binary args...` with stdout and stderr appended to
     * `log_path`, then wait until it answers a ping with ok. The
     * client target is `socket` unless `tcp` is set, in which case it
     * is 127.0.0.1 and the port paqocd logs. Throws on failure or
     * when it has not answered within a minute.
     */
    Daemon(const std::string &binary, std::vector<std::string> args,
           const std::string &socket, bool tcp,
           const std::string &log_path);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Where clients connect: a socket path or 127.0.0.1:PORT. */
    const std::string &target() const { return target_; }
    pid_t pid() const { return pid_; }
    /** Seconds from spawn to the first ok response. */
    double setupSeconds() const { return setup_s_; }

    /** SIGTERM, wait for exit (SIGKILL after `grace_s`); exit code. */
    int stop(double grace_s = 30.0);

  private:
    pid_t pid_ = -1;
    std::string target_;
    double setup_s_ = 0.0;
};

/** Resource use of a process tree at one instant, from /proc. */
struct ProcSample
{
    /** Processes sampled: the root and all its descendants. */
    std::size_t processes = 0;
    /** Summed utime + stime, seconds. */
    double cpuSeconds = 0.0;
    /** Summed VmHWM, MiB. */
    double peakRssMb = 0.0;
};

/** pid and every live descendant of it. */
std::vector<pid_t> processTree(pid_t root);

ProcSample sampleProcesses(pid_t root);

/** One completed request of a closed-loop run. */
struct Completion
{
    std::size_t index = 0;
    double latencyMs = 0.0;
    bool ok = false;
    /** Server-side compile wall time ("stats.wall_seconds"), ms. */
    double serverMs = 0.0;
    /** The response payload, dumped (empty when not ok). */
    std::string payload;
    std::string error;
};

/** Everything a closed-loop run observed. */
struct LoadResult
{
    std::vector<Completion> completions;
    /** Wall time from the first send to the last reply, seconds. */
    double wallSeconds = 0.0;
    /** Round trips of the pings interleaved with the load, ms. */
    std::vector<double> pingMs;
    /** The "stats" op before and after, one per client connection. */
    std::vector<paqoc::Json> statsBefore;
    std::vector<paqoc::Json> statsAfter;
    /** /proc samples of the serving processes before and after. */
    ProcSample procBefore;
    ProcSample procAfter;
};

/** How a closed-loop run drives the daemon. */
struct LoadPlan
{
    /** Client threads, each with its own connection. */
    int clients = 1;
    /**
     * Sent once on every connection, one connection at a time, before
     * anything else (null: none), so each serving process finishes its
     * lazy initialisation serially.
     */
    const paqoc::Json *serialWarmup = nullptr;
    /** Unmeasured closed-loop phase over `warmupRequest(i)` first. */
    double warmupSeconds = 0.0;
    std::function<paqoc::Json(std::size_t)> warmupRequest;
    /** The measured phase over `request(i)`. */
    double seconds = 0.0;
    std::function<paqoc::Json(std::size_t)> request;
};

/**
 * Closed loop: each client takes the next stream index from a shared
 * counter, sends the request and waits for the reply, until the
 * phase's time is up, and pings on its connection every 0.25 s. The
 * stats op and /proc are sampled around the measured phase only.
 */
LoadResult runClosedLoop(const std::string &target, pid_t daemon_pid,
                         const LoadPlan &plan);

/** Sum a numeric member path ("a.b.c") over stats documents, one per
 * distinct library directory (fleet workers share no library). */
double sumStats(const std::vector<paqoc::Json> &stats,
                const std::string &path);

} // namespace e2ebench

#endif // E2EBENCH_SERVING_H_
