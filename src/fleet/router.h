#ifndef PAQOC_FLEET_ROUTER_H_
#define PAQOC_FLEET_ROUTER_H_

#include <functional>
#include <string>
#include <vector>

namespace paqoc {
namespace fleet {

/** Pool-manager configuration of `paqocd --fleet N` (DESIGN.md §12). */
struct RouterOptions
{
    /** Unix-domain listening socket ("" = none). */
    std::string socketPath;
    /** TCP listener host ("" = no TCP listener). */
    std::string listenHost;
    /** TCP listener port (0 = kernel-assigned ephemeral). */
    int listenPort = 0;
    /** Worker processes to keep alive. */
    int workers = 2;
    /** Restart budget per worker slot (crashes + hangs combined). */
    int maxRestarts = 5;
    /** First restart delay of a slot; doubles per restart, capped. */
    double backoffMs = 200.0;
    double backoffCapMs = 30000.0;
    /** How often a healthy worker beats. */
    double heartbeatIntervalMs = 250.0;
    /** Heartbeat silence after which a worker is SIGKILLed (0 = off). */
    double heartbeatTimeoutMs = 5000.0;
    /** Router event log (may be empty). */
    std::function<void(const std::string &)> log;
};

/** What a fleet worker incarnation needs from its router. */
struct FleetWorkerContext
{
    /** Stable worker slot in [0, workers). */
    int slot = 0;
    /** 0 for the slot's first spawn, incremented per restart. */
    int incarnation = 0;
    /** Control socket: receive client connections via fleet::recvFd.
     *  EOF here means the router is gone -- drain and exit. */
    int controlFd = -1;
    /** Write end of the heartbeat pipe. */
    int heartbeatFd = -1;
    double heartbeatIntervalMs = 250.0;
};

/**
 * Multi-worker fleet router: the `--supervise` single-worker state
 * machine (service/supervisor.h) generalized to a pool. The router
 * owns the listening endpoints (Unix socket and/or TCP), accepts every
 * client connection, and hands each accepted socket to a worker over
 * that slot's control socketpair via SCM_RIGHTS (fleet/fdpass.h),
 * round-robin over live slots; a handed connection still queued when
 * its worker dies is taken back at reap and handed on. Per slot it
 * keeps the supervisor's guarantees: heartbeat monitoring, SIGKILL on
 * hang, bounded exponentially backed-off restarts,
 * PAQOC_WORKER_FAILPOINTS armed in slot 0's first incarnation only.
 *
 * Shutdown is drain-aware: on SIGTERM/SIGINT (or requestStop()) the
 * router closes its listeners, forwards the signal to every worker,
 * and waits for each to drain its in-flight requests and exit. One
 * worker exiting cleanly on its own (a client's "shutdown" op) also
 * drains the whole fleet -- a half-shutdown fleet would silently serve
 * at reduced capacity otherwise.
 *
 * Failure injection: `fleet.accept` fires on every accepted
 * connection (return-error drops it, abort kills the router);
 * `fleet.fdpass` fires inside the handoff (see fleet/fdpass.h).
 *
 * This file and service/supervisor.cpp are the only places allowed to
 * call fork()/kill()/waitpid() (lint rule `process-control`).
 */
class Router
{
  public:
    /**
     * `worker` runs in the forked child with the slot's context and
     * its return value becomes the child's exit status. It must not
     * depend on any thread started after Router::start() forked.
     */
    Router(RouterOptions options,
           std::function<int(const FleetWorkerContext &)> worker);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Bind the listeners and fork the workers. Must be called while
     * the process is still single-threaded (fork safety).
     */
    void start();

    /** Monitor/dispatch until shutdown; returns the exit code. */
    int runLoop();

    /** start() + runLoop(). */
    int run();

    /** Ask runLoop() to drain and return (thread-safe). */
    void requestStop();

    /** Resolved TCP port (after start(); -1 without a TCP listener). */
    int tcpPort() const { return tcp_port_; }

    struct SlotStats
    {
        /** Spawns of this slot (1 = never restarted). */
        int incarnations = 0;
        /** Connections handed to this slot. */
        long handed = 0;
    };
    /** Per-slot lifetime stats (valid after runLoop() returned). */
    std::vector<SlotStats> slotStats() const;

  private:
    struct Slot
    {
        pid_t pid = -1;
        int controlFd = -1;   ///< parent end of the control pair
        /**
         * Router-held copy of the worker's end of the control pair.
         * A connection handed to an incarnation that exits before
         * receiving it stays queued here, so reapWorker can take it
         * back and hand it to a live slot instead of dropping it.
         */
        int workerEndFd = -1;
        int heartbeatFd = -1; ///< read end of the heartbeat pipe
        int incarnation = -1; ///< -1 = never spawned
        bool alive = false;
        bool dead = false; ///< restart budget spent
        bool killedForHang = false;
        double lastBeatMs = 0.0;
        double backoffMs = 0.0;
        double restartDueMs = 0.0; ///< 0 = no restart scheduled
        long handed = 0;
        int lastStatus = 0;
    };

    void spawnWorker(int slot_index);
    void closeSlotParentFds(Slot &slot);
    /** Accept + hand off one connection from listener `fd`. */
    void dispatchConnection(int listen_fd);
    /** Hand `fd` to the next live slot (round-robin), or close it. */
    void handOff(int fd);
    void reapWorker(int slot_index);
    void beginShutdown(int signum);
    void say(const std::string &message) const;

    RouterOptions options_;
    std::function<int(const FleetWorkerContext &)> worker_;
    std::vector<Slot> slots_;
    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = -1;
    int next_slot_ = 0;
    bool started_ = false;
    bool stopping_ = false;
    int stop_signal_ = 0;
};

} // namespace fleet
} // namespace paqoc

#endif // PAQOC_FLEET_ROUTER_H_
