#include "serving.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench_lib.h"
#include "service/client.h"

namespace e2ebench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kStartTimeoutSeconds = 60.0;
constexpr double kPingEverySeconds = 0.25;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** "paqocd: tcp port N" from the daemon's log, or -1. */
int
loggedTcpPort(const std::string &log_path)
{
    std::ifstream in(log_path);
    std::string line;
    const std::string tag = "paqocd: tcp port ";
    while (std::getline(in, line))
        if (line.rfind(tag, 0) == 0)
            return std::stoi(line.substr(tag.size()));
    return -1;
}

paqoc::Json
opRequest(const char *op)
{
    paqoc::Json r = paqoc::Json::object();
    r.set("op", paqoc::Json(op));
    return r;
}

bool
isOk(const paqoc::Json &response)
{
    return response.isObject() && response.contains("ok")
        && response.at("ok").isBool() && response.at("ok").asBool();
}

/** Fields of /proc/<pid>/stat after the command name. */
std::vector<std::string>
statFields(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    std::vector<std::string> fields;
    if (close == std::string::npos)
        return fields;
    std::istringstream rest(text.substr(close + 1));
    std::string f;
    while (rest >> f)
        fields.push_back(f);
    return fields;
}

} // namespace

Daemon::Daemon(const std::string &binary, std::vector<std::string> args,
               const std::string &socket, bool tcp,
               const std::string &log_path)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(binary.c_str()));
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const Clock::time_point t0 = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0)
        throw std::runtime_error(std::string("fork: ")
                                 + std::strerror(errno));
    if (pid_ == 0) {
        const int fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execv(binary.c_str(), argv.data());
        ::_exit(127);
    }

    target_ = tcp ? "" : socket;
    for (;;) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("paqocd exited during start-up; see "
                                     + log_path);
        }
        if (secondsSince(t0) > kStartTimeoutSeconds) {
            stop(1.0);
            throw std::runtime_error("paqocd did not answer within "
                                     "the start-up timeout");
        }
        if (target_.empty()) {
            const int port = loggedTcpPort(log_path);
            if (port > 0)
                target_ = "127.0.0.1:" + std::to_string(port);
        }
        if (!target_.empty()) {
            try {
                paqoc::ServiceClient client(target_);
                if (isOk(client.request(opRequest("ping")))) {
                    setup_s_ = secondsSince(t0);
                    return;
                }
            } catch (const std::exception &) {
                // Not listening yet.
            }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

Daemon::~Daemon()
{
    if (pid_ > 0)
        stop();
}

int
Daemon::stop(double grace_s)
{
    if (pid_ <= 0)
        return 0;
    ::kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    for (;;) {
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_ || (r < 0 && errno != EINTR))
            break;
        if (secondsSince(t0) > grace_s) {
            for (pid_t p : processTree(pid_))
                ::kill(p, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

std::vector<pid_t>
processTree(pid_t root)
{
    std::multimap<pid_t, pid_t> children;
    if (DIR *dir = ::opendir("/proc")) {
        while (const dirent *e = ::readdir(dir)) {
            char *end = nullptr;
            const long pid = std::strtol(e->d_name, &end, 10);
            if (end == e->d_name || *end != '\0')
                continue;
            const std::vector<std::string> f =
                statFields(static_cast<pid_t>(pid));
            if (f.size() > 1)
                children.emplace(static_cast<pid_t>(std::stol(f[1])),
                                 static_cast<pid_t>(pid));
        }
        ::closedir(dir);
    }
    std::vector<pid_t> tree = {root};
    for (std::size_t i = 0; i < tree.size(); ++i) {
        const auto range = children.equal_range(tree[i]);
        for (auto it = range.first; it != range.second; ++it)
            tree.push_back(it->second);
    }
    return tree;
}

ProcSample
sampleProcesses(pid_t root)
{
    ProcSample s;
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    for (pid_t pid : processTree(root)) {
        const std::vector<std::string> f = statFields(pid);
        if (f.size() < 13)
            continue;
        ++s.processes;
        s.cpuSeconds += (std::stod(f[11]) + std::stod(f[12])) / tick;
        std::ifstream status("/proc/" + std::to_string(pid) + "/status");
        std::string line;
        while (std::getline(status, line))
            if (line.rfind("VmHWM:", 0) == 0)
                s.peakRssMb += std::stod(line.substr(6)) / 1024.0;
    }
    return s;
}

namespace {

/** What one closed-loop phase left behind. */
struct Phase
{
    std::vector<Completion> completions;
    std::vector<double> pingMs;
    double wallSeconds = 0.0;
};

/** One closed-loop phase over the given connections. */
Phase
runPhase(std::vector<std::unique_ptr<paqoc::ServiceClient>> &conns,
         double seconds,
         const std::function<paqoc::Json(std::size_t)> &request)
{
    const std::size_t clients = conns.size();
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<Completion>> done(clients);
    std::vector<std::vector<double>> pings(clients);
    std::vector<std::string> failures(clients);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<Clock::time_point> finished(clients, t0);

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
            paqoc::ServiceClient &client = *conns[c];
            Clock::time_point last_ping = Clock::now();
            try {
                while (Clock::now() < deadline) {
                    if (secondsSince(last_ping) >= kPingEverySeconds) {
                        const Clock::time_point p0 = Clock::now();
                        if (isOk(client.request(opRequest("ping"))))
                            pings[c].push_back(1e3 * secondsSince(p0));
                        last_ping = Clock::now();
                    }
                    Completion one;
                    one.index = next.fetch_add(1);
                    const paqoc::Json req = request(one.index);
                    const Clock::time_point r0 = Clock::now();
                    const paqoc::Json resp = client.request(req);
                    one.latencyMs = 1e3 * secondsSince(r0);
                    one.ok = isOk(resp);
                    if (one.ok) {
                        one.payload = resp.at("payload").dump();
                        one.serverMs = 1e3
                            * resp.at("stats")
                                  .get("wall_seconds", paqoc::Json(0.0))
                                  .asNumber();
                    } else {
                        one.error = resp.dump();
                    }
                    done[c].push_back(std::move(one));
                }
            } catch (const std::exception &e) {
                failures[c] = e.what();
            }
            finished[c] = Clock::now();
        });
    }
    for (std::thread &t : threads)
        t.join();

    Phase phase;
    Clock::time_point last = t0;
    for (std::size_t c = 0; c < clients; ++c) {
        if (!failures[c].empty())
            throw std::runtime_error("client " + std::to_string(c)
                                     + " failed: " + failures[c]);
        last = std::max(last, finished[c]);
        for (Completion &d : done[c])
            phase.completions.push_back(std::move(d));
        phase.pingMs.insert(phase.pingMs.end(), pings[c].begin(),
                            pings[c].end());
    }
    phase.wallSeconds = std::chrono::duration<double>(last - t0).count();
    return phase;
}

} // namespace

LoadResult
runClosedLoop(const std::string &target, pid_t daemon_pid,
              const LoadPlan &plan)
{
    std::vector<std::unique_ptr<paqoc::ServiceClient>> conns;
    for (int c = 0; c < plan.clients; ++c) {
        conns.push_back(std::make_unique<paqoc::ServiceClient>(target));
        if (plan.serialWarmup != nullptr) {
            const paqoc::Json r = conns.back()->request(*plan.serialWarmup);
            if (!isOk(r))
                throw std::runtime_error("warm-up request failed: "
                                         + r.dump());
        }
    }
    if (plan.warmupSeconds > 0.0)
        for (const Completion &c :
             runPhase(conns, plan.warmupSeconds, plan.warmupRequest)
                 .completions)
            if (!c.ok)
                throw std::runtime_error("warm-up request failed: "
                                         + c.error);

    LoadResult result;
    for (const auto &conn : conns)
        result.statsBefore.push_back(conn->request(opRequest("stats")));
    result.procBefore = sampleProcesses(daemon_pid);
    Phase measured = runPhase(conns, plan.seconds, plan.request);
    result.procAfter = sampleProcesses(daemon_pid);
    for (const auto &conn : conns)
        result.statsAfter.push_back(conn->request(opRequest("stats")));
    result.completions = std::move(measured.completions);
    result.pingMs = std::move(measured.pingMs);
    result.wallSeconds = measured.wallSeconds;
    return result;
}

double
sumStats(const std::vector<paqoc::Json> &stats, const std::string &path)
{
    std::map<std::string, double> by_worker;
    for (const paqoc::Json &response : stats) {
        if (!isOk(response))
            continue;
        const paqoc::Json &payload = response.at("payload");
        std::string worker;
        const paqoc::Json none;
        const paqoc::Json &libs = payload.get("libraries", none);
        if (libs.isObject()) {
            const paqoc::Json &spectral = libs.get("spectral", none);
            if (spectral.isObject())
                worker = spectral.get("directory", paqoc::Json(""))
                             .asString();
        }
        const paqoc::Json *node = &payload;
        std::size_t pos = 0;
        while (node != nullptr && pos <= path.size()) {
            const std::size_t dot = path.find('.', pos);
            const std::string key = path.substr(
                pos, dot == std::string::npos ? std::string::npos
                                              : dot - pos);
            node = node->isObject() && node->contains(key)
                ? &node->at(key)
                : nullptr;
            if (dot == std::string::npos)
                break;
            pos = dot + 1;
        }
        by_worker[worker] =
            node != nullptr && node->isNumber() ? node->asNumber() : 0.0;
    }
    double sum = 0.0;
    for (const auto &entry : by_worker)
        sum += entry.second;
    return sum;
}

} // namespace e2ebench
