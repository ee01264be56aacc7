#ifndef PAQOC_TESTS_SCRATCH_DIR_H_
#define PAQOC_TESTS_SCRATCH_DIR_H_

/**
 * @file
 * Scratch directories for tests, unique to each test process.
 *
 * ctest runs every gtest case in its own process, many at once under
 * `ctest -j`. A fixed path under the temp directory is then shared by
 * concurrent processes, and one test's cleanup deletes another's
 * files. Instead, each process creates one mkdtemp root on first use
 * and removes it when that process exits. Unix sockets of servers
 * under test live there too (scratchSocket).
 */

#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace paqoc::test_support {

/** The process's private scratch root (created on first call). */
class ScratchRoot
{
  public:
    static const std::filesystem::path &
    path()
    {
        static const ScratchRoot root;
        return root.path_;
    }

  private:
    ScratchRoot() : owner_(::getpid())
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "paqoc_test_XXXXXX")
                .string();
        if (::mkdtemp(tmpl.data()) == nullptr) {
            std::perror("mkdtemp");
            std::abort();
        }
        path_ = tmpl;
    }

    ~ScratchRoot()
    {
        // Forked children (daemons under test) inherit this object;
        // only the process that made the root may delete it.
        if (::getpid() != owner_)
            return;
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    pid_t owner_;
    std::filesystem::path path_;
};

/** A fresh, empty directory `name` under the process's scratch root. */
inline std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir = ScratchRoot::path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/**
 * Path of a unix socket `name`.sock under the process's scratch root.
 * Aborts if the path would not fit in sockaddr_un::sun_path (108
 * bytes on Linux).
 */
inline std::string
scratchSocket(const std::string &name)
{
    const std::string path =
        (ScratchRoot::path() / (name + ".sock")).string();
    if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
        std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
        std::abort();
    }
    return path;
}

} // namespace paqoc::test_support

#endif // PAQOC_TESTS_SCRATCH_DIR_H_
