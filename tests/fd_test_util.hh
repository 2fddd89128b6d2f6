/**
 * @file
 * /proc helpers for the fd-inheritance tests (test_worker_pool,
 * test_service): which processes this test process forked, and which
 * descriptors each of them holds. Linux only, like the worker pool.
 */

#ifndef RARPRED_TESTS_FD_TEST_UTIL_HH_
#define RARPRED_TESTS_FD_TEST_UTIL_HH_

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

namespace rarpred::testutil {

/** Numeric entries of directory @p path ("/proc", "/proc/N/fd"). */
inline std::set<int>
numericEntries(const std::string &path)
{
    std::set<int> out;
    if (DIR *d = ::opendir(path.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            char *end = nullptr;
            const long v = std::strtol(e->d_name, &end, 10);
            if (end != e->d_name && *end == '\0')
                out.insert((int)v);
        }
        ::closedir(d);
    }
    return out;
}

/** Live children of this process, found through the ppid field of
 *  every /proc/N/stat. */
inline std::vector<int>
childPids()
{
    const int self = (int)::getpid();
    std::vector<int> kids;
    for (const int pid : numericEntries("/proc")) {
        std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
        std::string stat;
        std::getline(in, stat);
        // "pid (comm) state ppid ...": comm may itself hold spaces
        // and parentheses, so parse from the last ')'.
        const size_t paren = stat.rfind(')');
        if (paren == std::string::npos)
            continue;
        char state = 0;
        int ppid = 0;
        if (std::sscanf(stat.c_str() + paren + 1, " %c %d", &state,
                        &ppid) == 2 &&
            ppid == self && state != 'Z')
            kids.push_back(pid);
    }
    return kids;
}

/** Descriptors open in process @p pid. */
inline std::set<int>
openFds(int pid)
{
    return numericEntries("/proc/" + std::to_string(pid) + "/fd");
}

/**
 * Descriptors of this process that a child would keep across exec
 * (no FD_CLOEXEC). Taken before a test creates anything, this is
 * stdio plus whatever the harness itself passed down, which a child
 * legitimately inherits too.
 */
inline std::set<int>
inheritableFds()
{
    std::set<int> out;
    for (const int fd : openFds((int)::getpid())) {
        const int flags = ::fcntl(fd, F_GETFD);
        if (flags >= 0 && !(flags & FD_CLOEXEC))
            out.insert(fd);
    }
    return out;
}

} // namespace rarpred::testutil

#endif // RARPRED_TESTS_FD_TEST_UTIL_HH_
