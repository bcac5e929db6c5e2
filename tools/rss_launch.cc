/**
 * @file
 * rss-launch: run a command and record its own peak resident set.
 *
 *     rss-launch OUT_FILE COMMAND [ARGS...]
 *
 * Forks, execs COMMAND, reaps it with wait4() and writes its ru_maxrss
 * (KiB) to OUT_FILE; exits with the command's status, or 128 + the
 * signal that killed it. A process keeps its high-water mark across
 * exec, so a command started straight from a large parent (the Python
 * of tools/check_rss.py) would read that parent's peak; forked from
 * this small launcher it reads its own.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: %s OUT_FILE COMMAND [ARGS...]\n",
                     argv[0]);
        return 2;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("rss-launch: fork");
        return 2;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::perror(argv[2]);
        _exit(127);
    }
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid) {
        std::perror("rss-launch: wait4");
        return 2;
    }
    std::FILE *out = std::fopen(argv[1], "w");
    if (out == nullptr || std::fprintf(out, "%ld\n", usage.ru_maxrss) < 0 ||
        std::fclose(out) != 0) {
        std::perror(argv[1]);
        return 2;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + WTERMSIG(status);
}
