/*
 * sigprof: a SIGPROF stack sampler to LD_PRELOAD into any process.
 *
 * Build and run:
 *
 *   gcc -O2 -Wall -Werror -shared -fPIC -o sigprof.so ci/sigprof.c
 *   SIGPROF_OUT=/tmp/prof LD_PRELOAD=$PWD/sigprof.so ./program args...
 *   python3 ci/sigprof.py /tmp/prof.<pid>.samples [--under FRAME]
 *
 * The constructor arms ITIMER_PROF at 1 kHz of process CPU time. Each
 * SIGPROF stores the interrupted thread's backtrace(3) return addresses
 * as one record: a uint32 frame count, then that many uint64 addresses,
 * the handler's own two frames (itself and the signal trampoline)
 * dropped. The destructor stops the timer and copies /proc/self/maps
 * beside the samples, so ci/sigprof.py can turn addresses back into
 * file offsets and names. Files are per process
 * (`$SIGPROF_OUT.<pid>.samples` and `.maps`; SIGPROF_OUT defaults to
 * `sigprof`), so children that inherit LD_PRELOAD do not interleave.
 *
 * backtrace(3) runs libgcc's unwinder over .eh_frame: no frame pointers
 * are needed. Its first call may allocate while loading libgcc, so the
 * constructor makes that call before arming the timer. The handler
 * itself calls only backtrace and write(2).
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_FRAMES 128
#define SKIP_FRAMES 2
#define HZ 1000

static int samples_fd = -1;
static char maps_path[4096];

static void on_sigprof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    (void)uctx;
    int saved_errno = errno;
    void *frames[MAX_FRAMES];
    int n = backtrace(frames, MAX_FRAMES);
    if (samples_fd >= 0 && n > SKIP_FRAMES) {
        /* One write per record, so a record is never split. */
        char rec[4 + 8 * MAX_FRAMES];
        uint32_t depth = (uint32_t)(n - SKIP_FRAMES);
        memcpy(rec, &depth, 4);
        for (uint32_t i = 0; i < depth; i++) {
            uint64_t addr = (uint64_t)(uintptr_t)frames[SKIP_FRAMES + i];
            memcpy(rec + 4 + 8 * i, &addr, 8);
        }
        ssize_t w = write(samples_fd, rec, 4 + 8 * (size_t)depth);
        (void)w;
    }
    errno = saved_errno;
}

__attribute__((constructor)) static void sigprof_start(void) {
    const char *prefix = getenv("SIGPROF_OUT");
    if (prefix == NULL || prefix[0] == '\0') {
        prefix = "sigprof";
    }
    char samples_path[4096];
    snprintf(samples_path, sizeof samples_path, "%s.%d.samples", prefix, (int)getpid());
    snprintf(maps_path, sizeof maps_path, "%s.%d.maps", prefix, (int)getpid());
    samples_fd = open(samples_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (samples_fd < 0) {
        perror("sigprof: open samples");
        return;
    }

    void *warm[4];
    (void)backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval every = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    if (samples_fd < 0) {
        return;
    }
    close(samples_fd);
    samples_fd = -1;

    int in = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
    int out = open(maps_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (in >= 0 && out >= 0) {
        char buf[65536];
        ssize_t r;
        while ((r = read(in, buf, sizeof buf)) > 0) {
            if (write(out, buf, (size_t)r) != r) {
                perror("sigprof: write maps");
                break;
            }
        }
    } else {
        perror("sigprof: maps");
    }
    if (in >= 0) {
        close(in);
    }
    if (out >= 0) {
        close(out);
    }
}
