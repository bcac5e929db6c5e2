#!/usr/bin/env python3
"""Run a command and fail if its peak resident set exceeds a ceiling.

Usage:

    python3 tools/check_rss.py --max-mb 256 -- \\
        ./build/tools/morpheus-run serve --closed-loop --requests 70000

The command's output passes through. It runs under the rss-launch
helper (tools/rss_launch.cc, built as build/tools/rss-launch; --launcher
names another path), which forks and execs it and reads its
ru_maxrss from wait4() (Linux reports KiB). A child exec'd from this
script directly would keep Python's own high-water mark (about 14 MB)
as the floor of its reading. Exits non-zero when the command fails or
its peak RSS is above --max-mb.
"""

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCHER = os.path.join(ROOT, "build", "tools", "rss-launch")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--max-mb", type=float, required=True,
                    help="peak RSS ceiling in MiB")
    ap.add_argument("--launcher", default=LAUNCHER,
                    help="the rss-launch binary (default: %(default)s)")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the command to run, after --")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    if not os.access(args.launcher, os.X_OK):
        ap.error("no rss-launch at %s (build the tools target first)"
                 % args.launcher)

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "maxrss_kib")
        rc = subprocess.run([args.launcher, out] + cmd).returncode
        if not os.path.exists(out):
            print("check_rss: the launcher recorded no peak",
                  file=sys.stderr)
            return 1
        with open(out) as f:
            peak_mb = int(f.read()) / 1024
    print("peak RSS %.1f MB (ceiling %.0f MB)" % (peak_mb, args.max_mb))
    if rc != 0:
        print("check_rss: command exited %d" % rc, file=sys.stderr)
        return 1
    if peak_mb > args.max_mb:
        print("check_rss: peak RSS above the ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
