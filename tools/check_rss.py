#!/usr/bin/env python3
"""Run a command and fail if its peak resident set exceeds a ceiling.

Usage:

    python3 tools/check_rss.py --max-mb 256 -- \\
        ./build/tools/morpheus-run serve --closed-loop --requests 70000

The command's output passes through. The peak RSS is read from
getrusage(RUSAGE_CHILDREN).ru_maxrss once the command has exited (Linux
reports it in KiB). Exits non-zero when the command fails or its peak
RSS is above --max-mb.
"""

import argparse
import resource
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--max-mb", type=float, required=True,
                    help="peak RSS ceiling in MiB")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the command to run, after --")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    rc = subprocess.run(cmd).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
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
