#!/usr/bin/env python3
"""Command-line contract of mtmsim: malformed input is an error, not a crash.

Usage: mtmsim_cli_test.py PATH_TO_MTMSIM

Every bad command line below must exit with status 2 and print exactly one
stderr line containing the expected text; a CHECK abort (SIGABRT) or a
silent run fails the test. One valid run must still exit 0.
"""

import subprocess
import sys

# (extra arguments, text the one stderr line must contain)
BAD_INPUTS = [
    (["--bogus-flag"], "unknown flag: --bogus-flag"),
    # Retired thread-count options are unknown flags like any other.
    (["--scan-threads=8", "--migrate-threads=8"],
     "unknown flags: --scan-threads --migrate-threads"),
    (["stray"], "unexpected argument: stray"),
    (["--scale=0"], "bad --scale: '0'"),
    (["--scale=abc"], "bad --scale: 'abc'"),
    (["--scale=-1"], "bad --scale: '-1'"),
    (["--threads=0"], "bad --threads: '0'"),
    (["--num-scans=0"], "bad --num-scans: '0'"),
    (["--intervals=12x"], "bad --intervals: '12x'"),
    (["--accesses="], "bad --accesses: ''"),
    (["--seed=99999999999999999999999"], "bad --seed"),
    (["--alpha=2"], "bad --alpha: '2'"),
    (["--overhead=nan"], "bad --overhead: 'nan'"),
    (["--solution=bogus"], "bad --solution: bogus"),
    (["--workload=bogus"], "bad --workload: bogus"),
    (["--format=xml"], "bad --format: xml"),
]

# Small enough that a valid run finishes in well under a second. The case's
# own arguments go first: a repeated flag takes its first value.
BASE = ["--workload=gups", "--solution=mtm", "--intervals=2", "--accesses=200000"]


def run(mtmsim, args):
    return subprocess.run([mtmsim] + args + BASE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def main():
    mtmsim = sys.argv[1]
    failures = []
    for args, want in BAD_INPUTS:
        done = run(mtmsim, args)
        lines = done.stderr.splitlines()
        if done.returncode != 2 or len(lines) != 1 or want not in lines[0]:
            failures.append(f"{' '.join(args)}: exit {done.returncode}, stderr {done.stderr!r}"
                            f" (want exit 2 and one line containing {want!r})")
    done = run(mtmsim, ["--format=csv"])
    if done.returncode != 0 or not done.stdout.startswith("workload,solution,"):
        failures.append(f"valid run: exit {done.returncode}, stderr {done.stderr!r}")
    for failure in failures:
        print("FAIL " + failure)
    print(f"{len(BAD_INPUTS) + 1 - len(failures)}/{len(BAD_INPUTS) + 1} cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
