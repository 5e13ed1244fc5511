#!/usr/bin/env python3
"""Command-line contract of mtmsim: malformed input is an error, not a crash.

Usage: mtmsim_cli_test.py PATH_TO_MTMSIM

Every bad command line below must exit with the listed status (2 for a
malformed command line, 1 for a bad --fault_spec) and print exactly one
stderr line containing the expected text; a CHECK abort (SIGABRT) or a
silent run fails the test. One valid run must still exit 0.
"""

import subprocess
import sys

# (extra arguments, text the one stderr line must contain[, exit status])
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
    # A repeated flag is an error, not "the first one wins".
    (["--seed=1", "--seed=2"], "repeated flag: --seed"),
    (["--scale=8", "--alpha=0.1", "--scale=9", "--alpha=0.2"],
     "repeated flags: --scale --alpha"),
    # Booleans take true|false|1|0|yes|no and nothing else.
    (["--two-tier=ture"], "bad --two-tier: 'ture'"),
    (["--sync-migration=2"], "bad --sync-migration: '2'"),
    (["--help=maybe"], "bad --help: 'maybe'"),
    # tier_* components index the machine --two-tier selects.
    (["--fault_spec=tier_offline:c=9,at=1ms"], "bad --fault_spec: component 9", 1),
    (["--two-tier", "--fault_spec=tier_derate:c=2,at=1ms,f=0.5"],
     "bad --fault_spec: component 2", 1),
]

# Small enough that a valid run finishes in well under a second. A case's
# own flags replace the BASE flags of the same name: repeating one is an
# error of its own.
BASE = ["--workload=gups", "--solution=mtm", "--intervals=2", "--accesses=200000"]


def run(mtmsim, args):
    given = {arg.split("=", 1)[0] for arg in args}
    base = [arg for arg in BASE if arg.split("=", 1)[0] not in given]
    return subprocess.run([mtmsim] + args + base, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def main():
    mtmsim = sys.argv[1]
    failures = []
    for args, want, *status in BAD_INPUTS:
        status = status[0] if status else 2
        done = run(mtmsim, args)
        lines = done.stderr.splitlines()
        if done.returncode != status or len(lines) != 1 or want not in lines[0]:
            failures.append(f"{' '.join(args)}: exit {done.returncode}, stderr {done.stderr!r}"
                            f" (want exit {status} and one line containing {want!r})")
    done = run(mtmsim, ["--format=csv"])
    if done.returncode != 0 or not done.stdout.startswith("workload,solution,"):
        failures.append(f"valid run: exit {done.returncode}, stderr {done.stderr!r}")
    for failure in failures:
        print("FAIL " + failure)
    print(f"{len(BAD_INPUTS) + 1 - len(failures)}/{len(BAD_INPUTS) + 1} cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
