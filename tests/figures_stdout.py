#!/usr/bin/env python3
"""Every figure's stdout against the committed copy.

  figures_stdout.py PATH/TO/sipt-figures GOLDEN [--regenerate]

Runs `sipt-figures --all` at SIPT_REFS=2000 SIPT_WARMUP=2000 (set
here, whatever the caller's environment says) and compares its
stdout byte for byte with GOLDEN. Stdout carries no timing and is the
same at every SIPT_THREADS and SIPT_CHECK setting, so any difference
is a change in some figure's results. A change that is meant to move
results rewrites GOLDEN with --regenerate and commits it with the
change. Standard library only.
"""

import difflib
import os
import subprocess
import sys
import tempfile

# Variables that would change what is run or written besides stdout.
CLEARED = ("SIPT_METRICS", "SIPT_TRACE", "SIPT_CHECK_MUTATE",
           "SIPT_CHECK_ABORT", "SIPT_ALL_APPS")


def figures_stdout(binary):
    env = dict(os.environ)
    for var in CLEARED:
        env.pop(var, None)
    env.update(SIPT_REFS="2000", SIPT_WARMUP="2000", SIPT_RUN_CACHE="-")
    with tempfile.TemporaryDirectory() as scratch:
        # trace13 records its traces here, away from other tests.
        env["SIPT_TRACE_DIR"] = scratch
        r = subprocess.run([os.path.abspath(binary), "--all"],
                           env=env, cwd=scratch,
                           capture_output=True, text=True, check=False)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit("sipt-figures --all exited %d" % r.returncode)
    return r.stdout


def main(argv):
    regenerate = "--regenerate" in argv
    args = [a for a in argv if a != "--regenerate"]
    if len(args) != 2:
        print(__doc__)
        return 2
    binary, golden = args
    out = figures_stdout(binary)
    if regenerate:
        with open(golden, "w") as f:
            f.write(out)
        print("wrote %s (%d bytes)" % (golden, len(out)))
        return 0
    with open(golden) as f:
        want = f.read()
    if out == want:
        print("PASS sipt-figures --all stdout equals %s" % golden)
        return 0
    diff = list(difflib.unified_diff(
        want.splitlines(True), out.splitlines(True),
        fromfile=golden, tofile="sipt-figures --all"))
    sys.stdout.writelines(diff[:200])
    print("FAIL stdout differs from %s (%d diff lines); if the change "
          "is meant to move results, rerun with --regenerate"
          % (golden, len(diff)))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
