#!/usr/bin/env python3
"""The sipt-figures command line, end to end.

  figures_cli.py PATH/TO/sipt-figures

Checks that a bad command line exits 2 and names the valid figure
ids; that planning several figures in one process changes none of
their stdout (the combined run equals the concatenated solo runs, at
SIPT_THREADS=1 and =4) while their shared jobs run once and, even on
one worker, run grouped; that SIPT_METRICS makes every requested
figure write its JSON; that a warm run-cache run, which executes
no job, still truncates the SIPT_TRACE file; that checked and
unchecked runs never share a run-cache entry; that a warm checked
run, all disk hits, passes the functional oracle and prints what the
cold run printed; that a run with a
SIPT_CHECK_MUTATE self-test armed neither reads nor writes the run
cache, so a clean run after it still passes; that a recorded check
failure exits 1 (fig06 through the engine's count, ext_icache
through its results' checkFailure); and that the
half-length and speculation figures print no nan/inf cell at
SIPT_REFS=1. Run it with small SIPT_REFS/SIPT_WARMUP. Standard
library only.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

FIGURES = ["fig06", "fig07", "fig13", "fig14"]

# Figures whose runs measure half of SIPT_REFS, and the speculation
# figures, which divide by the measured accesses.
ONE_REF_FIGURES = ["ablation_contiguity", "ablation_predictors",
                   "fig15", "fig05", "fig09", "fig12"]


def run(binary, args, threads=1, metrics=None, extra_env=None):
    env = dict(os.environ)
    for var in ("SIPT_METRICS", "SIPT_RUN_CACHE", "SIPT_TRACE"):
        env.pop(var, None)
    env["SIPT_THREADS"] = str(threads)
    if metrics:
        env["SIPT_METRICS"] = metrics
    env.update(extra_env or {})
    return subprocess.run([binary] + args, env=env,
                          capture_output=True, text=True, check=False)


def footer(stderr):
    """The [sweep] footer's counters as a dict."""
    lines = [l for l in stderr.splitlines() if l.startswith("[sweep]")]
    if len(lines) != 1:
        raise AssertionError("expected one [sweep] footer, got %r"
                             % stderr)
    return {k: float(v)
            for k, v in re.findall(r"([a-z-]+)=([0-9.]+)", lines[0])}


def main(argv):
    if len(argv) != 1:
        print(__doc__)
        return 2
    binary = argv[0]
    failures = []

    def check(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for args in ([], ["fig99"], ["fig13", "--all"]):
        r = run(binary, args)
        check(r.returncode == 2 and "fig13" in r.stderr and
              "trace13" in r.stderr and r.stdout == "",
              "sipt-figures %s exits 2 naming the figure ids"
              % " ".join(args))

    for threads in (1, 4):
        solo = ""
        for fig in FIGURES:
            r = run(binary, [fig], threads)
            check(r.returncode == 0, "solo %s exits 0" % fig)
            solo += r.stdout
        r = run(binary, FIGURES, threads)
        check(r.returncode == 0 and r.stdout == solo,
              "combined stdout equals the solo runs at "
              "SIPT_THREADS=%d" % threads)
        stats = footer(r.stderr)
        # The figure pairs enqueue identical jobs; a repeat is a
        # memo hit, or an in-flight share while the first is still
        # queued or running.
        check(stats["executed"] < stats["jobs"],
              "combined run executes each shared job once")
        check(stats["memo-hits"] + stats["inflight-shares"] +
              stats["disk-hits"] == stats["jobs"] - stats["executed"],
              "every job not executed is served by a cache tier at "
              "SIPT_THREADS=%d" % threads)
        if threads == 1:
            check(stats["grouped"] > 0,
                  "one worker still runs same-stream jobs grouped")

    with tempfile.TemporaryDirectory() as metrics:
        r = run(binary, FIGURES, 4, metrics)
        check(r.returncode == 0, "combined run with SIPT_METRICS exits 0")
        check(sorted(os.listdir(metrics)) ==
              sorted(f + ".json" for f in FIGURES),
              "SIPT_METRICS holds one JSON per figure")
        for fig in FIGURES:
            path = os.path.join(metrics, fig + ".json")
            try:
                with open(path, encoding="utf-8") as f:
                    doc = json.load(f)
            except (OSError, ValueError) as e:
                check(False, "%s is readable JSON (%s)" % (path, e))
                continue
            check(doc.get("figure") == fig and
                  isinstance(doc.get("metrics"), dict) and
                  len(doc["metrics"]) > 0,
                  "%s.json has a non-empty metrics object" % fig)

    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache")
        trace = os.path.join(tmp, "trace.jsonl")
        traced = {"SIPT_RUN_CACHE": cache, "SIPT_TRACE": trace}
        r = run(binary, ["fig06"], 1, extra_env=traced)
        check(r.returncode == 0, "cold cached traced fig06 exits 0")
        with open(trace, "w", encoding="utf-8") as f:
            f.write("junk from an earlier run\n")
        r = run(binary, ["fig06"], 1, extra_env=traced)
        stats = footer(r.stderr)
        with open(trace, encoding="utf-8") as f:
            left = f.read()
        check(r.returncode == 0 and stats["executed"] == 0 and
              "junk" not in left,
              "a warm run of disk hits still truncates SIPT_TRACE "
              "(executed=%d)" % stats["executed"])

    # SIPT_CHECK is SystemConfig::check's default and so part of
    # the run key: a warm cache written under one setting is all
    # misses under the other, in either order.
    for first, second in (("0", "1"), ("1", "0")):
        with tempfile.TemporaryDirectory() as tmp:
            cache = os.path.join(tmp, "cache")
            run(binary, ["fig06"], 4, extra_env={
                "SIPT_RUN_CACHE": cache, "SIPT_CHECK": first})
            r = run(binary, ["fig06"], 4, extra_env={
                "SIPT_RUN_CACHE": cache, "SIPT_CHECK": second})
            stats = footer(r.stderr)
            check(r.returncode == 0 and stats["disk-hits"] == 0 and
                  stats["executed"] == stats["jobs"],
                  "fig06 at SIPT_CHECK=%s misses a cache written at "
                  "SIPT_CHECK=%s (disk-hits=%d executed=%d jobs=%d)"
                  % (second, first, stats["disk-hits"],
                     stats["executed"], stats["jobs"]))

    # The sweep's functional oracle screens disk hits as well as
    # executed runs: a warm checked run, served wholly from the
    # cache, must raise no false alarm.
    with tempfile.TemporaryDirectory() as tmp:
        checked = {"SIPT_RUN_CACHE": os.path.join(tmp, "cache"),
                   "SIPT_CHECK": "1"}
        cold = run(binary, ["fig06"], 4, extra_env=checked)
        warm = run(binary, ["fig06"], 4, extra_env=checked)
        stats = footer(warm.stderr)
        check(cold.returncode == 0 and warm.returncode == 0 and
              warm.stdout == cold.stdout and stats["executed"] == 0 and
              stats["disk-hits"] > 0 and
              "check-failures" not in cold.stderr + warm.stderr,
              "a warm checked fig06 is all disk hits, passes the "
              "functional oracle and prints the cold stdout "
              "(executed=%d disk-hits=%d, exit %d/%d)"
              % (stats["executed"], stats["disk-hits"],
                 cold.returncode, warm.returncode))

    # A mutated golden model fails fig15syn's checked runs on
    # purpose; those results must not be published under the clean
    # keys, where a later clean run would read them and fail.
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache")
        r = run(binary, ["fig15syn"], 4, extra_env={
            "SIPT_RUN_CACHE": cache, "SIPT_CHECK_MUTATE": "tag",
            "SIPT_CHECK_ABORT": "0"})
        check("SIPT_CHECK_MUTATE" in r.stderr,
              "a mutated run warns that it bypasses the run cache")
        env = {"SIPT_RUN_CACHE": cache, "SIPT_CHECK_MUTATE": ""}
        r = run(binary, ["fig15syn"], 4, extra_env=env)
        stats = footer(r.stderr)
        check(r.returncode == 0 and stats["disk-hits"] == 0,
              "a clean fig15syn after a mutated one reads no entry "
              "and passes (disk-hits=%d, exit %d)"
              % (stats["disk-hits"], r.returncode))

    # A recorded check failure fails the figure: an engine figure
    # through the sweep's count (footer and exit status), and
    # ext_icache, whose engine runs are outside the sweep, through
    # its results' checkFailure.
    mutated = {"SIPT_CHECK": "1", "SIPT_CHECK_MUTATE": "tag",
               "SIPT_CHECK_ABORT": "0"}
    for fig in ("fig06", "ext_icache"):
        r = run(binary, [fig], 4, extra_env=mutated)
        check(r.returncode == 1,
              "%s with a recorded tag mutation exits 1 (exit %d)"
              % (fig, r.returncode))
    r = run(binary, ["fig06"], 4, extra_env=mutated)
    check(footer(r.stderr).get("check-failures", 0) > 0 and
          " first={" in r.stderr,
          "the footer counts fig06's check failures and names the "
          "first key")
    r = run(binary, ["fig06"], 4)
    check(r.returncode == 0 and "check-failures" not in r.stderr,
          "a clean fig06's footer has no check-failures")

    r = run(binary, ONE_REF_FIGURES, 4,
            extra_env={"SIPT_REFS": "1", "SIPT_WARMUP": "1"})
    bad = re.findall(r"-?\b(?:nan|inf)\b", r.stdout)
    check(r.returncode == 0 and r.stdout and not bad,
          "%s print no nan/inf cell at SIPT_REFS=1 (found %d)"
          % (" ".join(ONE_REF_FIGURES), len(bad)))

    if failures:
        print("\n%d check(s) failed" % len(failures))
        return 1
    print("\nAll checks passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
