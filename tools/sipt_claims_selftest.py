#!/usr/bin/env python3
"""Self-test for tools/sipt-claims.

Feeds synthetic metrics JSON through the checker and asserts that
in-envelope values pass, out-of-envelope values fail with the claim
named, difference claims subtract, and the trace validator rejects
malformed JSONL and unknown l1-access outcomes with the offending
line number. Runs as the
`sipt_claims_selftest` ctest; exits nonzero on the first failure.
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))


def load_checker():
    spec = importlib.util.spec_from_loader(
        "sipt_claims",
        importlib.machinery.SourceFileLoader(
            "sipt_claims", os.path.join(TOOLS_DIR, "sipt-claims")))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


CLAIMS = load_checker()

# A metrics document for fig09 that sits inside every fig09
# envelope.
GOOD_FIG09 = {
    "figure": "fig09",
    "refs": 2000,
    "metrics": {
        "summary": {
            "accuracy": {"bits1": 0.96, "bits2": 0.95,
                         "bits3": 0.955},
        },
    },
}


def write_doc(directory, figure, doc):
    path = os.path.join(directory, figure + ".json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = CLAIMS.main(argv)
    return rc, out.getvalue()


class LookupCase(unittest.TestCase):
    def test_nested_lookup(self):
        m = {"a": {"b": {"c": 1.5}}}
        self.assertEqual(CLAIMS.lookup(m, "a.b.c"), 1.5)

    def test_missing_raises(self):
        with self.assertRaises(KeyError):
            CLAIMS.lookup({"a": {}}, "a.b")

    def test_non_numeric_raises(self):
        with self.assertRaises(KeyError):
            CLAIMS.lookup({"a": "text"}, "a")


class EnvelopeCase(unittest.TestCase):
    def test_good_figure_passes(self):
        with tempfile.TemporaryDirectory() as d:
            write_doc(d, "fig09", GOOD_FIG09)
            rc, out = run_main(["--dir", d, "--figures", "fig09"])
        self.assertEqual(rc, 0, out)
        self.assertIn("PASS fig09-accuracy-1bit", out)
        self.assertNotIn("FAIL", out)

    def test_out_of_envelope_fails_named(self):
        doc = json.loads(json.dumps(GOOD_FIG09))
        doc["metrics"]["summary"]["accuracy"]["bits2"] = 0.5
        with tempfile.TemporaryDirectory() as d:
            write_doc(d, "fig09", doc)
            rc, out = run_main(["--dir", d, "--figures", "fig09"])
        self.assertEqual(rc, 1)
        self.assertIn("FAIL fig09-accuracy-2bit", out)
        self.assertIn("fig09-accuracy-2bit", out.splitlines()[-1])
        # The untouched claims still pass.
        self.assertIn("PASS fig09-accuracy-1bit", out)

    def test_difference_claim_subtracts(self):
        # fig14-near-ideal checks meanSipt - meanIdeal in
        # [-0.01, 0.04].
        doc = {"figure": "fig14", "refs": 1,
               "metrics": {"summary": {"meanSipt": 0.80,
                                       "meanIdeal": 0.78}}}
        with tempfile.TemporaryDirectory() as d:
            write_doc(d, "fig14", doc)
            rc, out = run_main(["--dir", d, "--figures", "fig14"])
        self.assertEqual(rc, 0, out)
        # Widen the gap past the envelope and it must fail.
        doc["metrics"]["summary"]["meanIdeal"] = 0.70
        with tempfile.TemporaryDirectory() as d:
            write_doc(d, "fig14", doc)
            rc, out = run_main(["--dir", d, "--figures", "fig14"])
        self.assertEqual(rc, 1)
        self.assertIn("FAIL fig14-near-ideal", out)

    def test_missing_metric_fails(self):
        doc = {"figure": "fig09", "refs": 1, "metrics": {}}
        with tempfile.TemporaryDirectory() as d:
            write_doc(d, "fig09", doc)
            rc, out = run_main(["--dir", d, "--figures", "fig09"])
        self.assertEqual(rc, 1)
        self.assertIn("missing metric", out)

    def test_missing_file_fails(self):
        with tempfile.TemporaryDirectory() as d:
            rc, out = run_main(["--dir", d, "--figures", "fig09"])
        self.assertEqual(rc, 1)
        self.assertIn("cannot read", out)

    def test_unknown_figure_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            with self.assertRaises(SystemExit):
                run_main(["--dir", d, "--figures", "fig99"])

    def test_list_mode(self):
        rc, out = run_main(["--list"])
        self.assertEqual(rc, 0)
        self.assertIn("fig02-32K2w-speedup", out)


class TraceValidationCase(unittest.TestCase):
    def trace_file(self, directory, lines):
        path = os.path.join(directory, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        return path

    GOOD_EVENT = json.dumps({
        "name": "l1-access", "cat": "sipt", "ph": "X", "pid": 1,
        "tid": 1, "ts": 0.0, "dur": 1.0,
        "args": {"outcome": "speculate", "hit": True}})

    def test_good_trace_passes(self):
        with tempfile.TemporaryDirectory() as d:
            path = self.trace_file(d, [self.GOOD_EVENT] * 3)
            rc, out = run_main(["--validate-trace", path])
        self.assertEqual(rc, 0, out)
        self.assertIn("3 well-formed", out)

    def test_malformed_line_named(self):
        with tempfile.TemporaryDirectory() as d:
            path = self.trace_file(
                d, [self.GOOD_EVENT, "{not json", self.GOOD_EVENT])
            rc, out = run_main(["--validate-trace", path])
        self.assertEqual(rc, 1)
        self.assertIn(":2:", out)

    def test_missing_keys_named(self):
        with tempfile.TemporaryDirectory() as d:
            path = self.trace_file(d, [json.dumps({"name": "x"})])
            rc, out = run_main(["--validate-trace", path])
        self.assertEqual(rc, 1)
        self.assertIn("missing keys", out)
        self.assertIn("ph", out)

    def test_unknown_access_outcome_named(self):
        bad = json.loads(self.GOOD_EVENT)
        bad["args"]["outcome"] = "Replay"
        missing = json.loads(self.GOOD_EVENT)
        del missing["args"]
        for event in (bad, missing):
            with tempfile.TemporaryDirectory() as d:
                path = self.trace_file(
                    d, [self.GOOD_EVENT, json.dumps(event)])
                rc, out = run_main(["--validate-trace", path])
            self.assertEqual(rc, 1, out)
            self.assertIn(":2:", out)
            self.assertIn("outcome", out)

    def test_empty_trace_fails(self):
        with tempfile.TemporaryDirectory() as d:
            path = self.trace_file(d, [""])
            rc, out = run_main(["--validate-trace", path])
        self.assertEqual(rc, 1)
        self.assertIn("no events", out)


class ClaimTableCase(unittest.TestCase):
    def test_ids_unique(self):
        ids = [c.cid for c in CLAIMS.CLAIMS]
        self.assertEqual(len(ids), len(set(ids)))

    def test_envelopes_sane(self):
        for c in CLAIMS.CLAIMS:
            self.assertLess(c.lo, c.hi, c.cid)


if __name__ == "__main__":
    unittest.main()
