#!/usr/bin/env python3
"""Self-test for tools/sipt-analyze.

Builds minimal scratch repos per pass — a clean fixture, seeded
violations of every diagnostic the pass can emit, and the
escape-hatched variants — and asserts the analyzer catches exactly
what it should. Runs as the `sipt_analyze_selftest` ctest; exits
nonzero on the first failure.
"""

import importlib.util
import os
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))


def load_analyzer():
    spec = importlib.util.spec_from_loader(
        "sipt_analyze",
        importlib.machinery.SourceFileLoader(
            "sipt_analyze",
            os.path.join(TOOLS_DIR, "sipt-analyze")))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ANALYZE = load_analyzer()


class AnalyzeCase(unittest.TestCase):
    def analyze(self, files, passes, **kwargs):
        """Write a scratch repo, run the passes, return the
        diagnostics."""
        with tempfile.TemporaryDirectory() as root:
            for rel, body in files.items():
                path = os.path.join(root, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(body)
            diags = []
            ANALYZE.run_passes(root, passes, diags, **kwargs)
            if kwargs.get("write_table"):
                with open(os.path.join(root, "README.md"),
                          encoding="utf-8") as f:
                    self.rewritten_readme = f.read()
            return diags

    def run_pass(self, pass_name, files, write_table=False):
        """Run one pass; return diagnostics as (path,
        substring-checkable message) pairs."""
        return [(d.path, d.message) for d in self.analyze(
            files, [pass_name], write_table=write_table)]

    def scan(self, relpath, text, extra=None):
        """Run every source pass over one file (plus extra files);
        return diagnostics as (pass, line) pairs."""
        files = {relpath: text}
        files.update(extra or {})
        return [(d.rule, d.line)
                for d in self.analyze(files, ANALYZE.SOURCE_PASSES)]

    def assert_rule(self, diags, rule, count=1):
        hits = [d for d in diags if d[0] == rule]
        self.assertEqual(
            len(hits), count,
            f"expected {count} x {rule}, got {diags}")

    def assert_diag(self, diags, path, needle, count=1):
        hits = [d for d in diags
                if d[0] == path and needle in d[1]]
        self.assertEqual(
            len(hits), count,
            f"expected {count} diag(s) at {path} containing "
            f"{needle!r}, got {diags}")


# --------------------------------------------------------------
# layering fixtures
# --------------------------------------------------------------

def layering_fixture(manifest=None, **edits):
    files = {
        "tools/layering.json": manifest or
            '{"modules": {"common": [], "vm": ["common"]}}\n',
        "src/common/bits.hh": "inline int bits() { return 1; }\n",
        "src/vm/tlb.hh":
            '#include "common/bits.hh"\n'
            "inline int tlb() { return bits(); }\n",
        "src/vm/tlb.cc": '#include "vm/tlb.hh"\n',
    }
    files.update(edits)
    return files


class Layering(AnalyzeCase):
    def test_clean_fixture_passes(self):
        self.assertEqual(
            self.run_pass("layering", layering_fixture()), [])

    def test_undeclared_edge_rejected(self):
        files = layering_fixture()
        files["src/common/bits.hh"] = (
            '#include "vm/tlb.hh"\n' + files["src/common/bits.hh"])
        diags = self.run_pass("layering", files)
        self.assert_diag(diags, "src/common/bits.hh",
                         "undeclared layering edge `common -> vm`")

    def test_stale_declared_edge_rejected(self):
        files = layering_fixture()
        files["src/vm/tlb.hh"] = "inline int tlb() { return 1; }\n"
        diags = self.run_pass("layering", files)
        self.assert_diag(diags, "tools/layering.json",
                         "stale declared edge `vm -> common`")

    def test_declared_cycle_rejected(self):
        files = layering_fixture(
            manifest='{"modules": {"common": ["vm"], '
                     '"vm": ["common"]}}\n')
        files["src/common/bits.hh"] = (
            '#include "vm/tlb.hh"\n'
            "inline int bits() { return 1; }\n")
        diags = self.run_pass("layering", files)
        self.assert_diag(diags, "tools/layering.json",
                         "not a DAG")

    def test_include_outside_src_rejected(self):
        files = layering_fixture()
        files["src/vm/tlb.cc"] = (
            '#include "vm/tlb.hh"\n'
            '#include "tests/helpers.hh"\n')
        diags = self.run_pass("layering", files)
        self.assert_diag(diags, "src/vm/tlb.cc",
                         "does not name a src/ module")

    def test_undeclared_module_on_disk_rejected(self):
        files = layering_fixture()
        files["src/dram/chan.hh"] = "inline int c() { return 1; }\n"
        diags = self.run_pass("layering", files)
        self.assert_diag(diags, "tools/layering.json",
                         "src/dram exists but is not declared")

    def test_declared_module_missing_on_disk_rejected(self):
        files = layering_fixture(
            manifest='{"modules": {"common": [], '
                     '"vm": ["common"], "ghost": []}}\n')
        diags = self.run_pass("layering", files)
        self.assert_diag(diags, "tools/layering.json",
                         "`ghost` does not exist under src/")

    def test_include_in_comment_ignored(self):
        files = layering_fixture()
        files["src/common/bits.hh"] = (
            '// #include "vm/tlb.hh" would invert the layering\n'
            "inline int bits() { return 1; }\n")
        self.assertEqual(self.run_pass("layering", files), [])


# --------------------------------------------------------------
# stage-ownership fixtures
# --------------------------------------------------------------

OWNERSHIP_MANIFEST = """\
{
  "file": "src/batch/pipeline.cc",
  "classes": ["StreamStages", "MachineStages"],
  "components": [
    {"name": "source", "member": "source_",
     "mutators": ["nextBatch"], "stage": "StreamStages::generate"},
    {"name": "mmu", "member": "mmu_",
     "mutators": ["translateEntry"],
     "stage": "MachineStages::translateBatch"},
    {"name": "l1", "member": "l1_",
     "mutators": ["access"], "stage": "MachineStages::accountBatch"}
  ],
  "readonly": [
    {"class": "StreamStages", "member": "pageTable_",
     "reads": ["translate"]},
    {"class": "MachineStages", "member": "pageTable_",
     "reads": ["translate"]}
  ]
}
"""

PIPELINE_CC = """\
#include "batch/pipeline.hh"

void
StreamStages::generate()
{
    source_.nextBatch(batch_, 256);
    pageTable_.translate(0);
}

void
MachineStages::step()
{
    translateBatch();
    accountBatch();
}

void
MachineStages::translateBatch()
{
    mmu_.translateEntry(0);
    pageTable_.translate(0);
}

void
MachineStages::accountBatch()
{
    l1_.access(1);
}
"""


def ownership_fixture(manifest=OWNERSHIP_MANIFEST,
                      pipeline=PIPELINE_CC):
    return {
        "tools/stage_ownership.json": manifest,
        "src/batch/pipeline.cc": pipeline,
    }


class StageOwnership(AnalyzeCase):
    def test_clean_fixture_passes(self):
        self.assertEqual(
            self.run_pass("stage-ownership", ownership_fixture()),
            [])

    def test_mutation_from_wrong_stage_rejected(self):
        pipeline = PIPELINE_CC.replace(
            "    mmu_.translateEntry(0);\n",
            "    mmu_.translateEntry(0);\n    l1_.access(0);\n")
        diags = self.run_pass(
            "stage-ownership", ownership_fixture(
                pipeline=pipeline))
        self.assert_diag(
            diags, "src/batch/pipeline.cc",
            "`l1_.access()` mutates l1 state owned by stage "
            "`MachineStages::accountBatch` but is called from "
            "`MachineStages::translateBatch`")

    def test_machine_stage_generating_rejected(self):
        # A machine stage that pulls references itself would
        # advance the stream once per machine instead of once per
        # batch.
        pipeline = PIPELINE_CC.replace(
            "    l1_.access(1);\n",
            "    l1_.access(1);\n    source_.nextBatch(batch_, 1);\n")
        diags = self.run_pass(
            "stage-ownership", ownership_fixture(
                pipeline=pipeline))
        self.assert_diag(
            diags, "src/batch/pipeline.cc",
            "`source_.nextBatch()` mutates source state owned by "
            "stage `StreamStages::generate` but is called from "
            "`MachineStages::accountBatch`")

    def test_readonly_member_mutation_rejected(self):
        pipeline = PIPELINE_CC.replace(
            "    pageTable_.translate(0);\n",
            "    pageTable_.translate(0);\n"
            "    pageTable_.install(0, 0);\n")
        diags = self.run_pass(
            "stage-ownership", ownership_fixture(
                pipeline=pipeline))
        self.assert_diag(
            diags, "src/batch/pipeline.cc",
            "`pageTable_` is declared read-only in MachineStages "
            "but `install()`")

    def test_stale_manifest_entry_rejected(self):
        pipeline = PIPELINE_CC.replace("    l1_.access(1);\n", "")
        diags = self.run_pass(
            "stage-ownership", ownership_fixture(
                pipeline=pipeline))
        self.assert_diag(
            diags, "tools/stage_ownership.json",
            "stale manifest entry: `l1_.access`")

    def test_stale_readonly_read_rejected(self):
        # A read left listed after its last call site went would
        # let that call come back unreviewed.
        manifest = OWNERSHIP_MANIFEST.replace(
            '"reads": ["translate"]},',
            '"reads": ["translate", "prefetch"]},', 1)
        diags = self.run_pass(
            "stage-ownership", ownership_fixture(manifest=manifest))
        self.assert_diag(
            diags, "tools/stage_ownership.json",
            "stale read-only entry: StreamStages never calls "
            "`pageTable_.prefetch`")

    def test_unknown_stage_name_rejected(self):
        manifest = OWNERSHIP_MANIFEST.replace(
            '"stage": "MachineStages::accountBatch"',
            '"stage": "MachineStages::retireBatch"')
        pipeline = PIPELINE_CC.replace("    l1_.access(1);\n", "")
        diags = self.run_pass(
            "stage-ownership",
            ownership_fixture(manifest=manifest,
                              pipeline=pipeline))
        self.assert_diag(
            diags, "tools/stage_ownership.json",
            "names stage `MachineStages::retireBatch`, which is not "
            "a member function")

    def test_timing_stage_array_mutation_rejected(self):
        # The memory/timing split: the array belongs to the memory
        # stage, which may run on another host thread than the
        # timing stage, so the timing stage may only replay what
        # the memory stage recorded.
        manifest = """\
{
  "file": "src/batch/pipeline.cc",
  "classes": ["MachineStages"],
  "components": [
    {"name": "L1 array", "member": "l1_",
     "mutators": ["accessArray"], "stage": "MachineStages::memory"},
    {"name": "L1 counters", "member": "l1_",
     "mutators": ["accessTimed"], "stage": "MachineStages::timing"}
  ]
}
"""
        pipeline = """\
void
MachineStages::memory()
{
    out_.outcome = l1_.accessArray(0, 0, out_.log);
}

void
MachineStages::timing()
{
    l1_.accessTimed(recorded_.outcome, recorded_.log);
}
"""
        self.assertEqual(
            self.run_pass("stage-ownership",
                          ownership_fixture(manifest, pipeline)),
            [])
        pipeline = pipeline.replace(
            "    l1_.accessTimed(recorded_.outcome, recorded_.log);\n",
            "    l1_.accessTimed(recorded_.outcome, recorded_.log);\n"
            "    l1_.accessArray(0, 0, recorded_.log);\n")
        diags = self.run_pass(
            "stage-ownership", ownership_fixture(manifest, pipeline))
        self.assert_diag(
            diags, "src/batch/pipeline.cc",
            "`l1_.accessArray()` mutates L1 array state owned by "
            "stage `MachineStages::memory` but is called from "
            "`MachineStages::timing`")

    def test_double_ownership_rejected(self):
        manifest = OWNERSHIP_MANIFEST.replace(
            '    {"name": "l1",',
            '    {"name": "l1b", "member": "l1_",\n'
            '     "mutators": ["access"], '
            '"stage": "MachineStages::translateBatch"},\n'
            '    {"name": "l1",')
        diags = self.run_pass(
            "stage-ownership",
            ownership_fixture(manifest=manifest))
        self.assert_diag(
            diags, "tools/stage_ownership.json",
            "claimed by two components")


# --------------------------------------------------------------
# env-registry fixtures
# --------------------------------------------------------------

ENV_REGISTRY = """\
{
  "readers": ["getenv", "envU64"],
  "variables": [
    {"name": "SIPT_REFS", "default": "400000",
     "altersResults": true, "doc": "README.md",
     "description": "measured references per run"}
  ]
}
"""


def env_fixture(registry=ENV_REGISTRY, **edits):
    import json
    table = ANALYZE.render_env_table(json.loads(registry))
    files = {
        "tools/env_registry.json": registry,
        "src/sim/sweep.cc":
            "#include <cstdlib>\n"
            "int refs()\n"
            "{\n"
            '    const char *v = std::getenv("SIPT_REFS");\n'
            "    return v ? 1 : 0;\n"
            "}\n",
        "README.md":
            "# Fixture\n\nSIPT_REFS scales the run.\n\n" +
            ANALYZE.ENV_TABLE_BEGIN + "\n" + table + "\n" +
            ANALYZE.ENV_TABLE_END + "\n",
    }
    files.update(edits)
    return files


class EnvRegistry(AnalyzeCase):
    def test_clean_fixture_passes(self):
        self.assertEqual(
            self.run_pass("env-registry", env_fixture()), [])

    def test_unregistered_variable_rejected(self):
        files = env_fixture()
        files["src/sim/sweep.cc"] += (
            "int extra()\n{\n"
            '    return std::getenv("SIPT_SECRET") ? 1 : 0;\n'
            "}\n")
        diags = self.run_pass("env-registry", files)
        self.assert_diag(
            diags, "src/sim/sweep.cc",
            "unregistered environment variable `SIPT_SECRET`")

    def test_wrapper_reader_also_scanned(self):
        files = env_fixture()
        files["src/sim/sweep.cc"] += (
            "bool extra()\n{\n"
            '    return envU64("SIPT_HIDDEN", 0, 0, 1) == 1;\n'
            "}\n")
        diags = self.run_pass("env-registry", files)
        self.assert_diag(
            diags, "src/sim/sweep.cc",
            "unregistered environment variable `SIPT_HIDDEN`")

    def test_mention_in_string_is_not_a_read(self):
        files = env_fixture()
        files["src/sim/sweep.cc"] += (
            'const char *kHelp = "set SIPT_UNUSED to taste";\n')
        self.assertEqual(self.run_pass("env-registry", files), [])

    def test_stale_registry_entry_rejected(self):
        files = env_fixture()
        files["src/sim/sweep.cc"] = "int refs() { return 0; }\n"
        diags = self.run_pass("env-registry", files)
        self.assert_diag(
            diags, "tools/env_registry.json",
            "stale registry entry `SIPT_REFS`")

    def test_missing_registry_field_rejected(self):
        registry = ENV_REGISTRY.replace(
            '     "description": "measured references per run"',
            '     "description_typo": "x"')
        # Keep the README table consistent with what a full entry
        # would render so only the schema diagnostic fires.
        files = env_fixture()
        files["tools/env_registry.json"] = registry
        diags = self.run_pass("env-registry", files)
        self.assert_diag(
            diags, "tools/env_registry.json",
            "missing the `description` field", count=1)

    def test_missing_doc_file_rejected(self):
        registry = ENV_REGISTRY.replace('"README.md"',
                                        '"MISSING.md"')
        files = env_fixture(registry=registry)
        diags = self.run_pass("env-registry", files)
        self.assert_diag(
            diags, "tools/env_registry.json",
            "missing doc file `MISSING.md`")

    def test_undocumented_in_doc_location_rejected(self):
        registry = ENV_REGISTRY.replace('"README.md"',
                                        '"DESIGN.md"')
        files = env_fixture(registry=registry)
        files["DESIGN.md"] = "# Design\n\nNothing here.\n"
        diags = self.run_pass("env-registry", files)
        self.assert_diag(
            diags, "tools/env_registry.json",
            "not mentioned in its declared doc location "
            "`DESIGN.md`")

    def test_out_of_sync_table_rejected(self):
        files = env_fixture()
        files["README.md"] = files["README.md"].replace(
            "400000", "999999")
        diags = self.run_pass("env-registry", files)
        self.assert_diag(diags, "README.md", "out of sync")

    def test_missing_markers_rejected(self):
        files = env_fixture()
        files["README.md"] = "# Fixture\n\nSIPT_REFS here.\n"
        diags = self.run_pass("env-registry", files)
        self.assert_diag(diags, "README.md", "markers")

    def test_write_mode_regenerates_the_table(self):
        files = env_fixture()
        files["README.md"] = files["README.md"].replace(
            "400000", "999999")
        diags = self.run_pass("env-registry", files,
                              write_table=True)
        self.assertEqual(diags, [])
        self.assertIn("400000", self.rewritten_readme)
        self.assertNotIn("999999", self.rewritten_readme)


# --------------------------------------------------------------
# source passes
# --------------------------------------------------------------

class Lexer(AnalyzeCase):
    def test_code_after_digit_separators_is_checked(self):
        # A `'` inside 20'000 is a digit separator, not the start
        # of a char literal that would blank everything up to the
        # next `'` (here, inside 5'000).
        diags = self.scan(
            "src/x/a.cc",
            "constexpr unsigned long kRefs = 20'000;\n"
            "int f() { return rand(); }\n"
            "static int counter = 0;\n"
            "constexpr unsigned long kWarmup = 5'000;\n")
        self.assertEqual(
            sorted(diags),
            [("mutable-static", 3), ("nondeterminism", 2)])


class Nondeterminism(AnalyzeCase):
    def test_rand_and_srand_flagged(self):
        diags = self.scan(
            "src/x/a.cc",
            "int f() { srand(42); return rand(); }\n")
        self.assert_rule(diags, "nondeterminism", 2)

    def test_random_device_and_engine_flagged(self):
        diags = self.scan(
            "src/x/a.cc",
            "#include <random>\n"
            "std::mt19937 g{std::random_device{}()};\n")
        self.assert_rule(diags, "nondeterminism", 2)

    def test_time_and_clocks_flagged(self):
        diags = self.scan(
            "src/x/a.cc",
            "long f() { return time(nullptr); }\n"
            "long g() { return clock(); }\n"
            "auto h() { return "
            "std::chrono::steady_clock::now(); }\n")
        self.assert_rule(diags, "nondeterminism", 3)

    def test_rng_hh_and_member_time_ok(self):
        diags = self.scan(
            "src/x/a.cc",
            '#include "common/rng.hh"\n'
            "double f(sipt::Rng &rng) { return rng.uniform(); }\n"
            "struct S { long time(int); };\n"
            "long g(S &s) { return s.time(3); }\n"
            "int runtime(int x) { return x; }\n")
        self.assertEqual(diags, [])

    def test_mention_in_comment_or_string_ok(self):
        diags = self.scan(
            "src/x/a.cc",
            "// rand() would poison the memo cache\n"
            'const char *s = "do not call rand()";\n')
        self.assertEqual(diags, [])

    def test_not_checked_outside_src(self):
        diags = self.scan(
            "bench/a.cc", "int f() { return rand(); }\n")
        self.assertEqual(diags, [])


class MutableStatic(AnalyzeCase):
    def test_mutable_static_flagged(self):
        diags = self.scan(
            "src/x/a.cc",
            "int f() {\n"
            "    static int calls = 0;\n"
            "    return ++calls;\n"
            "}\n"
            "static bool g_ready;\n")
        self.assert_rule(diags, "mutable-static", 2)

    def test_const_once_init_table_ok(self):
        # The profile.cc idiom: thread-safe once-init const table.
        diags = self.scan(
            "src/x/a.cc",
            "#include <vector>\n"
            "std::vector<int> build();\n"
            "const std::vector<int> &table() {\n"
            "    static const std::vector<int> t = build();\n"
            "    return t;\n"
            "}\n"
            "static constexpr double kPi = 3.14;\n")
        self.assertEqual(diags, [])

    def test_static_member_function_decl_ok(self):
        diags = self.scan(
            "src/x/a.hh",
            "#ifndef SIPT_X_A_HH\n#define SIPT_X_A_HH\n"
            "struct S {\n"
            "    static double latencyRaw(int config);\n"
            "    static S\n"
            "    make(int a, int b);\n"
            "};\n"
            "static int helper() { return 3; }\n"
            "#endif\n")
        self.assertEqual(diags, [])


class RawThread(AnalyzeCase):
    def test_thread_async_new_array_flagged(self):
        diags = self.scan(
            "src/x/a.cc",
            "#include <thread>\n"
            "void f() { std::thread t([]{}); t.join(); }\n"
            "auto g() { return std::async([]{ return 1; }); }\n"
            "int *h(int n) { return new int[n]; }\n")
        self.assert_rule(diags, "raw-thread", 3)

    def test_sweep_cc_is_exempt(self):
        diags = self.scan(
            "src/sim/sweep.cc",
            "#include <thread>\n"
            "void f() { std::thread t([]{}); t.join(); }\n")
        self.assertEqual(diags, [])


class AddrShift(AnalyzeCase):
    def test_raw_shift_on_addr_flagged(self):
        diags = self.scan(
            "src/x/a.cc",
            "unsigned long f(unsigned long vaddr) "
            "{ return vaddr >> 12; }\n"
            "unsigned long g(unsigned long paddr, unsigned s) "
            "{ return paddr >> s; }\n"
            "unsigned long h(unsigned long x) "
            "{ return x << 12; }\n")
        self.assert_rule(diags, "addr-shift", 2)

    def test_member_access_and_lineaddr_flagged(self):
        diags = self.scan(
            "src/x/a.cc",
            "unsigned long f(const R &r) "
            "{ return r.vaddr >> 12; }\n"
            "unsigned long g(const L &l, unsigned s) "
            "{ return l.lineAddr << s; }\n")
        self.assert_rule(diags, "addr-shift", 2)

    def test_helpers_and_streaming_ok(self):
        diags = self.scan(
            "src/x/a.cc",
            '#include "common/bitops.hh"\n'
            "auto f(sipt::Addr vaddr) "
            "{ return sipt::pageNumber(vaddr); }\n"
            "void g(std::ostream &os, sipt::Addr addr) "
            '{ os << "va=" << addr << 1; }\n')
        self.assertEqual(diags, [])

    def test_bitops_itself_exempt(self):
        diags = self.scan(
            "src/common/bitops.hh",
            "#ifndef SIPT_COMMON_BITOPS_HH\n"
            "#define SIPT_COMMON_BITOPS_HH\n"
            "constexpr unsigned long pageNumber(unsigned long "
            "addr) { return addr >> 12; }\n"
            "#endif\n")
        self.assertEqual(diags, [])


class HeaderGuard(AnalyzeCase):
    def test_missing_guard_flagged(self):
        diags = self.scan(
            "src/x/a.hh", "struct A {};\n")
        self.assert_rule(diags, "header-guard")

    def test_wrong_guard_name_flagged(self):
        diags = self.scan(
            "src/x/a.hh",
            "#ifndef WRONG_GUARD\n#define WRONG_GUARD\n"
            "struct A {};\n#endif\n")
        self.assert_rule(diags, "header-guard")

    def test_canonical_guard_and_pragma_once_ok(self):
        diags = self.scan(
            "src/x/a.hh",
            "#ifndef SIPT_X_A_HH\n#define SIPT_X_A_HH\n"
            "struct A {};\n#endif\n",
            extra={"src/x/b.hh": "#pragma once\nstruct B {};\n"})
        self.assertEqual(diags, [])

    def test_bench_headers_checked_too(self):
        diags = self.scan("bench/figures.hh", "int x;\n")
        self.assert_rule(diags, "header-guard")

    def test_trace_header_guard_must_include_directory(self):
        # A guard that drops the workload/ path component is the
        # plausible typo for the trace_* headers; it must not pass.
        diags = self.scan(
            "src/workload/trace_format.hh",
            "#ifndef SIPT_TRACE_FORMAT_HH\n"
            "#define SIPT_TRACE_FORMAT_HH\n"
            "struct T {};\n#endif\n")
        self.assert_rule(diags, "header-guard")

    def test_real_trace_headers_are_clean(self):
        """The shipped trace record/replay headers pass every
        source pass (guards, determinism, addr-shift)."""
        root = os.path.dirname(TOOLS_DIR)
        files = {}
        for rel in ("src/workload/trace_format.hh",
                    "src/workload/trace_record.hh",
                    "src/workload/trace_replay.hh"):
            with open(os.path.join(root, rel),
                      encoding="utf-8") as f:
                files[rel] = f.read()
        diags = self.analyze(files, ANALYZE.SOURCE_PASSES)
        self.assertEqual(
            [(d.path, d.rule, d.line) for d in diags], [])


class EscapeHatch(AnalyzeCase):
    def test_allow_on_own_line_and_line_above(self):
        diags = self.scan(
            "src/x/a.cc",
            "int f() { return rand(); } "
            "// sipt-analyze: allow(nondeterminism)\n"
            "// sipt-analyze: allow(nondeterminism)\n"
            "int g() { return rand(); }\n")
        self.assertEqual(diags, [])

    def test_allow_file_suppresses_everywhere(self):
        diags = self.scan(
            "src/x/a.cc",
            "// sipt-analyze: allow-file(nondeterminism)\n"
            "int f() { return rand(); }\n"
            "int g() { return rand(); }\n")
        self.assertEqual(diags, [])

    def test_allow_without_rule_name_rejected(self):
        diags = self.scan(
            "src/x/a.cc",
            "int f() { return rand(); } // sipt-analyze: allow\n")
        self.assert_rule(diags, "bad-allow")
        self.assert_rule(diags, "nondeterminism")

    def test_allow_with_unknown_rule_rejected(self):
        diags = self.scan(
            "src/x/a.cc",
            "int f() { return rand(); } "
            "// sipt-analyze: allow(everything)\n")
        self.assert_rule(diags, "bad-allow")
        self.assert_rule(diags, "nondeterminism")

    def test_allow_does_not_leak_past_next_line(self):
        diags = self.scan(
            "src/x/a.cc",
            "// sipt-analyze: allow(nondeterminism)\n"
            "int f() { return 0; }\n"
            "int g() { return rand(); }\n")
        self.assert_rule(diags, "nondeterminism")


# --------------------------------------------------------------
# command line
# --------------------------------------------------------------

class PassTable(AnalyzeCase):
    def test_list_passes_names_all_eight(self):
        self.assertEqual(
            sorted(ANALYZE.PASSES),
            ["addr-shift", "env-registry", "header-guard",
             "layering", "mutable-static", "nondeterminism",
             "raw-thread", "stage-ownership"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
