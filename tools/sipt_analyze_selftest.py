#!/usr/bin/env python3
"""Self-test for tools/sipt-analyze.

Builds minimal scratch repos per pass — a clean fixture, seeded
violations of every diagnostic the pass can emit, and the
annotated-exempt variants — and asserts the analyzer catches
exactly what it should. Runs as the `sipt_analyze_selftest` ctest;
exits nonzero on the first failure.
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
    def run_pass(self, pass_name, files, write_table=False):
        """Write a scratch repo, run one pass, return diagnostics
        as (path, substring-checkable message) pairs."""
        with tempfile.TemporaryDirectory() as root:
            for rel, body in files.items():
                path = os.path.join(root, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(body)
            diags = []
            if pass_name == "env-registry":
                ANALYZE.check_env_registry(
                    root, diags, write_table=write_table)
                if write_table:
                    with open(os.path.join(root, "README.md"),
                              encoding="utf-8") as f:
                        self.rewritten_readme = f.read()
            else:
                ANALYZE.PASS_FUNCS[pass_name](root, diags)
            return [(d.path, d.message) for d in diags]

    def assert_diag(self, diags, path, needle, count=1):
        hits = [d for d in diags
                if d[0] == path and needle in d[1]]
        self.assertEqual(
            len(hits), count,
            f"expected {count} diag(s) at {path} containing "
            f"{needle!r}, got {diags}")


# --------------------------------------------------------------
# config-key fixtures
# --------------------------------------------------------------

def config_key_fixture(**edits):
    """A three-field SystemConfig whose warmupRefs default is a
    call and whose measureRefs default uses a digit separator —
    both shapes the real header has and the parser must survive."""
    files = {
        "src/sim/system.hh":
            "#ifndef SIPT_SIM_SYSTEM_HH\n"
            "#define SIPT_SIM_SYSTEM_HH\n"
            "namespace sipt::sim\n"
            "{\n"
            "\n"
            "struct SystemConfig {\n"
            "    bool outOfOrder = true;\n"
            "    std::uint64_t measureRefs = 400'000;\n"
            "    std::uint64_t warmupRefs = "
            "defaultWarmupRefs();\n"
            "    // sipt-analyze: key-exempt(serves both "
            "engines)\n"
            "    int engine = 0;\n"
            "};\n"
            "\n"
            "struct RunResult {\n"
            "    double ipc = 0.0;\n"
            "    double energy = 0.0;\n"
            "};\n"
            "\n"
            "} // namespace sipt::sim\n"
            "#endif\n",
        "src/sim/sweep.cc":
            '#include "sim/system.hh"\n'
            "namespace sipt::sim\n"
            "{\n"
            "Json\n"
            "configToJson(const SystemConfig &c)\n"
            "{\n"
            "    Json j;\n"
            '    j.set("outOfOrder", c.outOfOrder);\n'
            '    j.set("measureRefs", c.measureRefs);\n'
            '    j.set("warmupRefs", c.warmupRefs);\n'
            "    return j;\n"
            "}\n"
            "} // namespace sipt::sim\n",
        "tests/test_config_key.cpp":
            "const char *const kKeyExemptFields[] = "
            '{"engine"};\n'
            "void cover()\n"
            "{\n"
            '    expectFieldMatters("outOfOrder", [](auto &c) '
            "{ c.outOfOrder = false; });\n"
            '    expectFieldMatters("measureRefs", [](auto &c) '
            "{ c.measureRefs += 1; });\n"
            '    expectFieldMatters("warmupRefs", [](auto &c) '
            "{ c.warmupRefs += 1; });\n"
            "}\n",
    }
    files.update(edits)
    return files


class ConfigKey(AnalyzeCase):
    def test_clean_fixture_passes(self):
        # Also the parser regression case: the call-expression
        # default, the digit separator and the trailing RunResult
        # struct must all parse.
        self.assertEqual(
            self.run_pass("config-key", config_key_fixture()), [])

    def test_field_missing_from_sweep_cache_key(self):
        files = config_key_fixture()
        files["src/sim/sweep.cc"] = files[
            "src/sim/sweep.cc"].replace(
            '    j.set("warmupRefs", c.warmupRefs);\n', "")
        diags = self.run_pass("config-key", files)
        self.assert_diag(diags, "src/sim/system.hh",
                         "missing from the run key")

    def test_unkeyed_field_without_annotation(self):
        files = config_key_fixture()
        files["src/sim/system.hh"] = files[
            "src/sim/system.hh"].replace(
            "    int engine = 0;\n",
            "    int engine = 0;\n    int undocumented = 0;\n")
        diags = self.run_pass("config-key", files)
        # Missing from the one key encoding.
        self.assert_diag(diags, "src/sim/system.hh",
                         "SystemConfig::undocumented is missing",
                         count=1)

    def test_stale_exemption_rejected(self):
        files = config_key_fixture()
        files["src/sim/sweep.cc"] = files[
            "src/sim/sweep.cc"].replace(
            "    return j;\n",
            '    j.set("engine", c.engine);\n    return j;\n')
        diags = self.run_pass("config-key", files)
        self.assert_diag(diags, "src/sim/system.hh",
                         "stale exemption: `engine`")

    def test_empty_exemption_reason_rejected(self):
        files = config_key_fixture()
        files["src/sim/system.hh"] = files[
            "src/sim/system.hh"].replace(
            "key-exempt(serves both engines)", "key-exempt()")
        diags = self.run_pass("config-key", files)
        self.assert_diag(diags, "src/sim/system.hh",
                         "non-empty reason")

    def test_same_line_annotation_accepted(self):
        files = config_key_fixture()
        files["src/sim/system.hh"] = files[
            "src/sim/system.hh"].replace(
            "    // sipt-analyze: key-exempt(serves both "
            "engines)\n"
            "    int engine = 0;\n",
            "    int engine = 0; "
            "// sipt-analyze: key-exempt(serves both engines)\n")
        self.assertEqual(self.run_pass("config-key", files), [])

    def test_annotation_without_test_listing(self):
        files = config_key_fixture()
        files["tests/test_config_key.cpp"] = files[
            "tests/test_config_key.cpp"].replace(
            '{"engine"}', "{}")
        diags = self.run_pass("config-key", files)
        self.assert_diag(
            diags, "tests/test_config_key.cpp",
            "`engine` is annotated key-exempt in "
            "src/sim/system.hh but missing from kKeyExemptFields")

    def test_test_listing_without_annotation(self):
        files = config_key_fixture()
        files["tests/test_config_key.cpp"] = files[
            "tests/test_config_key.cpp"].replace(
            '{"engine"}', '{"engine", "seed"}')
        diags = self.run_pass("config-key", files)
        self.assert_diag(
            diags, "tests/test_config_key.cpp",
            "kKeyExemptFields lists `seed`")

    def test_keyed_field_without_matters_coverage(self):
        files = config_key_fixture()
        files["tests/test_config_key.cpp"] = files[
            "tests/test_config_key.cpp"].replace(
            '    expectFieldMatters("warmupRefs", [](auto &c) '
            "{ c.warmupRefs += 1; });\n", "")
        diags = self.run_pass("config-key", files)
        self.assert_diag(
            diags, "tests/test_config_key.cpp",
            "keyed field `warmupRefs` has no expectFieldMatters")


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
  "class": "BatchPipeline",
  "components": [
    {"name": "mmu", "member": "mmu_",
     "mutators": ["translateEntry"], "stage": "translateBatch"},
    {"name": "l1", "member": "l1_",
     "mutators": ["access"], "stage": "accountBatch"}
  ],
  "readonly": [
    {"member": "pageTable_", "reads": ["translate"]}
  ]
}
"""

PIPELINE_CC = """\
#include "batch/pipeline.hh"

void
BatchPipeline::run()
{
    translateBatch();
    accountBatch();
}

void
BatchPipeline::translateBatch()
{
    mmu_.translateEntry(0);
    pageTable_.translate(0);
}

void
BatchPipeline::accountBatch()
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
            "`accountBatch` but is called from `translateBatch`")

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
            "`pageTable_` is declared read-only but `install()`")

    def test_stale_manifest_entry_rejected(self):
        pipeline = PIPELINE_CC.replace("    l1_.access(1);\n", "")
        diags = self.run_pass(
            "stage-ownership", ownership_fixture(
                pipeline=pipeline))
        self.assert_diag(
            diags, "tools/stage_ownership.json",
            "stale manifest entry: `l1_.access`")

    def test_unknown_stage_name_rejected(self):
        manifest = OWNERSHIP_MANIFEST.replace(
            '"stage": "accountBatch"', '"stage": "retireBatch"')
        pipeline = PIPELINE_CC.replace("    l1_.access(1);\n", "")
        diags = self.run_pass(
            "stage-ownership",
            ownership_fixture(manifest=manifest,
                              pipeline=pipeline))
        self.assert_diag(
            diags, "tools/stage_ownership.json",
            "names stage `retireBatch`, which is not a member "
            "function")

    def test_double_ownership_rejected(self):
        manifest = OWNERSHIP_MANIFEST.replace(
            '    {"name": "l1",',
            '    {"name": "l1b", "member": "l1_",\n'
            '     "mutators": ["access"], '
            '"stage": "translateBatch"},\n'
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
# whole-tree contract
# --------------------------------------------------------------

class WholeTreeContract(AnalyzeCase):
    def test_repo_is_clean(self):
        """The acceptance criterion: sipt-analyze on the real
        tree reports zero violations across all four passes."""
        root = os.path.dirname(TOOLS_DIR)
        rc = ANALYZE.main(["--root", root])
        self.assertEqual(rc, 0)

    def test_list_passes_names_all_four(self):
        self.assertEqual(
            sorted(ANALYZE.PASSES),
            ["config-key", "env-registry", "layering",
             "stage-ownership"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
