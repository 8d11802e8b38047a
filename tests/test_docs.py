"""The docs/ subsystem stays honest.

Three contracts, enforced in tier-1 so documentation cannot rot silently:

* every intra-repo markdown link in README.md and docs/ resolves to a
  real file, every ``repro <subcommand>`` they name is a real subcommand
  and every ``benchmarks/*.py`` / ``bench/*.py`` path they name exists;
* docs/wire-protocol.md matches the constants, caps, error codes and the
  example hexdump of :mod:`repro.serving.protocol` byte for byte, and
  docs/segment-format.md does the same for :mod:`repro.core.segment`;
* every public symbol of ``core/index.py``, the ``serving`` package and
  the ``scenarios`` package carries a docstring, docs/index-tuning.md
  documents every knob the CLI's single source of truth
  (:mod:`repro.core.knobs`) lists, and docs/scenarios.md documents every
  built-in scenario, trace generator and fault kind the engine exports.
"""

import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.knobs import INDEX_KNOB_HELP
from repro.serving import protocol

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

DOCUMENTED_MODULES = [
    "repro.core.index",
    "repro.core.knobs",
    "repro.core.segment",
    "repro.core.reference_store",
    "repro.serving",
    "repro.serving.transport",
    "repro.serving.executors",
    "repro.serving.scheduler",
    "repro.serving.manager",
    "repro.serving.frontend",
    "repro.serving.protocol",
    "repro.serving.loadgen",
    "repro.serving.tenancy",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.obs.export",
    "repro.scenarios",
    "repro.scenarios.corpus",
    "repro.scenarios.engine",
    "repro.scenarios.builtin",
    "repro.scenarios.bench",
]


def _subcommands():
    """``{name: parser}`` of every ``repro <subcommand>``."""
    from repro.cli import build_parser

    return next(
        action
        for action in build_parser()._actions
        if action.__class__.__name__ == "_SubParsersAction"
    ).choices


class TestMarkdownLinks:
    def test_doc_files_exist(self):
        assert (REPO / "docs" / "architecture.md").exists()
        assert (REPO / "docs" / "index-tuning.md").exists()
        assert (REPO / "docs" / "wire-protocol.md").exists()
        assert (REPO / "docs" / "scenarios.md").exists()

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_intra_repo_links_resolve(self, path):
        text = path.read_text()
        broken = []
        for match in re.finditer(r"\[[^\]]+\]\(([^)\s]+)\)", text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if relative and not (path.parent / relative).exists():
                broken.append(target)
        assert not broken, f"{path.name} has broken links: {broken}"


class TestWireProtocolSpec:
    @pytest.fixture(scope="class")
    def spec(self):
        return (REPO / "docs" / "wire-protocol.md").read_text()

    def test_magic_and_struct_formats(self, spec):
        assert protocol.MAGIC.decode() == "RSF1"
        assert '"RSF1"' in spec
        assert "`!4sBI`" in spec and protocol.HEADER.format == "!4sBI"
        assert "`<III`" in spec and protocol.QUERY_HEADER.format == "<III"
        assert f"The {protocol.HEADER.size}-byte header" in spec

    def test_frame_type_values(self, spec):
        for name, value in [
            ("QUERY", protocol.QUERY),
            ("RESULT", protocol.RESULT),
            ("CONTROL", protocol.CONTROL),
            ("ERROR", protocol.ERROR),
        ]:
            assert re.search(rf"`{name}`\s*\|\s*{value}\s*\|", spec), (
                f"frame type {name}={value} not documented"
            )

    def test_caps(self, spec):
        assert f"`MAX_PAYLOAD` | {protocol.MAX_PAYLOAD} " in spec
        assert f"`MAX_BATCH`   | {protocol.MAX_BATCH} " in spec
        assert f"`MAX_DIM`     | {protocol.MAX_DIM} " in spec

    def test_tenant_block(self, spec):
        assert "`<H`" in spec and protocol.TENANT_HEADER.format == "<H"
        assert f"`MAX_TENANT` ({protocol.MAX_TENANT})" in spec
        assert f"`{protocol.TENANT_PATTERN.pattern}`" in spec

    def test_error_codes_documented(self, spec):
        # Every code the implementation can emit appears in the spec table.
        source = (REPO / "src/repro/serving/protocol.py").read_text()
        source += (REPO / "src/repro/serving/frontend.py").read_text()
        emitted = set(re.findall(r'ProtocolError\(\s*"([a-z-]+)"', source))
        documented = set(re.findall(r"\|\s*`([a-z-]+)`\s*\|\s*(?:yes|\*\*no\*\*)", spec))
        assert emitted <= documented, f"undocumented error codes: {emitted - documented}"

    def test_control_ops_documented(self, spec):
        source = (REPO / "src/repro/serving/frontend.py").read_text()
        handled = set(re.findall(r'if op == "([a-z]+)"', source))
        table = spec.split("## CONTROL payload", 1)[1].split("## ERROR payload", 1)[0]
        documented = set(re.findall(r"^\| `([a-z]+)`", table, flags=re.MULTILINE))
        assert handled == documented, f"op table out of sync: {handled ^ documented}"

    def test_example_hexdump_is_exact(self, spec):
        # Parse the hex columns of the example block and compare against a
        # real encode of the documented query (1 query, dim 2, [1.0, 2.0],
        # top_n 3) — the spec's bytes must be the implementation's bytes.
        block = spec.split("### Example hexdump", 1)[1].split("```")[1]
        raw = []
        for line in block.strip().splitlines():
            columns = re.split(r"\s{4,}", line.strip(), maxsplit=1)
            raw.extend(re.findall(r"\b[0-9a-f]{2}\b", columns[0]))
        frame = protocol.encode_query(np.array([[1.0, 2.0]]), top_n=3)
        assert bytes(int(byte, 16) for byte in raw) == frame

    def test_result_and_error_fields(self, spec):
        assert '"generation"' in spec and '"predictions"' in spec
        assert '"recoverable"' in spec


class TestSegmentFormatSpec:
    @pytest.fixture(scope="class")
    def spec(self):
        return (REPO / "docs" / "segment-format.md").read_text()

    def test_magic_and_struct_formats(self, spec):
        from repro.core import segment

        assert segment.MAGIC == b"RSG1" and '"RSG1"' in spec
        assert "`<4sBBHQQI36x`" in spec and segment.HEADER.format == "<4sBBHQQI36x"
        assert "`<64s8sQQI4x8Q`" in spec and segment.ENTRY.format == "<64s8sQQI4x8Q"
        assert f"Header ({segment.HEADER_SIZE} bytes" in spec
        assert f"Array-table entry ({segment.ENTRY_SIZE} bytes each" in spec
        assert f"checksum at offset {segment.CHECKSUM_OFFSET}" in spec

    def test_alignment_constants(self, spec):
        from repro.core import segment

        assert f"`PAGE_ALIGNMENT`  | {segment.PAGE_ALIGNMENT} " in spec
        assert f"`ARRAY_ALIGNMENT` | {segment.ARRAY_ALIGNMENT} " in spec
        assert segment.FORMAT_VERSION == 1 and "currently 1" in spec

    def test_example_hexdump_is_exact(self, spec):
        # Parse the hex columns of the example block and compare against a
        # real encode of the documented segment (one uint8 array "codes"
        # of shape (2, 3)).  The doc elides the zero padding between the
        # array table and the page-aligned data region, so the dumped
        # bytes are header+table followed by the data region.
        from repro.core import segment

        arrays = {"codes": np.arange(6, dtype=np.uint8).reshape(2, 3)}
        blob = bytearray(segment.segment_size(arrays))
        segment.write_segment(blob, arrays)
        _, _, _, n_arrays, data_offset, total, _ = segment.HEADER.unpack_from(blob, 0)
        table_end = segment.HEADER_SIZE + n_arrays * segment.ENTRY_SIZE
        assert blob[table_end:data_offset] == b"\x00" * (data_offset - table_end)

        block = spec.split("### Example hexdump", 1)[1].split("```")[1]
        raw = []
        for line in block.strip().splitlines():
            columns = re.split(r"\s{4,}", line.strip(), maxsplit=1)
            raw.extend(re.findall(r"\b[0-9a-f]{2}\b", columns[0]))
        assert bytes(int(byte, 16) for byte in raw) == blob[:table_end] + blob[data_offset:total]

    def test_archive_schema_names_match_store_writes(self, spec):
        source = (REPO / "src/repro/core/reference_store.py").read_text()
        for name in ("embeddings", "label_codes", "class_names", "meta", "index_state__"):
            assert f"`{name}" in spec, f"archive array {name!r} not documented"
            assert name in source


class TestScenarioDocs:
    @pytest.fixture(scope="class")
    def guide(self):
        return (REPO / "docs" / "scenarios.md").read_text()

    def test_every_builtin_scenario_documented(self, guide):
        from repro.scenarios import builtin_scenarios

        for name in builtin_scenarios():
            assert f"`{name}`" in guide, f"built-in scenario {name!r} not documented"

    def test_generators_and_faults_documented(self, guide):
        from repro.scenarios import FAULT_KINDS, GENERATOR_KINDS

        for kind in (*GENERATOR_KINDS, *FAULT_KINDS):
            assert f"`{kind}`" in guide, f"scenario kind {kind!r} not documented"

    def test_cli_entry_points_documented(self, guide):
        assert "repro scenario run" in guide
        assert "repro scenario list" in guide
        assert "scenarios.json" in guide


class TestKnobSync:
    def test_index_tuning_covers_every_knob(self):
        tuning = (REPO / "docs" / "index-tuning.md").read_text()
        for knob in INDEX_KNOB_HELP:
            assert f"`{knob}`" in tuning, f"docs/index-tuning.md misses knob {knob!r}"

    def test_cli_exposes_every_knob_on_experiment(self):
        help_text = _subcommands()["experiment"].format_help()
        for knob in INDEX_KNOB_HELP:
            flag = "--" + knob.replace("_", "-")
            assert flag in help_text, f"repro experiment misses {flag}"


class TestDocsNameRealThings:
    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_subcommands_and_bench_paths_exist(self, doc):
        text = doc.read_text()
        commands = _subcommands()
        for command in set(re.findall(r"\brepro ([a-z][a-z-]*)", text)):
            assert command in commands, f"{doc.name} names `repro {command}`, not a subcommand"
        for path in set(re.findall(r"(?<![\w/])((?:benchmarks|bench)/[\w./*-]+\.py)\b", text)):
            assert list(REPO.glob(path)), f"{doc.name} names {path}, which does not exist"


def _public_symbols_missing_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = []
    if not (module.__doc__ or "").strip():
        missing.append(module_name)
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented where they live
        if not (obj.__doc__ or "").strip():
            missing.append(f"{module_name}.{attr}")
        if inspect.isclass(obj):
            for name, member in vars(obj).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isfunction(member) or isinstance(member, property)):
                    continue
                target = member.fget if isinstance(member, property) else member
                if target is None or not (target.__doc__ or "").strip():
                    missing.append(f"{module_name}.{attr}.{name}")
    return missing


class TestPublicDocstrings:
    @pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
    def test_public_api_is_docstringed(self, module_name):
        missing = _public_symbols_missing_docstrings(module_name)
        assert not missing, f"public symbols without docstrings: {missing}"
