"""CLI reports compared byte for byte with a committed manifest.

``tests/golden/<family>.json`` holds one entry per argv: the exit code,
the stderr and the report without its ``timings`` field. The input files
are written by the test. ``tools/regen_golden.py`` rewrites a manifest
after a deliberate change of output.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from tbk import cli, fileio

GOLDEN = Path(__file__).parent / "golden"


def h2_inputs(directory: Path) -> list[list[str]]:
    """Write each h2 test group to ``directory``; return the family's argvs,
    the group file relative to ``directory``."""
    from tests.test_cocycle import _h2_test_groups

    argvs = []
    for name, g in sorted(_h2_test_groups().items()):
        (directory / f"{name}.json").write_text(
            fileio.dump_json(fileio.encode_group(g)))
        argvs.append(["h2", "--in", f"{name}.json"])
        argvs.append(["h2", "--in", f"{name}.json", "--emit-cocycles"])
    return argvs


FAMILIES = {"h2": h2_inputs}


def run(argv: list[str], directory: Path) -> dict:
    """Run the CLI on ``argv``, its ``.json`` arguments read in
    ``directory``; return the manifest entry."""
    resolved = [str(directory / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(resolved)
    text = out.getvalue()
    report = json.loads(text) if text else None
    # the report is read back whole, so dropping timings drops nothing else
    assert report is None or fileio.dump_json(report) == text
    if report is not None:
        del report["timings"]
    return {"argv": argv, "exit": code, "stderr": err.getvalue(),
            "report": report}


def write_manifest(path: Path, entries: list[dict]) -> None:
    path.write_text("[\n" + ",\n".join(json.dumps(e, sort_keys=True)
                                       for e in entries) + "\n]\n")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reports_match_the_golden_manifest(family, tmp_path):
    expected = json.loads((GOLDEN / f"{family}.json").read_text())
    argvs = FAMILIES[family](tmp_path)
    assert [e["argv"] for e in expected] == argvs
    for want in expected:
        got = run(want["argv"], tmp_path)
        assert got["exit"] == want["exit"], want["argv"]
        assert got["stderr"] == want["stderr"], want["argv"]
        assert (fileio.dump_json(got["report"])
                == fileio.dump_json(want["report"])), want["argv"]
