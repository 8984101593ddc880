"""Rewrite the golden CLI manifests under tests/golden/.

Run from the repository root after a deliberate change of report output:

    PYTHONPATH=src python tools/regen_golden.py [family ...]

With no family named, every family in ``tests.test_golden.FAMILIES`` is
rewritten. List each argv whose entry changed in CHANGES.md.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.test_golden import FAMILIES, GOLDEN, run, write_manifest  # noqa: E402


def main(names: list[str]) -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in names or sorted(FAMILIES):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            entries = [run(argv, directory)
                       for argv in FAMILIES[name](directory)]
        write_manifest(GOLDEN / f"{name}.json", entries)
        print(f"{name}: {len(entries)} argvs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
