"""The one-pass table decoder against the per-entry loop it replaced."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from tbk import fileio
from tbk.errors import MalformedError


def reference_decode(rows, n: int, pointer: str, m: int) -> np.ndarray:
    """The per-entry loop that decoded cocycle tables before one pass did."""
    arr = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == n):
            raise MalformedError(f"row must have {n} entries",
                                 pointer=f"{pointer}/{i}")
        for j, v in enumerate(row):
            if not (isinstance(v, int) and 0 <= v < m):
                raise MalformedError(f"entry must be an integer in [0, {m})",
                                     pointer=f"{pointer}/{i}/{j}")
            arr[i, j] = v
    return arr


def decode(rows, n: int, pointer: str, m: int) -> np.ndarray:
    """The decoder as ``decode_cocycle`` calls it."""
    return fileio.decode_table(rows, n, pointer, (0, m),
                               f"entry must be an integer in [0, {m})")


def outcome(fn, rows, n: int, m: int):
    try:
        arr = fn(rows, n, "/table", m)
    except MalformedError as exc:
        return ("error", exc.pointer, str(exc))
    return ("ok", arr.dtype, arr.shape, arr.tolist())


def plant(kind: str, rows: list, i: int, j: int, m: int,
          rng: random.Random) -> None:
    """Replace row i, or entry (i, j), with one defect of the given kind."""
    v = rows[i][j]
    entry = {
        "out of range": lambda: m + rng.randrange(3),
        "negative": lambda: -1 - rng.randrange(3),
        "float": lambda: rng.choice([float(v), v + 0.5]),
        "digit string": lambda: str(v),
        "null": lambda: None,
        "above 2^63": lambda: 2 ** 63 + rng.randrange(2 ** 64 + 1),
        "boolean": lambda: bool(v % 2),
    }
    if kind in entry:
        rows[i][j] = entry[kind]()
    elif kind == "short row":
        rows[i] = rows[i][:rng.randrange(len(rows[i]))]
    elif kind == "long row":
        rows[i] = rows[i] + [rng.randrange(m) for _ in range(rng.randrange(1, 3))]
    else:  # non-list row
        rows[i] = rng.choice([v, str(v) * len(rows[i]), None, {"0": v}])


KINDS = ["out of range", "negative", "float", "digit string", "null",
         "above 2^63", "short row", "long row", "non-list row", "boolean"]


def test_decoder_matches_the_per_entry_loop_on_valid_tables():
    rng = random.Random(8)
    for trial in range(200):
        n, m = rng.randrange(1, 13), rng.randrange(2, 37)
        rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        got = outcome(decode, rows, n, m)
        assert got == outcome(reference_decode, rows, n, m)
        assert got[0] == "ok" and got[1] == np.int64


@pytest.mark.parametrize("kind", KINDS)
def test_decoder_matches_the_per_entry_loop_on_one_planted_defect(kind):
    rng = random.Random(KINDS.index(kind))
    # n = 1 makes every row-shaped defect a well-shaped array for np.array
    for n in [1, 1, 1] + [rng.randrange(2, 13) for _ in range(60)]:
        m = rng.randrange(2, 37)
        rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        plant(kind, rows, rng.randrange(n), rng.randrange(n), m, rng)
        want = outcome(reference_decode, rows, n, m)
        assert outcome(decode, rows, n, m) == want
        assert want[0] == ("ok" if kind == "boolean" else "error")


def test_all_boolean_table_decodes_as_before():
    rows = [[False, True], [True, False]]
    got = outcome(decode, rows, 2, 2)
    assert got == outcome(reference_decode, rows, 2, 2)
    assert got == ("ok", np.int64, (2, 2), [[0, 1], [1, 0]])


def test_group_table_entries_must_fit_in_64_bits():
    with pytest.raises(MalformedError) as info:
        fileio.decode_table([[0, 1], [1, -2 ** 63 - 1]], 2, "/cayley")
    assert info.value.pointer == "/cayley/1/1"
    arr = fileio.decode_table([[0, 2 ** 63 - 1], [1, 0]], 2, "/cayley")
    assert arr.dtype == np.int64 and arr[0, 1] == 2 ** 63 - 1


def test_long_string_entry_is_rejected_without_a_wide_array():
    # np.array left to choose the dtype would build a 48 x 48 unicode array
    # of 5000-character entries, 46 MB, before the scan found the string
    n = 48
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    rows[40][7] = "7" * 5000
    tracemalloc.start()
    try:
        with pytest.raises(MalformedError) as info:
            fileio.decode_table(rows, n, "/cayley")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.pointer == "/cayley/40/7"
    assert str(info.value) == "entry must be a 64-bit integer"
    assert peak < 1_000_000
