"""The one-pass table decoder against the per-entry loop it replaced."""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from tbk import fileio
from tbk.errors import InfeasibleError, MalformedError


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


# --- tables read straight from the file bytes --------------------------------


def reference_load(path):
    """load_json as it was before tables were read from the bytes."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedError(f"{path} is not UTF-8: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedError(f"invalid JSON in {path}: {exc}")


def plain(v):
    """v with every array made a list: what json.loads gives."""
    if isinstance(v, np.ndarray):
        assert v.dtype == np.int64 and v.ndim == 2
        return v.tolist()
    if isinstance(v, dict):
        return {k: plain(x) for k, x in v.items()}
    if isinstance(v, list):
        return [plain(x) for x in v]
    return v


def load_outcome(fn, path):
    try:
        v = fn(path)
    except MalformedError as exc:
        return ("malformed", exc.pointer, str(exc))
    except Exception as exc:  # json's own ValueError, RecursionError, ...
        return ("raise", type(exc).__name__, str(exc))
    # json.dumps tells true from 1 and 1.0 from 1, which == does not
    return ("ok", json.dumps(plain(v)))


def compact(head: dict, key: str, rows) -> str:
    """The layout the benchmark writes: a compact head, then one row a line
    as json.dumps prints it."""
    return (json.dumps(head, separators=(",", ":"))[:-1] + f',"{key}":['
            + ",".join(json.dumps(row) for row in rows) + "]}")


def table_files(rng: random.Random):
    """(text, table keys): group, cocycle and nested files, in both layouts."""
    n = rng.randrange(1, 7)
    top = rng.choice([2, 3, 40, 10 ** 6, 10 ** 18 - 1])
    rows = [[rng.randrange(top) for _ in range(n)] for _ in range(n)]
    head = {"order": n, "generators": list(range(min(n, 2)))}
    inline = {"modulus": top, "group": {**head, "cayley": rows}}
    return [
        (compact(head, "cayley", rows), ["cayley"]),
        (fileio.dump_json({**head, "cayley": rows, "labels": None}),
         ["cayley"]),
        (compact({"modulus": top, "group": "g.json"}, "table", rows),
         ["table"]),
        (fileio.dump_json({**inline, "table": rows}), ["table"]),
        (json.dumps({**inline, "table": rows}), ["table"]),
    ]


def test_tables_are_read_as_arrays_equal_to_json(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "t.json"
    for trial in range(60):
        for text, keys in table_files(rng):
            path.write_text(text)
            got = fileio.load_json(str(path))
            assert json.dumps(plain(got)) == json.dumps(json.loads(text))
            for key in keys:
                assert isinstance(got[key], np.ndarray)
            if isinstance(got.get("group"), dict):
                assert isinstance(got["group"]["cayley"], np.ndarray)


MUTATION_BYTES = b'0123456789,[]{}:"- \n\t\x0bte.+\x00\xc3\xff'


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three byte replacements, insertions or deletions."""
    b = bytearray(data)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(b) + 1)
        kind = rng.randrange(3)
        if kind == 0 and i < len(b):
            b[i] = rng.choice(MUTATION_BYTES)
        elif kind == 1:
            b.insert(i, rng.choice(MUTATION_BYTES))
        elif i < len(b):
            del b[i]
    return bytes(b)


def test_mutated_files_load_as_json_loads_them(tmp_path):
    rng = random.Random(12)
    path = tmp_path / "t.json"
    kinds = set()
    for trial in range(600):
        for text, _keys in table_files(rng):
            path.write_bytes(mutate(text.encode(), rng))
            want = load_outcome(reference_load, path)
            assert load_outcome(fileio.load_json, str(path)) == want
            kinds.add(want[0])
    assert kinds == {"ok", "malformed"}


TABLE_TRAPS = {
    "lone minus": "[[0, -], [1, 0]]",
    "minus space": "[[0, - 1], [1, 0]]",
    "leading zero": "[[0, 01], [1, 0]]",
    "digits after a row": "[[0, 1,]5, [1, 0]]",
    "digits between rows": "[[0, 1]5, [1, 0]]",
    "digits before a row": "[[0, 1], 5[1, 0]]",
    "trailing comma": "[[0, 1], [1, 0],]",
    "trailing comma in a row": "[[0, 1], [1, 0,]]",
    "blank entry": "[[0, 1], [1, ]]",
    "blank entry and leading zero": "[[0, 1, 2], [1, , 00], [2, 0, 1]]",
    "blank first entry": "[[0, 1], [ , 00]]",
    "blank last entry": "[[0, 1], [1, ]]",
    "ragged rows": "[[0, 1, 2], [1, 2], [2, 0, 1, 1]]",
    "split entry": "[[0, 1], [1, 0 0]]",
    "19 digits": "[[0, 1], [1, 1000000000000000000]]",
    "above 2^64": "[[0, 1], [1, 18446744073709551617]]",
    "booleans": "[[false, true], [true, false]]",
    "negative": "[[0, 1], [1, -1]]",
    "float": "[[0, 1], [1, 0.0]]",
    "exponent": "[[0, 1], [1, 1e0]]",
    "plus": "[[0, 1], [1, +0]]",
    "vertical tab": "[[0, 1], [1,\x0b0]]",
    "empty": "[]",
    "empty rows": "[[], []]",
    "not square": "[[0, 1], [1, 0], [0, 1]]",
}


@pytest.mark.parametrize("table", TABLE_TRAPS.values(), ids=TABLE_TRAPS)
@pytest.mark.parametrize("key", ["cayley", "table"])
def test_table_traps_load_as_json_loads_them(tmp_path, key, table):
    path = tmp_path / "t.json"
    for text in (f'{{"order": 2, "{key}": {table}}}',
                 f'{{"{key}": {table}, "order": 2}}'):
        path.write_text(text)
        want = load_outcome(reference_load, path)
        assert load_outcome(fileio.load_json, str(path)) == want


# block sizes of a few bytes: every table spans several blocks, its
# skeleton slices cut through rows, and its row blocks hold one row (at 1
# and 7) or a few (at 200)
SMALL_BLOCKS = [1, 7, 200]


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_tables_read_in_small_blocks_are_equal_to_json(tmp_path, monkeypatch,
                                                       block):
    monkeypatch.setattr(fileio, "TABLE_BLOCK_BYTES", block)
    test_tables_are_read_as_arrays_equal_to_json(tmp_path)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_mutated_files_in_small_blocks_load_as_json_loads_them(
        tmp_path, monkeypatch, block):
    monkeypatch.setattr(fileio, "TABLE_BLOCK_BYTES", block)
    test_mutated_files_load_as_json_loads_them(tmp_path)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("table", TABLE_TRAPS.values(), ids=TABLE_TRAPS)
def test_table_traps_in_small_blocks_load_as_json_loads_them(
        tmp_path, monkeypatch, table, block):
    monkeypatch.setattr(fileio, "TABLE_BLOCK_BYTES", block)
    for key in ("cayley", "table"):
        test_table_traps_load_as_json_loads_them(tmp_path, key, table)


# --- the same on the worker pool ----------------------------------------------


def check_hashes(monkeypatch) -> None:
    """Make every load_json call hash the file and check the digest."""
    load = fileio.load_json

    def hashed(path, digest=None):
        mine = hashlib.sha256()
        try:
            return load(path, mine)
        finally:
            with open(path, "rb") as fh:
                assert mine.digest() == hashlib.sha256(fh.read()).digest()

    monkeypatch.setattr(fileio, "load_json", hashed)


# each test runs at the small block sizes on two workers, so that the files
# are hashed on a worker and the tables are read in several jobs: at 1 and 7
# a row block per job, at 200 a few rows


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_pooled_tables_are_read_as_arrays_equal_to_json(
        tmp_path, monkeypatch, pooled, block):
    check_hashes(monkeypatch)
    test_tables_read_in_small_blocks_are_equal_to_json(tmp_path, monkeypatch,
                                                       block)
    assert pooled._pool is not None


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_pooled_mutated_files_load_as_json_loads_them(
        tmp_path, monkeypatch, pooled, block):
    check_hashes(monkeypatch)
    test_mutated_files_in_small_blocks_load_as_json_loads_them(
        tmp_path, monkeypatch, block)
    assert pooled._pool is not None


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("table", TABLE_TRAPS.values(), ids=TABLE_TRAPS)
def test_pooled_table_traps_load_as_json_loads_them(
        tmp_path, monkeypatch, pooled, table, block):
    check_hashes(monkeypatch)
    test_table_traps_in_small_blocks_load_as_json_loads_them(
        tmp_path, monkeypatch, table, block)
    # at 200 bytes most traps' files and tables are one block, read inline
    assert pooled._pool is not None or block == 200


def test_an_irregular_block_leaves_no_job_running(tmp_path, monkeypatch,
                                                  pooled):
    # a blank entry keeps the skeleton and the row gaps, so only the
    # block's own job finds it, while later blocks are queued or running
    n = 300
    path = tmp_path / "g.json"
    text = cyclic_file(path, n)
    row = f"[{', '.join(str((150 + j) % n) for j in range(n))}]"
    assert text.count(row) == 1
    path.write_text(text.replace(row, row.replace(", 7,", ", ,")))
    monkeypatch.setattr(fileio, "TABLE_BLOCK_BYTES", 1 << 13)
    fill, lock = fileio._fill, threading.Lock()
    running, calls = [0], [0]

    def slow_fill(*args):
        with lock:
            running[0] += 1
            calls[0] += 1
        try:
            time.sleep(0.002)
            return fill(*args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(fileio, "_fill", slow_fill)
    want = load_outcome(reference_load, path)
    assert want[0] == "malformed"
    assert load_outcome(fileio.load_json, str(path)) == want
    assert running[0] == 0 and calls[0] > 1
    assert pooled._pool is not None


def test_the_pool_fills_one_table_from_many_threads(tmp_path, monkeypatch,
                                                    pooled):
    # more workers than cores, switching threads as often as it can: a
    # row block lost or written twice would break the equality
    monkeypatch.setattr(pooled, "cpus", lambda: 4)
    monkeypatch.setattr(fileio, "TABLE_BLOCK_BYTES", 64)
    n = 97
    path = tmp_path / "g.json"
    cyclic_file(path, n)
    want = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            digest = hashlib.sha256()
            assert np.array_equal(fileio.load_json(str(path), digest)["cayley"],
                                  want)
            assert digest.digest() == hashlib.sha256(
                path.read_bytes()).digest()
    finally:
        sys.setswitchinterval(interval)
    assert pooled._pool._max_workers == 4


def test_values_outside_the_tables_load_as_json_loads_them(tmp_path):
    # the scanner reads them through windows from 256 characters up: these
    # values end on either side of a window's end, numbers among them
    # with a fraction or an exponent cut off by it
    path = tmp_path / "t.json"
    values = []
    for width in (250, 251, 252, 253, 254, 255, 256, 257, 1023, 1024, 1025):
        values += ["1" * width, "1" * (width - 2) + ".5",
                   "1" * (width - 3) + "e+3", "1" * (width - 2) + "e3",
                   "1" * (width - 3) + "E-1", "-" + "2" * (width - 1),
                   json.dumps("x" * (width - 2)), json.dumps("\\" * width),
                   json.dumps(list(range(width // 4))),
                   json.dumps({"k": "y" * width, "table": [[0]]})]
    for v in values:
        for text, key in ((f'{{"order": 1, "cayley": [[0]], "labels": {v}}}',
                           "cayley"),
                          (f'{{"labels": {v}, "table": [[0]]}}', "table"),
                          (f'{{"labels": {v}}}', None),
                          (f'{{"labels": {v}  }}', None),
                          (f'{{"labels": {v}}}   ', None),
                          (f'{{"labels": {v}', None)):
            path.write_text(text)
            want = load_outcome(reference_load, path)
            assert load_outcome(fileio.load_json, str(path)) == want
            if key is not None:  # the table reader took the file
                assert isinstance(fileio.load_json(str(path))[key],
                                  np.ndarray)


def cyclic_file(path, n: int) -> str:
    text = compact({"order": n}, "cayley",
                   ([(i + j) % n for j in range(n)] for i in range(n)))
    path.write_text(text)
    return text


def test_a_table_load_peaks_at_the_file_its_str_and_its_array(tmp_path):
    # the reader before row blocks peaked near 5 x the file's bytes + 8n^2
    n = 600
    path = tmp_path / "g.json"
    size = len(cyclic_file(path, n))
    tracemalloc.start()
    try:
        raw = fileio.load_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw["cayley"].shape == (n, n)
    assert raw["cayley"][7].tolist() == [(7 + j) % n for j in range(n)]
    assert peak < 2 * size + 8 * n * n + 2 * fileio.TABLE_BLOCK_BYTES


def test_an_oversized_table_is_declined_before_its_array_is_made(
        tmp_path, monkeypatch):
    from tbk import grp

    n = 300
    path = tmp_path / "g.json"
    text = cyclic_file(path, n)
    monkeypatch.setattr(grp, "_memory_budget", lambda: 12 * n * n - 1)
    monkeypatch.setattr(fileio, "TABLE_BLOCK_BYTES", 4096)
    # the guard comes after the skeleton and before the row gaps, so a
    # digit between rows does not change the outcome
    for text in (text, text.replace("],[", "]5,[", 1)):
        path.write_text(text)
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleError) as info:
                fileio.load_json(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"a {n} x {n} table would take {12 * n * n} bytes, more than "
            f"the {12 * n * n - 1} bytes of memory available")
        assert peak < 2 * len(text) + 8 * n * n // 4


def test_traps_json_accepts_stay_json_lists(tmp_path):
    # the table reader declines these, so decode_table judges json's lists
    # as before: booleans still pass as 0 and 1
    path = tmp_path / "t.json"
    for name in ("19 digits", "above 2^64", "booleans", "negative", "empty",
                 "empty rows", "not square"):
        path.write_text(f'{{"order": 2, "cayley": {TABLE_TRAPS[name]}}}')
        raw = fileio.load_json(str(path))
        assert raw["cayley"] == json.loads(TABLE_TRAPS[name])
        assert type(raw["cayley"]) is list
        if name == "booleans":
            assert fileio.decode_table(raw["cayley"], 2, "/cayley").tolist() \
                == [[0, 1], [1, 0]]


def test_non_ascii_and_bom_files_go_through_json(tmp_path):
    path = tmp_path / "g.json"
    raw = {"order": 2, "cayley": [[0, 1], [1, 0]], "labels": ["e", "é"]}
    path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    assert fileio.load_json(str(path)) == raw
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(raw).encode())
    want = load_outcome(reference_load, path)
    assert want[0] == "malformed" and "BOM" in want[2]
    assert load_outcome(fileio.load_json, str(path)) == want


def test_deep_nesting_loads_as_json_loads_it(tmp_path):
    path = tmp_path / "deep.json"
    for depth in (100, 5000):
        path.write_text('{"a": ' * depth + '{"table": [[0]]}' + "}" * depth)
        want = load_outcome(reference_load, path)
        assert load_outcome(fileio.load_json, str(path)) == want


def test_inline_group_in_a_cocycle_file_is_read_as_arrays(tmp_path):
    from tbk import cocycle as cx

    from tests.test_cocycle import klein, pairing_cocycle

    c = pairing_cocycle(klein())
    path = tmp_path / "c.json"
    path.write_text(fileio.dump_json(fileio.encode_cocycle(c)))
    raw = fileio.load_json(str(path))
    assert isinstance(raw["table"], np.ndarray)
    assert isinstance(raw["group"]["cayley"], np.ndarray)
    again = fileio.decode_cocycle(raw)
    assert isinstance(again, cx.Cocycle2)
    assert np.array_equal(again.table, c.table)
    assert np.array_equal(again.group.mul_table(), c.group.mul_table())


def test_array_table_defects_are_located_as_in_lists():
    arr = np.array([[0, 1, 2], [1, 2, 0], [2, 5, 1]], dtype=np.int64)
    for bounds in [(0, 3), (0, 2)]:
        want = outcome(reference_decode, arr.tolist(), 3, bounds[1])
        assert outcome(decode, arr, 3, bounds[1]) == want
