"""JSON file formats: groups, cocycles, models, cyclotomic literals.

All encoders emit plain JSON with deterministic field order; numbers that
might overflow a double are emitted as strings. A cyclotomic literal of
order n is an array of n "num/den" strings giving the coefficients of
1, z, ..., z^(n-1) before reduction; the decoder reduces to canonical form.

Cocycle and model files may reference sibling files ("group": "g.json",
"generators_file": "gens.json"); references resolve relative to the file
that contains them. Each referenced file is read through the decoder's
``load(path, pointer)``, with the JSON pointer of the reference, so a caller
can see every file parsed.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from . import _jobs
from . import grp as _grp
from . import rep as _rep
from .cocycle import Cocycle2
from .cyclo import CycloMatrix, CycloNumber, Subspace
from .errors import InfeasibleError, MalformedError
from .grp import FiniteGroup
from .rep import LinearActionModel, MatrixRep


def _fail(pointer: str, message: str):
    raise MalformedError(message, pointer=pointer)


def _expect(cond: bool, pointer: str, message: str):
    if not cond:
        _fail(pointer, message)


def _is_int(v: Any) -> bool:
    """A JSON integer: true and false are not."""
    return isinstance(v, int) and not isinstance(v, bool)


_INT64 = (-2 ** 63, 2 ** 63)
_INT_TYPES = frozenset((int, bool))


def decode_table(rows: list | np.ndarray, n: int, pointer: str,
                 bounds: tuple[int, int] = _INT64,
                 message: str = "entry must be a 64-bit integer"
                 ) -> np.ndarray:
    """Decode n rows of n JSON integers in [lo, hi) to an int64 array.

    ``rows`` is a list of rows, or the int64 array ``load_json`` read a table
    into. For a list, a C-level pass over each row checks that it is a list
    of n ints; one np.array call then converts the rows. The array is taken
    if it is inside the bounds. Only a table it does not take is scanned
    entry by entry, in row-major order, for the first defect. Booleans pass
    as 0 and 1.
    """
    lo, hi = bounds
    arr = None
    if isinstance(rows, np.ndarray):
        if rows.shape == (n, n):
            arr = rows
    elif all(type(row) is list and len(row) == n
             and _INT_TYPES.issuperset(map(type, row)) for row in rows):
        # types are checked before numpy sees the rows: left to choose the
        # dtype, np.array makes a table holding one string into a unicode
        # array n*n entries wide, each as long as that string
        try:
            arr = np.array(rows, dtype=np.int64)
        except OverflowError:  # an entry outside int64
            pass
    if arr is not None and (bounds == _INT64
                            or lo <= arr.min() and arr.max() < hi):
        return arr
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == n, f"{pointer}/{i}",
                f"row must have {n} entries")
        for j, v in enumerate(row):
            _expect(isinstance(v, int) and lo <= v < hi,
                    f"{pointer}/{i}/{j}", message)
    return np.array(rows, dtype=np.int64).reshape(n, n)


# --- cyclotomic literals ----------------------------------------------------


def encode_cyclo(x: CycloNumber) -> list[str]:
    out = ["0/1"] * x.order
    for i, c in enumerate(x.coeffs):
        out[i] = f"{c.numerator}/{c.denominator}"
    return out


def decode_fraction(raw: Any, pointer: str) -> Fraction:
    if _is_int(raw):
        return Fraction(raw)
    _expect(isinstance(raw, str), pointer, "expected a 'num/den' string")
    try:
        if "/" in raw:
            num, den = raw.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(raw))
    except (ValueError, ZeroDivisionError) as exc:
        _fail(pointer, f"bad rational literal {raw!r}: {exc}")


def decode_cyclo(raw: Any, pointer: str) -> CycloNumber:
    if _is_int(raw) or isinstance(raw, str):
        return CycloNumber.rational(decode_fraction(raw, pointer))
    _expect(isinstance(raw, list) and raw, pointer,
            "cyclotomic literal must be a non-empty array")
    coeffs = [decode_fraction(v, f"{pointer}/{i}") for i, v in enumerate(raw)]
    return CycloNumber.from_raw(len(coeffs), coeffs)


def encode_matrix(m: CycloMatrix) -> list[list[list[str]]]:
    return [[encode_cyclo(x) for x in row] for row in m.entries]


def decode_matrix(raw: Any, pointer: str) -> CycloMatrix:
    _expect(isinstance(raw, list) and raw, pointer, "matrix must be an array of rows")
    rows = []
    for i, row in enumerate(raw):
        _expect(isinstance(row, list) and row, f"{pointer}/{i}",
                "row must be a non-empty array")
        rows.append([decode_cyclo(x, f"{pointer}/{i}/{j}")
                     for j, x in enumerate(row)])
    return CycloMatrix(rows)


# --- groups -----------------------------------------------------------------


def encode_group(g: FiniteGroup) -> dict:
    return {
        "order": g.order,
        "cayley": [[int(x) for x in row] for row in g.mul_table()],
        "generators": list(g.generators),
        "labels": list(g.labels) if g.labels is not None else None,
    }


Loader = Callable[[str, str], Any]  # (path, JSON pointer of the reference)


def _load_referenced(path: str, pointer: str) -> Any:
    return load_json(path)


def decode_group(raw: Any, pointer: str = "", base_dir: str = ".",
                 load: Loader = _load_referenced,
                 reading: frozenset[str] = frozenset()) -> FiniteGroup:
    """A group object, or a file name that leads to one.

    ``reading`` holds the real paths of the group files this chain of
    references is already reading: a file that refers back to one of them
    is malformed, and not read again.
    """
    if isinstance(raw, str):
        path = os.path.join(base_dir, raw)
        real = os.path.realpath(path)
        _expect(real not in reading, pointer,
                f"group file {path} is reached again: its references "
                "form a cycle")
        return decode_group(load(path, pointer), pointer,
                            os.path.dirname(path) or ".", load,
                            reading | {real})
    _expect(isinstance(raw, dict), pointer, "group must be an object")
    if "cayley" in raw:
        table = raw["cayley"]
        _expect(isinstance(table, (list, np.ndarray)), f"{pointer}/cayley",
                "must be an array")
        gens = raw.get("generators")
        if gens is not None:
            _expect(isinstance(gens, list), f"{pointer}/generators",
                    "must be an array")
            for i, s in enumerate(gens):
                _expect(_is_int(s) and 0 <= s < len(table),
                        f"{pointer}/generators/{i}",
                        f"generator must be an integer in [0, {len(table)})")
        return _grp.build_from_cayley(
            decode_table(table, len(table), f"{pointer}/cayley"),
            labels=raw.get("labels"), generators=gens)
    if "generators" in raw:
        _g, rep = decode_generator_file(raw, pointer)
        return _g
    _fail(pointer, "group object needs 'cayley' or 'generators'")


def encode_generator_file(rep: MatrixRep, generator_indices) -> dict:
    return {
        "degree": rep.degree,
        "cyclotomic_order": rep.order,
        "generators": [encode_matrix(rep.matrices[i]) for i in generator_indices],
        "labels": [rep.group.label(i) for i in generator_indices],
    }


def decode_generator_file(raw: Any, pointer: str = ""
                          ) -> tuple[FiniteGroup, MatrixRep]:
    _expect(isinstance(raw, dict), pointer, "generator file must be an object")
    gens = raw.get("generators")
    _expect(isinstance(gens, list) and gens, f"{pointer}/generators",
            "need a non-empty generator array")
    mats = [decode_matrix(mraw, f"{pointer}/generators/{i}")
            for i, mraw in enumerate(gens)]
    degree = raw.get("degree")
    if degree is not None:
        for i, m in enumerate(mats):
            _expect(m.rows == degree, f"{pointer}/generators/{i}",
                    f"matrix is {m.rows}x{m.cols}, expected degree {degree}")
    order = raw.get("cyclotomic_order")
    return _rep.matrix_closure(mats, order=order)


# --- cocycles ---------------------------------------------------------------


def encode_cocycle(c: Cocycle2, inline_group: bool = True) -> dict:
    out = {
        "modulus": c.modulus,
        "table": [[int(x) for x in row] for row in c.table],
    }
    if inline_group:
        out["group"] = encode_group(c.group)
    return out


def decode_cocycle(raw: Any, pointer: str = "",
                   group: FiniteGroup | None = None,
                   base_dir: str = ".",
                   load: Loader = _load_referenced) -> Cocycle2:
    _expect(isinstance(raw, dict), pointer, "cocycle must be an object")
    _expect("modulus" in raw, f"{pointer}/modulus", "missing modulus")
    m = raw["modulus"]
    _expect(_is_int(m) and m >= 1, f"{pointer}/modulus",
            "modulus must be a positive integer")
    if group is None:
        _expect("group" in raw, f"{pointer}/group",
                "cocycle file needs an inline group or an external one")
        group = decode_group(raw["group"], f"{pointer}/group", base_dir,
                             load)
    table = raw.get("table")
    _expect(isinstance(table, (list, np.ndarray))
            and len(table) == group.order,
            f"{pointer}/table", f"table must have {group.order} rows")
    arr = decode_table(table, group.order, f"{pointer}/table", (0, m),
                       f"entry must be an integer in [0, {m})")
    return Cocycle2(group, m, arr)


# --- models -----------------------------------------------------------------


def decode_model(raw: Any, pointer: str = "", base_dir: str = ".",
                 load: Loader = _load_referenced
                 ) -> tuple[FiniteGroup, MatrixRep, LinearActionModel]:
    _expect(isinstance(raw, dict), pointer, "model must be an object")
    if "generators" in raw:
        group, rep = decode_generator_file(raw, pointer)
    elif "generators_file" in raw:
        at = f"{pointer}/generators_file"
        group, rep = decode_generator_file(
            load(os.path.join(base_dir, raw["generators_file"]), at), at)
    else:
        _fail(pointer, "model needs 'generators' or 'generators_file'")
    if "arrangement" in raw:
        # members are proper subspaces, each kept once, at its first listing;
        # == compares spaces written over different cyclotomic orders
        spaces: list[Subspace] = []
        for i, vecs in enumerate(raw["arrangement"]):
            at = f"{pointer}/arrangement/{i}"
            mat = decode_matrix(vecs, at)
            _expect(mat.cols == rep.degree, at,
                    "subspace basis has the wrong ambient dimension")
            z = Subspace.from_vectors(
                rep.degree, [list(r) for r in mat.entries], rep.order)
            _expect(z.dim < rep.degree, at,
                    "arrangement member must be a proper subspace")
            if z not in spaces:
                spaces.append(z)
        model = LinearActionModel(rep, tuple(spaces), raw.get("threshold"))
        _rep._assert_stable(rep, model.arrangement)
        return group, rep, model
    _expect("threshold" in raw, f"{pointer}/threshold",
            "model needs a threshold or an explicit arrangement")
    t = raw["threshold"]
    _expect(_is_int(t) and t >= 1, f"{pointer}/threshold",
            "threshold must be a positive integer")
    return group, rep, _rep.build_model(rep, t)


def encode_model(model: LinearActionModel, generator_indices) -> dict:
    out = encode_generator_file(model.rep, generator_indices)
    out["threshold"] = model.codim_threshold
    return out


# --- top-level helpers --------------------------------------------------------


_TABLE_KEYS = frozenset(("cayley", "table"))
_SCAN = json.JSONDecoder().scan_once  # the C scanner json.loads runs
_WS = re.compile(rb"[ \t\n\r]*").match  # json's whitespace
_BEFORE_ROWS = re.compile(rb"\[[ \t\n\r]*\[")
_BETWEEN_ROWS = re.compile(rb"[ \t\n\r]*,[ \t\n\r]*\[")
_AFTER_ROWS = re.compile(rb"[ \t\n\r]*\]")
_NOT_SKELETON = b"0123456789 \t\n\r"
# a table is read in blocks: its skeleton in slices of this many bytes of
# the file, its values in runs of whole rows whose buffers take about this
# many bytes, shared among the worker threads that read them
TABLE_BLOCK_BYTES = 1 << 20
# the int64 array read from the file plus build_from_cayley's int32 copy (a
# cocycle's copy is smaller); the file's bytes and the reader's block
# buffers, under two TABLE_BLOCK_BYTES in all, are not counted
_ENTRY_BYTES = 8 + 4


class _Irregular(Exception):
    """The text leaves the table reader's grammar: json.loads reads it."""


def _document(data: bytes) -> dict:
    """An ASCII JSON object, each table value read by ``_table``."""
    oversize: list[str] = []
    i = _WS(data, 0).end()
    if not data.startswith(b"{", i):
        raise _Irregular
    obj, i = _object(data, i, oversize)
    if _WS(data, i).end() != len(data):
        raise _Irregular
    if oversize:
        raise InfeasibleError(oversize[0])
    return obj


def _object(data: bytes, i: int, oversize: list[str]) -> tuple[dict, int]:
    """The object whose "{" is data[i], and the offset after it."""
    obj = {}
    i = _WS(data, i + 1).end()
    if data.startswith(b"}", i):
        return obj, i + 1
    while True:
        if not data.startswith(b'"', i):
            raise _Irregular
        key, i = _scan(data, i)
        i = _WS(data, i).end()
        if not data.startswith(b":", i):
            raise _Irregular
        i = _WS(data, i + 1).end()
        if data.startswith(b"{", i):
            obj[key], i = _object(data, i, oversize)
        elif key in _TABLE_KEYS and data.startswith(b"[", i):
            obj[key], i = _table(data, i, oversize)
        else:
            obj[key], i = _scan(data, i)
        i = _WS(data, i).end()
        if data.startswith(b"}", i):
            return obj, i + 1
        if not data.startswith(b",", i):
            raise _Irregular
        i = _WS(data, i + 1).end()


def _scan(data: bytes, i: int) -> tuple[Any, int]:
    """The JSON value at data[i], and the offset after it, by json's scanner.

    The scanner reads a str, so it is handed a window of the text from i,
    widened until the value ends at least three characters before the
    window does: a number's scan looks at most that far past its end (for
    "e+" and a digit), and anything else left open at the window's end
    fails to scan. So only the pieces of text outside the tables are ever
    decoded.
    """
    width = 256
    while True:
        piece = data[i:i + width].decode("ascii")
        whole = i + width >= len(data)
        try:
            value, k = _SCAN(piece, 0)
            if whole or k + 3 <= len(piece):
                return value, i + k
        except (ValueError, StopIteration):
            if whole:
                raise
        width *= 4


def _table(data: bytes, i: int, oversize: list[str]
           ) -> tuple[np.ndarray | None, int]:
    """The n x n table whose "[" is data[i], and the offset after it.

    Accepts exactly the JSON arrays of n arrays of n canonical integers in
    [0, 10**18), checked by C-level passes over the bytes, in this order:
    - the delimiters, with digits and whitespace deleted, are n rows of n
      entries, and nothing else is left (so no sign, dot or letter): see
      ``_skeleton``;
    - a table too large for memory is noted in ``oversize`` and skipped,
      before any array of its size is made;
    - only whitespace and one comma stand between rows, so no digit is
      left outside a row when the brackets are deleted. These row gaps are
      matched in place, and the row ends they yield bound the row blocks;
    - each row block holds one canonical integer per entry: see
      ``_entries``.
    The table is read straight from ``data`` in blocks of about
    ``TABLE_BLOCK_BYTES`` divided by the number of CPUs. Each block's
    values are parsed on a worker thread as soon as its row gaps are
    matched, while this thread matches the next ones (see
    ``_jobs.run_in_order``). The n x n int64 result is allocated once and
    filled block by block; no copy of the whole table's text, and no mask
    or buffer of its size, is made.
    """
    stop = len(data)
    for c in (b'"', b"}"):
        k = data.find(c, i, stop)
        if k >= 0:
            stop = k
    first = data.find(b"]", i, stop)
    if first < 0:
        raise _Irregular
    end = data.rfind(b"]", i, stop) + 1
    n = data.count(b",", i, first) + 1  # the first row's entries
    # between the outer brackets the skeleton is n * (n + 2) - 1 bytes: a
    # first row longer than the text allows is declined before its pattern
    # is built
    if n * (n + 2) - 1 > end - i - 2 or not _skeleton(data, i + 1, end - 1,
                                                       n):
        raise _Irregular
    need, budget = n * n * _ENTRY_BYTES, _grp._memory_budget()
    if need > budget:
        oversize.append(f"a {n} x {n} table would take {need} bytes, more "
                        f"than the {budget} bytes of memory available")
        return None, end
    out = np.empty((n, n), dtype=np.int64)
    # a row block ends past a third of a block of text or at half a block
    # of values, so that neither the text three times over nor the text
    # and its values pass a block by more than a row. The workers' blocks
    # divide one block among them, so that those in flight, one per worker
    # and the last on this thread, stay under two blocks
    workers = _jobs.cpus()
    max_text = TABLE_BLOCK_BYTES // (3 * workers)
    max_rows = max(1, TABLE_BLOCK_BYTES // (16 * n * workers))

    def blocks():
        pos, gap, lo = i, _BEFORE_ROWS, 0
        for r in range(n):
            m = gap.match(data, pos, end)
            if m is None:
                raise _Irregular
            if r == lo:
                start = m.end()
            pos, gap = data.index(b"]", m.end(), end) + 1, _BETWEEN_ROWS
            if r + 1 == n or r + 1 - lo == max_rows or pos - start > max_text:
                yield out[lo:r + 1], data, start, pos - 1
                lo = r + 1
        if not _AFTER_ROWS.fullmatch(data, pos, end):
            raise _Irregular

    _jobs.run_in_order(_fill, blocks())
    return out, end


def _fill(rows: np.ndarray, data: bytes, start: int, stop: int) -> None:
    """Write the values of the row block data[start:stop] into rows."""
    rows[...] = _entries(data, start, stop, rows.size).reshape(rows.shape)


def _skeleton(data: bytes, lo: int, hi: int, n: int) -> bool:
    """Whether data[lo:hi], with digits and whitespace deleted, is n rows of
    "[", n - 1 commas and "]", each followed by a comma but the last.

    The text is taken in slices of ``TABLE_BLOCK_BYTES``, each compared with
    the same stretch of the rows' repeating pattern, so no buffer of the
    whole skeleton is made.
    """
    row = b"[" + b"," * (n - 1) + b"],"
    done = 0
    for a in range(lo, hi, TABLE_BLOCK_BYTES):
        piece = data[a:min(a + TABLE_BLOCK_BYTES, hi)].translate(
            None, _NOT_SKELETON)
        k = done % len(row)
        if piece != (row * ((k + len(piece)) // len(row) + 1))[
                k:k + len(piece)]:
            return False
        done += len(piece)
    return done == n * len(row) - 1


def _entries(data: bytes, start: int, stop: int, count: int) -> np.ndarray:
    """The values of the row block data[start:stop], from after its first
    "[" to before its last "]", whose skeleton and row gaps ``_table`` has
    checked.

    With the brackets deleted, the block is count comma-separated fields of
    digits and whitespace. Each field is one canonical integer below 10**18
    iff the digits form count runs, np.fromstring (which rejects a field
    holding two runs) reads count values, and the digits number exactly
    the values' canonical decimal lengths (so no field is blank, which
    np.fromstring reads as 0, and none has a leading zero).
    """
    fields = data[start:stop].replace(b"[", b"").replace(b"]", b"")
    # fields hold digits, commas and whitespace: only digits are >= "0"
    digit = np.frombuffer(fields, dtype=np.uint8) >= 48
    digits = np.count_nonzero(digit)
    # a run starts at fields[0] if it is a digit, and at each digit after a
    # non-digit
    runs = np.count_nonzero(digit[1:] > digit[:-1]) + fields[:1].isdigit()
    del digit
    if runs != count:
        raise _Irregular
    values = np.fromstring(fields, dtype=np.int64, sep=",")
    if values.size != count:
        raise _Irregular
    top = int(values.max())
    if top >= 10 ** 18 or digits != count + sum(
            int(np.count_nonzero(values >= 10 ** k))
            for k in range(1, len(str(top)))):
        raise _Irregular
    return values


def load_json(path: str, digest=None) -> Any:
    """Parse a UTF-8 JSON file, read once; ``digest.update`` sees its bytes.

    In an ASCII file, the value of each "cayley" or "table" key that is an
    n x n table of non-negative integers is read straight from the bytes,
    in row blocks, into one int64 array (see ``_table``); the rest goes
    through json's C scanner, which is handed only the text outside the
    tables. Such a load holds the file's bytes and the 8 * n * n bytes of
    each array, plus buffers of under two ``TABLE_BLOCK_BYTES``. A file of
    a block or more is hashed on a worker thread while its tables are read,
    and the hash is done before this returns or raises. Any other file, and
    any file the table reader does not take whole, goes through
    ``json.loads``, so the accepted language, the values (up to list or
    array) and the error messages are json's own.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        _fail("", f"no such file: {path}")
    jobs = [(_document, data)] if data.isascii() else []
    if digest is not None:
        if jobs and len(data) >= TABLE_BLOCK_BYTES:
            jobs.insert(0, (digest.update, data))  # on a worker, meanwhile
        else:  # nothing to read meanwhile, or shorter than a hand-off
            digest.update(data)
    if jobs:
        try:
            return _jobs.run_in_order(_call, jobs)[-1]
        except (_Irregular, ValueError, StopIteration, RecursionError):
            pass
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail("", f"{path} is not UTF-8: {exc}")
    del data  # not held through json.loads, where the process peaks
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("", f"invalid JSON in {path}: {exc}")


def _call(fn: Callable, *args) -> Any:
    return fn(*args)


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
