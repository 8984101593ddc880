"""JSON file formats: groups, cocycles, models, cyclotomic literals.

All encoders emit plain JSON with deterministic field order; numbers that
might overflow a double are emitted as strings. A cyclotomic literal of
order n is an array of n "num/den" strings giving the coefficients of
1, z, ..., z^(n-1) before reduction; the decoder reduces to canonical form.

Cocycle and model files may reference sibling files ("group": "g.json",
"generators_file": "gens.json"); references resolve relative to the file
that contains them.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Any

import numpy as np

from . import grp as _grp
from . import rep as _rep
from .cocycle import Cocycle2
from .cyclo import CycloMatrix, CycloNumber, Subspace
from .errors import MalformedError
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


def decode_table(rows: list, n: int, pointer: str,
                 bounds: tuple[int, int] = _INT64,
                 message: str = "entry must be a 64-bit integer"
                 ) -> np.ndarray:
    """Decode n rows of n JSON integers in [lo, hi) to an int64 array.

    A C-level pass over each row checks that it is a list of n ints; one
    np.array call then converts the rows, and the result is taken if it is
    inside the bounds. Only a table it does not take is scanned entry by
    entry, in row-major order, for the first defect. Booleans pass as 0
    and 1.
    """
    lo, hi = bounds
    arr = None
    # types are checked before numpy sees the rows: left to choose the
    # dtype, np.array makes a table holding one string into a unicode
    # array n*n entries wide, each as long as that string
    if all(type(row) is list and len(row) == n
           and _INT_TYPES.issuperset(map(type, row)) for row in rows):
        try:
            arr = np.array(rows, dtype=np.int64)
        except OverflowError:  # an entry outside int64
            pass
    if arr is not None and (bounds == _INT64
                            or lo <= arr.min() and arr.max() < hi):
        return arr
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


def decode_group(raw: Any, pointer: str = "",
                 base_dir: str = ".") -> FiniteGroup:
    if isinstance(raw, str):
        path = os.path.join(base_dir, raw)
        return decode_group(load_json(path), pointer,
                            base_dir=os.path.dirname(path) or ".")
    _expect(isinstance(raw, dict), pointer, "group must be an object")
    if "cayley" in raw:
        table = raw["cayley"]
        _expect(isinstance(table, list), f"{pointer}/cayley", "must be an array")
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
                   base_dir: str = ".") -> Cocycle2:
    _expect(isinstance(raw, dict), pointer, "cocycle must be an object")
    _expect("modulus" in raw, f"{pointer}/modulus", "missing modulus")
    m = raw["modulus"]
    _expect(_is_int(m) and m >= 1, f"{pointer}/modulus",
            "modulus must be a positive integer")
    if group is None:
        _expect("group" in raw, f"{pointer}/group",
                "cocycle file needs an inline group or an external one")
        group = decode_group(raw["group"], f"{pointer}/group", base_dir)
    table = raw.get("table")
    _expect(isinstance(table, list) and len(table) == group.order,
            f"{pointer}/table", f"table must have {group.order} rows")
    arr = decode_table(table, group.order, f"{pointer}/table", (0, m),
                       f"entry must be an integer in [0, {m})")
    return Cocycle2(group, m, arr)


# --- models -----------------------------------------------------------------


def decode_model(raw: Any, pointer: str = "", base_dir: str = "."
                 ) -> tuple[FiniteGroup, MatrixRep, LinearActionModel]:
    _expect(isinstance(raw, dict), pointer, "model must be an object")
    if "generators" in raw:
        group, rep = decode_generator_file(raw, pointer)
    elif "generators_file" in raw:
        path = os.path.join(base_dir, raw["generators_file"])
        group, rep = decode_generator_file(load_json(path),
                                           f"{pointer}/generators_file")
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


def load_json(path: str, digest=None) -> Any:
    """Parse a UTF-8 JSON file, read once; ``digest.update`` sees its bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        _fail("", f"no such file: {path}")
    if digest is not None:
        digest.update(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail("", f"{path} is not UTF-8: {exc}")
    del data  # not held through the parse, where the process peaks
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("", f"invalid JSON in {path}: {exc}")


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
