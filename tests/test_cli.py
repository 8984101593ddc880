from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tbk import cli, cocycle as cx, fileio, grp
from tbk.cyclo import CycloMatrix
from tbk.errors import MalformedError

from tests.test_cocycle import klein, pairing_cocycle


@pytest.fixture()
def workdir(tmp_path):
    k = klein()
    (tmp_path / "klein.json").write_text(
        fileio.dump_json(fileio.encode_group(k)))
    c = pairing_cocycle(k)
    (tmp_path / "pairing.json").write_text(
        fileio.dump_json(fileio.encode_cocycle(c)))
    model = {
        "degree": 2, "cyclotomic_order": 1, "threshold": 3,
        "generators": [
            fileio.encode_matrix(CycloMatrix.diagonal([-1, 1])),
            fileio.encode_matrix(CycloMatrix.diagonal([1, -1])),
        ],
    }
    (tmp_path / "model.json").write_text(fileio.dump_json(model))
    return tmp_path


def _run(args, capsys) -> tuple[int, dict, str]:
    code = cli.main(args)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else {}
    return code, payload, captured.err


def test_round_trip_group(tmp_path):
    k = klein()
    raw = fileio.encode_group(k)
    again = fileio.decode_group(json.loads(fileio.dump_json(raw)))
    assert np.array_equal(again.mul_table(), k.mul_table())


def test_from_bilinear_refuses_a_modulus_it_cannot_reduce_exactly(
        tmp_path, capsys):
    g = grp.direct_product(grp.cyclic(4), grp.cyclic(6))
    (tmp_path / "g.json").write_text(fileio.dump_json(fileio.encode_group(g)))
    big = 2 ** 60 + 1
    code, payload, err = _run(
        ["cocycle", "from-bilinear", "--group", str(tmp_path / "g.json"),
         "--modulus", str(2 * big), "--matrix", json.dumps([[big, big]] * 2)],
        capsys)
    assert code == 4 and payload == {}
    assert "at least 2^31" in err


def test_round_trip_cocycle():
    c = pairing_cocycle(klein())
    raw = json.loads(fileio.dump_json(fileio.encode_cocycle(c)))
    again = fileio.decode_cocycle(raw)
    assert np.array_equal(again.table, c.table)
    assert again.modulus == c.modulus


def test_round_trip_cyclo_literals():
    from fractions import Fraction

    from tbk.cyclo import CycloNumber

    x = CycloNumber.from_raw(4, [Fraction(1, 2), Fraction(-3), 0, Fraction(7, 5)])
    enc = fileio.encode_cyclo(x)
    assert fileio.decode_cyclo(enc, "") == x
    # clock-and-shift generator file decodes to exact matrices
    from tbk import example as ex

    pm, qm, n = ex.clock_and_shift(3)
    raw = fileio.encode_matrix(qm)
    assert fileio.decode_matrix(raw, "") == qm


def test_malformed_cocycle_rejected():
    k = klein()
    raw = fileio.encode_cocycle(cx.Cocycle2.zero(k, 2))
    raw["table"][1][1] = 5  # out of range for modulus 2
    with pytest.raises(fileio.MalformedError):
        fileio.decode_cocycle(raw)


def test_cli_b0(workdir, capsys):
    code, payload, err = _run(
        ["b0", "test", "--cocycle", str(workdir / "pairing.json")], capsys)
    assert code == 0
    assert payload["results"]["member"] is False
    assert payload["results"]["witness_pair"] is not None


def test_cli_bg_methods_agree(workdir, capsys):
    code, payload, _ = _run(
        ["bg", "test", "--cocycle", str(workdir / "pairing.json"),
         "--model", str(workdir / "model.json"), "--method", "both"], capsys)
    assert code == 0
    assert payload["results"]["agreement"] is True
    assert payload["results"]["member"] is False


def test_cli_h2(workdir, capsys):
    code, payload, _ = _run(
        ["h2", "--in", str(workdir / "klein.json")], capsys)
    assert code == 0
    assert payload["results"]["invariant_factors"] == [2]


def test_cli_coboundary_and_check(workdir, capsys):
    code, payload, _ = _run(
        ["cocycle", "check", "--cocycle", str(workdir / "pairing.json")], capsys)
    assert code == 0 and payload["results"]["is_cocycle"] is True
    code, payload, _ = _run(
        ["cocycle", "coboundary", "--cocycle", str(workdir / "pairing.json")],
        capsys)
    assert code == 0 and payload["results"]["is_coboundary"] is False


def _coboundary_file(path, modulus: int) -> None:
    """d(lambda) on Z4 x Z6 over Z_modulus, lambda seeded."""
    g = grp.direct_product(grp.cyclic(4), grp.cyclic(6))
    lam = np.random.default_rng(3).integers(0, modulus, size=g.order)
    lam[0] = 0
    c = cx.coboundary_of(cx.Cochain1(g, modulus, lam))
    path.write_text(fileio.dump_json(fileio.encode_cocycle(c)))


def test_cli_coboundary_refuses_a_modulus_past_the_int64_bound(
        tmp_path, capsys):
    # 2^40 + 15 used to overflow the elimination and fail the witness check
    # with a traceback; the torus lift M = m * exp G = 12 (2^31 - 1) too
    big = 2**40 + 15
    _coboundary_file(tmp_path / "big.json", big)
    code, _, err = _run(["cocycle", "coboundary", "--cocycle",
                         str(tmp_path / "big.json"), "--sense", "mod-m"], capsys)
    assert code == 4 and str(big) in err
    edge = 2**31 - 1
    _coboundary_file(tmp_path / "edge.json", edge)
    code, _, err = _run(["cocycle", "coboundary", "--cocycle",
                         str(tmp_path / "edge.json")], capsys)
    assert code == 4 and str(12 * edge) in err
    # just below the bound the decision stands, with a checked witness
    code, payload, _ = _run(["cocycle", "coboundary", "--cocycle",
                             str(tmp_path / "edge.json"), "--sense", "mod-m"],
                            capsys)
    assert code == 0 and payload["results"]["is_coboundary"] is True


def test_cli_twisted_assoc(workdir, capsys):
    code, payload, _ = _run(
        ["twisted", "assoc-check", "--cocycle", str(workdir / "pairing.json")],
        capsys)
    assert code == 0 and payload["results"]["associative"] is True
    # associativity is the cocycle identity: a corrupted cell is reported
    # with the cocycle check's first failing triple
    c = pairing_cocycle(klein())
    tab = c.table.astype(np.int64)
    tab[1, 2] ^= 1
    broken = cx.Cocycle2(c.group, 2, tab)
    (workdir / "broken.json").write_text(
        fileio.dump_json(fileio.encode_cocycle(broken)))
    code, payload, err = _run(
        ["twisted", "assoc-check", "--cocycle", str(workdir / "broken.json")],
        capsys)
    _, witness = cx.is_cocycle(broken)
    assert code == 0 and payload["results"] == {
        "associative": False, "witness_triple": list(witness)}
    assert err == f"fails at {witness}\n"


def test_cli_orbifold(workdir, capsys):
    code, payload, _ = _run(
        ["orbifold", "dims", "--cocycle", str(workdir / "pairing.json"),
         "--model", str(workdir / "model.json")], capsys)
    assert code == 0
    assert payload["results"]["twisted_total"] == 1
    assert payload["results"]["untwisted_total"] == 4


def test_cli_parse_error_exit_code(workdir, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(["b0", "test", "--cocycle", str(bad)], capsys)
    assert code == 2
    assert "error" in err


def test_cli_determinism(workdir, capsys):
    outs = []
    for _ in range(2):
        code, payload, _ = _run(
            ["span", "analyze", "--cocycles", str(workdir / "pairing.json")],
            capsys)
        assert code == 0
        payload.pop("timings")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_out_file(workdir, capsys, tmp_path):
    target = tmp_path / "report.json"
    code = cli.main(["group", "info", "--in", str(workdir / "klein.json"),
                     "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["results"]["order"] == 4


def test_cli_group_closure_and_restrict(workdir, capsys, tmp_path):
    from tbk import example as ex

    pm, qm, n = ex.clock_and_shift(2, "literal")
    gens = {
        "degree": 2, "cyclotomic_order": 4,
        "generators": [fileio.encode_matrix(pm), fileio.encode_matrix(qm)],
    }
    path = tmp_path / "gens.json"
    path.write_text(fileio.dump_json(gens))
    code, payload, _ = _run(
        ["group", "closure", "--in", str(path), "--emit-group"], capsys)
    assert code == 0
    assert payload["results"]["order"] == 8

    group_payload = payload["results"]["group"]
    gpath = tmp_path / "q8.json"
    gpath.write_text(fileio.dump_json(group_payload))
    code, payload, _ = _run(["group", "info", "--in", str(gpath)], capsys)
    assert code == 0
    assert payload["results"]["center_order"] == 2


def test_model_with_file_reference_and_explicit_arrangement(tmp_path, capsys):
    gens = {
        "degree": 2, "cyclotomic_order": 1,
        "generators": [
            fileio.encode_matrix(CycloMatrix.diagonal([-1, 1])),
            fileio.encode_matrix(CycloMatrix.diagonal([1, -1])),
        ],
    }
    (tmp_path / "gens.json").write_text(fileio.dump_json(gens))
    model = {"generators_file": "gens.json", "threshold": 1}
    (tmp_path / "model.json").write_text(fileio.dump_json(model))
    group, rep, decoded = fileio.decode_model(
        json.loads((tmp_path / "model.json").read_text()),
        base_dir=str(tmp_path))
    assert group.order == 4
    # two fixed coordinate lines plus the zero space of the rotation
    assert len(decoded.arrangement) == 3
    assert {s.dim for s in decoded.arrangement} == {0, 1}

    # explicit arrangement: just the two coordinate lines
    explicit = {
        "generators_file": "gens.json",
        "arrangement": [
            [[["1/1"], ["0/1"]]],
            [[["0/1"], ["1/1"]]],
        ],
    }
    (tmp_path / "explicit.json").write_text(fileio.dump_json(explicit))
    group2, _rep2, decoded2 = fileio.decode_model(
        json.loads((tmp_path / "explicit.json").read_text()),
        base_dir=str(tmp_path))
    assert len(decoded2.arrangement) == 2
    keys = {s.key() for s in decoded.arrangement}
    assert all(s.key() in keys for s in decoded2.arrangement)


def test_cocycle_with_group_reference(tmp_path):
    k = klein()
    (tmp_path / "klein.json").write_text(
        fileio.dump_json(fileio.encode_group(k)))
    c = pairing_cocycle(k)
    raw = fileio.encode_cocycle(c, inline_group=False)
    raw["group"] = "klein.json"
    (tmp_path / "cref.json").write_text(fileio.dump_json(raw))
    again = fileio.decode_cocycle(
        json.loads((tmp_path / "cref.json").read_text()),
        base_dir=str(tmp_path))
    assert np.array_equal(again.table, c.table)


def test_cli_resource_guard_exit_code(capsys):
    code = cli.main(["example", "bogomolov", "--p", "5"])
    captured = capsys.readouterr()
    assert code == 4
    assert "error" in captured.err


def test_cli_memory_error_is_resource_guard(workdir, capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_b0_test", exhaust)
    code, payload, err = _run(
        ["b0", "test", "--cocycle", str(workdir / "pairing.json")], capsys)
    assert code == 4 and payload == {}
    assert err.startswith("error: out of memory")


def test_cli_example_p2(capsys):
    code, payload, _ = _run(["example", "bogomolov", "--p", "2"], capsys)
    assert code == 0
    results = payload["results"]
    assert results["order"] == 128
    assert results["min_nonidentity_codim"] == 2
    assert results["span_b0_invariant_factors"] == [2]
    assert results["codim_survey"]["2"] == 3
    assert any("involution" in note for note in results["notes"])


def test_cli_example_emit_files_roundtrip(tmp_path, capsys):
    outdir = tmp_path / "bundle"
    code, payload, _ = _run(
        ["example", "bogomolov", "--p", "2", "--emit-files", str(outdir)],
        capsys)
    assert code == 0
    files = payload["results"]["files"]
    assert "group.json" in files and "model.json" in files
    assert "cocycle-e12.json" in files
    # the emitted files drive the membership commands end to end
    code, payload, _ = _run(
        ["bg", "test", "--cocycle", str(outdir / "cocycle-e12.json"),
         "--model", str(outdir / "model.json")], capsys)
    assert code == 0 and payload["results"]["member"] is True
    code, payload, _ = _run(
        ["bg", "test", "--cocycle", str(outdir / "cocycle-e13.json"),
         "--model", str(outdir / "model.json")], capsys)
    assert code == 0 and payload["results"]["member"] is False
    assert payload["results"]["witness_labels"] is not None


def _z2_model_run(tmp_path, capsys, generator, arrangement):
    """`bg test` of the zero cocycle on Z_2 against an explicit arrangement."""
    model = {"degree": 2, "cyclotomic_order": 1,
             "generators": [fileio.encode_matrix(CycloMatrix(generator))],
             "arrangement": arrangement}
    (tmp_path / "model.json").write_text(fileio.dump_json(model))
    zero = cx.Cocycle2(grp.cyclic(2), 2, np.zeros((2, 2), dtype=np.int64))
    (tmp_path / "zero.json").write_text(
        fileio.dump_json(fileio.encode_cocycle(zero)))
    return _run(["bg", "test", "--cocycle", str(tmp_path / "zero.json"),
                 "--model", str(tmp_path / "model.json")], capsys)


def test_unstable_arrangement_with_colliding_keys_is_rejected(tmp_path, capsys):
    # diag(1, -1) maps span(1, zeta_3) to span(1, -zeta_3) and span(1, -i)
    # to span(1, i). Each image has the other member's Subspace.key, which
    # leaves out the cyclotomic order, but neither image is a member.
    zeta3 = ["0/1", "1/1", "0/1"]
    minus_i = ["0/1", "-1/1", "0/1", "0/1"]
    code, payload, err = _z2_model_run(
        tmp_path, capsys, [[1, 0], [0, -1]],
        [[["1/1", zeta3]], [["1/1", minus_i]]])
    assert code == 3 and payload == {}
    assert "not stable" in err


def test_stable_arrangement_across_orders_is_accepted(tmp_path, capsys):
    # the swap maps the x-axis, written over Q(zeta_3), onto the y-axis,
    # written over Q: the image equals a member stored over another order
    code, payload, _ = _z2_model_run(
        tmp_path, capsys, [[0, 1], [1, 0]],
        [[[["1/1", "0/1", "0/1"], "0/1"]], [["0/1", "1/1"]]])
    assert code == 0
    assert payload["results"]["arrangement_size"] == 2
    assert payload["results"]["member"] is True


def test_duplicate_arrangement_members_are_kept_once(tmp_path, capsys):
    # the x-axis twice, once over Q(zeta_3), next to the y-axis
    x_axis, y_axis = [["1/1", "0/1"]], [["0/1", "1/1"]]
    x_axis_z3 = [[["1/1", "0/1", "0/1"], "0/1"]]
    code, payload, _ = _z2_model_run(
        tmp_path, capsys, [[0, 1], [1, 0]], [x_axis, x_axis, y_axis, x_axis_z3])
    assert code == 0
    assert payload["results"]["arrangement_size"] == 2
    raw = json.loads((tmp_path / "model.json").read_text())
    _group, _rep, model = fileio.decode_model(raw)
    assert [z.key() for z in model.arrangement] == [
        (2, 1, (((1, 1),), ((0, 1),))), (2, 1, (((0, 1),), ((1, 1),)))]


def test_arrangement_member_equal_to_the_whole_space_is_malformed(
        tmp_path, capsys):
    code, payload, err = _z2_model_run(
        tmp_path, capsys, [[0, 1], [1, 0]],
        [[["1/1", "1/1"]], [["1/1", "0/1"], ["0/1", "1/1"]]])
    assert code == 2 and payload == {}
    assert "proper subspace" in err and err.rstrip().endswith("/arrangement/1")


def test_cli_closure_over_the_memory_budget_is_resource_guard(
        tmp_path, capsys, monkeypatch):
    from tbk import example as ex

    pm, qm, _n = ex.clock_and_shift(2, "literal")
    gens = {"degree": 2, "cyclotomic_order": 4,
            "generators": [fileio.encode_matrix(pm), fileio.encode_matrix(qm)]}
    path = tmp_path / "gens.json"
    path.write_text(fileio.dump_json(gens))
    # the order-8 table takes 8 * 8 * 4 = 256 bytes
    monkeypatch.setattr(grp, "_memory_budget", lambda: 255)
    code, payload, err = _run(["group", "closure", "--in", str(path)], capsys)
    assert code == 4 and payload == {}
    assert err.startswith("error: closure reached 8 elements")


@pytest.mark.parametrize("argv", [["b0", "test", "--cocycle"],
                                  ["group", "info", "--in"]])
def test_cli_missing_input_file_is_parse_error(tmp_path, capsys, argv):
    missing = tmp_path / "missing.json"
    code, payload, err = _run(argv + [str(missing)], capsys)
    assert code == 2 and payload == {}
    assert err == f"error: no such file: {missing}\n"


def test_cli_input_that_is_not_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"modulus": 2, "note": "caf\xe9"}')
    code, payload, err = _run(["cocycle", "check", "--cocycle", str(path)],
                              capsys)
    assert code == 2 and payload == {}
    assert err.startswith(f"error: {path} is not UTF-8")


@pytest.mark.parametrize("cayley, code, message", [
    ([[0, "1"], ["1", 0]], 2, "entry must be a 64-bit integer at /cayley/0/1"),
    ([[0, 1], [1, 0.4]], 2, "entry must be a 64-bit integer at /cayley/1/1"),
    ([[0, None], [1, 0]], 2, "entry must be a 64-bit integer at /cayley/0/1"),
    ([[0, 1], [1]], 2, "row must have 2 entries at /cayley/1"),
    ([[0, 1], 1], 2, "row must have 2 entries at /cayley/1"),
    ([[0, 1], [1, 2]], 3, "table entry out of range"),
])
def test_cli_cayley_entries_are_decoded_exactly(tmp_path, capsys, cayley,
                                                code, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"order": 2, "cayley": cayley}))
    got, payload, err = _run(["group", "info", "--in", str(path)], capsys)
    assert (got, payload, err) == (code, {}, f"error: {message}\n")


def test_cli_boolean_modulus_is_malformed(workdir, capsys):
    raw = json.loads((workdir / "pairing.json").read_text())
    raw["modulus"] = True
    (workdir / "bool.json").write_text(json.dumps(raw))
    code, payload, err = _run(
        ["cocycle", "check", "--cocycle", str(workdir / "bool.json")], capsys)
    assert code == 2 and payload == {}
    assert err == "error: modulus must be a positive integer at /modulus\n"


def test_cli_boolean_threshold_is_malformed(workdir, capsys):
    raw = json.loads((workdir / "model.json").read_text())
    raw["threshold"] = True
    (workdir / "model.json").write_text(json.dumps(raw))
    code, payload, err = _run(
        ["bg", "test", "--cocycle", str(workdir / "pairing.json"),
         "--model", str(workdir / "model.json")], capsys)
    assert code == 2 and payload == {}
    assert err == "error: threshold must be a positive integer at /threshold\n"


@pytest.mark.parametrize("generators, message", [
    ([5], "generator must be an integer in [0, 2) at /generators/0"),
    ([1, -1], "generator must be an integer in [0, 2) at /generators/1"),
    (["1"], "generator must be an integer in [0, 2) at /generators/0"),
    ([True], "generator must be an integer in [0, 2) at /generators/0"),
    ([1.5], "generator must be an integer in [0, 2) at /generators/0"),
    (1, "must be an array at /generators"),
], ids=["out-of-range", "negative", "string", "boolean", "float", "not-array"])
def test_cli_group_generators_are_checked(tmp_path, capsys, generators,
                                          message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"order": 2, "cayley": [[0, 1], [1, 0]],
                                "generators": generators}))
    got, payload, err = _run(["group", "info", "--in", str(path)], capsys)
    assert (got, payload, err) == (2, {}, f"error: {message}\n")


def _q8_generator_file(tmp_path, **extra):
    from tbk import example as ex

    pm, qm, _n = ex.clock_and_shift(2, "literal")
    gens = {"degree": 2, "cyclotomic_order": 4,
            "generators": [fileio.encode_matrix(pm), fileio.encode_matrix(qm)],
            **extra}
    path = tmp_path / "gens.json"
    path.write_text(fileio.dump_json(gens))
    return path


def test_cli_boolean_in_a_cyclotomic_literal_is_malformed(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"degree": 2, "cyclotomic_order": 1,
                                "generators": [[[True, False],
                                                [False, True]]]}))
    code, payload, err = _run(["group", "closure", "--in", str(path)], capsys)
    assert code == 2 and payload == {}
    assert err == ("error: cyclotomic literal must be a non-empty array "
                   "at /generators/0/0/0\n")
    with pytest.raises(fileio.MalformedError):
        fileio.decode_fraction(True, "")


def test_cli_closure_stops_at_the_order_cap(tmp_path, capsys, monkeypatch):
    path = _q8_generator_file(tmp_path)
    monkeypatch.setenv("TBK_MAX_ORDER", "7")
    code, payload, err = _run(["group", "closure", "--in", str(path)], capsys)
    assert code == 4 and payload == {}
    assert err == "error: closure exceeded bound 7\n"
    monkeypatch.setenv("TBK_MAX_ORDER", "8")
    code, payload, _ = _run(["group", "closure", "--in", str(path)], capsys)
    assert code == 0 and payload["results"]["order"] == 8


@pytest.mark.parametrize("bound", ["x", 2])
def test_cli_generator_file_bound_field_is_ignored(tmp_path, capsys, bound):
    path = _q8_generator_file(tmp_path, bound=bound)
    code, payload, _ = _run(["group", "closure", "--in", str(path)], capsys)
    assert code == 0 and payload["results"]["order"] == 8


def test_cli_cap_covers_generator_files_behind_group_files(tmp_path, capsys,
                                                           monkeypatch):
    gens = _q8_generator_file(tmp_path)
    cocycle = tmp_path / "cocycle.json"
    cocycle.write_text(json.dumps({"modulus": 2, "group": gens.name,
                                   "table": [[0] * 8 for _ in range(8)]}))
    monkeypatch.setenv("TBK_MAX_ORDER", "4")
    for argv in (["group", "info", "--in", str(gens)],
                 ["cocycle", "check", "--cocycle", str(cocycle)]):
        code, payload, err = _run(argv, capsys)
        assert (code, payload, err) == (
            4, {}, "error: closure exceeded bound 4\n")
    monkeypatch.delenv("TBK_MAX_ORDER")
    code, payload, _ = _run(["cocycle", "check", "--cocycle", str(cocycle)],
                            capsys)
    assert code == 0 and payload["results"]["is_cocycle"] is True


def test_cli_example_is_capped_and_needs_a_prime(capsys, monkeypatch):
    monkeypatch.setenv("TBK_MAX_ORDER", "100")
    code, payload, err = _run(["example", "bogomolov", "--p", "2"], capsys)
    assert code == 4 and payload == {} and err.startswith("error: closure")
    monkeypatch.delenv("TBK_MAX_ORDER")
    code, payload, err = _run(["example", "bogomolov", "--p", "1"], capsys)
    assert (code, payload, err) == (2, {}, "error: p = 1 is not a prime\n")


def _command_parsers(parser, path=("tbk",)):
    """(command path, parser) for every leaf command of the CLI."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _command_parsers(child, (*path, name))


def _readme_synopsis() -> list[str]:
    """The README's command-line synopsis, one entry per command line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in readme.split("```sh\n")[1:]
                 if b.startswith("tbk group closure")).split("```")[0]
    entries: list[str] = []
    for line in block.splitlines():
        line = line.split("#")[0].rstrip()
        if line.startswith("tbk "):
            entries.append(line)
        elif line.strip():
            entries[-1] += " " + line.strip()
    return entries


def test_readme_synopsis_matches_the_parser():
    entries = _readme_synopsis()
    commands = dict(_command_parsers(cli.build_parser()))
    for path, parser in commands.items():
        shown = [e for e in entries if e == path or e.startswith(path + " ")]
        assert shown, f"README does not show {path!r}"
        options = {s for a in parser._actions for s in a.option_strings}
        for entry in shown:
            for flag in re.findall(r"--[a-z][a-z0-9-]*", entry):
                assert flag in options, f"{path} has no {flag}"
    assert all(any(e.startswith(path) for path in commands) for e in entries)


# A valid argv after the path for every command; the files are not opened.
_VALID = {
    "group closure": ["--in", "gens.json", "--emit-group"],
    "group info": ["--in", "g.json", "--out", "r.json"],
    "h2": ["--in", "g.json", "--cap", "16", "--emit-cocycles"],
    "cocycle check": ["--cocycle", "c.json"],
    "cocycle coboundary": ["--cocycle", "c.json", "--sense", "mod-m"],
    "cocycle restrict": ["--cocycle", "c.json", "--elements", "1,5"],
    "cocycle inflate": ["--cocycle", "c.json", "--group", "big.json",
                        "--central", "3,7", "--emit-group"],
    "cocycle from-extension": ["--group", "g.json", "--central", "3",
                               "--modulus", "2", "--psi", "0:0,3:1"],
    "cocycle from-bilinear": ["--group", "a.json", "--modulus", "2",
                              "--matrix", "[[0,1],[0,0]]"],
    "b0 test": ["--cocycle", "c.json"],
    "bg test": ["--cocycle", "c.json", "--model", "m.json",
                "--method", "bicyclic"],
    "span analyze": ["--cocycles", "c1.json", "c2.json", "--model", "m.json"],
    "orbifold dims": ["--cocycle", "c.json", "--model", "m.json"],
    "orbifold verify-cor53": ["--cocycle", "c.json", "--model", "m.json"],
    "twisted assoc-check": ["--cocycle", "c.json"],
    "example bogomolov": ["--p", "2", "--convention", "literal",
                          "--emit-files", "out"],
}


def _without_first_required(path: str, rest: list[str]) -> list[str]:
    """rest without the command's first required option and its values."""
    flag = next(flags[0] for flags, kw in cli.COMMANDS[path][1]
                if kw.get("required"))
    i = rest.index(flag)
    j = i + 1
    while j < len(rest) and not rest[j].startswith("--"):
        j += 1
    return rest[:i] + rest[j:]


def _argvs(path: str) -> list[list[str]]:
    """A valid argv and the error argvs for one command."""
    rest = _VALID[path]
    out = [rest, _without_first_required(path, rest), rest + ["-h"],
           ["-h"], []]
    for flag in ("--sense", "--method", "--convention"):
        if flag in rest:
            out.append(rest + [flag, "bogus"])
    for flag in ("--p", "--cap", "--modulus"):
        if flag in rest:
            out.append(rest + [flag, "x"])
    for flag, bad in (("--elements", "a"), ("--central", "x"),
                      ("--psi", "1"), ("--psi", "a:1"),
                      ("--matrix", "[[1"), ("--matrix", "5")):
        if flag in rest:
            out.append(rest + [flag, bad])
    return [path.split() + a for a in out]


def _parse_outcome(parse, argv, capsys):
    """Exit code, stdout, stderr and parsed values of one parse."""
    try:
        args, code = parse(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    values = None if args is None else {
        k: v for k, v in vars(args).items() if k not in ("cmd", "sub")}
    return code, out, err, values


def test_the_command_parser_parses_as_the_whole_tree(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    shown = {p for p in cli.COMMANDS for e in _readme_synopsis()
             if e == f"tbk {p}" or e.startswith(f"tbk {p} ")}
    assert shown == set(cli.COMMANDS) == set(_VALID)
    tree = cli.build_parser

    def no_tree():
        raise AssertionError("the whole tree was built for a command")

    for path in cli.COMMANDS:
        for argv in _argvs(path):
            want = _parse_outcome(tree().parse_args, argv, capsys)
            monkeypatch.setattr(cli, "build_parser", no_tree)
            got = _parse_outcome(cli.parse_args, argv, capsys)
            monkeypatch.setattr(cli, "build_parser", tree)
            assert got == want, argv
            if argv[-1] == "-h":
                assert got[0] == 0 and got[1].startswith(f"usage: tbk {path}")
            elif got[3] is not None:
                handler = getattr(cli, cli.COMMANDS[path][0])
                assert got[3]["func"] is handler
                assert got[3]["command_path"] == path
            else:
                assert got[0] == 2 and f"tbk {path}: error:" in got[2]
        # arguments the command's parser leaves over: the tree's message
        argv = path.split() + _VALID[path] + ["--bogus"]
        assert _parse_outcome(cli.parse_args, argv, capsys) == \
            _parse_outcome(tree().parse_args, argv, capsys)
        assert "tbk: error: unrecognized arguments: --bogus" in \
            _parse_outcome(cli.parse_args, argv, capsys)[2]


_USAGE = ("usage: tbk [-h] {group,h2,cocycle,b0,bg,span,orbifold,twisted,"
          "example} ...\n")


@pytest.mark.parametrize("argv,code,out,err", [
    ([], 2, "", _USAGE + "tbk: error: the following arguments are required: "
     "cmd\n"),
    (["bogus"], 2, "", _USAGE + "tbk: error: argument cmd: invalid choice: "
     "'bogus' (choose from 'group', 'h2', 'cocycle', 'b0', 'bg', 'span', "
     "'orbifold', 'twisted', 'example')\n"),
    (["b0"], 2, "", "usage: tbk b0 [-h] {test} ...\ntbk b0: error: the "
     "following arguments are required: sub\n"),
    (["b0", "-h"], 0, "usage: tbk b0 [-h] {test} ...\n\npositional "
     "arguments:\n  {test}\n\noptions:\n  -h, --help  show this help "
     "message and exit\n", ""),
    (["-h"], 0, _USAGE + """
exact cocycle calculus and obstruction-group scans

positional arguments:
  {group,h2,cocycle,b0,bg,span,orbifold,twisted,example}
    group               group construction and info
    h2                  brute-force Schur multiplier
    cocycle             cocycle calculus
    b0                  unramified-class membership
    bg                  open-set obstruction membership
    span                catalog span analysis
    orbifold            twisted dimension bookkeeping
    twisted             twisted group algebra checks
    example             built-in example pipelines

options:
  -h, --help            show this help message and exit
""", ""),
])
def test_argv_without_a_command_path_gets_the_whole_tree(
        argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert (info.value.code, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("argv,message", [
    (["cocycle", "restrict", "--cocycle", "pairing.json", "--elements", "a"],
     "argument --elements: invalid indices value: 'a'"),
    (["cocycle", "inflate", "--cocycle", "pairing.json", "--group",
      "klein.json", "--central", "x"],
     "argument --central: invalid indices value: 'x'"),
    (["cocycle", "from-extension", "--group", "klein.json", "--central", "1",
      "--modulus", "2", "--psi", "a:1"],
     "argument --psi: invalid character value: 'a:1'"),
    (["cocycle", "from-extension", "--group", "klein.json", "--central", "1",
      "--modulus", "2", "--psi", "1"],
     "argument --psi: invalid character value: '1'"),
    (["cocycle", "from-bilinear", "--group", "klein.json", "--modulus", "2",
      "--matrix", "[[1"],
     "argument --matrix: invalid int_matrix value: '[[1'"),
    (["cocycle", "from-bilinear", "--group", "klein.json", "--modulus", "2",
      "--matrix", "5"], "argument --matrix: invalid int_matrix value: '5'"),
    (["cocycle", "from-bilinear", "--group", "klein.json", "--modulus", "2",
      "--matrix", "[[1e400]]"],
     "argument --matrix: invalid int_matrix value: '[[1e400]]'"),
])
def test_malformed_option_values_are_parse_errors(workdir, capsys, argv,
                                                  message):
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    assert err.endswith(f"tbk {argv[0]} {argv[1]}: error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["cocycle", "restrict", "--cocycle", "pairing.json", "--elements", "1,4"],
    ["cocycle", "restrict", "--cocycle", "pairing.json", "--elements", "-1"],
    ["cocycle", "inflate", "--cocycle", "pairing.json", "--group",
     "klein.json", "--central", "999"],
    ["cocycle", "from-extension", "--group", "klein.json", "--central", "4",
     "--modulus", "2", "--psi", "0:0"],
])
def test_element_indices_outside_the_group_exit_2(workdir, capsys, argv):
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    option = next(a for a in argv if a in ("--elements", "--central"))
    bad = argv[argv.index(option) + 1].split(",")[-1]
    code, payload, err = _run(argv, capsys)
    assert (code, payload) == (2, {})
    assert err == f"error: {option}: element {bad} is not in [0, 4)\n"


def test_cli_negative_cocycle_entry_keeps_its_message(workdir, capsys):
    raw = json.loads((workdir / "pairing.json").read_text())
    raw["table"][1][1] = -1
    path = workdir / "negative.json"
    for text in (json.dumps(raw), fileio.dump_json(raw)):
        path.write_text(text)
        code, payload, err = _run(["cocycle", "check", "--cocycle", str(path)],
                                  capsys)
        assert (code, payload, err) == (
            2, {}, "error: entry must be an integer in [0, 2) at /table/1/1\n")


def test_cli_table_too_large_for_memory_exits_4(workdir, capsys, monkeypatch):
    # a 4 x 4 table read from the file takes 16 * (8 + 4) bytes
    monkeypatch.setattr(grp, "_memory_budget", lambda: 191)
    for argv in (["group", "info", "--in", str(workdir / "klein.json")],
                 ["cocycle", "check", "--cocycle",
                  str(workdir / "pairing.json")]):
        code, payload, err = _run(argv, capsys)
        assert (code, payload, err) == (
            4, {}, "error: a 4 x 4 table would take 192 bytes, more than "
                   "the 191 bytes of memory available\n")
    # a file that is not JSON keeps its exit code and message
    bad = workdir / "trailing.json"
    bad.write_text((workdir / "klein.json").read_text() + "x")
    code, payload, err = _run(["group", "info", "--in", str(bad)], capsys)
    assert code == 2 and payload == {}
    assert err.startswith(f"error: invalid JSON in {bad}: Extra data")
    monkeypatch.setattr(grp, "_memory_budget", lambda: 192)
    code, payload, _ = _run(["group", "info", "--in",
                             str(workdir / "klein.json")], capsys)
    assert code == 0 and payload["results"]["order"] == 4


def test_cli_inflate_on_the_one_element_group(tmp_path, capsys):
    (tmp_path / "g1.json").write_text(json.dumps({"order": 1, "cayley": [[0]]}))
    (tmp_path / "c1.json").write_text(json.dumps(
        {"modulus": 2, "group": "g1.json", "table": [[0]]}))
    code, payload, err = _run(
        ["cocycle", "inflate", "--cocycle", str(tmp_path / "c1.json"),
         "--group", str(tmp_path / "g1.json"), "--central", ""], capsys)
    assert code == 0
    assert payload["results"] == {
        "total_order": 1, "quotient_order": 1,
        "cocycle": {"modulus": 2, "table": [[0]]}}


def test_cli_cocycle_check_too_large_for_memory_exits_4(
        tmp_path, capsys, monkeypatch):
    raw = fileio.encode_cocycle(cx.Cocycle2.zero(klein(), 9000))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(raw))
    # reading takes 192 bytes a table; the check an int64 copy of the int16
    # table, two int64 gathers, take's intp indices and two masks: 16 * 34
    monkeypatch.setattr(grp, "_memory_budget", lambda: 543)
    code, payload, err = _run(["cocycle", "check", "--cocycle", str(path)],
                              capsys)
    assert (code, payload, err) == (
        4, {}, "error: the cocycle check on order 4 would take 544 bytes, "
               "more than the 543 bytes of memory available\n")
    monkeypatch.setattr(grp, "_memory_budget", lambda: 544)
    code, payload, _ = _run(["cocycle", "check", "--cocycle", str(path)],
                            capsys)
    assert code == 0 and payload["results"]["is_cocycle"] is True


def test_cli_h2_too_large_for_memory_exits_4(workdir, capsys, monkeypatch):
    # klein: n = 4, k = 2, width 8; the system 3 * 2 * 8 * 9 entries and the
    # kernels 16 * 8^2, eight bytes each
    need = 8 * (3 * 2 * 8 * 9 + 16 * 8 * 8)
    argv = ["h2", "--in", str(workdir / "klein.json")]
    monkeypatch.setattr(grp, "_memory_budget", lambda: need - 1)
    code, payload, err = _run(argv, capsys)
    assert (code, payload, err) == (
        4, {}, f"error: the H^2 system on order 4 would take {need} bytes, "
               f"more than the {need - 1} bytes of memory available\n")
    monkeypatch.setattr(grp, "_memory_budget", lambda: need)
    code, payload, _ = _run(argv, capsys)
    assert code == 0 and payload["results"]["invariant_factors"] == [2]


@pytest.mark.parametrize("modulus", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ["from-bilinear", "--matrix", "[[1,0],[0,1]]"],
    ["from-extension", "--central", "1", "--psi", "0:0,1:1"],
], ids=["from-bilinear", "from-extension"])
def test_cli_modulus_below_1_is_refused(workdir, capsys, command, modulus):
    argv = ["cocycle", command[0], "--group", str(workdir / "klein.json"),
            "--modulus", modulus, *command[1:]]
    assert _run(argv, capsys) == (3, {}, "error: modulus must be positive\n")


def test_cli_order_729_witness_and_every_input_hashed(tmp_path, capsys):
    from tests.test_cocycle import (_first_failing_triple_by_sweep,
                                    _row_defect, _valid_table, spread_product)

    g, coords = spread_product((9, 9, 3, 3), {})
    assert g.order == 729 and g.generators == (1, 3, 9, 27)
    group_file = tmp_path / "g729.json"
    group_file.write_text(json.dumps(fileio.encode_group(g)))
    # the defect fails on the rows with a nonzero last coordinate: the
    # generator 27 and nothing below it
    tab = (_valid_table(g, coords, 3, np.random.default_rng(5))
           + _row_defect(coords[:, 3])) % 3
    bad = tmp_path / "bad729.json"
    bad.write_text(json.dumps(
        {"modulus": 3, "group": "g729.json", "table": tab.tolist()}))
    expected = _first_failing_triple_by_sweep(cx.Cocycle2(g, 3, tab))
    assert expected[1][0] == 27
    argv = ["cocycle", "check", "--cocycle", str(bad)]
    code, payload, _ = _run(argv, capsys)
    assert code == 0
    assert payload["results"] == {"is_cocycle": False,
                                  "witness_triple": list(expected[1])}
    assert sorted(payload["inputs"]) == ["cocycle", "cocycle.group"]
    # the same group written again with other bytes: only its hash moves
    group_file.write_text(fileio.dump_json(fileio.encode_group(g)))
    code, again, _ = _run(argv, capsys)
    assert code == 0 and again["results"] == payload["results"]
    assert again["inputs"]["cocycle"] == payload["inputs"]["cocycle"]
    assert again["inputs"]["cocycle.group"] != payload["inputs"]["cocycle.group"]


def test_cli_referenced_files_are_hashed_under_their_pointers(
        workdir, capsys):
    (workdir / "ref.json").write_text(json.dumps("klein.json"))
    code, payload, _ = _run(["group", "info", "--in",
                             str(workdir / "ref.json")], capsys)
    assert code == 0
    assert sorted(payload["inputs"]) == ["group", "group.group"]
    model = json.loads((workdir / "model.json").read_text())
    gens = {k: model.pop(k) for k in ("degree", "cyclotomic_order",
                                      "generators")}
    (workdir / "gens.json").write_text(json.dumps(gens))
    model["generators_file"] = "gens.json"
    (workdir / "model2.json").write_text(json.dumps(model))
    (workdir / "pairing2.json").write_text(json.dumps(
        {**json.loads((workdir / "pairing.json").read_text()),
         "group": "ref.json"}))
    code, payload, _ = _run(
        ["orbifold", "dims", "--cocycle", str(workdir / "pairing2.json"),
         "--model", str(workdir / "model2.json")], capsys)
    assert code == 0
    assert sorted(payload["inputs"]) == [
        "cocycle", "cocycle.group", "cocycle.group.group", "model",
        "model.generators_file"]


def test_cli_group_file_cycles_exit_2_naming_the_file(workdir, capsys):
    def group_info(name: str) -> str:
        code, payload, err = _run(
            ["group", "info", "--in", str(workdir / name)], capsys)
        assert code == 2 and payload == {}
        assert "Traceback" not in err
        return err

    (workdir / "a.json").write_text(json.dumps("a.json"))
    assert group_info("a.json") == (
        f"error: group file {workdir / 'a.json'} is reached again: its "
        "references form a cycle\n")
    (workdir / "a.json").write_text(json.dumps("./b.json"))
    (workdir / "b.json").write_text(json.dumps("sub/../a.json"))
    (workdir / "sub").mkdir()
    assert "b.json is reached again" in group_info("a.json")
    assert "a.json is reached again" in group_info("b.json")
    # a chain of references without a cycle is followed
    (workdir / "c.json").write_text(json.dumps("klein.json"))
    code, payload, _ = _run(
        ["group", "info", "--in", str(workdir / "c.json")], capsys)
    assert code == 0 and payload["results"]["order"] == 4
    # a cocycle whose group file loops
    raw = json.loads((workdir / "pairing.json").read_text())
    (workdir / "pa.json").write_text(json.dumps({**raw, "group": "a.json"}))
    code, payload, err = _run(
        ["cocycle", "check", "--cocycle", str(workdir / "pa.json")], capsys)
    assert code == 2 and "is reached again" in err
    with pytest.raises(MalformedError) as info:
        fileio.decode_group("a.json", "/group", base_dir=str(workdir))
    assert info.value.pointer == "/group"
