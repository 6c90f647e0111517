import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ubcode.cli import dump_columns, load_spec, parse_columns, run, save_spec
from ubcode.cluster import Cluster
from ubcode import code_model
from ubcode.code_model import InvalidParamsError, bounds, code_to_json
from ubcode.construct import build_mrmub, build_mub
from ubcode.finite_field import GF
from ubcode.linalg import vandermonde_columns
from ubcode.transform import InvalidPairError, iterate_transform

GOLDEN = Path(__file__).parent / "golden"


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- bounds -----------------------------------------------------------------------


def test_bounds_human(capsys):
    code, out, _ = run_capture(capsys, ["bounds", "--n", "4", "--k", "2", "--m", "4,2,2,0"])
    assert code == 0
    assert "mu      = 4" in out
    assert "R_min   = 8" in out
    assert "min update bandwidth         = 3" in out
    assert "min redundancy at min bw     = 11" in out


def test_bounds_json(capsys):
    code, out, _ = run_capture(
        capsys, ["bounds", "--n", "4", "--k", "2", "--m", "2,2,2,2", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["min_update_bandwidth"] == "3"
    assert doc["min_redundancy"] == 8
    assert doc["min_redundancy_at_min_bandwidth"] == 8


@pytest.mark.parametrize("m, golden", [("3,2,2,0", "bounds_4_2_3220.json"),
                                       ("4,2,2,0", "bounds_4_2_4220.json")])
def test_bounds_json_matches_golden(capsys, m, golden):
    code, out, _ = run_capture(capsys, ["bounds", "--n", "4", "--k", "2", "--m", m, "--json"])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_transformed_spec_matches_golden(tmp_path, capsys):
    # A two-round construct over GF(8), whose build checks eliminate on packed
    # byte rows.
    spec = tmp_path / "spec.json"
    code, _, _ = run_capture(capsys, ["construct", "--kind", "mrmub", "--n", "4", "--k", "2",
                                      "--m", "2,2,2,2", "--q", "8", "--transform-rounds", "2",
                                      "--out", str(spec)])
    assert code == 0
    assert spec.read_bytes() == (GOLDEN / "spec_4_2_q8_r2_systematic.json").read_bytes()


def vandermonde_spec(path, n, k, m, q, rounds):
    """Write the mrmub spec built over a dense Vandermonde assembly."""
    field = GF(q)
    assembly = vandermonde_columns(field, (n - k) * m // k, (n - 1) * m // k)
    code = build_mrmub(n, k, m, field=field, assembly=assembly)
    save_spec(iterate_transform(code, rounds) if rounds else code, str(path))


def test_vandermonde_spec_matches_golden(tmp_path):
    # The same spec over the dense assembly is the file first recorded.
    spec = tmp_path / "spec.json"
    vandermonde_spec(spec, 4, 2, 2, 8, 2)
    assert spec.read_bytes() == (GOLDEN / "spec_4_2_q8_r2.json").read_bytes()


@pytest.mark.parametrize("rounds", [3, 20])
def test_spec_with_too_many_rounds_is_a_usage_error(tmp_path, capsys, rounds):
    # Each round doubles the node size; a (4, 2) chain holds at most two pairs.
    doc = json.loads((GOLDEN / "spec_4_2_q8_r2.json").read_text())
    doc["transform"]["pairs"] = [[2, 3], [0, 1]] * (rounds // 2) + [[2, 3]] * (rounds % 2)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out, err = run_capture(capsys, ["encode", "--spec", str(spec),
                                          "--out", str(tmp_path / "cw.txt")])
    assert time.monotonic() - start < 1
    assert (code, out, err) == (2, "", f"error: {spec}: 3 rounds exceed ceil(4/2)\n")


def test_construct_with_a_billion_rounds_is_a_usage_error(tmp_path, capsys):
    # rotation_pairs checks the cap before it lists a pair, so no 10^9-entry
    # pair list is built.
    spec = tmp_path / "spec.json"
    start = time.monotonic()
    assert_usage_error(capsys, ["construct", "--kind", "mrmub", "--n", "4", "--k", "2",
                                "--m", "2,2,2,2", "--transform-rounds", "1000000000",
                                "--out", str(spec)], "1000000000 rounds exceed ceil(4/2)")
    assert time.monotonic() - start < 1
    assert not spec.exists()


# A seeded codeword per field path of the elimination kernel: GF(8) on packed
# byte rows, GF(25) and GF(2^16) on entry lists.  Decode and repair solve over
# the field, so a wrong product anywhere changes the files they write.  Each
# code is pinned twice: as `construct` builds it, over systematic assemblies
# (``*_systematic_seed16.txt``), and over a dense Vandermonde assembly, whose
# files are the ones first recorded.
CODEWORD_CASES = [
    ((4, 2, 2, 8, 2), "codeword_4_2_q8_r2", "0,3", 24),
    ((6, 4, 4, 25, 3), "codeword_6_4_q25_r3", "1,4", 120),
    ((6, 3, 6, 65536, 0), "codeword_6_3_q65536", "0,2,5", 36),
]
CODEWORD_IDS = ["q8-r2", "q25-r3", "q65536"]


def check_seeded_codeword(capsys, tmp_path, spec, golden, erased, repair_totals):
    """Encode ``spec`` with seed 16, then decode ``erased`` and repair every
    node, each against the golden file, node j downloading
    ``repair_totals[j]`` symbols."""
    expected = (GOLDEN / golden).read_bytes()
    cw, out = tmp_path / "cw.txt", tmp_path / "out.txt"
    assert run(["encode", "--spec", str(spec), "--seed", "16", "--out", str(cw)]) == 0
    assert cw.read_bytes() == expected
    code, _, err = run_capture(capsys, ["decode", "--spec", str(spec), "--in", str(cw),
                                        "--erased", erased, "--out", str(out)])
    assert code == 0, err
    assert out.read_bytes() == expected
    for node, total in enumerate(repair_totals):
        out.unlink()
        code, stdout, err = run_capture(capsys, ["repair", "--spec", str(spec), "--in", str(cw),
                                                 "--node", str(node), "--out", str(out)])
        assert code == 0, err
        assert f"total,{total}" in stdout.splitlines()
        assert out.read_bytes() == expected


@pytest.mark.parametrize("shape, golden, erased, repair_total", CODEWORD_CASES, ids=CODEWORD_IDS)
def test_seeded_codeword_matches_golden(tmp_path, capsys, shape, golden, erased, repair_total):
    spec = tmp_path / "spec.json"
    vandermonde_spec(spec, *shape)
    check_seeded_codeword(capsys, tmp_path, spec, f"{golden}_seed16.txt", erased,
                          [repair_total] * shape[0])


@pytest.mark.parametrize("shape, golden, erased, repair_total", CODEWORD_CASES, ids=CODEWORD_IDS)
def test_default_codeword_matches_golden(tmp_path, capsys, shape, golden, erased, repair_total):
    n, k, m, q, rounds = shape
    spec = tmp_path / "spec.json"
    assert run(["construct", "--kind", "mrmub", "--n", str(n), "--k", str(k),
                "--m", ",".join([str(m)] * n), "--q", str(q), "--transform-rounds", str(rounds),
                "--out", str(spec)]) == 0
    check_seeded_codeword(capsys, tmp_path, spec, f"{golden}_systematic_seed16.txt", erased,
                          [repair_total] * n)


# Two flat GF(32) codes as `construct` builds them, whose encoder combines
# packed parity columns: the benchmark's update-stream code, and an irregular
# MUB code with a dataless node 4, whose columns differ in length, so its
# nodes repair at different totals.
FLAT_CODEWORD_CASES = [
    (["mrmub", "--n", "10", "--k", "6", "--m", ",".join(["12"] * 10)],
     "codeword_10_6_q32", "0,3,5,8", [120] * 10),
    (["mub", "--n", "8", "--k", "4", "--m", "8,8,4,4,0,12,4,8"],
     "codeword_8_4_q32_mub", "0,4,5,7", [51, 51, 54, 54, 58, 58, 58, 58]),
]


@pytest.mark.parametrize("argv, golden, erased, repair_totals", FLAT_CODEWORD_CASES,
                         ids=["q32-mrmub", "q32-mub"])
def test_flat_codeword_matches_golden(tmp_path, capsys, argv, golden, erased, repair_totals):
    spec = tmp_path / "spec.json"
    assert run(["construct", "--kind", *argv, "--out", str(spec)]) == 0
    check_seeded_codeword(capsys, tmp_path, spec, f"{golden}_systematic_seed16.txt", erased,
                          repair_totals)


def test_bounds_open_case(capsys):
    code, out, _ = run_capture(capsys, ["bounds", "--n", "4", "--k", "2", "--m", "3,2,2,0"])
    assert code == 0
    assert "open" in out


def test_update_complexity_bound_not_applicable_at_k_n_minus_1(tmp_path, capsys):
    # The paper's update-complexity bound holds for k <= n-2 only; a (4, 3)
    # code sits below it (complexity 1), so no bound is reported.
    argv = ["--n", "4", "--k", "3", "--m", "3,3,3,3"]
    code, out, _ = run_capture(capsys, ["bounds", *argv])
    assert code == 0
    assert "update complexity bound      = not applicable (k = n-1)" in out.splitlines()
    code, out, _ = run_capture(capsys, ["bounds", *argv, "--json"])
    assert code == 0
    assert json.loads(out)["update_complexity_bound"] is None
    spec = tmp_path / "spec.json"
    assert run(["construct", "--kind", "mrmub", *argv, "--out", str(spec)]) == 0
    capsys.readouterr()
    code, out, _ = run_capture(capsys, ["verify", str(spec), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["update_complexity"], doc["update_complexity_bound"]) == ("1", None)
    assert '"update_complexity_bound": null' in out


# -- construct / verify round trips ---------------------------------------------------


@pytest.mark.parametrize(
    "argv_extra",
    [
        ["--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2"],
        ["--kind", "mub", "--n", "4", "--k", "2", "--m", "4,2,2,0"],
        ["--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2",
         "--transform-rounds", "1"],
        ["--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2",
         "--transform-rounds", "2"],
    ],
)
def test_construct_verify_round_trip(tmp_path, capsys, argv_extra):
    spec = tmp_path / "spec.json"
    code, out, err = run_capture(capsys, ["construct", *argv_extra, "--out", str(spec)])
    assert code == 0, err
    code, out, err = run_capture(capsys, ["verify", str(spec)])
    assert code == 0, out + err
    assert "FAIL" not in out


def test_verify_corrupted_spec_fails(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    run_capture(capsys, [
        "construct", "--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2",
        "--out", str(spec),
    ])
    doc = json.loads(spec.read_text())
    # zero out one sender-side matrix: the code loses its MDS property
    block = doc["matrices"]["A"][0][1]
    block["entries"] = [[0 for _ in row] for row in block["entries"]]
    spec.write_text(json.dumps(doc))
    code, out, err = run_capture(capsys, ["verify", str(spec)])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("seed", range(8))
def test_verify_corrupted_spec_fails_under_every_seed(tmp_path, capsys, monkeypatch, seed):
    # The workload repairs a random node.  On this non-MDS code the repair's
    # solve is underdetermined under seeds 2 and 4: a failed workload-audit,
    # not a usage error.
    doc = code_to_json(build_mrmub(4, 2, 2))
    block = doc["matrices"]["A"][0][1]
    block["entries"] = [[0 for _ in row] for row in block["entries"]]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    monkeypatch.setenv("UBCODE_SEED", str(seed))
    code, out, err = run_capture(capsys, ["verify", str(spec)])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == CHECK_NAMES
    if seed in (2, 4):
        assert lines[3] == "workload-audit   FAIL  column rank 3 < 4 unknowns"


def test_verify_reports_non_minimal_factor_pair(tmp_path, capsys):
    doc = code_to_json(build_mrmub(4, 2, 2))
    # A zero row on A[0][1] and a zero column on B[0][1] keep B @ A, but the
    # pair is no longer of full rank.
    a, b = doc["matrices"]["A"][0][1], doc["matrices"]["B"][0][1]
    a["entries"].append([0] * a["cols"])
    a["rows"] += 1
    for row in b["entries"]:
        row.append(0)
    b["cols"] += 1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_capture(capsys, ["verify", str(spec)])
    assert "factor-grids     FAIL  factor pair at [0][1] is not a minimal full-rank pair" in out
    assert code == 1, out + err


CHECK_NAMES = ["factor-grids", "mds", "feasibility", "workload-audit"]


def test_verify_json_reports_every_check(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    assert run(["construct", "--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2",
                "--out", str(spec)]) == 0
    capsys.readouterr()
    code, out, _ = run_capture(capsys, ["verify", str(spec), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["update_bandwidth", "redundancy", "update_complexity",
                         "update_complexity_bound", "checks"]
    assert (doc["update_bandwidth"], doc["redundancy"]) == ("3", 8)
    assert (doc["update_complexity"], doc["update_complexity_bound"]) == ("5/2", "5/2")
    assert [c["name"] for c in doc["checks"]] == CHECK_NAMES
    assert all(list(c) == ["name", "ok", "detail"] and c["ok"] for c in doc["checks"])


# validate_dimensions calls per entry: the public entry's one check, plus
# the constructor's check of the grid it is given and code_from_json's of the
# stored params.
DIMENSION_CHECKS = [
    (lambda spec: build_mrmub(4, 2, 2), 2),
    (lambda spec: build_mub(4, 2, [4, 2, 2, 0]), 2),
    (lambda spec: bounds(4, 2, [4, 2, 2, 0]), 1),
    (lambda spec: run(["construct", "--kind", "mrmub", "--n", "4", "--k", "2",
                       "--m", "2,2,2,2", "--out", str(spec)]), 2),
    (lambda spec: run(["verify", str(spec)]), 4),
]


@pytest.mark.parametrize("entry, want", DIMENSION_CHECKS,
                         ids=["build_mrmub", "build_mub", "bounds", "construct", "verify"])
def test_each_entry_checks_its_dimensions_once(tmp_path, capsys, monkeypatch, entry, want):
    spec = tmp_path / "spec.json"
    save_spec(build_mrmub(4, 2, 2), str(spec))
    validate, calls = code_model.validate_dimensions, [0]

    def counted(*args):
        calls[0] += 1
        return validate(*args)

    for name, module in list(sys.modules.items()):  # every binding, imported ones too
        if name.startswith("ubcode") and vars(module).get("validate_dimensions") is validate:
            monkeypatch.setattr(module, "validate_dimensions", counted)
    entry(spec)
    assert capsys.readouterr().err == ""
    assert calls[0] == want


def test_verify_json_reports_non_minimal_factor_pair(tmp_path, capsys):
    doc = code_to_json(build_mrmub(4, 2, 2))
    a, b = doc["matrices"]["A"][0][1], doc["matrices"]["B"][0][1]
    a["entries"].append([0] * a["cols"])
    a["rows"] += 1
    for row in b["entries"]:
        row.append(0)
    b["cols"] += 1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, _ = run_capture(capsys, ["verify", str(spec), "--json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == CHECK_NAMES
    assert checks[0] == {"name": "factor-grids", "ok": False,
                         "detail": "factor pair at [0][1] is not a minimal full-rank pair"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,4,2,2"],
         "mrmub construction needs a uniform data profile"),
        (["--kind", "mub", "--n", "4", "--k", "2", "--m", "4,2,2,0", "--q", "8",
          "--transform-rounds", "1"],
         "error: transformation needs a regular (uniform) base code"),
    ],
    ids=["non-uniform-mrmub", "irregular-base-transform"],
)
def test_construct_usage_errors_exit_2(tmp_path, capsys, argv, message):
    spec = tmp_path / "spec.json"
    code, out, err = run_capture(capsys, ["construct", *argv, "--out", str(spec)])
    assert code == 2
    assert (out, err) == ("", message + "\n")
    assert not spec.exists()


def set_key(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


def drop_key(path):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (drop_key(["params", "k"]), "spec has no key params.k"),
        (drop_key(["matrices", "B", 1, 0, "entries"]), "spec has no key matrices.B[1][0].entries"),
        (set_key(["matrices", "A"], [[]]), "spec has no key matrices.A[0][1]"),
        (set_key(["params", "m"], "2,2,2,2"), "spec key params.m must be a list of int"),
        (set_key(["field", "q"], "8"), "spec key field.q must be int"),
        (set_key(["transform"], {"pairs": [[2, 3]]}), "spec has no key transform.g"),
        (set_key(["transform", "g"], 2.0), "spec key transform.g must be int"),
        (set_key(["transform", "pairs"], [[2]]), "spec key transform.pairs[0] must hold two nodes"),
        (set_key(["transform", "pairs"], [2, 3]), "spec key transform.pairs[0] must be a list of int"),
        (set_key(["matrices", "A", 0, 1, "entries", 0, 0], 99),
         "spec key matrices.A[0][1].entries: 99 is not an element of GF(4)"),
        (set_key(["matrices", "A", 0, 1, "entries", 0, 0], True),
         "spec key matrices.A[0][1].entries: True is not an element of GF(4)"),
        (set_key(["matrices", "B", 1, 0, "rows"], 7),
         "spec key matrices.B[1][0].entries: data does not match shape 7x1"),
        (set_key(["transform", "g"], 99999), "spec key transform.g must be 2, the primitive element of GF(4)"),
        (set_key(["transform", "g"], -1), "spec key transform.g must be 2, the primitive element of GF(4)"),
        (set_key(["transform", "pairs"], [[True, 3]]), "spec key transform.pairs[0] must be a list of int"),
        (set_key(["transform", "g"], True), "spec key transform.g must be int"),
        (set_key(["params", "k"], True), "spec key params.k must be int"),
        (set_key(["matrices", "A", 0, 0], {"rows": 1, "cols": 2, "entries": [[1, 0]]}),
         "spec key matrices.A[0][0] must be an empty matrix"),
        # The params no longer drive the shape, but they are still checked against it.
        (set_key(["params", "m"], [2, 2, 2, 4]),
         "params m=[2, 2, 2, 4], p=[2, 2, 2, 2] do not match the matrices' m=[2, 2, 2, 2]"),
        (set_key(["params", "p", 1], 3),
         "params m=[2, 2, 2, 2], p=[2, 3, 2, 2] do not match the matrices' m=[2, 2, 2, 2], "
         "p=[2, 2, 2, 2]"),
        (set_key(["params", "q"], 8), "params p=[2, 2, 2, 2], q=8 do not fit n=4 over GF(4)"),
        (set_key(["params", "n"], 3), "data profile (2, 2, 2, 2) invalid for n=3"),
    ],
    ids=["missing-k", "missing-entries", "short-grid", "m-type", "q-type",
         "transform-no-g", "transform-g-type", "transform-short-pair", "transform-flat-pairs",
         "entry-out-of-field", "entry-bool", "entries-shape", "transform-g-too-large",
         "transform-g-negative", "transform-pairs-bool", "transform-g-bool", "params-k-bool", "diagonal-not-empty",
         "params-m-disagrees", "params-p-disagrees", "params-q-disagrees", "params-n-disagrees"],
)
def test_spec_schema_error_is_a_usage_error(tmp_path, capsys, edit, message):
    spec = tmp_path / "spec.json"
    assert run([
        "construct", "--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2",
        "--transform-rounds", "1", "--out", str(spec),
    ]) == 0
    capsys.readouterr()
    doc = json.loads(spec.read_text())
    edit(doc)
    spec.write_text(json.dumps(doc))
    # Every error, a schema or a params error, names the file it is in.
    assert_usage_error(capsys, ["verify", str(spec)], f"{spec}: {message}")


@pytest.mark.parametrize("g", [3, 1, 0, 99999, -1],
                         ids=["other-primitive", "one", "zero", "too-large", "negative"])
def test_spec_mixer_other_than_the_primitive_element_is_a_usage_error(tmp_path, capsys, g):
    # Every round mixes through the field's primitive element, 2 in GF(8);
    # 3 is primitive too, but a spec naming it describes no code of this build.
    doc = json.loads((GOLDEN / "spec_4_2_q8_r2.json").read_text())
    doc["transform"]["g"] = g
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert_usage_error(capsys, ["verify", str(spec)],
                       f"{spec}: spec key transform.g must be 2, the primitive element of GF(8)")


@pytest.mark.parametrize("key, value", [("primitive", 3), ("modulus", [1, 0, 1, 1])],
                         ids=["other-primitive", "other-modulus"])
def test_spec_field_tables_other_than_this_build_are_a_usage_error(tmp_path, capsys, key, value):
    # GF(8) is built on x^3 + x + 1 with primitive element 2; a spec stored
    # over x^3 + x^2 + 1, or naming 3, has other tables.
    doc = json.loads((GOLDEN / "spec_4_2_q8_r2.json").read_text())
    doc["field"][key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run_capture(capsys, ["verify", str(spec)])
    assert (code, out, err) == (2, "", f"error: {spec}: field tables in file do not match "
                                       "this build\n")


def test_deeply_nested_spec_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "deep.json"
    spec.write_text("[" * 200_000 + "]" * 200_000)
    assert_usage_error(capsys, ["verify", str(spec)], f"{spec}: spec nests too deeply to parse")


@pytest.mark.parametrize("command", ["decode", "update", "repair"])
def test_spec_json_and_schema_errors_name_the_spec_file(tmp_path, capsys, spec_file, command):
    # These commands read two files; a bad spec must say that the spec is bad.
    cw = tmp_path / "cw.txt"
    assert run(["encode", "--spec", str(spec_file), "--seed", "5", "--out", str(cw)]) == 0
    capsys.readouterr()
    extra = {"decode": ["--erased", "0"], "update": ["--node", "0"], "repair": ["--node", "0"]}
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"field": {}')
    keyless = tmp_path / "keyless.json"
    doc = json.loads(spec_file.read_text())
    del doc["field"]
    keyless.write_text(json.dumps(doc))
    for spec, message in [(truncated, "Expecting ',' delimiter"), (keyless, "spec has no key field")]:
        code, out, err = run_capture(capsys, [command, "--spec", str(spec), "--in", str(cw),
                                              *extra[command], "--out", str(tmp_path / "out.txt")])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {spec}: ") and message in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["decode", "update", "repair"])
def test_spec_library_errors_name_the_spec_file(tmp_path, capsys, command):
    # A spec that parses but describes no code of this build: its params
    # disagree with its matrices, its field tables are another build's, or
    # its chain holds too many rounds.  The codeword file is fine.
    golden = json.loads((GOLDEN / "spec_4_2_q8_r2.json").read_text())
    good = tmp_path / "good.json"
    good.write_text(json.dumps(golden))
    cw = tmp_path / "cw.txt"
    assert run(["encode", "--spec", str(good), "--seed", "5", "--out", str(cw)]) == 0
    capsys.readouterr()
    extra = {"decode": ["--erased", "0"], "update": ["--node", "0"], "repair": ["--node", "0"]}
    cases = [
        (("params", "m"), [2, 2, 2, 4], InvalidParamsError, "do not match the matrices'"),
        (("field", "primitive"), 3, InvalidParamsError, "field tables in file do not match"),
        (("transform", "pairs"), [[2, 3], [0, 1], [2, 3]], InvalidPairError,
         "3 rounds exceed ceil(4/2)"),
    ]
    for (section, key), value, error, message in cases:
        doc = json.loads(json.dumps(golden))
        doc[section][key] = value
        spec = tmp_path / f"{key}.json"
        spec.write_text(json.dumps(doc))
        code, out, err = run_capture(capsys, [command, "--spec", str(spec), "--in", str(cw),
                                              *extra[command], "--out", str(tmp_path / "out.txt")])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {spec}: ") and message in err
        assert len(err.splitlines()) == 1
        with pytest.raises(error, match=f"^{re.escape(str(spec))}: "):  # the type is kept
            load_spec(str(spec))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2",
          "--transform-rounds", "-1"], "rounds must be an int >= 0, got -1"),
        (["simulate", "--updates", "-1"],
         "workload counts must be ints >= 0, got updates=-1, repairs=1"),
        (["simulate", "--repairs", "-2"], "got updates=8, repairs=-2"),
        (["simulate", "--updates", "-1", "--repairs", "-2"], "got updates=-1, repairs=-2"),
    ],
    ids=["transform-rounds", "updates", "repairs", "both"],
)
def test_negative_count_is_a_usage_error(tmp_path, capsys, argv, message):
    spec = tmp_path / "spec.json"
    if argv[0] == "construct":
        argv = argv + ["--out", str(spec)]
    assert_usage_error(capsys, argv, message)
    assert not spec.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "mrmub", "--n", "4", "--k", "0", "--m", "2,2,2,2"],
         "need 1 <= k < n with n >= 2, got n=4 k=0"),
        (["--kind", "mub", "--n", "4", "--k", "0", "--m", "2,2,2,2"],
         "need 1 <= k < n with n >= 2, got n=4 k=0"),
        (["--kind", "mrmub", "--n", "4", "--k", "2", "--m", ""], "data profile () invalid for n=4"),
        (["--kind", "mrmub", "--n", "4", "--k", "2", "--m", ","], "data profile () invalid for n=4"),
        (["--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2"],
         "data profile (2, 2, 2) invalid for n=4"),
        (["--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2,2"],
         "data profile (2, 2, 2, 2, 2) invalid for n=4"),
        (["--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2", "--q", "0"],
         "field size must be >= 2, got 0"),
    ],
    ids=["mrmub-k0", "mub-k0", "empty-m", "comma-m", "short-m", "long-m", "q0"],
)
def test_bad_construct_arguments_are_usage_errors(tmp_path, capsys, argv, message):
    spec = tmp_path / "spec.json"
    assert_usage_error(capsys, ["construct", *argv, "--out", str(spec)], message)
    assert not spec.exists()


def test_usage_error_exit_2(capsys):
    assert run(["bounds", "--n", "4"]) == 2
    assert run(["nonsense"]) == 2


# -- codeword file flows -----------------------------------------------------------------


@pytest.fixture
def spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    assert run([
        "construct", "--kind", "mub", "--n", "4", "--k", "2", "--m", "4,2,2,0",
        "--out", str(spec),
    ]) == 0
    capsys.readouterr()
    return spec


def test_encode_decode_flow(tmp_path, capsys, spec_file):
    cw = tmp_path / "codeword.txt"
    code, *_ = run_capture(capsys, [
        "encode", "--spec", str(spec_file), "--seed", "5", "--out", str(cw)
    ])
    assert code == 0
    # encode and a seeded Cluster draw the same data fill
    assert cw.read_text() == dump_columns(Cluster(load_spec(str(spec_file)), seed=5).columns)
    recovered = tmp_path / "recovered.txt"
    code, out, err = run_capture(capsys, [
        "decode", "--spec", str(spec_file), "--in", str(cw),
        "--erased", "0,1", "--out", str(recovered),
    ])
    assert code == 0, err
    assert recovered.read_text() == cw.read_text()


def test_update_then_repair_flow(tmp_path, capsys, spec_file):
    cw = tmp_path / "codeword.txt"
    run_capture(capsys, ["encode", "--spec", str(spec_file), "--seed", "7", "--out", str(cw)])
    updated = tmp_path / "updated.txt"
    code, out, err = run_capture(capsys, [
        "update", "--spec", str(spec_file), "--in", str(cw),
        "--node", "0", "--data", "1,2,3,4", "--out", str(updated),
    ])
    assert code == 0, err
    assert "update,0,1,2" in out and "total,6" in out
    assert updated.read_text() != cw.read_text()
    code, out, err = run_capture(capsys, [
        "repair", "--spec", str(spec_file), "--in", str(updated), "--node", "2",
    ])
    assert code == 0, err
    assert "total," in out


def test_transformed_spec_update_and_repair_flow(tmp_path, capsys):
    spec = tmp_path / "tspec.json"
    assert run([
        "construct", "--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2",
        "--transform-rounds", "1", "--out", str(spec),
    ]) == 0
    cw = tmp_path / "cw.txt"
    assert run(["encode", "--spec", str(spec), "--seed", "3", "--out", str(cw)]) == 0
    capsys.readouterr()
    out2 = tmp_path / "cw2.txt"
    code, out, err = run_capture(capsys, [
        "update", "--spec", str(spec), "--in", str(cw),
        "--node", "2", "--seed", "4", "--out", str(out2),
    ])
    assert code == 0, err
    assert "total,6" in out  # 2 symbols on each of 3 edges
    code, out, err = run_capture(capsys, [
        "repair", "--spec", str(spec), "--in", str(out2), "--node", "3",
    ])
    assert code == 0, err
    assert "total,12" in out  # paired node at the repair optimum


@pytest.mark.parametrize("command", ["update", "repair"])
@pytest.mark.parametrize("node", ["9", "-1"])
def test_out_of_range_node_is_a_usage_error(tmp_path, capsys, spec_file, command, node):
    cw = tmp_path / "codeword.txt"
    run_capture(capsys, ["encode", "--spec", str(spec_file), "--seed", "7", "--out", str(cw)])
    argv = [command, "--spec", str(spec_file), "--in", str(cw), "--node", node]
    if command == "update":
        argv += ["--out", str(tmp_path / "updated.txt")]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert f"node {node} outside" in err


@pytest.fixture
def gf16_codeword(tmp_path, capsys):
    spec = tmp_path / "gf16.json"
    cw = tmp_path / "gf16.cw"
    assert run([
        "construct", "--kind", "mub", "--n", "4", "--k", "2", "--m", "4,2,2,0",
        "--q", "16", "--out", str(spec),
    ]) == 0
    assert run(["encode", "--spec", str(spec), "--seed", "5", "--out", str(cw)]) == 0
    capsys.readouterr()
    return spec, cw


def assert_usage_error(capsys, argv, message):
    code, out, err = run_capture(capsys, argv)
    assert code == 2, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert message in err


def test_update_out_of_field_symbol_is_a_usage_error(tmp_path, capsys, gf16_codeword):
    spec, cw = gf16_codeword
    assert_usage_error(capsys, [
        "update", "--spec", str(spec), "--in", str(cw), "--node", "0",
        "--data", "1,99999,3,4", "--out", str(tmp_path / "out.cw"),
    ], "99999 is not an element of GF(16)")


@pytest.mark.parametrize("command", ["update", "repair", "decode"])
def test_out_of_field_codeword_symbol_is_a_usage_error(tmp_path, capsys, gf16_codeword, command):
    spec, cw = gf16_codeword
    lines = cw.read_text().splitlines()
    lines[0] = "ffff" + lines[0][4:]  # node 0's first data symbol
    cw.write_text("\n".join(lines) + "\n")
    argv = [command, "--spec", str(spec), "--in", str(cw), "--out", str(tmp_path / "out.cw")]
    argv += ["--erased", "1"] if command == "decode" else ["--node", "1"]
    assert_usage_error(capsys, argv, "65535 is not an element of GF(16)")


@pytest.mark.parametrize("command", ["update", "repair", "decode"])
def test_out_of_field_parity_symbol_is_a_usage_error(tmp_path, capsys, gf16_codeword, command):
    spec, cw = gf16_codeword
    lines = cw.read_text().splitlines()
    lines[0] = lines[0][:-4] + "ffff"  # node 0's last parity symbol
    cw.write_text("\n".join(lines) + "\n")
    argv = [command, "--spec", str(spec), "--in", str(cw), "--out", str(tmp_path / "out.cw")]
    argv += ["--erased", "1"] if command == "decode" else ["--node", "1"]
    assert_usage_error(capsys, argv, "65535 is not an element of GF(16)")


def test_encode_data_file_with_dataless_node(tmp_path, capsys, gf16_codeword):
    spec, _ = gf16_codeword
    want = ["000100020003000f", "00040005", "00060007", ""]  # m = 4,2,2,0
    data = tmp_path / "data.txt"
    data.write_text("\n".join(want) + "\n")
    cw = tmp_path / "cw.txt"
    code, out, err = run_capture(capsys, [
        "encode", "--spec", str(spec), "--data", str(data), "--out", str(cw),
    ])
    assert code == 0, err
    # Each column starts with its node's data verbatim.
    got = cw.read_text().splitlines()
    assert [col[: len(d)] for col, d in zip(got, want)] == want


@pytest.mark.parametrize(
    "text, message",
    [
        ("ffff000100020003\n00040005\n00060007\n\n", "65535 is not an element of GF(16)"),
        ("000100020003\n00040005\n00060007\n\n", "column 0 line has 12 chars, expected 16"),
        ("0001000200030004\n00040005\n00060007\n\n0001\n", "expected 4 columns, found 5"),
        ("0001000200030004\n00040005\n00060007\n", "expected 4 columns, found 3"),
        ("0001000200030004\n0x040005\n00060007\n\n", "column 1 line is not hex digits"),
    ],
    ids=["out-of-field", "short-line", "extra-line", "missing-line", "not-hex"],
)
def test_encode_bad_data_file_is_a_usage_error(tmp_path, capsys, gf16_codeword, text, message):
    spec, _ = gf16_codeword
    data = tmp_path / "data.txt"
    data.write_text(text)
    assert_usage_error(capsys, [
        "encode", "--spec", str(spec), "--data", str(data), "--out", str(tmp_path / "cw"),
    ], message)


@pytest.mark.parametrize("command", ["update", "repair", "decode"])
def test_malformed_codeword_file_is_a_usage_error(tmp_path, capsys, spec_file, command):
    cw = tmp_path / "codeword.txt"
    run_capture(capsys, ["encode", "--spec", str(spec_file), "--seed", "7", "--out", str(cw)])
    cw.write_text(cw.read_text().splitlines()[0] + "\n")  # one column of four
    argv = [command, "--spec", str(spec_file), "--in", str(cw), "--out", str(tmp_path / "o")]
    argv += ["--erased", "1"] if command == "decode" else ["--node", "1"]
    assert_usage_error(capsys, argv, "expected 4 columns, found 1")


@pytest.mark.parametrize("command", ["update", "repair", "decode", "encode"])
def test_codeword_file_that_is_not_text_names_itself(tmp_path, capsys, spec_file, command):
    # Not UTF-8: the file is read inside the try that prefixes its path, so a
    # text-decoding error names it as a malformed column does.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00\n")
    argv = [command, "--spec", str(spec_file), "--out", str(tmp_path / "o")]
    if command == "encode":
        argv += ["--data", str(bad)]
    else:
        argv += ["--in", str(bad)] + (["--erased", "1"] if command == "decode" else ["--node", "1"])
    assert_usage_error(capsys, argv, f"error: {bad}: ")


@pytest.mark.parametrize("flag, command", [
    ("--m", ["bounds", "--n", "4", "--k", "2"]),
    ("--m", ["construct", "--kind", "mub", "--n", "4", "--k", "2"]),
    ("--erased", ["decode"]),
    ("--data", ["update", "--node", "0"]),
], ids=["bounds", "construct", "decode", "update"])
def test_integer_list_flag_names_itself(tmp_path, capsys, spec_file, flag, command):
    argv = [*command, flag, "1,x"]
    if command[0] != "bounds":
        argv += ["--out", str(tmp_path / "out")]
    if command[0] in ("decode", "update"):  # both read the flag after loading their files
        cw = tmp_path / "codeword.txt"
        run_capture(capsys, ["encode", "--spec", str(spec_file), "--seed", "7", "--out", str(cw)])
        argv += ["--spec", str(spec_file), "--in", str(cw)]
    assert_usage_error(capsys, argv,
                       f"error: {flag}: '1,x' is not a comma-separated list of integers")


@pytest.mark.parametrize(
    "erased, message",
    [("9", "outside 0..3"), ("0,-1", "outside 0..3"), ("0,1,2", "3 erasures exceed tolerance 2")],
    ids=["9", "0,-1", "0,1,2"],
)
def test_decode_out_of_range_erasure_is_a_usage_error(tmp_path, capsys, spec_file, erased, message):
    cw = tmp_path / "codeword.txt"
    run_capture(capsys, ["encode", "--spec", str(spec_file), "--seed", "7", "--out", str(cw)])
    assert_usage_error(capsys, [
        "decode", "--spec", str(spec_file), "--in", str(cw), "--erased", erased,
        "--out", str(tmp_path / "o"),
    ], message)


@pytest.mark.parametrize("command", ["update", "repair", "decode"])
def test_repair_rejects_corrupt_codeword(tmp_path, capsys, spec_file, command):
    cw = tmp_path / "codeword.txt"
    run_capture(capsys, ["encode", "--spec", str(spec_file), "--seed", "9", "--out", str(cw)])
    lines = cw.read_text().splitlines()
    # flip one parity symbol of node 0 (last 4 hex digits of line 0)
    lines[0] = lines[0][:-4] + ("0001" if lines[0][-4:] == "0000" else "0000")
    cw.write_text("\n".join(lines) + "\n")
    argv = [command, "--spec", str(spec_file), "--in", str(cw), "--out", str(tmp_path / "o")]
    argv += ["--erased", "1"] if command == "decode" else ["--node", "1"]
    code, out, err = run_capture(capsys, argv)
    assert code == 1
    assert len(err.splitlines()) == 1 and "not a valid codeword" in err


def test_columns_round_trip_format():
    cols = [[0, 1, 255], [4096, 2]]
    text = dump_columns(cols)
    assert text == "0000000100ff\n10000002\n"
    assert parse_columns(text, [3, 2], GF(2**16)) == cols


# -- simulate ------------------------------------------------------------------------


def test_simulate_deterministic(tmp_path, capsys, spec_file):
    argv = ["simulate", "--spec", str(spec_file), "--updates", "12", "--repairs", "2",
            "--seed", "3", "--json"]
    code1, out1, _ = run_capture(capsys, argv)
    code2, out2, _ = run_capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["mean_update_symbols"] == "3"
    assert doc["audit_ok"] is True


def test_simulate_env_seed(monkeypatch, capsys, spec_file):
    monkeypatch.setenv("UBCODE_SEED", "77")
    code1, out1, _ = run_capture(
        capsys, ["simulate", "--spec", str(spec_file), "--updates", "4", "--json"]
    )
    monkeypatch.delenv("UBCODE_SEED")
    code2, out2, _ = run_capture(
        capsys,
        ["simulate", "--spec", str(spec_file), "--updates", "4", "--seed", "77", "--json"],
    )
    assert out1 == out2


@pytest.mark.parametrize("command", ["bounds", "encode"])
def test_malformed_env_seed_is_a_usage_error(monkeypatch, tmp_path, capsys, spec_file, command):
    argv = {
        "bounds": ["bounds", "--n", "4", "--k", "2", "--m", "2,2,2,2"],
        "encode": ["encode", "--spec", str(spec_file), "--out", str(tmp_path / "cw.txt")],
    }[command]
    monkeypatch.setenv("UBCODE_SEED", "abc")
    assert_usage_error(capsys, argv, "error: UBCODE_SEED must be an integer, got 'abc'")


def test_simulate_default_fixture(capsys):
    code, out, _ = run_capture(capsys, ["simulate", "--updates", "8", "--repairs", "1"])
    assert code == 0
    assert "measured mean update = 3" in out


# -- demos ----------------------------------------------------------------------------


def test_demo_fig1b_matches_golden(capsys):
    code, out, _ = run_capture(capsys, ["demo", "fig1b"])
    assert code == 0
    assert out == (GOLDEN / "demo_fig1b.txt").read_text()


def test_demo_fig3_matches_golden(capsys):
    code, out, _ = run_capture(capsys, ["demo", "fig3"])
    assert code == 0
    assert out == (GOLDEN / "demo_fig3.txt").read_text()


# -- fuzzing: no input ends in a traceback ------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A plain and a transformed spec, each as a document plus a codeword text."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, argv in [
        ("plain", ["--kind", "mub", "--n", "4", "--k", "2", "--m", "4,2,2,0"]),
        ("transformed", ["--kind", "mrmub", "--n", "4", "--k", "2", "--m", "2,2,2,2",
                         "--transform-rounds", "1"]),
    ]:
        spec, cw = root / f"{name}.json", root / f"{name}.cw"
        with redirect_stdout(io.StringIO()):
            assert run(["construct", *argv, "--out", str(spec)]) == 0
            assert run(["encode", "--spec", str(spec), "--seed", "1", "--out", str(cw)]) == 0
        files[name] = (json.loads(spec.read_text()), cw.read_text())
    return root, files


M_TEXTS = st.one_of(
    st.sampled_from(["", ","]),
    st.lists(st.integers(-1, 4), min_size=1, max_size=8).map(lambda v: ",".join(map(str, v))),
)


@st.composite
def argv_cases(draw):
    """bounds/construct argv: n, k in -1..7; empty, short, long or negative --m."""
    dims = ["--n", str(draw(st.integers(-1, 7))), "--k", str(draw(st.integers(-1, 7))),
            f"--m={draw(M_TEXTS)}"]
    if draw(st.booleans()):
        return ("argv", ["bounds", *dims])
    argv = ["construct", "--kind", draw(st.sampled_from(["mrmub", "mub"])), *dims]
    if draw(st.booleans()):
        argv.append(f"--q={draw(st.sampled_from([-1, 0, 1, 4, 6, 25]))}")
    if draw(st.booleans()):
        argv.append(f"--transform-rounds={draw(st.sampled_from([-1, 0, 1, 2]))}")
    return ("argv", argv)


SPEC_COMMANDS = ["verify", "encode", "decode", "update", "repair"]
CODEWORD_EDITS = ["truncate", "not-hex", "extra-line", "missing-line", "empty"]
# Values a mutated spec key takes: type swaps, out-of-field ints, shape edits.
SPEC_VALUES = [None, "x", 1.5, True, -1, 0, 3, 99999, [], {}, [[1]], [[1, 0], [0, 1]]]


def doc_paths(doc, prefix=()):
    """Every key path of a JSON document below its root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from doc_paths(value, prefix + (key,))


def mutate_spec(doc, pick: int, value):
    """Drop the picked key (value ``"drop"``) or set it to ``value``."""
    paths = list(doc_paths(doc))
    *head, last = paths[pick % len(paths)]
    for key in head:
        doc = doc[key]
    if value == "drop":
        del doc[last]
    else:
        doc[last] = value


def mutate_codeword(text: str, edit: str, pick: int) -> str:
    lines = text.splitlines()
    if edit == "truncate":
        return text[: pick % len(text)]
    if edit == "not-hex":
        line = pick % len(lines)
        lines[line] = "g" + lines[line][1:]
    elif edit == "extra-line":
        lines.append(lines[pick % len(lines)])
    elif edit == "missing-line":
        del lines[pick % len(lines)]
    else:
        return ""
    return "\n".join(lines) + "\n"


def command_argv(command, spec, cw, out):
    if command == "verify":
        return ["verify", str(spec)]
    argv = [command, "--spec", str(spec), "--out", str(out)]
    if command != "encode":
        argv += ["--in", str(cw)]
    return argv + {"decode": ["--erased", "0"], "update": ["--node", "1"],
                   "repair": ["--node", "1"]}.get(command, [])


FUZZ_CASES = st.one_of(
    argv_cases(),
    st.tuples(st.just("spec"), st.sampled_from(["plain", "transformed"]),
              st.sampled_from(SPEC_COMMANDS), st.integers(0, 10**6),
              st.sampled_from(["drop", *SPEC_VALUES])),
    st.tuples(st.just("codeword"), st.sampled_from(["plain", "transformed"]),
              st.sampled_from(["decode", "update", "repair"]), st.integers(0, 10**6),
              st.sampled_from(CODEWORD_EDITS)),
)


@settings(max_examples=120, deadline=None)
@given(FUZZ_CASES)
@example(("argv", ["construct", "--kind", "mrmub", "--n", "4", "--k", "0", "--m=2,2,2,2"]))
@example(("argv", ["construct", "--kind", "mub", "--n", "4", "--k", "0", "--m=2,2,2,2"]))
@example(("argv", ["construct", "--kind", "mrmub", "--n", "4", "--k", "2", "--m="]))
def test_cli_fuzz_never_tracebacks(fuzz_files, case):
    root, files = fuzz_files
    spec, cw, out = root / "case.json", root / "case.cw", root / "case.out"
    if case[0] == "argv":
        argv = case[1] + (["--out", str(out)] if case[1][0] == "construct" else [])
    else:
        kind, base, command, pick, edit = case
        doc, text = files[base]
        doc = json.loads(json.dumps(doc))
        if kind == "spec":
            mutate_spec(doc, pick, edit)
        else:
            text = mutate_codeword(text, edit, pick)
        spec.write_text(json.dumps(doc))
        cw.write_text(text)
        argv = command_argv(command, spec, cw, out)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
