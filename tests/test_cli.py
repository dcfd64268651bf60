"""Model files, exit codes, and agreement between the two output formats."""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from fractions import Fraction

import pytest
from oracles import direct_sum, rotated
from test_liealg import _random_algebras
from test_specseq import edited_pairing

from cartanss.cli import (
    ModelFileError,
    load_model_document,
    load_model_file,
    machine_document,
    main,
    model_to_document,
    save_model_file,
)
from cartanss.library import (
    MODEL_NAMES,
    get_model,
    heisenberg_lie,
    heisenberg_model,
    mutated_jacobi_lie,
    random_trivial_product,
    rescaled_su2_lie,
    su2_lie,
)
from cartanss.liealg import LieData, all_multi_indices, validate_lie
from cartanss.model import (
    MAX_AMBIENT_DIM,
    MAX_TOTAL_DEGREE,
    BasicComplex,
    EquivariantModel,
    max_total_degree,
    size_error,
)
from cartanss import cli, qlinalg, specseq, verify
from cartanss.reports import CertificateError, shown
from cartanss.verify import Analysis

HOPF_DOC = {
    "name": "hopf",
    "lie": {"n": 1},
    "basic": {
        "generators": [
            {"name": "1", "degree": 0},
            {"name": "v", "degree": 2},
        ],
        "euler": [[1, 1, 2, 1]],
    },
}


def write_doc(tmp_path, doc, fname="model.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_model_document_round_trips_the_library():
    for name in MODEL_NAMES:
        model = get_model(name).model
        doc = model_to_document(model)
        again = load_model_document(doc)
        assert again == model, name


def test_sample_models_round_trip_through_documents():
    files = sorted((Path(__file__).resolve().parent.parent / "sample_models").glob("*.json"))
    assert len(files) >= 4
    for f in files:
        model = load_model_document(json.loads(f.read_text()), f.stem)
        assert load_model_document(model_to_document(model)) == model, f.name


def test_sparse_constants_round_trip_through_documents():
    """Bracket-completed random algebras, su(2) turned by a rotation and
    su(2) + su(2), each over a point and over a circle."""
    algebras = [
        LieData.from_structure_constants(
            L.n, {slot: v for slot, v in L.c if slot[0] < slot[1]}, completion="bracket")
        for L in _random_algebras(random.Random(20261105), 40, 5)
    ]
    algebras += [rotated(su2_lie(), 0, 2, Fraction(3, 5), Fraction(4, 5)),
                 direct_sum(su2_lie(), su2_lie())]
    bases = (BasicComplex.build([("1", 0)]), BasicComplex.build([("1", 0), ("a", 1)]))
    for L in algebras:
        for basic in bases:
            model = EquivariantModel("sparse", L, basic)
            assert load_model_document(model_to_document(model)) == model, L
    assert sum(bool(L.c) for L in algebras) > 20


def test_save_and_load_model_file(tmp_path):
    for spec in (("weighted_hopf", 5), ("group_torus", 3)):
        model = get_model(*spec).model
        path = str(tmp_path / f"{spec[0]}.json")
        save_model_file(model, path)
        assert load_model_file(path) == model


def test_document_uses_one_bracket_representative_per_orbit():
    doc = model_to_document(get_model("group_su2").model)
    entries = doc["lie"]["c"]
    assert all(a < b for a, b, _, _ in entries)
    # su(2) has three orbits under bracket antisymmetry
    assert sorted((a, b, k) for a, b, k, _ in entries) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 3, 1),
    ]


def test_export_requires_bracket_antisymmetry():
    lopsided = LieData(2, [((1, 2, 1), 1)])
    model = EquivariantModel("bad", lopsided, BasicComplex.build([("1", 0)]))
    with pytest.raises(ValueError):
        model_to_document(model)


def test_export_refuses_a_diagonal_constant():
    # c[1][1][2] is its own bracket partner: written as no entry, it would
    # load back as the valid abelian algebra
    diagonal = LieData(2, [((1, 1, 2), 1)])
    checks = {c.name: c.passed for c in validate_lie(diagonal).checks}
    assert not checks["bracket antisymmetry"] and not checks["full antisymmetry"]
    model = EquivariantModel("diagonal", diagonal, BasicComplex.build([("1", 0)]))
    with pytest.raises(ValueError, match="bracket-antisymmetric"):
        model_to_document(model)


def test_loader_rejects_malformed_documents():
    cases = [
        ({"lie": {"n": 1}}, "basic"),                       # missing key
        ({"lie": {"n": 1}, "basic": {}, "x": 1}, "unknown key 'x'"),
        ({"lie": {"n": 0}, "basic": {"generators": [{"name": "1", "degree": 0}]}}, "n"),
        (
            {"lie": {"n": 1}, "basic": {"generators": [], "eulr": []}},
            "unknown key 'eulr'",
        ),
        (
            {
                "lie": {"n": 2, "c": [[1, 2, 1, "1/2"], [2, 1, 1, "-1/2"]]},
                "basic": {"generators": [{"name": "1", "degree": 0}]},
            },
            "duplicate",
        ),
        (
            {
                "lie": {"n": 1, "c": [[1, 1, 1, 1]]},
                "basic": {"generators": [{"name": "1", "degree": 0}]},
            },
            "bracket indices",
        ),
        (
            {
                "lie": {"n": 1},
                "basic": {"generators": [{"name": "1", "degree": 0}], "euler": [[2, 1, 1, 1]]},
            },
            "euler",
        ),
        (
            {
                "lie": {"n": 1},
                "basic": {"generators": [{"name": "1", "degree": 0.5}]},
            },
            "degree",
        ),
        (
            {
                "lie": {"n": 1},
                "basic": {
                    "generators": [{"name": "1", "degree": 0}],
                    "d_hor": [[1, 1, 0.25]],
                },
            },
            "rational",
        ),
        ({"lie": {"n": 1, "c": 5}, "basic": {"generators": [{"name": "1", "degree": 0}]}},
         "lie.c: expected a list"),
        (
            {"lie": {"n": 1}, "basic": {"generators": [{"name": "1", "degree": 0}], "d_hor": 7}},
            "basic.d_hor: expected a list",
        ),
        (
            {"lie": {"n": 1}, "basic": {"generators": [{"name": "1", "degree": 0}], "euler": None}},
            "basic.euler: expected a list",
        ),
    ]
    for doc, fragment in cases:
        with pytest.raises(ModelFileError) as err:
            load_model_document(doc)
        assert fragment in str(err.value).lower() or fragment in str(err.value), doc


def test_rationals_accept_ints_and_strings():
    doc = {
        "lie": {"n": 1},
        "basic": {
            "generators": [{"name": "1", "degree": 0}, {"name": "v", "degree": 2}],
            "euler": [[1, 1, 2, "3/7"]],
        },
    }
    model = load_model_document(doc)
    assert model.basic.euler_entries[0][3] == __import__("fractions").Fraction(3, 7)


def euler_doc(value):
    return {"lie": {"n": 1}, "basic": {
        "generators": [{"name": "1", "degree": 0}, {"name": "v", "degree": 2}],
        "euler": [[1, 1, 2, value]]}}


def test_rational_strings_are_signed_digits_over_digits(tmp_path, capsys):
    accepted = (("-3/7", Fraction(-3, 7)), ("+12", Fraction(12)), ("0006/4", Fraction(3, 2)))
    for text, want in accepted:
        assert load_model_document(euler_doc(text)).basic.euler_entries[0][3] == want
    # Fraction() alone takes decimals and exponents; "1e6000000" took seconds to parse
    for text in ("1e6000000", "1.5", " 3/7", "3/-7", "1_000", "\u0663", "1/0", ""):
        path = write_doc(tmp_path, euler_doc(text))
        assert main(["validate", path]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("parse error: basic.euler[0]: cannot parse rational"), (text, err)


def test_json_integers_past_the_digit_limit_are_parse_errors(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(euler_doc(0)).replace("2, 0]", "2, " + "7" * 5000 + "]"))
    for command in ("validate", "pages"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "not valid JSON" in err, err
    path.write_text('{"lie": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["validate", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_a_repeated_json_key_is_a_parse_error_naming_the_key(tmp_path, capsys):
    """json.load alone keeps the last value of a repeated key: a second name
    would rename the model, and a second euler list would drop the first."""
    one = json.dumps(euler_doc(1))
    texts = {
        "'name'": '{"name": "x", "name": "y", ' + one[1:],
        "'euler'": one[:-2] + ', "euler": []}}',
        "'degree'": one.replace('"degree": 0', '"degree": 0, "degree": 1'),
    }
    path = tmp_path / "model.json"
    for key, text in texts.items():
        path.write_text(text)
        for command in ("validate", "pages"):
            assert main([command, str(path)]) == 2, (key, command)
            err = capsys.readouterr().err
            assert err == f"parse error: {shown(str(path))}: repeated key {key}\n", err
    # the same keys in different objects are not repeats
    path.write_text(one)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()


def test_a_rational_past_the_digit_limit_is_a_short_parse_error(tmp_path, capsys):
    """Fraction() would refuse such a value with a message that repeats every
    digit; the loader refuses it first, naming the field, and cuts any value
    it echoes."""
    limit = sys.get_int_max_str_digits()
    assert limit and load_model_document(euler_doc("7" * limit)).basic.euler_entries
    for value in ("7" * (limit + 700), "1/" + "3" * (limit + 700), "-" + "0" * limit + "1/2",
                  ["7"] * 10000):
        path = write_doc(tmp_path, euler_doc(value))
        assert main(["pages", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: basic.euler[0]: ") and len(err.encode()) < 300, err
        assert "set_int_max_str_digits" not in err
    doc = euler_doc(1)
    doc["basic"]["euler"][0][1] = 10 ** (limit - 1)  # an index out of range
    assert main(["pages", write_doc(tmp_path, doc)]) == 2
    assert len(capsys.readouterr().err.encode()) < 300


def test_validate_exit_codes(tmp_path, capsys):
    good = write_doc(tmp_path, HOPF_DOC, "hopf.json")
    assert main(["validate", good]) == 0
    out = capsys.readouterr().out
    assert "[ok] jacobi identity" in out
    assert "bidegree (2,0) component" in out
    assert out.strip().endswith("hopf: valid")

    bad = write_doc(tmp_path, model_to_document(heisenberg_model()), "heis.json")
    assert main(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] full antisymmetry" in out
    assert "INVALID" in out

    broken = write_doc(tmp_path, {"lie": {"n": 1}, "basic": {"eulr": []}}, "broken.json")
    assert main(["validate", broken]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err

    not_a_list = dict(HOPF_DOC, basic=dict(HOPF_DOC["basic"], euler=None))
    assert main(["pages", write_doc(tmp_path, not_a_list, "null.json")]) == 2
    assert capsys.readouterr().err == "parse error: basic.euler: expected a list, got NoneType\n"

    assert main(["validate", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("key, entries, message", [
    ("d_hor", [[1, 2, 1], [2, 1, 1], [1, 2, "-1/2"]], "basic.d_hor[2]: duplicate entry [1, 2]"),
    ("euler", [[1, 1, 2, 1], [1, 1, 2, 1]], "basic.euler[1]: duplicate entry [1, 1, 2]"),
])
def test_a_duplicated_basic_entry_is_named_by_its_position_and_file_indices(
        tmp_path, capsys, key, entries, message):
    doc = dict(HOPF_DOC, basic=dict(HOPF_DOC["basic"], **{key: entries}))
    assert main(["validate", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_degree_violations_are_validation_failures_not_parse_errors(tmp_path, capsys):
    doc = {
        "lie": {"n": 1},
        "basic": {
            "generators": [{"name": "1", "degree": 0}, {"name": "v", "degree": 2}],
            "d_hor": [[2, 1, 1]],
        },
    }
    path = write_doc(tmp_path, doc)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] degree bookkeeping" in out


def test_pages_machine_output(tmp_path, capsys):
    path = write_doc(tmp_path, HOPF_DOC)
    assert main(["pages", path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stabilization"] == 3
    assert doc["e_infinity"] == {"0,0": 1, "2,1": 1}
    assert doc["abutment"]["passed"] is True
    assert doc["e2_check"]["verdict"] == "isomorphism"
    assert doc["total_cohomology"] == [1, 0, 0, 1]
    assert doc["basic_cohomology"] == [1, 0, 1]
    assert doc["transgression"]["0,1"] == [["1"]] or doc["transgression"]["0,1"] == [["-1"]]
    rs = [p["r"] for p in doc["pages"]]
    assert rs == [0, 1, 2, 3]


def test_pages_max_r_truncation(tmp_path, capsys):
    path = write_doc(tmp_path, HOPF_DOC)
    assert main(["pages", path, "--max-r", "1", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [p["r"] for p in doc["pages"]] == [0, 1]
    assert main(["pages", path, "--max-r", "-1"]) == 2


def test_pages_on_invalid_model(tmp_path, capsys):
    doc = model_to_document(heisenberg_model())
    path = write_doc(tmp_path, doc)
    assert main(["pages", path]) == 1
    err = capsys.readouterr().err
    assert "INVALID, no pages computed" in err


PAGE_HEADER = re.compile(r"^page E_(\d+)")
CELL_ROW = re.compile(r"^  (\d+)  (\d+)  (\d+)\s+(\d+)$")


def parse_table_pages(text):
    pages = {}
    current = None
    for line in text.splitlines():
        m = PAGE_HEADER.match(line)
        if m:
            current = int(m.group(1))
            pages[current] = {}
            continue
        if current is None:
            continue
        m = CELL_ROW.match(line)
        if m:
            p, q, d, rk = map(int, m.groups())
            pages[current][f"{p},{q}"] = (d, rk)
        elif not line.startswith("  "):
            current = None
    return pages


def test_table_and_machine_agree(tmp_path, capsys):
    path = write_doc(tmp_path, HOPF_DOC)
    main(["pages", path, "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    main(["pages", path])
    table = capsys.readouterr().out
    parsed = parse_table_pages(table)
    for page_doc in doc["pages"]:
        r = page_doc["r"]
        cells = parsed[r]
        assert page_doc["dims"] == {k: v[0] for k, v in cells.items()}
        for key, (d, rk) in cells.items():
            assert page_doc["d_ranks"].get(key, 0) == rk
    assert f"stabilization: r = {doc['stabilization']}" in table
    assert f"total cohomology dims: {doc['total_cohomology']}" in table
    assert f"basic cohomology dims: {doc['basic_cohomology']}" in table
    for pq, mat in doc["transgression"].items():
        if mat and mat[0]:
            p, q = map(int, pq.split(","))
            assert f"({p},{q}) -> ({p + 2},{q - 1}): {mat}" in table


def test_examples_list(capsys):
    assert main(["examples", "--list"]) == 0
    out = capsys.readouterr().out
    for name in MODEL_NAMES:
        assert name in out


def test_examples_run_every_default_card(capsys):
    for name in MODEL_NAMES:
        assert main(["examples", "--run", name]) == 0, name
        out = capsys.readouterr().out
        assert out.strip().endswith(": pass")


def test_examples_run_with_parameters(capsys):
    assert main(["examples", "--run", "weighted_hopf:5"]) == 0
    capsys.readouterr()
    assert main(["examples", "--run", "group_torus:3"]) == 0
    capsys.readouterr()
    assert main(["examples", "--run", "weighted_hopf:0"]) == 2
    assert "nonzero integer" in capsys.readouterr().err
    assert main(["examples", "--run", "hopf:3"]) == 2
    capsys.readouterr()
    assert main(["examples", "--run", "weighted_hopf:x"]) == 2
    assert "integer" in capsys.readouterr().err
    assert main(["examples", "--run", "nope"]) == 2
    assert "unknown model name" in capsys.readouterr().err


def test_a_card_parameter_past_the_digit_limit_is_a_short_usage_error(capsys):
    assert main(["examples", "--run", "group_torus:" + "7" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: parameter must be an integer: '777")
    assert len(err.encode()) < 300, len(err)


def test_a_long_card_name_is_a_short_usage_error(capsys):
    assert main(["examples", "--run", "x" * 3000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown model name: 'xxx")
    assert len(err.encode()) < 300, len(err)


def test_a_long_max_r_is_a_short_usage_error(capsys):
    path = str(Path(__file__).resolve().parent.parent / "sample_models" / "hopf.json")
    with pytest.raises(SystemExit) as exc:
        main(["pages", path, "--max-r", "7" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-r: invalid int value: '777" in err
    assert len(err.encode()) < 300, len(err)
    # a short value is echoed whole, as argparse's own int check does
    with pytest.raises(SystemExit):
        main(["pages", path, "--max-r", "5x"])
    assert capsys.readouterr().err.endswith("argument --max-r: invalid int value: '5x'\n")


@pytest.mark.parametrize("text", ["1_0", " 3", "٣", "３"])
def test_integers_are_ascii_digits_only(capsys, text):
    """A card parameter and --max-r take an optional sign and ASCII digits,
    as model files do: int() alone would read an underscore, a space, an
    Arabic-Indic or a fullwidth digit."""
    assert main(["examples", "--run", f"group_torus:{text}"]) == 2
    assert capsys.readouterr().err == f"usage error: parameter must be an integer: {text!r}\n"
    path = str(Path(__file__).resolve().parent.parent / "sample_models" / "hopf.json")
    with pytest.raises(SystemExit) as exc:
        main(["pages", path, "--max-r", text])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument --max-r: invalid int value: {text!r}\n")
    # a sign is still read, and -1 reaches the range check
    assert main(["examples", "--run", "group_torus:+2"]) == 0
    capsys.readouterr()
    assert main(["pages", path, "--max-r", "-1"]) == 2
    assert capsys.readouterr().err == "usage error: --max-r must be >= 0\n"


def test_examples_needs_exactly_one_mode(capsys):
    assert main(["examples"]) == 2
    capsys.readouterr()
    assert main(["examples", "--list", "--run", "hopf"]) == 2


def test_examples_machine_format(capsys):
    assert main(["examples", "--run", "kronecker", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert {c["name"]: c["passed"] for c in doc["checks"]}["E_2 dims"] is True
    assert doc["report"]["stabilization"] == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_a_second_main_call_builds_no_argument_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._parser.cache_clear()
    usage = []
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        usage.append(capsys.readouterr().err)
        # the parser and its three subcommands, built by the first call only
        assert len(built) == 4
    assert main(["examples", "--list"]) == 0
    assert "hopf" in capsys.readouterr().out
    assert len(built) == 4
    assert usage[0] == usage[1] and usage[0].startswith("usage: cartanss ")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cartanss", "examples", "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "hopf" in proc.stdout


COUNTED = (
    ("specseq", "cartan_filtration"),
    ("liealg", "validate_lie"),
    ("model", "validate_model"),
    ("specseq", "second_page"),
    ("specseq", "persistence_pairing"),
    ("verify", "_e2_frames"),
)


def count_calls(monkeypatch, counted=COUNTED):
    """Wrap every module-namespace name bound to a counted function; name -> call args."""
    import importlib

    modules = [importlib.import_module("cartanss")] + [
        importlib.import_module(f"cartanss.{m}")
        for m in ("cli", "library", "liealg", "model", "qlinalg", "specseq", "verify")
    ]
    calls = {}
    for layer, fname in counted:
        original = getattr(importlib.import_module(f"cartanss.{layer}"), fname)
        calls[fname] = []

        def counted(*args, _fn=original, _log=calls[fname], **kwargs):
            _log.append(args)
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("source", ["sample_models/hopf.json", "group_torus:3"])
def test_pages_computes_every_stage_once(tmp_path, monkeypatch, capsys, source):
    if source.endswith(".json"):
        path = str(Path(__file__).resolve().parent.parent / source)
    else:
        name, _, param = source.partition(":")
        path = str(tmp_path / "model.json")
        save_model_file(get_model(name, int(param)).model, path)
    calls = count_calls(monkeypatch)
    assert main(["pages", path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [len(calls[f]) for f in ("cartan_filtration", "validate_lie", "validate_model",
                                     "persistence_pairing", "second_page",
                                     "_e2_frames")] == [1, 1, 1, 1, 1, 1]
    # the pairing gives pages 0 .. stabilization, and page 2's cells are read off it
    assert [page["r"] for page in doc["pages"]] == list(range(doc["stabilization"] + 1))


def test_examples_run_computes_the_algebra_cohomology_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, (("qlinalg", "graded_cohomology"),))
    assert main(["examples", "--run", "group_su2", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    # basic_cohomology only: the Lie realization check and the card read
    # the algebra's cohomology by ranks alone
    assert len(calls["graded_cohomology"]) == 1


def test_examples_run_computes_every_stage_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch)
    assert main(["examples", "--run", "group_torus:3", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert {f: len(c) for f, c in calls.items()} == {
        "cartan_filtration": 1, "validate_lie": 1, "validate_model": 1,
        "second_page": 1, "persistence_pairing": 1, "_e2_frames": 1}
    assert [page["r"] for page in doc["report"]["pages"]] == [0, 1, 2]


def test_examples_run_trivial_product_validates_once(monkeypatch, capsys):
    """The card builds no validation of its own, so the report validates once."""
    calls = count_calls(monkeypatch)
    assert main(["examples", "--run", "trivial_product", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert (len(calls["validate_lie"]), len(calls["validate_model"])) == (1, 1)


def test_machine_document_writes_the_bytes_of_json_dumps(monkeypatch, capsys):
    """The writer's text is json.dumps(indent=2) of what it writes, at every
    max_r and at a card's indent.  test_output_digests.py and
    test_reference_digests.py pin its bytes on their models."""
    rng = random.Random(20261022)
    samples = sorted((Path(__file__).resolve().parent.parent / "sample_models").glob("*.json"))
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [model for model in map(load_model_file, map(str, samples))
               if Analysis(model).valid]
    models += [sphere(k) for k in range(1, 5)]
    models += [random_trivial_product(rng, tag=f"j{i}").model for i in range(10)]
    hopf = get_model("hopf").model
    models.append(EquivariantModel("\"\\/\n\u00e9\u2603\U0001d11e", hopf.lie, hopf.basic))
    for model in models:
        an = Analysis(model)
        for max_r in (None, *range(an.stabilization + 2)):
            chunks, card = [], []
            machine_document(an, max_r, chunks.append)
            out = "".join(chunks)
            doc = json.loads(out)
            assert out == json.dumps(doc, indent=2), (model.name, max_r)
            assert doc["name"] == model.name
            shown = an.stabilization if max_r is None else min(max_r, an.stabilization)
            assert [page["r"] for page in doc["pages"]] == list(range(shown + 1))
            machine_document(an, max_r, card.append, "  ")
            assert "{\n  \"report\": " + "".join(card) + "\n}" == json.dumps(
                {"report": doc}, indent=2), (model.name, max_r)
    for name in MODEL_NAMES:
        assert main(["examples", "--run", name, "--format", "machine"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", name
    # a failed E_2 check has no transgression: the one empty section
    monkeypatch.setattr(verify, "_lie_realization_ok", lambda lie, inv: False)
    chunks = []
    machine_document(Analysis(hopf), None, chunks.append)
    out = "".join(chunks)
    assert json.loads(out)["transgression"] == {}
    assert out == json.dumps(json.loads(out), indent=2)


# trivial_product's card, unlike hopf's, reads no transgression among its checks
@pytest.mark.parametrize("plant, card", [("dropped pair", "hopf"),
                                         ("escaping tensor", "hopf"),
                                         ("unsolvable d_2", "hopf"),
                                         ("unsolvable d_2", "trivial_product")])
def test_a_certificate_failure_writes_nothing_to_stdout(tmp_path, monkeypatch, capsys,
                                                        plant, card):
    """A CertificateError in the frames' class reads, in the d_2 rank check
    or in the transgression, the last stage, leaves stdout empty in both
    commands.  Hopf's one pair, dropped, leaves d_2 rank 0 in the pairing
    where the frames read 1."""
    if plant == "dropped pair":
        edited_pairing(monkeypatch, 0)
    elif plant == "escaping tensor":
        monkeypatch.setattr(specseq.WindowCell, "class_of", lambda cell, x, dx=None: None)
    else:
        def unsolvable(*args):
            raise ValueError("planted")

        monkeypatch.setattr(verify, "solve_columns", unsolvable)
    path = str(tmp_path / "model.json")
    save_model_file(get_model(card).model, path)
    for argv in (["pages", path, "--format", "machine"],
                 ["examples", "--run", card, "--format", "machine"]):
        with pytest.raises(CertificateError):
            main(argv)
        assert capsys.readouterr().out == "", argv


def test_a_dropped_pair_fails_the_abutment_of_the_report_and_the_card(tmp_path, monkeypatch,
                                                                        capsys):
    """Page 2 is read off the pairing, so a pairing with one of group_su2's
    pairs of gap 0 left out leaves its column alive at (0, 1), where no
    tensor frame reaches it, and counts it in E_infinity: `pages` reports
    the failed E_2 check and abutment with no transgression, and `examples
    --run` fails its card."""
    edited_pairing(monkeypatch, 0)
    path = str(tmp_path / "model.json")
    save_model_file(get_model("group_su2").model, path)
    assert main(["pages", path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["e2_check"]["verdict"], doc["transgression"]) == ("mismatch", {})
    assert [row["match"] for row in doc["abutment"]["rows"]] == [True, False, False, True]
    assert main(["examples", "--run", "group_su2", "--format", "machine"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False and doc["report"]["abutment"]["passed"] is False


@pytest.mark.parametrize("source", ["sample_models/hopf.json", "group_torus:3"])
def test_pages_builds_each_total_matrix_once(tmp_path, monkeypatch, capsys, source):
    if source.endswith(".json"):
        path = str(Path(__file__).resolve().parent.parent / source)
    else:
        name, _, param = source.partition(":")
        path = str(tmp_path / "model.json")
        save_model_file(get_model(name, int(param)).model, path)
    top = max_total_degree(load_model_file(path))
    calls = count_calls(monkeypatch, (("model", "total_columns"),))
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    # the filtration reads each degree's d column-sparse once, and the
    # abutment's rank count reuses those columns
    assert sorted(args[1] for args in calls["total_columns"]) == list(range(top + 1))


def test_validation_alone_builds_no_filtration_and_no_page(tmp_path, monkeypatch, capsys):
    valid = write_doc(tmp_path, HOPF_DOC, "hopf.json")
    invalid = write_doc(tmp_path, model_to_document(heisenberg_model()), "heis.json")
    calls = count_calls(monkeypatch)
    for argv, code in ((["validate", valid], 0), (["validate", invalid], 1),
                       (["pages", invalid], 1)):
        assert main(argv) == code, argv
    capsys.readouterr()
    assert {f: len(c) for f, c in calls.items()} == {
        "cartan_filtration": 0, "validate_lie": 3, "validate_model": 3, "second_page": 0,
        "persistence_pairing": 0, "_e2_frames": 0}


def test_one_analysis_builds_each_stage_once(monkeypatch):
    model = get_model("group_su2").model
    calls = count_calls(monkeypatch, COUNTED + (("model", "total_columns"),))
    an = Analysis(model)
    assert an.abutment.passed and an.e2.passed and an.transgression
    assert an.frames.page2 is an.page2
    assert sorted(args[1] for args in calls["total_columns"]) == list(
        range(max_total_degree(model) + 1))
    # the filtration is gated on validation, so each validator runs once
    assert {f: len(calls[f]) for f in ("cartan_filtration", "_e2_frames", "validate_lie",
                                       "validate_model", "persistence_pairing",
                                       "second_page")} == {
        "cartan_filtration": 1, "_e2_frames": 1, "validate_lie": 1, "validate_model": 1,
        "persistence_pairing": 1, "second_page": 1}
    # E_infinity is the pairing's summary at stabilization
    assert [s.r for s in an.pages] == list(range(an.stabilization + 1))
    assert an.stable is an.pages[-1] and an.stable.r == an.stabilization


@pytest.mark.parametrize("model", [
    heisenberg_model(),
    EquivariantModel("mutant", mutated_jacobi_lie(), BasicComplex.build([("1", 0)])),
])
def test_analysis_of_an_invalid_model_raises_and_builds_no_filtration(monkeypatch, model):
    calls = count_calls(monkeypatch)
    an = Analysis(model)
    failed = [c.line() for c in an.lie_validation.failures() + an.model_validation.failures()]
    assert failed
    with pytest.raises(ValueError, match="invalid model") as err:
        an.abutment
    assert str(err.value).splitlines()[1:] == failed
    assert (len(calls["cartan_filtration"]), len(calls["second_page"]),
            len(calls["persistence_pairing"])) == (0, 0, 0)


def _eliminations_inside(monkeypatch, *function_names):
    """Log, for every elimination, whether one of function_names is on the call stack.

    qlinalg eliminates in three places: `_reduced` (the row reduction of
    Matrix.rref and of every sparse_kernel), sparse_rank and the
    class read Quotient.class_of, which reduces a vector through an echelon.
    A sparse_kernel given no nonzero row eliminates nothing and calls no
    `_reduced`, so it is not logged.
    """
    log = []

    def logged(run):
        def wrapper(*args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in function_names:
                frame = frame.f_back
            log.append(frame is not None)
            return run(*args)
        return wrapper

    monkeypatch.setattr(qlinalg, "_reduced", logged(qlinalg._reduced))
    monkeypatch.setattr(qlinalg.Quotient, "class_of", logged(qlinalg.Quotient.class_of))
    rank = logged(qlinalg.sparse_rank)
    for module in (qlinalg, verify):
        monkeypatch.setattr(module, "sparse_rank", rank)
    return log


@pytest.mark.parametrize("spec, eliminates", [(("group_torus", 4), False),
                                              (("group_su2", None), True)])
def test_invariants_are_eliminated_only_where_coadjoint_is_nonzero(
        tmp_path, monkeypatch, capsys, spec, eliminates):
    model = get_model(*spec).model
    path = str(tmp_path / "model.json")
    save_model_file(model, path)
    eliminations = _eliminations_inside(monkeypatch, "invariant_subcomplex")
    calls = count_calls(monkeypatch, (("liealg", "invariant_subcomplex"),))
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    assert len(calls["invariant_subcomplex"]) == 1
    # the frames' ranks and the two cohomologies; page 2 eliminates nothing
    assert len(eliminations) >= 10
    # every coadjoint matrix of an abelian algebra is zero: Lambda^q is invariant
    assert any(eliminations) is eliminates


@pytest.mark.parametrize("spec, eliminates", [(("group_torus", 4), False),
                                              (("group_su2", None), True)])
def test_zero_differentials_are_not_eliminated(tmp_path, monkeypatch, capsys, spec, eliminates):
    path = str(tmp_path / "model.json")
    save_model_file(get_model(*spec).model, path)
    # basic_cohomology takes each degree's kernel and quotient inside
    # graded_cohomology, and the Lie realization check reads ranks of delta
    eliminations = _eliminations_inside(monkeypatch, "graded_cohomology", "_lie_realization_ok")
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    assert len(eliminations) > 5
    # every delta of an abelian algebra and d_hor of a point are zero maps
    assert any(eliminations) is eliminates


def test_each_kernel_basis_runs_one_elimination(tmp_path, monkeypatch, capsys):
    """Every kernel, of the basic cohomology and the invariants, is one
    sparse_kernel, which runs the forward pass `_forward` of the elimination
    once: on su(2) acting on itself and on su(2) + su(2) over a circle."""
    models = [get_model("group_su2").model,
              EquivariantModel("su2_pair_circle", direct_sum(su2_lie(), su2_lie()),
                               BasicComplex.build([("1", 0), ("a", 1)]))]
    inside = []
    forward = qlinalg._forward

    def logged(rows):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "sparse_kernel":
            frame = frame.f_back
        inside.append(frame is not None)
        return forward(rows)

    monkeypatch.setattr(qlinalg, "_forward", logged)
    calls = count_calls(monkeypatch, (("qlinalg", "sparse_kernel"),))
    for i, model in enumerate(models):
        path = str(tmp_path / f"model{i}.json")
        save_model_file(model, path)
        assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    # a kernel given no nonzero row (a zero block) eliminates nothing
    eliminating = [rows for rows, _ in calls["sparse_kernel"] if any(rows)]
    assert len(eliminating) >= 5
    assert sum(inside) == len(eliminating)


@pytest.mark.parametrize("source", ["group_su2", "random"])
def test_pages_calls_no_dense_linear_algebra(tmp_path, monkeypatch, capsys, source):
    """The report path reduces sparse columns only: Matrix.rref is the dense
    row reduction, for the tests."""
    if source == "random":
        model = random_trivial_product(random.Random(20261110), tag="random").model
    else:
        model = get_model(source).model
    path = str(tmp_path / "model.json")
    save_model_file(model, path)
    calls = {"rref": []}
    rref = qlinalg.Matrix.rref
    monkeypatch.setattr(qlinalg.Matrix, "rref",
                        lambda self: calls["rref"].append(self) or rref(self))
    assert main(["pages", path, "--format", "machine"]) == 0
    transgression = json.loads(capsys.readouterr().out)["transgression"]
    assert calls["rref"] == []
    # the random card's transgression inverts four frames
    assert sum(map(bool, transgression.values())) == (4 if source == "random" else 0)
    # the counter is live
    qlinalg.Matrix.of([[1]]).rref()
    assert len(calls["rref"]) == 1


FIXTURE_FAILURES = {
    heisenberg_lie: [
        "[FAIL] full antisymmetry: c[1][3][2] != -c[1][2][3] "
        "(structure constants are not ad-invariant)",
    ],
    mutated_jacobi_lie: [
        "[FAIL] full antisymmetry: c[1][3][1] != -c[1][1][3] "
        "(structure constants are not ad-invariant)",
        "[FAIL] jacobi identity: cyclic sum is -1 at (a,b,e,k)=(1,2,3,3)",
        "[FAIL] delta squared: delta^2(chi[3]) != 0",
        "[FAIL] delta squared: delta^2(chi[3]) != 0",
        "[FAIL] bidegree (0,2) component: fails on 1 (x) chi[3] (bidegree (0,1))",
        "[FAIL] total differential squared: fails on 1 (x) chi[3] (bidegree (0,1))",
    ],
    rescaled_su2_lie: [
        "[FAIL] full antisymmetry: c[2][3][1] != -c[2][1][3] "
        "(structure constants are not ad-invariant)",
    ],
}


@pytest.mark.parametrize("fixture", list(FIXTURE_FAILURES), ids=lambda f: f.__name__)
def test_invalid_algebra_fixtures_fail_the_same_named_identities(tmp_path, capsys, fixture):
    path = str(tmp_path / "model.json")
    save_model_file(EquivariantModel("mutant", fixture(), BasicComplex.build([("1", 0)])), path)
    want = FIXTURE_FAILURES[fixture]
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert [line.strip() for line in out.splitlines() if "[FAIL]" in line] == want
    assert main(["pages", path]) == 1
    err = capsys.readouterr().err
    assert [line.strip() for line in err.splitlines() if "[FAIL]" in line] == want
    assert err.strip().endswith("mutant: INVALID, no pages computed")


DEEP_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from cartanss.cli import main

    path = sys.argv[1]
    for argv in (["pages", path], ["validate", path]):
        start = time.perf_counter()
        print(main(argv), time.perf_counter() - start)
    """
)


def test_models_above_the_total_degree_budget_exit_2_at_once(tmp_path):
    path = write_doc(tmp_path, {"name": "deep", "lie": {"n": 1}, "basic": {
        "generators": [{"name": "1", "degree": 0}, {"name": "v", "degree": 1000000}]}})
    proc = subprocess.run([sys.executable, "-c", DEEP_SCRIPT, path],
                          capture_output=True, text=True, env=source_env(), timeout=60)
    results = [line.split() for line in proc.stdout.splitlines()]
    assert [rc for rc, _ in results] == ["2", "2"], proc.stderr
    # without the budget, the filtration alone runs over 10^6 degrees and never returns
    assert all(float(seconds) < 1 for _, seconds in results)
    lines = proc.stderr.splitlines()
    assert lines == [
        "input error: model too large: total degree 1000001 "
        f"(top basic degree 1000000 + lie.n 1) exceeds the limit {MAX_TOTAL_DEGREE}"] * 2


def sphere(k):
    """S^(2k+1) over CP^k: basic generators in degrees 0, 2, ..., 2k and an Euler chain."""
    basic = BasicComplex.build([("1", 0)] + [(f"v{j}", 2 * j) for j in range(1, k + 1)],
                               euler=[(1, j - 1, j, 1) for j in range(1, k + 1)])
    return EquivariantModel(f"sphere_{2 * k + 1}", LieData.abelian(1), basic)


@pytest.mark.parametrize("model, per_page, pages", [
    # one model past the benchmark's S^25: 21 even degrees p, q = 0 or 1;
    # d_2 kills all but two spots, so E_3 is E_infinity: pages 0 .. 3
    (sphere(20), 2 * 21, 4),
    # a torus acting on itself has B = B^0, so only the spots (0, q); E_2 is E_infinity
    (get_model("group_torus", 8).model, 9, 3),
])
def test_pages_build_cells_only_on_the_e0_support(tmp_path, monkeypatch, capsys,
                                                   model, per_page, pages):
    path = str(tmp_path / "model.json")
    save_model_file(model, path)
    cells = []
    built = specseq.second_page

    def counted_page(*args):
        pg = built(*args)
        cells.append(len(pg))
        return pg

    monkeypatch.setattr(verify, "second_page", counted_page)
    assert main(["pages", path, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pages"]) == pages
    # page 2 is the one page with cells; the full triangle of spots (p, m)
    # would be 1 + 2 + ... + (top + 1)
    assert cells == [per_page]


def test_total_degree_budget_admits_every_card_and_benchmark_model():
    sphere_25 = BasicComplex.build([("1", 0)] + [(f"v{j}", 2 * j) for j in range(1, 13)])
    models = [get_model(name).model for name in MODEL_NAMES]
    models.append(EquivariantModel("sphere_25", LieData.abelian(1), sphere_25))
    models.append(get_model("group_torus", 8).model)
    for model in models:
        assert max_total_degree(model) * 4 <= MAX_TOTAL_DEGREE, model.name
        assert size_error(model.basic.num_generators, model.lie.n,
                          model.basic.max_degree) is None, model.name
    assert size_error(1, 1, MAX_TOTAL_DEGREE - 1) is None
    assert "total degree 129" in size_error(1, 1, MAX_TOTAL_DEGREE)


def test_pages_on_a_torus_builds_no_image_and_ranks_no_total_column(tmp_path, monkeypatch,
                                                                    capsys):
    """group_torus:7 has d = 0: after `pages`, its image table is built and
    empty, the d^2 certificate composed no path, and the total ranks ranked
    no column."""
    path = str(tmp_path / "model.json")
    save_model_file(get_model("group_torus", 7).model, path)
    calls = count_calls(monkeypatch, (("model", "total_columns"), ("model", "_square_failures"),
                                      ("model", "_add")))
    ranked = []
    rank = qlinalg.sparse_rank
    monkeypatch.setattr(qlinalg, "sparse_rank", lambda v: (ranked.append(len(v)), rank(v))[1])
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    assert calls["total_columns"][0][0]._images == {}
    assert len(calls["_square_failures"]) == 1 and calls["_add"] == []
    assert len(ranked) == 8 and not any(ranked)


def test_pages_builds_each_delta_once_per_multi_index(tmp_path, monkeypatch, capsys):
    model = get_model("group_su2").model
    path = str(tmp_path / "model.json")
    save_model_file(model, path)
    calls = count_calls(monkeypatch, (("liealg", "_derive_delta"),))
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    built = sorted(args[1] for args in calls["_derive_delta"])
    # validate_lie, validate_model, total_columns and the E_2 check all read the table
    assert built == sorted(all_multi_indices(model.lie.n))


def source_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


OUTSIDE_Z2_SCRIPT = textwrap.dedent(
    """
    from fractions import Fraction

    from cartanss import specseq

    # Q -> Q -> Q with both maps the identity: d^2 != 0, so at (0,1) the
    # boundary e_0 has d of it at level 0, not in F^2
    one = (((0, Fraction(1)),),)  # the identity Q -> Q, column by column
    broken = specseq.FilteredComplex((1, 1, 1), (one, one, ((),)),
                                     ((1, 0), (1, 0, 0), (1, 0, 0, 0)))
    cells = specseq.second_page(broken, specseq.persistence_pairing(broken))
    print(cells[(0, 1)].class_of({0: Fraction(1)}), cells[(0, 1)].class_of({1: Fraction(1)}))
    print(cells[(0, 2)].class_of({0: Fraction(3)}))
    """
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_vector_outside_z_two_is_refused_under_python_O(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", OUTSIDE_Z2_SCRIPT],
                          capture_output=True, text=True, env=source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    # (0,1): d escapes F^2, then an entry past the window; (0,2) is in Z_2
    assert proc.stdout.splitlines() == ["None None", "{0: Fraction(3, 1)}"]


OVERSIZED_SCRIPT = textwrap.dedent(
    """
    import resource, sys
    from cartanss.cli import main

    # a regression here would enumerate 2^40 multi-indices: fail fast instead
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
    path = sys.argv[1]
    for argv in (["pages", path], ["validate", path], ["examples", "--run", "group_torus:40"]):
        print(main(argv))
    """
)


def test_oversized_models_exit_2_before_enumerating(tmp_path):
    path = write_doc(tmp_path, {"name": "huge", "lie": {"n": 40},
                                "basic": {"generators": [{"name": "1", "degree": 0}]}})
    proc = subprocess.run([sys.executable, "-c", OVERSIZED_SCRIPT, path],
                          capture_output=True, text=True, env=source_env(), timeout=60)
    assert proc.stdout.split() == ["2", "2", "2"], proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 3
    assert all("ambient dimension 1 x 2^40" in line and f"limit {MAX_AMBIENT_DIM}" in line
               for line in lines)
    assert "Traceback" not in proc.stderr


def test_lie_n_is_refused_before_the_structure_constants_exist(tmp_path):
    # 2^(10^6) monomials would never fit: refuse from the counts, before the algebra
    path = write_doc(tmp_path, {"name": "huge", "lie": {"n": 10**6, "c": [[1, 10**6, 2, 1]]},
                                "basic": {"generators": [{"name": "1", "degree": 0}]}})
    proc = subprocess.run([sys.executable, "-c", OVERSIZED_SCRIPT, path],
                          capture_output=True, text=True, env=source_env(), timeout=60)
    assert proc.stdout.split() == ["2", "2", "2"], proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[:2] == ["input error: model too large: ambient dimension 1 x 2^1000000 "
                         "(basic generators x multi-indices) exceeds the limit "
                         f"{MAX_AMBIENT_DIM}"] * 2


@pytest.mark.parametrize("doc, limit", [
    ({"lie": {"n": 10**4000}, "basic": {"generators": [{"name": "1", "degree": 0}]}},
     MAX_AMBIENT_DIM),
    ({"lie": {"n": 1}, "basic": {"generators": [{"name": "1", "degree": 10**4000}]}}, 128),
])
def test_an_oversized_count_is_refused_with_a_short_message(tmp_path, capsys, doc, limit):
    assert main(["validate", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: model too large: ") and len(err.encode()) < 300, err
    assert f"exceeds the limit {limit}" in err


@pytest.mark.parametrize("source", ["sample_models/hopf.json", "group_su2"])
def test_pages_builds_no_model_element_and_each_basis_once(tmp_path, monkeypatch, capsys,
                                                            source):
    if source.endswith(".json"):
        path = str(Path(__file__).resolve().parent.parent / source)
    else:
        path = str(tmp_path / "model.json")
        save_model_file(get_model(source).model, path)
    top = max_total_degree(load_model_file(path))
    calls = count_calls(monkeypatch, (("model", "monomial_basis"),))
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    # validation, the total columns, the E_2 frames and the algebra's
    # cohomology all read the model's and the algebra's tables, which list
    # each degree's basis once
    assert sorted(args[1] for args in calls["monomial_basis"]) == list(range(top + 2))


def test_an_unreadable_path_is_named_once_and_cut(tmp_path, capsys):
    """The OS error's text repeats the path; the message names it once, cut."""
    for path in ("x" * 3000 + ".json", str(tmp_path / ("y" * 200)) + "/" + "z" * 3000):
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: cannot read ") and len(err.encode()) < 300, err
    assert main(["pages", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.endswith(": No such file or directory\n")


@pytest.mark.parametrize("command", ["pages", "validate"])
def test_a_closed_pipe_ends_quietly_with_exit_1(command):
    path = str(Path(__file__).resolve().parent.parent / "sample_models" / "torus_d3.json")
    proc = subprocess.Popen([sys.executable, "-m", "cartanss", command, path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env())
    proc.stdout.close()  # the reader is gone before the first line is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
