"""Command line front end: validate model files, print pages, run library cards.

Model files are JSON:

    {
      "name": "hopf",
      "lie": {"n": 1, "c": [[a, b, k, "num/den"], ...]},
      "basic": {
        "generators": [{"name": "1", "degree": 0}, ...],
        "d_hor": [[src, dst, "num/den"], ...],
        "euler": [[i, src, dst, "num/den"], ...]
      }
    }

All indices are 1-based.  Rationals are integers or strings of ASCII digits,
optionally signed and optionally followed by "/den"; floats, decimal strings
and exponents are refused.  Each structure-constant entry [a,b,k,v] fixes its
bracket antisymmetry orbit (c[b][a][k] = -v is filled in); listing an orbit
twice is a parse error.  Unknown keys anywhere are parse errors.

Each command reads one verify.Analysis of its model, which computes each
stage once, on first use; machine_document and render_table render it.

Exit codes: 0 success, 1 a validation or expectation failure, 2 parse or
usage error, or a model with more than model.MAX_AMBIENT_DIM monomials or a
total degree above model.MAX_TOTAL_DEGREE (refused from the counts in the
file, before the algebra is built or any monomial is listed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .library import DESCRIPTIONS, MODEL_NAMES, get_model
from .liealg import LieData
from .model import BasicComplex, EquivariantModel, size_error
from .reports import ValidationReport, shown
from .verify import Analysis


class ModelFileError(Exception):
    """Malformed model file: wrong keys, types, indices, or rationals."""


class ModelTooLargeError(Exception):
    """A well-formed model above model.size_error's limits, refused from its counts."""


def _fail(where: str, msg: str):
    raise ModelFileError(f"{where}: {msg}")


# Fraction() alone would also take decimals and exponents ("1e6000000"),
# whose parse time grows steeply with the exponent.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?", re.ASCII)


def _as_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        _fail(where, f"rationals must be integers or 'num/den' strings, got {shown(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            _fail(where, f"cannot parse rational {shown(value)}: expected digits or 'num/den'")
        # int() refuses more digits than this, with a message that repeats
        # them all; 0 (and an interpreter without the limit) means none
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and len(value) > limit:
            num, _, den = value.lstrip("+-").partition("/")
            for part, digits in (("numerator", num), ("denominator", den)):
                if len(digits) > limit:
                    _fail(where, f"rational {shown(value)} has a {part} of {len(digits)} "
                                 f"digits, more than {limit}")
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            _fail(where, f"cannot parse rational {shown(value)}: {exc}")
    _fail(where, f"rationals must be integers or 'num/den' strings, got {shown(value)}")


def _as_index(value, where: str, low: int, high: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(where, f"expected an integer index, got {shown(value)}")
    if not low <= value <= high:
        _fail(where, f"index {shown(value)} out of range {low}..{high}")
    return value


def _check_keys(obj, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            _fail(where, f"unknown key {shown(key)}")
    for key in required:
        if key not in obj:
            _fail(where, f"missing key {key!r}")


def _list_at(obj: dict, key: str, where: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        _fail(where, f"expected a list, got {type(value).__name__}")
    return value


def load_model_document(doc, default_name: str = "model") -> EquivariantModel:
    """The model of a parsed model file.

    Raises ModelFileError on malformed input and ModelTooLargeError on a
    model above the size limits, the latter before the algebra is built.
    """
    _check_keys(doc, "top level", ("lie", "basic"), ("name",))
    name = doc.get("name", default_name)
    if not isinstance(name, str) or not name:
        _fail("name", "must be a nonempty string")

    lie_doc = doc["lie"]
    _check_keys(lie_doc, "lie", ("n",), ("c",))
    n = lie_doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        _fail("lie.n", f"must be a positive integer, got {shown(n)}")
    entries = []
    seen_orbits = set()
    for idx, entry in enumerate(_list_at(lie_doc, "c", "lie.c")):
        where = f"lie.c[{idx}]"
        if not isinstance(entry, list) or len(entry) != 4:
            _fail(where, "expected [a, b, k, value]")
        a = _as_index(entry[0], where, 1, n)
        b = _as_index(entry[1], where, 1, n)
        k = _as_index(entry[2], where, 1, n)
        if a == b:
            _fail(where, f"bracket indices must differ, got a = b = {a}")
        orbit = (min(a, b), max(a, b), k)
        if orbit in seen_orbits:
            _fail(where, f"duplicate antisymmetry orbit for ({a},{b},{k})")
        seen_orbits.add(orbit)
        entries.append((a, b, k, _as_rational(entry[3], where)))

    basic_doc = doc["basic"]
    _check_keys(basic_doc, "basic", ("generators",), ("d_hor", "euler"))
    gens_doc = basic_doc["generators"]
    if not isinstance(gens_doc, list) or not gens_doc:
        _fail("basic.generators", "expected a nonempty list")
    generators = []
    for idx, gd in enumerate(gens_doc):
        where = f"basic.generators[{idx}]"
        _check_keys(gd, where, ("name", "degree"))
        gname, deg = gd["name"], gd["degree"]
        if not isinstance(gname, str) or not gname:
            _fail(where, "name must be a nonempty string")
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
            _fail(where, f"degree must be a non-negative integer, got {shown(deg)}")
        generators.append((gname, deg))
    ng = len(generators)

    d_entries = []
    for idx, entry in enumerate(_list_at(basic_doc, "d_hor", "basic.d_hor")):
        where = f"basic.d_hor[{idx}]"
        if not isinstance(entry, list) or len(entry) != 3:
            _fail(where, "expected [src, dst, value]")
        src = _as_index(entry[0], where, 1, ng)
        dst = _as_index(entry[1], where, 1, ng)
        d_entries.append((src - 1, dst - 1, _as_rational(entry[2], where)))
    e_entries = []
    for idx, entry in enumerate(_list_at(basic_doc, "euler", "basic.euler")):
        where = f"basic.euler[{idx}]"
        if not isinstance(entry, list) or len(entry) != 4:
            _fail(where, "expected [i, src, dst, value]")
        i = _as_index(entry[0], where, 1, n)
        src = _as_index(entry[1], where, 1, ng)
        dst = _as_index(entry[2], where, 1, ng)
        e_entries.append((i, src - 1, dst - 1, _as_rational(entry[3], where)))

    try:
        basic = BasicComplex.build(generators, d_hor=d_entries, euler=e_entries)
    except ValueError as exc:
        _fail("basic", str(exc))
    # checked before the algebra exists: its delta table has n entries
    too_large = size_error(basic.num_generators, n, basic.max_degree)
    if too_large:
        raise ModelTooLargeError(too_large)
    lie = LieData.from_structure_constants(n, entries, completion="bracket")
    return EquivariantModel(name, lie, basic)


def load_model_file(path: str) -> EquivariantModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # str(exc) repeats the path: name it once, cut
        reason = exc.strerror or type(exc).__name__
        raise ModelFileError(f"cannot read {shown(path)}: {reason}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past int's digit limit
        raise ModelFileError(f"{shown(path)} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelFileError(f"{shown(path)} is not valid JSON: nested too deeply") from None
    stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return load_model_document(doc, default_name=stem or "model")


def _rat_str(v: Fraction) -> str | int:
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def model_to_document(model: EquivariantModel) -> dict:
    """Serialize back to the model-file format (inverse of load_model_document)."""
    L = model.lie
    c_entries = []
    for (a, b, k), v in L.c:
        # a diagonal constant (a = b) is its own partner and never passes
        if v != -L.bracket_coeff(b, a, k):
            raise ValueError(
                "cannot serialize: structure constants are not bracket-antisymmetric"
            )
        if a < b:
            c_entries.append([a, b, k, _rat_str(v)])
    basic = model.basic
    return {
        "name": model.name,
        "lie": {"n": L.n, "c": c_entries},
        "basic": {
            "generators": [
                {"name": name, "degree": deg} for name, deg in basic.generators
            ],
            "d_hor": [
                [src + 1, dst + 1, _rat_str(v)] for src, dst, v in basic.d_hor_entries
            ],
            "euler": [
                [i, src + 1, dst + 1, _rat_str(v)]
                for i, src, dst, v in basic.euler_entries
            ],
        },
    }


def save_model_file(model: EquivariantModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_document(model), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# one Analysis, two renderings


def _pq_key(pq) -> str:
    return f"{pq[0]},{pq[1]}"


def _shown_pages(an: Analysis, max_r: int | None) -> list:
    return [s for s in an.pages if max_r is None or s.r <= max_r]


def _check_lines(an: Analysis) -> list[str]:
    return an.lie_validation.lines() + an.model_validation.lines()


def _validation_document(rep: ValidationReport) -> dict:
    return {
        "passed": rep.passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in rep.checks],
    }


def machine_document(an: Analysis, max_r: int | None) -> dict:
    """The report of a valid model as one JSON-ready document; pages past max_r are left out."""
    return {
        "name": an.model.name,
        "validation": {
            "lie": _validation_document(an.lie_validation),
            "model": _validation_document(an.model_validation),
        },
        "pages": [
            {
                "r": s.r,
                "dims": {_pq_key(pq): d for pq, d in sorted(s.dims.items())},
                "d_ranks": {_pq_key(pq): rk for pq, rk in sorted(s.d_ranks.items())},
            }
            for s in _shown_pages(an, max_r)
        ],
        "stabilization": an.stabilization,
        "e_infinity": {_pq_key(pq): d for pq, d in sorted(an.stable.dims.items())},
        "abutment": {
            "passed": an.abutment.passed,
            "rows": [
                {
                    "degree": row.degree,
                    "e_infinity": row.stable_total,
                    "total": row.cohomology_dim,
                    "match": row.ok,
                }
                for row in an.abutment.rows
            ],
        },
        "e2_check": {
            "verdict": an.e2.verdict,
            "lie_realization": an.e2.lie_realization_ok,
            "cells": [
                {
                    "p": c.p,
                    "q": c.q,
                    "product_dim": c.product_dim,
                    "e2_dim": c.e2_dim,
                    "f_rank": c.f_rank,
                    "ok": c.ok,
                }
                for c in an.e2.cells
            ],
        },
        "transgression": {
            _pq_key(pq): [[str(x) for x in row] for row in m.data]
            for pq, m in sorted(an.transgression.items())
        },
        "total_cohomology": list(an.total_cohomology),
        "basic_cohomology": [h.dim for h in an.frames.basic],
    }


_quoted = json.encoder.encode_basestring_ascii


def json_text(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, without the pure-Python encoder.

    Strings, ints, bools, lists and dicts with string keys are written
    here; any other value goes through json.dumps, so one that JSON cannot
    hold still raises TypeError.
    """
    out: list[str] = []
    _emit(doc, "\n", out)
    return "".join(out)


def _emit(x, newline: str, out: list[str]) -> None:
    if isinstance(x, str):
        out.append(_quoted(x))
    elif x is True or x is False:
        out.append("true" if x else "false")
    elif type(x) is int:
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in x.items():
            out.append(sep + _quoted(key) + ": ")
            _emit(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in x:
            out.append(sep)
            _emit(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(x))


def render_table(an: Analysis, max_r: int | None) -> str:
    """The report of a valid model as aligned text; pages past max_r are left out."""
    out = [f"model: {an.model.name}"]
    out.extend(_check_lines(an))
    out.append("")
    for s in _shown_pages(an, max_r):
        note = "  (bigraded bookkeeping page)" if s.r < 2 else ""
        out.append(f"page E_{s.r}{note}")
        out.append("  p  q  dim  d_rank")
        for (p, q), d in sorted(s.dims.items()):
            rk = s.d_ranks.get((p, q), 0)
            out.append(f"  {p}  {q}  {d}    {rk}")
    out.append("")
    out.append(f"stabilization: r = {an.stabilization}")
    out.append("E_infinity cells:")
    out.append("  p  q  dim")
    for (p, q), d in sorted(an.stable.dims.items()):
        out.append(f"  {p}  {q}  {d}")
    out.append("")
    out.append("abutment:")
    out.append("  degree  e_infinity  total  match")
    for row in an.abutment.rows:
        out.append(
            f"  {row.degree}       {row.stable_total}           {row.cohomology_dim}"
            f"      {'yes' if row.ok else 'NO'}"
        )
    out.append(f"abutment: {'ok' if an.abutment.passed else 'FAIL'}")
    out.append("")
    out.append(f"tensor factorization verdict: {an.e2.verdict}")
    out.append("  p  q  product  e2  rankF  ok")
    for c in an.e2.cells:
        out.append(
            f"  {c.p}  {c.q}  {c.product_dim}        {c.e2_dim}   {c.f_rank}      "
            f"{'yes' if c.ok else 'NO'}"
        )
    out.append(
        f"invariant realization of algebra cohomology: "
        f"{'ok' if an.e2.lie_realization_ok else 'FAIL'}"
    )
    if an.transgression:
        out.append("")
        out.append("transgression d_2 in tensor bases:")
        for (p, q), m in sorted(an.transgression.items()):
            rows = [[str(x) for x in row] for row in m.data]
            out.append(f"  ({p},{q}) -> ({p + 2},{q - 1}): {rows}")
    out.append("")
    out.append(f"total cohomology dims: {list(an.total_cohomology)}")
    out.append(f"basic cohomology dims: {[h.dim for h in an.frames.basic]}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# commands


def _load_for_command(path: str) -> EquivariantModel | None:
    """The model in path, or None after reporting why it cannot be used (exit 2)."""
    try:
        return load_model_file(path)
    except ModelFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except ModelTooLargeError as exc:
        print(f"input error: {exc}", file=sys.stderr)
    return None


def cmd_validate(path: str) -> int:
    model = _load_for_command(path)
    if model is None:
        return 2
    an = Analysis(model)
    print("\n".join(_check_lines(an)))
    print(f"{model.name}: {'valid' if an.valid else 'INVALID'}")
    return 0 if an.valid else 1


def cmd_pages(path: str, max_r: int | None, fmt: str) -> int:
    model = _load_for_command(path)
    if model is None:
        return 2
    an = Analysis(model)
    if not an.valid:
        print("\n".join(_check_lines(an)), file=sys.stderr)
        print(f"{model.name}: INVALID, no pages computed", file=sys.stderr)
        return 1
    if fmt == "machine":
        print(json_text(machine_document(an, max_r)))
    else:
        print(render_table(an, max_r))
    return 0


def _run_card(spec: str, fmt: str) -> int:
    name, _, param_text = spec.partition(":")
    param = None
    if param_text:
        try:
            param = int(param_text)
        except ValueError:
            print(f"usage error: parameter must be an integer: {shown(param_text)}",
                  file=sys.stderr)
            return 2
    try:
        card = get_model(name, param)  # refuses a torus rank above the size limit
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    an = Analysis(card.model, card.validation)
    if not an.valid:
        print("\n".join(_check_lines(an)), file=sys.stderr)
        return 1
    exp = card.expected
    results = [
        ("validation", True),
        ("total cohomology", an.total_cohomology == tuple(exp.total_cohomology)),
        ("basic cohomology",
         tuple(h.dim for h in an.frames.basic) == tuple(exp.basic_cohomology)),
        ("E_2 dims", an.page2.dims() == dict(exp.e2_dims)),
        ("stabilization page", an.stabilization == exp.stabilization),
        ("abutment", an.abutment.passed),
        ("tensor factorization", an.e2.passed),
    ]
    if exp.d2_abs_at_01 is not None:
        entry = an.transgression.get((0, 1))
        good = (
            entry is not None
            and entry.shape == (1, 1)
            and abs(entry.entry(0, 0)) == exp.d2_abs_at_01
        )
        results.append(("transgression magnitude", good))
    ok = all(flag for _, flag in results)
    if fmt == "machine":
        print(json_text({
            "name": card.model.name,
            "checks": [{"name": n, "passed": f} for n, f in results],
            "passed": ok,
            "report": machine_document(an, None),
        }))
    else:
        print(f"card: {card.model.name} - {card.note}")
        for label, flag in results:
            print(f"  [{'ok' if flag else 'FAIL'}] {label}")
        print(f"{card.model.name}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_examples(list_flag: bool, run_spec: str | None, fmt: str) -> int:
    if list_flag == (run_spec is not None):
        print("usage error: choose exactly one of --list / --run", file=sys.stderr)
        return 2
    if list_flag:
        for name in MODEL_NAMES:
            print(f"{name:16} {DESCRIPTIONS[name]}")
        return 0
    return _run_card(run_spec, fmt)


def _int_arg(text: str) -> int:
    """An integer option's value; argparse names a refused one by its shown text."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="cartanss",
        description="Exact spectral sequences for invariant forms of locally free actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="run all validators on a model file")
    p_val.add_argument("file")

    p_pages = sub.add_parser("pages", help="compute pages, abutment and the tensor check")
    p_pages.add_argument("file")
    p_pages.add_argument("--max-r", type=_int_arg, default=None, dest="max_r")
    p_pages.add_argument("--format", choices=("table", "machine"), default="table")

    p_ex = sub.add_parser("examples", help="list or run the library cards")
    p_ex.add_argument("--list", action="store_true")
    p_ex.add_argument("--run", metavar="NAME[:param]")
    p_ex.add_argument("--format", choices=("table", "machine"), default="table")
    return parser


def main(argv=None) -> int:
    try:
        code = _dispatch(_parser().parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe early: end quietly, exit 1
        # Python's SIGPIPE recipe: the flush at exit then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _dispatch(args) -> int:
    if args.command == "validate":
        return cmd_validate(args.file)
    if args.command == "pages":
        if args.max_r is not None and args.max_r < 0:
            print("usage error: --max-r must be >= 0", file=sys.stderr)
            return 2
        return cmd_pages(args.file, args.max_r, args.format)
    if args.command == "examples":
        return cmd_examples(args.list, args.run, args.format)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
