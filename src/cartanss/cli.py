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
bracket antisymmetry orbit (c[b][a][k] = -v is filled in); listing an orbit,
or a d_hor or euler entry's indices, twice is a parse error.  Unknown keys
anywhere are parse errors.

Each command reads one verify.Analysis of its model, which computes each
stage once, on first use.  render_table writes it as text and
machine_document as JSON, json.dumps(doc, indent=2) of a fixed key order;
both write section by section, the transgression row by row, and only after
every stage they read is computed.

main reads a command line of the documented grammar with _plain_command, an
exact recognizer whose fields, where it accepts a line, equal those of
_parser().parse_args on it.  Every line it declines (help, usage errors and
any other form) goes to argparse, which is imported and built only then.

Exit codes: 0 success, 1 a validation or expectation failure, 2 parse or
usage error, or a model with more than model.MAX_AMBIENT_DIM monomials or a
total degree above model.MAX_TOTAL_DEGREE (refused from the counts in the
file, before the algebra is built or any monomial is listed).
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

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
# its integer part: int() alone would also take spaces, underscores and
# non-ASCII digits ("1_0", " 3", "٣")
_INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)


def _ascii_int(text: str) -> int:
    """int(text) for ASCII digits with an optional sign; ValueError for any other text."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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

    d_entries = {}
    for idx, entry in enumerate(_list_at(basic_doc, "d_hor", "basic.d_hor")):
        where = f"basic.d_hor[{idx}]"
        if not isinstance(entry, list) or len(entry) != 3:
            _fail(where, "expected [src, dst, value]")
        slot = (_as_index(entry[0], where, 1, ng), _as_index(entry[1], where, 1, ng))
        if slot in d_entries:
            _fail(where, f"duplicate entry {list(slot)}")
        d_entries[slot] = _as_rational(entry[2], where)
    e_entries = {}
    for idx, entry in enumerate(_list_at(basic_doc, "euler", "basic.euler")):
        where = f"basic.euler[{idx}]"
        if not isinstance(entry, list) or len(entry) != 4:
            _fail(where, "expected [i, src, dst, value]")
        slot = (_as_index(entry[0], where, 1, n), _as_index(entry[1], where, 1, ng),
                _as_index(entry[2], where, 1, ng))
        if slot in e_entries:
            _fail(where, f"duplicate entry {list(slot)}")
        e_entries[slot] = _as_rational(entry[3], where)

    try:
        basic = BasicComplex.build(
            generators,
            d_hor=[(src - 1, dst - 1, v) for (src, dst), v in d_entries.items()],
            euler=[(i, src - 1, dst - 1, v) for (i, src, dst), v in e_entries.items()])
    except ValueError as exc:
        _fail("basic", str(exc))
    # checked before the algebra exists: its delta table has n entries
    too_large = size_error(basic.num_generators, n, basic.max_degree)
    if too_large:
        raise ModelTooLargeError(too_large)
    lie = LieData.from_structure_constants(n, entries, completion="bracket")
    return EquivariantModel(name, lie, basic)


def _unique_keys(pairs: list) -> dict:
    """A JSON object of a model file as a dict; a key given twice is refused,
    where json.load alone would keep its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ModelFileError(f"repeated key {shown(key)}")
        out[key] = value
    return out


def load_model_file(path: str) -> EquivariantModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except ModelFileError as exc:
        raise ModelFileError(f"{shown(path)}: {exc}") from None
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


def _shown_pages(an: Analysis, max_r: int | None) -> list:
    return [s for s in an.pages if max_r is None or s.r <= max_r]


def _check_lines(an: Analysis) -> list[str]:
    return an.lie_validation.lines() + an.model_validation.lines()


_quoted = json.encoder.encode_basestring_ascii
_TRUTH = ("false", "true")


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """items, each JSON text, as json.dumps(indent=2) writes a list of them at
    pad's indent; with brackets "{}", items are an object's "key": value texts."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _cell_map(cells: dict, pad: str) -> str:
    """A {(p, q): int} map as the JSON object {"p,q": int}, keys in (p, q) order."""
    return _block([f'"{p},{q}": {v}' for (p, q), v in sorted(cells.items())], pad, "{}")


def _validation(rep: ValidationReport, pad: str) -> str:
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    checks = _block([f'{{\n{p3}"name": {_quoted(c.name)},\n{p3}"passed": {_TRUTH[c.passed]},'
                     f'\n{p3}"detail": {_quoted(c.detail)}\n{p2}}}' for c in rep.checks], p1)
    return f'{{\n{p1}"passed": {_TRUTH[rep.passed]},\n{p1}"checks": {checks}\n{pad}}}'


def machine_document(an: Analysis, max_r: int | None, write, pad: str = "") -> None:
    """Write the report of a valid model through write, section by section.

    The text is json.dumps(doc, indent=2) of the report's fixed schema,
    indented by pad past its first line and with no final newline; pages
    past max_r are left out.  Every stage it reads is computed before the
    first write, so a CertificateError writes nothing.
    """
    abutment, transgression, e2 = an.abutment, an.transgression, an.e2
    p1, p2, p3, p4 = (pad + "  " * k for k in range(1, 5))
    key = ",\n" + p1
    write(f'{{\n{p1}"name": {_quoted(an.model.name)}{key}"validation": {{'
          f'\n{p2}"lie": {_validation(an.lie_validation, p2)},'
          f'\n{p2}"model": {_validation(an.model_validation, p2)}\n{p1}}}')
    pages = _block([f'{{\n{p3}"r": {s.r},\n{p3}"dims": {_cell_map(s.dims, p3)},'
                    f'\n{p3}"d_ranks": {_cell_map(s.d_ranks, p3)}\n{p2}}}'
                    for s in _shown_pages(an, max_r)], p1)
    write(f'{key}"pages": {pages}{key}"stabilization": {an.stabilization}'
          f'{key}"e_infinity": {_cell_map(an.stable.dims, p1)}')
    rows = _block([f'{{\n{p4}"degree": {row.degree},\n{p4}"e_infinity": {row.stable_total},'
                   f'\n{p4}"total": {row.cohomology_dim},\n{p4}"match": {_TRUTH[row.ok]}\n{p3}}}'
                   for row in abutment.rows], p2)
    write(f'{key}"abutment": {{\n{p2}"passed": {_TRUTH[abutment.passed]},'
          f'\n{p2}"rows": {rows}\n{p1}}}')
    cells = _block([f'{{\n{p4}"p": {c.p},\n{p4}"q": {c.q},\n{p4}"product_dim": {c.product_dim},'
                    f'\n{p4}"e2_dim": {c.e2_dim},\n{p4}"f_rank": {c.f_rank},'
                    f'\n{p4}"ok": {_TRUTH[c.ok]}\n{p3}}}' for c in e2.cells], p2)
    write(f'{key}"e2_check": {{\n{p2}"verdict": {_quoted(e2.verdict)},'
          f'\n{p2}"lie_realization": {_TRUTH[e2.lie_realization_ok]},'
          f'\n{p2}"cells": {cells}\n{p1}}}{key}"transgression": ')
    opener = "{"
    for (p, q), t in sorted(transgression.items()):  # one write per matrix row
        write(f'{opener}\n{p2}"{p},{q}": ')
        opener, lead = ",", "["
        for i in range(t.rows):
            row = [f'"{col[i]}"' if i in col else '"0"' for col in t.columns]
            write(f"{lead}\n{p3}" + _block(row, p3))
            lead = ","
        write("[]" if lead == "[" else f"\n{p2}]")
    write(("{}" if opener == "{" else f"\n{p1}}}")
          + f'{key}"total_cohomology": {_block([str(h) for h in an.total_cohomology], p1)}'
          f'{key}"basic_cohomology": {_block([str(h.dim) for h in an.frames.basic], p1)}'
          f"\n{pad}}}")


def render_table(an: Analysis, max_r: int | None, write) -> None:
    """Write the report of a valid model as aligned text through write, section
    by section and with no final newline; pages past max_r are left out.  Every
    stage it reads is computed before the first write, so a CertificateError
    writes nothing."""
    abutment, transgression, e2 = an.abutment, an.transgression, an.e2
    write("\n".join([f"model: {an.model.name}", *_check_lines(an)]) + "\n")
    for s in _shown_pages(an, max_r):
        note = "  (bigraded bookkeeping page)" if s.r < 2 else ""
        write(f"\npage E_{s.r}{note}\n  p  q  dim  d_rank"
              + "".join(f"\n  {p}  {q}  {d}    {s.d_ranks.get((p, q), 0)}"
                        for (p, q), d in sorted(s.dims.items())))
    write(f"\n\nstabilization: r = {an.stabilization}\nE_infinity cells:\n  p  q  dim"
          + "".join(f"\n  {p}  {q}  {d}" for (p, q), d in sorted(an.stable.dims.items())))
    write("\n\nabutment:\n  degree  e_infinity  total  match"
          + "".join(f"\n  {row.degree}       {row.stable_total}           {row.cohomology_dim}"
                    f"      {'yes' if row.ok else 'NO'}" for row in abutment.rows)
          + f"\nabutment: {'ok' if abutment.passed else 'FAIL'}")
    write(f"\n\ntensor factorization verdict: {e2.verdict}\n  p  q  product  e2  rankF  ok"
          + "".join(f"\n  {c.p}  {c.q}  {c.product_dim}        {c.e2_dim}   {c.f_rank}      "
                    f"{'yes' if c.ok else 'NO'}" for c in e2.cells)
          + "\ninvariant realization of algebra cohomology: "
          + ("ok" if e2.lie_realization_ok else "FAIL"))
    if transgression:
        write("\n\ntransgression d_2 in tensor bases:")
    for (p, q), t in sorted(transgression.items()):  # one write per matrix row
        write(f"\n  ({p},{q}) -> ({p + 2},{q - 1}): ")
        lead = "["
        for i in range(t.rows):
            write(lead + "[" + ", ".join([f"'{col[i]}'" if i in col else "'0'"
                                          for col in t.columns]) + "]")
            lead = ", "
        write("[]" if lead == "[" else "]")
    write(f"\n\ntotal cohomology dims: {list(an.total_cohomology)}"
          f"\nbasic cohomology dims: {[h.dim for h in an.frames.basic]}")


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
    write = sys.stdout.write
    (machine_document if fmt == "machine" else render_table)(an, max_r, write)
    write("\n")
    return 0


def _run_card(spec: str, fmt: str) -> int:
    name, _, param_text = spec.partition(":")
    param = None
    if param_text:
        try:
            param = _ascii_int(param_text)
        except ValueError:
            print(f"usage error: parameter must be an integer: {shown(param_text)}",
                  file=sys.stderr)
            return 2
    try:
        card = get_model(name, param)  # refuses a torus rank above the size limit
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    an = Analysis(card.model)
    if not an.valid:
        print("\n".join(_check_lines(an)), file=sys.stderr)
        return 1
    exp = card.expected
    results = [
        ("validation", True),
        ("total cohomology", an.total_cohomology == tuple(exp.total_cohomology)),
        ("basic cohomology",
         tuple(h.dim for h in an.frames.basic) == tuple(exp.basic_cohomology)),
        ("E_2 dims", an.pages[2].dims == dict(exp.e2_dims)),
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
    # certified before the first write in both formats, though only the
    # machine report shows it
    an.transgression
    if fmt == "machine":
        checks = _block([f'{{\n      "name": {_quoted(label)},'
                         f'\n      "passed": {_TRUTH[flag]}\n    }}' for label, flag in results],
                        "  ")
        write = sys.stdout.write
        write(f'{{\n  "name": {_quoted(card.model.name)},\n  "checks": {checks},'
              f'\n  "passed": {_TRUTH[ok]},\n  "report": ')
        machine_document(an, None, write, "  ")
        write("\n}\n")
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


_FORMATS = ("table", "machine")


def _format_arg(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(f"not a format: {text!r}")
    return text


def _int_arg(text: str) -> int:
    """An integer option's value; argparse names a refused one by its shown text."""
    import argparse

    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process on the first command
    line that _plain_command declines, and reused by every later one."""
    import argparse

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
    p_pages.add_argument("--format", choices=_FORMATS, default="table")

    p_ex = sub.add_parser("examples", help="list or run the library cards")
    p_ex.add_argument("--list", action="store_true")
    p_ex.add_argument("--run", metavar="NAME[:param]")
    p_ex.add_argument("--format", choices=_FORMATS, default="table")
    return parser


# each command's count of FILEs, and its options' fields with their
# defaults and value readers (None for a flag), as _parser declares them
_GRAMMAR = {
    "validate": (1, {}),
    "pages": (1, {"--max-r": ("max_r", None, _ascii_int),
                  "--format": ("format", "table", _format_arg)}),
    "examples": (0, {"--list": ("list", False, None),
                     "--run": ("run", None, str),
                     "--format": ("format", "table", _format_arg)}),
}


def _plain_command(argv: list) -> SimpleNamespace | None:
    """The fields of a command line in the documented grammar, or None.

    It reads the command first, then its options and FILE in any order,
    each option spaced or with "=", the last of a repeated option winning.
    Anything else is None and left to argparse, which words all help and
    usage errors: an unknown or abbreviated option, "-h", "--", "-", a
    value that is empty, missing, refused or starts with "-", a token that
    is not a str, or a wrong count of FILEs.  Where it is not None, it
    equals _parser().parse_args(argv)'s fields.
    """
    if not argv or not all(isinstance(a, str) and a for a in argv) or argv[0] not in _GRAMMAR:
        return None
    nfiles, options = _GRAMMAR[argv[0]]
    fields = {"command": argv[0], **{f: default for f, default, _ in options.values()}}
    files = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            return None
        field, _, read = options[name]
        if read is None:  # a flag takes no value
            if eq:
                return None
            fields[field] = True
            continue
        if not eq:
            value = next(tokens, "")
        if not value or value.startswith("-"):
            return None
        try:
            fields[field] = read(value)
        except ValueError:
            return None
    if len(files) != nfiles:
        return None
    if nfiles:
        fields["file"] = files[0]
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = _dispatch(_plain_command(argv) or _parser().parse_args(argv))
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
