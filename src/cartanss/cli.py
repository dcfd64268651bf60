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

Exit codes: 0 success, 1 a validation or expectation failure, 2 parse or
usage error, or a model with more than model.MAX_AMBIENT_DIM monomials or a
total degree above model.MAX_TOTAL_DEGREE (refused from the counts in the
file, before the algebra is built or any monomial is listed).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .library import DESCRIPTIONS, MODEL_NAMES, get_model
from .liealg import LieData
from .model import (
    BasicComplex,
    EquivariantModel,
    size_error,
    total_cohomology,
    validate_model,
)
from .liealg import validate_lie
from .reports import ValidationReport
from .specseq import AbutmentReport, AbutmentRow, cartan_filtration, iter_pages, limit_page
from .verify import E2Report, _e2_frames, d2_transgression, e2_tensor_check


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
        _fail(where, f"rationals must be integers or 'num/den' strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            _fail(where, f"cannot parse rational {value!r}: expected digits or 'num/den'")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            _fail(where, f"cannot parse rational {value!r}: {exc}")
    _fail(where, f"rationals must be integers or 'num/den' strings, got {value!r}")


def _as_index(value, where: str, low: int, high: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(where, f"expected an integer index, got {value!r}")
    if not low <= value <= high:
        _fail(where, f"index {value} out of range {low}..{high}")
    return value


def _check_keys(obj, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            _fail(where, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            _fail(where, f"missing key {key!r}")


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
        _fail("lie.n", f"must be a positive integer, got {n!r}")
    entries = []
    seen_orbits = set()
    for idx, entry in enumerate(lie_doc.get("c", [])):
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
            _fail(where, f"degree must be a non-negative integer, got {deg!r}")
        generators.append((gname, deg))
    ng = len(generators)

    d_entries = []
    for idx, entry in enumerate(basic_doc.get("d_hor", [])):
        where = f"basic.d_hor[{idx}]"
        if not isinstance(entry, list) or len(entry) != 3:
            _fail(where, "expected [src, dst, value]")
        src = _as_index(entry[0], where, 1, ng)
        dst = _as_index(entry[1], where, 1, ng)
        d_entries.append((src - 1, dst - 1, _as_rational(entry[2], where)))
    e_entries = []
    for idx, entry in enumerate(basic_doc.get("euler", [])):
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
    # checked before the algebra exists: it stores a dense n x n x n array
    too_large = size_error(basic.num_generators, n, basic.max_degree)
    if too_large:
        raise ModelTooLargeError(too_large)
    lie = LieData.from_structure_constants(n, entries, completion="bracket")
    return EquivariantModel(name, lie, basic)


def load_model_file(path: str) -> EquivariantModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past int's digit limit
        raise ModelFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelFileError(f"{path} is not valid JSON: nested too deeply") from None
    stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return load_model_document(doc, default_name=stem or "model")


def _rat_str(v: Fraction) -> str | int:
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def model_to_document(model: EquivariantModel) -> dict:
    """Serialize back to the model-file format (inverse of load_model_document)."""
    L = model.lie
    c_entries = []
    for a in range(1, L.n + 1):
        for b in range(a + 1, L.n + 1):
            for k in range(1, L.n + 1):
                v = L.bracket_coeff(a, b, k)
                if v != -L.bracket_coeff(b, a, k):
                    raise ValueError(
                        "cannot serialize: structure constants are not bracket-antisymmetric"
                    )
                if v:
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
# pipeline report: one object, two renderings


@dataclass(frozen=True)
class PageSummary:
    r: int
    dims: dict
    d_ranks: dict


@dataclass(frozen=True)
class PipelineReport:
    name: str
    lie_validation: ValidationReport
    model_validation: ValidationReport
    pages: tuple[PageSummary, ...]
    stabilization: int
    einf_dims: dict
    abutment: AbutmentReport
    e2: E2Report
    transgression: dict
    total_cohomology: tuple[int, ...]
    basic_cohomology: tuple[int, ...]


def build_pipeline_report(
    model: EquivariantModel,
    max_r: int | None = None,
    lie_validation: ValidationReport | None = None,
    model_validation: ValidationReport | None = None,
) -> PipelineReport:
    """Full analysis of a validated model; callers must have validated first.

    Validation reports the caller already has are reused instead of being
    computed again.  Every page is built once: each is summarised as it is
    produced, and only page 2 (for the tensor frames) outlives the search
    for the stable page.
    """
    if lie_validation is None:
        lie_validation = validate_lie(model.lie)
    if model_validation is None:
        model_validation = validate_model(model)
    fc = cartan_filtration(model)
    summaries = []
    page2 = None

    def summarised(pages):
        nonlocal page2
        for pg in pages:
            ranks = {pq: rk for pq, rk in pg.dr_ranks().items() if rk}
            summaries.append(PageSummary(pg.r, pg.dims(), ranks))
            if pg.r == 2:
                page2 = pg
            yield pg

    stable, r_stab = limit_page(fc, summarised(iter_pages(fc)))
    last = r_stab if max_r is None else min(max_r, r_stab)
    hdims = total_cohomology(model, fc.d)
    sums = [0] * len(hdims)
    for (p, q), d in stable.dims().items():
        sums[p + q] += d
    abutment = AbutmentReport(
        tuple(AbutmentRow(k, sums[k], hdims[k]) for k in range(len(hdims))),
        r_stab,
    )
    frames = _e2_frames(model, page2)
    e2rep = e2_tensor_check(model, frames)
    trans = d2_transgression(model, frames) if e2rep.passed else {}
    return PipelineReport(
        name=model.name,
        lie_validation=lie_validation,
        model_validation=model_validation,
        pages=tuple(s for s in summaries if s.r <= last),
        stabilization=r_stab,
        einf_dims=stable.dims(),
        abutment=abutment,
        e2=e2rep,
        transgression=trans,
        total_cohomology=hdims,
        basic_cohomology=frames.basic.dims,
    )


def _pq_key(pq) -> str:
    return f"{pq[0]},{pq[1]}"


def machine_document(rep: PipelineReport) -> dict:
    return {
        "name": rep.name,
        "validation": {
            "lie": {
                "passed": rep.lie_validation.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in rep.lie_validation.checks
                ],
            },
            "model": {
                "passed": rep.model_validation.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in rep.model_validation.checks
                ],
            },
        },
        "pages": [
            {
                "r": s.r,
                "dims": {_pq_key(pq): d for pq, d in sorted(s.dims.items())},
                "d_ranks": {_pq_key(pq): rk for pq, rk in sorted(s.d_ranks.items())},
            }
            for s in rep.pages
        ],
        "stabilization": rep.stabilization,
        "e_infinity": {_pq_key(pq): d for pq, d in sorted(rep.einf_dims.items())},
        "abutment": {
            "passed": rep.abutment.passed,
            "rows": [
                {
                    "degree": row.degree,
                    "e_infinity": row.stable_total,
                    "total": row.cohomology_dim,
                    "match": row.ok,
                }
                for row in rep.abutment.rows
            ],
        },
        "e2_check": {
            "verdict": rep.e2.verdict,
            "lie_realization": rep.e2.lie_realization_ok,
            "cells": [
                {
                    "p": c.p,
                    "q": c.q,
                    "product_dim": c.product_dim,
                    "e2_dim": c.e2_dim,
                    "f_rank": c.f_rank,
                    "ok": c.ok,
                }
                for c in rep.e2.cells
            ],
        },
        "transgression": {
            _pq_key(pq): [[str(x) for x in row] for row in m.data]
            for pq, m in sorted(rep.transgression.items())
        },
        "total_cohomology": list(rep.total_cohomology),
        "basic_cohomology": list(rep.basic_cohomology),
    }


def render_table(rep: PipelineReport) -> str:
    out = [f"model: {rep.name}"]
    out.extend(rep.lie_validation.lines())
    out.extend(rep.model_validation.lines())
    out.append("")
    for s in rep.pages:
        note = "  (bigraded bookkeeping page)" if s.r < 2 else ""
        out.append(f"page E_{s.r}{note}")
        out.append("  p  q  dim  d_rank")
        for (p, q), d in sorted(s.dims.items()):
            rk = s.d_ranks.get((p, q), 0)
            out.append(f"  {p}  {q}  {d}    {rk}")
    out.append("")
    out.append(f"stabilization: r = {rep.stabilization}")
    out.append("E_infinity cells:")
    out.append("  p  q  dim")
    for (p, q), d in sorted(rep.einf_dims.items()):
        out.append(f"  {p}  {q}  {d}")
    out.append("")
    out.append("abutment:")
    out.append("  degree  e_infinity  total  match")
    for row in rep.abutment.rows:
        out.append(
            f"  {row.degree}       {row.stable_total}           {row.cohomology_dim}"
            f"      {'yes' if row.ok else 'NO'}"
        )
    out.append(f"abutment: {'ok' if rep.abutment.passed else 'FAIL'}")
    out.append("")
    out.append(f"tensor factorization verdict: {rep.e2.verdict}")
    out.append("  p  q  product  e2  rankF  ok")
    for c in rep.e2.cells:
        out.append(
            f"  {c.p}  {c.q}  {c.product_dim}        {c.e2_dim}   {c.f_rank}      "
            f"{'yes' if c.ok else 'NO'}"
        )
    out.append(
        f"invariant realization of algebra cohomology: "
        f"{'ok' if rep.e2.lie_realization_ok else 'FAIL'}"
    )
    if rep.transgression:
        out.append("")
        out.append("transgression d_2 in tensor bases:")
        for (p, q), m in sorted(rep.transgression.items()):
            rows = [[str(x) for x in row] for row in m.data]
            out.append(f"  ({p},{q}) -> ({p + 2},{q - 1}): {rows}")
    out.append("")
    out.append(f"total cohomology dims: {list(rep.total_cohomology)}")
    out.append(f"basic cohomology dims: {list(rep.basic_cohomology)}")
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
    lie_rep = validate_lie(model.lie)
    model_rep = validate_model(model)
    for line in lie_rep.lines():
        print(line)
    for line in model_rep.lines():
        print(line)
    ok = lie_rep.passed and model_rep.passed
    print(f"{model.name}: {'valid' if ok else 'INVALID'}")
    return 0 if ok else 1


def cmd_pages(path: str, max_r: int | None, fmt: str) -> int:
    model = _load_for_command(path)
    if model is None:
        return 2
    lie_rep = validate_lie(model.lie)
    model_rep = validate_model(model)
    if not (lie_rep.passed and model_rep.passed):
        for line in lie_rep.lines() + model_rep.lines():
            print(line, file=sys.stderr)
        print(f"{model.name}: INVALID, no pages computed", file=sys.stderr)
        return 1
    rep = build_pipeline_report(model, max_r, lie_rep, model_rep)
    if fmt == "machine":
        print(json.dumps(machine_document(rep), indent=2))
    else:
        print(render_table(rep))
    return 0


def _run_card(spec: str, fmt: str) -> int:
    name, _, param_text = spec.partition(":")
    param = None
    if param_text:
        try:
            param = int(param_text)
        except ValueError:
            print(f"usage error: parameter must be an integer: {param_text!r}", file=sys.stderr)
            return 2
    try:
        card = get_model(name, param)  # refuses a torus rank above the size limit
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    model = card.model
    lie_rep = validate_lie(model.lie)
    model_rep = validate_model(model)
    if not (lie_rep.passed and model_rep.passed):
        for line in lie_rep.lines() + model_rep.lines():
            print(line, file=sys.stderr)
        return 1
    results = [("validation", True)]
    rep = build_pipeline_report(model, None, lie_rep, model_rep)
    exp = card.expected
    results.append(
        ("total cohomology", rep.total_cohomology == tuple(exp.total_cohomology))
    )
    results.append(
        ("basic cohomology", rep.basic_cohomology == tuple(exp.basic_cohomology))
    )
    e2_page = next(s for s in rep.pages if s.r == 2)
    results.append(("E_2 dims", e2_page.dims == dict(exp.e2_dims)))
    results.append(("stabilization page", rep.stabilization == exp.stabilization))
    results.append(("abutment", rep.abutment.passed))
    results.append(("tensor factorization", rep.e2.passed))
    if exp.d2_abs_at_01 is not None:
        entry = rep.transgression.get((0, 1))
        good = (
            entry is not None
            and entry.shape == (1, 1)
            and abs(entry.entry(0, 0)) == exp.d2_abs_at_01
        )
        results.append(("transgression magnitude", good))
    ok = all(flag for _, flag in results)
    if fmt == "machine":
        print(
            json.dumps(
                {
                    "name": model.name,
                    "checks": [{"name": n, "passed": f} for n, f in results],
                    "passed": ok,
                    "report": machine_document(rep),
                },
                indent=2,
            )
        )
    else:
        print(f"card: {model.name} - {card.note}")
        for label, flag in results:
            print(f"  [{'ok' if flag else 'FAIL'}] {label}")
        print(f"{model.name}: {'pass' if ok else 'FAIL'}")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cartanss",
        description="Exact spectral sequences for invariant forms of locally free actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="run all validators on a model file")
    p_val.add_argument("file")

    p_pages = sub.add_parser("pages", help="compute pages, abutment and the tensor check")
    p_pages.add_argument("file")
    p_pages.add_argument("--max-r", type=int, default=None, dest="max_r")
    p_pages.add_argument("--format", choices=("table", "machine"), default="table")

    p_ex = sub.add_parser("examples", help="list or run the library cards")
    p_ex.add_argument("--list", action="store_true")
    p_ex.add_argument("--run", metavar="NAME[:param]")
    p_ex.add_argument("--format", choices=("table", "machine"), default="table")

    args = parser.parse_args(argv)
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
