"""The engine's scalar rule and the guard that keeps floats out of it.

Every sparse value the engine hands on (echelon tails, classes, page 2's
tails, frame, d_2 and transgression columns, the model's and the
algebra's tables) is
an int where it is integral and a Fraction where it is not, never a float
or a bool; every entry of a dense Matrix is a Fraction.  An int / int in
the package would give a float, so true division appears at one site only,
qlinalg._ratio.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction as Q
from pathlib import Path

from oracles import dense_basis, dense_reps, direct_sum, f_matrix, rotated
from test_specseq import sphere_model

from cartanss.cli import load_model_file
from cartanss.library import MODEL_NAMES, get_model, random_trivial_product, su2_lie
from cartanss.liealg import all_multi_indices
from cartanss.model import BasicComplex, EquivariantModel, _image
from cartanss.verify import Analysis

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cartanss"


def scalar_models():
    """Every card, every valid sample model, S^3..S^9, su(2) + su(2) over a
    circle, as given and turned by two rotations mixing the summands, and
    10 random trivial products."""
    rng = random.Random(20261104)
    models = [get_model(name).model for name in MODEL_NAMES]
    samples = [load_model_file(str(path))
               for path in sorted((ROOT / "sample_models").glob("*.json"))]
    models += [m for m in samples if Analysis(m).valid]
    models += [sphere_model(k) for k in range(1, 5)]
    pair = direct_sum(su2_lie(), su2_lie())
    circle = BasicComplex.build([("1", 0), ("a", 1)])
    models.append(EquivariantModel("su2_pair", pair, circle))
    turned = rotated(rotated(pair, 0, 3, Q(3, 5), Q(4, 5)), 1, 5, Q(5, 13), Q(12, 13))
    models.append(EquivariantModel("su2_pair_turned", turned, circle))
    models += [random_trivial_product(rng, tag=f"q{i}").model for i in range(10)]
    return models


def echelon_values(space):
    return [a for tail in space.echelon().values() for a in tail.values()]


def sparse_values(an: Analysis) -> dict[str, list]:
    """Every sparse value of one model's whole Analysis, by where it was read."""
    model = an.model
    lie, basic = model.lie, model.basic
    out = {
        "tables": [c for terms in basic.d_hor_table.values() for _, c in terms]
        + [c for terms in basic.euler_table.values() for _, c in terms]
        + [v for terms in lie.delta_gens for _, v in terms]
        + [v for terms in lie.coadjoint_gens.values() for _, v in terms]
        + [v for g in range(basic.num_generators) for I in all_multi_indices(lie.n)
           for _, v in _image(model, g, I)],
        "d columns": [a for cols in an.filtration.d_columns for col in cols for _, a in col],
        "page 2 tails": [a for cell in an.page2.values() for tail in cell.tails.values()
                         for a in tail.values()],
    }
    frames = an.frames
    out["frame columns"] = [a for cols in frames.f_columns.values()
                            for col in cols for a in col.values()]
    out["d_2 columns"] = [a for cols in frames.d2_columns.values()
                          for col in cols for a in col.values()]
    out["basic cohomology"] = [a for coh in frames.basic for a in echelon_values(coh.space)]
    out["invariant rows"] = [a for sub in frames.invariants for a in echelon_values(sub)]
    out["transgression columns"] = [a for t in an.transgression.values()
                                    for col in t.columns for a in col.values()]
    return out


def dense_matrices(an: Analysis):
    """Every dense Matrix the oracle readers build from the report's frames."""
    frames = an.frames
    yield from (f_matrix(frames, (c.p, c.q)) for c in frames.cells)
    yield from (dense_reps(coh) for coh in frames.basic)
    yield from (dense_basis(sub) for sub in frames.invariants)


def test_every_sparse_value_is_an_int_or_a_fraction_and_every_dense_entry_a_fraction():
    seen = {"int": 0, "Fraction": 0, "non-integral Fraction": 0, "dense entries": 0,
            "transgressions": 0, "invariant row entries": 0}
    for model in scalar_models():
        an = Analysis(model)
        assert an.e2.passed, model.name
        found = sparse_values(an)
        for where, values in found.items():
            bad = [v for v in values if type(v) not in (int, Q) or not v]
            assert not bad, (model.name, where, bad[:3])
            seen["int"] += sum(type(v) is int for v in values)
            seen["Fraction"] += sum(type(v) is Q for v in values)
            seen["non-integral Fraction"] += sum(type(v) is Q and v.denominator > 1
                                                 for v in values)
        seen["invariant row entries"] += len(found["invariant rows"])
        for m in dense_matrices(an):
            assert all(type(x) is Q for row in m.data for x in row), model.name
            seen["dense entries"] += m.rows * m.cols
        seen["transgressions"] += sum(any(t.columns) for t in an.transgression.values())
    assert min(seen.values()) >= 4, seen


def test_an_integral_model_builds_no_fraction_in_its_pages_frames_or_e2_check(monkeypatch):
    """On group_su2 every value is an integer: the pairing, page 2, the frames
    and the E_2 check construct no Fraction at all, not even as the result of
    arithmetic, which builds its result through Fraction.__new__."""
    an = Analysis(get_model("group_su2").model)
    assert an.valid
    an.filtration
    made = []
    new = Q.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counted)
    assert [s.dims for s in an.pages] and an.frames.cells and an.e2.passed
    assert made == []
    # the counter is live: a sum of two Fractions builds its result
    assert Q(1, 2) + Q(1, 3) == Q(5, 6)
    assert len(made) >= 3


def true_divisions(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every `/` and `/=` in source."""
    sites = []
    stack: list[str] = []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            stack.append(node.name)
            self.generic_visit(node)
            stack.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_BinOp(self, node):
            if isinstance(node.op, ast.Div):
                sites.append((".".join(stack), node.lineno))
            self.generic_visit(node)

        visit_AugAssign = visit_BinOp

    Visitor().visit(ast.parse(source))
    return sites


def test_true_division_occurs_only_in_qlinalg_ratio():
    """int / int is a float, so the package divides in one place, _ratio,
    which returns ints and Fractions only."""
    sites = [(path.stem, func) for path in sorted(SRC.glob("*.py"))
             for func, _ in true_divisions(path.read_text(encoding="utf-8"))]
    assert sites == [("qlinalg", "_ratio")]
    # the guard sees a division wherever it is
    assert true_divisions("def f(a, b):\n    def g():\n        a /= b\n    return a / b\n") == [
        ("f.g", 3), ("f", 4)]
