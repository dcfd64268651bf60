"""The value types: read-only fields, equality over the compared fields only,
the Name(field=...) repr, and an import that generates no code for them.

Plain records are named tuples, so they also compare equal to the tuple of
their fields.  The other types keep state outside equality (derived tables,
caches, a quotient's window, a page's ranks, the frames' extras, a card's
expectations and validation) or compare in their own way.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cartanss.library import ExpectedResults, ModelCard, get_model
from cartanss.liealg import LieData
from cartanss.model import BasicComplex, EquivariantModel
from cartanss.qlinalg import Matrix, Quotient, Subspace, quotient_map
from cartanss.reports import CheckResult, ValidationReport
from cartanss.specseq import (
    AbutmentReport,
    AbutmentRow,
    FilteredComplex,
    PageSummary,
    Pairing,
    SpectralPage,
    persistence_pairing,
)
from cartanss.verify import Analysis, E2Cell, E2Frames, E2Report

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import cartanss, cartanss.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -S as well: a .pth file of the interpreter's site-packages may import either
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.fixture(scope="module")
def kronecker():
    card = get_model("kronecker")
    an = Analysis(card.model)
    assert an.e2.passed
    return card, an


def records(card, an):
    """(instance, one of its fields) for each named-tuple record."""
    return [
        (CheckResult("jacobi identity", True), "passed"),
        (an.model_validation, "checks"),
        (an.filtration, "dims"),
        (an.abutment.rows[0], "stable_total"),
        (an.abutment, "stabilization"),
        (an.e2.cells[0], "f_rank"),
        (an.e2, "verdict"),
        (an.pages[0], "dims"),
        (persistence_pairing(an.filtration), "pairs"),
    ]


def others(card, an):
    """(instance, one of its fields) for each type with its own __init__."""
    return [
        (Matrix.of([[1, Fraction(1, 2)]]), "cols"),
        (Subspace.full(2), "ambient_dim"),
        (an.page2.cells[(0, 0)], "window"),
        (an.page2, "ranks"),
        (an.frames, "f_columns"),
        (card.model.basic, "generators"),
        (card.model, "lie"),
        (card.model.lie, "c"),
        (card.expected, "e2_dims"),
        (card, "validation"),
    ]


def test_every_value_type_is_covered(kronecker):
    covered = {type(x) for x, _ in records(*kronecker) + others(*kronecker)}
    assert covered == {
        CheckResult, ValidationReport, Matrix, Subspace, Quotient, FilteredComplex,
        SpectralPage, AbutmentRow, AbutmentReport, E2Cell, E2Report, E2Frames, PageSummary,
        Pairing, BasicComplex, EquivariantModel, LieData, ExpectedResults, ModelCard}


def test_fields_refuse_assignment(kronecker):
    for value, name in records(*kronecker) + others(*kronecker):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before, type(value)
    model = kronecker[0].model
    with pytest.raises(AttributeError):
        model.lie.n = 2
    with pytest.raises(AttributeError):
        model._images = {}  # a derived table is read-only too


def test_values_copy_and_pickle_to_equal_values(kronecker):
    for value, name in records(*kronecker) + others(*kronecker):
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value, type(value)
            assert repr(getattr(twin, name)) == repr(getattr(value, name))


def test_records_are_named_tuples_with_the_field_repr(kronecker):
    card, an = kronecker
    for value, _ in records(card, an):
        assert isinstance(value, tuple) and value == tuple(value), type(value)
        assert type(value)(*value) == value
    assert CheckResult("x", False) == ("x", False, "")
    assert repr(CheckResult("x", False)) == "CheckResult(name='x', passed=False, detail='')"
    assert repr(an.abutment) == (
        "AbutmentReport(rows=(AbutmentRow(degree=0, stable_total=1, cohomology_dim=1), "
        "AbutmentRow(degree=1, stable_total=2, cohomology_dim=2), "
        "AbutmentRow(degree=2, stable_total=1, cohomology_dim=1)), stabilization=2)")
    assert repr(an.filtration) == (
        "FilteredComplex(dims=(1, 2, 1), d_columns=(((),), ((), ()), ((),)), "
        "prefix=((1, 0), (2, 1, 0), (1, 1, 0, 0)))")
    assert repr(an.pages[2]) == (
        "PageSummary(r=2, dims={(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}, d_ranks={})")
    assert repr(persistence_pairing(an.filtration)) == (
        "Pairing(sizes={(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}, pairs=())")
    assert repr(an.e2.cells[0]) == "E2Cell(p=0, q=0, product_dim=1, e2_dim=1, f_rank=1)"
    assert repr(an.e2).startswith("E2Report(cells=(E2Cell(p=0, ")
    assert repr(an.e2).endswith("), verdict='isomorphism', lie_realization_ok=True)")
    assert repr(an.model_validation).startswith(
        "ValidationReport(subject='model', checks=(CheckResult(name='degree-zero unit', ")


def test_the_other_types_keep_the_field_repr(kronecker):
    card, an = kronecker
    assert repr(Matrix.of([[1, Fraction(1, 2)]])) == (
        "Matrix(data=((Fraction(1, 1), Fraction(1, 2)),), cols=2)")
    one = "Subspace(ambient_dim=1, basis=Matrix(data=((Fraction(1, 1),),), cols=1))"
    assert repr(Subspace.full(1)) == one
    assert repr(an.page2.cells[(0, 0)]) == (
        f"Quotient(space={one}, pivots=(0,), classes={{0: {{0: 1}}}}, window=(0, 1))")
    assert repr(card.model) == (
        "EquivariantModel(name='kronecker', lie=LieData(n=1, c=()), "
        "basic=BasicComplex(generators=(('1', 0), ('kappa', 1)), d_hor_entries=(), "
        "euler_entries=()))")
    assert repr(card.expected) == (
        "ExpectedResults(total_cohomology=(1, 2, 1), e2_dims={(0, 0): 1, (0, 1): 1, "
        "(1, 0): 1, (1, 1): 1}, stabilization=2, basic_cohomology=(1, 1), d2_abs_at_01=None)")
    assert repr(card) == (f"ModelCard(model={card.model!r}, expected={card.expected!r}, "
                          f"note={card.note!r}, validation=None)")
    assert repr(an.page2) == (f"SpectralPage(r=2, cells={an.page2.cells!r}, "
                              f"dr={an.page2.dr!r}, ranks={an.page2.ranks!r})")
    frames = an.frames
    assert repr(frames) == (
        f"E2Frames(page2={frames.page2!r}, cells={frames.cells!r}, "
        f"f_columns={frames.f_columns!r}, basic={frames.basic!r}, "
        f"invariants={frames.invariants!r})")


def same(a, b) -> bool:
    """a == b, and equal hashes where a is hashable (b then is too)."""
    if not (a == b and not a != b):
        return False
    try:
        return hash(a) == hash(b)
    except TypeError:  # a dict among the compared fields
        with pytest.raises(TypeError):
            hash(b)
        return True


def test_equality_and_hash_ignore_exactly_the_uncompared_fields(kronecker):
    card, an = kronecker
    quot = an.page2.cells[(0, 1)]
    assert quot.window == (1, 2)
    assert same(quot, Quotient(quot.space, quot.pivots, quot.classes))
    assert quot != Quotient(Subspace.full(3), quot.pivots, quot.classes, quot.window)
    assert quot != Quotient(quot.space, (0,), quot.classes, quot.window)
    assert quot != Quotient(quot.space, quot.pivots, {0: {0: 1}, 1: {}}, quot.window)

    pg = an.page2
    assert same(pg, SpectralPage(pg.r, pg.cells, pg.dr, {}))
    assert pg != SpectralPage(3, pg.cells, pg.dr, pg.ranks)
    assert pg != SpectralPage(pg.r, {}, pg.dr, pg.ranks)
    assert pg != SpectralPage(pg.r, pg.cells, {}, pg.ranks)

    fr = an.frames
    assert same(fr, E2Frames(fr.page2, fr.cells, {}, (), ()))
    assert fr != E2Frames(fr.page2, (), fr.f_columns, fr.basic, fr.invariants)

    exp = card.expected
    assert same(exp, ExpectedResults(exp.total_cohomology, {}, exp.stabilization,
                                     exp.basic_cohomology, exp.d2_abs_at_01))
    for changed in (dict(total_cohomology=(1,)), dict(stabilization=3),
                    dict(basic_cohomology=(1, 0)), dict(d2_abs_at_01=1)):
        fields = dict(total_cohomology=exp.total_cohomology, e2_dims=exp.e2_dims,
                      stabilization=exp.stabilization, basic_cohomology=exp.basic_cohomology,
                      d2_abs_at_01=exp.d2_abs_at_01)
        assert exp != ExpectedResults(**{**fields, **changed}), changed

    validated = get_model("trivial_product")
    assert validated.validation is not None
    assert same(validated, ModelCard(validated.model, validated.expected, validated.note))
    assert card != ModelCard(card.model, card.expected, "another note")
    assert card != ModelCard(card.model, ExpectedResults((1,), {}), card.note)

    # derived tables and caches: filled on one side only
    model = card.model
    twin = get_model("kronecker").model
    an.filtration.reach
    assert model._images and not twin._images and model.lie._delta_squared
    assert same(model, twin) and same(model.lie, twin.lie) and same(model.basic, twin.basic)
    assert same(an.filtration, Analysis(twin).filtration)
    assert model != EquivariantModel("other", model.lie, model.basic)
    assert model.lie != LieData.abelian(2)
    assert model.basic != BasicComplex.build([("1", 0)])

    assert same(Subspace.full(2), Subspace(2, {0: {}, 1: {}}))
    assert Subspace.full(2) != Subspace.full(3)
    assert same(Matrix.of([[1, 2]]), Matrix(((Fraction(1), Fraction(2)),), 2))
    assert Matrix.of([[1, 2]]) != Matrix.of([[2, 1]])


def test_no_value_equals_another_type_with_the_same_fields():
    q = quotient_map(Subspace.full(2), [])
    assert q != (q.space, q.pivots, q.classes, q.window)
    assert Matrix.of([[1]]) != Matrix.of([[1]]).data
    assert LieData.abelian(1) != (1, ())
