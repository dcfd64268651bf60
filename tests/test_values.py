"""The value types: read-only fields, equality over the compared fields only,
the Name(field=...) repr, and an import that generates no code for them.

Plain records are named tuples, so they also compare equal to the tuple of
their fields.  The other types keep state outside equality (derived tables
and caches) or compare in their own way.
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
from cartanss.qlinalg import Cohomology, Matrix, Subspace
from cartanss.reports import CheckResult, ValidationReport
from cartanss.specseq import (
    AbutmentReport,
    AbutmentRow,
    FilteredComplex,
    PageSummary,
    Pairing,
    WindowCell,
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
        (an.page2[(0, 0)], "alive"),
        (an.frames, "f_columns"),
        (an.frames.basic[0], "pivots"),
        (card.expected, "e2_dims"),
        (card, "note"),
    ]


def others(card, an):
    """(instance, one of its fields) for each type with its own __init__."""
    return [
        (Matrix.of([[1, Fraction(1, 2)]]), "cols"),
        (Subspace.full(2), "ambient_dim"),
        (card.model.basic, "generators"),
        (card.model, "lie"),
        (card.model.lie, "c"),
    ]


def test_every_value_type_is_covered(kronecker):
    covered = {type(x) for x, _ in records(*kronecker) + others(*kronecker)}
    assert covered == {
        CheckResult, ValidationReport, Matrix, Subspace, Cohomology, FilteredComplex,
        WindowCell, AbutmentRow, AbutmentReport, E2Cell, E2Report, E2Frames, PageSummary,
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
        model.lie._delta = {}  # a derived table is read-only too


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
        "Pairing(sizes={(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}, pairs=(), "
        "tails=({}, {}, {}))")
    assert repr(an.e2.cells[0]) == "E2Cell(p=0, q=0, product_dim=1, e2_dim=1, f_rank=1)"
    assert repr(an.e2).startswith("E2Report(cells=(E2Cell(p=0, ")
    assert repr(an.e2).endswith("), verdict='isomorphism', lie_realization_ok=True)")
    assert repr(an.model_validation).startswith(
        "ValidationReport(subject='model', checks=(CheckResult(name='degree-zero unit', ")
    assert repr(card.expected) == (
        "ExpectedResults(total_cohomology=(1, 2, 1), e2_dims={(0, 0): 1, (0, 1): 1, "
        "(1, 0): 1, (1, 1): 1}, stabilization=2, basic_cohomology=(1, 1), d2_abs_at_01=None)")
    assert repr(card) == (f"ModelCard(model={card.model!r}, expected={card.expected!r}, "
                          f"note={card.note!r})")
    assert repr(an.frames.basic[0]) == (
        "Cohomology(space=Subspace(ambient_dim=1, echelon={0: {}}), pivots=(0,))")
    assert repr(an.page2[(0, 0)]) == (
        "WindowCell(lo=0, hi=1, bound=0, alive={0: 0}, tails={}, d_columns=((),))")
    frames = an.frames
    assert repr(frames) == (
        f"E2Frames(page2={frames.page2!r}, cells={frames.cells!r}, "
        f"f_columns={frames.f_columns!r}, d2_columns={frames.d2_columns!r}, "
        f"basic={frames.basic!r}, invariants={frames.invariants!r})")
    # a card's defaults
    assert ExpectedResults((1,), {}) == ((1,), {}, 2, (1,), None)
    assert ModelCard(card.model, card.expected) == (card.model, card.expected, "")


def test_the_other_types_keep_the_field_repr(kronecker):
    card, an = kronecker
    assert repr(Matrix.of([[1, Fraction(1, 2)]])) == (
        "Matrix(data=((Fraction(1, 1), Fraction(1, 2)),), cols=2)")
    assert repr(Subspace.full(1)) == "Subspace(ambient_dim=1, echelon={0: {}})"
    assert repr(card.model) == (
        "EquivariantModel(name='kronecker', lie=LieData(n=1, c=()), "
        "basic=BasicComplex(generators=(('1', 0), ('kappa', 1)), d_hor_entries=(), "
        "euler_entries=()))")


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
    coh = an.frames.basic[1]
    assert same(coh, Cohomology(Subspace.full(1), (0,)))
    assert coh != Cohomology(Subspace.full(3), coh.pivots)
    assert coh != Cohomology(coh.space, ())

    # a value that holds a dict among its compared fields is not hashable
    for value in (an.page2, an.frames, card.expected, card):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)

    # derived tables and caches: filled on one side only
    model = card.model
    twin = get_model("kronecker").model
    an.filtration.support
    assert model.lie._delta_squared and not twin.lie._delta_squared
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
    assert Subspace.full(1) != (1, {0: {}})
    assert Matrix.of([[1]]) != Matrix.of([[1]]).data
    assert LieData.abelian(1) != (1, ())
