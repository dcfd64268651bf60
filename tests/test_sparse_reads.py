"""Sparse class reads against the dense route, and the checks they must keep.

The engine reads the class of alpha (x) beta and of d of it on page 2 by one
triangular solve over the cell's window, and the class of each invariant
by one elimination of a sparse vector through the cocycles' echelon.  The
dense route builds a vector of length dim C^m on the oracle page, tests it
with `contains` and projects it with the dense `proj`; `tests/oracles.py`
keeps it.
"""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap
from fractions import Fraction as Q
from pathlib import Path

import pytest
from oracles import (
    ChiElement,
    chi_to_vector,
    contains,
    dense_apply,
    dense_basis,
    dense_d_hor,
    dense_frames,
    dense_proj,
    dense_reps,
    dense_transgression,
    direct_sum,
    from_columns,
    is_zero,
    matmul,
    oracle_delta_matrix,
    oracle_page,
    rank,
    rotated,
    scaled,
    seed_graded_cohomology,
    seed_span,
    transgression_matrix,
    wedge_ce_delta,
)
from test_cli import _eliminations_inside, count_calls, source_env
from test_liealg import R3, R4, su2_power
from test_specseq import sphere_model

from cartanss.cli import load_model_file, main, save_model_file
from cartanss.library import (
    MODEL_NAMES,
    get_model,
    heisenberg_lie,
    random_trivial_product,
    su2_lie,
)
from cartanss.liealg import LieData, delta_columns, invariant_subcomplex, multi_indices
from cartanss.qlinalg import Matrix, Quotient, Subspace, graded_cohomology
from cartanss.reports import CertificateError
from cartanss.specseq import WindowCell, persistence_pairing
from cartanss.verify import (
    Analysis,
    _e2_frames,
    _lie_realization_ok,
    d2_transgression,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_models"


def differential_models():
    """Every card, every valid sample model (torus_d3 among them), S^3..S^9
    and 20 random trivial products."""
    rng = random.Random(20261023)
    models = [get_model(name).model for name in MODEL_NAMES]
    samples = [load_model_file(str(path)) for path in sorted(SAMPLES.glob("*.json"))]
    valid = [m for m in samples if Analysis(m).valid]
    assert [m.name for m in samples if m not in valid] == ["heisenberg"]
    assert any(m.name == "torus_d3" for m in valid)
    models += valid
    models += [sphere_model(k) for k in range(1, 5)]
    models += [random_trivial_product(rng, tag=f"s{i}").model for i in range(20)]
    return models


def dense_realization_ok(lie: LieData, inv) -> bool:
    """The Lie realization check by the dense route, in every degree, on the
    seed cohomology of the wedge-product delta matrices."""
    maps = (oracle_delta_matrix(lie, q) for q in range(lie.n + 1))
    for q, (ker, img, (_, proj)) in enumerate(seed_graded_cohomology(maps)):
        h_dim = ker.dim - img.dim
        if inv[q].dim != h_dim:
            return False
        rows = dense_basis(inv[q]).data
        if not all(contains(ker, row) for row in rows):
            return False
        classes = [dense_apply(proj, row) for row in rows]
        if rank(Matrix.of(classes, cols=h_dim)) != h_dim:
            return False
    return True


def test_graded_cohomology_matches_the_seed_cohomology_entry_by_entry():
    """graded_cohomology over sparse columns against seed_graded_cohomology
    over dense matrices built apart from them: d_hor from the entry list and
    delta from wedge products.  Kernel, reps and proj must agree exactly."""
    rng = random.Random(20261103)
    complexes = []
    samples = [load_model_file(str(path)) for path in sorted(SAMPLES.glob("*.json"))]
    basics = [get_model(name).model.basic for name in MODEL_NAMES]
    basics += [m.basic for m in samples if Analysis(m).valid]
    basics += [random_trivial_product(rng, tag=f"g{i}").model.basic for i in range(20)]
    for basic in basics:
        degrees = range(basic.max_degree + 1)
        complexes.append(([basic.d_hor_columns(p) for p in degrees],
                          [dense_d_hor(basic, p) for p in degrees]))
    algebras = [su2_lie(), heisenberg_lie(), direct_sum(su2_lie(), su2_lie()), su2_plus_line()]
    algebras += [LieData.abelian(n) for n in range(1, 6)]
    for lie in algebras:
        degrees = range(lie.n + 1)
        complexes.append(([delta_columns(lie, q) for q in degrees],
                          [oracle_delta_matrix(lie, q) for q in degrees]))
    seen = {"H^q != 0": 0, "nonzero image": 0, "proper kernel": 0}
    for columns, dense in complexes:
        got = list(graded_cohomology(columns))
        want = seed_graded_cohomology(dense)
        assert len(got) == len(want) == len(dense)
        for quot, (ker, img, (reps, proj)) in zip(got, want):
            assert quot.space == ker
            got_reps, got_proj = dense_reps(quot), dense_proj(quot)
            assert (got_reps.data, got_reps.cols) == (reps.data, reps.cols)
            assert (got_proj.data, got_proj.cols) == (proj.data, proj.cols)
            seen["H^q != 0"] += quot.dim > 0
            seen["nonzero image"] += img.dim > 0
            seen["proper kernel"] += 0 < ker.dim < ker.ambient_dim
    assert min(seen.values()) >= 10, seen


def test_sparse_reads_match_the_dense_route_on_every_page_frame_and_transgression():
    """Every oracle page up to one past E_infinity has the pairing's dims and
    d_r ranks; on page 2, each frame has the rank of the dense frame read
    through the oracle's quotient, the frames' d_2 images the rank of the
    oracle's d_2, and the transgression is the dense one."""
    seen = {"d_r": 0, "nonzero d_r": 0, "frames": 0, "transgressions": 0, "d_3": 0}
    for model in differential_models():
        an = Analysis(model)
        fc = an.filtration
        cache = {}
        for summary in an.pages + (persistence_pairing(fc).summary(an.stabilization + 1),):
            pg = oracle_page(fc, summary.r, cache)
            assert (summary.dims, summary.d_ranks) == (
                pg.dims(), {pq: k for pq, k in pg.ranks.items() if k}), (model.name, pg.r)
            seen["d_r"] += len(pg.dr)
            seen["nonzero d_r"] += sum(not is_zero(m) for m in pg.dr.values())
            seen["d_3"] += pg.r == 3 and any(pg.ranks.values())
        want = oracle_page(fc, 2, cache)
        frames = an.frames
        fmats = dense_frames(model, frames, want.cells)
        for cell in frames.cells:
            pq = (cell.p, cell.q)
            assert cell.f_rank == rank(fmats[pq]), (model.name, pq)
            images = frames.d2_columns.get(pq)
            if images is not None:
                tgt = an.page2[(cell.p + 2, cell.q - 1)]
                d2 = want.dr.get(pq)  # none where the oracle's cell is zero
                assert rank(from_columns(images, tgt.dim)) == (
                    0 if d2 is None else rank(matmul(d2, fmats[pq]))), (model.name, pq)
            seen["frames"] += 1
        assert an.e2.lie_realization_ok is dense_realization_ok(model.lie, frames.invariants)
        if an.e2.passed:
            dense = {pq: transgression_matrix(t) for pq, t in an.transgression.items()}
            assert dense == dense_transgression(frames, want.dr, fmats), model.name
            # the record keeps only nonzero entries, an int where integral
            assert all(type(x) is int or type(x) is Q and x.denominator > 1
                       for t in an.transgression.values() for col in t.columns
                       for x in col.values()), model.name
            seen["transgressions"] += len(an.transgression)
    assert seen["nonzero d_r"] >= 10 and seen["d_3"] >= 1, seen
    assert min(seen.values()) >= 1 and seen["frames"] > 200, seen


def escaping_page2(model):
    """Page 2 of model with cell (2, 1) swapped for one whose window is empty."""
    cells = dict(Analysis(model).page2)
    cells[(2, 1)] = WindowCell(0, 0, 0, {}, {}, cells[(2, 1)].d_columns)
    return cells


def test_a_tensor_vector_that_escapes_z_is_a_typed_error():
    model = get_model("hopf").model
    with pytest.raises(CertificateError) as info:
        _e2_frames(model, escaping_page2(model))
    assert (info.value.cell, info.value.page) == ((2, 1), 2)
    assert str(info.value) == (
        "tensor representative not d-compatible at page E_2, cell (p,q)=(2,1)")


def test_a_target_frame_that_cannot_solve_d2_is_a_typed_error():
    """The transgression solves F_target x = d_2 F_source column by column; a
    target frame whose columns do not span E_2 there names the cell and page."""
    frames = Analysis(get_model("hopf").model).frames
    assert d2_transgression(frames)[(0, 1)].shape == (1, 1)
    planted = frames._replace(f_columns={**frames.f_columns, (2, 0): [{}]})
    with pytest.raises(CertificateError) as info:
        d2_transgression(planted)
    assert (info.value.cell, info.value.page) == ((2, 0), 2)
    assert str(info.value) == (
        "d_2 not solvable in the target frame at page E_2, cell (p,q)=(2,0)")


ESCAPING_TENSOR_SCRIPT = textwrap.dedent(
    """
    from test_sparse_reads import escaping_page2
    from cartanss.library import get_model
    from cartanss.reports import CertificateError
    from cartanss.verify import _e2_frames

    model = get_model("hopf").model
    try:
        _e2_frames(model, escaping_page2(model))
    except CertificateError as exc:
        print(exc)
    """
)


def test_a_tensor_vector_that_escapes_z_is_caught_under_python_O():
    env = source_env()
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent) + ":" + env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, "-O", "-c", ESCAPING_TENSOR_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "tensor representative not d-compatible at page E_2, cell (p,q)=(2,1)"]


def su2_plus_line():
    """su(2) + R: H = 1, 1, 0, 1, 1 with H^1 spanned by chi_4."""
    return direct_sum(su2_lie(), LieData.abelian(1))


def planted(inv, q, rows):
    out = list(inv)
    out[q] = seed_span(inv[q].ambient_dim, rows)
    return tuple(out)


def test_a_planted_invariant_that_is_not_closed_fails_the_realization_check():
    lie = su2_plus_line()
    inv = invariant_subcomplex(lie)
    assert tuple(s.dim for s in inv) == (1, 1, 0, 1, 1)
    assert _lie_realization_ok(lie, inv)
    # chi_1 has the dimension of H^1 but delta chi_1 = chi_2 ^ chi_3 != 0
    bad = planted(inv, 1, [[1, 0, 0, 0]])
    assert not _lie_realization_ok(lie, bad) and not dense_realization_ok(lie, bad)
    # chi_234 = delta(chi_14) is closed but exact: its class is zero
    bad = planted(inv, 3, [[int(I == (2, 3, 4)) for I in multi_indices(4, 3)]])
    assert not _lie_realization_ok(lie, bad) and not dense_realization_ok(lie, bad)


@pytest.mark.parametrize("lie", [
    su2_power(2), su2_power(3), direct_sum(su2_lie(), LieData.abelian(2)),
    scaled(su2_lie(), Q(3, 2)), rotated(rotated(su2_power(2), 0, 3, R3, R4), 1, 4, R3, R4)],
    ids=["su2^2", "su2^3", "su2+R^2", "su2*3/2", "su2^2 turned"])
def test_the_realization_by_ranks_agrees_with_the_dense_route(lie):
    inv = invariant_subcomplex(lie)
    assert _lie_realization_ok(lie, inv) and dense_realization_ok(lie, inv)


def test_planted_rows_in_degree_3_of_su2_squared_fail_both_checks():
    """H^3 of su(2) + su(2) is spanned by the two volume forms.  One of them
    alone has the wrong dimension; with an exact form, or with a form that
    is not closed, the dimension is right but only the stacked rank, or
    only the closedness test, sees the fault.  The true rows recombined,
    and shifted by a coboundary, still realize H^3."""
    lie = su2_power(2)
    inv = invariant_subcomplex(lie)
    a, b = (list(row) for row in dense_basis(inv[3]).data)
    exact = list(chi_to_vector(wedge_ce_delta(lie, ChiElement.basis((1, 4))), 6, 3))
    not_closed = list(chi_to_vector(ChiElement.basis((1, 2, 4)), 6, 3))
    assert any(exact)
    assert any(dense_apply(oracle_delta_matrix(lie, 3), not_closed))
    for rows in ([a], [a, exact], [b, not_closed]):
        bad = planted(inv, 3, rows)
        assert not _lie_realization_ok(lie, bad) and not dense_realization_ok(lie, bad)
    for rows in ([[x + 2 * y for x, y in zip(a, b)], [x - y for x, y in zip(a, b)]],
                 [[x + y for x, y in zip(a, exact)], b]):
        good = planted(inv, 3, rows)
        assert _lie_realization_ok(lie, good) and dense_realization_ok(lie, good)


def test_a_wrong_invariant_dimension_where_delta_is_zero_fails_without_a_delta_matrix(
        monkeypatch):
    """Where delta is zero into and out of degree q, the check eliminates
    nothing: it compares dimensions, and a wrong one fails."""
    inside = _eliminations_inside(monkeypatch, "_lie_realization_ok")
    torus = LieData.abelian(3)
    inv = invariant_subcomplex(torus)
    planted_1, planted_2 = planted(inv, 1, [[1, 0, 0]]), planted(inv, 2, [])
    assert _lie_realization_ok(torus, inv)
    assert not _lie_realization_ok(torus, planted_1)
    assert not _lie_realization_ok(torus, planted_2)
    assert sum(inside) == 0
    # su(2): delta_1 is the only nonzero delta, so degrees 0 and 3 are
    # identity degrees, and degrees 1 and 2 have no cohomology: the rank of
    # delta_1 is the one elimination, and no invariant row is read
    su2 = su2_lie()
    inv = invariant_subcomplex(su2)
    planted_0, planted_3 = planted(inv, 0, []), planted(inv, 3, [])
    assert not _lie_realization_ok(su2, planted_0)
    assert sum(inside) == 0  # degree 0 fails before delta_1 is reduced
    assert not _lie_realization_ok(su2, planted_3)
    assert sum(inside) == 1  # the rank of delta_1 only
    assert _lie_realization_ok(su2, inv)
    assert sum(inside) == 2


@pytest.mark.parametrize("spec", [("group_torus", 6), ("group_su2",)])
def test_pages_make_no_dense_containment_test_or_dense_apply(tmp_path, monkeypatch, capsys,
                                                              spec):
    """Every containment test of the run is a sparse class read and every
    application of d a sparse one, apply_sparse: page 2's class reads apply
    d to check that a vector lies in Z_2.  Matrix and Subspace have no dense
    containment test or dense apply left to call."""
    for cls, names in ((Subspace, ("contains", "contains_vector")),
                       (Matrix, ("apply", "__matmul__", "column", "row"))):
        assert not [name for name in names if hasattr(cls, name)], cls
    path = str(tmp_path / "model.json")
    save_model_file(get_model(*spec).model, path)
    calls = count_calls(monkeypatch, (("qlinalg", "apply_sparse"),))
    dense = {"entry": 0, "rref": 0}
    reads = []

    def counted(name):
        run = getattr(Matrix, name)

        def wrapper(*args):
            dense[name] += 1
            return run(*args)
        monkeypatch.setattr(Matrix, name, wrapper)

    counted("entry")
    counted("rref")
    for cls in (Quotient, WindowCell):
        def logged(self, x, *dx, _read=cls.class_of):
            reads.append(type(x))
            return _read(self, x, *dx)
        monkeypatch.setattr(cls, "class_of", logged)
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    assert dense == {"entry": 0, "rref": 0}
    assert len(calls["apply_sparse"]) > 0
    assert reads and set(reads) == {dict}
    # the counters are live
    Matrix.of([[1]]).entry(0, 0)
    Matrix.of([[1]]).rref()
    assert dense == {"entry": 1, "rref": 1}


@pytest.mark.parametrize("spec", [("group_torus", 6), ("group_su2",)])
def test_a_pages_run_builds_no_dense_matrix(tmp_path, monkeypatch, capsys, spec):
    """A whole pages run, its page pass included, constructs no Matrix: every
    space, quotient and cohomology it hands on keeps only sparse forms."""
    path = str(tmp_path / "model.json")
    save_model_file(get_model(*spec).model, path)
    calls = count_calls(monkeypatch, (("model", "total_columns"),))
    built = []
    init = Matrix.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(Matrix, "__init__", counted_init)
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    assert len(calls["total_columns"]) == 1
    assert built == []
    # the counter is live
    Matrix.of([[1]])
    assert len(built) == 1
