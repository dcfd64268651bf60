"""Sparse class reads against the dense route, and the checks they must keep.

The engine reads the class of d(rep), of alpha (x) beta and of each invariant
by one elimination of a sparse vector through Z's echelon.  The dense route
builds a vector of length dim C^m, tests it with `contains_vector` and
projects it with the dense `proj`; `tests/oracles.py` keeps it.
"""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap
from fractions import Fraction as Q
from pathlib import Path

import pytest
from oracles import dense_dr, dense_frames, dense_transgression, direct_sum
from test_cli import source_env
from test_specseq import sphere_model

from cartanss.cli import load_model_file, main, save_model_file
from cartanss.library import MODEL_NAMES, get_model, random_trivial_product, su2_lie
from cartanss.liealg import LieData, invariant_subcomplex, multi_indices
from cartanss.qlinalg import Matrix, Subspace, graded_cohomology, quotient_map
from cartanss.reports import CertificateError
from cartanss.specseq import PageCell, SpectralPage, iter_pages
from cartanss.verify import Analysis, _e2_frames, _lie_realization_ok
from cartanss import liealg, verify

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
    """The Lie realization check by the dense route, in every degree."""
    maps = (liealg.delta_matrix(lie, q) for q in range(lie.n + 1))
    for q, (ker, img, quot) in enumerate(graded_cohomology(maps)):
        h_dim = ker.dim - img.dim
        if inv[q].dim != h_dim:
            return False
        if not all(ker.contains_vector(row) for row in inv[q].basis.data):
            return False
        classes = [quot.proj.apply(row) for row in inv[q].basis.data]
        if Matrix.of(classes, cols=h_dim).rank() != h_dim:
            return False
    return True


def test_sparse_reads_match_the_dense_route_on_every_page_frame_and_transgression():
    seen = {"d_r": 0, "nonzero d_r": 0, "frames": 0, "transgressions": 0, "d_3": 0}
    for model in differential_models():
        an = Analysis(model)
        fc = an.filtration
        for pg in iter_pages(fc):
            want = dense_dr(fc, pg.cells, pg.r)
            assert pg.dr == want, (model.name, pg.r)
            assert pg.dr_ranks() == {pq: m.rank() for pq, m in want.items()}, (model.name, pg.r)
            seen["d_r"] += len(want)
            seen["nonzero d_r"] += sum(not m.is_zero() for m in want.values())
            seen["d_3"] += pg.r == 3 and not pg.dr_is_zero()
        frames = an.frames
        fmats = dense_frames(model, frames)
        for cell in frames.cells:
            pq = (cell.p, cell.q)
            assert frames.f_matrix(pq) == fmats[pq], (model.name, pq)
            assert cell.f_rank == fmats[pq].rank(), (model.name, pq)
            seen["frames"] += 1
        assert an.e2.lie_realization_ok is dense_realization_ok(model.lie, frames.invariants)
        if an.e2.passed:
            dr2 = dense_dr(fc, an.page2.cells, 2)
            assert an.transgression == dense_transgression(frames, dr2, fmats), model.name
            seen["transgressions"] += len(an.transgression)
    assert seen["nonzero d_r"] >= 10 and seen["d_3"] >= 1, seen
    assert min(seen.values()) >= 1 and seen["frames"] > 200, seen


def escaping_page2(model):
    """Page 2 of model with cell (2, 1) swapped for one whose Z_2 is zero."""
    an = Analysis(model)
    pg2 = an.page2
    cell = pg2.cells[(2, 1)]
    zero = Subspace.zero(cell.z_space.ambient_dim)
    cells = dict(pg2.cells)
    cells[(2, 1)] = PageCell(2, 1, quotient_map(zero, [], window=(0, 0)), zero)
    return SpectralPage(2, cells, pg2.dr, pg2.ranks)


def test_a_tensor_vector_that_escapes_z_is_a_typed_error():
    model = get_model("hopf").model
    with pytest.raises(CertificateError) as info:
        _e2_frames(model, escaping_page2(model))
    assert (info.value.cell, info.value.page) == ((2, 1), 2)
    assert str(info.value) == (
        "tensor representative not d-compatible at page E_2, cell (p,q)=(2,1)")


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
    out[q] = Subspace.from_rows(inv[q].ambient_dim, rows)
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


def test_a_wrong_invariant_dimension_where_delta_is_zero_fails_without_a_delta_matrix(
        monkeypatch):
    built = []
    delta_matrix = verify.delta_matrix
    monkeypatch.setattr(verify, "delta_matrix", lambda L, q: built.append(q) or delta_matrix(L, q))
    torus = LieData.abelian(3)
    inv = invariant_subcomplex(torus)
    assert _lie_realization_ok(torus, inv)
    assert not _lie_realization_ok(torus, planted(inv, 1, [[1, 0, 0]]))
    assert not _lie_realization_ok(torus, planted(inv, 2, []))
    assert built == []
    # su(2): delta_1 is the only nonzero delta, so degrees 0 and 3 are
    # identity degrees and degrees 1 and 2 read classes through delta_1
    su2 = su2_lie()
    inv = invariant_subcomplex(su2)
    assert _lie_realization_ok(su2, inv)
    assert not _lie_realization_ok(su2, planted(inv, 0, []))
    assert not _lie_realization_ok(su2, planted(inv, 3, []))
    assert set(built) == {1}


@pytest.mark.parametrize("spec", [("group_torus", 6), ("group_su2",)])
def test_pages_make_no_dense_containment_test_or_dense_apply(tmp_path, monkeypatch, capsys,
                                                              spec):
    path = str(tmp_path / "model.json")
    save_model_file(get_model(*spec).model, path)
    calls = {"contains_vector": 0, "apply": 0}

    def counted(cls, name):
        run = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return run(*args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(Subspace, "contains_vector")
    counted(Matrix, "apply")
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    assert calls == {"contains_vector": 0, "apply": 0}
    # the counters are live
    Subspace.full(2).contains_vector((Q(1), Q(0)))
    Matrix.identity(2).apply((Q(1), Q(0)))
    assert calls == {"contains_vector": 1, "apply": 1}
