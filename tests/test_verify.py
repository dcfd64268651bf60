"""Tensor factorization of the second page and the change-of-basis transgression."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from cartanss.liealg import (
    ChiElement,
    LieData,
    ce_delta,
    chi_to_vector,
    invariant_subcomplex,
    lie_cohomology,
)
from cartanss.library import MODEL_NAMES, get_model
from cartanss.model import (
    BasicComplex,
    EquivariantModel,
    ModelElement,
    element_to_vector,
    validate_model,
)
from cartanss.specseq import SpectralPage, cartan_filtration, page
from cartanss.verify import (
    _e2_frames,
    basic_cohomology,
    d2_transgression,
    e2_tensor_check,
)


def su2_pair_lie():
    return LieData.from_structure_constants(6, {(1, 2, 3): 1, (4, 5, 6): 1})


def test_basic_cohomology_per_card():
    expected = {
        "hopf": (1, 0, 1),
        "kronecker": (1, 1),
        "group_su2": (1,),
        "trivial_product": (1, 2, 1),
    }
    for name, dims in expected.items():
        model = get_model(name).model
        bc = basic_cohomology(model)
        assert bc.dims == dims
        for p, reps in enumerate(bc.reps):
            assert reps.rows == bc.dims[p]
            for row in reps.data:
                assert all(x == 0 for x in model.basic.d_hor_matrix(p).apply(row))


def test_e2_tensor_check_passes_on_all_cards():
    for name in MODEL_NAMES:
        card = get_model(name)
        rep = e2_tensor_check(card.model)
        assert rep.passed, name
        assert rep.verdict == "isomorphism"
        assert rep.lie_realization_ok
        maxb = card.model.basic.max_degree
        n = card.model.lie.n
        assert {(c.p, c.q) for c in rep.cells} == {
            (p, q) for p in range(maxb + 1) for q in range(n + 1)
        }
        for c in rep.cells:
            assert c.ok
            assert c.product_dim == c.e2_dim == c.f_rank
        got = {(c.p, c.q): c.e2_dim for c in rep.cells if c.e2_dim}
        assert got == card.expected.e2_dims, name


def test_e2_product_dims_factor_through_both_sides():
    for name in MODEL_NAMES:
        model = get_model(name).model
        bc = basic_cohomology(model)
        hq = lie_cohomology(model.lie).dims
        rep = e2_tensor_check(model)
        for c in rep.cells:
            assert c.product_dim == bc.dims[c.p] * hq[c.q]


def test_class_unchanged_by_horizontal_coboundary():
    # u, v span an acyclic pair; w survives to H^1.  Perturbing the cocycle
    # representative w by the coboundary v must not move the page-2 class.
    basic = BasicComplex.build(
        [("1", 0), ("u", 0), ("v", 1), ("w", 1)],
        d_hor=[(1, 2, 1)],
    )
    model = EquivariantModel("ladder", su2_lie_local(), basic)
    assert validate_model(model).passed
    frames = _e2_frames(model)
    bc = frames.basic
    assert bc.dims == (1, 1)
    assert tuple(s.dim for s in frames.invariants) == (1, 0, 0, 1)
    gens1 = model.basic.gens_of_degree(1)
    v_local = tuple(Q(1) if model.basic.name_of(g) == "v" else Q(0) for g in gens1)
    alpha = bc.reps[1].row(0)
    alpha_pert = tuple(a + 3 * b for a, b in zip(alpha, v_local))
    for q, beta_basis in ((0, ChiElement.unit()), (3, ChiElement.basis((1, 2, 3)))):
        cell = frames.page2.cells[(1, q)]
        vec = tensor_vec(model, alpha, gens1, beta_basis, q)
        vec_pert = tensor_vec(model, alpha_pert, gens1, beta_basis, q)
        assert cell.z_space.contains_vector(vec_pert)
        assert cell.proj.apply(vec) == cell.proj.apply(vec_pert)


def su2_lie_local():
    return LieData.from_structure_constants(3, {(1, 2, 3): 1})


def tensor_vec(model, alpha_row, gens_p, beta, q):
    coeffs = {}
    for g, a in zip(gens_p, alpha_row):
        if not a:
            continue
        for I, b in beta.coeffs.items():
            coeffs[(g, I)] = a * b
    p = model.basic.degree_of(gens_p[0]) if gens_p else 0
    return element_to_vector(model, ModelElement(coeffs), p + q)


def test_class_unchanged_by_algebra_coboundary():
    # on su(2)+su(2) over a point, delta(chi_14) is a nonzero 3-coboundary;
    # adding it to an invariant representative keeps the page-2 class
    L = su2_pair_lie()
    model = EquivariantModel("pair", L, BasicComplex.build([("1", 0)]))
    assert validate_model(model).passed
    inv = invariant_subcomplex(L)
    assert inv[3].dim == 2
    eta = ChiElement.basis((1, 4))
    bdry = ce_delta(L, eta)
    assert not bdry.is_zero
    fc = cartan_filtration(model)
    cell = page(fc, 2).cells[(0, 3)]
    assert cell.dim == 2
    for row in inv[3].basis.data:
        beta = sum(
            (Q(v) * ChiElement.basis(I) for I, v in zip(_idx3(), row) if v),
            ChiElement.zero(),
        )
        v_plain = _wrap_vec(model, beta, 3)
        v_pert = _wrap_vec(model, beta + bdry, 3)
        assert cell.z_space.contains_vector(v_plain)
        assert cell.z_space.contains_vector(v_pert)
        assert cell.proj.apply(v_plain) == cell.proj.apply(v_pert)
    # and the coboundary itself projects to zero
    assert all(x == 0 for x in cell.proj.apply(_wrap_vec(model, bdry, 3)))


def _idx3():
    from cartanss.liealg import multi_indices

    return multi_indices(6, 3)


def _wrap_vec(model, chi_elt, m):
    coeffs = {(0, I): v for I, v in chi_elt.coeffs.items()}
    return element_to_vector(model, ModelElement(coeffs), m)


def test_transgression_on_hopf_family():
    trans = d2_transgression(get_model("hopf").model)
    entry = trans[(0, 1)]
    assert entry.shape == (1, 1)
    assert abs(entry.entry(0, 0)) == 1
    for w in (1, 2, 3, 5):
        card = get_model("weighted_hopf", w)
        t = d2_transgression(card.model)[(0, 1)]
        assert abs(t.entry(0, 0)) == w


def test_transgression_change_of_basis_identity():
    for name in MODEL_NAMES:
        model = get_model(name).model
        frames = _e2_frames(model)
        trans = d2_transgression(model)
        for (p, q), t in trans.items():
            d2 = frames.page2.dr[(p, q)]
            t_src = frames.f_matrices[(p, q)]
            t_tgt = frames.f_matrices.get((p + 2, q - 1))
            if t_tgt is None or t_tgt.rows == 0:
                assert t.rows == 0
                assert (d2 @ t_src).is_zero()
                continue
            assert t_tgt @ t == d2 @ t_src, (name, p, q)


def test_transgression_vanishes_off_the_hopf_cell():
    trans = d2_transgression(get_model("hopf").model)
    for pq, t in trans.items():
        if pq != (0, 1):
            assert t.rows == 0 or t.is_zero()


def test_tensor_frames_have_full_rank():
    model = get_model("kronecker").model
    frames = _e2_frames(model)
    for cell in frames.cells:
        if cell.product_dim == 0:
            continue
        f = frames.f_matrices[(cell.p, cell.q)]
        # frame columns are independent exactly when the check holds
        assert f.rank() == cell.product_dim == cell.e2_dim


def test_spots_without_a_cell_count_as_zero_on_page_two():
    # S^5 over CP^2 has no basic generator of odd degree, so page 2 has no
    # cell at p = 1 or p = 3, and the frames read those spots as E_2 = 0
    sphere5 = EquivariantModel("sphere_5", LieData.abelian(1), BasicComplex.build(
        [("1", 0), ("v1", 2), ("v2", 4)], euler=[(1, 0, 1, 1), (1, 1, 2, 1)]))
    frames = _e2_frames(sphere5)
    assert (1, 0) not in frames.page2.cells and (3, 1) not in frames.page2.cells
    assert e2_tensor_check(sphere5, frames).passed
    assert {(c.p, c.q): (c.product_dim, c.e2_dim) for c in frames.cells if c.p % 2} == {
        (1, 0): (0, 0), (1, 1): (0, 0), (3, 0): (0, 0), (3, 1): (0, 0)}
    assert abs(d2_transgression(sphere5, frames)[(0, 1)].entry(0, 0)) == 1


def test_a_page_missing_a_cell_fails_the_tensor_check_by_rank():
    model = get_model("trivial_product").model
    pg2 = page(cartan_filtration(model), 2)
    assert pg2.cells[(1, 1)].dim == 4
    mutated = SpectralPage(2, {pq: c for pq, c in pg2.cells.items() if pq != (1, 1)}, pg2.dr)
    frames = _e2_frames(model, mutated)
    rep = e2_tensor_check(model, frames)
    assert rep.verdict == "mismatch"
    bad = rep.first_failure()
    assert (bad.p, bad.q, bad.product_dim, bad.e2_dim, bad.f_rank) == (1, 1, 4, 0, 0)
    assert [(c.p, c.q) for c in rep.cells if not c.ok] == [(1, 1)]
    with pytest.raises(ValueError, match=r"tensor check fails at \(1,1\)"):
        d2_transgression(model, frames)
