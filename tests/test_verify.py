"""Tensor factorization of the second page and the change-of-basis transgression."""

from __future__ import annotations

import json
from fractions import Fraction as Q
from pathlib import Path

import pytest
from oracles import (
    ChiElement,
    ModelElement,
    dense_apply,
    dense_basis,
    dense_d_hor,
    element_to_vector,
    dense_frames,
    dense_reps,
    dense_transgression,
    f_matrix,
    heisenberg_nilmanifold,
    is_zero,
    matmul,
    oracle_lie_dims,
    oracle_page,
    rank,
    santharoubane_betti,
    transgression_matrix,
    wedge_ce_delta,
)

from cartanss.cli import machine_document
from cartanss.liealg import LieData, invariant_subcomplex
from cartanss.library import MODEL_NAMES, get_model
from cartanss.model import BasicComplex, EquivariantModel, validate_model
from cartanss.verify import (
    Analysis,
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
        assert tuple(h.dim for h in bc) == dims
        for p, h in enumerate(bc):
            reps = dense_reps(h)
            assert reps.rows == dims[p]
            for row in reps.data:
                assert all(x == 0 for x in dense_apply(dense_d_hor(model.basic, p), row))


def test_e2_tensor_check_passes_on_all_cards():
    for name in MODEL_NAMES:
        card = get_model(name)
        rep = Analysis(card.model).e2
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
        hq = oracle_lie_dims(model.lie)
        rep = Analysis(model).e2
        for c in rep.cells:
            assert c.product_dim == bc[c.p].dim * hq[c.q]


def test_class_unchanged_by_horizontal_coboundary():
    # u, v span an acyclic pair; w survives to H^1.  Perturbing the cocycle
    # representative w by the coboundary v must not move the page-2 class.
    basic = BasicComplex.build(
        [("1", 0), ("u", 0), ("v", 1), ("w", 1)],
        d_hor=[(1, 2, 1)],
    )
    model = EquivariantModel("ladder", su2_lie_local(), basic)
    assert validate_model(model).passed
    frames = Analysis(model).frames
    bc = frames.basic
    assert tuple(h.dim for h in bc) == (1, 1)
    assert tuple(s.dim for s in frames.invariants) == (1, 0, 0, 1)
    gens1 = model.basic.gens_of_degree(1)
    v_local = tuple(Q(1) if model.basic.name_of(g) == "v" else Q(0) for g in gens1)
    alpha = dense_reps(bc[1]).data[0]
    alpha_pert = tuple(a + 3 * b for a, b in zip(alpha, v_local))
    for q, beta_basis in ((0, ChiElement.unit()), (3, ChiElement.basis((1, 2, 3)))):
        cell = frames.page2[(1, q)]
        vec = tensor_vec(model, alpha, gens1, beta_basis, q)
        vec_pert = tensor_vec(model, alpha_pert, gens1, beta_basis, q)
        assert cell.class_of(sparse(vec)) == cell.class_of(sparse(vec_pert)) not in (None, {})


def sparse(vec) -> dict:
    """A dense vector's nonzero entries, {index: value}."""
    return {j: a for j, a in enumerate(vec) if a}


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
    bdry = wedge_ce_delta(L, eta)
    assert not bdry.is_zero
    cell = Analysis(model).page2[(0, 3)]
    assert cell.dim == 2
    for row in dense_basis(inv[3]).data:
        beta = sum(
            (Q(v) * ChiElement.basis(I) for I, v in zip(_idx3(), row) if v),
            ChiElement.zero(),
        )
        v_plain = sparse(_wrap_vec(model, beta, 3))
        v_pert = sparse(_wrap_vec(model, beta + bdry, 3))
        assert cell.class_of(v_plain) == cell.class_of(v_pert) not in (None, {})
    # and the coboundary itself has class zero
    assert cell.class_of(sparse(_wrap_vec(model, bdry, 3))) == {}


def _idx3():
    from cartanss.liealg import multi_indices

    return multi_indices(6, 3)


def _wrap_vec(model, chi_elt, m):
    coeffs = {(0, I): v for I, v in chi_elt.coeffs.items()}
    return element_to_vector(model, ModelElement(coeffs), m)


def test_transgression_on_hopf_family():
    trans = Analysis(get_model("hopf").model).transgression
    entry = trans[(0, 1)]
    assert entry.shape == (1, 1)
    assert abs(entry.entry(0, 0)) == 1
    for w in (1, 2, 3, 5):
        card = get_model("weighted_hopf", w)
        t = Analysis(card.model).transgression[(0, 1)]
        assert abs(t.entry(0, 0)) == w


def test_transgression_change_of_basis_identity():
    """On every card and on heisenberg_nil:1..3, whose d_2 = omega ^ maps each
    H^p(T^2k) (x) chi into H^(p+2)(T^2k), so its transgressions are not square.
    d_2 and the frames come from the oracle page 2 and the dense route, apart
    from the engine's page 2, so F_tgt T = d_2 F_src is checked in the
    oracle's bases."""
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [heisenberg_nilmanifold(k) for k in range(1, 4)]
    shapes = set()
    for model in models:
        name = model.name
        an = Analysis(model)
        frames = an.frames
        trans = an.transgression
        want = oracle_page(an.filtration, 2)
        fmats = dense_frames(model, frames, want.cells)
        dense = dense_transgression(frames, want.dr, fmats)
        for (p, q), record in trans.items():
            # the sparse record, read by entry, against the dense identity
            t = transgression_matrix(record)
            assert (t.rows, t.cols) == record.shape == (
                record.rows, next(c.product_dim for c in frames.cells if (c.p, c.q) == (p, q)))
            shapes.add(record.shape)
            t_tgt = fmats.get((p + 2, q - 1))
            d2_f = matmul(want.dr[(p, q)], fmats[(p, q)]) if (p, q) in want.dr else None
            if t_tgt is None or t_tgt.rows == 0:
                assert t.rows == 0 and (p, q) not in frames.d2_columns
                assert d2_f is None or is_zero(d2_f), (name, p, q)
                continue
            assert matmul(t_tgt, t) == d2_f, (name, p, q)
            assert t == dense[(p, q)], (name, p, q)
    assert any(rows not in (0, cols) for rows, cols in shapes), shapes


def test_transgression_vanishes_off_the_hopf_cell():
    trans = Analysis(get_model("hopf").model).transgression
    for pq, t in trans.items():
        if pq != (0, 1):
            assert t.rows == 0 or is_zero(transgression_matrix(t))


def test_tensor_frames_have_full_rank():
    model = get_model("kronecker").model
    frames = Analysis(model).frames
    for cell in frames.cells:
        if cell.product_dim == 0:
            continue
        f = f_matrix(frames, (cell.p, cell.q))
        # frame columns are independent exactly when the check holds
        assert rank(f) == cell.product_dim == cell.e2_dim


def test_spots_without_a_cell_count_as_zero_on_page_two():
    # S^5 over CP^2 has no basic generator of odd degree, so page 2 has no
    # cell at p = 1 or p = 3, and the frames read those spots as E_2 = 0
    sphere5 = EquivariantModel("sphere_5", LieData.abelian(1), BasicComplex.build(
        [("1", 0), ("v1", 2), ("v2", 4)], euler=[(1, 0, 1, 1), (1, 1, 2, 1)]))
    frames = Analysis(sphere5).frames
    assert (1, 0) not in frames.page2 and (3, 1) not in frames.page2
    assert e2_tensor_check(sphere5, frames).passed
    assert {(c.p, c.q): (c.product_dim, c.e2_dim) for c in frames.cells if c.p % 2} == {
        (1, 0): (0, 0), (1, 1): (0, 0), (3, 0): (0, 0), (3, 1): (0, 0)}
    assert abs(d2_transgression(frames)[(0, 1)].entry(0, 0)) == 1


def test_a_page_missing_a_cell_fails_the_tensor_check_by_rank():
    model = get_model("trivial_product").model
    pg2 = Analysis(model).page2
    assert pg2[(1, 1)].dim == 4
    frames = _e2_frames(model, {pq: c for pq, c in pg2.items() if pq != (1, 1)})
    rep = e2_tensor_check(model, frames)
    assert rep.verdict == "mismatch"
    bad = next(c for c in rep.cells if not c.ok)
    assert (bad.p, bad.q, bad.product_dim, bad.e2_dim, bad.f_rank) == (1, 1, 4, 0, 0)
    assert [(c.p, c.q) for c in rep.cells if not c.ok] == [(1, 1)]
    with pytest.raises(ValueError, match=r"tensor check fails at \(1,1\)"):
        d2_transgression(frames)


def test_readme_python_api_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        line.split("  # ", 1)[1] for line in prints]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_heisenberg_nilmanifolds_have_santharoubanes_betti_numbers(k):
    """Nonzero Euler data on a basic complex of 2^(2k) generators: the total
    cohomology is the closed form, the abutment and the E_2 factorization
    hold, d_2 = omega ^ is the last nonzero differential, and the machine
    report is the bytes of json.dumps(indent=2) of what it writes."""
    an = Analysis(heisenberg_nilmanifold(k))
    assert an.valid
    assert an.total_cohomology == santharoubane_betti(k)
    assert an.abutment.passed and an.e2.passed
    assert an.stabilization == 3
    chunks = []
    machine_document(an, None, chunks.append)
    text = "".join(chunks)
    assert text == json.dumps(json.loads(text), indent=2)
