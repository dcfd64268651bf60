"""Acceptance gate: desk-scale worked examples and the theorem-level identities.

Every assertion here is an exact equality; there are no tolerances anywhere.
The conftest hook prints one pass/fail line per criterion after the run.
"""

from __future__ import annotations

import io
import json
import random
import time
from fractions import Fraction as Q

from cartanss.cli import (
    load_model_document,
    machine_document,
    main,
    model_to_document,
    render_table,
)
from cartanss.library import (
    MODEL_NAMES,
    get_model,
    heisenberg_lie,
    mutated_jacobi_lie,
    random_trivial_product,
)
from cartanss.liealg import (
    LieData,
    delta_columns,
    invariant_subcomplex,
    multi_indices,
    validate_lie,
)
from cartanss.model import (
    max_total_degree,
    validate_model,
)
from cartanss.specseq import (
    cartan_filtration,
    persistence_pairing,
)
from cartanss.qlinalg import cohomology_dims
from cartanss.verify import Analysis, basic_cohomology

from oracles import (
    ChiElement,
    ModelElement,
    coadjoint_columns,
    dense_d_hor,
    dmat,
    monomial_basis,
    oracle_lie_dims,
    oracle_total_cohomology,
    recurrence_dims,
    seed_graded_cohomology,
    total_d,
    wedge,
)
from test_cli import parse_table_pages


def page_two_dims(an):
    """The nonzero cell dims of page 2 as the report's cells hold them."""
    return {pq: cell.dim for pq, cell in an.page2.items() if cell.dim}


def test_criterion_01_hopf_card():
    t0 = time.perf_counter()
    card = get_model("hopf")
    assert oracle_total_cohomology(card.model) == (1, 0, 0, 1)
    an = Analysis(card.model)
    four = {(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1}
    assert page_two_dims(an) == an.pages[2].dims == four
    assert an.pages[2].d_ranks == {(0, 1): 1}
    assert an.stabilization == 3
    assert an.e2.verdict == "isomorphism"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_kronecker_card():
    t0 = time.perf_counter()
    card = get_model("kronecker")
    assert oracle_total_cohomology(card.model) == (1, 2, 1)
    an = Analysis(card.model)
    assert page_two_dims(an) == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert an.stabilization == 2
    assert an.e2.verdict == "isomorphism"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_group_su2_card():
    t0 = time.perf_counter()
    card = get_model("group_su2")
    hdims = oracle_lie_dims(card.model.lie)
    assert hdims == (1, 0, 0, 1)
    inv = invariant_subcomplex(card.model.lie)
    assert tuple(s.dim for s in inv) == hdims
    an = Analysis(card.model)
    for q in range(4):
        assert an.page2[(0, q)].dim == hdims[q]
    rep = an.abutment
    assert rep.passed
    assert tuple(r.cohomology_dim for r in rep.rows) == (1, 0, 0, 1)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_tensor_dims_and_full_rank_batch():
    t0 = time.perf_counter()
    models = [get_model(name).model for name in MODEL_NAMES]
    rng = random.Random(20260815)
    models += [random_trivial_product(rng, tag=f"batch{i}").model for i in range(20)]
    for model in models:
        an = Analysis(model)
        rep = an.e2
        assert rep.passed, model.name
        hq = oracle_lie_dims(model.lie)
        bdims = tuple(h.dim for h in basic_cohomology(model))
        # the rank-only count and graded_cohomology agree with the seed
        # kernels and images
        degrees = range(model.basic.max_degree + 1)
        d_hor = [model.basic.d_hor_columns(p) for p in degrees]
        seed = seed_graded_cohomology(dense_d_hor(model.basic, p) for p in degrees)
        assert cohomology_dims(d_hor) == bdims == tuple(
            k.dim - i.dim for k, i, _ in seed), model.name
        fc = an.filtration
        dense_d = (dmat(fc, m) for m in range(len(fc.dims)))
        total = tuple(ker.dim - img.dim for ker, img, _ in seed_graded_cohomology(dense_d))
        assert an.total_cohomology == total, model.name
        for c in rep.cells:
            assert c.e2_dim == bdims[c.p] * hq[c.q], (model.name, c.p, c.q)
            assert c.f_rank == c.product_dim == c.e2_dim
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_delta_from_infinitesimal_actions():
    algebras = [LieData.from_structure_constants(3, {(1, 2, 3): 1})]
    algebras += [LieData.abelian(n) for n in range(1, 5)]
    for L in algebras:
        for q in range(L.n + 1):
            idx, up = multi_indices(L.n, q), multi_indices(L.n, q + 1)
            coad = [coadjoint_columns(L, ell, q) for ell in range(1, L.n + 1)]
            for j, col in enumerate(delta_columns(L, q)):
                acc = ChiElement.zero()
                for ell in range(1, L.n + 1):
                    image = ChiElement({idx[i]: v for i, v in coad[ell - 1][j]})
                    acc = acc + wedge(image, ChiElement.chi(ell))
                delta = ChiElement({up[i]: v for i, v in col})
                assert delta == (Q((-1) ** q) / 2) * acc, (L.n, idx[j])


def test_criterion_06_d_squared_suite():
    component_names = (
        "bidegree (0,2) component",
        "bidegree (1,1) component",
        "bidegree (2,0) component",
        "bidegree (3,-1) component",
        "bidegree (4,-2) component",
    )
    for name in MODEL_NAMES:
        model = get_model(name).model
        for k in range(max_total_degree(model) + 1):
            for g, I in monomial_basis(model, k):
                x = ModelElement.monomial(g, I)
                assert total_d(model, total_d(model, x)).is_zero, (name, g, I)
        rep = validate_model(model)
        got = {c.name: c.passed for c in rep.checks}
        for cname in component_names:
            assert got[cname] is True, (name, cname)
        assert got["total differential squared"] is True

    heis = validate_lie(heisenberg_lie())
    assert not heis.passed
    (failure,) = heis.failures()
    assert failure.name == "full antisymmetry"
    assert "not ad-invariant" in failure.detail

    mut = validate_lie(mutated_jacobi_lie())
    got = {c.name: c for c in mut.checks}
    assert got["jacobi identity"].passed is False
    assert "cyclic sum" in got["jacobi identity"].detail
    assert got["delta squared"].passed is False


def test_criterion_07_abutment_oracle():
    for name in MODEL_NAMES:
        model = get_model(name).model
        fc = cartan_filtration(model)
        # past the top degree no d_r has room: this page is E_infinity
        stable = persistence_pairing(fc).summary(len(fc.dims) + 1)
        hdims = oracle_total_cohomology(model)
        sums = [0] * len(hdims)
        for (p, q), d in stable.dims.items():
            sums[p + q] += d
        assert tuple(sums) == hdims, name
        assert Analysis(model).abutment.passed


def test_criterion_08_page_recurrence():
    """Each page's dims are the last page's less the ranks of d_r out of
    and into each cell."""
    for name in MODEL_NAMES:
        card = get_model(name)
        pairing = persistence_pairing(cartan_filtration(card.model))
        for r in range(card.expected.stabilization + 1):
            pg = pairing.summary(r)
            assert pairing.summary(r + 1).dims == recurrence_dims(pg.dims, pg.d_ranks, r), (
                name, r)


def test_criterion_09_weighted_hopf_transgression():
    hopf_e3 = {(0, 0): 1, (2, 1): 1}
    for w in (1, 2, 3, 5):
        model = get_model("weighted_hopf", w).model
        entry = Analysis(model).transgression[(0, 1)]
        assert entry.shape == (1, 1)
        assert abs(entry.entry(0, 0)) == w
        fc = cartan_filtration(model)
        assert persistence_pairing(fc).summary(3).dims == hopf_e3, w


def test_criterion_10_cli_round_trip(capsys):
    for name in MODEL_NAMES:
        model = get_model(name).model
        assert load_model_document(model_to_document(model)) == model, name
        assert main(["examples", "--run", name]) == 0, name
        capsys.readouterr()

        an = Analysis(model)
        chunks = []
        machine_document(an, None, chunks.append)
        doc = json.loads("".join(chunks))
        out = io.StringIO()
        render_table(an, None, out.write)
        table = out.getvalue()
        parsed = parse_table_pages(table)
        for page_doc in doc["pages"]:
            cells = parsed[page_doc["r"]]
            assert page_doc["dims"] == {k: v[0] for k, v in cells.items()}, name
            for key, (_, rk) in cells.items():
                assert page_doc["d_ranks"].get(key, 0) == rk, (name, key)
        assert f"stabilization: r = {doc['stabilization']}" in table
        assert f"total cohomology dims: {doc['total_cohomology']}" in table
        assert f"basic cohomology dims: {doc['basic_cohomology']}" in table
        einf_rows = parse_einf(table)
        assert einf_rows == doc["e_infinity"], name
        for pq, mat in doc["transgression"].items():
            if mat and mat[0]:
                p, q = map(int, pq.split(","))
                assert f"({p},{q}) -> ({p + 2},{q - 1}): {mat}" in table


def parse_einf(table):
    rows = {}
    lines = table.splitlines()
    start = lines.index("E_infinity cells:")
    for line in lines[start + 2:]:
        parts = line.split()
        if len(parts) != 3 or not all(p.isdigit() for p in parts):
            break
        p, q, d = map(int, parts)
        rows[f"{p},{q}"] = d
    return rows
