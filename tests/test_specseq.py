"""Filtration bookkeeping, page formulas, stabilization, abutment."""

from __future__ import annotations

import os
import random
from fractions import Fraction as Q
from functools import reduce
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from oracles import (
    ambient,
    check_structure,
    dense_apply,
    dense_basis,
    dense_frames,
    heisenberg_nilmanifold,
    direct_sum,
    dmat,
    filt,
    from_columns,
    homology_dims,
    is_zero,
    matmul,
    monomial_basis,
    oracle_counts,
    oracle_divisor,
    oracle_page,
    oracle_pairs,
    preimage,
    rank,
    recurrence_dims,
    santharoubane_betti,
    seed_image,
    seed_inverse,
    seed_mismatches,
    seed_kernel_basis,
    seed_rref,
    seed_span,
    sparse_columns,
    sum_and_intersect,
    z_space,
)

from cartanss.cli import load_model_file, main, save_model_file
from cartanss.library import MODEL_NAMES, get_model, random_trivial_product, su2_lie
from cartanss.liealg import LieData, multi_indices
from cartanss.model import (
    MAX_AMBIENT_DIM,
    BasicComplex,
    EquivariantModel,
    size_error,
)
from cartanss import liealg, qlinalg, specseq, verify
from cartanss.qlinalg import Matrix, Subspace, apply_sparse, exact, sparse_rank
from cartanss.reports import CertificateError
from cartanss.specseq import (
    FilteredComplex,
    cartan_filtration,
    persistence_pairing,
    second_page,
)
from cartanss.verify import Analysis

SAMPLES = Path(__file__).resolve().parent.parent / "sample_models"


def nonzero_ranks(pg):
    return {pq: r for pq, r in pg.ranks.items() if r}


def page_two_dims(cells):
    """The nonzero dims of page 2's cells, {(p, q): dim}."""
    return {pq: cell.dim for pq, cell in cells.items() if cell.dim}


def test_hopf_filtration_levels():
    fc = cartan_filtration(get_model("hopf").model)
    assert fc.dims == (1, 1, 1, 1)
    assert fc.cut(0, 1) == 1
    assert fc.cut(1, 1) == 0
    assert [fc.cut(p, 2) for p in range(4)] == [1, 1, 1, 0]
    # p <= 0 is everything, beyond the top is zero, outside degrees are empty
    assert fc.cut(-3, 2) == 1
    assert fc.cut(9, 2) == 0
    assert fc.cut(0, 17) == 0 and ambient(fc, 17) == 0


def test_filtration_structure_on_all_cards():
    for name in MODEL_NAMES:
        fc = cartan_filtration(get_model(name).model)
        check_structure(fc)


def test_page_zero_equals_bigraded_dimensions():
    for name in MODEL_NAMES:
        model = get_model(name).model
        fc = cartan_filtration(model)
        counts: dict[tuple[int, int], int] = {}
        for m in range(len(fc.dims)):
            for g, I in monomial_basis(model, m):
                pq = (model.basic.degree_of(g), len(I))
                counts[pq] = counts.get(pq, 0) + 1
        assert persistence_pairing(fc).summary(0).dims == counts


def test_hopf_pages_morph_as_expected():
    fc = cartan_filtration(get_model("hopf").model)
    pairing = persistence_pairing(fc)
    four_cells = {(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1}
    assert pairing.summary(0) == (0, four_cells, {})
    assert pairing.summary(1) == (1, four_cells, {})
    assert pairing.summary(2) == (2, four_cells, {(0, 1): 1})
    assert page_two_dims(second_page(fc, pairing)) == four_cells
    assert pairing.summary(3) == (3, {(0, 0): 1, (2, 1): 1}, {})
    assert pairing.summary(4).dims == pairing.summary(3).dims


def walked_pages(fc):
    """oracle_page(fc, r) for r = 0 .. E_infinity's page and one past it."""
    cache = {}
    return [oracle_page(fc, r, cache) for r in range(persistence_pairing(fc).stabilization + 2)]


def test_pages_end_at_stabilization_per_card():
    for name in MODEL_NAMES:
        card = get_model(name)
        fc = cartan_filtration(card.model)
        rs = [s.r for s in Analysis(card.model).pages]
        assert rs == list(range(card.expected.stabilization + 1)), name
        assert persistence_pairing(fc).stabilization == card.expected.stabilization, name
        assert rs[-1] <= len(fc.dims) + 1


def test_kronecker_degenerates_at_two():
    an = Analysis(get_model("kronecker").model)
    assert page_two_dims(an.page2) == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert an.pages[2].d_ranks == {}
    assert an.stabilization == 2


def test_group_su2_collapses_to_lie_cohomology_column():
    an = Analysis(get_model("group_su2").model)
    assert page_two_dims(an.page2) == {(0, 0): 1, (0, 3): 1}
    assert an.stabilization == 2


def test_page_recurrence_matches_homology_of_previous_page():
    """Each oracle page is the homology of the one before, and each of the
    pairing's summaries is the last one's dims less the ranks of d_r out of
    and into each cell, and the oracle page's dims."""
    for name in ("hopf", "kronecker", "group_su2", "trivial_product"):
        card = get_model(name)
        fc = cartan_filtration(card.model)
        pairing = persistence_pairing(fc)
        cache = {}
        for r in range(0, card.expected.stabilization + 2):
            pg, nxt = oracle_page(fc, r, cache), oracle_page(fc, r + 1, cache)
            assert nxt.dims() == homology_dims(pg), (name, r)
            got = pairing.summary(r)
            assert pairing.summary(r + 1).dims == recurrence_dims(got.dims, got.d_ranks, r) == (
                nxt.dims()), (name, r)


def test_dr_squares_to_zero_where_composable():
    for name in ("hopf", "weighted_hopf", "kronecker", "trivial_product"):
        fc = cartan_filtration(get_model(name).model)
        cache = {}
        for r in range(0, 5):
            pg = oracle_page(fc, r, cache)
            for (p, q), m in pg.dr.items():
                if (p + r, q - r + 1) not in pg.dr or m.rows == 0:
                    continue
                assert is_zero(matmul(pg.dr[(p + r, q - r + 1)], m)), (name, r, p, q)


def sparse(row) -> dict:
    """A dense row's nonzero entries, {index: value}."""
    return {j: a for j, a in enumerate(row) if a}


def test_page_two_classes_ignore_divisor_perturbations():
    """A representative of a class of page 2 moved by an element of the
    divisor keeps its class, and so does its image under d in the target
    cell: the representatives and divisors are the oracle page's."""
    rng = random.Random(20260815)
    exercised = 0
    models = [get_model("kronecker").model, random_trivial_product(rng).model]
    models += [get_model(name).model for name in ("hopf", "weighted_hopf")]
    models += [random_trivial_product(rng).model for _ in range(4)]
    for model in models:
        fc = cartan_filtration(model)
        cells = Analysis(model).page2
        want = oracle_page(fc, 2)
        for (p, q), cell in cells.items():
            oracle = want.cells[(p, q)]
            dm = dmat(fc, p + q)
            tgt = cells.get((p + 2, q - 1))
            for rep in oracle.reps.data:
                noise = [0] * len(rep)
                for row in dense_basis(oracle.divisor).data:
                    c = rng.randint(-2, 2)
                    noise = [x + c * y for x, y in zip(noise, row)]
                pert = [x + y for x, y in zip(rep, noise)]
                assert cell.class_of(sparse(pert)) == cell.class_of(sparse(rep)) != {}
                if tgt is not None and tgt.dim:
                    assert (tgt.class_of(sparse(dense_apply(dm, pert)))
                            == tgt.class_of(sparse(dense_apply(dm, rep))))
                exercised += any(noise)
    assert exercised > 10


def test_trivial_product_stable_from_page_two():
    fc = cartan_filtration(get_model("trivial_product").model)
    pairing = persistence_pairing(fc)
    d2 = {
        (0, 0): 1, (0, 1): 2, (0, 2): 1,
        (1, 0): 2, (1, 1): 4, (1, 2): 2,
        (2, 0): 1, (2, 1): 2, (2, 2): 1,
    }
    assert page_two_dims(second_page(fc, pairing)) == pairing.summary(2).dims == d2
    for r in (3, 4, 5):
        assert pairing.summary(r).dims == d2


def test_abutment_check_per_card():
    for name in MODEL_NAMES:
        card = get_model(name)
        rep = Analysis(card.model).abutment
        assert rep.passed, name
        assert tuple(r.cohomology_dim for r in rep.rows) == card.expected.total_cohomology
        assert tuple(r.stable_total for r in rep.rows) == card.expected.total_cohomology
        assert rep.stabilization == card.expected.stabilization


def sphere_model(k):
    """S^(2k+1) as a circle bundle over CP^k: Euler chain 1 -> v1 -> ... -> vk."""
    gens = [("1", 0)] + [(f"v{j}", 2 * j) for j in range(1, k + 1)]
    euler = [(1, j - 1, j, 1) for j in range(1, k + 1)]
    return EquivariantModel(f"sphere_{2 * k + 1}", LieData.abelian(1),
                            BasicComplex.build(gens, euler=euler))


def differential_test_models():
    rng = random.Random(20261018)
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [random_trivial_product(rng, tag=f"z{i}").model for i in range(20)]
    models += [sphere_model(k) for k in range(1, 5)]
    return models


def oracle_z_space(fc, r, p, m):
    """Z_r by its definition: F^p meeting the preimage of F^(p+r), by Zassenhaus."""
    if ambient(fc, m) == 0:
        return Subspace(0, {})
    return sum_and_intersect(filt(fc, p, m), preimage(dmat(fc, m), filt(fc, p + r, m + 1)))[1]


def test_prefix_kernel_z_space_matches_the_intersection_definition():
    checked = 0
    for model in differential_test_models():
        fc = cartan_filtration(model)
        top = len(fc.dims) - 1
        for r in range(-1, top + 3):
            cache = {}
            for m in range(-1, top + 2):
                # p = -1 stands for every p <= 0, where F^p is all of C^m
                for p in range(-1, m + 3):
                    assert z_space(fc, r, p, m, cache) == oracle_z_space(fc, r, p, m), (
                        model.name, r, p, m)
                    checked += 1
    assert checked > 5000


def test_divisor_span_matches_the_zassenhaus_sum():
    checked = 0
    for model in differential_test_models():
        fc = cartan_filtration(model)
        top = len(fc.dims) - 1
        for r in range(0, top + 3):
            cache = {}
            for m in range(top + 1):
                for p in range(m + 1):
                    born = seed_image(dmat(fc, m - 1),
                                      oracle_z_space(fc, r - 1, p - r + 1, m - 1))
                    other = oracle_z_space(fc, r - 1, p + 1, m)
                    want, _ = sum_and_intersect(born, other)
                    assert oracle_divisor(fc, r, p, m, cache) == want, (model.name, r, p, m)
                    checked += 1
    assert checked > 1000


def su2_pair_model(basic_degrees):
    """su(2) + su(2) over a basic complex with zero differential."""
    gens = [(f"g{i}", deg) for i, deg in enumerate(basic_degrees)]
    name = "su2_pair_" + "".join(map(str, basic_degrees))
    return EquivariantModel(name, direct_sum(su2_lie(), su2_lie()),
                            BasicComplex.build(gens))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def su2_cubed_over_the_2_torus():
    return EquivariantModel("su2x3_t2", direct_sum(su2_lie(), su2_lie(), su2_lie()),
                            BasicComplex.build([("1", 0), ("a", 1), ("b", 1), ("ab", 2)]))


def su2_cubed_over_a_torus(rank):
    """su(2)^3 over T^rank: B = Lambda(a_1..a_rank), one generator per monomial, d_hor = 0."""
    monomials = [s for d in range(rank + 1) for s in combinations(range(1, rank + 1), d)]
    generators = [("".join(f"a{i}" for i in s) or "1", len(s)) for s in monomials]
    return EquivariantModel(f"su2x3_t{rank}", direct_sum(su2_lie(), su2_lie(), su2_lie()),
                            BasicComplex.build(generators))


def test_su2_cubed_over_the_2_torus_matches_kunneth():
    """su(2)^3 over the 2-torus, 2048 monomials, non-abelian in every factor:
    H = H(T^2) (x) H(su(2))^(x)3 by Kunneth counting, with the abutment and
    the E_2 certificate passing."""
    model = su2_cubed_over_the_2_torus()
    lie_dims = (1,)
    for _ in range(3):
        lie_dims = _convolve(lie_dims, (1, 0, 0, 1))
    an = Analysis(model)
    assert an.valid
    assert an.total_cohomology == _convolve((1, 2, 1), lie_dims)
    assert an.abutment.passed and an.e2.passed
    assert an.stabilization == 2


@pytest.mark.skipif(os.environ.get("CARTANSS_SLOW") != "1", reason="set CARTANSS_SLOW=1")
@pytest.mark.parametrize("name", ["heisenberg_nil:7", "su2x3_t6"])
def test_frontier_models_at_the_ambient_limit(name):
    """The two 2^15-monomial models the ambient limit admits, each against its
    closed form: heisenberg_nil:7 (nonzero Euler data on 2^14 generators)
    against Santharoubane's Betti numbers, and su(2)^3 over T^6 against
    H(T^6) (x) H(su(2))^(x)3 by Kunneth counting, with the abutment and the
    E_2 certificate passing."""
    if name == "heisenberg_nil:7":
        model, total, stabilization = heisenberg_nilmanifold(7), santharoubane_betti(7), 3
    else:
        model, stabilization = su2_cubed_over_a_torus(6), 2
        total = _convolve(tuple(comb(6, j) for j in range(7)),
                          reduce(_convolve, [(1, 0, 0, 1)] * 3))
    assert model.basic.num_generators << model.lie.n == MAX_AMBIENT_DIM
    assert size_error(model.basic.num_generators, model.lie.n, model.basic.max_degree) is None
    an = Analysis(model)
    assert an.valid
    assert an.total_cohomology == total
    assert an.abutment.passed and an.e2.passed
    assert an.stabilization == stabilization
    assert len(an.transgression) > 0


def page_two_mismatches(fc, cells, want) -> list:
    """The spots where page 2's cells read classes unlike the oracle page 2
    `want`, up to a change of basis of each E_2.

    Per spot, the classes of the basis rows of the oracle's Z_2, read by the
    cell and by the oracle's dense proj, must have the same row space and
    full rank: the two class maps then differ by an invertible matrix.  The
    classes of d of those rows in the target cell must have the rank of the
    oracle's d_2 there and factor through the cell's classes.  A cell of
    the oracle off the E_0 support must be zero."""
    bad = []
    for pq, oracle in want.cells.items():
        cell = cells.get(pq)
        if cell is None:
            if oracle.dim:
                bad.append(pq)
            continue
        rows = dense_basis(oracle.space).data
        k = len(rows)
        got = [cell.class_of(sparse(row)) for row in rows]
        if None in got:
            bad.append(pq)
            continue
        mine = from_columns(got, cell.dim).data
        theirs = [dense_apply(oracle.proj, row) for row in rows]
        theirs = [[col[i] for col in theirs] for i in range(oracle.dim)]
        if (cell.dim != oracle.dim or rank(Matrix.of(mine, cols=k)) != cell.dim
                or seed_span(k, mine) != seed_span(k, theirs)):
            bad.append(pq)
            continue
        tgt = cells.get((pq[0] + 2, pq[1] - 1))
        if tgt is None or not tgt.dim:
            continue
        dm = dmat(fc, sum(pq))
        images = [tgt.class_of(sparse(dense_apply(dm, row))) for row in rows]
        if None in images:
            bad.append(pq)
            continue
        images = from_columns(images, tgt.dim).data
        if (rank(Matrix.of(images, cols=k)) != want.ranks.get(pq, 0)
                or seed_span(k, mine + images) != seed_span(k, mine)):
            bad.append(pq)
    return bad


def test_page_two_reads_the_classes_of_the_seed_quotient_and_dense_d():
    """Cards, S^3..S^25 and su(2) + su(2) over the 2-torus: every cell of
    page 2 reads the classes and the d_2 images of the oracle page, and d
    applied sparse to the oracle's Z_2 and divisor rows is the dense d."""
    cells = 0
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models.append(su2_pair_model((0, 1, 1, 2)))
    for model in models:
        fc = cartan_filtration(model)
        want = oracle_page(fc, 2)
        assert page_two_mismatches(fc, Analysis(model).page2, want) == [], model.name
        for (p, q), cell in want.cells.items():
            dense = dmat(fc, p + q)
            for row in dense_basis(cell.space).data + dense_basis(cell.divisor).data:
                y = apply_sparse(fc.d_columns[p + q], sparse(row))
                assert y == sparse(dense_apply(dense, row))
            cells += 1
    assert cells > 300


def oracle_test_models():
    rng = random.Random(20261019)
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models.append(su2_pair_model((0, 1)))
    models += [random_trivial_product(rng, tag=f"o{i}").model for i in range(20)]
    return models


def test_pairing_pages_match_the_full_triangle_oracle():
    """Every page up to E_infinity and one past it: the pairing's dims and
    d_r ranks are the oracle page's, every spot off the E_0 support is zero
    there, and page 2's cells sit on the support."""
    skipped = 0
    for model in oracle_test_models():
        fc = cartan_filtration(model)
        pairing = persistence_pairing(fc)
        assert set(second_page(fc, pairing)) == {(p, q) for p, q, _, _ in fc.support}
        for want in walked_pages(fc):
            r = want.r
            assert pairing.summary(r) == (r, want.dims(), nonzero_ranks(want)), (model.name, r)
            for (p, q), cell in want.cells.items():
                if fc.cut(p, p + q) == fc.cut(p + 1, p + q):
                    assert cell.dim == 0, (model.name, r, (p, q))
                    skipped += 1
    assert skipped > 5000


def reuse_test_models():
    """Every card, every valid sample model, S^3..S^25 and 20 random trivial products."""
    rng = random.Random(20261021)
    models = [get_model(name).model for name in MODEL_NAMES]
    samples = [load_model_file(str(path)) for path in sorted(SAMPLES.glob("*.json"))]
    models += [model for model in samples if Analysis(model).valid]
    models += [sphere_model(k) for k in range(1, 13)]
    models += [random_trivial_product(rng, tag=f"u{i}").model for i in range(20)]
    return models


def test_support_is_the_triangle_scan_of_nonempty_windows():
    for model in reuse_test_models():
        fc = cartan_filtration(model)
        scan = tuple((p, m - p, fc.cut(p + 1, m), fc.cut(p, m))
                     for m in range(len(fc.dims)) for p in range(m + 1)
                     if fc.cut(p + 1, m) != fc.cut(p, m))
        assert fc.support == scan, model.name


def test_page_pass_counts_on_the_sphere_chain(monkeypatch):
    """The page pass over each of S^3..S^25, the persistence pairing and
    page 2's cells, runs no elimination of qlinalg and applies d nowhere.
    d_2 is the one differential here, so every gap is 2: no cell holds a
    tail, and the one cut read per cell is the bound of its Z_2."""
    fcs = [cartan_filtration(sphere_model(k)) for k in range(1, 13)]
    counts = dict.fromkeys(("_eliminate", "sparse_kernel", "graded_cohomology", "apply_sparse",
                            "cut"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_eliminate", "sparse_kernel", "graded_cohomology"):
        monkeypatch.setattr(qlinalg, name, counted(name, getattr(qlinalg, name)))
    monkeypatch.setattr(specseq, "apply_sparse", counted("apply_sparse", specseq.apply_sparse))
    monkeypatch.setattr(FilteredComplex, "cut", counted("cut", FilteredComplex.cut))
    pages = [second_page(fc, persistence_pairing(fc)) for fc in fcs]
    assert sum(map(len, pages)) == sum(len(fc.support) for fc in fcs) == 180
    assert counts == {"_eliminate": 0, "sparse_kernel": 0, "graded_cohomology": 0,
                      "apply_sparse": 0, "cut": 180}
    assert not any(cell.tails for cells in pages for cell in cells.values())


def walk_test_models():
    """Every card, S^3..S^25, group_torus:1..8 and heisenberg_nil:1..4."""
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models += [get_model("group_torus", n).model for n in range(1, 9)]
    models += [heisenberg_nilmanifold(k) for k in range(1, 5)]
    return models


def test_prefix_tables_and_bases_match_their_definitions():
    """cartan_filtration counts each prefix table (model.prefix_levels), and
    the oracles' monomial_basis lists the basis by degree_of: each against
    its definition, the count of basis degrees >= p and the listing by
    gens_of_degree over the horizontal degrees that hold monomials.  The
    support's walk is checked against the triangle scan by
    test_support_is_the_triangle_scan_of_nonempty_windows."""
    for model in walk_test_models():
        fc = cartan_filtration(model)
        n, top = model.lie.n, model.basic.max_degree
        for m in range(-1, len(fc.dims) + 1):
            full_range = tuple((g, I) for p in range(top, -1, -1) if 0 <= m - p <= n
                               for g in model.basic.gens_of_degree(p)
                               for I in multi_indices(n, m - p))
            assert monomial_basis(model, m) == full_range, (model.name, m)
            if not 0 <= m < len(fc.dims):
                continue
            degrees = [model.basic.degree_of(g) for g, _ in full_range]
            assert fc.prefix[m] == tuple(sum(deg >= p for deg in degrees)
                                         for p in range(m + 2)), (model.name, m)


def digest_models():
    """The models whose reports tests/test_output_digests.py pins: every valid
    sample model, every card, group_torus:5, :7 and :10, weighted_hopf:3 and
    su(2) + su(2) over the 2-torus."""
    samples = [load_model_file(str(path)) for path in sorted(SAMPLES.glob("*.json"))]
    models = [model for model in samples if Analysis(model).valid]
    models += [get_model(name).model for name in MODEL_NAMES]
    models += [get_model("group_torus", n).model for n in (5, 7, 10)]
    models.append(get_model("weighted_hopf", 3).model)
    models.append(su2_pair_model((0, 1, 1, 2)))
    return models


def random_batch_models():
    """The benchmark's random_batch: the first 100 cards of
    random_trivial_product(Random(0)), named as its workload names them."""
    rng = random.Random(0)
    return [random_trivial_product(rng, tag=f"random_{j:03d}").model for j in range(100)]


def page_two_against_the_oracle(model, seen) -> None:
    """Page 2 of model against the oracle page 2: cell dims, d_2 ranks as
    the report counts them and as the frames' d_2 images have them, and
    each frame's rank against the rank of the dense frame read through the
    oracle's quotient.  test_sparse_reads.py checks the transgression
    against the dense one."""
    an = Analysis(model)
    fc = an.filtration
    want = oracle_page(fc, 2)
    assert page_two_dims(an.page2) == want.dims(), model.name
    assert an.pages[2].d_ranks == nonzero_ranks(want), model.name
    frames = an.frames
    fmats = dense_frames(model, frames, want.cells)
    for cell in frames.cells:
        pq = (cell.p, cell.q)
        assert cell.f_rank == rank(fmats[pq]), (model.name, pq)
        images = frames.d2_columns.get(pq)
        if images is not None and an.e2.passed:
            tgt = an.page2[(cell.p + 2, cell.q - 1)]
            assert rank(from_columns(images, tgt.dim)) == want.ranks.get(pq, 0), (model.name, pq)
            seen["d_2 images"] += 1
        seen["frames"] += 1
    seen["nonzero d_2"] += bool(want.ranks) and any(want.ranks.values())
    seen["models"] += 1


# the digest models the dense oracle takes more than a few seconds on
ORACLE_SKIPS = ("group_torus(10)",)


def test_page_two_matches_the_oracle_page_on_the_digest_models():
    """Every digest model but ORACLE_SKIPS, and heisenberg_nil:1..4, whose
    d_2 is Euler data: dims, d_2 ranks and frame ranks against the oracle."""
    seen = dict.fromkeys(("models", "frames", "d_2 images", "nonzero d_2"), 0)
    models = [m for m in digest_models() if m.name not in ORACLE_SKIPS]
    assert len(models) == len(digest_models()) - len(ORACLE_SKIPS)
    for model in models + [heisenberg_nilmanifold(k) for k in range(1, 5)]:
        page_two_against_the_oracle(model, seen)
    assert seen == {"models": 18, "frames": 154, "d_2 images": 29, "nonzero d_2": 9}, seen


def test_page_two_matches_the_oracle_page_on_the_random_batch():
    seen = dict.fromkeys(("models", "frames", "d_2 images", "nonzero d_2"), 0)
    for model in random_batch_models():
        page_two_against_the_oracle(model, seen)
    assert seen["models"] == 100 and seen["frames"] > 500 and seen["d_2 images"] > 100, seen


def brute_force_test_models():
    rng = random.Random(20261020)
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 7)]
    models += [random_trivial_product(rng, tag=f"b{i}").model for i in range(20)]
    models.append(load_model_file(str(SAMPLES / "torus_d3.json")))
    return models


def test_stabilization_and_e_infinity_against_every_page_to_the_bound():
    """Walk the oracle pages r = 2 .. max_degree + 2 with no stopping rule:
    stabilization is one past the last nonzero d_r and E_infinity is the
    last walked page."""
    for model in brute_force_test_models():
        fc = cartan_filtration(model)
        cache = {}
        walked = [oracle_page(fc, r, cache) for r in range(2, len(fc.dims) + 2)]
        last_d = max((pg.r for pg in walked if nonzero_ranks(pg)), default=1)
        an = Analysis(model)
        assert an.stabilization == last_d + 1, model.name
        assert an.stable.dims == walked[-1].dims(), model.name


def test_d3_model_reaches_e_infinity_at_page_four(capsys):
    """d_2 = 0 but d_3 has rank 1 at (0,2), so E_2 is not yet E_infinity."""
    path = str(SAMPLES / "torus_d3.json")
    assert main(["pages", path]) == 0
    table = capsys.readouterr().out
    assert "stabilization: r = 4" in table and "abutment: ok" in table
    an = Analysis(load_model_file(path))
    assert an.valid
    assert [s.d_ranks for s in an.pages[2:]] == [{}, {(0, 2): 1}, {}]
    assert an.stabilization == 4 and an.stable.r == 4
    assert an.stable.dims == {(0, 0): 1, (0, 1): 2, (3, 1): 2, (3, 2): 1}
    assert an.total_cohomology == (1, 2, 0, 0, 2, 1)
    assert an.abutment.passed


def pairing_test_models():
    """reuse_test_models and brute_force_test_models, the first 100 cards of
    random_trivial_product(Random(0)) and su(2)^3 over the 2-torus."""
    rng = random.Random(0)
    models = reuse_test_models() + brute_force_test_models()
    models += [random_trivial_product(rng).model for _ in range(100)]
    models.append(su2_cubed_over_the_2_torus())
    return models


def test_persistence_pairing_gives_every_page_up_to_one_past_stabilization():
    """Each summary of the pairing, r = 0 .. stabilization + 1, lists its
    cells in the order of the E_0 support, and the next one's dims follow
    from its dims and d_r ranks, cell by cell; page 2's cells have the
    dims of its summary, and E_infinity's totals are the total cohomology."""
    seen = {"pages": 0, "nonzero d_r at r >= 3": 0, "gap 0": 0, "gap 1": 0}
    for model in pairing_test_models():
        fc = cartan_filtration(model)
        pairing = persistence_pairing(fc)
        assert sum(pairing.sizes.values()) == sum(fc.dims), model.name
        assert page_two_dims(second_page(fc, pairing)) == pairing.summary(2).dims, model.name
        for r in range(pairing.stabilization + 2):
            got, nxt = pairing.summary(r), pairing.summary(r + 1)
            assert nxt.dims == recurrence_dims(got.dims, got.d_ranks, r), (model.name, r)
            assert (list(got.dims), list(got.d_ranks)) == (
                [pq for pq in pairing.sizes if pq in got.dims],
                [pq for pq in pairing.sizes if pq in got.d_ranks]), (model.name, r)
            seen["pages"] += 1
            seen["nonzero d_r at r >= 3"] += r >= 3 and bool(got.d_ranks)
        totals = [0] * len(fc.dims)
        for (p, q), d in pairing.summary(pairing.stabilization).dims.items():
            totals[p + q] += d
        assert tuple(totals) == qlinalg.cohomology_dims(fc.d_columns), model.name
        seen["gap 0"] += any(g == 0 for _, _, g, _, _ in pairing.pairs)
        seen["gap 1"] += any(g == 1 for _, _, g, _, _ in pairing.pairs)
    assert seen["pages"] > 700 and min(seen.values()) >= 1, seen


def sheared(fc, rng):
    """fc after a random unipotent upper triangular change of basis in each
    degree.  It keeps every prefix F^p, so every page keeps its dims and d_r
    ranks, but d's columns now reach several levels at once."""
    shears = [Matrix.of([[rng.randint(-2, 2) if i < j else int(i == j) for j in range(n)]
                         for i in range(n)], cols=n) for n in fc.dims]
    cols = list(fc.d_columns)
    for m in range(len(fc.dims) - 1):
        d = matmul(matmul(shears[m + 1], dmat(fc, m)), seed_inverse(shears[m]))
        cols[m] = tuple(tuple((i, exact(a)) for i, a in col) for col in sparse_columns(d))
    return FilteredComplex(fc.dims, tuple(cols), fc.prefix)


def test_persistence_pairing_is_kept_by_a_change_of_basis_that_keeps_the_filtration():
    """After `sheared`, reducing a column crosses levels; the pairing still
    gives the unsheared pairing's pages and the oracle pages of the sheared
    complex, for r = 0 .. stabilization + 1, and page 2's cells read the
    oracle's classes there."""
    rng = random.Random(20261025)
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 7)]
    models.append(load_model_file(str(SAMPLES / "torus_d3.json")))
    models += [random_trivial_product(rng, tag=f"s{i}").model for i in range(20)]
    crossing = 0
    for model in models:
        fc = cartan_filtration(model)
        twisted = sheared(fc, rng)
        check_structure(twisted)
        want, got = persistence_pairing(fc), persistence_pairing(twisted)
        assert got.stabilization == want.stabilization, model.name
        cache = {}
        for r in range(want.stabilization + 2):
            pg = oracle_page(twisted, r, cache)
            assert got.summary(r) == want.summary(r) == (r, pg.dims(), nonzero_ranks(pg)), (
                model.name, r)
            if r == 2:
                assert page_two_mismatches(twisted, second_page(twisted, got), pg) == [], (
                    model.name)
        level = {(p + q, j): p for p, q, lo, hi in fc.support for j in range(lo, hi)}
        crossing += sum(len({level[(m + 1, i)] for i, _ in col}) > 1
                        for m, cols in enumerate(twisted.d_columns) for col in cols)
    assert crossing > 30


def test_persistence_pairing_matches_the_dense_oracle_past_page_two():
    """On hopf and torus_d3 (d_3 != 0) every page from 3 to one past
    stabilization equals the full-triangle oracle page."""
    for model in (get_model("hopf").model, load_model_file(str(SAMPLES / "torus_d3.json"))):
        fc = cartan_filtration(model)
        pairing = persistence_pairing(fc)
        cache = {}
        for r in range(3, pairing.stabilization + 2):
            want = oracle_page(fc, r, cache)
            assert pairing.summary(r) == (r, want.dims(), nonzero_ranks(want)), (model.name, r)
    assert pairing.summary(3).d_ranks == {(0, 2): 1}


def test_persistence_pairing_matches_a_dense_column_reduction_on_every_page():
    """The pairing's summary of page r is the dims and d_r ranks that
    `oracles.oracle_pairs`, a dense column reduction sharing no code with
    the engine, gives, for r = 0 .. stabilization + 1: on every digest
    model, the first 100 cards of random_trivial_product(Random(0)),
    S^3..S^25 and heisenberg_nil:1..4."""
    rng = random.Random(0)
    models = digest_models() + [random_trivial_product(rng).model for _ in range(100)]
    models += [sphere_model(k) for k in range(1, 13)]
    models += [heisenberg_nilmanifold(k) for k in range(1, 5)]
    seen = {"pages": 0, "pairs": 0, "nonzero d_r at r >= 3": 0}
    for model in models:
        fc = cartan_filtration(model)
        pairing = persistence_pairing(fc)
        pairs = oracle_pairs(fc)
        for r in range(pairing.stabilization + 2):
            got = pairing.summary(r)
            assert (got.dims, got.d_ranks) == oracle_counts(fc, pairs, r), (model.name, r)
            seen["pages"] += 1
            seen["nonzero d_r at r >= 3"] += r >= 3 and bool(got.d_ranks)
        seen["pairs"] += len(pairs)
    assert seen["pages"] > 500 and seen["pairs"] > 600 and seen["nonzero d_r at r >= 3"], seen


def edited_pairing(monkeypatch, k, gap=None):
    """Analysis reads a pairing with its k-th pair left out, or given gap `gap`."""
    real = verify.persistence_pairing

    def edited(fc):
        pairing = real(fc)
        p, q, _, j, low = pairing.pairs[k]
        put = () if gap is None else ((p, q, gap, j, low),)
        return pairing._replace(pairs=pairing.pairs[:k] + put + pairing.pairs[k + 1:])

    monkeypatch.setattr(verify, "persistence_pairing", edited)


def test_a_pairing_with_a_dropped_pair_fails_the_abutment_or_the_e2_check(monkeypatch):
    """Page 2 and every page are read off the pairing, so a broken pairing
    is caught by the checks that do not read it: hopf's one pair has gap 2,
    so E_2 stays and E_infinity is too big for the total cohomology, and the
    frames' d_2 image has rank 1 where the pairing says 0; a pair of gap 0
    or 1 leaves a class at either end that no tensor frame reaches."""
    edited_pairing(monkeypatch, 0)
    an = Analysis(get_model("hopf").model)
    assert an.e2.passed and an.stabilization == 2
    assert [(row.degree, row.ok) for row in an.abutment.rows] == [
        (0, True), (1, False), (2, False), (3, True)]
    with pytest.raises(CertificateError, match=r"d_2 rank .* at page E_2, cell \(p,q\)=\(0,1\)"):
        an.transgression
    model = random_trivial_product(random.Random(0)).model
    pairs = persistence_pairing(cartan_filtration(model)).pairs
    k = next(k for k, pair in enumerate(pairs) if pair[2] < 2)
    p, q, g, _, _ = pairs[k]
    edited_pairing(monkeypatch, k)
    an = Analysis(model)
    assert an.e2.verdict == "mismatch" and not an.abutment.passed
    assert {(c.p, c.q) for c in an.e2.cells if not c.ok} <= {(p, q), (p + g, q - g + 1)}
    assert not an.transgression


def test_a_pairing_with_a_shifted_gap_fails_the_d2_rank_check(monkeypatch):
    """T^2 over a base with two Euler classes u, v and a class w in degree 3:
    d_2 takes chi_1 chi_2 at (0, 2) to u chi_2 - v chi_1 at (2, 1).  Read as
    a pair of gap 3, its row moves to (3, 0), in the same total degree, and
    both ends stay alive on page 2: the E_2 check and the abutment pass, and
    only the d_2 rank at (0, 2), 0 where the frames read 1, shows it."""
    model = EquivariantModel("t2_over_w", LieData.abelian(2), BasicComplex.build(
        [("1", 0), ("u", 2), ("v", 2), ("w", 3)], euler=[(1, 0, 1, 1), (2, 0, 2, 1)]))
    pairs = persistence_pairing(cartan_filtration(model)).pairs
    assert [pair[:3] for pair in pairs] == [(0, 1, 2), (0, 1, 2), (0, 2, 2)]
    assert Analysis(model).transgression[(0, 2)].shape == (4, 1)
    edited_pairing(monkeypatch, 2, gap=3)
    an = Analysis(model)
    assert an.e2.passed and an.abutment.passed and an.stabilization == 4
    assert (an.pages[2].d_ranks, an.pages[3].d_ranks) == ({(0, 1): 2}, {(0, 2): 1})
    with pytest.raises(CertificateError, match=r"d_2 rank .* at page E_2, cell \(p,q\)=\(0,2\)"):
        an.transgression


def test_the_d2_rank_check_ranks_only_cells_with_d2_images(monkeypatch):
    """On S^25 most of the grid has no d_2 target: the check ranks the
    cells that hold d_2 images, one sparse_rank each, and reads the rest
    off the pairing's ranks directly."""
    an = Analysis(sphere_model(12))
    frames = an.frames
    ranked = []
    monkeypatch.setattr(verify, "sparse_rank", lambda v: ranked.append(len(v)) or sparse_rank(v))
    verify.d2_rank_check(frames, an.pages[2].d_ranks)
    assert len(ranked) == len(frames.d2_columns) == 12 and len(frames.cells) == 50
    assert all(ranked)


def test_filtration_stores_prefix_lengths():
    fc = cartan_filtration(get_model("hopf").model)
    # C^2 = span(v (x) 1): horizontal degree 2, so F^0 = F^1 = F^2 = C^2
    assert fc.prefix[2] == (1, 1, 1, 0)
    for name in ("hopf", "trivial_product"):
        model = get_model(name).model
        fc = cartan_filtration(model)
        for m in range(len(fc.dims)):
            degrees = [model.basic.degree_of(g) for g, _ in monomial_basis(model, m)]
            # horizontal degree >= p comes first, so F^p C^m is a coordinate prefix
            assert degrees == sorted(degrees, reverse=True)
            for p in range(-1, m + 3):
                assert fc.cut(p, m) == sum(deg >= p for deg in degrees)


def bad_complex():
    """Q -> Q -> Q with both maps the identity, so d^2 != 0; trivial filtration."""
    one = (((0, Q(1)),),)  # the identity Q -> Q, column by column
    return FilteredComplex((1, 1, 1), (one, one, ((),)), ((1, 0), (1, 0, 0), (1, 0, 0, 0)))


def test_a_vector_outside_z_two_has_no_class():
    """The class read refuses a vector with an entry past its window, and
    one whose image under d is not deep enough: on bad_complex d^2 != 0, so
    at (0,1) the boundary of e_0 has d of it at level 0, not 2."""
    fc = cartan_filtration(get_model("hopf").model)
    cell = second_page(fc, persistence_pairing(fc))[(0, 1)]
    assert cell.class_of({0: 1}) == {0: 1}
    assert cell.class_of({1: 1}) is None
    broken = bad_complex()
    cells = second_page(broken, persistence_pairing(broken))
    assert cells[(0, 1)].class_of({0: Q(1)}) is None
    assert [cells[pq].dim for pq in ((0, 0), (0, 1), (0, 2))] == [0, 0, 1]


def test_every_matrix_reduced_by_pages_matches_the_seed_rref(tmp_path, monkeypatch, capsys):
    """Cards, S^3..S^25, su(2) + su(2) over a circle (128 monomials) and
    over the 2-torus (256), su(2) + su(2) + R over a point (128), and thirty
    random trivial products with dense rational bases: each distinct matrix
    `pages` reduces, against the seed code.  The harmonic kernels of su(2)
    + su(2) + R in degrees 3 and 4, 42 rows by 35 columns, are the largest.
    A block of d with no nonzero entry is reduced by no one, so the floor on
    distinct matrices needs the thirty.  The row reduction `_reduced` and the kernel routine
    `sparse_kernel` take sparse rows; the matrix of those rows is checked
    with seed_mismatches, and each kernel against the seed kernel.  A
    sparse_rank call reduces the matrix whose rows are its vectors; its rank
    is checked against the seed's."""
    seen = {}
    kernels = {}
    ranked = {}
    rank_calls = [0]
    reduced, kernel = qlinalg._reduced, qlinalg.sparse_kernel

    def dense(rows, cols):
        rows = [dict(row) for row in rows]
        return Matrix.of([[row.get(j, 0) for j in range(cols)] for row in rows], cols=cols)

    def captured(rows):
        # _reduced takes no width: the matrix ends at its last nonzero column
        rows = list(rows)
        m = dense(rows, 1 + max((j for row in rows for j, _ in row), default=-1))
        seen[m] = seen.get(m, 0) + 1
        return reduced(rows)

    def captured_kernel(rows, cols):
        rows = list(rows)
        m = dense(rows, cols)
        seen[m] = seen.get(m, 0) + 1
        got = kernel(rows, cols)
        kernels[m] = got
        return got

    def captured_rank(vectors):
        vectors = list(vectors)
        width = 1 + max((j for x in vectors for j in x), default=0)
        m = Matrix.of([[x.get(j, 0) for j in range(width)] for x in vectors], cols=width)
        got = sparse_rank(vectors)
        rank_calls[0] += 1
        ranked[m] = got
        return got

    monkeypatch.setattr(qlinalg, "_reduced", captured)
    for module in (qlinalg, liealg):
        monkeypatch.setattr(module, "sparse_kernel", captured_kernel)
    monkeypatch.setattr(verify, "sparse_rank", captured_rank)
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models += [su2_pair_model((0, 1)), su2_pair_model((0, 1, 1, 2))]
    models.append(EquivariantModel("su2_pair_line",
                                   direct_sum(su2_lie(), su2_lie(), LieData.abelian(1)),
                                   BasicComplex.build([("1", 0)])))
    # dense rational bases: blocks with non-unit rational entries
    rng = random.Random(20261018)
    models += [random_trivial_product(rng, tag=f"r{i}").model for i in range(30)]
    for model in models:
        path = str(tmp_path / f"{model.name}.json")
        save_model_file(model, path)
        assert main(["pages", path, "--format", "machine"]) == 0, model.name
    capsys.readouterr()
    monkeypatch.undo()
    # the pages reduce nothing past the pairing: what is left is the
    # cohomology and invariant kernels and the ranks of the frames
    assert sum(seen.values()) + rank_calls[0] > 500 and len(seen) > 50
    assert max(m.rows * m.cols for m in seen) >= 1000
    for m in seen:
        assert seed_mismatches(m) == [], m
    assert len(kernels) > 20
    for m, got in kernels.items():
        assert Subspace(m.cols, got) == seed_kernel_basis(m), m
    assert len(ranked) > 20
    for m, rank in ranked.items():
        assert len(seed_rref(m)[1]) == rank, m
