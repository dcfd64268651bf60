"""Filtration bookkeeping, page formulas, stabilization, abutment."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from oracles import (
    check_structure,
    dense_apply,
    heisenberg_nilmanifold,
    direct_sum,
    dmat,
    dr_matrix,
    filt,
    homology_dims,
    is_zero,
    matmul,
    oracle_counts,
    oracle_divisor,
    oracle_page,
    oracle_pairs,
    preimage,
    seed_image,
    seed_inverse,
    seed_mismatches,
    seed_quotient_map,
    seed_kernel_basis,
    seed_rref,
    sparse_columns,
    sum_and_intersect,
    z_space,
)

from cartanss.cli import load_model_file, main, save_model_file
from cartanss.library import MODEL_NAMES, get_model, random_trivial_product, su2_lie
from cartanss.liealg import LieData, multi_indices
from cartanss.model import BasicComplex, EquivariantModel, monomial_basis
from cartanss import liealg, qlinalg, specseq, verify
from cartanss.qlinalg import Matrix, Subspace, apply_sparse, column_rows, exact, sparse_rank
from cartanss.reports import CertificateError
from cartanss.specseq import (
    FilteredComplex,
    cartan_filtration,
    page,
    persistence_pairing,
)
from cartanss.verify import Analysis

SAMPLES = Path(__file__).resolve().parent.parent / "sample_models"


def nonzero_ranks(pg):
    return {pq: r for pq, r in pg.ranks.items() if r}


def test_hopf_filtration_levels():
    fc = cartan_filtration(get_model("hopf").model)
    assert fc.dims == (1, 1, 1, 1)
    assert fc.cut(0, 1) == 1
    assert fc.cut(1, 1) == 0
    assert [fc.cut(p, 2) for p in range(4)] == [1, 1, 1, 0]
    # p <= 0 is everything, beyond the top is zero, outside degrees are empty
    assert fc.cut(-3, 2) == 1
    assert fc.cut(9, 2) == 0
    assert fc.cut(0, 17) == 0 and fc.ambient(17) == 0


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
        assert page(fc, 0).dims() == counts


def test_page_rejects_negative_index():
    fc = cartan_filtration(get_model("hopf").model)
    with pytest.raises(ValueError):
        page(fc, -1)


def test_hopf_pages_morph_as_expected():
    fc = cartan_filtration(get_model("hopf").model)
    four_cells = {(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1}
    assert page(fc, 0).dims() == four_cells
    assert page(fc, 1).dims() == four_cells
    p2 = page(fc, 2)
    assert p2.dims() == four_cells
    assert nonzero_ranks(p2) == {(0, 1): 1}
    p3 = page(fc, 3)
    assert p3.dims() == {(0, 0): 1, (2, 1): 1}
    assert not nonzero_ranks(p3)
    assert page(fc, 4).dims() == p3.dims()


def walked_pages(fc):
    """page(fc, r) for r = 0 .. E_infinity's page and one past it."""
    return [page(fc, r) for r in range(persistence_pairing(fc).stabilization + 2)]


def test_pages_end_at_stabilization_per_card():
    for name in MODEL_NAMES:
        card = get_model(name)
        fc = cartan_filtration(card.model)
        rs = [s.r for s in Analysis(card.model).pages]
        assert rs == list(range(card.expected.stabilization + 1)), name
        assert persistence_pairing(fc).stabilization == card.expected.stabilization, name
        assert rs[-1] <= len(fc.dims) + 1


def test_kronecker_degenerates_at_two():
    fc = cartan_filtration(get_model("kronecker").model)
    p2 = page(fc, 2)
    assert p2.dims() == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert not nonzero_ranks(p2)
    assert Analysis(get_model("kronecker").model).stabilization == 2


def test_group_su2_collapses_to_lie_cohomology_column():
    fc = cartan_filtration(get_model("group_su2").model)
    assert page(fc, 2).dims() == {(0, 0): 1, (0, 3): 1}
    assert Analysis(get_model("group_su2").model).stabilization == 2


def test_page_recurrence_matches_homology_of_previous_page():
    for name in ("hopf", "kronecker", "group_su2", "trivial_product"):
        card = get_model(name)
        fc = cartan_filtration(card.model)
        for r in range(0, card.expected.stabilization + 2):
            assert page(fc, r + 1).dims() == homology_dims(page(fc, r)), (name, r)


def test_dr_squares_to_zero_where_composable():
    for name in ("hopf", "weighted_hopf", "kronecker", "trivial_product"):
        fc = cartan_filtration(get_model(name).model)
        for r in range(0, 5):
            pg = page(fc, r)
            for (p, q) in pg.dr:
                m = dr_matrix(pg, (p, q))
                if (p + r, q - r + 1) not in pg.dr or m.rows == 0:
                    continue
                nxt = dr_matrix(pg, (p + r, q - r + 1))
                assert is_zero(matmul(nxt, m)), (name, r, p, q)


def test_induced_differential_ignores_divisor_perturbations():
    rng = random.Random(20260815)
    exercised = 0
    models = [get_model("kronecker").model, random_trivial_product(rng).model]
    for model in models:
        fc = cartan_filtration(model)
        for r in (1, 2):
            pg = page(fc, r)
            for (p, q), cell in pg.cells.items():
                divisor = oracle_divisor(fc, r, p, p + q, {})
                if cell.dim == 0 or divisor.dim == 0:
                    continue
                dm = dmat(fc, p + q)
                tgt = pg.cells.get((p + r, q - r + 1))
                for rep in cell.reps.data:
                    noise = [0] * len(rep)
                    for row in divisor.basis.data:
                        c = rng.randint(-2, 2)
                        noise = [x + c * y for x, y in zip(noise, row)]
                    pert = [x + y for x, y in zip(rep, noise)]
                    # same coset, hence same projection and same induced image
                    assert dense_apply(cell.proj, pert) == dense_apply(cell.proj, rep)
                    if tgt is not None and tgt.dim:
                        assert (dense_apply(tgt.proj, dense_apply(dm, pert))
                                == dense_apply(tgt.proj, dense_apply(dm, rep)))
                    exercised += 1
    assert exercised > 0


def test_trivial_product_stable_from_page_two():
    fc = cartan_filtration(get_model("trivial_product").model)
    d2 = page(fc, 2).dims()
    assert d2 == {
        (0, 0): 1, (0, 1): 2, (0, 2): 1,
        (1, 0): 2, (1, 1): 4, (1, 2): 2,
        (2, 0): 1, (2, 1): 2, (2, 2): 1,
    }
    for r in (3, 4, 5):
        assert page(fc, r).dims() == d2


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
    if fc.ambient(m) == 0:
        return Subspace.prefix_space(0, 0)
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


def test_every_page_cell_matches_the_seed_quotient_and_dense_d():
    """Cards, S^3..S^25 and su(2) + su(2) over the 2-torus, every cell of
    pages 0 .. E_infinity and of one page past it, against the full divisor
    of the old engine."""
    cells = 0
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models.append(su2_pair_model((0, 1, 1, 2)))
    for model in models:
        fc = cartan_filtration(model)
        for pg in walked_pages(fc):
            r = pg.r
            for (p, q), cell in pg.cells.items():
                divisor = oracle_divisor(fc, r, p, p + q, {})
                reps, proj = seed_quotient_map(cell.space, divisor)
                assert (cell.reps, cell.proj) == (reps, proj), (model.name, r, p, q)
                dense = dmat(fc, p + q)
                for row in cell.space.basis.data + divisor.basis.data:
                    y = apply_sparse(fc.d_columns[p + q], {j: a for j, a in enumerate(row) if a})
                    assert y == {i: a for i, a in enumerate(dense_apply(dense, row)) if a}
                cells += 1
    assert cells > 300


def oracle_test_models():
    rng = random.Random(20261019)
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models.append(su2_pair_model((0, 1)))
    models += [random_trivial_product(rng, tag=f"o{i}").model for i in range(20)]
    return models


def test_window_pages_match_the_full_triangle_oracle():
    """Every page up to E_infinity and one past it: same dims and d_r ranks as
    the old engine, the same cells where it is built, and zero where a cell is
    skipped."""
    skipped = 0
    for model in oracle_test_models():
        fc = cartan_filtration(model)
        cache = {}
        for pg in walked_pages(fc):
            r = pg.r
            want = oracle_page(fc, r, cache)
            assert pg.dims() == want.dims(), (model.name, r)
            assert pg.ranks == want.ranks, (model.name, r)
            for pq, cell in want.cells.items():
                got = pg.cells.get(pq)
                if got is None:
                    assert cell.dim == 0, (model.name, r, pq)
                    assert fc.cut(pq[0], sum(pq)) == fc.cut(pq[0] + 1, sum(pq))
                    skipped += 1
                else:
                    assert (got.reps, got.proj, got.space) == (
                        cell.reps, cell.proj, cell.space), (model.name, r, pq)
            assert set(pg.cells) <= set(want.cells)
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
    """The page pass over each of S^3..S^25, the persistence pairing and page
    2 built alone, runs one quotient per cell of the E_0 support and reads
    three cuts per cell: the two blocks' and k(p+1, m-1), where the rows of
    Z_1^(p-1) whose images can reach the window start.  It runs one kernel
    per block of d it needs: Z_2 in every cell, and Z_1^(p-1) only where it
    has columns at or past k(p+1, m-1), in 90 of the 180 cells.  d_2 is the
    one differential here, so each of those 270 blocks is zero and all of
    its F^p: none runs sparse_kernel."""
    fcs = [cartan_filtration(sphere_model(k)) for k in range(1, 13)]
    born = sum(fc.cut(p + 1, p + q - 1) < fc.cut(p - 1, p + q - 1)
               for fc in fcs for p, q, _, _ in fc.support)
    assert born == 90
    counts = dict.fromkeys(("sparse_kernel", "quotient_map", "cut", "_kernel"), 0)
    blocks = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    kernel = counted("_kernel", specseq._kernel)

    def logged_kernel(fc, block):
        blocks.add((fcs.index(fc), block))
        return kernel(fc, block)

    for name in ("sparse_kernel", "quotient_map"):
        monkeypatch.setattr(specseq, name, counted(name, getattr(specseq, name)))
    monkeypatch.setattr(FilteredComplex, "cut", counted("cut", FilteredComplex.cut))
    monkeypatch.setattr(specseq, "_kernel", logged_kernel)
    for fc in fcs:
        persistence_pairing(fc)
        page(fc, 2)
    assert sum(len(fc.support) for fc in fcs) == 180
    assert counts == {"sparse_kernel": 0, "quotient_map": 180, "cut": 540, "_kernel": 270}
    assert len(blocks) == 270
    nonzero = [(i, (m, k, row)) for i, (m, k, row) in blocks
               if k and column_rows(fcs[i].d_columns[m][:k], row)]
    assert nonzero == []


def walk_test_models():
    """Every card, S^3..S^25, group_torus:1..8 and heisenberg_nil:1..4."""
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models += [get_model("group_torus", n).model for n in range(1, 9)]
    models += [heisenberg_nilmanifold(k) for k in range(1, 5)]
    return models


def test_prefix_tables_and_bases_match_their_definitions():
    """cartan_filtration reads each prefix table off one walk down the basis,
    and monomial_basis visits only the horizontal degrees that hold
    monomials: each against its definition, the count of basis degrees >= p
    and the filter over every horizontal degree.  The support's walk is
    checked against the triangle scan by
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


def test_page_two_divides_only_by_boundaries_that_reach_the_window(monkeypatch):
    """page(fc, 2) hands quotient_map only the images of d Z_1 that have an
    entry on the cell's window.  Every image it leaves out is zero there and
    still lies in the cell's Z_2 with class zero, as d^2 = 0 makes it, and
    the cells are the full-triangle oracle's: on every digest model and on
    heisenberg_nil:1..4, whose d_2 is Euler data that maps past the window."""
    calls = []
    run = specseq.quotient_map

    def logged(v, w, window=None):
        calls.append((window, list(w)))
        return run(v, w, window=window)

    monkeypatch.setattr(specseq, "quotient_map", logged)
    seen = {"passed": 0, "left out": 0, "heisenberg left out": 0}
    for model in digest_models() + [heisenberg_nilmanifold(k) for k in range(1, 5)]:
        fc = cartan_filtration(model)
        calls.clear()
        pg = page(fc, 2)
        assert [window for window, _ in calls] == [(lo, hi) for _, _, lo, hi in fc.support]
        for (p, q, lo, hi), (_, w) in zip(fc.support, calls):
            assert all(any(lo <= j < hi for j in y) for y in w), (model.name, p, q)
            # every nonzero image of Z_1^(p-1), as the divisor held it before
            born = specseq._kernel(fc, (p + q - 1, fc.cut(p - 1, p + q - 1), hi))
            images = [y for y in (apply_sparse(fc.d_columns[p + q - 1], born.sparse_row(j))
                                  for j in born.echelon()) if y]
            left_out = [y for y in images if y not in w]
            assert len(images) == len(w) + len(left_out), (model.name, p, q)
            for y in left_out:
                assert max(y) < lo and pg.cells[(p, q)].class_of(dict(y)) == {}, (
                    model.name, p, q)
            seen["passed"] += len(w)
            seen["left out"] += len(left_out)
            seen["heisenberg left out"] += len(left_out) * model.name.startswith("heis")
        want = oracle_page(fc, 2)
        assert pg.dims() == want.dims() and pg.ranks == want.ranks, model.name
        for pq, cell in pg.cells.items():
            oracle = want.cells[pq]
            assert (cell.reps, cell.proj, cell.space) == (
                oracle.reps, oracle.proj, oracle.space), (model.name, pq)
    assert min(seen.values()) > 50, seen


def brute_force_test_models():
    rng = random.Random(20261020)
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 7)]
    models += [random_trivial_product(rng, tag=f"b{i}").model for i in range(20)]
    models.append(load_model_file(str(SAMPLES / "torus_d3.json")))
    return models


def test_stabilization_and_e_infinity_against_every_page_to_the_bound():
    """Walk page(fc, r) for r = 2 .. max_degree + 2 with no stopping rule:
    stabilization is one past the last nonzero d_r and E_infinity is the
    last walked page."""
    for model in brute_force_test_models():
        fc = cartan_filtration(model)
        walked = [page(fc, r) for r in range(2, len(fc.dims) + 2)]
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
    assert not nonzero_ranks(an.page2)
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
    """The pairing's summary of page r is page(fc, r)'s nonzero dims and
    nonzero d_r ranks, in the same order, for r = 0 .. stabilization + 1."""
    seen = {"pages": 0, "nonzero d_r at r >= 3": 0, "gap 0": 0, "gap 1": 0}
    for model in pairing_test_models():
        fc = cartan_filtration(model)
        pairing = persistence_pairing(fc)
        assert sum(pairing.sizes.values()) == sum(fc.dims), model.name
        for r in range(pairing.stabilization + 2):
            pg = page(fc, r)
            got = pairing.summary(r)
            assert got == (r, pg.dims(), nonzero_ranks(pg)), (model.name, r)
            assert (list(got.dims), list(got.d_ranks)) == (
                list(pg.dims()), list(nonzero_ranks(pg))), (model.name, r)
            seen["pages"] += 1
            seen["nonzero d_r at r >= 3"] += r >= 3 and bool(got.d_ranks)
        seen["gap 0"] += any(g == 0 for _, _, g in pairing.pairs)
        seen["gap 1"] += any(g == 1 for _, _, g in pairing.pairs)
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
    gives the unsheared pairing's pages and page(fc, r) of the sheared
    complex, for r = 0 .. stabilization + 1."""
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
        for r in range(want.stabilization + 2):
            pg = page(twisted, r)
            assert got.summary(r) == want.summary(r) == (r, pg.dims(), nonzero_ranks(pg)), (
                model.name, r)
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


def dropped_pair(monkeypatch, k):
    """Analysis reads a pairing with its k-th pair left out."""
    real = verify.persistence_pairing

    def dropped(fc):
        pairing = real(fc)
        return pairing._replace(pairs=pairing.pairs[:k] + pairing.pairs[k + 1:])

    monkeypatch.setattr(verify, "persistence_pairing", dropped)


def test_a_pairing_that_disagrees_with_page_two_is_a_named_certificate(monkeypatch):
    dropped_pair(monkeypatch, 0)
    with pytest.raises(CertificateError) as err:
        Analysis(get_model("hopf").model).page2
    assert (err.value.cell, err.value.page) == ((0, 1), 2)
    assert str(err.value) == (
        "page 2 dims = pairing dims fails: dim and d_2 rank (1, 1) on page 2, (1, 0) "
        "by the pairing at page E_2, cell (p,q)=(0,1)")
    # a pair of gap 0 or 1 is a dim on page 2: either end's cell names it
    model = random_trivial_product(random.Random(0)).model
    pairs = persistence_pairing(cartan_filtration(model)).pairs
    k = next(k for k, (_, _, g) in enumerate(pairs) if g < 2)
    p, q, g = pairs[k]
    dropped_pair(monkeypatch, k)
    with pytest.raises(CertificateError, match="page 2 dims = pairing dims") as err:
        Analysis(model).stabilization
    assert err.value.page == 2 and err.value.cell in {(p, q), (p + g, q - g + 1)}


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


def test_a_broken_divisor_is_a_typed_error_naming_cell_and_page():
    with pytest.raises(CertificateError) as info:
        page(bad_complex(), 1)
    err = info.value
    assert (err.cell, err.page) == ((0, 1), 1)
    assert str(err) == "divisor escapes Z_1 at page E_1, cell (p,q)=(0,1)"


def test_every_matrix_reduced_by_pages_matches_the_seed_rref(tmp_path, monkeypatch, capsys):
    """Cards, S^3..S^25, su(2) + su(2) over a circle (128 monomials) and
    over the 2-torus (256), and thirty random trivial products with dense
    rational bases: each distinct matrix `pages` reduces, and each that
    page(fc, r) reduces on the pages up to one past E_infinity, against the
    seed code.  A block of d with no nonzero entry is reduced by no
    one, so the floor on distinct matrices needs the thirty.  The row reduction `_reduced` and the kernel routine
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
    for module in (qlinalg, specseq, liealg):
        monkeypatch.setattr(module, "sparse_kernel", captured_kernel)
    for module in (specseq, verify):
        monkeypatch.setattr(module, "sparse_rank", captured_rank)
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models += [su2_pair_model((0, 1)), su2_pair_model((0, 1, 1, 2))]
    # dense rational bases: blocks with non-unit rational entries
    rng = random.Random(20261018)
    models += [random_trivial_product(rng, tag=f"r{i}").model for i in range(30)]
    for model in models:
        path = str(tmp_path / f"{model.name}.json")
        save_model_file(model, path)
        assert main(["pages", path, "--format", "machine"]) == 0, model.name
        # `pages` builds page 2 alone; the other pages' d_r are ranked too
        walked_pages(cartan_filtration(model))
    capsys.readouterr()
    monkeypatch.undo()
    # the ranks of d_r and of the frames moved from rref to sparse_rank
    assert sum(seen.values()) + rank_calls[0] > 700 and len(seen) > 80
    assert max(m.rows * m.cols for m in seen) >= 2000
    for m in seen:
        assert seed_mismatches(m) == [], m
    assert len(kernels) > 20
    for m, got in kernels.items():
        assert Subspace.from_echelon(m.cols, got) == seed_kernel_basis(m), m
    assert len(ranked) > 20
    for m, rank in ranked.items():
        assert len(seed_rref(m)[1]) == rank, m
