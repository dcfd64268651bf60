"""Filtration bookkeeping, page formulas, stabilization, abutment."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from oracles import (
    check_structure,
    dense_apply,
    direct_sum,
    dmat,
    dr_matrix,
    filt,
    homology_dims,
    is_zero,
    matmul,
    oracle_divisor,
    oracle_page,
    preimage,
    seed_image,
    seed_mismatches,
    seed_quotient_map,
    seed_kernel_basis,
    seed_rref,
    sum_and_intersect,
    z_space,
)

from cartanss.cli import load_model_file, main, save_model_file
from cartanss.library import MODEL_NAMES, get_model, random_trivial_product, su2_lie
from cartanss.liealg import LieData
from cartanss.model import BasicComplex, EquivariantModel, monomial_basis
from cartanss import liealg, qlinalg, specseq, verify
from cartanss.qlinalg import Matrix, Subspace, apply_sparse, sparse_rank
from cartanss.reports import CertificateError
from cartanss.specseq import (
    FilteredComplex,
    cartan_filtration,
    iter_pages,
    page,
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
    assert p3.dr_is_zero()
    assert page(fc, 4).dims() == p3.dims()


def test_pages_end_at_stabilization_per_card():
    for name in MODEL_NAMES:
        card = get_model(name)
        fc = cartan_filtration(card.model)
        rs = [pg.r for pg in iter_pages(fc)]
        assert rs == list(range(card.expected.stabilization + 1)), name
        assert rs[-1] <= len(fc.dims) + 1


def test_kronecker_degenerates_at_two():
    fc = cartan_filtration(get_model("kronecker").model)
    p2 = page(fc, 2)
    assert p2.dims() == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert p2.dr_is_zero()
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
        return Subspace.zero(0)
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


def test_su2_cubed_over_the_2_torus_matches_kunneth():
    """su(2)^3 over the 2-torus, 2048 monomials, non-abelian in every factor:
    H = H(T^2) (x) H(su(2))^(x)3 by Kunneth counting, with the abutment and
    the E_2 certificate passing."""
    model = EquivariantModel("su2x3_t2", direct_sum(su2_lie(), su2_lie(), su2_lie()),
                             BasicComplex.build([("1", 0), ("a", 1), ("b", 1), ("ab", 2)]))
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
        pages = list(iter_pages(fc))
        pages.append(page(fc, len(pages)))
        for pg in pages:
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
        pages, cache = list(iter_pages(fc)), {}
        pages.append(page(fc, len(pages)))
        for pg in pages:
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


def test_iter_pages_equals_pages_built_alone():
    """iter_pages takes kernels and quotients from earlier pages; every page
    equals page(fc, r) built alone, cell by cell and column by column."""
    for model, last in ((get_model("hopf").model, 3), (sphere_model(2), 3),
                        (get_model("trivial_product").model, 2)):
        fc = cartan_filtration(model)
        pages = list(iter_pages(fc))
        assert [pg.r for pg in pages] == list(range(last + 1)), model.name
        # the last page is E_infinity: the next one has the same cells
        assert page(fc, last + 1).dims() == pages[-1].dims()
    models = reuse_test_models()
    assert "torus_d3" in {model.name for model in models}
    cells = 0
    for model in models:
        fc = cartan_filtration(model)
        for pg in iter_pages(fc):
            alone = page(fc, pg.r)
            assert list(pg.cells) == list(alone.cells), (model.name, pg.r)
            for pq, cell in pg.cells.items():
                want = alone.cells[pq]
                assert (cell.reps, cell.proj, cell.space) == (
                    want.reps, want.proj, want.space), (model.name, pg.r, pq)
                cells += 1
            assert pg.dr == alone.dr and pg.ranks == alone.ranks, (model.name, pg.r)
            assert pg == alone
    assert cells > 1000


def test_support_is_the_triangle_scan_of_nonempty_windows():
    for model in reuse_test_models():
        fc = cartan_filtration(model)
        scan = tuple((p, m - p, fc.cut(p + 1, m), fc.cut(p, m))
                     for m in range(len(fc.dims)) for p in range(m + 1)
                     if fc.cut(p + 1, m) != fc.cut(p, m))
        assert fc.support == scan, model.name


def test_page_pass_counts_on_the_sphere_chain(monkeypatch):
    """One iter_pages pass over each of S^3..S^25 runs each kernel block and
    each cell's quotient once; before blocks and cells were kept it took
    1224 kernels, 720 quotients and 15932 cuts."""
    fcs = [cartan_filtration(sphere_model(k)) for k in range(1, 13)]
    counts = dict.fromkeys(("sparse_kernel", "quotient_map", "cut"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("sparse_kernel", "quotient_map"):
        monkeypatch.setattr(specseq, name, counted(name, getattr(specseq, name)))
    monkeypatch.setattr(FilteredComplex, "cut", counted("cut", FilteredComplex.cut))
    for fc in fcs:
        for _ in iter_pages(fc):
            pass
    assert counts == {"sparse_kernel": 528, "quotient_map": 516, "cut": 1440}


def test_iter_pages_keeps_only_what_the_last_page_read(monkeypatch):
    """Between pages the cache holds exactly the keys the last page asked for."""
    read = []
    get = specseq._PageCache.get

    def recorded_get(self, key, default=None):
        read.append(key)
        return get(self, key, default)

    build = specseq.page
    between = 0

    def checked_page(fc, r, cache):
        nonlocal between
        if r:
            assert set(cache) == set(read), r
            between += 1
        read.clear()
        return build(fc, r, cache)

    monkeypatch.setattr(specseq._PageCache, "get", recorded_get)
    monkeypatch.setattr(specseq, "page", checked_page)
    models = [sphere_model(k) for k in range(1, 13)]
    models += [get_model(name).model for name in MODEL_NAMES]
    models += [su2_pair_model((0, 1)), load_model_file(str(SAMPLES / "torus_d3.json"))]
    for model in models:
        for _ in iter_pages(cartan_filtration(model)):
            pass
    assert between > 40


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
        cache: dict = {}
        walked = [page(fc, r, cache) for r in range(2, len(fc.dims) + 2)]
        last_d = max((pg.r for pg in walked if not pg.dr_is_zero()), default=1)
        an = Analysis(model)
        assert an.stabilization == last_d + 1, model.name
        assert an.stable.dims() == walked[-1].dims(), model.name


def test_d3_model_reaches_e_infinity_at_page_four(capsys):
    """d_2 = 0 but d_3 has rank 1 at (0,2), so E_2 is not yet E_infinity."""
    path = str(SAMPLES / "torus_d3.json")
    assert main(["pages", path]) == 0
    table = capsys.readouterr().out
    assert "stabilization: r = 4" in table and "abutment: ok" in table
    an = Analysis(load_model_file(path))
    assert an.valid
    assert an.page2.dr_is_zero()
    assert [s.d_ranks for s in an.pages[2:]] == [{}, {(0, 2): 1}, {}]
    assert an.stabilization == 4 and an.stable.r == 4
    assert an.stable.dims() == {(0, 0): 1, (0, 1): 2, (3, 1): 2, (3, 2): 1}
    assert an.total_cohomology == (1, 2, 0, 0, 2, 1)
    assert an.abutment.passed


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
    over the 2-torus (256), and ten random trivial products with dense
    rational bases: each distinct matrix `pages` reduces, against
    the seed code.  The row reduction `_reduced` and the kernel routine
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

    def captured(rows, cols):
        m = dense(rows, cols)
        seen[m] = seen.get(m, 0) + 1
        return reduced(rows, cols)

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
    models += [random_trivial_product(rng, tag=f"r{i}").model for i in range(10)]
    for model in models:
        path = str(tmp_path / f"{model.name}.json")
        save_model_file(model, path)
        assert main(["pages", path, "--format", "machine"]) == 0, model.name
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
