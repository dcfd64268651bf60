"""Exact linear algebra: row reduction, kernels, subspace lattice, cohomology."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from oracles import (
    annihilator,
    contains,
    dense_apply,
    dense_basis,
    dense_d_hor,
    dense_reps,
    direct_sum,
    from_columns,
    heisenberg_lie,
    identity_rows,
    matmul,
    oracle_delta_matrix,
    preimage,
    rank,
    seed_image,
    seed_graded_cohomology,
    seed_inverse,
    seed_mismatches,
    seed_quotient_map,
    seed_kernel_basis,
    seed_rref,
    seed_span,
    sparse_columns,
    sum_and_intersect,
    zero_matrix,
)

from cartanss.cli import load_model_file
from cartanss.library import MODEL_NAMES, get_model, random_trivial_product, su2_lie
from cartanss.liealg import LieData, delta_columns
from cartanss.qlinalg import (
    Matrix,
    Subspace,
    _eliminate,
    _reduced,
    apply_sparse,
    as_q,
    column_rows,
    graded_cohomology,
    solve_columns,
    sparse_kernel,
    sparse_rank,
)
from cartanss.verify import Analysis

SAMPLES = Path(__file__).resolve().parent.parent / "sample_models"


def kernel(m: Matrix) -> Subspace:
    """The engine's kernel of m: sparse_kernel of its rows."""
    return Subspace(m.cols, sparse_kernel(column_rows(m.sparse_columns()), m.cols))


def rand_matrix(rng, rows, cols, den=3):
    if rows == 0:
        return zero_matrix(0, cols)
    return Matrix.of(
        [[Q(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(cols)] for _ in range(rows)]
    )


def test_as_q_refuses_floats():
    assert as_q("3/4") == Q(3, 4)
    assert as_q(-2) == Q(-2)
    with pytest.raises(TypeError):
        as_q(0.5)
    with pytest.raises(TypeError):
        as_q(True)


def test_rref_worked_examples():
    red, pivots = Matrix.of([[2, 4], [1, 2]]).rref()
    assert red == Matrix.of([[1, 2], [0, 0]])
    assert pivots == (0,)
    red, pivots = Matrix.of([[0, 1], [1, 0]]).rref()
    assert red == Matrix.of(identity_rows(2))
    assert pivots == (0, 1)


def test_rref_idempotent_and_rank_nullity():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(0, 12), rng.randint(1, 12)
        m = rand_matrix(rng, rows, cols)
        red, pivots = m.rref()
        again, pivots2 = red.rref()
        assert red == again and pivots == pivots2
        assert len(pivots) + kernel(m).dim == cols


def test_kernel_worked_example():
    ker = kernel(Matrix.of([[1, 2]]))
    assert ker == seed_span(2, [[-2, 1]]) == Subspace(2, {0: {1: Q(-1, 2)}})
    assert ker.dim == 1


def test_matrix_multiply_and_apply_agree():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_matrix(rng, 3, 4)
        b = rand_matrix(rng, 4, 2)
        ab = matmul(a, b)
        for j in range(2):
            column = [row[j] for row in b.data]
            want = [row[j] for row in ab.data]
            assert list(dense_apply(a, column)) == want
            got = apply_sparse(a.sparse_columns(), {k: x for k, x in enumerate(column) if x})
            assert got == {i: x for i, x in enumerate(want) if x}


def test_inverse():
    # solve_columns against the unit vectors gives the columns of the inverse
    rng = random.Random(7)
    singular = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n, n, den=1) if rng.random() < 0.5 else Matrix.of(
            [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        columns = [dict(col) for col in m.sparse_columns()]
        units = [{i: 1} for i in range(n)]
        if rank(m) < n:
            singular += 1
            with pytest.raises(ValueError, match="depends on the columns before it"):
                solve_columns(columns, units)
            continue
        inverse = from_columns(solve_columns(columns, units), n)
        assert inverse == seed_inverse(m)
        assert matmul(m, inverse) == Matrix.of(identity_rows(n))
    assert singular >= 3
    with pytest.raises(ValueError):
        solve_columns([{0: 1, 1: 2}, {0: 2, 1: 4}], [{0: 1}])
    with pytest.raises(ValueError, match="not in the span"):
        solve_columns([{0: 1}], [{1: 1}])


def span(d, rows) -> Subspace:
    """The engine's row space of dense rows: the RREF of `_reduced`."""
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    return Subspace(d, _reduced([row for row in sparse if row]))


def test_subspace_equality_is_canonical():
    a = span(2, [[1, 1], [1, 0]])
    b = span(2, [[1, 0], [0, 1]])
    assert a == b == Subspace.full(2)
    assert span(3, [[0, 2, 4]]) == span(3, [[0, 1, 2]])


def test_contains():
    # the engine tests membership by one elimination through the echelon: a
    # nonzero residual is off the space, the check graded_cohomology makes
    # of each coboundary
    w = span(3, [[1, 0, 1], [0, 1, 0]])
    assert contains(w, [2, 3, 2]) and not contains(w, [1, 0, 0])
    rng = random.Random(13)
    hits = 0
    for _ in range(100):
        d = rng.randint(1, 5)
        v = span(d, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(0, d))])
        vec = [Q(rng.randint(-2, 2)) for _ in range(d)]
        if rng.random() < 0.5 and v.dim:
            vec = list(dense_basis(v).data[0])
        inside = contains(v, vec)
        hits += inside
        x = {j: a for j, a in enumerate(vec) if a}
        _eliminate(x, v.echelon())
        assert (not any(x.values())) == inside
    assert 20 < hits < 90


def test_sum_and_intersect_worked_example():
    a = seed_span(2, [[1, 0]])
    b = seed_span(2, [[1, 1]])
    s, i = sum_and_intersect(a, b)
    assert s == Subspace.full(2)
    assert i == Subspace(2, {})


def test_sum_and_intersect_dimension_identity():
    rng = random.Random(13)
    for _ in range(30):
        d = rng.randint(1, 8)
        a = seed_span(d, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, d))])
        b = seed_span(d, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, d))])
        s, i = sum_and_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert all(contains(s, row) for row in dense_basis(a).data + dense_basis(b).data)
        assert all(contains(a, row) and contains(b, row) for row in dense_basis(i).data)


def pair_complex(v: Subspace, w_rows) -> list:
    """Q^k -> Q^d -> Q^(d - dim v) as SparseColumns, whose H^1 is v / span w_rows:
    d_0 has the k rows of w_rows as its columns, d_1 is the annihilator of v."""
    d0 = tuple(tuple((i, x) for i, x in enumerate(row) if x) for row in w_rows)
    return [d0, sparse_columns(annihilator(v))]


def test_graded_cohomology_worked_example():
    # d_0 sends Q onto the line of (1, 1) in Q^2 = ker d_1: H^0 = 0, and H^1
    # is Q^2 modulo that line, represented by e_0, because the image's
    # largest coordinate, its low, is 1
    h0, h1 = graded_cohomology([(((0, 1), (1, 1)),), ((), ())])
    assert h0.space == Subspace(1, {}) and h0.dim == 0
    assert h1.space == Subspace.full(2) and h1.pivots == (0,) and h1.dim == 1
    assert dense_reps(h1).data == ((Q(1), Q(0)),)
    # the image (1, 0) has its low at 0, which leaves e_1
    assert list(graded_cohomology([(((0, 1),),), ((), ())]))[1].pivots == (1,)
    # with d_0 zero, every cocycle row represents a class
    assert list(graded_cohomology([((),), (((0, 1),), ())]))[1].pivots == (1,)


def test_graded_cohomology_properties_randomized():
    rng = random.Random(17)
    for _ in range(25):
        d = rng.randint(1, 7)
        v = seed_span(
            d, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, d))]
        )
        # pick w inside v
        w_rows = []
        for _ in range(rng.randint(0, v.dim)):
            combo = [Q(0)] * d
            for row in dense_basis(v).data:
                c = rng.randint(-2, 2)
                combo = [x + c * y for x, y in zip(combo, row)]
            w_rows.append(combo)
        w = seed_span(d, w_rows)
        # the image as the spanning vectors, zero ones included
        h1 = list(graded_cohomology(pair_complex(v, w_rows)))[1]
        reps = dense_reps(h1)
        k = v.dim - w.dim
        assert h1.space == v and h1.dim == reps.rows == k
        # each representative is the cocycle row at its pivot, and together
        # with w they are independent: a basis of v / w
        for row, pivot in zip(reps.data, h1.pivots):
            assert min(j for j, x in enumerate(row) if x) == pivot and row[pivot] == 1
            assert contains(v, row)
        assert seed_span(d, list(reps.data) + list(dense_basis(w).data)).dim == v.dim


def test_graded_cohomology_refuses_d_squared_nonzero():
    # d_1 d_0 = 1 on Q -> Q -> Q
    with pytest.raises(ValueError, match=r"d\^2 != 0: a column of d_0 is not in ker d_1"):
        list(graded_cohomology([(((0, 1),),), (((0, 1),),)]))
    # an image with an entry past the dimension of C^1 is not a cocycle there
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        list(graded_cohomology([(((0, 1), (1, 1)),), ((),)]))
    # the degrees before the failing one are yielded
    coh = graded_cohomology([(((0, 1),),), (((0, 1),),), ((),)])
    assert next(coh).dim == 0
    with pytest.raises(ValueError, match="d_0"):
        next(coh)


def test_annihilator_cuts_out_subspace():
    rng = random.Random(19)
    for _ in range(20):
        d = rng.randint(1, 6)
        w = seed_span(
            d, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, d))]
        )
        a = annihilator(w)
        assert a.rows == d - w.dim
        assert kernel(a) == w


def test_image_and_preimage():
    rng = random.Random(23)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        w = seed_span(
            rows, [[rng.randint(-2, 2) for _ in range(rows)] for _ in range(rng.randint(0, rows))]
        )
        pre = preimage(m, w)
        assert all(contains(w, row) for row in dense_basis(seed_image(m, pre)).data)
        for r in dense_basis(pre).data:
            assert contains(w, dense_apply(m, r))
    assert preimage(Matrix.of([[1, 0], [0, 1]]), Subspace.full(2)) == Subspace.full(2)


def sparse_rows(rng, count, d):
    """Rows with about half their entries zero, like the model's matrices."""
    return [[Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else Q(0)
             for _ in range(d)] for _ in range(count)]


def span_inside(rng, v, count):
    """A subspace of v spanned by count random combinations of its basis."""
    rows = []
    for _ in range(count):
        combo = [Q(0)] * v.ambient_dim
        for row in dense_basis(v).data:
            c = rng.randint(-2, 2)
            combo = [x + c * y for x, y in zip(combo, row)]
        rows.append(combo)
    return seed_span(v.ambient_dim, rows)


def test_graded_cohomology_matches_the_seed_quotient_on_random_pairs():
    """H^1 of pair_complex(v, w) against seed_quotient_map(v, w): the same
    representatives, and a w that leaves v refused by both."""
    rng = random.Random(20261018)
    kinds = {"w=0": 0, "w=v": 0, "v=0": 0, "ambient 0": 0, "w not in v": 0, "proper": 0}
    for i in range(1200):
        d = 0 if i % 50 == 0 else rng.randint(1, 8)
        v = seed_span(d, sparse_rows(rng, rng.randint(0, d), d))
        case = i % 4
        if case == 0:
            w = Subspace(d, {})
        elif case == 1:
            w = v
        elif case == 2:
            w = seed_span(d, sparse_rows(rng, rng.randint(0, d), d))
        else:
            w = span_inside(rng, v, rng.randint(0, v.dim))
        kinds["ambient 0"] += d == 0
        kinds["v=0"] += v.dim == 0
        kinds["w=0"] += w.dim == 0
        kinds["w=v"] += w == v
        contained = seed_span(d, dense_basis(v).data + dense_basis(w).data).dim == v.dim
        kinds["w not in v"] += not contained
        kinds["proper"] += contained and 0 < w.dim < v.dim
        maps = pair_complex(v, dense_basis(w).data)
        if not contained:
            with pytest.raises(ValueError):
                seed_quotient_map(v, w)
            with pytest.raises(ValueError, match=r"d\^2 != 0"):
                list(graded_cohomology(maps))
            continue
        h1 = list(graded_cohomology(maps))[1]
        reps, (want_reps, _) = dense_reps(h1), seed_quotient_map(v, w)
        assert h1.space == v
        assert (reps.data, reps.cols) == (want_reps.data, want_reps.cols), (v, w)
    assert min(kinds.values()) >= 20, kinds


def twisted_split_complex(rng) -> list[Matrix]:
    """A random split complex twisted by invertible bases, as dense d_0, d_1, ...

    2-5 degrees; degree q holds 0-3 dots, cocycles that no d reaches, and
    0-3 arrows to degree q + 1, pairs of generators that d_q sends one to
    the other.  With T_q a random invertible matrix per degree, the complex
    is T_(q+1) d_q T_q^-1, so its d is dense and d^2 = 0 still holds."""
    degrees = rng.randint(2, 5)
    dots = [rng.randint(0, 3) for _ in range(degrees)]
    arrows = [rng.randint(0, 3) for _ in range(degrees - 1)] + [0]
    incoming = [0] + arrows[:-1]
    dims = [incoming[q] + dots[q] + arrows[q] for q in range(degrees)] + [0]
    twists = []
    for n in dims:
        while True:
            t = Matrix.of([[Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                           for _ in range(n)], cols=n)
            if rank(t) == n:
                twists.append(t)
                break
    maps = []
    for q in range(degrees):
        # C^q is its incoming arrows, its dots, then its outgoing arrows
        split = [[Q(0)] * dims[q] for _ in range(dims[q + 1])]
        for a in range(arrows[q]):
            split[a][incoming[q] + dots[q] + a] = Q(1)
        split = Matrix.of(split, cols=dims[q])
        maps.append(matmul(matmul(twists[q + 1], split), seed_inverse(twists[q])))
    return maps


def test_graded_cohomology_picks_the_seed_representatives():
    """graded_cohomology's cocycles and representative rows against
    seed_graded_cohomology's kernel and seed_quotient_map's reps, entry by
    entry, on complexes built apart from the engine's columns: d_hor of
    every card, every valid sample model and 100 random trivial products
    from its entry list, delta of su(2), the Heisenberg algebra, su(2) +
    su(2), su(2) + R and the abelian algebras of dimension 1 to 5 from
    wedge products, and twisted split complexes.  The representatives are
    the first cocycle rows independent modulo the image, which shows only
    where the image is nonzero and H^q has a proper choice of rows."""
    rng = random.Random(20261022)
    complexes = []
    samples = [load_model_file(str(path)) for path in sorted(SAMPLES.glob("*.json"))]
    basics = [get_model(name).model.basic for name in MODEL_NAMES]
    basics += [m.basic for m in samples if Analysis(m).valid]
    basics += [random_trivial_product(rng, tag=f"r{i}").model.basic for i in range(100)]
    for basic in basics:
        degrees = range(basic.max_degree + 1)
        complexes.append(([basic.d_hor_columns(p) for p in degrees],
                          [dense_d_hor(basic, p) for p in degrees]))
    algebras = [su2_lie(), heisenberg_lie(), direct_sum(su2_lie(), su2_lie()),
                direct_sum(su2_lie(), LieData.abelian(1))]
    for lie in algebras + [LieData.abelian(n) for n in range(1, 6)]:
        degrees = range(lie.n + 1)
        complexes.append(([delta_columns(lie, q) for q in degrees],
                          [oracle_delta_matrix(lie, q) for q in degrees]))
    for _ in range(300):
        dense = twisted_split_complex(rng)
        complexes.append(([sparse_columns(m) for m in dense], dense))
    # "chosen": degrees where both the image and H^q are nonzero, the only
    # ones where the choice of representatives shows
    seen = {"H^q != 0": 0, "nonzero image": 0, "proper kernel": 0, "chosen": 0}
    for columns, dense in complexes:
        got = list(graded_cohomology(columns))
        want = seed_graded_cohomology(dense)
        assert len(got) == len(want) == len(dense)
        for coh, (ker, img, (reps, _)) in zip(got, want):
            assert coh.space == ker
            got_reps = dense_reps(coh)
            assert (got_reps.data, got_reps.cols) == (reps.data, reps.cols), dense
            seen["H^q != 0"] += coh.dim > 0
            seen["nonzero image"] += img.dim > 0
            seen["proper kernel"] += 0 < ker.dim < ker.ambient_dim
            seen["chosen"] += img.dim > 0 and coh.dim > 0
    assert min(seen.values()) >= 100, seen


def test_sparse_echelon_round_trip():
    rng = random.Random(31)
    for _ in range(100):
        d = rng.randint(0, 7)
        sub = seed_span(d, sparse_rows(rng, rng.randint(0, d), d))
        ech = sub.echelon()
        assert list(ech) == sorted(ech)
        assert all(min(tail, default=d) > pivot for pivot, tail in ech.items())
        again = Subspace(d, ech)
        assert again == sub and again.echelon() == ech
        ker = kernel(Matrix.of(sparse_rows(rng, rng.randint(0, d), d), cols=d))
        assert seed_span(d, dense_basis(ker).data).echelon() == ker.echelon()


def test_sparse_columns_apply_like_the_dense_matrix():
    rng = random.Random(29)
    for _ in range(200):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = Matrix.of(sparse_rows(rng, rows, cols), cols=cols)
        sparse = sparse_columns(m)
        assert sum(len(c) for c in sparse) == sum(1 for r in m.data for x in r if x)
        for vec in sparse_rows(rng, 3, cols) + [[Q(0)] * cols]:
            dense = tuple(sum((a * x for a, x in zip(r, vec)), Q(0)) for r in m.data)
            entries = {j: x for j, x in enumerate(vec) if x}
            assert apply_sparse(sparse, entries) == {i: x for i, x in enumerate(dense) if x}


def wild_matrix(rng, rows, cols):
    """Sparse rows over a few random base rows, so often rank-deficient, with
    repeated rows, numerators up to 10^30 and denominators up to 10^12."""
    def entry():
        if rng.random() < 0.4:
            return Q(0)
        num = rng.choice([rng.randint(-5, 5), rng.randint(-10**30, 10**30)])
        den = rng.choice([1, rng.randint(1, 9), rng.randint(1, 10**12)])
        return Q(num, den)

    base = [[entry() for _ in range(cols)] for _ in range(rng.randint(1, max(1, rows)))]
    data = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.5 or not data:
            data.append(list(rng.choice(base)) if kind < 0.2 else [entry() for _ in range(cols)])
        elif kind < 0.7:
            data.append(list(rng.choice(data)))  # a duplicate row
        else:
            a, b = rng.choice(data), rng.choice(base)
            c = Q(rng.randint(-7, 7), rng.randint(1, 10**6))
            data.append([x + c * y for x, y in zip(a, b)])  # a dependent row
    return Matrix.of(data, cols=cols)


def test_sparse_elimination_matches_the_seed_rref_on_wild_matrices():
    rng = random.Random(20261019)
    seen = {"0 x n": 0, "n x 0": 0, "rank-deficient": 0, "duplicate rows": 0,
            "denominator > 10^9": 0, "entry > 10^25": 0, "invertible": 0}
    for i in range(400):
        rows = 0 if i % 40 == 0 else rng.randint(0, 7)
        cols = 0 if i % 40 == 1 else rng.randint(0, 7)
        if i % 5 == 0:
            cols = rows
        m = wild_matrix(rng, rows, cols)
        assert seed_mismatches(m) == [], m
        entries = [x for row in m.data for x in row]
        seen["0 x n"] += rows == 0 and cols > 0
        seen["n x 0"] += cols == 0 and rows > 0
        seen["rank-deficient"] += 0 < rank(m) < min(rows, cols)
        seen["duplicate rows"] += len(set(m.data)) < m.rows and any(entries)
        seen["denominator > 10^9"] += any(x.denominator > 10**9 for x in entries)
        seen["entry > 10^25"] += any(abs(x) > 10**25 for x in entries)
        seen["invertible"] += rows == cols > 1 and rank(m) == rows
    assert min(seen.values()) >= 8, seen



def canonical(a) -> bool:
    """a in the engine's scalar form: an int when integral, else a Fraction."""
    return type(a) is (int if a.denominator == 1 else Q)


def test_sparse_kernel_matches_the_seed_kernel_on_wild_matrices():
    rng = random.Random(20261018)
    seen = {"zero row": 0, "zero column": 0, "one column": 0, "0 x n": 0,
            "non-unit rational": 0, "trivial kernel": 0, "proper kernel": 0}
    for i in range(300):
        rows = 0 if i % 30 == 0 else rng.randint(1, 7)
        cols = 1 if i % 10 == 1 else rng.randint(1, 7)
        data = [list(row) for row in wild_matrix(rng, rows, cols).data]
        if data and i % 3 == 0:
            data[rng.randrange(len(data))] = [Q(0)] * cols
        if i % 4 == 0:
            j = rng.randrange(cols)
            for row in data:
                row[j] = Q(0)
        m = Matrix.of(data, cols=cols)
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in data]
        got = sparse_kernel(sparse, cols)
        want = seed_kernel_basis(m)
        assert Subspace(cols, got) == want, m
        assert list(got) == sorted(got)
        assert all(list(tail) == sorted(tail) and min(tail, default=cols) > f
                   and all(canonical(a) and a for a in tail.values())
                   for f, tail in got.items()), m
        # the RREF of the rows: the seed's row space, in the same scalar form
        red = _reduced([row for row in sparse if row])
        assert Subspace(cols, red) == seed_span(cols, data), m
        assert all(canonical(a) and a for tail in red.values() for a in tail.values()), m
        # zero rows may be left out
        assert sparse_kernel([row for row in sparse if row], cols) == got
        entries = [x for row in data for x in row]
        seen["zero row"] += any(not row for row in sparse) and rows > 1
        seen["zero column"] += any(not any(row[j] for row in data) for j in range(cols))
        seen["one column"] += cols == 1
        seen["0 x n"] += rows == 0
        seen["non-unit rational"] += any(x.denominator > 1 for x in entries)
        seen["trivial kernel"] += not got
        seen["proper kernel"] += 0 < len(got) < cols
    assert min(seen.values()) >= 8, seen


def test_a_lazy_subspace_equals_hashes_and_prints_like_a_dense_one():
    rng = random.Random(20261020)
    for _ in range(100):
        d = rng.randint(0, 6)
        rows = [list(row) for row in wild_matrix(rng, rng.randint(0, 5), d).data] if d else []
        dense = seed_span(d, rows)  # built from its dense RREF rows

        def lazy():
            out = Subspace(d, {p: dict(t) for p, t in dense.echelon().items()})
            assert out.dim == dense.dim
            return out

        # each of ==, hash and repr is checked on a subspace built from a copy of the echelon
        assert hash(lazy()) == hash(dense) == hash(span(d, rows))
        assert repr(lazy()) == repr(dense)
        assert repr(dense) == f"Subspace(ambient_dim={d}, echelon={dense.echelon()!r})"
        assert lazy() == dense and dense == lazy() and lazy() == span(d, rows)
        one = lazy()
        assert (one == d) is False and one != (d, dense.echelon())
        if d:
            other = Subspace.full(d) if dense.dim < d else Subspace(d, {})
            assert lazy() != other and other != lazy()


def test_sparse_rank_matches_the_seed_rank_on_wild_matrices():
    rng = random.Random(20261021)
    deficient = 0
    for i in range(300):
        m = wild_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        want = len(seed_rref(m)[1])
        rows = [{j: x for j, x in enumerate(row) if x} for row in m.data]
        columns = [{i: row[j] for i, row in enumerate(m.data) if row[j]} for j in range(m.cols)]
        assert sparse_rank(rows) == sparse_rank(columns) == want, m
        # explicit zero entries count for nothing
        assert sparse_rank([dict(enumerate(row)) for row in m.data]) == want, m
        deficient += 0 < want < min(m.shape)
    assert deficient >= 20
    assert sparse_rank([]) == sparse_rank([{}, {3: Q(0)}]) == 0
