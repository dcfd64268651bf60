"""Exact linear algebra: row reduction, kernels, subspace lattice, quotients."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest
from oracles import (
    annihilator,
    contains,
    dense_apply,
    dense_basis,
    dense_proj,
    dense_reps,
    divisor_vectors,
    from_columns,
    identity_rows,
    matmul,
    preimage,
    rank,
    seed_image,
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

from cartanss.qlinalg import (
    Matrix,
    Subspace,
    _reduced,
    apply_sparse,
    as_q,
    column_rows,
    quotient_map,
    solve_columns,
    sparse_kernel,
    sparse_rank,
)


def kernel(m: Matrix) -> Subspace:
    """The engine's kernel of m: sparse_kernel of its rows."""
    return Subspace.from_echelon(m.cols, sparse_kernel(column_rows(m.sparse_columns()), m.cols))


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
    assert ker == seed_span(2, [[-2, 1]]) == Subspace.from_echelon(2, {0: {1: Q(-1, 2)}})
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
    return Subspace.from_echelon(d, _reduced([row for row in sparse if row]))


def test_subspace_equality_is_canonical():
    a = span(2, [[1, 1], [1, 0]])
    b = span(2, [[1, 0], [0, 1]])
    assert a == b == Subspace.full(2)
    assert span(3, [[0, 2, 4]]) == span(3, [[0, 1, 2]])


def test_contains():
    # the engine tests membership by one elimination: class_of is None off v,
    # and quotient_map refuses a divisor that leaves v
    w = span(3, [[1, 0, 1], [0, 1, 0]])
    assert quotient_map(w, []).class_of({0: Q(2), 1: Q(3), 2: Q(2)}) is not None
    assert quotient_map(w, []).class_of({0: Q(1)}) is None
    assert quotient_map(w, [{0: Q(1), 1: Q(1), 2: Q(1)}]).dim == 1
    with pytest.raises(ValueError, match="not contained"):
        quotient_map(w, [{i: Q(1)} for i in range(3)])
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
        assert (quotient_map(v, []).class_of(x) is not None) == inside
    assert 20 < hits < 90


def test_sum_and_intersect_worked_example():
    a = seed_span(2, [[1, 0]])
    b = seed_span(2, [[1, 1]])
    s, i = sum_and_intersect(a, b)
    assert s == Subspace.full(2)
    assert i == Subspace.from_echelon(2, {})


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


def test_quotient_map_worked_example():
    v = seed_span(2, [[1, 0], [1, 1]])
    w = seed_span(2, [[1, 1]])
    quot = quotient_map(v, divisor_vectors(w))
    reps, proj = dense_reps(quot), dense_proj(quot)
    assert reps.rows == 1
    # proj kills w, sends each rep to a coordinate vector
    assert dense_apply(proj, dense_basis(w).data[0]) == (Q(0),)
    assert dense_apply(proj, reps.data[0]) == (Q(1),)


def test_quotient_map_properties_randomized():
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
        # the divisor as the spanning vectors, zero ones included
        quot = quotient_map(v, [{j: x for j, x in enumerate(row) if x} for row in w_rows])
        reps, proj = dense_reps(quot), dense_proj(quot)
        k = v.dim - w.dim
        assert reps.rows == k
        if k:
            assert proj.rows == k
            # projection is the identity on representatives and zero on w
            for i in range(k):
                out = dense_apply(proj, reps.data[i])
                assert out == tuple(Q(1) if j == i else Q(0) for j in range(k))
            for row in dense_basis(w).data:
                assert all(x == 0 for x in dense_apply(proj, row))


def test_quotient_map_rejects_bad_inputs():
    v = seed_span(2, [[1, 0]])
    with pytest.raises(ValueError, match="not contained"):
        quotient_map(v, [{1: Q(1)}])
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        quotient_map(v, [{0: Q(1)}, {2: Q(1)}])


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


def test_quotient_map_matches_the_seed_algorithm_on_random_pairs():
    rng = random.Random(20261018)
    kinds = {"w=0": 0, "w=v": 0, "v=0": 0, "ambient 0": 0, "w not in v": 0, "proper": 0}
    for i in range(1200):
        d = 0 if i % 50 == 0 else rng.randint(1, 8)
        v = seed_span(d, sparse_rows(rng, rng.randint(0, d), d))
        case = i % 4
        if case == 0:
            w = Subspace.from_echelon(d, {})
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
        if not contained:
            with pytest.raises(ValueError):
                seed_quotient_map(v, w)
            with pytest.raises(ValueError):
                quotient_map(v, divisor_vectors(w))
            continue
        quot = quotient_map(v, divisor_vectors(w))
        reps, proj = dense_reps(quot), dense_proj(quot)
        want_reps, want_proj = seed_quotient_map(v, w)
        assert (reps.data, reps.cols) == (want_reps.data, want_reps.cols), (v, w)
        assert (proj.data, proj.cols) == (want_proj.data, want_proj.cols), (v, w)
    assert min(kinds.values()) >= 20, kinds


def test_sparse_echelon_round_trip():
    rng = random.Random(31)
    for _ in range(100):
        d = rng.randint(0, 7)
        sub = seed_span(d, sparse_rows(rng, rng.randint(0, d), d))
        ech = sub.echelon()
        assert list(ech) == sorted(ech)
        assert all(min(tail, default=d) > pivot for pivot, tail in ech.items())
        again = Subspace.from_echelon(d, ech)
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
        assert Subspace.from_echelon(cols, got) == want, m
        assert list(got) == sorted(got)
        assert all(list(tail) == sorted(tail) and min(tail, default=cols) > f
                   and all(canonical(a) and a for a in tail.values())
                   for f, tail in got.items()), m
        # the RREF of the rows: the seed's row space, in the same scalar form
        red = _reduced([row for row in sparse if row])
        assert Subspace.from_echelon(cols, red) == seed_span(cols, data), m
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
            out = Subspace.from_echelon(d, {p: dict(t) for p, t in dense.echelon().items()})
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
            other = Subspace.full(d) if dense.dim < d else Subspace.from_echelon(d, {})
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


def test_class_read_matches_contains_vector_and_the_dense_proj():
    """Quotient.class_of against the dense membership test and proj, for
    vectors inside v and vectors that escape it."""
    rng = random.Random(20261022)
    kinds = {"in v": 0, "escapes v": 0, "nonzero class": 0}
    for i in range(300):
        d = rng.randint(1, 8)
        v = seed_span(d, sparse_rows(rng, rng.randint(0, d), d))
        w = span_inside(rng, v, rng.randint(0, v.dim))
        quot = quotient_map(v, divisor_vectors(w))
        reps, proj = dense_reps(quot), dense_proj(quot)
        assert quot.dim == reps.rows
        for row, pivot in zip(reps.data, quot.pivots):
            assert min(j for j, x in enumerate(row) if x) == pivot
        vectors = []
        for _ in range(3):
            combo = [Q(0)] * d
            for row in dense_basis(v).data:
                c = rng.randint(-2, 2)
                combo = [x + c * y for x, y in zip(combo, row)]
            vectors.append(combo)
        vectors += sparse_rows(rng, 2, d) + [list(r) for r in reps.data]
        for vec in vectors:
            got = quot.class_of({j: x for j, x in enumerate(vec) if x})
            if not contains(v, vec):
                assert got is None, (v, vec)
                kinds["escapes v"] += 1
                continue
            kinds["in v"] += 1
            want = {i: x for i, x in enumerate(dense_apply(proj, vec)) if x} if quot.dim else {}
            assert got == want, (v, w, vec)
            kinds["nonzero class"] += bool(got)
    assert min(kinds.values()) >= 50, kinds
