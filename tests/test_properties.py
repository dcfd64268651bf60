"""Property tests of the sparse row reduction and of the Chevalley-Eilenberg tables.

Matrices are small rational matrices, mostly zero, with repeated rows.  Each
algebra is a direct sum of su(2) summands with rescaled brackets and abelian
summands, in a drawn order.  The draws are derandomized, so a run checks the
same examples every time.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cartanss.liealg import (  # noqa: E402
    LieData,
    delta_columns,
    first_delta_squared_failure,
)
from cartanss.library import su2_lie  # noqa: E402
from cartanss.qlinalg import Matrix, apply_sparse  # noqa: E402
from oracles import (  # noqa: E402
    coadjoint_columns,
    direct_sum,
    oracle_coadjoint_matrix,
    scaled,
    seed_rref,
    sparse_columns,
)

SCALES = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.fractions(max_denominator=10**6).map(lambda x: x * 10**12))


@st.composite
def rational_matrices(draw) -> Matrix:
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = []
    for _ in range(rows):
        if data and draw(st.booleans()):
            data.append(draw(st.sampled_from(data)))
        else:
            data.append([draw(ENTRIES) for _ in range(cols)])
    return Matrix.of(data, cols=cols)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(rational_matrices())
def test_rref_is_the_seed_rref_idempotent_with_unit_pivot_columns(m):
    red, pivots = m.rref()
    assert (red, pivots) == seed_rref(m)
    assert red.rref() == (red, pivots)
    for i, p in enumerate(pivots):
        assert tuple(row[p] for row in red.data) == tuple(int(k == i) for k in range(m.rows))


@st.composite
def reductive_algebras(draw) -> LieData:
    scales = draw(st.lists(SCALES, max_size=2))
    rank = draw(st.integers(0 if scales else 1, 6 - 3 * len(scales)))
    parts = [scaled(su2_lie(), t) for t in scales] + [LieData.abelian(1)] * rank
    return direct_sum(*draw(st.permutations(parts)))


@settings(derandomize=True, database=None, max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(reductive_algebras())
def test_delta_and_coadjoint_tables_on_reductive_algebras(L):
    assert first_delta_squared_failure(L) is None
    def compose(a, b):
        """The columns of a o b, for maps given by their columns, as {row: value}."""
        return [apply_sparse(a, dict(col)) for col in b]

    deltas = [delta_columns(L, q) for q in range(L.n + 1)]
    for q in range(L.n):
        assert not any(compose(deltas[q + 1], deltas[q]))
    for ell in range(1, L.n + 1):
        coad = [coadjoint_columns(L, ell, q) for q in range(L.n + 1)]
        for q in range(L.n + 1):
            assert coad[q] == sparse_columns(oracle_coadjoint_matrix(L, ell, q))
        for q in range(L.n):
            assert compose(deltas[q], coad[q]) == compose(coad[q + 1], deltas[q])
