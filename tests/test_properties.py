"""Property tests of the Chevalley-Eilenberg tables on random reductive algebras.

Each algebra is a direct sum of su(2) summands with rescaled brackets and
abelian summands, in a drawn order.  The draws are derandomized, so a run
checks the same examples every time.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cartanss.liealg import (  # noqa: E402
    LieData,
    coadjoint_matrix,
    delta_matrix,
    first_delta_squared_failure,
)
from cartanss.library import su2_lie  # noqa: E402
from oracles import direct_sum, oracle_coadjoint_matrix, scaled  # noqa: E402

SCALES = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


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
    deltas = [delta_matrix(L, q) for q in range(L.n + 1)]
    for q in range(L.n):
        assert (deltas[q + 1] @ deltas[q]).is_zero()
    for ell in range(1, L.n + 1):
        coad = [coadjoint_matrix(L, ell, q) for q in range(L.n + 1)]
        for q in range(L.n + 1):
            assert coad[q] == oracle_coadjoint_matrix(L, ell, q)
        for q in range(L.n):
            assert deltas[q] @ coad[q] == coad[q + 1] @ deltas[q]
