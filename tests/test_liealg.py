"""Exterior algebra operators, Chevalley-Eilenberg differential, coadjoint action."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from cartanss.liealg import (
    ChiElement,
    LieData,
    all_multi_indices,
    ce_delta,
    chi_from_vector,
    chi_to_vector,
    coadjoint,
    coadjoint_matrix,
    contract,
    delta_gen,
    delta_matrix,
    first_delta_squared_failure,
    invariant_subcomplex,
    lie_cohomology,
    multi_indices,
    validate_lie,
    wedge,
)
from cartanss.library import (
    heisenberg_lie,
    mutated_jacobi_lie,
    rescaled_su2_lie,
    su2_lie,
)
from oracles import (
    direct_sum,
    homotopy_coadjoint,
    oracle_coadjoint_matrix,
    oracle_delta_matrix,
    oracle_invariant_subcomplex,
    wedge_ce_delta,
)


def rand_chi(rng, n, terms=4):
    out = ChiElement.zero()
    idxs = all_multi_indices(n)
    for _ in range(terms):
        out = out + Q(rng.randint(-3, 3)) * ChiElement.basis(rng.choice(idxs))
    return out


def test_multi_index_enumeration():
    assert multi_indices(3, 0) == ((),)
    assert multi_indices(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert all_multi_indices(2) == ((), (1,), (2,), (1, 2))
    assert len(all_multi_indices(4)) == 16


def test_chi_element_rejects_bad_indices():
    with pytest.raises(ValueError):
        ChiElement.basis((2, 1))
    with pytest.raises(ValueError):
        ChiElement.basis((1, 1))
    with pytest.raises(TypeError):
        Q(1) * ChiElement.basis((1,)) + 0.5 * ChiElement.basis((2,))


def test_wedge_worked_examples():
    c = ChiElement.basis
    assert wedge(c((1,)), c((2, 3))) == c((1, 2, 3))
    assert wedge(c((2,)), c((1, 3))) == -c((1, 2, 3))
    assert wedge(c((1,)), c((1, 3))).is_zero
    assert wedge(c((1,)), c((2,))) == -wedge(c((2,)), c((1,)))
    assert wedge(ChiElement.unit(), c((1, 2))) == c((1, 2))


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(3)
    n = 4
    for I in all_multi_indices(n):
        for J in all_multi_indices(n):
            sign = Q((-1) ** (len(I) * len(J)))
            a, b = ChiElement.basis(I), ChiElement.basis(J)
            assert wedge(a, b) == sign * wedge(b, a)
    for _ in range(15):
        a, b, c = (rand_chi(rng, n) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_contract_worked_examples():
    c = ChiElement.basis
    assert contract(1, c((1, 2))) == c((2,))
    assert contract(2, c((1, 2))) == -c((1,))
    assert contract(3, c((1, 2))).is_zero
    assert contract(1, c((1,))) == ChiElement.unit()
    assert contract(1, ChiElement.unit()).is_zero


def test_contractions_anticommute_and_square_to_zero():
    rng = random.Random(9)
    for _ in range(20):
        a = rand_chi(rng, 4)
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        assert contract(i, contract(j, a)) == -contract(j, contract(i, a))
        assert contract(i, contract(i, a)).is_zero


def test_contract_is_odd_derivation():
    rng = random.Random(21)
    for _ in range(20):
        I = random.Random(rng.random()).choice(all_multi_indices(4))
        a = ChiElement.basis(I)
        b = rand_chi(rng, 4)
        i = rng.randint(1, 4)
        lhs = contract(i, wedge(a, b))
        rhs = wedge(contract(i, a), b) + Q((-1) ** len(I)) * wedge(a, contract(i, b))
        assert lhs == rhs


def test_su2_delta_values():
    L = su2_lie()
    c = ChiElement.basis
    assert ce_delta(L, c((1,))) == c((2, 3))
    assert ce_delta(L, c((2,))) == -c((1, 3))
    assert ce_delta(L, c((3,))) == c((1, 2))
    assert ce_delta(L, c((1, 2))).is_zero
    assert ce_delta(L, c((1, 2, 3))).is_zero


def test_delta_is_odd_derivation():
    rng = random.Random(31)
    L = su2_lie()
    for I in all_multi_indices(3):
        a = ChiElement.basis(I)
        for _ in range(5):
            b = rand_chi(rng, 3)
            lhs = ce_delta(L, wedge(a, b))
            rhs = wedge(ce_delta(L, a), b) + Q((-1) ** len(I)) * wedge(a, ce_delta(L, b))
            assert lhs == rhs


def test_delta_squares_to_zero_on_valid_data():
    for L in (su2_lie(), LieData.abelian(4), heisenberg_lie()):
        for I in all_multi_indices(L.n):
            assert ce_delta(L, ce_delta(L, ChiElement.basis(I))).is_zero


def test_coadjoint_convention_on_su2():
    L = su2_lie()
    c = ChiElement.basis
    # L_1 chi_k picks up -chi_{[u_1, u_k]}
    assert coadjoint(L, 1, c((1,))).is_zero
    assert coadjoint(L, 1, c((2,))) == -c((3,))
    assert coadjoint(L, 1, c((3,))) == c((2,))
    assert coadjoint(L, 2, c((3,))) == -c((1,))
    assert coadjoint(L, 1, c((1, 2, 3))).is_zero


def test_coadjoint_is_cartan_homotopy():
    rng = random.Random(41)
    for L in (su2_lie(), heisenberg_lie()):
        for _ in range(10):
            a = rand_chi(rng, L.n)
            ell = rng.randint(1, L.n)
            homotopy = contract(ell, ce_delta(L, a)) + ce_delta(L, contract(ell, a))
            assert coadjoint(L, ell, a) == homotopy


def test_coadjoint_commutes_with_delta():
    L = su2_lie()
    for ell in range(1, 4):
        for I in all_multi_indices(3):
            a = ChiElement.basis(I)
            assert coadjoint(L, ell, ce_delta(L, a)) == ce_delta(L, coadjoint(L, ell, a))


def test_coadjoint_is_even_derivation():
    rng = random.Random(43)
    L = su2_lie()
    for _ in range(15):
        a, b = rand_chi(rng, 3), rand_chi(rng, 3)
        ell = rng.randint(1, 3)
        assert coadjoint(L, ell, wedge(a, b)) == wedge(coadjoint(L, ell, a), b) + wedge(
            a, coadjoint(L, ell, b)
        )


def test_delta_from_coadjoint_sum_identity():
    # delta(chi_I) = (-1)^q/2 * sum_ell coadjoint(ell, chi_I) ^ chi_ell, all I
    for L in (su2_lie(), LieData.abelian(2), LieData.abelian(4), heisenberg_lie()):
        for I in all_multi_indices(L.n):
            q = len(I)
            a = ChiElement.basis(I)
            acc = ChiElement.zero()
            for ell in range(1, L.n + 1):
                acc = acc + wedge(coadjoint(L, ell, a), ChiElement.chi(ell))
            assert ce_delta(L, a) == (Q((-1) ** q) / 2) * acc


def test_vector_round_trip_and_matrices():
    rng = random.Random(47)
    L = su2_lie()
    for q in range(4):
        for _ in range(5):
            a = ChiElement.zero()
            for I in multi_indices(3, q):
                a = a + Q(rng.randint(-3, 3)) * ChiElement.basis(I)
            vec = chi_to_vector(a, 3, q)
            assert chi_from_vector(vec, 3, q) == a
            assert delta_matrix(L, q).apply(vec) == chi_to_vector(ce_delta(L, a), 3, q + 1)


def test_coadjoint_matrix_matches_operator():
    L = su2_lie()
    for ell in range(1, 4):
        for q in range(4):
            m = coadjoint_matrix(L, ell, q)
            for I in multi_indices(3, q):
                vec = chi_to_vector(ChiElement.basis(I), 3, q)
                assert m.apply(vec) == chi_to_vector(coadjoint(L, ell, ChiElement.basis(I)), 3, q)


def test_lie_cohomology_su2_and_abelian():
    assert lie_cohomology(su2_lie()).dims == (1, 0, 0, 1)
    for n in range(1, 5):
        dims = lie_cohomology(LieData.abelian(n)).dims
        assert dims == tuple(len(list(combinations(range(n), q))) for q in range(n + 1))


def test_cohomology_reps_are_cocycles_and_euler_characteristic_vanishes():
    for L in (su2_lie(), heisenberg_lie(), LieData.abelian(3)):
        coh = lie_cohomology(L)
        for q, reps in enumerate(coh.reps):
            for rep in reps:
                assert ce_delta(L, rep).is_zero
        if L.n >= 1:
            assert sum((-1) ** q * d for q, d in enumerate(coh.dims)) == 0


def test_poincare_duality_dims():
    for L in (su2_lie(), LieData.abelian(2), LieData.abelian(4)):
        dims = lie_cohomology(L).dims
        assert dims == dims[::-1]


def test_invariants_match_cohomology_for_full_antisymmetry():
    # joint kernel of the coadjoint actions computes H^* when the metric
    # compatibility holds
    L = su2_lie()
    inv = invariant_subcomplex(L)
    assert tuple(s.dim for s in inv) == lie_cohomology(L).dims
    for q, sub in enumerate(inv):
        for row in sub.basis.data:
            a = chi_from_vector(row, L.n, q)
            assert ce_delta(L, a).is_zero


def test_validate_lie_on_good_data():
    for L in (su2_lie(), LieData.abelian(3)):
        rep = validate_lie(L)
        assert rep.passed
        assert [c.name for c in rep.checks] == [
            "bracket antisymmetry",
            "full antisymmetry",
            "jacobi identity",
            "delta squared",
        ]


def test_validate_lie_heisenberg_fails_only_full_antisymmetry():
    rep = validate_lie(heisenberg_lie())
    got = {c.name: c.passed for c in rep.checks}
    assert got == {
        "bracket antisymmetry": True,
        "full antisymmetry": False,
        "jacobi identity": True,
        "delta squared": True,
    }
    (failure,) = rep.failures()
    assert "c[1][3][2]" in failure.detail and "not ad-invariant" in failure.detail


def test_validate_lie_mutated_jacobi_fails_jacobi_and_delta_squared():
    rep = validate_lie(mutated_jacobi_lie())
    got = {c.name: c.passed for c in rep.checks}
    assert got["jacobi identity"] is False
    assert got["delta squared"] is False
    jac = next(c for c in rep.checks if c.name == "jacobi identity")
    assert jac.detail == "cyclic sum is -1 at (a,b,e,k)=(1,2,3,3)"


def _dense_jacobi_detail(L):
    """The Jacobi check as the plain O(n^5) loop over every index."""
    c = L.bracket_coeff
    idx = range(1, L.n + 1)
    for a in idx:
        for b in idx:
            for e in idx:
                for k in idx:
                    s = sum(
                        c(a, b, m) * c(m, e, k) + c(b, e, m) * c(m, a, k)
                        + c(e, a, m) * c(m, b, k)
                        for m in idx
                    )
                    if s:
                        return f"cyclic sum is {s} at (a,b,e,k)=({a},{b},{e},{k})"
    return ""


def test_sparse_jacobi_check_matches_the_dense_loop():
    rng = random.Random(20261018)
    algebras = [su2_lie(), heisenberg_lie(), rescaled_su2_lie(), mutated_jacobi_lie(),
                LieData.abelian(3)]
    for _ in range(40):
        n = rng.randint(1, 4)
        slots = [(a, b, k) for a in range(1, n + 1) for b in range(1, n + 1)
                 for k in range(1, n + 1)]
        entries = {s: Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
                   for s in rng.sample(slots, min(len(slots), rng.randint(0, 5)))}
        algebras.append(LieData.from_structure_constants(n, entries, completion="none"))
    failing = 0
    for L in algebras:
        jac = next(c for c in validate_lie(L).checks if c.name == "jacobi identity")
        assert jac.detail == _dense_jacobi_detail(L)
        assert jac.passed == (jac.detail == "")
        failing += not jac.passed
    assert failing > 10


def _scanned_delta_gen(L, k):
    """delta chi_k by the O(n^2) scan over every bracket pair."""
    return ChiElement({
        (a, b): L.bracket_coeff(a, b, k)
        for a in range(1, L.n + 1)
        for b in range(a + 1, L.n + 1)
        if L.bracket_coeff(a, b, k)
    })


def test_delta_gen_table_matches_the_scan():
    rng = random.Random(20261019)
    algebras = [su2_lie(), heisenberg_lie(), rescaled_su2_lie(), mutated_jacobi_lie(),
                LieData.abelian(4)]
    for _ in range(60):
        n = rng.randint(1, 6)
        slots = [(a, b, k) for a in range(1, n + 1) for b in range(1, n + 1)
                 for k in range(1, n + 1)]
        entries = {s: Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
                   for s in rng.sample(slots, min(len(slots), rng.randint(0, 12)))}
        algebras.append(LieData.from_structure_constants(n, entries, completion="none"))
    nonzero = 0
    for L in algebras:
        for k in range(1, L.n + 1):
            want = _scanned_delta_gen(L, k)
            got = delta_gen(L, k)
            assert got == want and list(got.coeffs) == list(want.coeffs), (L, k)
            nonzero += not got.is_zero
    assert nonzero > 50


def test_jacobi_holds_iff_delta_squares_to_zero():
    # both directions, over the fixture family
    for L in (su2_lie(), heisenberg_lie(), rescaled_su2_lie(), mutated_jacobi_lie(), LieData.abelian(3)):
        rep = {c.name: c.passed for c in validate_lie(L).checks}
        assert rep["jacobi identity"] == rep["delta squared"]


def test_rescaled_su2_passes_jacobi_but_fails_full_antisymmetry():
    rep = {c.name: c.passed for c in validate_lie(rescaled_su2_lie()).checks}
    assert rep["bracket antisymmetry"] is True
    assert rep["full antisymmetry"] is False
    assert rep["jacobi identity"] is True


def test_from_structure_constants_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError, match="duplicate"):
        LieData.from_structure_constants(3, [(1, 2, 3, 1), (2, 1, 3, -1)], completion="bracket")
    with pytest.raises(ValueError, match="duplicate"):
        LieData.from_structure_constants(3, [(1, 2, 3, 1), (2, 3, 1, 1)], completion="full")
    with pytest.raises(ValueError, match="out of range"):
        LieData.from_structure_constants(2, [(1, 2, 3, 1)])
    with pytest.raises(ValueError, match="distinct"):
        LieData.from_structure_constants(3, [(1, 2, 2, 1)], completion="full")
    with pytest.raises(ValueError, match="equal bracket"):
        LieData.from_structure_constants(3, [(1, 1, 2, 1)], completion="bracket")


def _random_algebras(rng, count, max_n):
    """Structure constants placed verbatim: often not antisymmetric, not Jacobi."""
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        slots = [(a, b, k) for a in range(1, n + 1) for b in range(1, n + 1)
                 for k in range(1, n + 1)]
        entries = {s: Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
                   for s in rng.sample(slots, min(len(slots), rng.randint(1, 10)))}
        out.append(LieData.from_structure_constants(n, entries, completion="none"))
    return out


def test_table_matrices_match_the_wedge_and_homotopy_formulas():
    algebras = [su2_lie(), direct_sum(su2_lie(), su2_lie()), heisenberg_lie(),
                rescaled_su2_lie(), mutated_jacobi_lie()]
    algebras += [LieData.abelian(n) for n in range(1, 8)]
    algebras += _random_algebras(random.Random(20261020), 20, 4)
    nonzero = {"delta": 0, "coadjoint": 0, "eliminated": 0}
    for L in algebras:
        for q in range(L.n + 1):
            d = delta_matrix(L, q)
            assert d == oracle_delta_matrix(L, q), (L, q)
            nonzero["delta"] += not d.is_zero()
            for ell in range(1, L.n + 1):
                m = coadjoint_matrix(L, ell, q)
                assert m == oracle_coadjoint_matrix(L, ell, q), (L, ell, q)
                nonzero["coadjoint"] += not m.is_zero()
        inv = invariant_subcomplex(L)
        assert inv == oracle_invariant_subcomplex(L), L
        nonzero["eliminated"] += any(s.dim < s.ambient_dim for s in inv)
    assert min(nonzero.values()) > 15, nonzero


def test_operators_on_elements_match_the_wedge_and_homotopy_formulas():
    rng = random.Random(20261021)
    algebras = [su2_lie(), heisenberg_lie(), mutated_jacobi_lie(),
                direct_sum(su2_lie(), LieData.abelian(1))]
    algebras += _random_algebras(rng, 10, 4)
    for L in algebras:
        for _ in range(8):
            a = rand_chi(rng, L.n, terms=5)
            assert ce_delta(L, a) == wedge_ce_delta(L, a)
            for ell in range(1, L.n + 1):
                assert coadjoint(L, ell, a) == homotopy_coadjoint(L, ell, a)


def test_first_delta_squared_failure_matches_the_wedge_formula():
    rng = random.Random(20261022)
    algebras = [su2_lie(), heisenberg_lie(), rescaled_su2_lie(), mutated_jacobi_lie()]
    algebras += _random_algebras(rng, 30, 4)
    failing = 0
    for L in algebras:
        want = next((I for I in all_multi_indices(L.n)
                     if not wedge_ce_delta(L, wedge_ce_delta(L, ChiElement.basis(I))).is_zero),
                    None)
        assert first_delta_squared_failure(L) == want, L
        failing += want is not None
    assert failing > 5


def test_coadjoint_matrix_rejects_bad_directions():
    for ell in (0, 4, True):
        with pytest.raises(ValueError, match="direction index"):
            coadjoint_matrix(su2_lie(), ell, 1)
