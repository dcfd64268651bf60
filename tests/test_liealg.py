"""Exterior algebra operators, Chevalley-Eilenberg differential, coadjoint action."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction as Q
from functools import reduce
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from cartanss import liealg
from cartanss.cli import main, save_model_file
from cartanss.liealg import (
    LieData,
    all_multi_indices,
    delta_columns,
    first_delta_squared_failure,
    invariant_subcomplex,
    multi_indices,
    validate_lie,
)
from cartanss.library import (
    get_model,
    rescaled_su2_lie,
    su2_lie,
)
from cartanss.model import BasicComplex, EquivariantModel, validate_model
from cartanss.qlinalg import Matrix, apply_sparse, column_rows, graded_cohomology, sparse_kernel
from cartanss.reports import CertificateError
from cartanss.verify import _lie_realization_ok
from oracles import (
    ChiElement,
    chi_from_vector,
    coadjoint_columns,
    contract,
    dense_basis,
    dense_reps,
    direct_sum,
    chi_to_vector,
    heisenberg_lie,
    homotopy_coadjoint,
    mutated_jacobi_lie,
    oracle_coadjoint_matrix,
    oracle_delta_matrix,
    oracle_invariant_subcomplex,
    oracle_lie_dims,
    rotated,
    scaled,
    seed_kernel_basis,
    seed_span,
    sparse_columns,
    wedge,
    wedge_ce_delta,
)
from test_specseq import _convolve


def table_chi(columns, n, q, j):
    """Column j of an operator on Lambda^q given by its columns, as a ChiElement."""
    idx = multi_indices(n, q)
    return ChiElement({idx[i]: v for i, v in columns[j]})


def table_apply(columns_of, n, a, shift):
    """a pushed through the operator whose columns on Lambda^q are
    columns_of(q), which lands in Lambda^(q+shift)."""
    out = ChiElement.zero()
    for q in range(n + 1):
        vec = {i: v for i, v in enumerate(chi_to_vector(a, n, q)) if v}
        if vec:
            idx = multi_indices(n, q + shift)
            out = out + ChiElement({idx[i]: v for i, v in apply_sparse(columns_of(q), vec).items()})
    return out


def table_delta(L, a):
    return table_apply(lambda q: delta_columns(L, q), L.n, a, 1)


def table_coadjoint(L, ell, a):
    return table_apply(lambda q: coadjoint_columns(L, ell, q), L.n, a, 0)


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
    assert wedge_ce_delta(L, c((1,))) == c((2, 3))
    assert wedge_ce_delta(L, c((2,))) == -c((1, 3))
    assert wedge_ce_delta(L, c((3,))) == c((1, 2))
    assert wedge_ce_delta(L, c((1, 2))).is_zero
    assert wedge_ce_delta(L, c((1, 2, 3))).is_zero


def test_delta_is_odd_derivation():
    rng = random.Random(31)
    L = su2_lie()
    for I in all_multi_indices(3):
        a = ChiElement.basis(I)
        for _ in range(5):
            b = rand_chi(rng, 3)
            lhs = wedge_ce_delta(L, wedge(a, b))
            rhs = (wedge(wedge_ce_delta(L, a), b)
                   + Q((-1) ** len(I)) * wedge(a, wedge_ce_delta(L, b)))
            assert lhs == rhs


def test_delta_squares_to_zero_on_valid_data():
    for L in (su2_lie(), LieData.abelian(4), heisenberg_lie()):
        for I in all_multi_indices(L.n):
            assert wedge_ce_delta(L, wedge_ce_delta(L, ChiElement.basis(I))).is_zero


def test_coadjoint_convention_on_su2():
    L = su2_lie()
    c = ChiElement.basis
    # L_1 chi_k picks up -chi_{[u_1, u_k]}, in the definition and in the table
    def table(ell, i):
        return table_chi(coadjoint_columns(L, ell, 1), 3, 1, i - 1)

    assert homotopy_coadjoint(L, 1, c((1,))).is_zero
    assert homotopy_coadjoint(L, 1, c((2,))) == -c((3,)) == table(1, 2)
    assert homotopy_coadjoint(L, 1, c((3,))) == c((2,)) == table(1, 3)
    assert homotopy_coadjoint(L, 2, c((3,))) == -c((1,)) == table(2, 3)
    assert homotopy_coadjoint(L, 1, c((1, 2, 3))).is_zero
    assert coadjoint_columns(L, 1, 0) == ((),) and coadjoint_columns(L, 1, 3) == ((),)


def test_coadjoint_commutes_with_delta():
    L = su2_lie()
    for ell in range(1, 4):
        for I in all_multi_indices(3):
            a = ChiElement.basis(I)
            assert (homotopy_coadjoint(L, ell, wedge_ce_delta(L, a))
                    == wedge_ce_delta(L, homotopy_coadjoint(L, ell, a)))


def test_coadjoint_is_even_derivation():
    rng = random.Random(43)
    L = su2_lie()
    for _ in range(15):
        a, b = rand_chi(rng, 3), rand_chi(rng, 3)
        ell = rng.randint(1, 3)
        assert homotopy_coadjoint(L, ell, wedge(a, b)) == (
            wedge(homotopy_coadjoint(L, ell, a), b) + wedge(a, homotopy_coadjoint(L, ell, b)))


def test_coadjoint_is_cartan_homotopy():
    # the engine's coadjoint table is i_ell delta + delta i_ell, delta read
    # from the engine's own delta table
    rng = random.Random(41)
    for L in (su2_lie(), heisenberg_lie()):
        for _ in range(10):
            a = rand_chi(rng, L.n)
            ell = rng.randint(1, L.n)
            homotopy = contract(ell, table_delta(L, a)) + table_delta(L, contract(ell, a))
            assert table_coadjoint(L, ell, a) == homotopy


def test_coadjoint_matrix_matches_operator():
    L = su2_lie()
    for ell in range(1, 4):
        for q in range(4):
            m = coadjoint_columns(L, ell, q)
            for j, I in enumerate(multi_indices(3, q)):
                want = homotopy_coadjoint(L, ell, ChiElement.basis(I))
                assert table_chi(m, 3, q, j) == want
                vec = {i: v for i, v in enumerate(chi_to_vector(ChiElement.basis(I), 3, q)) if v}
                assert apply_sparse(m, vec) == {
                    i: v for i, v in enumerate(chi_to_vector(want, 3, q)) if v}


def test_operators_on_elements_match_the_wedge_and_homotopy_formulas():
    # the tables applied to whole elements, not only to basis vectors
    rng = random.Random(20261021)
    algebras = [su2_lie(), heisenberg_lie(), mutated_jacobi_lie(),
                direct_sum(su2_lie(), LieData.abelian(1))]
    algebras += _random_algebras(rng, 10, 4)
    for L in algebras:
        for _ in range(8):
            a = rand_chi(rng, L.n, terms=5)
            assert table_delta(L, a) == wedge_ce_delta(L, a)
            for ell in range(1, L.n + 1):
                assert table_coadjoint(L, ell, a) == homotopy_coadjoint(L, ell, a)


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
            image = apply_sparse(delta_columns(L, q), {i: v for i, v in enumerate(vec) if v})
            want = chi_to_vector(wedge_ce_delta(L, a), 3, q + 1)
            assert image == {i: v for i, v in enumerate(want) if v}


def test_delta_from_coadjoint_sum_identity():
    # delta(chi_I) = (-1)^q/2 * sum_ell coadjoint(ell, chi_I) ^ chi_ell, all I,
    # by the definitions and by the engine's tables
    for L in (su2_lie(), LieData.abelian(2), LieData.abelian(4), heisenberg_lie()):
        for q in range(L.n + 1):
            delta = delta_columns(L, q)
            coad = [coadjoint_columns(L, ell, q) for ell in range(1, L.n + 1)]
            for j, I in enumerate(multi_indices(L.n, q)):
                a = ChiElement.basis(I)
                acc = ChiElement.zero()
                table = ChiElement.zero()
                for ell in range(1, L.n + 1):
                    acc = acc + wedge(homotopy_coadjoint(L, ell, a), ChiElement.chi(ell))
                    table = table + wedge(table_chi(coad[ell - 1], L.n, q, j),
                                          ChiElement.chi(ell))
                half = Q((-1) ** q) / 2
                assert wedge_ce_delta(L, a) == half * acc
                assert table_chi(delta, L.n, q + 1, j) == half * table


def test_lie_cohomology_su2_and_abelian():
    assert oracle_lie_dims(su2_lie()) == (1, 0, 0, 1)
    for n in range(1, 5):
        dims = oracle_lie_dims(LieData.abelian(n))
        assert dims == tuple(len(list(combinations(range(n), q))) for q in range(n + 1))


def test_cohomology_reps_are_cocycles_and_euler_characteristic_vanishes():
    for L in (su2_lie(), heisenberg_lie(), LieData.abelian(3)):
        coh = tuple(graded_cohomology(delta_columns(L, q) for q in range(L.n + 1)))
        assert tuple(h.dim for h in coh) == oracle_lie_dims(L)
        for q, h in enumerate(coh):
            assert dense_reps(h).rows == h.dim
            for pivot in h.pivots:
                assert apply_sparse(delta_columns(L, q), h.space.sparse_row(pivot)) == {}
        if L.n >= 1:
            assert sum((-1) ** q * h.dim for q, h in enumerate(coh)) == 0


def test_poincare_duality_dims():
    for L in (su2_lie(), LieData.abelian(2), LieData.abelian(4)):
        dims = oracle_lie_dims(L)
        assert dims == dims[::-1]


def test_invariants_match_cohomology_for_full_antisymmetry():
    # joint kernel of the coadjoint actions computes H^* when the metric
    # compatibility holds
    L = su2_lie()
    inv = invariant_subcomplex(L)
    assert tuple(s.dim for s in inv) == oracle_lie_dims(L)
    for q, sub in enumerate(inv):
        for row in dense_basis(sub).data:
            a = chi_from_vector(row, L.n, q)
            assert wedge_ce_delta(L, a).is_zero


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
        algebras.append(LieData(n, entries.items()))
    failing = 0
    for L in algebras:
        jac = next(c for c in validate_lie(L).checks if c.name == "jacobi identity")
        assert jac.detail == _dense_jacobi_detail(L)
        assert jac.passed == (jac.detail == "")
        failing += not jac.passed
    assert failing > 10


def _dense_antisymmetry_details(L):
    """Both antisymmetry checks as the plain scan over all n^3 triples, as
    (passed, detail) pairs."""
    c = L.bracket_coeff
    triples = list(product(range(1, L.n + 1), repeat=3))
    bracket = next((t for t in triples if c(*t) != -c(t[1], t[0], t[2])), None)
    full = next((t for t in triples if c(*t) != -c(t[0], t[2], t[1])), None)
    return [
        (True, "") if bracket is None
        else (False, "c[{1}][{0}][{2}] != -c[{0}][{1}][{2}]".format(*bracket)),
        (True, "") if full is None
        else (False, "c[{0}][{2}][{1}] != -c[{0}][{1}][{2}] "
                     "(structure constants are not ad-invariant)".format(*full)),
    ]


def test_sparse_antisymmetry_checks_match_the_full_scan():
    """Random broken data (verbatim and bracket-completed entries, and fully
    antisymmetric ones, most with one slot changed), the invalid fixtures and
    valid algebras."""
    rng = random.Random(20261024)
    algebras = [su2_lie(), heisenberg_lie(), rescaled_su2_lie(), mutated_jacobi_lie(),
                LieData.abelian(3), direct_sum(su2_lie(), su2_lie())]
    algebras += _random_algebras(rng, 60, 5)
    for _ in range(60):
        n = rng.randint(3, 5)
        triples = [t for t in combinations(range(1, n + 1), 3)]
        entries = {t: Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
                   for t in rng.sample(triples, rng.randint(1, min(4, len(triples))))}
        if rng.random() < 0.5:
            L = LieData.from_structure_constants(n, entries, completion="bracket")
        else:
            c = dict(LieData.from_structure_constants(n, entries).c)
            if rng.random() < 0.7:
                slot = tuple(rng.randrange(n) + 1 for _ in range(3))
                c[slot] = c.get(slot, 0) + rng.choice([Q(1), Q(-1, 2)])
            L = LieData(n, c.items())
        algebras.append(L)
    failing = [0, 0]
    for L in algebras:
        got = [(ch.passed, ch.detail) for ch in validate_lie(L).checks[:2]]
        assert got == _dense_antisymmetry_details(L), L
        failing[0] += not got[0][0]
        failing[1] += not got[1][0]
    assert min(failing) > 30 and len(algebras) - failing[1] >= 5, failing


def _scanned_delta_gen(L, k):
    """delta chi_k by the O(n^2) scan over every bracket pair."""
    return [((a, b), L.bracket_coeff(a, b, k))
            for a in range(1, L.n + 1)
            for b in range(a + 1, L.n + 1)
            if L.bracket_coeff(a, b, k)]


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
        algebras.append(LieData(n, entries.items()))
    nonzero = 0
    for L in algebras:
        for k in range(1, L.n + 1):
            want = _scanned_delta_gen(L, k)
            got = L.delta_gens[k - 1]
            assert list(got) == want, (L, k)
            nonzero += bool(got)
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
    with pytest.raises(ValueError, match="unknown completion"):
        LieData.from_structure_constants(3, [(1, 2, 3, 1)], completion="none")


def test_lie_data_equality_ignores_zeros_and_entry_order():
    entries = [((1, 2, 3), 1), ((2, 1, 3), Q(-1)), ((3, 3, 1), 0), ((1, 3, 2), Q(1, 2))]
    L = LieData(3, entries)
    same = LieData(3, [entries[3], entries[1], ((2, 2, 2), Q(0)), entries[0]])
    assert L == same and hash(L) == hash(same)
    assert L.c == (((1, 2, 3), 1), ((1, 3, 2), Q(1, 2)), ((2, 1, 3), -1))
    assert L != LieData(3, entries[:2]) and L != LieData(4, entries)
    assert L.bracket_coeff(3, 3, 1) == 0 and L.bracket_coeff(1, 3, 2) == Q(1, 2)


def test_lie_data_refuses_bad_indices_and_repeated_slots():
    for slot in ((0, 1, 2), (1, 2, 4), (1, True, 2)):
        with pytest.raises(ValueError, match="out of range"):
            LieData(3, [(slot, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        LieData(3, [((1, 2, 3), 1), ((1, 2, 3), 0)])


def test_lie_data_refuses_a_bool_n():
    # True is an int equal to 1, but no algebra has a bool dimension
    for n in (True, False):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            LieData(n, ())


def test_one_pages_run_derives_delta_squared_once(tmp_path, monkeypatch, capsys):
    """validate_lie and validate_model both read delta^2 = 0 off one scan of
    the n generators, kept on the LieData; a mutated algebra still fails
    both checks with the same message."""
    scans = []
    scan = liealg._delta_squared_scan

    def counted(L):
        scans.append(L)
        return scan(L)

    monkeypatch.setattr(liealg, "_delta_squared_scan", counted)
    model = EquivariantModel("su2_circle", su2_lie(),
                             BasicComplex.build([("1", 0), ("a", 1)]))
    path = str(tmp_path / "model.json")
    save_model_file(model, path)
    assert main(["pages", path, "--format", "machine"]) == 0
    capsys.readouterr()
    assert len(scans) == 1
    broken = mutated_jacobi_lie()
    lie_check = validate_lie(broken).checks[-1]
    model_checks = validate_model(EquivariantModel("broken", broken, model.basic)).checks
    assert len(scans) == 2
    assert lie_check in model_checks
    assert (lie_check.name, lie_check.passed) == ("delta squared", False)
    assert lie_check.detail == f"delta^2(chi{list(scan(broken))}) != 0"


def test_abelian_algebra_stores_no_constants():
    L = LieData.abelian(13)
    assert L.c == () and L.coadjoint_gens == {}
    assert L.delta_gens == ((),) * 13


def _random_algebras(rng, count, max_n):
    """Structure constants placed verbatim: often not antisymmetric, not Jacobi."""
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        slots = [(a, b, k) for a in range(1, n + 1) for b in range(1, n + 1)
                 for k in range(1, n + 1)]
        entries = {s: Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
                   for s in rng.sample(slots, min(len(slots), rng.randint(1, 10)))}
        out.append(LieData(n, entries.items()))
    return out


def jacobi_breaking_compact_constants():
    """Fully antisymmetric constants on five generators that fail Jacobi:
    [u_1, u_2] = u_3 with one more bracket touching u_1 or u_3."""
    return [LieData.from_structure_constants(5, {(1, 2, 3): 1, other: v})
            for other, v in (((1, 4, 5), 1), ((3, 4, 5), Q(1, 2)), ((2, 4, 5), -2))]


def compact_type_algebras():
    """su(2) with abelian summands, scaled and turned by the rational
    rotations (3/5, 4/5) and (5/13, 12/13), and su(2) + su(2)/3: fully
    antisymmetric Lie algebras whose invariants are not all of Lambda."""
    su2, r1, r2 = su2_lie(), LieData.abelian(1), LieData.abelian(2)
    r3, r4, r5, r12 = Q(3, 5), Q(4, 5), Q(5, 13), Q(12, 13)
    return [direct_sum(su2, r1), direct_sum(su2, r2), direct_sum(r1, su2),
            scaled(su2, Q(3, 2)), scaled(su2, -2), scaled(su2, 5),
            rotated(su2, 0, 1, r3, r4), rotated(su2, 0, 2, r5, r12),
            scaled(rotated(su2, 1, 2, r5, r12), Q(-1, 2)),
            rotated(direct_sum(su2, r1), 0, 3, r3, r4),
            rotated(direct_sum(r1, su2), 0, 2, r3, r4),
            rotated(direct_sum(su2, r2), 1, 4, r5, r12),
            direct_sum(scaled(su2, 2), r1), direct_sum(scaled(su2, Q(1, 7)), r2),
            direct_sum(su2, scaled(su2, Q(1, 3)))]


def dense_harmonic(L):
    """ker delta_q meet ker delta_(q-1)^T per degree, from the wedge formula's
    matrices, by the seed kernel."""
    out = []
    for q in range(L.n + 1):
        rows = [list(row) for row in oracle_delta_matrix(L, q).data]
        if q:
            rows += [list(col) for col in zip(*oracle_delta_matrix(L, q - 1).data)]
        out.append(seed_kernel_basis(Matrix.of(rows, cols=len(multi_indices(L.n, q)))))
    return tuple(out)


def test_table_matrices_match_the_wedge_and_homotopy_formulas():
    """The delta table and the coadjoint generator table against the wedge
    and homotopy formulas, column by column, and the engine's per-row
    coadjoint against the homotopy.  Invariants: on fully antisymmetric
    data either the oracle's joint kernel, or a CertificateError where the
    data fails Jacobi and the joint kernel lies strictly inside the harmonic
    forms; on other data with a nonzero coadjoint table a ValueError."""
    algebras = [su2_lie(), direct_sum(su2_lie(), su2_lie()), heisenberg_lie(),
                rescaled_su2_lie(), mutated_jacobi_lie()]
    algebras += [LieData.abelian(n) for n in range(1, 8)]
    algebras += _random_algebras(random.Random(20261020), 20, 4)
    algebras += compact_type_algebras()
    algebras += jacobi_breaking_compact_constants()
    # antisymmetric under (a,b,k) -> (a,k,b) only: coadjoint(2, -) is not skew
    algebras.append(LieData(3, [((1, 2, 3), 1), ((1, 3, 2), -1)]))
    nonzero = {"delta": 0, "coadjoint": 0, "eliminated": 0}
    outcomes = {"oracle": 0, "refused": 0, "not ad-invariant": 0}
    for L in algebras:
        for q in range(L.n + 1):
            d = delta_columns(L, q)
            assert d == sparse_columns(oracle_delta_matrix(L, q)), (L, q)
            nonzero["delta"] += any(d)
            for ell in range(1, L.n + 1):
                m = coadjoint_columns(L, ell, q)
                assert m == sparse_columns(oracle_coadjoint_matrix(L, ell, q)), (L, ell, q)
                nonzero["coadjoint"] += any(m)
                for I in multi_indices(L.n, q):
                    assert (ChiElement(dict(liealg._coadjoint_terms(L, ell, I)))
                            == homotopy_coadjoint(L, ell, ChiElement.basis(I))), (L, ell, I)
        if L.coadjoint_gens and not all(c.passed for c in validate_lie(L).checks[:2]):
            with pytest.raises(ValueError, match="no invariant forms without"):
                invariant_subcomplex(L)
            outcomes["not ad-invariant"] += 1
            continue
        want = oracle_invariant_subcomplex(L)
        try:
            inv = invariant_subcomplex(L)
        except CertificateError as exc:
            assert "of a harmonic form of degree" in str(exc)
            assert not validate_lie(L).passed, L
            harmonic = dense_harmonic(L)
            assert all(seed_span(h.ambient_dim, dense_basis(w).data + dense_basis(h).data) == h
                       for w, h in zip(want, harmonic)), L
            assert want != harmonic, L
            outcomes["refused"] += 1
            continue
        assert inv == want, L
        outcomes["oracle"] += 1
        nonzero["eliminated"] += any(s.dim < s.ambient_dim for s in inv)
    assert min(nonzero.values()) > 15, nonzero
    assert min(outcomes.values()) > 0, outcomes


def su2_power(k):
    return direct_sum(*[su2_lie()] * k)


R3, R4 = Q(3, 5), Q(4, 5)


@pytest.mark.parametrize("L", [
    su2_power(1), su2_power(2), su2_power(3), direct_sum(su2_lie(), LieData.abelian(2)),
    scaled(su2_lie(), Q(3, 2)), rotated(rotated(su2_power(2), 0, 3, R3, R4), 1, 4, R3, R4)],
    ids=["su2", "su2^2", "su2^3", "su2+R^2", "su2*3/2", "su2^2 turned"])
def test_invariants_equal_the_oracle_on_compact_type_algebras(L):
    assert invariant_subcomplex(L) == oracle_invariant_subcomplex(L)


def test_each_degree_is_one_kernel_of_delta_and_the_transpose_below(monkeypatch):
    """Per degree, sparse_kernel gets at most C(n, q+1) + C(n, q-1) rows,
    those of delta_q and delta_(q-1)^T, and each delta_q is built once."""
    for L in (su2_power(2), rotated(direct_sum(su2_lie(), LieData.abelian(1)), 0, 3, R3, R4)):
        built, rows = [], []
        monkeypatch.setattr(liealg, "delta_columns",
                            lambda L, q: built.append(q) or delta_columns(L, q))
        monkeypatch.setattr(liealg, "sparse_kernel",
                            lambda r, cols: rows.append((len(r), cols)) or sparse_kernel(r, cols))
        inv = invariant_subcomplex(L)
        monkeypatch.undo()
        n = L.n
        assert built == list(range(n + 1))
        assert [cols for _, cols in rows] == [comb(n, q) for q in range(n + 1)]
        assert all(k <= comb(n, q + 1) + (comb(n, q - 1) if q else 0)
                   for q, (k, _) in enumerate(rows))
        assert inv == oracle_invariant_subcomplex(L)


def without_transpose_rows(L):
    """A stand-in for liealg's sparse_kernel that keeps, per degree q (one
    call each, in order), only the rows of delta_q: the delta_(q-1)^T rows
    are dropped, and the kernel is all of ker delta_q."""
    degrees = iter(range(L.n + 1))

    def kernel(rows, cols):
        q = next(degrees)
        return sparse_kernel(rows[:len(column_rows(delta_columns(L, q)))], cols)

    return kernel


DROPPED_TRANSPOSE_SCRIPT = textwrap.dedent(
    """
    import sys
    from test_liealg import without_transpose_rows
    from cartanss import liealg
    from cartanss.cli import main
    from cartanss.library import su2_lie
    from cartanss.reports import CertificateError

    liealg.sparse_kernel = without_transpose_rows(su2_lie())
    try:
        main(["pages", sys.argv[1], "--format", "machine"])
    except CertificateError as exc:
        print(exc)
    """
)

DROPPED_MESSAGE = "coadjoint(1) of a harmonic form of degree 2 is nonzero"


def test_kernels_without_the_transpose_rows_fail_the_certificate(tmp_path, monkeypatch, capsys):
    """ker delta_2 of su(2) is all of Lambda^2, which is not invariant: with
    the delta^T rows dropped, `pages` on group_su2 raises the certificate,
    in process and under python -O."""
    from test_cli import source_env  # test_cli imports this module

    path = str(tmp_path / "model.json")
    save_model_file(get_model("group_su2").model, path)
    monkeypatch.setattr(liealg, "sparse_kernel", without_transpose_rows(su2_lie()))
    with pytest.raises(CertificateError) as info:
        main(["pages", path, "--format", "machine"])
    assert str(info.value) == DROPPED_MESSAGE
    assert capsys.readouterr().out == ""
    env = source_env()
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent) + os.pathsep + env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, "-O", "-c", DROPPED_TRANSPOSE_SCRIPT, path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [DROPPED_MESSAGE]


@pytest.mark.skipif(os.environ.get("CARTANSS_SLOW") != "1", reason="set CARTANSS_SLOW=1")
def test_frontier_invariants_of_su2_powers():
    """su(2)^4 and su(2)^5: the certified invariants have the Kunneth dims
    of (1, 0, 0, 1) and realize the algebra's cohomology.  On su(2)^5 the
    invariants take under 3 s, and validate_lie with the realization check
    under 0.6 s."""
    for k in (4, 5):
        L = su2_power(k)
        t0 = time.perf_counter()
        assert validate_lie(L).passed
        checks = time.perf_counter() - t0
        t0 = time.perf_counter()
        inv = invariant_subcomplex(L)
        elapsed = time.perf_counter() - t0
        assert tuple(s.dim for s in inv) == reduce(_convolve, [(1, 0, 0, 1)] * k)
        t0 = time.perf_counter()
        assert _lie_realization_ok(L, inv)
        checks += time.perf_counter() - t0
    assert elapsed < 3.0, elapsed
    assert checks < 0.6, checks


def test_first_delta_squared_failure_matches_the_wedge_formula():
    """The engine scans the generators only; the oracle scans every
    multi-index by wedge products, and its first failure is a generator."""
    rng = random.Random(20261022)
    algebras = [su2_lie(), heisenberg_lie(), rescaled_su2_lie(), mutated_jacobi_lie()]
    algebras += _random_algebras(rng, 30, 4) + _random_algebras(rng, 60, 6)
    failing = 0
    for L in algebras:
        want = next((I for I in all_multi_indices(L.n)
                     if not wedge_ce_delta(L, wedge_ce_delta(L, ChiElement.basis(I))).is_zero),
                    None)
        assert want is None or len(want) == 1, (L, want)
        assert first_delta_squared_failure(L) == want, L
        failing += want is not None
    assert failing > 20


def test_coadjoint_matrix_rejects_bad_directions():
    for ell in (0, 4, True):
        with pytest.raises(ValueError, match="direction index"):
            coadjoint_columns(su2_lie(), ell, 1)
