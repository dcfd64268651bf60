"""Bigraded model: differentials, decomposition, total cohomology, validation."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest
from oracles import direct_sum, oracle_identity_checks, oracle_total_matrix

from cartanss.liealg import LieData, all_multi_indices, multi_indices
from cartanss.library import (
    MODEL_NAMES,
    get_model,
    heisenberg_lie,
    heisenberg_model,
    mutated_jacobi_lie,
    random_trivial_product,
    rescaled_su2_lie,
    su2_lie,
)
from cartanss.model import (
    BasicComplex,
    EquivariantModel,
    ModelElement,
    bidegrees,
    canonical_decomposition,
    contract,
    d01,
    d10,
    d21,
    element_to_vector,
    filtration_degree,
    max_total_degree,
    monomial_basis,
    one_tensor_delta,
    operator_images,
    size_error,
    total_cohomology,
    total_d,
    total_matrix,
    validate_model,
    vector_to_element,
)

mono = ModelElement.monomial


def sphere_su2_model():
    # nontrivial euler operator against a nonabelian algebra: d^2 check must
    # reject the (2,0) component
    basic = BasicComplex.build([("1", 0), ("w", 2)], euler=[(1, 0, 1, 1)])
    return EquivariantModel("sphere_su2", su2_lie(), basic)


def stairs_model():
    # two-step horizontal complex with d_hor(x) = 2y against su(2), no euler
    basic = BasicComplex.build(
        [("1", 0), ("x", 0), ("y", 1)],
        d_hor=[(1, 2, 2)],
    )
    return EquivariantModel("stairs", su2_lie(), basic)


def rand_element(model, rng, terms=5):
    nb = model.basic.num_generators
    idxs = [I for q in range(model.lie.n + 1) for I in multi_indices(model.lie.n, q)]
    out = ModelElement.zero()
    for _ in range(terms):
        out = out + mono(rng.randrange(nb), rng.choice(idxs), Q(rng.randint(-3, 3)))
    return out


def test_basic_complex_build_rejects_bad_data():
    with pytest.raises(ValueError):
        BasicComplex.build([("1", 0), ("1", 2)])  # duplicate names
    with pytest.raises(ValueError):
        BasicComplex.build([("", 0)])
    with pytest.raises(ValueError):
        BasicComplex.build([("1", -1)])
    with pytest.raises(ValueError):
        BasicComplex.build([("1", 0)], d_hor=[(0, 1, 1)])  # dst out of range
    with pytest.raises(ValueError):
        BasicComplex.build([("1", 0), ("y", 1)], d_hor=[(0, 1, 1), (0, 1, 2)])
    with pytest.raises(ValueError):
        BasicComplex.build([("1", 0), ("v", 2)], euler=[(0, 0, 1, 1)])  # i is 1-based


def test_d21_on_hopf_generator():
    model = get_model("hopf").model
    # E_1(1) = v, horizontal degree 0, single chi: no sign
    assert d21(model, mono(0, (1,))) == mono(1, ())
    assert total_d(model, mono(0, (1,))) == mono(1, ())
    assert d21(model, mono(1, (1,))) .is_zero  # E_1(v) = 0


def test_kronecker_total_d_vanishes():
    model = get_model("kronecker").model
    for k in range(max_total_degree(model) + 1):
        for g, I in monomial_basis(model, k):
            assert total_d(model, mono(g, I)).is_zero


def test_group_model_total_d_is_minus_delta():
    model = get_model("group_su2").model
    # d01 carries the Koszul sign; on 1 (tensor) chi_3 it gives -1 (x) chi_12
    x = mono(0, (3,))
    assert total_d(model, x) == mono(0, (1, 2), -1)
    assert d01(model, x) == -one_tensor_delta(model, x)


def test_d10_has_no_sign_and_koszul_sign_sits_in_d01():
    model = stairs_model()
    # x has degree 0: d10(x (x) chi_I) = 2 y (x) chi_I for every I
    for I in [(), (1,), (1, 2), (1, 2, 3)]:
        assert d10(model, mono(1, I)) == mono(2, I, 2)
    # y has odd degree: d01(y (x) chi_3) = +y (x) chi_12
    assert d01(model, mono(2, (3,))) == mono(2, (1, 2))
    assert d01(model, mono(1, (3,))) == mono(1, (1, 2), -1)


def test_d21_position_signs():
    # E_1 only on a degree-1 generator: d21(x (x) chi_12) = -z (x) chi_2
    basic = BasicComplex.build([("1", 0), ("x", 1), ("z", 3)], euler=[(1, 1, 2, 1)])
    model = EquivariantModel("signs", LieData.abelian(2), basic)
    assert d21(model, mono(1, (1, 2))) == mono(2, (2,), -1)
    assert d21(model, mono(1, (1,))) == mono(2, (), -1)
    assert d21(model, mono(1, (2,))).is_zero


def test_filtration_degree():
    # largest chi-count in the support; v (x) 1 alone is purely horizontal
    x = mono(1, ()) + mono(0, (1,))
    assert filtration_degree(x) == 1
    assert filtration_degree(mono(1, ())) == 0
    assert filtration_degree(mono(0, (1,))) == 1
    with pytest.raises(ValueError):
        filtration_degree(ModelElement.zero())


def test_canonical_decomposition_orders_by_descending_horizontal_degree():
    model = get_model("hopf").model
    x = mono(1, ()) + mono(0, (1,))
    pieces = canonical_decomposition(model, x)
    assert pieces == [mono(1, ()), mono(0, (1,))]
    assert sum(pieces[1:], pieces[0]) == x
    assert bidegrees(model, pieces[0]) == {(2, 0)}
    assert bidegrees(model, pieces[1]) == {(0, 1)}


def contraction_slice(model, x, q):
    """chi-degree-q slice via iterated contraction, as an independent oracle."""
    n = model.lie.n
    out = ModelElement.zero()
    for I in multi_indices(n, q):
        y = x
        for ell in I:
            y = contract(model, ell, y)
        for (g, J), v in y.coeffs.items():
            if J:
                continue
            p = model.basic.degree_of(g)
            sign = Q((-1) ** (p * q))
            out = out + mono(g, I, sign * v)
    return out


def test_decomposition_matches_iterated_contraction():
    rng = random.Random(59)
    for name in ("hopf", "kronecker", "group_su2", "trivial_product"):
        model = get_model(name).model
        for _ in range(8):
            x = rand_element(model, rng)
            rebuilt = ModelElement.zero()
            for q in range(model.lie.n + 1):
                rebuilt = rebuilt + contraction_slice(model, x, q)
            assert rebuilt == x
            for piece in canonical_decomposition(model, x):
                (q,) = piece.chi_lengths()
                # slice at q collects every p with that chi-count
                slice_q = contraction_slice(model, x, q)
                for pq in bidegrees(model, piece):
                    from cartanss.model import bihomogeneous_part

                    assert bihomogeneous_part(model, slice_q, *pq) == piece


def test_total_d_splits_into_three_terms():
    rng = random.Random(61)
    for name in ("hopf", "group_su2", "trivial_product"):
        model = get_model(name).model
        for _ in range(6):
            x = rand_element(model, rng)
            assert total_d(model, x) == d10(model, x) + d01(model, x) + d21(model, x)


def test_monomial_basis_order():
    model = get_model("trivial_product").model
    # degree 1: horizontal generators first (descending p), then chi terms
    names = [
        (model.basic.name_of(g), I) for g, I in monomial_basis(model, 1)
    ]
    assert names == [("a1", ()), ("a2", ()), ("1", (1,)), ("1", (2,))]


def test_vector_round_trip_and_matrix_consistency():
    rng = random.Random(67)
    for name in ("hopf", "kronecker", "group_su2"):
        model = get_model(name).model
        for k in range(max_total_degree(model) + 1):
            basis = monomial_basis(model, k)
            if not basis:
                continue
            x = ModelElement.zero()
            for g, I in basis:
                x = x + mono(g, I, Q(rng.randint(-3, 3)))
            vec = element_to_vector(model, x, k)
            assert vector_to_element(model, vec, k) == x
            out = total_matrix(model, k).apply(vec)
            assert vector_to_element(model, out, k + 1) == total_d(model, x)


def test_total_cohomology_values():
    assert total_cohomology(get_model("hopf").model) == (1, 0, 0, 1)
    assert total_cohomology(get_model("kronecker").model) == (1, 2, 1)
    assert total_cohomology(get_model("group_su2").model) == (1, 0, 0, 1)
    assert total_cohomology(get_model("trivial_product").model) == (1, 4, 6, 4, 1)


def test_validate_model_passes_on_library_cards():
    for name in ("hopf", "kronecker", "group_su2", "group_torus", "trivial_product"):
        rep = validate_model(get_model(name).model)
        assert rep.passed, rep.failures()


def test_validate_model_check_names():
    rep = validate_model(get_model("hopf").model)
    assert [c.name for c in rep.checks] == [
        "degree-zero unit",
        "euler index range",
        "degree bookkeeping",
        "d_hor squared",
        "delta squared",
        "bidegree (0,2) component",
        "bidegree (1,1) component",
        "bidegree (2,0) component",
        "bidegree (3,-1) component",
        "bidegree (4,-2) component",
        "total differential squared",
    ]


def test_validate_model_rejects_euler_against_nonabelian_algebra():
    # E_1 /= 0 with su(2) breaks the (2,0) component of d^2 = 0
    rep = validate_model(sphere_su2_model())
    failed = {c.name for c in rep.failures()}
    assert "bidegree (2,0) component" in failed
    msg = next(c.detail for c in rep.failures() if c.name == "bidegree (2,0) component")
    assert "fails on" in msg


def test_validate_model_degree_bookkeeping():
    basic = BasicComplex.build([("1", 0), ("v", 2)], d_hor=[(1, 0, 1)])
    rep = validate_model(EquivariantModel("bad", LieData.abelian(1), basic))
    deg = next(c for c in rep.checks if c.name == "degree bookkeeping")
    assert not deg.passed
    assert "not degree +1" in deg.detail


def test_validate_model_d_hor_squared():
    basic = BasicComplex.build(
        [("a", 0), ("b", 1), ("c", 2)], d_hor=[(0, 1, 1), (1, 2, 1)]
    )
    rep = validate_model(EquivariantModel("nonsquare", LieData.abelian(1), basic))
    failed = {c.name for c in rep.failures()}
    assert "d_hor squared" in failed


def test_validate_model_surfaces_lie_failure():
    rep = validate_model(heisenberg_model())
    # heisenberg passes delta squared (it is Jacobi) but the full d^2 components
    # are still checked; the model over a point with abelian-style basic complex
    # satisfies them, so the model validator alone does not reject it
    assert {c.name: c.passed for c in rep.checks}["delta squared"] is True


def test_total_d_never_lowers_horizontal_degree():
    rng = random.Random(71)
    model = get_model("weighted_hopf").model
    for _ in range(10):
        x = rand_element(model, rng)
        if x.is_zero:
            continue
        dx = total_d(model, x)
        if dx.is_zero:
            continue
        min_p_src = min(model.basic.degree_of(g) for (g, _) in x.coeffs)
        min_p_dst = min(model.basic.degree_of(g) for (g, _) in dx.coeffs)
        assert min_p_dst >= min_p_src


def test_basic_tables_list_every_entry_and_stay_out_of_equality():
    rng = random.Random(20261019)
    complexes = [get_model(name).model.basic for name in MODEL_NAMES]
    complexes += [random_trivial_product(rng, tag=f"t{i}").model.basic for i in range(10)]
    complexes.append(BasicComplex.build([("1", 0), ("u", 0), ("v", 2), ("w", 2)],
                                        d_hor=[(0, 1, 3)],
                                        euler=[(1, 0, 2, 1), (1, 0, 3, -2), (2, 1, 3, 5)]))
    for basic in complexes:
        want_d, want_e = {}, {}
        for src, dst, coeff in basic.d_hor_entries:
            want_d[src] = want_d.get(src, ()) + ((dst, coeff),)
        for i, src, dst, coeff in basic.euler_entries:
            want_e[(i, src)] = want_e.get((i, src), ()) + ((dst, coeff),)
        assert basic.d_hor_table == want_d
        assert basic.euler_table == want_e
        twin = BasicComplex(basic.generators, basic.d_hor_entries, basic.euler_entries)
        assert twin == basic and hash(twin) == hash(basic)
        assert "table" not in repr(basic)


def bad_degree_model():
    # d_hor lowers degree: the degree bookkeeping check fails, and total_d
    # leaves the next total degree
    basic = BasicComplex.build([("1", 0), ("v", 2)], d_hor=[(1, 0, 1)])
    return EquivariantModel("bad_degree", LieData.abelian(1), basic)


def nonsquare_model():
    basic = BasicComplex.build([("a", 0), ("b", 1), ("c", 2)], d_hor=[(0, 1, 1), (1, 2, 1)])
    return EquivariantModel("nonsquare", LieData.abelian(1), basic)


def sphere_model(k):
    """S^(2k+1) over CP^k: Euler chain 1 -> v1 -> ... -> vk."""
    gens = [("1", 0)] + [(f"v{j}", 2 * j) for j in range(1, k + 1)]
    euler = [(1, j - 1, j, 1) for j in range(1, k + 1)]
    return EquivariantModel(f"sphere_{2 * k + 1}", LieData.abelian(1),
                            BasicComplex.build(gens, euler=euler))


def table_test_models():
    """Cards, S^3..S^25, su(2)+su(2) over a circle, random products, and invalid models."""
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [sphere_model(k) for k in range(1, 13)]
    models.append(EquivariantModel("su2_pair_circle", direct_sum(su2_lie(), su2_lie()),
                                   BasicComplex.build([("1", 0), ("t", 1)])))
    rng = random.Random(20261102)
    models += [random_trivial_product(rng, tag=f"tab{i}").model for i in range(20)]
    models.append(heisenberg_model())
    for lie in (heisenberg_lie(), mutated_jacobi_lie(), rescaled_su2_lie()):
        # over a sphere, so that the Euler part meets the broken algebra
        models.append(EquivariantModel("fixture", lie, sphere_su2_model().basic))
    models += [EquivariantModel("mutant", mutated_jacobi_lie(), BasicComplex.build([("1", 0)])),
               bad_degree_model(), nonsquare_model(), sphere_su2_model(), stairs_model()]
    # d_hor keeps parity while lowering degree, so d10 and d01 stop anticommuting
    models.append(EquivariantModel("bad_degree_su2", su2_lie(), bad_degree_model().basic))
    # d_hor and an Euler operator that do not commute, and two Euler operators
    # whose composites differ: the (3,-1) and (4,-2) components
    models.append(EquivariantModel("hor_euler", LieData.abelian(1), BasicComplex.build(
        [("a", 0), ("b", 1), ("e", 3)], d_hor=[(0, 1, 1)], euler=[(1, 1, 2, 1)])))
    models.append(EquivariantModel("euler_pair", LieData.abelian(2), BasicComplex.build(
        [("a", 0), ("b", 2), ("c", 4)], euler=[(1, 0, 1, 1), (2, 1, 2, 1)])))
    return models


def test_operator_images_match_the_element_operators():
    for model in table_test_models():
        images = operator_images(model)
        monomials = [(g, I) for g in range(model.basic.num_generators)
                     for I in all_multi_indices(model.lie.n)]
        for op in (d10, d01, d21, total_d):
            table = images["total" if op is total_d else op.__name__]
            assert list(table) == monomials, (model.name, op.__name__)
            for (g, I), image in table.items():
                assert image == op(model, mono(g, I)).coeffs, (model.name, op.__name__, g, I)
                assert all(image.values())


def test_total_matrix_matches_the_element_oracle():
    raised = 0
    for model in table_test_models():
        for k in range(max_total_degree(model) + 2):
            try:
                want = oracle_total_matrix(model, k)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    total_matrix(model, k)
                assert str(err.value) == str(exc), (model.name, k)
                raised += 1
                continue
            got = total_matrix(model, k)
            assert (got.data, got.cols) == (want.data, want.cols), (model.name, k)
            assert all(type(x) is Q for row in got.data for x in row)
    assert raised >= 1


def test_validate_model_matches_the_element_oracle():
    failing = set()
    for model in table_test_models():
        want = oracle_identity_checks(model)
        names = {c.name for c in want}
        got = [c for c in validate_model(model).checks if c.name in names]
        assert got == want, model.name
        failing.update(c.name for c in want if not c.passed)
    assert failing == names


def test_model_tables_are_built_on_first_use_and_stay_out_of_equality():
    huge = EquivariantModel("huge", LieData.abelian(40), BasicComplex.build([("1", 0)]))
    assert "2^40" in size_error(huge.basic.num_generators, huge.lie.n, huge.basic.max_degree)
    assert not huge._images and not huge._bases
    model = get_model("group_su2").model
    twin = get_model("group_su2").model
    assert validate_model(model).passed and total_matrix(model, 1).rows == 3
    assert model._images and model._bases and not twin._images
    assert model == twin and hash(model) == hash(twin)
    assert "_images" not in repr(model)
