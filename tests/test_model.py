"""Bigraded model: differentials, decomposition, total cohomology, validation."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from oracles import (
    ModelElement,
    d01,
    d10,
    d21,
    direct_sum,
    element_to_vector,
    heisenberg_nilmanifold,
    oracle_identity_checks,
    oracle_square_failures,
    oracle_total_cohomology,
    oracle_total_images,
    oracle_total_matrix,
    sparse_columns,
    split_images,
    total_d,
)

from cartanss.cli import load_model_file
from cartanss.liealg import LieData
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
    _square_failures,
    max_total_degree,
    monomial_basis,
    size_error,
    total_columns,
    total_images,
    validate_model,
)
from cartanss.qlinalg import apply_sparse
from cartanss.specseq import cartan_filtration
from cartanss.verify import Analysis

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
        assert not any(total_columns(model, k))
        for g, I in monomial_basis(model, k):
            assert total_d(model, mono(g, I)).is_zero


def test_group_model_total_d_is_minus_delta():
    model = get_model("group_su2").model
    # d01 carries the Koszul sign; on 1 (tensor) chi_3 it gives -1 (x) chi_12
    x = mono(0, (3,))
    assert total_d(model, x) == d01(model, x) == mono(0, (1, 2), -1)
    assert total_images(model)[(0, (3,))] == {(0, (1, 2)): -1}


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


def test_total_d_splits_into_three_terms():
    for name in ("hopf", "group_su2", "trivial_product"):
        model = get_model(name).model
        images = split_images(model)
        for x, image in total_images(model).items():
            parts = [images[part][x] for part in ("d10", "d01", "d21")]
            # the three parts change the chi-count by 0, +1 and -1
            assert len({len(I) for part in parts for _, I in part}) == sum(map(bool, parts))
            assert image == {key: v for part in parts for key, v in part.items()}


def test_monomial_basis_order():
    model = get_model("trivial_product").model
    # degree 1: horizontal generators first (descending p), then chi terms
    names = [
        (model.basic.name_of(g), I) for g, I in monomial_basis(model, 1)
    ]
    assert names == [("a1", ()), ("a2", ()), ("1", (1,)), ("1", (2,))]


def test_filtration_degree():
    # F^p is spanned by the monomials g (x) chi_I with deg g >= p, a prefix of
    # the basis; an element's filtration degree is the least deg g in its support
    def filtration_degree(fc, model, x, m):
        vec = element_to_vector(model, x, m)
        support = [i for i, v in enumerate(vec) if v]
        return max(p for p in range(m + 2) if all(i < fc.cut(p, m) for i in support))

    hopf = get_model("hopf").model
    fc = cartan_filtration(hopf)
    assert filtration_degree(fc, hopf, mono(1, ()), 2) == 2
    assert filtration_degree(fc, hopf, mono(0, (1,)), 1) == 0
    assert filtration_degree(fc, hopf, mono(1, (1,)), 3) == 2
    # the zero element lies in every F^p, down to F^(m+1) = 0
    assert filtration_degree(fc, hopf, ModelElement.zero(), 2) == 3
    rng = random.Random(61)
    for name in ("trivial_product", "group_su2", "kronecker"):
        model = get_model(name).model
        fc = cartan_filtration(model)
        degree = model.basic.degree_of
        for m in range(max_total_degree(model) + 1):
            basis = monomial_basis(model, m)
            for g, I in basis:
                assert filtration_degree(fc, model, mono(g, I), m) == degree(g), (name, g, I)
            for _ in range(3):
                picked = rng.sample(basis, rng.randint(1, len(basis)))
                x = ModelElement.zero()
                for g, I in picked:
                    x = x + mono(g, I, rng.choice((-2, -1, 1, 3)))
                want = min(degree(g) for g, _ in picked)
                assert filtration_degree(fc, model, x, m) == want, (name, m, picked)


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
            assert ModelElement({key: v for key, v in zip(basis, vec)}) == x
            out = apply_sparse(total_columns(model, k), {i: v for i, v in enumerate(vec) if v})
            target = monomial_basis(model, k + 1)
            assert ModelElement({target[i]: v for i, v in out.items()}) == total_d(model, x)


def test_total_cohomology_values():
    """The rank count on the element-operator matrices and the engine's
    count on the filtration's columns both give the known total cohomology."""
    for name, want in (("hopf", (1, 0, 0, 1)), ("kronecker", (1, 2, 1)),
                       ("group_su2", (1, 0, 0, 1)), ("trivial_product", (1, 4, 6, 4, 1))):
        model = get_model(name).model
        assert oracle_total_cohomology(model) == Analysis(model).total_cohomology == want, name


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
    for name in MODEL_NAMES:
        model = get_model(name).model
        degree = model.basic.degree_of
        for (g, _), image in total_images(model).items():
            assert all(degree(h) >= degree(g) for h, _ in image), (name, g)


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
    """The table keeps exactly the monomials with a nonzero image, in the
    full table's order, and each image is the element operators' total_d."""
    for model in table_test_models():
        table = total_images(model)
        want = oracle_total_images(model)
        assert list(table) == [x for x, image in want.items() if image], model.name
        for x, image in want.items():
            assert table.get(x, {}) == image, (model.name, x)
        assert all(all(image.values()) for image in table.values())


def mutants(rng, bases, count):
    """count models, each a base with one to three random d_hor or Euler entries added.

    A new entry's target is one degree up for d_hor and two up for an
    Euler operator where the base has such a generator, so that most
    mutants break a d^2 identity rather than only the degree bookkeeping.
    """
    out = []
    while len(out) < count:
        model = rng.choice(bases)
        basic, n = model.basic, model.lie.n
        gens = range(basic.num_generators)
        d_hor, euler = list(basic.d_hor_entries), list(basic.euler_entries)
        for _ in range(rng.randint(1, 3)):
            src = rng.choice(gens)
            shift = rng.choice((1, 2))
            dsts = basic.gens_of_degree(basic.degree_of(src) + shift) or gens
            dst, coeff = rng.choice(dsts), Q(rng.choice((1, -1, 2, 3)), rng.choice((1, 2)))
            if shift == 1 and (src, dst) not in {e[:2] for e in d_hor}:
                d_hor.append((src, dst, coeff))
            elif shift == 2:
                i = rng.randint(1, n)
                if (i, src, dst) not in {e[:3] for e in euler}:
                    euler.append((i, src, dst, coeff))
        out.append(EquivariantModel(f"{model.name}+", model.lie, BasicComplex.build(
            basic.generators, d_hor=d_hor, euler=euler)))
    return out


def test_square_failures_match_the_full_table_oracle():
    """The certificate composes only the nonzero images; the oracle composes
    every monomial's.  Their failure maps agree, keys and first monomials,
    on every card and sample model, heisenberg_nil:1..4, 200 random
    products and at least 300 invalid models."""
    samples = sorted((Path(__file__).resolve().parent.parent / "sample_models").glob("*.json"))
    models = [get_model(name).model for name in MODEL_NAMES]
    models += [load_model_file(str(path)) for path in samples]
    models += [heisenberg_nilmanifold(k) for k in range(1, 5)]
    rng = random.Random(20261020)
    models += [random_trivial_product(rng, tag=f"sq{i}").model for i in range(200)]
    bases = table_test_models() + [get_model("group_torus", 3).model]
    for model in models:
        assert _square_failures(model) == oracle_square_failures(model), model.name
    failed = []
    for model in mutants(rng, bases, 420):
        want = oracle_square_failures(model)
        assert _square_failures(model) == want, model.name
        failed += [want] if want else []
    assert len(failed) >= 300, len(failed)
    assert len({name for want in failed for name in want}) == 7


def test_work_follows_the_nonzero_images_of_total_d(monkeypatch):
    """Where d = 0 the table is empty, and an empty table is built once: the
    certificate composes no path and the total ranks rank no column.  On
    group_su2 the keys are the monomials whose oracle image is nonzero."""
    from cartanss import model as model_module
    from cartanss import qlinalg

    composed, ranked = [], []
    add = model_module._add
    monkeypatch.setattr(model_module, "_add", lambda *a: (composed.append(a), add(*a))[1])
    rank = qlinalg.sparse_rank
    monkeypatch.setattr(qlinalg, "sparse_rank", lambda v: (ranked.append(len(v)), rank(v))[1])
    model = get_model("kronecker").model
    assert validate_model(model).passed
    table = model._images
    assert table == {} and total_images(model) is table
    assert _square_failures(model) == {} and composed == []
    fc = cartan_filtration(model)
    assert qlinalg.cohomology_dims(fc.d_columns) == (1, 2, 1)
    assert ranked == [0] * len(fc.dims) and model._images is table

    su2 = get_model("group_su2").model
    want = oracle_total_images(su2)
    assert list(total_images(su2)) == [x for x, image in want.items() if image]


def test_total_matrix_matches_the_element_oracle():
    raised = 0
    for model in table_test_models():
        for k in range(max_total_degree(model) + 2):
            try:
                want = oracle_total_matrix(model, k)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    total_columns(model, k)
                assert str(err.value) == str(exc), (model.name, k)
                raised += 1
                continue
            got = total_columns(model, k)
            assert got == sparse_columns(want), (model.name, k)
            assert all(type(x) is (int if x.denominator == 1 else Q)
                       for col in got for _, x in col)
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
    assert huge._images is None and not huge._bases
    model = get_model("group_su2").model
    twin = get_model("group_su2").model
    assert validate_model(model).passed and len(total_columns(model, 1)) == 3
    assert model._images and model._bases and twin._images is None
    assert model == twin and hash(model) == hash(twin)
    assert "_images" not in repr(model)
