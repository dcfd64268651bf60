"""Model library: cards, parameters, fixtures, randomized trivial products."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

import cartanss
from cartanss import library
from cartanss.liealg import LieData, lie_cohomology, validate_lie
from cartanss.library import (
    MODEL_NAMES,
    all_default_cards,
    get_model,
    heisenberg_model,
    mutated_jacobi_lie,
    random_trivial_product,
)
from cartanss.model import BasicComplex, EquivariantModel, total_cohomology, validate_model
from cartanss.reports import CertificateError
from cartanss.verify import Analysis


def test_model_name_census():
    assert MODEL_NAMES == (
        "hopf",
        "weighted_hopf",
        "kronecker",
        "group_su2",
        "group_torus",
        "trivial_product",
    )
    assert len(all_default_cards()) == len(MODEL_NAMES)


def test_default_cards_are_valid_and_annotated():
    for card in all_default_cards():
        assert validate_lie(card.model.lie).passed, card.model.name
        assert validate_model(card.model).passed, card.model.name
        assert card.note


def test_card_expectations_match_engine():
    for card in all_default_cards():
        assert total_cohomology(card.model) == card.expected.total_cohomology
        an = Analysis(card.model)
        rep = an.abutment
        assert rep.passed and rep.stabilization == card.expected.stabilization
        e2 = an.e2
        got = {(c.p, c.q): c.e2_dim for c in e2.cells if c.e2_dim}
        assert got == card.expected.e2_dims


def test_hopf_card_values():
    card = get_model("hopf")
    assert card.expected.total_cohomology == (1, 0, 0, 1)
    assert card.expected.basic_cohomology == (1, 0, 1)
    assert card.expected.stabilization == 3
    assert card.expected.d2_abs_at_01 == 1


def test_weighted_hopf_parameter():
    assert get_model("weighted_hopf").expected.d2_abs_at_01 == 2  # default weight
    assert get_model("weighted_hopf", 7).expected.d2_abs_at_01 == 7
    assert get_model("weighted_hopf", -3).expected.d2_abs_at_01 == 3
    with pytest.raises(ValueError, match="nonzero integer"):
        get_model("weighted_hopf", 0)
    with pytest.raises(ValueError, match="nonzero integer"):
        get_model("weighted_hopf", True)


def test_torus_parameter_and_binomials():
    for n in (1, 2, 3, 4):
        card = get_model("group_torus", n)
        binom = tuple(
            len(list(combinations(range(n), k))) for k in range(n + 1)
        )
        assert card.expected.total_cohomology == binom
        assert total_cohomology(card.model) == binom
    with pytest.raises(ValueError, match="positive integer"):
        get_model("group_torus", 0)
    with pytest.raises(ValueError, match="positive integer"):
        get_model("group_torus", -2)


def test_parameterless_cards_reject_parameters():
    for name in ("hopf", "kronecker", "group_su2"):
        with pytest.raises(ValueError):
            get_model(name, 3)
    with pytest.raises(ValueError, match="unknown model name"):
        get_model("lens_space")


def test_trivial_product_rejects_euler_data():
    basic = BasicComplex.build([("1", 0), ("v", 2)], euler=[(1, 0, 1, 1)])
    with pytest.raises(ValueError, match="zero Euler"):
        get_model("trivial_product", basic=basic)


@pytest.mark.parametrize("case", ["d_hor squared", "jacobi identity"])
def test_trivial_product_refuses_invalid_data_and_names_the_failed_checks(case):
    """The card's expectations count ranks and trust d^2 = 0, so invalid data
    is refused before any is counted, with every failed check listed."""
    if case == "d_hor squared":
        # x (deg 1) -> y (deg 2) -> x: d_hor^2 != 0, and y -> x is not degree +1
        basic = BasicComplex.build([("1", 0), ("x", 1), ("y", 2)], d_hor=[(1, 2, 1), (2, 1, 1)])
        kwargs = {"basic": basic}
    else:
        kwargs = {"lie": mutated_jacobi_lie()}
    probe = EquivariantModel("trivial_product", kwargs.get("lie", LieData.abelian(2)),
                             kwargs.get("basic", get_model("trivial_product").model.basic))
    failed = validate_lie(probe.lie).failures() + validate_model(probe).failures()
    assert case in [c.name for c in failed] and len(failed) >= 3
    with pytest.raises(ValueError) as err:
        get_model("trivial_product", **kwargs)
    assert str(err.value).splitlines() == [
        "trivial_product: invalid model, no card built:", *(c.line() for c in failed)]


def test_trivial_product_custom_lie():
    card = get_model(
        "trivial_product",
        basic=BasicComplex.build([("1", 0)]),
        lie=LieData.from_structure_constants(3, {(1, 2, 3): 1}),
    )
    assert card.expected.total_cohomology == (1, 0, 0, 1)
    assert total_cohomology(card.model) == (1, 0, 0, 1)


def test_heisenberg_model_is_the_rejection_fixture():
    model = heisenberg_model()
    rep = validate_lie(model.lie)
    assert not rep.passed
    assert [c.name for c in rep.failures()] == ["full antisymmetry"]


def test_random_trivial_products_are_valid_and_kunneth():
    rng = random.Random(4242)
    for i in range(8):
        card = random_trivial_product(rng, tag=f"rand{i}")
        assert validate_lie(card.model.lie).passed
        assert validate_model(card.model).passed, card.model.name
        assert total_cohomology(card.model) == card.expected.total_cohomology
        e2 = Analysis(card.model).e2
        assert e2.passed
        got = {(c.p, c.q): c.e2_dim for c in e2.cells if c.e2_dim}
        assert got == card.expected.e2_dims
        # Kunneth: E_2 dims factor as products of the two expectation vectors
        b = card.expected.basic_cohomology
        h = [quot.dim for quot in lie_cohomology(card.model.lie)]
        for (p, q), d in got.items():
            assert d == b[p] * h[q]


def test_random_trivial_product_is_seed_deterministic():
    a = random_trivial_product(random.Random(99)).model
    b = random_trivial_product(random.Random(99)).model
    assert a.basic == b.basic
    assert a.lie == b.lie
    c = random_trivial_product(random.Random(100)).model
    assert (c.basic, c.lie) != (a.basic, a.lie) or c == a  # different seed, usually different data


def test_torus_card_cross_check_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(library, "comb", lambda n, k: 0)
    with pytest.raises(CertificateError, match=r"group_torus\(2\).*not the binomials \(0, 0, 0\)"):
        get_model("group_torus", 2)


OPTIMIZED_SCRIPT = textwrap.dedent(
    """
    from fractions import Fraction

    from cartanss import library, verify
    from cartanss.reports import CertificateError
    from cartanss.specseq import FilteredComplex, page

    if __debug__:
        raise SystemExit("expected to run under python -O")
    library.comb = lambda n, k: 0
    try:
        library.get_model("group_torus", 2)
    except CertificateError as exc:
        print("library:", exc)
    one = (((0, Fraction(1)),),)  # the identity Q -> Q, column by column
    broken = FilteredComplex((1, 1, 1), (one, one, ((),)),
                             ((1, 0), (1, 0, 0), (1, 0, 0, 0)))
    try:
        page(broken, 1)
    except CertificateError as exc:
        print("specseq:", exc)
    pairing = verify.persistence_pairing
    verify.persistence_pairing = lambda fc: pairing(fc)._replace(pairs=())
    try:
        verify.Analysis(library.get_model("hopf").model).page2
    except CertificateError as exc:
        print("verify:", exc)
    """
)


def test_certificate_checks_still_fire_under_python_O():
    src = str(Path(cartanss.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "library: group_torus(2): algebra cohomology (1, 2, 1) is not the binomials (0, 0, 0)",
        "specseq: divisor escapes Z_1 at page E_1, cell (p,q)=(0,1)",
        "verify: page 2 dims = pairing dims fails: dim and d_2 rank (1, 1) on page 2, "
        "(1, 0) by the pairing at page E_2, cell (p,q)=(0,1)",
    ]
