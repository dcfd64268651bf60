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
from cartanss.liealg import validate_lie
from cartanss.library import (
    MODEL_NAMES,
    get_model,
    random_trivial_product,
)
from cartanss.model import validate_model
from cartanss.reports import CertificateError
from cartanss.verify import Analysis
from oracles import all_default_cards, heisenberg_model, oracle_lie_dims, oracle_total_cohomology


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
        an = Analysis(card.model)
        assert (oracle_total_cohomology(card.model) == an.total_cohomology
                == card.expected.total_cohomology)
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
        assert oracle_total_cohomology(card.model) == binom
    with pytest.raises(ValueError, match="positive integer"):
        get_model("group_torus", 0)
    with pytest.raises(ValueError, match="positive integer"):
        get_model("group_torus", -2)


def test_parameterless_cards_reject_parameters():
    for name in ("hopf", "kronecker", "group_su2", "trivial_product"):
        with pytest.raises(ValueError, match="takes no parameter"):
            get_model(name, 3)
    with pytest.raises(ValueError, match="unknown model name"):
        get_model("lens_space")


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
        assert oracle_total_cohomology(card.model) == card.expected.total_cohomology
        e2 = Analysis(card.model).e2
        assert e2.passed
        got = {(c.p, c.q): c.e2_dim for c in e2.cells if c.e2_dim}
        assert got == card.expected.e2_dims
        # Kunneth: E_2 dims factor as products of the two expectation vectors
        b = card.expected.basic_cohomology
        h = oracle_lie_dims(card.model.lie)
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
    from cartanss import library, verify

    from cartanss.reports import CertificateError

    if __debug__:
        raise SystemExit("expected to run under python -O")
    hopf = library.get_model("hopf").model
    cells = dict(verify.Analysis(hopf).page2)
    cells[(2, 1)] = cells[(2, 1)]._replace(hi=0)  # its Z_2 now holds no vector
    try:
        verify._e2_frames(hopf, cells)
    except CertificateError as exc:
        print("verify:", exc)
    comb = library.comb
    library.comb = lambda n, k: 0
    try:
        library.get_model("group_torus", 2)
    except CertificateError as exc:
        print("library:", exc)
    library.comb = comb
    # a pairing with its one pair dropped: E_infinity is E_2, too big, and
    # d_2 has rank 0 in the pairing, 1 in the frames
    pairing = verify.persistence_pairing
    verify.persistence_pairing = lambda fc: pairing(fc)._replace(pairs=())
    an = verify.Analysis(hopf)
    print("abutment:", [row.ok for row in an.abutment.rows], an.e2.verdict)
    try:
        an.transgression
    except CertificateError as exc:
        print("d_2:", exc)
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
        "verify: tensor representative not d-compatible at page E_2, cell (p,q)=(2,1)",
        "library: group_torus(2): algebra cohomology (1, 2, 1) is not the binomials (0, 0, 0)",
        "abutment: [True, False, False, True] isomorphism",
        "d_2: d_2 rank differs from the pairing's pairs of gap 2 at page E_2, cell (p,q)=(0,1)",
    ]
