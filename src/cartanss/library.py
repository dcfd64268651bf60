"""Worked model cards with independently derived expected results.

Each card bundles an EquivariantModel with the numbers a correct engine must
reproduce: total cohomology, nonzero second-page dimensions, the stabilization
page, basic cohomology dims and (where meaningful) the absolute value of the
single transgression entry.  The fixed cards were derived by hand from the
defining complexes and are cross-checked in the test suite against the
brute-force rank oracle.  The trivial_product card and random_trivial_product,
the randomized Kunneth card, derive their expectations by Kunneth counting,
which never touches the page machinery.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import comb

from .liealg import LieData, delta_columns
from .model import BasicComplex, EquivariantModel, size_error
from .qlinalg import apply_sparse, as_q, cohomology_dims, solve_columns, sparse_rank
from .reports import CertificateError, shown

MODEL_NAMES = (
    "hopf",
    "weighted_hopf",
    "kronecker",
    "group_su2",
    "group_torus",
    "trivial_product",
)

DESCRIPTIONS = {
    "hopf": "circle action of the Hopf fibration; one Euler generator, transgression 1",
    "weighted_hopf": "weighted circle action (lens spaces); transgression w (default w=2)",
    "kronecker": "irrational line flow on the 2-torus (slope-independent model)",
    "group_su2": "SU(2) acting on itself; basic complex is a point",
    "group_torus": "n-torus acting on itself (default n=2)",
    "trivial_product": "product action: zero Euler operators, Kunneth second page",
}


class ExpectedResults(namedtuple("ExpectedResults", "total_cohomology e2_dims stabilization "
                                   "basic_cohomology d2_abs_at_01",
                                   defaults=(2, (1,), None))):
    """The numbers a correct engine reproduces on a card.

    e2_dims maps each nonzero cell (p, q) of page 2 to its dimension.
    """

    __slots__ = ()


class ModelCard(namedtuple("ModelCard", "model expected note", defaults=("",))):
    """A model with its expected results."""

    __slots__ = ()


def su2_lie() -> LieData:
    """Structure constants of su(2) in an orthonormal basis: c[1][2][3] = 1."""
    return LieData.from_structure_constants(3, {(1, 2, 3): 1}, completion="full")


def rescaled_su2_lie() -> LieData:
    """Passes Jacobi and delta^2 = 0 but fails full antisymmetry (rescaled su(2))."""
    return LieData.from_structure_constants(
        3, {(1, 2, 3): 1, (2, 3, 1): 2, (3, 1, 2): 1}, completion="bracket"
    )


def _sphere_basic(weight: Fraction) -> BasicComplex:
    return BasicComplex.build(
        [("1", 0), ("v", 2)],
        euler=[(1, 0, 1, weight)],
    )


def _hopf_card(weight: int, name: str) -> ModelCard:
    model = EquivariantModel(name, LieData.abelian(1), _sphere_basic(as_q(weight)))
    expected = ExpectedResults(
        total_cohomology=(1, 0, 0, 1),
        e2_dims={(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1},
        stabilization=3,
        basic_cohomology=(1, 0, 1),
        d2_abs_at_01=abs(weight),
    )
    return ModelCard(model, expected, DESCRIPTIONS["hopf" if weight == 1 else "weighted_hopf"])


def _kronecker_card() -> ModelCard:
    basic = BasicComplex.build([("1", 0), ("kappa", 1)])
    model = EquivariantModel("kronecker", LieData.abelian(1), basic)
    expected = ExpectedResults(
        total_cohomology=(1, 2, 1),
        e2_dims={(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        stabilization=2,
        basic_cohomology=(1, 1),
    )
    return ModelCard(model, expected, DESCRIPTIONS["kronecker"])


def _lie_dims(lie: LieData) -> tuple[int, ...]:
    """dim H^q of the algebra by rank counting over delta's columns."""
    return cohomology_dims(delta_columns(lie, q) for q in range(lie.n + 1))


def _group_card(lie: LieData, name: str, desc: str) -> ModelCard:
    model = EquivariantModel(name, lie, BasicComplex.build([("1", 0)]))
    hdims = _lie_dims(lie)
    expected = ExpectedResults(
        total_cohomology=hdims,
        e2_dims={(0, q): d for q, d in enumerate(hdims) if d},
        stabilization=2,
        basic_cohomology=(1,),
    )
    return ModelCard(model, expected, desc)


def _kunneth_expected(basic_dims: tuple[int, ...], lie_dims: tuple[int, ...]) -> ExpectedResults:
    total = [0] * (len(basic_dims) + len(lie_dims) - 1)
    e2 = {}
    for p, bp in enumerate(basic_dims):
        for q, lq in enumerate(lie_dims):
            if bp and lq:
                e2[(p, q)] = bp * lq
                total[p + q] += bp * lq
    return ExpectedResults(
        total_cohomology=tuple(total),
        e2_dims=e2,
        stabilization=2,
        basic_cohomology=basic_dims,
    )


def _trivial_product_card() -> ModelCard:
    basic = BasicComplex.build([("1", 0), ("a1", 1), ("a2", 1), ("a12", 2)])
    lie = LieData.abelian(2)
    model = EquivariantModel("trivial_product", lie, basic)
    # H(B, d_hor) by plain rank counting, with no page machinery
    basic_dims = cohomology_dims(basic.d_hor_columns(p) for p in range(basic.max_degree + 1))
    expected = _kunneth_expected(basic_dims, _lie_dims(lie))
    return ModelCard(model, expected, DESCRIPTIONS["trivial_product"])


# the cards that take no parameter, by name
_FIXED_CARDS = {
    "hopf": lambda: _hopf_card(1, "hopf"),
    "kronecker": _kronecker_card,
    "group_su2": lambda: _group_card(su2_lie(), "group_su2", DESCRIPTIONS["group_su2"]),
    "trivial_product": _trivial_product_card,
}


def get_model(name: str, param=None) -> ModelCard:
    """Look up a library card by name, with the card's parameter if it takes one.

    weighted_hopf takes a nonzero integer weight (default 2); group_torus takes
    the torus rank n >= 1 (default 2), up to the size limit of
    model.MAX_AMBIENT_DIM.  Unknown names and invalid parameters raise
    ValueError.
    """
    build = _FIXED_CARDS.get(name) if isinstance(name, str) else None
    if build is not None:
        if param is not None:
            raise ValueError(f"{name} takes no parameter")
        return build()
    if name == "weighted_hopf":
        w = 2 if param is None else param
        if not isinstance(w, int) or isinstance(w, bool) or w == 0:
            raise ValueError(f"weight must be a nonzero integer: {shown(param)}")
        return _hopf_card(w, f"weighted_hopf({w})")
    if name == "group_torus":
        n = 2 if param is None else param
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"torus rank must be a positive integer: {shown(param)}")
        too_large = size_error(1, n, 0)
        if too_large:
            raise ValueError(too_large)
        card = _group_card(
            LieData.abelian(n), f"group_torus({n})", DESCRIPTIONS["group_torus"]
        )
        binomials = tuple(comb(n, k) for k in range(n + 1))
        if card.expected.total_cohomology != binomials:
            raise CertificateError(
                f"group_torus({n}): algebra cohomology "
                f"{card.expected.total_cohomology} is not the binomials {binomials}"
            )
        return card
    raise ValueError(f"unknown model name: {shown(name)}")


def _random_invertible(rng: random.Random, size: int) -> list[list[int]]:
    """The rows of a random size x size matrix with entries in -2..2 and full rank."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        if sparse_rank(dict(enumerate(row)) for row in rows) == size:
            return rows


def _columns(rows: list[list[int]]) -> list[list[tuple[int, int]]]:
    """The columns of a square matrix given by its rows, as (row, value) pairs of nonzeros."""
    return [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(len(rows))]


def random_trivial_product(rng: random.Random, tag: str = "random_trivial_product") -> ModelCard:
    """A random valid trivial-product card with Kunneth-derived expectations.

    The basic complex is a random direct sum of dots and single arrows (every
    finite complex over a field splits this way) twisted by a random
    degree-preserving change of basis, so d_hor is dense-ish while the
    cohomology dims stay equal to the dot counts by construction.
    """
    n = rng.randint(1, 2)
    lie = LieData.abelian(n)
    max_deg = rng.randint(1, 3)
    dots = [rng.randint(0, 2) for _ in range(max_deg + 1)]
    dots[0] = max(dots[0], 1)  # keep a unit
    arrows = [rng.randint(0, 1) for _ in range(max_deg)]

    per_degree: list[list[str]] = [[] for _ in range(max_deg + 1)]
    arrow_slots = []  # (src_degree, src_local, dst_local, coeff)
    for p in range(max_deg + 1):
        for k in range(dots[p]):
            per_degree[p].append(f"g{p}_{len(per_degree[p])}")
    for p in range(max_deg):
        for _ in range(arrows[p]):
            src_local = len(per_degree[p])
            per_degree[p].append(f"g{p}_{src_local}")
            dst_local = len(per_degree[p + 1])
            per_degree[p + 1].append(f"g{p + 1}_{dst_local}")
            coeff = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
            arrow_slots.append((p, src_local, dst_local, coeff))

    # arrows always populate their target degree, so only dot-free trailing
    # degrees can be empty; drop them to keep degree ranges in sync
    while len(per_degree) > 1 and not per_degree[-1]:
        per_degree.pop()
        dots.pop()
    max_deg = len(per_degree) - 1

    basis_change = [_random_invertible(rng, len(per_degree[p])) for p in range(max_deg + 1)]
    generators = []
    offset = {}
    for p in range(max_deg + 1):
        offset[p] = len(generators)
        generators.extend((name, p) for name in per_degree[p])
    d_entries = []
    for p in range(max_deg):
        # the twisted d is B1 D B0^-1, column by column: the j-th column of
        # B0^-1 solves B0 x = e_j, and D and B1 are applied to it sparse
        b0 = _columns(basis_change[p])
        b1 = _columns(basis_change[p + 1])
        d = [[] for _ in b0]
        for sp, sl, dl, coeff in arrow_slots:
            if sp == p:
                d[sl].append((dl, coeff))
        inverse_cols = solve_columns(b0, [{j: 1} for j in range(len(b0))])
        twisted = [apply_sparse(b1, apply_sparse(d, x)) for x in inverse_cols]
        for i in range(len(b1)):
            for j, col in enumerate(twisted):
                v = col.get(i)
                if v:
                    d_entries.append((offset[p] + j, offset[p + 1] + i, v))

    basic = BasicComplex.build(generators, d_hor=d_entries)
    model = EquivariantModel(tag, lie, basic)
    expected = _kunneth_expected(
        tuple(dots), tuple(comb(n, q) for q in range(n + 1))
    )
    return ModelCard(model, expected, "randomized trivial product")
