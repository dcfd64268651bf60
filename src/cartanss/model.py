"""Invariant-forms model of a locally free action, from finite data.

The complex is spanned by monomials g (x) chi_I where g runs over the
generators of a finite-dimensional graded "basic" complex (B, d_hor) and I
over multi-indices of connection generators.  Bidegree of g (x) chi_I is
(p, q) = (deg g, |I|); total degree is p + q.

The total differential splits by chi-count into three parts:

    d21(g (x) chi_{i_1..i_q}) = sum_j (-1)^(p + j - 1) E_{i_j}(g) (x) chi_{I \\ i_j}
    d10(g (x) chi_I)          = d_hor(g) (x) chi_I
    d01(g (x) chi_I)          = -(-1)^p  g (x) delta(chi_I)

with p = deg g and E_i the degree +2 Euler operators on B; total_d is their
sum.  validate_model checks that each bidegree component of total_d^2
vanishes, which is exactly the compatibility required of (d_hor, E_i, delta).

The model holds these operators only as tables.  Each model keeps, outside
equality and filled on first use, the sparse image under total_d of every
monomial whose image is nonzero, its three parts read straight from
d_hor_table, euler_table and delta_terms (total_images).  No monomial basis
is listed: the basis of total degree m is the stack of blocks
B^p (x) Lambda^(m-p), p from the top down, so every filtration level and
every monomial's position is counted (prefix_levels).  total_d is mostly
zero on the models of an abelian algebra (on a torus acting on itself it is
zero), so the table costs what total_d holds: where delta is zero, a
generator with no d_hor and no Euler entry is not visited at all.
validate_model composes the kept images, once, and total_columns places
them into every degree's column-sparse total_d in one pass, with an empty
column for a monomial that has no image.  The tests check both against the
element operators and the listed basis of tests/oracles.py, which apply the
formulas above to linear combinations of monomials, and the certificate
against the composition of every monomial's image there.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .liealg import (
    LieData,
    MultiIndex,
    _positions,
    all_multi_indices,
    delta_terms,
    first_delta_squared_failure,
)
from .qlinalg import SparseColumns, as_q, exact
from .reports import CheckResult, ReadOnly, ValidationReport


class BasicComplex(ReadOnly):
    """Graded space with a degree +1 differential and degree +2 Euler operators.

    generators: (name, degree) pairs; indices into this tuple are 0-based.
    d_hor_entries: (src, dst, coeff) triples, d_hor(g_src) += coeff * g_dst.
    euler_entries: (i, src, dst, coeff) with i the 1-based connection index.

    Degree bookkeeping (dst one degree above src for d_hor, two for Euler) is
    deliberately not enforced here; validate_model reports it, so malformed
    models can be loaded and diagnosed rather than refused at construction.

    Derived tables, built once at construction and taking no part in
    equality: d_hor_table[src] and euler_table[(i, src)] list the
    (dst, coeff) pairs of the entries in the order given, each coeff in
    qlinalg's scalar form (`exact`: an int where it is integral); by_degree
    maps each degree to its generators in declaration order, max_degree is
    the largest of those degrees (0 with no generators), and degree_index[g]
    is g's position among the generators of its degree.  Equality, hash and
    repr read the three fields generators, d_hor_entries and euler_entries.
    """

    def __init__(self, generators: tuple[tuple[str, int], ...],
                 d_hor_entries: tuple[tuple[int, int, Fraction], ...] = (),
                 euler_entries: tuple[tuple[int, int, int, Fraction], ...] = ()):
        d_hor: dict[int, list] = {}
        for src, dst, coeff in d_hor_entries:
            d_hor.setdefault(src, []).append((dst, exact(coeff)))
        euler: dict[tuple[int, int], list] = {}
        for i, src, dst, coeff in euler_entries:
            euler.setdefault((i, src), []).append((dst, exact(coeff)))
        by_degree: dict[int, list[int]] = {}
        index = []
        for g, (_, deg) in enumerate(generators):
            gens = by_degree.setdefault(deg, [])
            index.append(len(gens))
            gens.append(g)
        vars(self).update(
            generators=generators,
            d_hor_entries=d_hor_entries,
            euler_entries=euler_entries,
            d_hor_table={g: tuple(v) for g, v in d_hor.items()},
            euler_table={k: tuple(v) for k, v in euler.items()},
            by_degree={p: tuple(v) for p, v in by_degree.items()},
            max_degree=max(by_degree, default=0),
            degree_index=tuple(index),
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.generators, self.d_hor_entries, self.euler_entries)
                == (other.generators, other.d_hor_entries, other.euler_entries))

    def __hash__(self):
        return hash((self.generators, self.d_hor_entries, self.euler_entries))

    def __repr__(self):
        return (f"{type(self).__qualname__}(generators={self.generators!r}, "
                f"d_hor_entries={self.d_hor_entries!r}, euler_entries={self.euler_entries!r})")

    @classmethod
    def build(cls, generators, d_hor=(), euler=()) -> "BasicComplex":
        gens = tuple((str(name), int(deg)) for name, deg in generators)
        if any(deg < 0 for _, deg in gens):
            raise ValueError("generator degrees must be >= 0")
        if any(not name for name, _ in gens):
            raise ValueError("generator names must be nonempty")
        if len({name for name, _ in gens}) != len(gens):
            raise ValueError("generator names must be distinct")
        ng = len(gens)

        def gen_ok(g):
            return isinstance(g, int) and not isinstance(g, bool) and 0 <= g < ng

        d_rows = []
        seen_d = set()
        for src, dst, coeff in d_hor:
            if not (gen_ok(src) and gen_ok(dst)):
                raise ValueError(f"d_hor entry ({src},{dst}) out of range")
            if (src, dst) in seen_d:
                raise ValueError(f"duplicate d_hor entry ({src},{dst})")
            seen_d.add((src, dst))
            d_rows.append((src, dst, as_q(coeff)))
        e_rows = []
        seen_e = set()
        for i, src, dst, coeff in euler:
            if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                raise ValueError(f"euler connection index must be >= 1: {i!r}")
            if not (gen_ok(src) and gen_ok(dst)):
                raise ValueError(f"euler entry ({i},{src},{dst}) out of range")
            if (i, src, dst) in seen_e:
                raise ValueError(f"duplicate euler entry ({i},{src},{dst})")
            seen_e.add((i, src, dst))
            e_rows.append((i, src, dst, as_q(coeff)))
        return cls(gens, tuple(sorted(d_rows)), tuple(sorted(e_rows)))

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def degree_of(self, g: int) -> int:
        return self.generators[g][1]

    def name_of(self, g: int) -> str:
        return self.generators[g][0]

    def gens_of_degree(self, p: int) -> tuple[int, ...]:
        return self.by_degree.get(p, ())

    def euler_indices(self) -> tuple[int, ...]:
        return tuple(sorted({i for i, _, _, _ in self.euler_entries}))

    def d_hor_columns(self, p: int) -> SparseColumns:
        """d_hor from degree p to p+1 by its columns, in per-degree generator coordinates.

        An entry whose target is not of degree p+1 is left out; validate_model reports it.
        """
        table, gens, index = self.d_hor_table, self.generators, self.degree_index
        return tuple(tuple(sorted((index[h], c) for h, c in table[g]
                                  if c and gens[h][1] == p + 1)) if g in table else ()
                     for g in self.gens_of_degree(p))


Monomial = tuple[int, MultiIndex]
Image = dict[Monomial, Fraction]


class EquivariantModel(ReadOnly):
    """A metric Lie algebra acting on a basic complex.

    A derived table, taking no part in equality, hash or repr and never
    built at construction (so an oversized model is refused before any
    image is taken): _images, the table of the nonzero images of
    total_images, None until it is built.
    """

    def __init__(self, name: str, lie: LieData, basic: BasicComplex):
        vars(self).update(name=name, lie=lie, basic=basic, _images=None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.lie, self.basic) == (other.name, other.lie, other.basic)

    def __hash__(self):
        return hash((self.name, self.lie, self.basic))

    def __repr__(self):
        return (f"{type(self).__qualname__}(name={self.name!r}, lie={self.lie!r}, "
                f"basic={self.basic!r})")


def max_total_degree(model: EquivariantModel) -> int:
    return model.basic.max_degree + model.lie.n


# Largest total number of monomials a model may have.  Every library card and
# benchmark model has at most 2^8 = 256; the Heisenberg nilmanifold of
# dimension 15 and su(2)^3 over the 6-torus reach the limit, 2^15.  A model
# with lie.n = 40 would have 2^40 multi-indices, and enumerating them would
# exhaust memory.
MAX_AMBIENT_DIM = 1 << 15

# Largest total degree (top basic degree + lie.n) a model may reach.  The
# largest card or benchmark model, S^25, reaches 25.  The pages walk only the
# E_0 support (B^p != 0), but the filtration counts a prefix of length m + 2
# and keeps a column table for every degree m up to the top, the
# cohomology of (B, d_hor) takes a differential per basic degree, and
# stabilization may take up to top + 2 pages, so a basic generator of degree
# 10^6 would never finish.
MAX_TOTAL_DEGREE = 128


def _count(x: int) -> str:
    """x in decimal, or only its size past 64 bits, so a message stays short."""
    return str(x) if x.bit_length() <= 64 else f"<{x.bit_length()}-bit integer>"


def size_error(num_generators: int, n: int, max_degree: int) -> str | None:
    """Why a model is too large, or None within MAX_AMBIENT_DIM and MAX_TOTAL_DEGREE.

    num_generators x 2^n monomials is the ambient dimension and
    max_degree + n the total degree.  Decided from the counts alone, before
    any multi-index is listed; n is compared first, so a huge n never builds
    a huge integer, and a count past 64 bits is named by its size alone.
    """
    if not (n < MAX_AMBIENT_DIM.bit_length() and num_generators << n <= MAX_AMBIENT_DIM):
        return (
            f"model too large: ambient dimension {_count(num_generators)} x 2^{_count(n)} "
            f"(basic generators x multi-indices) exceeds the limit {MAX_AMBIENT_DIM}"
        )
    if max_degree + n > MAX_TOTAL_DEGREE:
        return (
            f"model too large: total degree {_count(max_degree + n)} "
            f"(top basic degree {_count(max_degree)} + lie.n {_count(n)}) "
            f"exceeds the limit {MAX_TOTAL_DEGREE}"
        )
    return None


def _monomial_name(model: EquivariantModel, key: Monomial) -> str:
    g, I = key
    return f"{model.basic.name_of(g)} (x) chi{list(I)}"


def _add(out: Image, key: Monomial, value: Fraction) -> None:
    y = out.get(key)
    out[key] = value if y is None else y + value


def total_images(model: EquivariantModel) -> dict[Monomial, Image]:
    """The nonzero images of the monomials under total_d, built once per model, on first use.

    Maps (g, I) to {(g', J): coefficient} with zeros dropped, in generator
    order, then all_multi_indices order; a monomial whose image is zero has
    no key.  Where delta is zero on every generator, a generator with no
    d_hor and no Euler entry has a zero image on every I, and its
    multi-indices are not visited.  An empty table counts as built: the
    model's _images is None until the first call.
    """
    table = model._images
    if table is not None:
        return table
    basic, lie = model.basic, model.lie
    dm, em = basic.d_hor_table, basic.euler_table
    euler_sources = {g for _, g in em}
    flat = not any(lie.delta_gens)
    indices = all_multi_indices(lie.n)
    table = {}
    for g in range(basic.num_generators):
        hor = dm.get(g, ())
        if flat and not hor and g not in euler_sources:
            continue
        p = basic.degree_of(g)
        for I in indices:
            # d21, d10 and d01 change the chi-count by -1, 0 and +1: disjoint
            # supports, summed into one image in that order
            image: Image = {}
            for j, gen in enumerate(I):
                hits = em.get((gen, g))
                if not hits:
                    continue
                odd = (p + j) % 2
                J = I[:j] + I[j + 1:]
                for dst, coeff in hits:
                    _add(image, (dst, J), -coeff if odd else coeff)
            for dst, coeff in hor:
                _add(image, (dst, I), coeff)
            for J, w in delta_terms(lie, I):
                image[(g, J)] = w if p % 2 else -w
            image = {k: v for k, v in image.items() if v}
            if image:
                table[(g, I)] = image
    vars(model)["_images"] = table
    return table


def prefix_levels(model: EquivariantModel) -> tuple[tuple[int, ...], ...]:
    """k(p, m) = dim F^p C^m for 0 <= p <= m + 1, per total degree m up to the top.

    The basis of C^m is the stack of blocks B^p (x) Lambda^(m-p), p from
    m down to 0, so the levels are counts, and no monomial is listed:
    k(p, m) = sum over p' >= p of |B^p'| C(n, m - p'), with k(0, m) =
    dim C^m and k(m + 1, m) = 0.  Inside its block, g (x) chi_I, of
    bidegree (p, q), sits at k(p + 1, m) + j C(n, q) + i: j is
    basic.degree_index[g], g's position among the generators of degree p
    in declaration order, and i is I's position among the degree-q
    multi-indices in lexicographic order (liealg._positions).
    """
    n, blocks = model.lie.n, model.basic.by_degree
    out = []
    for m in range(max_total_degree(model) + 1):
        levels = [0] * (m + 2)
        k = 0
        for p in range(m, -1, -1):
            k += len(blocks.get(p, ())) * comb(n, m - p)
            levels[p] = k
        out.append(tuple(levels))
    return tuple(out)


def total_columns(model: EquivariantModel,
                  levels: tuple[tuple[int, ...], ...]) -> tuple[SparseColumns, ...]:
    """total_d from each degree m to m + 1 in the monomial bases, column by column.

    levels is prefix_levels(model), whose position rule places every
    monomial.  One pass over total_images: the column of a monomial of
    degree m holds the (row, value) pairs of its image, in increasing row
    order, zeros left out, and a monomial with no key in total_images gets
    ().  An image that leaves degree m + 1 raises ValueError naming the
    monomial there, for the first such image in table order.
    """
    lie, n = model.lie, model.lie.n
    gens, index = model.basic.generators, model.basic.degree_index
    columns = [[()] * k[0] for k in levels]
    for (g, I), image in total_images(model).items():
        p, q = gens[g][1], len(I)
        m = p + q
        col = []
        for y, v in image.items():
            h, J = y
            s, r = gens[h][1], len(J)
            if s + r != m + 1:
                raise ValueError(
                    f"monomial {_monomial_name(model, y)} is not in total degree {m + 1}"
                )
            col.append((levels[m + 1][s + 1] + index[h] * comb(n, r) + _positions(lie, r)[J], v))
        col.sort()
        columns[m][levels[m][p + 1] + index[g] * comb(n, q) + _positions(lie, q)[I]] = tuple(col)
    return tuple(map(tuple, columns))


# the bidegree component of total_d^2 that a path x -> y -> z of two
# total_d steps lies in, by the change of chi-count from x to z
_COMPONENTS = {
    2: "bidegree (0,2) component",
    1: "bidegree (1,1) component",
    0: "bidegree (2,0) component",
    -1: "bidegree (3,-1) component",
    -2: "bidegree (4,-2) component",
}


def _square_failures(model: EquivariantModel) -> dict[str, Monomial]:
    """The first monomial, in table order, on which each identity of d^2 = 0 fails.

    Keyed by check name: "d_hor squared", the five bidegree components and
    "total differential squared"; an identity that holds has no key.  One
    walk of total_d o total_d per monomial x of the table, through the kept
    images only: a monomial with no image has total_d^2 x = 0, so no
    identity fails there, and a step into a y with no image ends the path.
    The table keeps the order of all monomials, so the first failure is the
    same as over every monomial.  A step of d10, d01 or d21 changes the
    chi-count by 0, +1 or -1, so every path from x to z lies in the
    component named by the change from x to z, and total_d^2 x at z is that
    component at z: a component fails at x iff total_d^2 x is nonzero at
    such a z, and total_d^2 fails iff one of them does.  d_hor^2 x sums the
    paths of two steps that keep the chi-count.
    """
    total = total_images(model)
    first: dict[str, Monomial] = {}
    for x, image in total.items():
        q = len(x[1])
        acc: Image = {}
        hor: Image = {}
        for y, v in image.items():
            after = total.get(y)
            if after is None:
                continue
            flat = len(y[1]) == q
            for z, w in after.items():
                vw = v * w
                _add(acc, z, vw)
                if flat and len(z[1]) == q:
                    _add(hor, z, vw)
        failed = {_COMPONENTS[len(z[1]) - q] for z, a in acc.items() if a}
        if failed:
            failed.add("total differential squared")
        if any(hor.values()):
            failed.add("d_hor squared")
        for name in failed:
            first.setdefault(name, x)
    return first


def validate_model(model: EquivariantModel) -> ValidationReport:
    """Structural checks plus every bidegree component of total_d^2 = 0."""
    basic = model.basic
    checks = []

    has_unit = any(deg == 0 for _, deg in basic.generators)
    checks.append(
        CheckResult(
            "degree-zero unit",
            has_unit,
            "" if has_unit else "basic complex has no degree-0 generator",
        )
    )

    bad_e = next((i for i in basic.euler_indices() if i > model.lie.n), None)
    checks.append(
        CheckResult(
            "euler index range",
            bad_e is None,
            "" if bad_e is None else f"euler operator E_{bad_e} exceeds n={model.lie.n}",
        )
    )

    deg_bad = ""
    for src, dst, _ in basic.d_hor_entries:
        if basic.degree_of(dst) != basic.degree_of(src) + 1:
            deg_bad = (
                f"d_hor sends {basic.name_of(src)} (deg {basic.degree_of(src)}) to "
                f"{basic.name_of(dst)} (deg {basic.degree_of(dst)}), not degree +1"
            )
            break
    if not deg_bad:
        for i, src, dst, _ in basic.euler_entries:
            if basic.degree_of(dst) != basic.degree_of(src) + 2:
                deg_bad = (
                    f"E_{i} sends {basic.name_of(src)} (deg {basic.degree_of(src)}) to "
                    f"{basic.name_of(dst)} (deg {basic.degree_of(dst)}), not degree +2"
                )
                break
    checks.append(CheckResult("degree bookkeeping", not deg_bad, deg_bad))

    failures = _square_failures(model)

    def square_check(name: str) -> CheckResult:
        x = failures.get(name)
        if x is None:
            return CheckResult(name, True)
        g, I = x
        return CheckResult(
            name,
            False,
            f"fails on {_monomial_name(model, x)} "
            f"(bidegree ({model.basic.degree_of(g)},{len(I)}))",
        )

    checks.append(square_check("d_hor squared"))

    bad_idx = first_delta_squared_failure(model.lie)
    checks.append(
        CheckResult(
            "delta squared",
            bad_idx is None,
            "" if bad_idx is None else f"delta^2(chi{list(bad_idx)}) != 0",
        )
    )

    checks.extend(square_check(name) for name in _COMPONENTS.values())
    checks.append(square_check("total differential squared"))

    return ValidationReport("model", tuple(checks))
