"""Invariant-forms model of a locally free action, from finite data.

The complex is spanned by monomials g (x) chi_I where g runs over the
generators of a finite-dimensional graded "basic" complex (B, d_hor) and I
over multi-indices of connection generators.  Bidegree of g (x) chi_I is
(p, q) = (deg g, |I|); total degree is p + q.

The total differential splits by chi-count into three parts:

    d21(g (x) chi_{i_1..i_q}) = sum_j (-1)^(p + j - 1) E_{i_j}(g) (x) chi_{I \\ i_j}
    d10(g (x) chi_I)          = d_hor(g) (x) chi_I
    d01(g (x) chi_I)          = -(-1)^p  g (x) delta(chi_I)

with p = deg g and E_i the degree +2 Euler operators on B.  total_d is their
sum; validate_model checks that each bidegree component of total_d^2
vanishes, which is exactly the compatibility required of (d_hor, E_i, delta).

ModelElement and the operators d10, d01, d21 and total_d on it are the
reference definitions.  The report does not build elements: each model keeps,
outside equality and filled on first use, the sparse image of every monomial
under d10, d01, d21 and total_d, read straight from d_hor_table, euler_table
and delta_terms (operator_images), and the basis of each total degree with
its position map (degree_basis), each built by one monomial_basis call.
validate_model composes those images monomial by monomial, total_columns
reads each degree's column-sparse total_d off them (total_matrix is its dense
form), and the tests check both against ModelElement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .liealg import (
    ChiElement,
    LieData,
    MultiIndex,
    _check_multi_index,
    all_multi_indices,
    contract as chi_contract,
    delta_terms,
    first_delta_squared_failure,
    multi_indices,
)
from .qlinalg import Matrix, SparseColumns, as_q, cohomology_dims, exact
from .reports import CheckResult, ValidationReport

_ZERO = Fraction(0)


@dataclass(frozen=True)
class BasicComplex:
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
    is g's position among the generators of its degree.
    """

    generators: tuple[tuple[str, int], ...]
    d_hor_entries: tuple[tuple[int, int, Fraction], ...] = ()
    euler_entries: tuple[tuple[int, int, int, Fraction], ...] = ()
    d_hor_table: dict[int, tuple[tuple[int, Fraction], ...]] = field(
        init=False, repr=False, compare=False
    )
    euler_table: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = field(
        init=False, repr=False, compare=False
    )
    by_degree: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    max_degree: int = field(init=False, repr=False, compare=False)
    degree_index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d_hor: dict[int, list] = {}
        for src, dst, coeff in self.d_hor_entries:
            d_hor.setdefault(src, []).append((dst, exact(coeff)))
        euler: dict[tuple[int, int], list] = {}
        for i, src, dst, coeff in self.euler_entries:
            euler.setdefault((i, src), []).append((dst, exact(coeff)))
        by_degree: dict[int, list[int]] = {}
        index = []
        for g, (_, deg) in enumerate(self.generators):
            gens = by_degree.setdefault(deg, [])
            index.append(len(gens))
            gens.append(g)
        object.__setattr__(self, "d_hor_table", {g: tuple(v) for g, v in d_hor.items()})
        object.__setattr__(self, "euler_table", {k: tuple(v) for k, v in euler.items()})
        object.__setattr__(self, "by_degree", {p: tuple(v) for p, v in by_degree.items()})
        object.__setattr__(self, "max_degree", max(by_degree, default=0))
        object.__setattr__(self, "degree_index", tuple(index))

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
        return tuple(tuple(sorted((index[h], c) for h, c in table.get(g, ())
                                  if c and gens[h][1] == p + 1))
                     for g in self.gens_of_degree(p))


Monomial = tuple[int, MultiIndex]
Image = dict[Monomial, Fraction]


@dataclass(frozen=True)
class EquivariantModel:
    """A metric Lie algebra acting on a basic complex.

    Derived tables, taking no part in equality and never built at
    construction (so an oversized model is refused before any monomial is
    listed): _images, the operator tables of operator_images, and _bases,
    the per-degree bases of degree_basis.
    """

    name: str
    lie: LieData
    basic: BasicComplex
    _images: dict[str, dict[Monomial, Image]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _bases: dict[int, tuple[tuple[Monomial, ...], dict[Monomial, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


class ModelElement:
    """Linear combination of (generator, multi-index) monomials over Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[tuple[int, MultiIndex], Fraction] = {}
        for (g, idx), val in dict(coeffs or {}).items():
            if not isinstance(g, int) or isinstance(g, bool) or g < 0:
                raise ValueError(f"generator index must be a non-negative integer: {g!r}")
            v = as_q(val)
            if v:
                clean[(g, _check_multi_index(idx))] = v
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "ModelElement":
        return cls()

    @classmethod
    def monomial(cls, g: int, idx, coeff=1) -> "ModelElement":
        return cls({(g, tuple(idx)): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ModelElement") -> "ModelElement":
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, _ZERO) + v
        return ModelElement(out)

    def __sub__(self, other: "ModelElement") -> "ModelElement":
        return self + (-other)

    def __neg__(self) -> "ModelElement":
        return ModelElement({k: -v for k, v in self.coeffs.items()})

    def __rmul__(self, scalar) -> "ModelElement":
        c = as_q(scalar)
        return ModelElement({k: c * v for k, v in self.coeffs.items()})

    def chi_lengths(self) -> set[int]:
        return {len(I) for _, I in self.coeffs}

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelElement) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        if not self.coeffs:
            return "ModelElement(0)"
        parts = []
        for g, I in sorted(self.coeffs):
            v = self.coeffs[(g, I)]
            chi = "1" if not I else "chi(" + ",".join(map(str, I)) + ")"
            parts.append(f"{v}*g{g}(x){chi}")
        return "ModelElement(" + " + ".join(parts) + ")"


def bidegrees(model: EquivariantModel, x: ModelElement) -> set[tuple[int, int]]:
    return {(model.basic.degree_of(g), len(I)) for g, I in x.coeffs}


def filtration_degree(x: ModelElement) -> int:
    """Largest chi-count in the support; the smallest q with x in F^(deg-q)."""
    if x.is_zero:
        raise ValueError("filtration degree of the zero element is undefined")
    return max(len(I) for _, I in x.coeffs)


def bihomogeneous_part(model: EquivariantModel, x: ModelElement, p: int, q: int) -> ModelElement:
    return ModelElement(
        {
            (g, I): v
            for (g, I), v in x.coeffs.items()
            if model.basic.degree_of(g) == p and len(I) == q
        }
    )


def canonical_decomposition(model: EquivariantModel, x: ModelElement) -> list[ModelElement]:
    """Split into bihomogeneous pieces, ordered by increasing chi-count.

    For a total-degree-homogeneous x this is the usual horizontal-degree
    descending decomposition; each piece can equivalently be extracted by
    iterated contraction against its multi-indices.
    """
    keys = sorted(bidegrees(model, x), key=lambda pq: (pq[1], -pq[0]))
    return [bihomogeneous_part(model, x, p, q) for p, q in keys]


def contract(model: EquivariantModel, ell: int, x: ModelElement) -> ModelElement:
    """Interior product on the model: basic factors are horizontal."""
    out: dict[tuple[int, MultiIndex], Fraction] = {}
    for (g, I), v in x.coeffs.items():
        ci = chi_contract(ell, ChiElement.basis(I))
        if ci.is_zero:
            continue
        sign = -1 if model.basic.degree_of(g) % 2 else 1
        for J, w in ci.coeffs.items():
            key = (g, J)
            out[key] = out.get(key, _ZERO) + sign * v * w
    return ModelElement(out)


def d10(model: EquivariantModel, x: ModelElement) -> ModelElement:
    """d_hor on the basic factor, identity on the chi factor, no sign."""
    dm = model.basic.d_hor_table
    out: dict[tuple[int, MultiIndex], Fraction] = {}
    for (g, I), v in x.coeffs.items():
        for dst, coeff in dm.get(g, ()):
            key = (dst, I)
            out[key] = out.get(key, _ZERO) + v * coeff
    return ModelElement(out)


def one_tensor_delta(model: EquivariantModel, x: ModelElement) -> ModelElement:
    """(1 (x) delta) with the Koszul sign: g (x) chi_I -> (-1)^(deg g) g (x) delta(chi_I)."""
    out: dict[tuple[int, MultiIndex], Fraction] = {}
    for (g, I), v in x.coeffs.items():
        dI = delta_terms(model.lie, I)
        if not dI:
            continue
        sv = -v if model.basic.degree_of(g) % 2 else v
        for J, w in dI:
            key = (g, J)
            out[key] = out.get(key, _ZERO) + sv * w
    return ModelElement(out)


def d01(model: EquivariantModel, x: ModelElement) -> ModelElement:
    """Minus (1 (x) delta) with the Koszul sign."""
    return -one_tensor_delta(model, x)


def d21(model: EquivariantModel, x: ModelElement) -> ModelElement:
    """Euler component: sum_j (-1)^(p+j-1) E_{i_j}(g) (x) chi_{I minus i_j}."""
    em = model.basic.euler_table
    out: dict[tuple[int, MultiIndex], Fraction] = {}
    for (g, I), v in x.coeffs.items():
        p = model.basic.degree_of(g)
        for j, gen in enumerate(I):
            hits = em.get((gen, g))
            if not hits:
                continue
            sign = -1 if (p + j) % 2 else 1
            J = I[:j] + I[j + 1:]
            for dst, coeff in hits:
                key = (dst, J)
                out[key] = out.get(key, _ZERO) + sign * v * coeff
    return ModelElement(out)


def total_d(model: EquivariantModel, x: ModelElement) -> ModelElement:
    return d21(model, x) + d10(model, x) + d01(model, x)


def monomial_basis(model: EquivariantModel, k: int) -> tuple[tuple[int, MultiIndex], ...]:
    """Basis of total degree k, ordered by descending horizontal degree.

    Within one horizontal degree: generators in declaration order, then
    multi-indices lexicographically.  The descending order makes every
    filtration step a coordinate prefix.
    """
    out: list[tuple[int, MultiIndex]] = []
    n = model.lie.n
    for p in range(model.basic.max_degree, -1, -1):
        q = k - p
        if q < 0 or q > n:
            continue
        for g in model.basic.gens_of_degree(p):
            for I in multi_indices(n, q):
                out.append((g, I))
    return tuple(out)


def max_total_degree(model: EquivariantModel) -> int:
    return model.basic.max_degree + model.lie.n


# Largest total number of monomials a model may have.  Every library card and
# benchmark model has at most 2^8 = 256; a model with lie.n = 40 would have
# 2^40 multi-indices, and enumerating them would exhaust memory.
MAX_AMBIENT_DIM = 1 << 13

# Largest total degree (top basic degree + lie.n) a model may reach.  The
# largest card or benchmark model, S^25, reaches 25.  The pages walk only the
# E_0 support (B^p != 0), but the filtration lists a basis, a column table
# and a prefix of length m + 2 for every degree m up to the top, the
# cohomology of (B, d_hor) takes a differential per basic degree, and
# stabilization may take up to top + 2 pages, so a basic generator of degree
# 10^6 would never finish.
MAX_TOTAL_DEGREE = 128


def size_error(num_generators: int, n: int, max_degree: int) -> str | None:
    """Why a model is too large, or None within MAX_AMBIENT_DIM and MAX_TOTAL_DEGREE.

    num_generators x 2^n monomials is the ambient dimension and
    max_degree + n the total degree.  Decided from the counts alone, before
    any multi-index is listed; n is compared first, so a huge n never builds
    a huge integer.
    """
    if not (n < MAX_AMBIENT_DIM.bit_length() and num_generators << n <= MAX_AMBIENT_DIM):
        return (
            f"model too large: ambient dimension {num_generators} x 2^{n} "
            f"(basic generators x multi-indices) exceeds the limit {MAX_AMBIENT_DIM}"
        )
    if max_degree + n > MAX_TOTAL_DEGREE:
        return (
            f"model too large: total degree {max_degree + n} "
            f"(top basic degree {max_degree} + lie.n {n}) exceeds the limit {MAX_TOTAL_DEGREE}"
        )
    return None


def _monomial_name(model: EquivariantModel, key: Monomial) -> str:
    g, I = key
    return f"{model.basic.name_of(g)} (x) chi{list(I)}"


def element_to_vector(model: EquivariantModel, x: ModelElement, k: int) -> tuple[Fraction, ...]:
    pos = {key: i for i, key in enumerate(monomial_basis(model, k))}
    v = [_ZERO] * len(pos)
    for key, val in x.coeffs.items():
        if key not in pos:
            raise ValueError(f"monomial {_monomial_name(model, key)} is not in total degree {k}")
        v[pos[key]] = val
    return tuple(v)


def vector_to_element(model: EquivariantModel, vec, k: int) -> ModelElement:
    basis = monomial_basis(model, k)
    if len(vec) != len(basis):
        raise ValueError("coordinate length mismatch")
    return ModelElement({key: v for key, v in zip(basis, vec)})


def degree_basis(
    model: EquivariantModel, k: int
) -> tuple[tuple[Monomial, ...], dict[Monomial, int]]:
    """monomial_basis(model, k) and each monomial's position in it, built once per degree."""
    hit = model._bases.get(k)
    if hit is None:
        basis = monomial_basis(model, k)
        hit = model._bases[k] = (basis, {key: i for i, key in enumerate(basis)})
    return hit


def _add(out: Image, key: Monomial, value: Fraction) -> None:
    out[key] = out.get(key, 0) + value


def _build_images(model: EquivariantModel) -> dict[str, dict[Monomial, Image]]:
    basic, lie = model.basic, model.lie
    dm, em = basic.d_hor_table, basic.euler_table
    indices = all_multi_indices(lie.n)
    tables = {"d10": {}, "d01": {}, "d21": {}, "total": {}}
    for g in range(basic.num_generators):
        p = basic.degree_of(g)
        hor = dm.get(g, ())
        for I in indices:
            hi: Image = {}
            for dst, coeff in hor:
                _add(hi, (dst, I), coeff)
            vert = {(g, J): w if p % 2 else -w for J, w in delta_terms(lie, I)}
            euler: Image = {}
            for j, gen in enumerate(I):
                hits = em.get((gen, g))
                if not hits:
                    continue
                odd = (p + j) % 2
                J = I[:j] + I[j + 1:]
                for dst, coeff in hits:
                    _add(euler, (dst, J), -coeff if odd else coeff)
            x = (g, I)
            hi, vert, euler = ({k: v for k, v in im.items() if v} for im in (hi, vert, euler))
            tables["d10"][x] = hi
            tables["d01"][x] = vert
            tables["d21"][x] = euler
            # the three parts change the chi-count by 0, +1 and -1: disjoint supports
            tables["total"][x] = {**euler, **hi, **vert}
    return tables


def operator_images(model: EquivariantModel) -> dict[str, dict[Monomial, Image]]:
    """Sparse images of every monomial under "d10", "d01", "d21" and "total" (total_d).

    Each table maps (g, I) to {(g', J): coefficient} with zeros dropped, and
    lists the monomials in generator order, then all_multi_indices order.
    Built once per model, on first use.
    """
    if not model._images:
        model._images.update(_build_images(model))
    return model._images


def total_columns(model: EquivariantModel, k: int) -> SparseColumns:
    """total_d from degree k to k+1 in the monomial bases, column by column.

    Column j holds the (row, value) pairs of the image of the j-th monomial
    of degree k, in increasing row order, zeros left out.
    """
    src, _ = degree_basis(model, k)
    _, pos = degree_basis(model, k + 1)
    total = operator_images(model)["total"]
    cols = []
    for x in src:
        col = []
        for y, v in total[x].items():
            i = pos.get(y)
            if i is None:
                raise ValueError(
                    f"monomial {_monomial_name(model, y)} is not in total degree {k + 1}"
                )
            col.append((i, v))
        col.sort()
        cols.append(tuple(col))
    return tuple(cols)


def total_matrix(model: EquivariantModel, k: int) -> Matrix:
    """Matrix of total_d from degree k to k+1 in the monomial bases."""
    cols = total_columns(model, k)
    return Matrix.from_columns([dict(col) for col in cols], len(degree_basis(model, k + 1)[0]))


def total_cohomology(model: EquivariantModel) -> tuple[int, ...]:
    """Cohomology dimensions of (total complex, total_d), degree by degree.

    Straight rank computation on the columns of total_d, independent of any
    filtration: the abutment oracle for the spectral machinery.
    """
    top = max_total_degree(model)
    return cohomology_dims(total_columns(model, k) for k in range(top + 1))


def _identity_check(model, name, *paths) -> CheckResult:
    """Whether the sum of second o first over paths vanishes on every monomial.

    paths are (first, second) pairs of operator_images tables; monomials are
    visited in table order and the first one with a nonzero sum is named.
    """
    images = operator_images(model)
    maps = [(images[first], images[second]) for first, second in paths]
    for x in images["total"]:
        acc: Image = {}
        for first, second in maps:
            for y, v in first[x].items():
                for z, w in second[y].items():
                    acc[z] = acc.get(z, 0) + v * w
        if any(acc.values()):
            g, I = x
            return CheckResult(
                name,
                False,
                f"fails on {_monomial_name(model, x)} "
                f"(bidegree ({model.basic.degree_of(g)},{len(I)}))",
            )
    return CheckResult(name, True)


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

    checks.append(_identity_check(model, "d_hor squared", ("d10", "d10")))

    bad_idx = first_delta_squared_failure(model.lie)
    checks.append(
        CheckResult(
            "delta squared",
            bad_idx is None,
            "" if bad_idx is None else f"delta^2(chi{list(bad_idx)}) != 0",
        )
    )

    checks.append(_identity_check(model, "bidegree (0,2) component", ("d01", "d01")))
    checks.append(
        _identity_check(model, "bidegree (1,1) component", ("d01", "d10"), ("d10", "d01"))
    )
    checks.append(
        _identity_check(
            model,
            "bidegree (2,0) component",
            ("d10", "d10"),
            ("d01", "d21"),
            ("d21", "d01"),
        )
    )
    checks.append(
        _identity_check(model, "bidegree (3,-1) component", ("d10", "d21"), ("d21", "d10"))
    )
    checks.append(_identity_check(model, "bidegree (4,-2) component", ("d21", "d21")))
    checks.append(_identity_check(model, "total differential squared", ("total", "total")))

    return ValidationReport("model", tuple(checks))
