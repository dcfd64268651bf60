"""Exterior algebra on dual generators and Lie algebra cohomology, exactly.

Conventions, fixed once and used everywhere downstream:

* ``c[a][b][k]`` encodes the bracket pairing <[u_a, u_b], u_k> in an
  orthonormal basis u_1..u_n.  Valid data is antisymmetric in (a, b), fully
  antisymmetric under all permutations of (a, b, k) (the invariant-metric
  condition), and satisfies the Jacobi identity.
* The differential on the exterior algebra of the dual generators chi_1..chi_n
  is
      delta chi_k = sum_{a<b} c[a][b][k] chi_a ^ chi_b,
  extended as a graded derivation of degree +1:
      delta(chi_{i_1} ^ ... ^ chi_{i_q})
        = sum_j (-1)^(j-1) chi_{i_1} ^ ... ^ delta chi_{i_j} ^ ... ^ chi_{i_q}.
* contract(i, -) is the interior product with the i-th basis direction, the
  graded derivation of degree -1 with contract(i, chi_j) = [i == j].
* The infinitesimal action of the l-th basis direction is the degree-zero
  derivation given by the homotopy formula
      coadjoint(l, -) = contract(l, delta(-)) + delta(contract(l, -)),
  which on generators evaluates to
      coadjoint(l, chi_i) = sum_k c[l][k][i] chi_k,
  i.e. minus the dual of ad(u_l).  Its joint kernel over l is the invariant
  subcomplex.

Multi-indices are strictly increasing tuples of 1-based generator indices;
the basis of the exterior algebra is enumerated by length, then
lexicographically.

The homotopy formula is the definition; the engine does not evaluate it.
Each LieData carries sparse tables outside equality: delta chi_k and
coadjoint(l, chi_i) on generators, built at construction (the latter is
contract(l, delta chi_i), the homotopy on a generator), and delta(chi_I) for
each multi-index I, built once on first use by the derivation rule.  Since a
graded commutator of derivations is a derivation, coadjoint is evaluated as
the even derivation with those generator values, each term signed by the
position where its new generator is inserted.  The test suite checks both
tables entry by entry against the wedge-product formulas above.

Both operators reach the linear algebra by their columns on each Lambda^q
(delta_columns, coadjoint_columns), read off those tables; delta_matrix and
coadjoint_matrix are their dense views.  lie_cohomology is
qlinalg.graded_cohomology of delta_columns, one Quotient per degree, built
as it is asked for.  The tables hold plain (multi-index, coefficient)
terms, so the engine builds no ChiElement; ChiElement and the operators on
it (wedge, contract, ce_delta, coadjoint, delta_gen) are the reference
element algebra.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from .qlinalg import (
    Matrix,
    Quotient,
    SparseColumns,
    Subspace,
    as_q,
    column_rows,
    exact,
    graded_cohomology,
    sparse_kernel,
)
from .reports import CheckResult, ValidationReport

MultiIndex = tuple[int, ...]

_ZERO = Fraction(0)


def _check_multi_index(idx) -> MultiIndex:
    I = tuple(idx)
    for x in I:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"multi-index entries must be positive integers: {I!r}")
    if any(I[j] >= I[j + 1] for j in range(len(I) - 1)):
        raise ValueError(f"multi-index must be strictly increasing: {I!r}")
    return I


def multi_indices(n: int, q: int) -> tuple[MultiIndex, ...]:
    """All degree-q multi-indices on generators 1..n, lexicographically."""
    if q < 0:
        return ()
    return tuple(combinations(range(1, n + 1), q))


def all_multi_indices(n: int) -> tuple[MultiIndex, ...]:
    out: list[MultiIndex] = []
    for q in range(n + 1):
        out.extend(multi_indices(n, q))
    return tuple(out)


class ChiElement:
    """Element of the exterior algebra on chi_1, chi_2, ... over Fraction.

    Stored as multi-index -> coefficient with zero coefficients pruned, so
    equality is structural.  Instances are treated as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[MultiIndex, Fraction] = {}
        for idx, val in dict(coeffs or {}).items():
            v = as_q(val)
            if v:
                clean[_check_multi_index(idx)] = v
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "ChiElement":
        return cls()

    @classmethod
    def unit(cls) -> "ChiElement":
        return cls({(): 1})

    @classmethod
    def chi(cls, i: int) -> "ChiElement":
        return cls({(i,): 1})

    @classmethod
    def basis(cls, idx) -> "ChiElement":
        return cls({tuple(idx): 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> set[int]:
        return {len(I) for I in self.coeffs}

    def __add__(self, other: "ChiElement") -> "ChiElement":
        out = dict(self.coeffs)
        for I, v in other.coeffs.items():
            out[I] = out.get(I, _ZERO) + v
        return ChiElement(out)

    def __sub__(self, other: "ChiElement") -> "ChiElement":
        return self + (-other)

    def __neg__(self) -> "ChiElement":
        return ChiElement({I: -v for I, v in self.coeffs.items()})

    def __rmul__(self, scalar) -> "ChiElement":
        c = as_q(scalar)
        return ChiElement({I: c * v for I, v in self.coeffs.items()})

    def wedge(self, other: "ChiElement") -> "ChiElement":
        return wedge(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, ChiElement) and self.coeffs == other.coeffs

    __hash__ = None  # mutable-dict backed

    def __repr__(self) -> str:
        if not self.coeffs:
            return "ChiElement(0)"
        parts = []
        for I in sorted(self.coeffs, key=lambda J: (len(J), J)):
            v = self.coeffs[I]
            label = "1" if not I else "chi(" + ",".join(map(str, I)) + ")"
            parts.append(f"{v}*{label}")
        return "ChiElement(" + " + ".join(parts) + ")"


def _merge_multi_indices(I: MultiIndex, J: MultiIndex):
    """Merge two disjoint increasing tuples; returns (sign, merged) or None."""
    if set(I) & set(J):
        return None
    merged: list[int] = []
    inversions = 0
    i = j = 0
    while i < len(I) and j < len(J):
        if I[i] < J[j]:
            merged.append(I[i])
            i += 1
        else:
            merged.append(J[j])
            inversions += len(I) - i
            j += 1
    merged.extend(I[i:])
    merged.extend(J[j:])
    return (-1 if inversions % 2 else 1), tuple(merged)


def wedge(a: ChiElement, b: ChiElement) -> ChiElement:
    out: dict[MultiIndex, Fraction] = {}
    for I, v in a.coeffs.items():
        for J, w in b.coeffs.items():
            m = _merge_multi_indices(I, J)
            if m is None:
                continue
            sign, K = m
            out[K] = out.get(K, _ZERO) + sign * v * w
    return ChiElement(out)


def contract(i: int, a: ChiElement) -> ChiElement:
    """Interior product with the i-th basis direction (degree -1 derivation)."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise ValueError(f"generator index must be a positive integer: {i!r}")
    out: dict[MultiIndex, Fraction] = {}
    for I, v in a.coeffs.items():
        if i not in I:
            continue
        pos = I.index(i)
        J = I[:pos] + I[pos + 1:]
        sign = -1 if pos % 2 else 1
        out[J] = out.get(J, _ZERO) + sign * v
    return ChiElement(out)


Terms = tuple[tuple[MultiIndex, Fraction], ...]


@dataclass(frozen=True)
class LieData:
    """Structure constants of an n-dimensional metric Lie algebra, 0-based storage.

    Derived tables, built from the nonzero constants and taking no part in
    equality, each coefficient in qlinalg's scalar form (`exact`: an int
    where it is integral): delta_gens[k - 1] = delta chi_k as ((a, b),
    coefficient) pairs and coadjoint_gens[l - 1][i - 1] = coadjoint(l,
    chi_i) as (k, coefficient) pairs, both at construction; delta(chi_I) per
    multi-index I, filled by delta_terms on first use; and the position of
    each multi-index in its degree's basis, per degree.
    """

    n: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]
    delta_gens: tuple[Terms, ...] = field(init=False, repr=False, compare=False)
    coadjoint_gens: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _delta: dict[MultiIndex, Terms] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _positions: dict[int, dict[MultiIndex, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer: {self.n!r}")
        if len(self.c) != self.n or any(
            len(plane) != self.n or any(len(row) != self.n for row in plane)
            for plane in self.c
        ):
            raise ValueError("structure constant array must be n x n x n")
        terms: list[dict[MultiIndex, Fraction]] = [{} for _ in range(self.n)]
        for a, plane in enumerate(self.c):
            for b in range(a + 1, self.n):
                for k, v in enumerate(plane[b]):
                    if v:
                        terms[k][(a + 1, b + 1)] = exact(v)
        # coadjoint(l, chi_i) = contract(l, delta chi_i): each term
        # v chi_a ^ chi_b gives v chi_b at l = a and -v chi_a at l = b
        coad: list[list[dict[int, Fraction]]] = [
            [{} for _ in range(self.n)] for _ in range(self.n)
        ]
        for i, t in enumerate(terms):
            for (a, b), v in t.items():
                coad[a - 1][i][b] = v
                coad[b - 1][i][a] = -v
        object.__setattr__(self, "delta_gens", tuple(tuple(t.items()) for t in terms))
        object.__setattr__(
            self,
            "coadjoint_gens",
            tuple(tuple(tuple(g.items()) for g in row) for row in coad),
        )

    def bracket_coeff(self, a: int, b: int, k: int) -> Fraction:
        """c[a][b][k] with 1-based indices."""
        return self.c[a - 1][b - 1][k - 1]

    @classmethod
    def abelian(cls, n: int) -> "LieData":
        plane = tuple(tuple([0] * n) for _ in range(n))
        return cls(n, tuple(plane for _ in range(n)))

    @classmethod
    def from_structure_constants(cls, n, entries, completion: str = "full") -> "LieData":
        """Build c from sparse 1-based entries (a, b, k) -> value.

        completion:
          "full"    each entry fixes its whole signed S3-orbit (indices distinct)
          "bracket" each entry fixes c[a][b][k] and c[b][a][k] = -value only
          "none"    entries placed verbatim

        Listing two entries that touch the same slot is an error, even when
        consistent: one representative per orbit.  Values are stored in
        qlinalg's scalar form (`exact`), so an integral constant, and every
        zero, is an int.
        """
        if completion not in ("full", "bracket", "none"):
            raise ValueError(f"unknown completion mode {completion!r}")
        if isinstance(entries, dict):
            items = [(a, b, k, v) for (a, b, k), v in entries.items()]
        else:
            items = [tuple(e) for e in entries]
        arr = [[[0] * n for _ in range(n)] for _ in range(n)]
        taken: set[tuple[int, int, int]] = set()

        def put(a, b, k, v):
            if (a, b, k) in taken:
                raise ValueError(f"duplicate structure constant slot ({a},{b},{k})")
            taken.add((a, b, k))
            arr[a - 1][b - 1][k - 1] = v

        for a, b, k, v in items:
            for x in (a, b, k):
                if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= n:
                    raise ValueError(f"structure constant index out of range: ({a},{b},{k})")
            v = exact(v)
            if completion == "none":
                put(a, b, k, v)
            elif completion == "bracket":
                if a == b:
                    raise ValueError(f"entry ({a},{b},{k}) has equal bracket indices")
                put(a, b, k, v)
                put(b, a, k, -v)
            else:
                if len({a, b, k}) != 3:
                    raise ValueError(
                        f"fully antisymmetric entry needs distinct indices: ({a},{b},{k})"
                    )
                for perm in permutations((0, 1, 2)):
                    idx = (a, b, k)
                    tgt = tuple(idx[p] for p in perm)
                    sign = _perm_sign(perm)
                    put(*tgt, sign * v)
        return cls(n, tuple(tuple(tuple(row) for row in plane) for plane in arr))


def _perm_sign(perm) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def delta_gen(L: LieData, k: int) -> ChiElement:
    """delta chi_k = sum_{a<b} c[a][b][k] chi_a ^ chi_b, built from L's table."""
    return ChiElement(dict(L.delta_gens[k - 1]))


def _insert(J: MultiIndex, x: int) -> tuple[int, MultiIndex] | None:
    """chi_x ^ chi_J = (-1)^s chi_K as (s, K); None when x is in J."""
    s = bisect_left(J, x)
    if s < len(J) and J[s] == x:
        return None
    return s, J[:s] + (x,) + J[s:]


def _derive_delta(L: LieData, I: MultiIndex) -> Terms:
    """delta(chi_I) by the derivation rule, as (multi-index, coefficient) pairs.

    The j-th term (0-based) is (-1)^j chi_{I[:j]} ^ delta chi_{i_j} ^ chi_{I[j+1:]}.
    Each chi_a ^ chi_b of delta chi_{i_j} has even degree, so it moves to the
    front for free: the term is (-1)^j chi_a ^ chi_b ^ chi_rest, signed by
    where b, then a, land in rest.
    """
    out: dict[MultiIndex, Fraction] = {}
    for j, i in enumerate(I):
        rest = I[:j] + I[j + 1:]
        for (a, b), v in L.delta_gens[i - 1]:
            hit = _insert(rest, b)
            if hit is None:
                continue
            sb, with_b = hit
            hit = _insert(with_b, a)
            if hit is None:
                continue
            sa, K = hit
            out[K] = out.get(K, 0) + (-v if (j + sa + sb) % 2 else v)
    return tuple((K, v) for K, v in out.items() if v)


def delta_terms(L: LieData, I: MultiIndex) -> Terms:
    """delta(chi_I) as (multi-index, coefficient) pairs; built once per L and I."""
    terms = L._delta.get(I)
    if terms is None:
        terms = L._delta[I] = _derive_delta(L, I)
    return terms


def _check_direction(L: LieData, ell) -> None:
    if not isinstance(ell, int) or isinstance(ell, bool) or not 1 <= ell <= L.n:
        raise ValueError(f"direction index out of range: {ell!r}")


def _coadjoint_terms(L: LieData, ell: int, I: MultiIndex) -> Terms:
    """coadjoint(ell, chi_I) as the even derivation with L's generator values.

    The j-th term replaces chi_{i_j} by chi_k in place; moving chi_k to the
    front past j factors and then into rest gives the sign.
    """
    gens = L.coadjoint_gens[ell - 1]
    out: dict[MultiIndex, Fraction] = {}
    for j, i in enumerate(I):
        rest = I[:j] + I[j + 1:]
        for k, w in gens[i - 1]:
            hit = _insert(rest, k)
            if hit is None:
                continue
            sk, K = hit
            out[K] = out.get(K, 0) + (-w if (j + sk) % 2 else w)
    return tuple((K, v) for K, v in out.items() if v)


def _apply_terms(a: ChiElement, terms_of) -> ChiElement:
    """The linear map sending each chi_I to terms_of(I), applied to a."""
    out: dict[MultiIndex, Fraction] = {}
    for I, v in a.coeffs.items():
        for K, w in terms_of(I):
            out[K] = out.get(K, _ZERO) + v * w
    return ChiElement(out)


def ce_delta(L: LieData, a: ChiElement) -> ChiElement:
    """The differential, extended over products as a graded derivation."""
    return _apply_terms(a, lambda I: delta_terms(L, I))


def coadjoint(L: LieData, ell: int, a: ChiElement) -> ChiElement:
    """Infinitesimal action of the ell-th direction: contract o delta + delta o contract.

    A degree-zero (ungraded) derivation that commutes with ce_delta; on
    generators coadjoint(l, chi_i) = sum_k c[l][k][i] chi_k.  Evaluated as
    that derivation from L's generator table, not through the homotopy.
    """
    _check_direction(L, ell)
    return _apply_terms(a, lambda I: _coadjoint_terms(L, ell, I))


def chi_to_vector(a: ChiElement, n: int, q: int) -> tuple[Fraction, ...]:
    """Coordinates of the degree-q component in the canonical basis of Lambda^q."""
    pos = {I: i for i, I in enumerate(multi_indices(n, q))}
    v = [_ZERO] * len(pos)
    for I, val in a.coeffs.items():
        if len(I) == q:
            if I not in pos:
                raise ValueError(f"multi-index {I} exceeds n={n}")
            v[pos[I]] = val
    return tuple(v)


def _positions(L: LieData, q: int) -> dict[MultiIndex, int]:
    """Multi-index -> its position in the basis of Lambda^q, built once per L and q."""
    pos = L._positions.get(q)
    if pos is None:
        pos = L._positions[q] = {I: i for i, I in enumerate(multi_indices(L.n, q))}
    return pos


def _columns(terms: list[Terms], pos: dict[MultiIndex, int]) -> SparseColumns:
    """Columns whose j-th has the terms terms[j], each row placed by pos, in increasing order."""
    return tuple(tuple(sorted([(pos[K], v) for K, v in col])) if col else () for col in terms)


def delta_columns(L: LieData, q: int) -> SparseColumns:
    """The differential Lambda^q -> Lambda^{q+1}, column by column, from the delta table."""
    return _columns([delta_terms(L, I) for I in multi_indices(L.n, q)], _positions(L, q + 1))


def delta_matrix(L: LieData, q: int) -> Matrix:
    """Matrix of the differential Lambda^q -> Lambda^{q+1}: delta_columns made dense."""
    return Matrix.from_columns([dict(col) for col in delta_columns(L, q)], comb(L.n, q + 1))


def coadjoint_columns(L: LieData, ell: int, q: int) -> SparseColumns:
    """The ell-th infinitesimal action on Lambda^q, column by column."""
    _check_direction(L, ell)
    terms = [_coadjoint_terms(L, ell, I) for I in multi_indices(L.n, q)]
    return _columns(terms, _positions(L, q))


def coadjoint_matrix(L: LieData, ell: int, q: int) -> Matrix:
    """Matrix of the ell-th infinitesimal action on Lambda^q: coadjoint_columns made dense."""
    return Matrix.from_columns([dict(col) for col in coadjoint_columns(L, ell, q)], comb(L.n, q))


def lie_cohomology(L: LieData) -> Iterator[Quotient]:
    """ker(delta) / im(delta) per degree q = 0 .. n, lazily, as Quotients.

    graded_cohomology over delta_columns: each degree's quotient is built
    when it is asked for, so a consumer that stops early builds no more.
    Its space is the cocycles in Lambda^q coordinates, its reps represent a
    basis of H^q, and `class_of` reads the class of a cocycle.  The data
    must pass validate_lie; on invalid data the coboundaries need not sit
    inside the cocycles and this raises ValueError.
    """
    return graded_cohomology(delta_columns(L, q) for q in range(L.n + 1))


def invariant_subcomplex(L: LieData) -> tuple[Subspace, ...]:
    """Per degree q, the joint kernel of all infinitesimal actions on Lambda^q.

    It is one `sparse_kernel` of the rows of all the coadjoint actions
    stacked, gathered from their columns by `column_rows`.  A degree whose
    coadjoint columns are all empty (degree 0 always, every degree of an
    abelian algebra) is all of Lambda^q, with no elimination.
    When coadjoint is zero on every generator, which the generator table
    tells in O(n^2), it is zero in every degree and no column is built.
    """
    if not any(any(row) for row in L.coadjoint_gens):
        return tuple(Subspace.full(comb(L.n, q)) for q in range(L.n + 1))
    out = []
    for q in range(L.n + 1):
        size = comb(L.n, q)
        # row i of the ell-th action is row ell * size + i of the stack (ell from 0)
        actions = zip(*(coadjoint_columns(L, ell, q) for ell in range(1, L.n + 1)))
        stacked = [[(ell * size + i, v) for ell, col in enumerate(cols) for i, v in col]
                   for cols in actions]
        out.append(Subspace.from_echelon(size, sparse_kernel(column_rows(stacked), size)))
    return tuple(out)


def first_delta_squared_failure(L: LieData) -> MultiIndex | None:
    """The first multi-index in basis order with delta(delta chi_I) != 0, or None."""
    for I in all_multi_indices(L.n):
        acc: dict[MultiIndex, Fraction] = {}
        for J, v in delta_terms(L, I):
            for K, w in delta_terms(L, J):
                acc[K] = acc.get(K, 0) + v * w
        if any(acc.values()):
            return I
    return None


def _nonzero_constants(L: LieData) -> list[tuple[int, int, int, Fraction]]:
    """(a, b, k, c[a][b][k]) with 1-based indices for every nonzero constant."""
    return [
        (x + 1, y + 1, m + 1, v)
        for x, plane in enumerate(L.c)
        for y, row in enumerate(plane)
        for m, v in enumerate(row)
        if v
    ]


def _first_antisymmetry_failure(L: LieData, nonzero, swap) -> tuple[int, int, int] | None:
    """The lexicographically first (a, b, k) with c at it != -c at swap(a, b, k).

    swap is an index involution, so the test holds wherever c vanishes at
    both triples: only the nonzero constants and their swapped positions can
    fail.
    """
    c = L.bracket_coeff
    candidates = {t for a, b, k, _ in nonzero for t in ((a, b, k), swap(a, b, k))}
    return min((t for t in candidates if c(*t) != -c(*swap(*t))), default=None)


def _first_jacobi_failure(nonzero) -> tuple | None:
    """(a, b, e, k, s) for the lexicographically first nonzero cyclic sum s.

    The cyclic sum at (a, b, e, k) is
        sum_m c[a][b][m] c[m][e][k] + c[b][e][m] c[m][a][k] + c[e][a][m] c[m][b][k];
    each product pairs a nonzero c[x][y][m] with a nonzero c[m][z][k], so
    only products of nonzero entries are formed; nonzero is
    _nonzero_constants of the algebra.
    """
    by_first: dict[int, list] = {}
    for x, y, m, v in nonzero:
        by_first.setdefault(x, []).append((y, m, v))
    sums: dict[tuple[int, int, int, int], Fraction] = {}
    for x, y, m, v in nonzero:
        for z, k, w in by_first.get(m, ()):
            # c[x][y][m] c[m][z][k] is the first, second and third term at
            # (a,b,e) = (x,y,z), (z,x,y) and (y,z,x) respectively
            vw = v * w
            for key in ((x, y, z, k), (z, x, y, k), (y, z, x, k)):
                sums[key] = sums.get(key, 0) + vw
    bad = min((key for key, s in sums.items() if s), default=None)
    return None if bad is None else bad + (sums[bad],)


def validate_lie(L: LieData) -> ValidationReport:
    """Check bracket antisymmetry, full antisymmetry, Jacobi, and delta^2 = 0."""
    nonzero = _nonzero_constants(L)
    # the same sign test at two index swaps: (a,b,k) -> (b,a,k) and -> (a,k,b)
    antisymmetries = (
        ("bracket antisymmetry", lambda a, b, k: (b, a, k),
         "c[{1}][{0}][{2}] != -c[{0}][{1}][{2}]"),
        ("full antisymmetry", lambda a, b, k: (a, k, b),
         "c[{0}][{2}][{1}] != -c[{0}][{1}][{2}] (structure constants are not ad-invariant)"),
    )
    checks = []
    for name, swap, detail in antisymmetries:
        bad = _first_antisymmetry_failure(L, nonzero, swap)
        checks.append(CheckResult(name, bad is None, "" if bad is None else detail.format(*bad)))

    jac = _first_jacobi_failure(nonzero)
    checks.append(
        CheckResult(
            "jacobi identity",
            jac is None,
            ""
            if jac is None
            else "cyclic sum is {4} at (a,b,e,k)=({0},{1},{2},{3})".format(*jac),
        )
    )

    bad_idx = first_delta_squared_failure(L)
    checks.append(
        CheckResult(
            "delta squared",
            bad_idx is None,
            "" if bad_idx is None else f"delta^2(chi{list(bad_idx)}) != 0",
        )
    )

    return ValidationReport("lie data", tuple(checks))
