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
Each LieData stores only its nonzero constants, as sorted ((a, b, k), value)
pairs, and carries sparse tables outside equality: delta chi_k and
coadjoint(l, chi_i) on generators, built at construction (the latter is
contract(l, delta chi_i), the homotopy on a generator), and delta(chi_I) for
each multi-index I, built once on first use by the derivation rule.  Since a
graded commutator of derivations is a derivation, coadjoint is evaluated as
the even derivation with those generator values, each term signed by the
position where its new generator is inserted.

delta reaches the linear algebra by its columns on each Lambda^q
(delta_columns), read off the table as plain (multi-index, coefficient)
terms, each degree once per algebra and kept on it; no element of the
exterior algebra is built.  lie_cohomology is qlinalg.graded_cohomology of
delta_columns, one Quotient per degree, built as it is asked for; the
report does not call it.

delta is the odd derivation with the generator values delta chi_k, whatever
the constants, so delta^2 = 1/2 [delta, delta] is an even derivation: it is
zero as soon as it is zero on every chi_k, and its first failure in basis
order, if any, is a generator.  first_delta_squared_failure scans the n
generators only.

The invariant subcomplex is found as the harmonic forms, ker delta_q meet
ker delta_(q-1)^T in the orthonormal basis chi_I (Chevalley-Eilenberg 1948,
Koszul 1950), and coadjoint is applied only to certify them.  Both sides
are derivations equal on generators, so delta = 1/2 sum_l chi_l ^
coadjoint(l, -).  With constants antisymmetric under both index swaps of
validate_lie (ad-invariant), each coadjoint(l, -) is skew, so delta^T =
-1/2 sum_l coadjoint(l, contract(l, -)); as coadjoint(l, -) commutes with
contract(l, -), every invariant form is harmonic.  The certificate applies
every coadjoint(l, -) to every harmonic basis row and checks the converse;
on other data the first half can fail, and invariant_subcomplex refuses
it.  The element algebra of the formulas above (wedge, contract, delta by
wedge products and coadjoint by the homotopy) lives in tests/oracles.py,
and the tests check every table entry by entry against it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations
from math import comb

from .qlinalg import (
    Quotient,
    SparseColumns,
    Subspace,
    column_rows,
    exact,
    graded_cohomology,
    sparse_kernel,
)
from .reports import CertificateError, CheckResult, ReadOnly, ValidationReport

MultiIndex = tuple[int, ...]


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


Terms = tuple[tuple[MultiIndex, Fraction], ...]
Slot = tuple[int, int, int]


def _is_index(x, n: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= n


class LieData(ReadOnly):
    """An n-dimensional metric Lie algebra by its nonzero structure constants.

    c is the sorted tuple of ((a, b, k), c[a][b][k]) over the nonzero
    constants, indices 1-based, each value in qlinalg's scalar form
    (`exact`: an int where it is integral).  The constructor takes the
    entries in any order, drops explicit zeros and refuses an index that is
    not an int in 1..n and a slot given twice, so equal algebras compare and
    hash alike.

    Derived tables, taking no part in equality: the constant at each slot,
    read by bracket_coeff; delta_gens[k - 1] = delta chi_k as ((a, b),
    coefficient) pairs and coadjoint_gens[(l, i)] = coadjoint(l, chi_i) as
    (k, coefficient) pairs over the nonzero (l, i) only, both at
    construction; delta(chi_I) per multi-index I, filled by delta_terms on
    first use; the position of each multi-index in its degree's basis,
    per degree; delta_columns per degree, built once by delta_columns and
    shared by the invariants and the realization check; and the first
    failure of delta^2 = 0, derived once and kept as the one item of
    _delta_squared.  Equality, hash and repr read n and c.
    """

    def __init__(self, n: int, c: tuple[tuple[Slot, Fraction], ...]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n must be a positive integer: {n!r}")
        coeffs: dict[Slot, Fraction] = {}
        for (a, b, k), v in c:
            if not all(_is_index(x, n) for x in (a, b, k)):
                raise ValueError(f"structure constant index out of range: ({a},{b},{k})")
            if (a, b, k) in coeffs:
                raise ValueError(f"duplicate structure constant slot ({a},{b},{k})")
            coeffs[(a, b, k)] = exact(v)
        c = tuple(sorted((slot, v) for slot, v in coeffs.items() if v))
        terms: list[dict[MultiIndex, Fraction]] = [{} for _ in range(n)]
        for (a, b, k), v in c:
            if a < b:
                terms[k - 1][(a, b)] = v
        # coadjoint(l, chi_i) = contract(l, delta chi_i): each term
        # v chi_a ^ chi_b gives v chi_b at l = a and -v chi_a at l = b
        coad: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i, t in enumerate(terms, 1):
            for (a, b), v in t.items():
                coad.setdefault((a, i), {})[b] = v
                coad.setdefault((b, i), {})[a] = -v
        vars(self).update(
            n=n,
            c=c,
            _coeffs=dict(c),
            delta_gens=tuple(tuple(t.items()) for t in terms),
            coadjoint_gens={li: tuple(g.items()) for li, g in coad.items()},
            _delta={},
            _positions={},
            _columns={},
            _delta_squared=[],
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.c) == (other.n, other.c)

    def __hash__(self):
        return hash((self.n, self.c))

    def __repr__(self):
        return f"{type(self).__qualname__}(n={self.n!r}, c={self.c!r})"

    def bracket_coeff(self, a: int, b: int, k: int) -> Fraction:
        """c[a][b][k] with 1-based indices; 0 where no constant is stored."""
        return self._coeffs.get((a, b, k), 0)

    @classmethod
    def abelian(cls, n: int) -> "LieData":
        return cls(n, ())

    @classmethod
    def from_structure_constants(cls, n, entries, completion: str = "full") -> "LieData":
        """Build the algebra from 1-based entries (a, b, k) -> value.

        completion:
          "full"    each entry fixes its whole signed S3-orbit (indices distinct)
          "bracket" each entry fixes c[a][b][k] and c[b][a][k] = -value only

        Listing two entries that touch the same slot is an error, even when
        consistent: one representative per orbit.  The constructor,
        LieData(n, c), places constants verbatim.
        """
        if completion not in ("full", "bracket"):
            raise ValueError(f"unknown completion mode {completion!r}")
        if isinstance(entries, dict):
            entries = [(a, b, k, v) for (a, b, k), v in entries.items()]
        c = []
        for a, b, k, v in entries:
            v = exact(v)
            if completion == "bracket":
                if a == b:
                    raise ValueError(f"entry ({a},{b},{k}) has equal bracket indices")
                c += [((a, b, k), v), ((b, a, k), -v)]
            else:
                if a == b or b == k or a == k:
                    raise ValueError(
                        f"fully antisymmetric entry needs distinct indices: ({a},{b},{k})"
                    )
                # even permutations of (a, b, k) keep the sign, odd ones flip it
                c += [((a, b, k), v), ((b, k, a), v), ((k, a, b), v),
                      ((b, a, k), -v), ((a, k, b), -v), ((k, b, a), -v)]
        return cls(n, c)


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
        gen = L.delta_gens[i - 1]
        if not gen:
            continue
        rest = I[:j] + I[j + 1:]
        for (a, b), v in gen:
            hit = _insert(rest, b)
            if hit is None:
                continue
            sb, with_b = hit
            hit = _insert(with_b, a)
            if hit is None:
                continue
            sa, K = hit
            term = -v if (j + sa + sb) % 2 else v
            y = out.get(K)
            out[K] = term if y is None else y + term
    return tuple((K, v) for K, v in out.items() if v)


def delta_terms(L: LieData, I: MultiIndex) -> Terms:
    """delta(chi_I) as (multi-index, coefficient) pairs; built once per L and I."""
    terms = L._delta.get(I)
    if terms is None:
        terms = L._delta[I] = _derive_delta(L, I)
    return terms


def _coadjoint_terms(L: LieData, ell: int, I: MultiIndex) -> Terms:
    """coadjoint(ell, chi_I) as the even derivation with L's generator values.

    The j-th term replaces chi_{i_j} by chi_k in place; moving chi_k to the
    front past j factors and then into rest gives the sign.
    """
    gens = L.coadjoint_gens
    out: dict[MultiIndex, Fraction] = {}
    for j, i in enumerate(I):
        terms = gens.get((ell, i))
        if not terms:
            continue
        rest = I[:j] + I[j + 1:]
        for k, w in terms:
            hit = _insert(rest, k)
            if hit is None:
                continue
            sk, K = hit
            term = -w if (j + sk) % 2 else w
            y = out.get(K)
            out[K] = term if y is None else y + term
    return tuple((K, v) for K, v in out.items() if v)


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
    """The differential Lambda^q -> Lambda^{q+1}, column by column, from the delta table.

    Built once per L and q and kept on L.
    """
    columns = L._columns.get(q)
    if columns is None:
        columns = L._columns[q] = _columns([delta_terms(L, I) for I in multi_indices(L.n, q)],
                                           _positions(L, q + 1))
    return columns


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

    When coadjoint is zero on every generator, which the generator table
    tells by being empty, every form is invariant and no column is built.
    Otherwise constants that fail either antisymmetry of validate_lie raise
    ValueError, and the invariants are the harmonic forms: per degree, one
    `sparse_kernel` of the rows of delta_q and of delta_(q-1)^T, the nonzero
    columns of delta_(q-1), each delta_q built once.  Invariant forms are
    harmonic (the module docstring); the converse is certified by applying
    every coadjoint(l, -) to every kernel row, on its support only, and a
    nonzero image raises CertificateError naming the degree and l.  So the
    result is the joint kernel, in its reduced echelon form.
    """
    if not L.coadjoint_gens:
        return tuple(Subspace.full(comb(L.n, q)) for q in range(L.n + 1))
    for name, swap, detail in _ANTISYMMETRIES:
        bad = _first_antisymmetry_failure(L, swap)
        if bad is not None:
            raise ValueError(f"no invariant forms without {name}: " + detail.format(*bad))
    out = []
    below: SparseColumns = ()
    for q in range(L.n + 1):
        idx = multi_indices(L.n, q)
        columns = delta_columns(L, q)
        kernel = sparse_kernel(column_rows(columns) + [col for col in below if col], len(idx))
        for free, tail in kernel.items():
            row = [(idx[free], 1)] + [(idx[j], v) for j, v in tail.items()]
            for ell in range(1, L.n + 1):
                image: dict[MultiIndex, Fraction] = {}
                for I, x in row:
                    for K, w in _coadjoint_terms(L, ell, I):
                        image[K] = image.get(K, 0) + x * w
                if any(image.values()):
                    raise CertificateError(
                        f"coadjoint({ell}) of a harmonic form of degree {q} is nonzero")
        out.append(Subspace.from_echelon(len(idx), kernel))
        below = columns
    return tuple(out)


def first_delta_squared_failure(L: LieData) -> MultiIndex | None:
    """The first multi-index in basis order with delta(delta chi_I) != 0, or None.

    delta^2 is an even derivation (the module docstring), so it vanishes
    iff it vanishes on chi_1 .. chi_n, and chi_() = 1 never fails: the
    first failure is the first failing generator.  Derived once per algebra
    and kept on it, so validate_lie and validate_model share one scan of
    the n generators.
    """
    if not L._delta_squared:
        L._delta_squared.append(_delta_squared_scan(L))
    return L._delta_squared[0]


def _delta_squared_scan(L: LieData) -> MultiIndex | None:
    """The first generator chi_k, as the multi-index (k,), with delta(delta chi_k) != 0."""
    for I in multi_indices(L.n, 1):
        acc: dict[MultiIndex, Fraction] = {}
        for J, v in delta_terms(L, I):
            for K, w in delta_terms(L, J):
                y = acc.get(K)
                acc[K] = v * w if y is None else y + v * w
        if any(acc.values()):
            return I
    return None


def _first_antisymmetry_failure(L: LieData, swap) -> tuple[int, int, int] | None:
    """The lexicographically first (a, b, k) with c at it != -c at swap(a, b, k).

    swap is an index involution, so the test holds wherever c vanishes at
    both triples: only the nonzero constants and their swapped positions can
    fail.
    """
    c = L.bracket_coeff
    candidates = {t for slot, _ in L.c for t in (slot, swap(*slot))}
    return min((t for t in candidates if c(*t) != -c(*swap(*t))), default=None)


def _first_jacobi_failure(L: LieData) -> tuple | None:
    """(a, b, e, k, s) for the lexicographically first nonzero cyclic sum s.

    The cyclic sum at (a, b, e, k) is
        sum_m c[a][b][m] c[m][e][k] + c[b][e][m] c[m][a][k] + c[e][a][m] c[m][b][k];
    each product pairs a nonzero c[x][y][m] with a nonzero c[m][z][k], so
    only products of the stored constants are formed.
    """
    by_first: dict[int, list] = {}
    for (x, y, m), v in L.c:
        by_first.setdefault(x, []).append((y, m, v))
    sums: dict[tuple[int, int, int, int], Fraction] = {}
    for (x, y, m), v in L.c:
        for z, k, w in by_first.get(m, ()):
            # c[x][y][m] c[m][z][k] is the first, second and third term at
            # (a,b,e) = (x,y,z), (z,x,y) and (y,z,x) respectively
            vw = v * w
            for key in ((x, y, z, k), (z, x, y, k), (y, z, x, k)):
                acc = sums.get(key)
                sums[key] = vw if acc is None else acc + vw
    bad = min((key for key, s in sums.items() if s), default=None)
    return None if bad is None else bad + (sums[bad],)


# the same sign test at two index swaps: (a,b,k) -> (b,a,k) and -> (a,k,b)
_ANTISYMMETRIES = (
    ("bracket antisymmetry", lambda a, b, k: (b, a, k),
     "c[{1}][{0}][{2}] != -c[{0}][{1}][{2}]"),
    ("full antisymmetry", lambda a, b, k: (a, k, b),
     "c[{0}][{2}][{1}] != -c[{0}][{1}][{2}] (structure constants are not ad-invariant)"),
)


def validate_lie(L: LieData) -> ValidationReport:
    """Check bracket antisymmetry, full antisymmetry, Jacobi, and delta^2 = 0."""
    checks = []
    for name, swap, detail in _ANTISYMMETRIES:
        bad = _first_antisymmetry_failure(L, swap)
        checks.append(CheckResult(name, bad is None, "" if bad is None else detail.format(*bad)))

    jac = _first_jacobi_failure(L)
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
