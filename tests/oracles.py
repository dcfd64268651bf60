"""Reference definitions and algorithms that the engine does not run, kept to test it against.

`seed_rref` is the first row reduction of the package: dense Gauss-Jordan
elimination over `Fraction`, dividing and subtracting whole rows, zeros
included.  `seed_kernel_basis` reads the kernel off it and reduces the
vectors a second time, `seed_span` is the row space and `seed_inverse` the
inverse read off [m | I].  The engine's `Matrix.rref` is a sparse
elimination through an echelon of the nonzero entries instead, and
`sparse_kernel` reduces once, so these are the definitions it is checked against.
`matmul`, `dense_apply`, `contains` and `seed_image` are the dense
products, membership and images the tests need, by their definitions.

`seed_quotient_map` is the first quotient algorithm of the package: the rows
of the numerator independent of the divisor and of the rows taken before
them, each found by dense elimination, then a row reduction of [C | I] to
read the projection off the tracked transform.  Its reductions are dense
`Fraction` rows and `seed_rref`, so it shares no code with the one-pass
sparse echelon of `qlinalg.quotient_map`, `_reduced` and `sparse_kernel`,
and agreement entry by entry is a real check.  `seed_graded_cohomology` is the
cohomology of a complex of dense matrices built from `seed_kernel_basis`,
`seed_span` and `seed_quotient_map` alone, the reference for the engine's
`graded_cohomology` over sparse columns, and `seed_cohomology_dims` its
dimensions from `seed_rref` ranks alone; `dense_d_hor` places the entries of
d_hor into such a matrix one by one, apart from `BasicComplex.d_hor_columns`.
`dense_basis`, `dense_reps` and `dense_proj` read a `Subspace` or a
`Quotient`, which keep only sparse forms, into dense matrices: the basis rows
off the echelon, the representatives off the pivots and the projection off
the classes.

`ChiElement` is an element of the exterior algebra on chi_1, chi_2, ...,
with `wedge` and `contract` (the interior product) on it.  `wedge_ce_delta`
is the Chevalley-Eilenberg differential by wedge products, with
delta chi_k = sum_{a<b} c[a][b][k] chi_a ^ chi_b read off the structure
constants, and `homotopy_coadjoint` the coadjoint action as the Cartan
homotopy contract o delta + delta o contract.  The engine reads both from
sparse per-algebra tables instead; `oracle_delta_matrix` and
`oracle_coadjoint_matrix` build their matrices one `chi_to_vector` column at
a time, and `oracle_lie_dims` counts the Lie algebra cohomology from the
ranks of the former.  `coadjoint_columns` extends the engine's generator
table `LieData.coadjoint_gens` by wedge products, the columns the tests hold
against the homotopy (the engine applies coadjoint only row by row, to
certify its invariants), and `oracle_invariant_subcomplex` is the joint
kernel of the stacked homotopy matrices.

`ModelElement` is a linear combination of monomials g (x) chi_I of the
invariant-forms model, and `d10`, `d01`, `d21` and `total_d` apply the three
parts of the model's differential to it, read off the `d_hor` and Euler
entries and `wedge_ce_delta`, not off the model's tables.
`monomial_basis` lists the basis of one total degree in the documented
order, monomial by monomial, and `degree_basis` adds each monomial's
position; the engine lists no basis and counts every position instead
(`model.prefix_levels`), so `element_to_vector`, `oracle_total_matrix` and
`dense_tensor_vector`, which place coordinates by this listing, check the
count from outside.
`oracle_total_matrix` and `oracle_identity_checks` are the model layer
before it read the operators from per-model monomial tables: every column
and every component of d^2 is a composition of these operators, one element
per monomial per operator.  `oracle_total_cohomology` counts the total
cohomology from the ranks of those matrices, the abutment apart from the
engine's `total_columns` and `cohomology_dims`.  `oracle_total_images` is
total_d of every monomial, zero images included, and `oracle_square_failures` the d^2
certificate composed through that full table, as the model layer ran it
before it kept only the nonzero images.

`annihilator`, `preimage` and `sum_and_intersect` (Zassenhaus) are the
subspace lattice operations that the engine no longer needs; here they
reduce with `seed_rref` and `seed_kernel_basis` only, so the oracles built
on them share no elimination with the engine.

`sparse_columns`, `ambient`, `dmat` and `check_structure` are the dense view
of a `FilteredComplex`, which keeps d only by its sparse columns: `dmat` builds
the dense matrix of d^m, and `check_structure` checks shapes, the decreasing
filtration and d-compatibility entry by entry on it.  `filt` is F^p C^m as a
subspace and `z_space` Z_r, the seed kernel of the block of d that cuts it
out.

`oracle_page` is the page as the package first built it: every spot (p, m)
of the triangle gets a cell, and each cell is the quotient Z_r / (d
Z_{r-1}^{p-r+1} + Z_{r-1}^{p+1}) of full subspaces of C^m, the divisor by
one row reduction of both parts stacked and the quotient by
`seed_quotient_map`, with d_r by the dense route (`dense_dr`).  It shares
no code with the engine, which reads every page off its persistence pairing
and builds no quotient page; `OraclePage` is its record.

`homology_dims` is the page recurrence: the dims of ker d_r / im d_r per
cell, which the next page must match; `recurrence_dims` is the same count
on a page's dims and d_r ranks alone.

`oracle_pairs` is the standard column reduction of persistent homology on
dense `Fraction` columns of each d^m, with no clearing: a column takes
multiples of earlier reduced columns while its lowest nonzero row is
another's, and pairs with that row once it is not.  Each basis vector's
level is counted off the prefix lengths.  `oracle_counts` reads page r off
the pairs, basis vector by basis vector.  Neither calls `qlinalg` or
`specseq`, so they check `specseq.persistence_pairing` and its
`Pairing.summary` from outside.

`dense_dr`, `dense_frames` and `dense_transgression` are the dense route on
the oracle page: every d(rep) and every alpha (x) beta is a dense vector of
C^m, tested with `contains` and projected with the oracle cell's dense
`proj`.
`f_matrix` and `transgression_matrix` make the frames' sparse columns and a
transgression record into dense matrices; `from_columns` and `zero_matrix`
build a dense matrix from sparse columns or of zeros.

`heisenberg_nilmanifold(k)` is the (2k+1)-dimensional Heisenberg
nilmanifold as a circle bundle over the 2k-torus: B = Lambda(a_1..a_k,
b_1..b_k) with one basic generator per monomial, d_hor = 0 and E_1 the
wedge with the Euler class omega = sum a_i b_i, over the abelian algebra of
rank 1.  `santharoubane_betti(k)` is its Betti numbers in closed form
(Santharoubane, 1983): C(2k, j) - C(2k, j-2) for j <= k, and the rest by
Poincare duality.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations, product
from math import comb

from cartanss.liealg import LieData, all_multi_indices, multi_indices
from cartanss.model import BasicComplex, EquivariantModel
from cartanss.qlinalg import Matrix, Quotient, Subspace, column_rows, sparse_kernel
from cartanss.reports import CertificateError, CheckResult
from cartanss.specseq import FilteredComplex


def seed_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns by dense Fraction elimination."""
    rows = [list(r) for r in m.data]
    nr, nc = len(rows), m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        if lead != 1:
            rows[r] = [x / lead for x in rows[r]]
        prow = rows[r]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return Matrix(tuple(tuple(row) for row in rows), nc), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(seed_rref(m)[1])


def seed_span(d: int, rows) -> Subspace:
    """The row space of rows in Q^d, its echelon read off the seed_rref rows."""
    red, pivots = seed_rref(Matrix.of(rows, cols=d))
    return Subspace.from_echelon(d, {
        p: {j: x for j, x in enumerate(row) if x and j != p} for p, row in zip(pivots, red.data)})


def seed_kernel_basis(m: Matrix) -> Subspace:
    """Kernel of m: one vector per free column of seed_rref(m), then reduced again."""
    red, pivots = seed_rref(m)
    pivset = set(pivots)
    rows = []
    for f in range(m.cols):
        if f in pivset:
            continue
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -red.data[i][f]
        rows.append(v)
    return seed_span(m.cols, rows)


def identity_rows(n: int) -> list[list[Q]]:
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def seed_inverse(m: Matrix) -> Matrix:
    """m^-1 from seed_rref([m | I]); ValueError when m is singular."""
    n = m.cols
    joined = [list(row) + unit for row, unit in zip(m.data, identity_rows(m.rows))]
    red, pivots = seed_rref(Matrix.of(joined, cols=n + m.rows))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.of([row[n:] for row in red.data], cols=n)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, entry by entry."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    return Matrix.of([[sum((x * b.data[k][j] for k, x in enumerate(row)), Q(0))
                       for j in range(b.cols)] for row in a.data], cols=b.cols)


def dense_apply(m: Matrix, vec) -> tuple[Q, ...]:
    """m times the column vector vec; only the nonzero entries of vec are visited."""
    if len(vec) != m.cols:
        raise ValueError(f"vector length {len(vec)} != {m.cols} columns")
    nonzero = [(j, x) for j, x in enumerate(vec) if x]
    return tuple(sum((row[j] * x for j, x in nonzero if row[j]), Q(0)) for row in m.data)


def is_zero(m: Matrix) -> bool:
    return not any(map(any, m.data))


def _echelon_rows(echelon: dict, d: int) -> list[list[Q]]:
    """Rows {pivot: tail} as dense Fraction rows of length d: 1 at the pivot, tail after."""
    rows = []
    for pivot, tail in echelon.items():
        row = [Q(0)] * d
        row[pivot] = Q(1)
        for j, a in tail.items():
            row[j] = Q(a)
        rows.append(row)
    return rows


def dense_basis(sub: Subspace) -> Matrix:
    """The RREF basis rows of sub as a dense matrix, read off its echelon."""
    return Matrix.of(_echelon_rows(sub.echelon(), sub.ambient_dim), cols=sub.ambient_dim)


def dense_reps(quot: Quotient) -> Matrix:
    """The representatives of quot, the rows of its space at its pivots, as a dense matrix."""
    ech, d = quot.space.echelon(), quot.space.ambient_dim
    return Matrix.of(_echelon_rows({p: ech[p] for p in quot.pivots}, d), cols=d)


def dense_proj(quot: Quotient) -> Matrix:
    """The projection of quot as a dim x ambient matrix: column pivot holds the
    class of the space's basis row at that pivot, and every other column is zero."""
    d = quot.space.ambient_dim
    rows = [[Q(0)] * d for _ in range(quot.dim)]
    for pivot, cls in quot.classes.items():
        for i, a in cls.items():
            rows[i][pivot] = Q(a)
    return Matrix.of(rows, cols=d)


def contains(sub: Subspace, vec) -> bool:
    """Whether vec lies in sub: vec minus vec[pivot] times each RREF basis row is zero."""
    if len(vec) != sub.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    rest = [Q(x) for x in vec]
    for pivot, row in zip(sub.echelon(), dense_basis(sub).data):
        c = rest[pivot]
        if c:
            rest = [x - c * y for x, y in zip(rest, row)]
    return not any(rest)


def seed_image(m: Matrix, sub: Subspace) -> Subspace:
    """m(sub), spanned by the images of sub's basis rows."""
    return seed_span(m.rows, [dense_apply(m, row) for row in dense_basis(sub).data])


def annihilator(w: Subspace) -> Matrix:
    """Rows spanning the orthogonal complement: x in w iff annihilator(w) @ x = 0."""
    return dense_basis(seed_kernel_basis(dense_basis(w)))


def preimage(m: Matrix, sub: Subspace) -> Subspace:
    """{x : m @ x in sub} as a subspace of the source."""
    if sub.ambient_dim != m.rows:
        raise ValueError("ambient dimension mismatch")
    return seed_kernel_basis(matmul(annihilator(sub), m))


def sum_and_intersect(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """(a + b, a cap b) in one Zassenhaus elimination."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = a.ambient_dim
    zero = [Q(0)] * d
    rows = [list(r) + list(r) for r in dense_basis(a).data]
    rows += [list(r) + zero for r in dense_basis(b).data]
    red, pivots = seed_rref(Matrix.of(rows, cols=2 * d))
    sum_rows, int_rows = [], []
    for i, p in enumerate(pivots):
        if p < d:
            sum_rows.append(red.data[i][:d])
        else:
            int_rows.append(red.data[i][d:])
    return seed_span(d, sum_rows), seed_span(d, int_rows)


def seed_mismatches(m: Matrix) -> list[str]:
    """The engine's reductions of m whose result differs from the seed one.

    Compares Matrix.rref (entries, pivots, and every entry a Fraction)
    with seed_rref, and the sparse_kernel of m's rows with
    seed_kernel_basis.
    """
    bad = []
    red, pivots = m.rref()
    want_red, want_pivots = seed_rref(m)
    if ((red.data, red.cols) != (want_red.data, want_red.cols) or pivots != want_pivots
            or not all(type(x) is Q for row in red.data for x in row)):
        bad.append("rref")
    kernel = sparse_kernel(column_rows(m.sparse_columns()), m.cols)
    if Subspace.from_echelon(m.cols, kernel) != seed_kernel_basis(m):
        bad.append("kernel")
    return bad


def seed_quotient_map(v: Subspace, w: Subspace) -> tuple[Matrix, Matrix]:
    """(reps, proj) of v/w, computed the slow way; ValueError unless w <= v.

    The representatives are the rows of v, in order, that are independent of
    w's rows and the representatives before them, each tested by dense
    elimination through the rows kept so far; proj is read off the
    seed_rref of [C | I], C those rows."""
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = v.ambient_dim
    w_rows = [list(r) for r in dense_basis(w).data]
    if seed_span(d, [list(r) for r in dense_basis(v).data] + w_rows).dim != v.dim:
        raise ValueError("quotient undefined: denominator is not contained in numerator")
    kept: list[tuple[int, list]] = []  # (pivot, row 1 at its pivot), zero at earlier pivots

    def independent(row) -> bool:
        for pivot, base in kept:
            c = row[pivot]
            if c:
                row = [a - c * b for a, b in zip(row, base)]
        pivot = next((j for j, a in enumerate(row) if a), None)
        if pivot is not None:
            kept.append((pivot, [a / row[pivot] for a in row]))
        return pivot is not None

    for row in w_rows:
        independent(row)
    reps = [list(cand) for cand in dense_basis(v).data if independent(list(cand))]
    rows = w_rows + reps
    k = len(reps)
    if k == 0:
        return Matrix((), d), Matrix((), d)
    nb = len(rows)
    joined = [row + unit for row, unit in zip(rows, identity_rows(nb))]
    red, pivots = seed_rref(Matrix.of(joined, cols=d + nb))
    if len(pivots) != nb or any(p >= d for p in pivots):
        raise AssertionError("combined basis was not independent")
    proj_rows = []
    for i in range(nb - k, nb):
        rowv = [Q(0)] * d
        for l in range(nb):
            val = red.data[l][d + i]
            if val:
                rowv[pivots[l]] = val
        proj_rows.append(rowv)
    return Matrix.of(reps, cols=d), Matrix.of(proj_rows, cols=d)


def seed_graded_cohomology(maps) -> list[tuple[Subspace, Subspace, tuple[Matrix, Matrix]]]:
    """Per degree q, (ker d_q, im d_(q-1), (reps, proj) of ker / im) for dense d_0, d_1, ...

    Built from seed_kernel_basis, seed_span and seed_quotient_map only; a
    zero map goes through them like any other.
    """
    out = []
    below: list = []  # the columns of d_(q-1)
    for m in maps:
        ker, img = seed_kernel_basis(m), seed_span(m.cols, below)
        out.append((ker, img, seed_quotient_map(ker, img)))
        below = [tuple(row[j] for row in m.data) for j in range(m.cols)]
    return out


def seed_cohomology_dims(maps) -> tuple[int, ...]:
    """dim C^k - rank d_k - rank d_(k-1) per degree of dense d_0, d_1, ..., by seed_rref ranks."""
    dims = []
    below = 0  # rank d_(k-1)
    for m in maps:
        rk = rank(m)
        dims.append(m.cols - rk - below)
        below = rk
    return tuple(dims)


def divisor_vectors(sub: Subspace) -> list[dict]:
    """The basis rows of sub as sparse vectors, the divisor form quotient_map takes."""
    return [sub.sparse_row(pivot) for pivot in sub.echelon()]


def dense_d_hor(basic: BasicComplex, p: int) -> Matrix:
    """d_hor from degree p to p+1 as a dense matrix, placed entry by entry from d_hor_entries."""
    src, tgt = basic.gens_of_degree(p), basic.gens_of_degree(p + 1)
    data = [[Q(0)] * len(src) for _ in tgt]
    for g, h, c in basic.d_hor_entries:
        if g in src and h in tgt:
            data[tgt.index(h)][src.index(g)] = c
    return Matrix.of(data, cols=len(src))


def _q(value) -> Q:
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an exact rational, got {value!r}")
    return Q(value)


def _multi_index(idx) -> tuple[int, ...]:
    I = tuple(idx)
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in I):
        raise ValueError(f"multi-index entries must be positive integers: {I!r}")
    if any(a >= b for a, b in zip(I, I[1:])):
        raise ValueError(f"multi-index must be strictly increasing: {I!r}")
    return I


class _Combination:
    """A finite linear combination of basis keys over Fraction, zero terms left out."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for key, value in dict(coeffs or {}).items():
            v = _q(value)
            if v:
                clean[self._key(key)] = v
        self.coeffs = clean

    @staticmethod
    def _key(key):
        return key

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, 0) + v
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({key: -v for key, v in self.coeffs.items()})

    def __rmul__(self, scalar):
        c = _q(scalar)
        return type(self)({key: c * v for key, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.coeffs!r})"


class ChiElement(_Combination):
    """An element of the exterior algebra on chi_1, chi_2, ..., by multi-index."""

    __slots__ = ()
    _key = staticmethod(_multi_index)

    @classmethod
    def basis(cls, idx) -> "ChiElement":
        return cls({tuple(idx): 1})

    @classmethod
    def unit(cls) -> "ChiElement":
        return cls.basis(())

    @classmethod
    def chi(cls, i: int) -> "ChiElement":
        return cls.basis((i,))


def wedge(a: ChiElement, b: ChiElement) -> ChiElement:
    """a ^ b: chi_I ^ chi_J is zero when I and J meet, else chi_(I u J) signed by
    the parity of the pairs (x in I, y in J) with x > y, the transpositions
    that sort I + J."""
    out: dict = {}
    for I, v in a.coeffs.items():
        for J, w in b.coeffs.items():
            if set(I) & set(J):
                continue
            sign = (-1) ** sum(x > y for x in I for y in J)
            K = tuple(sorted(I + J))
            out[K] = out.get(K, 0) + sign * v * w
    return ChiElement(out)


def contract(i: int, a: ChiElement) -> ChiElement:
    """Interior product with the i-th basis direction (degree -1 derivation):
    chi_I goes to (-1)^s chi_(I minus i) where i sits at position s of I."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise ValueError(f"generator index must be a positive integer: {i!r}")
    out = {}
    for I, v in a.coeffs.items():
        if i in I:
            s = I.index(i)
            out[I[:s] + I[s + 1:]] = (-1) ** s * v
    return ChiElement(out)


@lru_cache(maxsize=None)
def delta_gen(L: LieData, k: int) -> ChiElement:
    """delta chi_k = sum_{a<b} c[a][b][k] chi_a ^ chi_b, read off the structure constants.

    Kept per (L, k): an algebra compares by its constants, and no caller
    changes the element it gets."""
    return ChiElement({(a, b): L.bracket_coeff(a, b, k)
                       for a in range(1, L.n + 1) for b in range(a + 1, L.n + 1)})


def wedge_ce_delta(L: LieData, a: ChiElement) -> ChiElement:
    """delta(a), each term chi_{I[:j]} ^ delta chi_{i_j} ^ chi_{I[j+1:]} by two wedges."""
    out: dict = {}
    for I, v in a.coeffs.items():
        for pos, gen in enumerate(I):
            dg = delta_gen(L, gen)
            if dg.is_zero:
                continue
            sign = -1 if pos % 2 else 1
            term = wedge(ChiElement.basis(I[:pos]), wedge(dg, ChiElement.basis(I[pos + 1:])))
            for K, w in term.coeffs.items():
                out[K] = out.get(K, 0) + sign * v * w
    return ChiElement(out)


def homotopy_coadjoint(L: LieData, ell: int, a: ChiElement) -> ChiElement:
    """coadjoint(ell, a) by its definition, contract(ell, delta a) + delta(contract(ell, a))."""
    return contract(ell, wedge_ce_delta(L, a)) + wedge_ce_delta(L, contract(ell, a))


def chi_to_vector(a: ChiElement, n: int, q: int) -> tuple[Q, ...]:
    """Coordinates of the degree-q component in the basis multi_indices(n, q)."""
    return tuple(a.coeffs.get(I, Q(0)) for I in multi_indices(n, q))


def chi_from_vector(vec, n: int, q: int) -> ChiElement:
    """The element of Lambda^q with coordinates vec in the basis multi_indices(n, q)."""
    idxs = multi_indices(n, q)
    if len(vec) != len(idxs):
        raise ValueError("coordinate length mismatch")
    return ChiElement({I: v for I, v in zip(idxs, vec)})


def operator_matrix(op, n: int, q_src: int, q_tgt: int) -> Matrix:
    """Matrix of op from Lambda^q_src to Lambda^q_tgt, one chi_to_vector per column."""
    src = multi_indices(n, q_src)
    tgt = multi_indices(n, q_tgt)
    cols = [chi_to_vector(op(ChiElement.basis(I)), n, q_tgt) for I in src]
    data = [[cols[j][i] for j in range(len(src))] for i in range(len(tgt))]
    return Matrix.of(data, cols=len(src))


def oracle_delta_matrix(L: LieData, q: int) -> Matrix:
    return operator_matrix(lambda x: wedge_ce_delta(L, x), L.n, q, q + 1)


def oracle_lie_dims(L: LieData) -> tuple[int, ...]:
    """dim H^q of the Lie algebra, q = 0 .. n, from the ranks of the wedge-product delta."""
    return seed_cohomology_dims(oracle_delta_matrix(L, q) for q in range(L.n + 1))


def oracle_coadjoint_matrix(L: LieData, ell: int, q: int) -> Matrix:
    return operator_matrix(lambda x: homotopy_coadjoint(L, ell, x), L.n, q, q)


def coadjoint_columns(L: LieData, ell: int, q: int) -> tuple:
    """The ell-th infinitesimal action on Lambda^q from the engine's generator
    table, column by column, as `sparse_columns` gives them.

    Each column is the even derivation with the values L.coadjoint_gens[(ell,
    i)] on generators, applied to chi_I by wedge products: the sum over j of
    chi_{I[:j]} ^ coadjoint(ell, chi_{i_j}) ^ chi_{I[j+1:]}.
    """
    if not isinstance(ell, int) or isinstance(ell, bool) or not 1 <= ell <= L.n:
        raise ValueError(f"direction index out of range: {ell!r}")

    def act(a: ChiElement) -> ChiElement:
        (I,) = a.coeffs
        out = ChiElement.zero()
        for j, i in enumerate(I):
            image = ChiElement({(k,): w for k, w in L.coadjoint_gens.get((ell, i), ())})
            out = out + wedge(ChiElement.basis(I[:j]), wedge(image, ChiElement.basis(I[j + 1:])))
        return out

    return sparse_columns(operator_matrix(act, L.n, q, q))


def oracle_invariant_subcomplex(L: LieData) -> tuple[Subspace, ...]:
    """Per degree, the kernel of the stacked homotopy matrices, always by elimination."""
    out = []
    for q in range(L.n + 1):
        rows = [row for ell in range(1, L.n + 1) for row in oracle_coadjoint_matrix(L, ell, q).data]
        out.append(seed_kernel_basis(Matrix.of(rows, cols=len(multi_indices(L.n, q)))))
    return tuple(out)


def direct_sum(*algebras: LieData) -> LieData:
    """The direct sum, each summand's basis following the previous ones."""
    c = []
    offset = 0
    for L in algebras:
        c += [((a + offset, b + offset, k + offset), v) for (a, b, k), v in L.c]
        offset += L.n
    return LieData(offset, c)


def scaled(L: LieData, t) -> LieData:
    """The bracket t [-, -]: still a Lie algebra, and ad-invariant when L is."""
    t = Q(t)
    return LieData(L.n, [(slot, t * v) for slot, v in L.c])


def rotated(L: LieData, i: int, j: int, cos: Q, sin: Q) -> LieData:
    """L in the basis turned by the rotation (cos, sin) of the plane of u_i, u_j.

    A rotation is orthogonal, so the constants stay fully antisymmetric and
    the algebra stays metric; its invariants are no longer coordinate rows.
    """
    n = L.n
    rot = [[Q(int(a == b)) for b in range(n)] for a in range(n)]
    rot[i][i], rot[i][j], rot[j][i], rot[j][j] = cos, -sin, sin, cos
    c = {}
    for (x, y, z), v in L.c:
        for slot in product(range(n), repeat=3):
            a, b, k = slot
            c[slot] = c.get(slot, 0) + rot[a][x - 1] * rot[b][y - 1] * rot[k][z - 1] * v
    return LieData(n, [((a + 1, b + 1, k + 1), v) for (a, b, k), v in c.items()])


class ModelElement(_Combination):
    """A linear combination of monomials g (x) chi_I, by (generator index, multi-index)."""

    __slots__ = ()

    @staticmethod
    def _key(key):
        g, idx = key
        if not isinstance(g, int) or isinstance(g, bool) or g < 0:
            raise ValueError(f"generator index must be a non-negative integer: {g!r}")
        return g, _multi_index(idx)

    @classmethod
    def monomial(cls, g: int, idx, coeff=1) -> "ModelElement":
        return cls({(g, tuple(idx)): coeff})


def d10(model: EquivariantModel, x: ModelElement) -> ModelElement:
    """d_hor on the basic factor, identity on the chi factor, no sign."""
    out = ModelElement()
    for (g, I), v in x.coeffs.items():
        for src, dst, c in model.basic.d_hor_entries:
            if src == g:
                out = out + ModelElement({(dst, I): v * c})
    return out


def d01(model: EquivariantModel, x: ModelElement) -> ModelElement:
    """Minus (1 (x) delta) with the Koszul sign: g (x) chi_I -> -(-1)^(deg g) g (x) delta(chi_I)."""
    out = ModelElement()
    for (g, I), v in x.coeffs.items():
        sign = (-1) ** (model.basic.degree_of(g) + 1)
        d_chi = wedge_ce_delta(model.lie, ChiElement.basis(I))
        out = out + ModelElement({(g, J): sign * v * w for J, w in d_chi.coeffs.items()})
    return out


def d21(model: EquivariantModel, x: ModelElement) -> ModelElement:
    """Euler component: sum_j (-1)^(p+j-1) E_{i_j}(g) (x) chi_{I minus i_j}, j from 1."""
    out = ModelElement()
    for (g, I), v in x.coeffs.items():
        p = model.basic.degree_of(g)
        for j, gen in enumerate(I):  # j from 0: the sign is (-1)^(p+j)
            for i, src, dst, c in model.basic.euler_entries:
                if (i, src) == (gen, g):
                    out = out + ModelElement({(dst, I[:j] + I[j + 1:]): (-1) ** (p + j) * v * c})
    return out


def total_d(model: EquivariantModel, x: ModelElement) -> ModelElement:
    return d21(model, x) + d10(model, x) + d01(model, x)


def split_images(model: EquivariantModel) -> dict[str, dict]:
    """The image of every monomial under "d10", "d01" and "d21", by the element
    operators, each table in generator order, then all_multi_indices order."""
    monomials = [(g, I) for g in range(model.basic.num_generators)
                 for I in all_multi_indices(model.lie.n)]
    return {op.__name__: {x: op(model, ModelElement.monomial(*x)).coeffs for x in monomials}
            for op in (d10, d01, d21)}


def oracle_total_images(model: EquivariantModel) -> dict:
    """total_d of every monomial by the element operators, zero images included,
    in generator order, then all_multi_indices order."""
    return {(g, I): total_d(model, ModelElement.monomial(g, I)).coeffs
            for g in range(model.basic.num_generators) for I in all_multi_indices(model.lie.n)}


def monomial_basis(model: EquivariantModel, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The monomials of total degree k, listed in the documented order:
    horizontal degree p from k down to 0, at each the generators of degree p
    in declaration order, each with the degree-(k - p) multi-indices in
    lexicographic order."""
    basic, n = model.basic, model.lie.n
    return tuple((g, I) for p in range(k, -1, -1)
                 for g in range(basic.num_generators) if basic.degree_of(g) == p
                 for I in combinations(range(1, n + 1), k - p))


@lru_cache(maxsize=64)
def degree_basis(model: EquivariantModel, k: int) -> tuple[tuple, dict]:
    """monomial_basis(model, k) and each monomial's position in it."""
    basis = monomial_basis(model, k)
    return basis, {key: i for i, key in enumerate(basis)}


def element_to_vector(model: EquivariantModel, x: ModelElement, k: int) -> tuple[Q, ...]:
    """Coordinates of x in the monomial basis of total degree k; ValueError off that degree."""
    basis, pos = degree_basis(model, k)
    for g, I in x.coeffs:
        if (g, I) not in pos:
            raise ValueError(f"monomial {model.basic.name_of(g)} (x) chi{list(I)} "
                             f"is not in total degree {k}")
    return tuple(x.coeffs.get(key, Q(0)) for key in basis)


def oracle_total_matrix(model: EquivariantModel, k: int) -> Matrix:
    """Matrix of total_d from degree k to k+1, one ModelElement column at a time."""
    src = monomial_basis(model, k)
    tgt_len = len(monomial_basis(model, k + 1))
    cols = [
        element_to_vector(model, total_d(model, ModelElement.monomial(g, I)), k + 1)
        for g, I in src
    ]
    data = [[cols[j][i] for j in range(len(src))] for i in range(tgt_len)]
    return Matrix.of(data, cols=len(src))


def oracle_total_cohomology(model: EquivariantModel) -> tuple[int, ...]:
    """dim H^k of the total complex per degree, from the ranks of oracle_total_matrix."""
    top = model.basic.max_degree + model.lie.n
    return seed_cohomology_dims(oracle_total_matrix(model, k) for k in range(top + 1))


def _element_check(model: EquivariantModel, name: str, op) -> CheckResult:
    basic = model.basic
    for g in range(basic.num_generators):
        p = basic.degree_of(g)
        for I in all_multi_indices(model.lie.n):
            if not op(ModelElement.monomial(g, I)).is_zero:
                return CheckResult(
                    name,
                    False,
                    f"fails on {basic.name_of(g)} (x) chi{list(I)} (bidegree ({p},{len(I)}))",
                )
    return CheckResult(name, True)


def oracle_identity_checks(model: EquivariantModel) -> list[CheckResult]:
    """validate_model's seven d^2 identity checks, in its order, by ModelElement composition."""
    D10 = lambda x: d10(model, x)  # noqa: E731
    D01 = lambda x: d01(model, x)  # noqa: E731
    D21 = lambda x: d21(model, x)  # noqa: E731
    T = lambda x: total_d(model, x)  # noqa: E731
    identities = [
        ("d_hor squared", lambda x: D10(D10(x))),
        ("bidegree (0,2) component", lambda x: D01(D01(x))),
        ("bidegree (1,1) component", lambda x: D10(D01(x)) + D01(D10(x))),
        ("bidegree (2,0) component", lambda x: D10(D10(x)) + D21(D01(x)) + D01(D21(x))),
        ("bidegree (3,-1) component", lambda x: D21(D10(x)) + D10(D21(x))),
        ("bidegree (4,-2) component", lambda x: D21(D21(x))),
        ("total differential squared", lambda x: T(T(x))),
    ]
    return [_element_check(model, name, op) for name, op in identities]


# the bidegree component of total_d^2 that a path x -> y -> z lies in, by
# the change of chi-count from x to z
_COMPONENT_NAMES = {
    2: "bidegree (0,2) component",
    1: "bidegree (1,1) component",
    0: "bidegree (2,0) component",
    -1: "bidegree (3,-1) component",
    -2: "bidegree (4,-2) component",
}


def oracle_square_failures(model: EquivariantModel) -> dict:
    """The first monomial, in oracle_total_images order, on which each identity of d^2 = 0 fails.

    The d^2 certificate as the model layer first ran it: total_d o total_d
    composed on every monomial, through every image of the full table, zero
    ones included.  Keyed as `model._square_failures` is: a component fails
    at x where total_d^2 x is nonzero at a z whose chi-count differs from
    x's by its change, "total differential squared" where any does, and
    "d_hor squared" where the paths that keep the chi-count do not cancel.
    """
    table = oracle_total_images(model)
    first = {}
    for x, image in table.items():
        q = len(x[1])
        acc, hor = {}, {}
        for y, v in image.items():
            for z, w in table[y].items():
                acc[z] = acc.get(z, 0) + v * w
                if len(y[1]) == q == len(z[1]):
                    hor[z] = hor.get(z, 0) + v * w
        failed = {_COMPONENT_NAMES[len(z[1]) - q] for z, a in acc.items() if a}
        if failed:
            failed.add("total differential squared")
        if any(hor.values()):
            failed.add("d_hor squared")
        for name in failed:
            first.setdefault(name, x)
    return first


def sparse_columns(m: Matrix) -> tuple:
    """Per column of m, the (row, value) pairs of its nonzero entries."""
    return tuple(
        tuple((i, row[j]) for i, row in enumerate(m.data) if row[j]) for j in range(m.cols)
    )


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix.of([[0] * cols for _ in range(rows)], cols=cols)


def from_columns(columns, rows: int) -> Matrix:
    """The rows x len(columns) matrix whose j-th column is columns[j], as {row: value}."""
    data = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, a in col.items():
            data[i][j] = a
    return Matrix.of(data, cols=len(columns))


def transgression_matrix(t) -> Matrix:
    """A verify.Transgression as the dense matrix it stands for, read by entry."""
    rows, cols = t.shape
    return Matrix.of([[t.entry(i, j) for j in range(cols)] for i in range(rows)], cols=cols)


def ambient(fc: FilteredComplex, m: int) -> int:
    """dim C^m, zero outside the complex."""
    return fc.dims[m] if 0 <= m < len(fc.dims) else 0


def dmat(fc: FilteredComplex, m: int) -> Matrix:
    """d^m : C^m -> C^(m+1) as a dense matrix, zero outside the complex."""
    rows = ambient(fc, m + 1)
    if not 0 <= m < len(fc.dims):
        return zero_matrix(rows, ambient(fc, m))
    return from_columns([dict(col) for col in fc.d_columns[m]], rows)


def check_structure(fc: FilteredComplex) -> None:
    """Assert shapes, a decreasing filtration, and d-compatibility on the dense d."""
    for m in range(len(fc.dims)):
        if len(fc.d_columns[m]) != fc.dims[m]:
            raise AssertionError(f"d[{m}] column count mismatch")
        target = ambient(fc, m + 1)
        if any(i >= target for col in fc.d_columns[m] for i, _ in col):
            raise AssertionError(f"d[{m}] row count mismatch")
        if any([i for i, _ in col] != sorted({i for i, _ in col}) or not all(a for _, a in col)
               for col in fc.d_columns[m]):
            raise AssertionError(f"d[{m}] columns must list nonzero entries by increasing row")
        d = dmat(fc, m)
        levels = fc.prefix[m]
        if levels[0] != fc.dims[m] or levels[-1] != 0:
            raise AssertionError(f"filtration of C^{m} must run from full to zero")
        for p in range(len(levels) - 1):
            if levels[p] < levels[p + 1]:
                raise AssertionError(f"filtration not decreasing at F^{p + 1} C^{m}")
        for p in range(len(levels)):
            k = levels[p]
            if any(x for row in d.data[fc.cut(p, m + 1):] for x in row[:k]):
                raise AssertionError(f"d does not preserve F^{p} at degree {m}")


def filt(fc: FilteredComplex, p: int, m: int) -> Subspace:
    """F^p C^m as a subspace: the first cut(p, m) coordinate vectors."""
    return Subspace.from_echelon(ambient(fc, m), {i: {} for i in range(fc.cut(p, m))})


def z_space(fc: FilteredComplex, r: int, p: int, m: int, cache: dict) -> Subspace:
    """Z_r at filtration p, total degree m: x is in F^p exactly when it is zero
    past k(p, m), and d x is in F^(p+r) exactly when the rows of d past
    k(p+r, m+1) kill it, so Z_r is the seed kernel of that block of the dense
    d, padded with zeros to C^m.  Kept in cache under the block."""
    block = (m, fc.cut(p, m), fc.cut(p + r, m + 1))
    hit = cache.get(block)
    if hit is None:
        k, row = block[1:]
        rows = [line[:k] for line in dmat(fc, m).data[row:]]
        kernel = seed_kernel_basis(Matrix.of(rows, cols=k))
        hit = cache[block] = Subspace.from_echelon(ambient(fc, m), kernel.echelon())
    return hit


def oracle_divisor(fc: FilteredComplex, r: int, p: int, m: int, cache: dict) -> Subspace:
    """d Z_{r-1}^{p-r+1} + Z_{r-1}^{p+1} in C^m, as the span of both bases."""
    born = z_space(fc, r - 1, p - r + 1, m - 1, cache)
    other = z_space(fc, r - 1, p + 1, m, cache)
    d = dmat(fc, m - 1)
    rows = [y for y in (dense_apply(d, row) for row in dense_basis(born).data) if any(y)]
    if not rows:
        return other
    rows.extend(dense_basis(other).data)
    return seed_span(ambient(fc, m), rows)


@dataclass(frozen=True)
class OracleCell:
    p: int
    q: int
    dim: int
    reps: Matrix
    proj: Matrix
    space: Subspace
    divisor: Subspace


class OraclePage(namedtuple("OraclePage", "r cells dr ranks")):
    """Page r: an OracleCell per spot, d_r as a dense matrix per nonzero cell, and its ranks."""

    __slots__ = ()

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: c.dim for pq, c in self.cells.items() if c.dim}


def oracle_page(fc: FilteredComplex, r: int, cache: dict | None = None) -> OraclePage:
    """Page r with a cell at every spot 0 <= p <= m, each Z_r / divisor in full."""
    cache = {} if cache is None else cache
    cells = {}
    for m in range(len(fc.dims)):
        for p in range(m + 1):
            z = z_space(fc, r, p, m, cache)
            divisor = oracle_divisor(fc, r, p, m, cache)
            try:
                reps, proj = seed_quotient_map(z, divisor)
            except ValueError:
                raise CertificateError(f"divisor escapes Z_{r}", (p, m - p), r) from None
            cells[(p, m - p)] = OracleCell(p, m - p, reps.rows, reps, proj, z, divisor)
    dr = dense_dr(fc, cells, r)
    return OraclePage(r, cells, dr, {pq: rank(m) for pq, m in dr.items()})


def _level(fc: FilteredComplex, m: int, i: int) -> int:
    """The filtration level of basis vector i of C^m: the largest p with i < k(p, m)."""
    return sum(i < k for k in fc.prefix[m][1:])


def oracle_pairs(fc: FilteredComplex) -> list[tuple[int, int, int, int]]:
    """(m, j, low, gap) for each pair: column j of d^m, its lowest row after
    reduction, and the level of that row less the level of the column."""
    pairs = []
    for m, sparse in enumerate(fc.d_columns):
        height = ambient(fc, m + 1)
        owner: dict[int, list[Q]] = {}  # lowest row -> the reduced column that ends there
        for j, entries in enumerate(sparse):
            x = [Q(0)] * height
            for i, a in entries:
                x[i] = Q(a)
            low = max((i for i in range(height) if x[i]), default=None)
            while low is not None and low in owner:
                y = owner[low]
                f = x[low] / y[low]
                x = [a - f * b for a, b in zip(x, y)]
                low = max((i for i in range(height) if x[i]), default=None)
            if low is not None:
                owner[low] = x
                pairs.append((m, j, low, _level(fc, m + 1, low) - _level(fc, m, j)))
    return pairs


def oracle_counts(fc: FilteredComplex, pairs, r: int) -> tuple[dict, dict]:
    """Page r's nonzero dims and nonzero d_r ranks by spot (p, q), from oracle_pairs:
    a basis vector counts at its spot unless its pair's gap is below r, and
    a pair of gap r is one unit of rank at its column's spot."""
    dead = set()
    ranks: dict[tuple[int, int], int] = {}
    for m, j, low, gap in pairs:
        if gap < r:
            dead.update({(m, j), (m + 1, low)})
        elif gap == r:
            p = _level(fc, m, j)
            ranks[(p, m - p)] = ranks.get((p, m - p), 0) + 1
    dims: dict[tuple[int, int], int] = {}
    for m, size in enumerate(fc.dims):
        for i in range(size):
            if (m, i) not in dead:
                p = _level(fc, m, i)
                dims[(p, m - p)] = dims.get((p, m - p), 0) + 1
    return dims, ranks


def recurrence_dims(dims: dict, ranks: dict, r: int) -> dict[tuple[int, int], int]:
    """The next page's nonzero dims from page r's dims and d_r ranks, cell by
    cell: dim less the rank of d_r out of the cell and the rank into it."""
    out = {}
    for (p, q), d in dims.items():
        h = d - ranks.get((p, q), 0) - ranks.get((p - r, q + r - 1), 0)
        if h:
            out[(p, q)] = h
    return out


def homology_dims(pg: OraclePage) -> dict[tuple[int, int], int]:
    """Dims of ker(d_r)/im(d_r) per cell: the next page computed the slow way."""
    return recurrence_dims(pg.dims(), pg.ranks, pg.r)


def f_matrix(frames, pq: tuple[int, int]) -> Matrix | None:
    """The frame F at pq as an e2_dim x product_dim matrix, or None off the frames."""
    cols = frames.f_columns.get(pq)
    if cols is None:
        return None
    cell = frames.page2.get(pq)
    return from_columns(cols, 0 if cell is None else cell.dim)


def dense_dr(fc: FilteredComplex, cells: dict, r: int) -> dict:
    """d_r per nonzero cell by the dense route: d of each representative as a
    dense vector of C^(m+1), `contains` in the target's Z_r and the dense
    `proj` for its class."""
    dr = {}
    for (p, q), cell in cells.items():
        if cell.dim == 0:
            continue
        tgt = cells.get((p + r, q - r + 1))
        if tgt is None or tgt.dim == 0:
            dr[(p, q)] = zero_matrix(0, cell.dim)
            continue
        cols = []
        d = dmat(fc, p + q)
        z, proj = tgt.space, tgt.proj
        for rep in cell.reps.data:
            y = dense_apply(d, rep)
            if not contains(z, y):
                raise CertificateError("d of a representative escapes Z", (p, q), r)
            cols.append(dense_apply(proj, y))
        dr[(p, q)] = Matrix.of([[col[i] for col in cols] for i in range(tgt.dim)],
                               cols=cell.dim)
    return dr


def dense_tensor_vector(model: EquivariantModel, alpha_row, p: int, beta_row, q: int):
    """alpha (x) beta as a dense vector of C^(p+q), alpha and beta as dense rows."""
    _, pos = degree_basis(model, p + q)
    vec = [Q(0)] * len(pos)
    basic = model.basic
    gens = [g for g in range(basic.num_generators) if basic.degree_of(g) == p]
    for g, a in zip(gens, alpha_row):
        for I, b in zip(multi_indices(model.lie.n, q), beta_row):
            if a and b:
                vec[pos[(g, I)]] = a * b
    return tuple(vec)


def dense_frames(model: EquivariantModel, frames, cells: dict) -> dict:
    """(p, q) -> the frame F by the dense route, on the oracle page 2's cells
    and frames' basic cohomology and invariants: every alpha (x) beta from
    the dense basis rows, `contains` in Z_2 and the dense `proj`."""
    out = {}
    for cell in frames.cells:
        pq = (cell.p, cell.q)
        pc = cells.get(pq)
        cols = []
        if pc is not None:
            z, proj = pc.space, pc.proj
            betas = dense_basis(frames.invariants[cell.q]).data
        for alpha in dense_reps(frames.basic[cell.p]).data if pc is not None else ():
            for beta in betas:
                vec = dense_tensor_vector(model, alpha, cell.p, beta, cell.q)
                if not contains(z, vec):
                    raise CertificateError("tensor representative not d-compatible", pq, 2)
                cols.append(dense_apply(proj, vec))
        dim = 0 if pc is None else pc.dim
        out[pq] = Matrix.of([[col[i] for col in cols] for i in range(dim)],
                            cols=cell.product_dim)
    return out


def dense_transgression(frames, dr: dict, fmats: dict) -> dict:
    """F_target^-1 d_2 F_source from dense d_2 and frames."""
    out = {}
    for cell in frames.cells:
        if cell.product_dim == 0:
            continue
        src, tgt = (cell.p, cell.q), (cell.p + 2, cell.q - 1)
        t_tgt = fmats.get(tgt)
        if t_tgt is None or t_tgt.rows == 0:
            out[src] = zero_matrix(0, cell.product_dim)
        else:
            out[src] = matmul(matmul(seed_inverse(t_tgt), dr[src]), fmats[src])
    return out


def heisenberg_nilmanifold(k: int) -> EquivariantModel:
    """The Heisenberg nilmanifold of dimension 2k+1: E_1 = omega ^ on Lambda(a, b), d_hor = 0.

    Letters a_i and b_i are 0-based positions i-1 and k+i-1, and a monomial
    is its increasing tuple of letters.  omega ^ x_S has the term a_i b_i x_S
    for each i with neither letter in S, whose sign is that of sorting
    (a_i, b_i, S): one transposition per letter of S below a_i or below b_i.
    """
    letters = [f"a{i}" for i in range(1, k + 1)] + [f"b{i}" for i in range(1, k + 1)]
    monomials = [s for d in range(2 * k + 1) for s in combinations(range(2 * k), d)]
    index = {s: g for g, s in enumerate(monomials)}
    euler = []
    for s in monomials:
        for a, b in ((i, k + i) for i in range(k)):
            if a in s or b in s:
                continue
            swaps = sum(x < a for x in s) + sum(x < b for x in s)
            euler.append((1, index[s], index[tuple(sorted(s + (a, b)))], (-1) ** swaps))
    generators = [("^".join(letters[x] for x in s) or "1", len(s)) for s in monomials]
    return EquivariantModel(f"heisenberg_nil({k})", LieData.abelian(1),
                            BasicComplex.build(generators, euler=euler))


def santharoubane_betti(k: int) -> tuple[int, ...]:
    """dim H^j of the (2k+1)-dimensional Heisenberg nilmanifold, j = 0..2k+1."""
    low = [comb(2 * k, j) - (comb(2 * k, j - 2) if j >= 2 else 0) for j in range(k + 1)]
    return tuple(low + low[::-1])
