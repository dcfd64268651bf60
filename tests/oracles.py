"""Reference algorithms that the engine no longer runs, kept to test it against.

`seed_rref` is the first row reduction of the package: dense Gauss-Jordan
elimination over `Fraction`, dividing and subtracting whole rows, zeros
included.  `seed_kernel_basis` reads the kernel off it and reduces the
vectors a second time.  The engine's `Matrix.rref` is a sparse fraction-free
elimination over the integers instead, and `kernel_basis` reduces once, so
these two are the definitions it is checked against.

`seed_quotient_map` is the first quotient algorithm of the package: one row
reduction of the whole accumulated basis per accepted representative, then a
row reduction of [C | I] to read the projection off the tracked transform.
Its reductions are `seed_rref`, so it shares no code with the one-pass sparse
echelon of `qlinalg.quotient_map` nor with the integer elimination, and
agreement entry by entry is a real check.

`wedge_ce_delta` and `homotopy_coadjoint` are the first Chevalley-Eilenberg
operators of the package: delta by wedge products of `ChiElement`s, and the
coadjoint action as the Cartan homotopy contract o delta + delta o contract.
The engine reads both from sparse per-algebra tables instead; the matrices
below are built one `chi_to_vector` column at a time, as the seed did.

`annihilator`, `preimage` and `sum_and_intersect` (Zassenhaus) are the
subspace lattice operations that the engine no longer needs; here they
reduce with `seed_rref` and `seed_kernel_basis` only, so the oracles built
on them share no elimination with the engine.

`oracle_total_matrix` and `oracle_identity_checks` are the model layer before
it read the operators from per-model monomial tables: every column and every
component of d^2 is a composition of `ModelElement` operators, one element
per monomial per operator.

`sparse_columns`, `dmat` and `check_structure` are the dense view of a
`FilteredComplex`, which keeps d only by its sparse columns: `dmat` builds
the dense matrix of d^m, and `check_structure` checks shapes, the decreasing
filtration and d-compatibility entry by entry on it.

`oracle_page` is the page engine before it moved to the associated graded:
every spot (p, m) of the triangle gets a cell, and each cell is the quotient
Z_r / (d Z_{r-1}^{p-r+1} + Z_{r-1}^{p+1}) of full subspaces of C^m, the
divisor by one row reduction of both parts stacked.  The engine's window
quotients skip the empty spots and never form that divisor, so comparing
the two checks the skip and the window identity at once.

`dense_dr`, `dense_frames` and `dense_transgression` are the dense route the
engine used before it read classes sparse: every d(rep) and every alpha (x)
beta is a dense vector of C^m, tested with `Subspace.contains_vector` and
projected with the dense `proj.apply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from cartanss.liealg import (
    ChiElement,
    LieData,
    all_multi_indices,
    chi_to_vector,
    contract,
    delta_gen,
    multi_indices,
    wedge,
)
from cartanss.model import (
    EquivariantModel,
    ModelElement,
    degree_basis,
    d01,
    d10,
    d21,
    element_to_vector,
    monomial_basis,
    total_d,
)
from cartanss.qlinalg import (
    Matrix,
    Subspace,
    image,
    inverse,
    kernel_basis,
    quotient_map,
    rref,
)
from cartanss.reports import CertificateError, CheckResult
from cartanss.specseq import FilteredComplex, SpectralPage, _z_space


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


def seed_span(d: int, rows) -> Subspace:
    """The row space of rows in Q^d, by its seed_rref basis."""
    red, pivots = seed_rref(Matrix.of(rows, cols=d))
    return Subspace(d, Matrix(red.data[: len(pivots)], d))


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


def seed_inverse(m: Matrix) -> Matrix:
    """m^-1 from seed_rref([m | I]); ValueError when m is singular."""
    red, pivots = seed_rref(Matrix.hstack(m, Matrix.identity(m.rows)))
    if pivots != tuple(range(m.cols)):
        raise ValueError("matrix is singular")
    return Matrix.of([row[m.cols:] for row in red.data], cols=m.cols)


def annihilator(w: Subspace) -> Matrix:
    """Rows spanning the orthogonal complement: x in w iff annihilator(w) @ x = 0."""
    return seed_kernel_basis(w.basis).basis


def preimage(m: Matrix, sub: Subspace) -> Subspace:
    """{x : m @ x in sub} as a subspace of the source."""
    if sub.ambient_dim != m.rows:
        raise ValueError("ambient dimension mismatch")
    return seed_kernel_basis(annihilator(sub) @ m)


def sum_and_intersect(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """(a + b, a cap b) in one Zassenhaus elimination."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = a.ambient_dim
    zero = [Q(0)] * d
    rows = [list(r) + list(r) for r in a.basis.data]
    rows += [list(r) + zero for r in b.basis.data]
    red, pivots = seed_rref(Matrix.of(rows, cols=2 * d))
    sum_rows, int_rows = [], []
    for i, p in enumerate(pivots):
        if p < d:
            sum_rows.append(red.data[i][:d])
        else:
            int_rows.append(red.data[i][d:])
    return seed_span(d, sum_rows), seed_span(d, int_rows)


def seed_mismatches(m: Matrix) -> list[str]:
    """The operations on m whose engine result differs from the seed one.

    Compares rref (and its pivots), rank, kernel_basis, Subspace.from_rows of
    the rows, image and, for a square m, inverse, entry by entry; an entry
    that equals the seed value but is not a Fraction also counts.
    """
    def same(got: Matrix, want: Matrix) -> bool:
        return (got.data, got.cols) == (want.data, want.cols) and all(
            type(x) is Q for row in got.data for x in row)

    bad = []
    red, pivots = m.rref()
    want_red, want_pivots = seed_rref(m)
    if not same(red, want_red) or pivots != want_pivots or rref(m) != (red, pivots):
        bad.append("rref")
    if m.rank() != len(want_pivots):
        bad.append("rank")
    ker, want_ker = kernel_basis(m), seed_kernel_basis(m)
    if ker.ambient_dim != want_ker.ambient_dim or not same(ker.basis, want_ker.basis):
        bad.append("kernel_basis")
    if not same(Subspace.from_rows(m.cols, m.data).basis, seed_span(m.cols, m.data).basis):
        bad.append("from_rows")
    if image(m) != seed_span(m.rows, [m.column(j) for j in range(m.cols)]):
        bad.append("image")
    if m.rows == m.cols:
        try:
            want_inv = seed_inverse(m)
        except ValueError:
            want_inv = None
        try:
            got_inv = inverse(m)
        except ValueError:
            got_inv = None
        if (got_inv is None) != (want_inv is None) or (
                got_inv is not None and not same(got_inv, want_inv)):
            bad.append("inverse")
    return bad


def seed_quotient_map(v: Subspace, w: Subspace) -> tuple[Matrix, Matrix]:
    """(reps, proj) of v/w, computed the slow way; ValueError unless w <= v."""
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = v.ambient_dim
    w_rows = [list(r) for r in w.basis.data]
    if seed_span(d, [list(r) for r in v.basis.data] + w_rows).dim != v.dim:
        raise ValueError("quotient undefined: denominator is not contained in numerator")
    rows = w_rows
    reps = []
    current = seed_span(d, rows)
    for cand in v.basis.data:
        grown = seed_span(d, rows + [list(cand)])
        if grown.dim > current.dim:
            reps.append(list(cand))
            rows.append(list(cand))
            current = grown
    k = len(reps)
    if k == 0:
        return Matrix((), d), Matrix((), d)
    c_mat = Matrix.of(rows, cols=d)
    red, pivots = seed_rref(Matrix.hstack(c_mat, Matrix.identity(c_mat.rows)))
    nb = c_mat.rows
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


def wedge_ce_delta(L: LieData, a: ChiElement) -> ChiElement:
    """delta(a), each term chi_{I[:j]} ^ delta chi_{i_j} ^ chi_{I[j+1:]} by two wedges."""
    out = ChiElement.zero()
    for I, v in a.coeffs.items():
        for pos, gen in enumerate(I):
            dg = delta_gen(L, gen)
            if dg.is_zero:
                continue
            sign = -1 if pos % 2 else 1
            term = wedge(ChiElement.basis(I[:pos]), wedge(dg, ChiElement.basis(I[pos + 1:])))
            out = out + (sign * v) * term
    return out


def homotopy_coadjoint(L: LieData, ell: int, a: ChiElement) -> ChiElement:
    """coadjoint(ell, a) by its definition, contract(ell, delta a) + delta(contract(ell, a))."""
    return contract(ell, wedge_ce_delta(L, a)) + wedge_ce_delta(L, contract(ell, a))


def operator_matrix(op, n: int, q_src: int, q_tgt: int) -> Matrix:
    """Matrix of op from Lambda^q_src to Lambda^q_tgt, one chi_to_vector per column."""
    src = multi_indices(n, q_src)
    tgt = multi_indices(n, q_tgt)
    cols = [chi_to_vector(op(ChiElement.basis(I)), n, q_tgt) for I in src]
    data = [[cols[j][i] for j in range(len(src))] for i in range(len(tgt))]
    return Matrix.of(data, cols=len(src))


def oracle_delta_matrix(L: LieData, q: int) -> Matrix:
    return operator_matrix(lambda x: wedge_ce_delta(L, x), L.n, q, q + 1)


def oracle_coadjoint_matrix(L: LieData, ell: int, q: int) -> Matrix:
    return operator_matrix(lambda x: homotopy_coadjoint(L, ell, x), L.n, q, q)


def oracle_invariant_subcomplex(L: LieData) -> tuple[Subspace, ...]:
    """Per degree, the kernel of the stacked homotopy matrices, always by elimination."""
    return tuple(
        seed_kernel_basis(
            Matrix.vstack(*[oracle_coadjoint_matrix(L, ell, q) for ell in range(1, L.n + 1)])
        )
        for q in range(L.n + 1)
    )


def direct_sum(*algebras: LieData) -> LieData:
    """The direct sum, each summand's basis following the previous ones."""
    entries = {}
    offset = 0
    for L in algebras:
        for a in range(1, L.n + 1):
            for b in range(1, L.n + 1):
                for k in range(1, L.n + 1):
                    v = L.bracket_coeff(a, b, k)
                    if v:
                        entries[(a + offset, b + offset, k + offset)] = v
        offset += L.n
    return LieData.from_structure_constants(offset, entries, completion="none")


def scaled(L: LieData, t) -> LieData:
    """The bracket t [-, -]: still a Lie algebra, and ad-invariant when L is."""
    t = Q(t)
    return LieData(L.n, tuple(tuple(tuple(t * v for v in row) for row in plane) for plane in L.c))


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


def sparse_columns(m: Matrix) -> tuple:
    """Per column of m, the (row, value) pairs of its nonzero entries."""
    return tuple(
        tuple((i, row[j]) for i, row in enumerate(m.data) if row[j]) for j in range(m.cols)
    )


def dmat(fc: FilteredComplex, m: int) -> Matrix:
    """d^m : C^m -> C^(m+1) as a dense matrix, zero outside the complex."""
    rows = fc.ambient(m + 1)
    if not 0 <= m <= fc.max_degree:
        return Matrix.zero(rows, fc.ambient(m))
    return Matrix.from_columns([dict(col) for col in fc.d_columns[m]], rows)


def check_structure(fc: FilteredComplex) -> None:
    """Assert shapes, a decreasing filtration, and d-compatibility on the dense d."""
    for m in range(fc.max_degree + 1):
        if len(fc.d_columns[m]) != fc.dims[m]:
            raise AssertionError(f"d[{m}] column count mismatch")
        target = fc.ambient(m + 1)
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


def oracle_divisor(fc: FilteredComplex, r: int, p: int, m: int, cache: dict) -> Subspace:
    """d Z_{r-1}^{p-r+1} + Z_{r-1}^{p+1} in C^m, as the span of both bases."""
    born = _z_space(fc, r - 1, p - r + 1, m - 1, cache)
    other = _z_space(fc, r - 1, p + 1, m, cache)
    d = dmat(fc, m - 1)
    rows = [y for y in (d.apply(row) for row in born.basis.data) if any(y)]
    if not rows:
        return other
    rows.extend(other.basis.data)
    return Subspace.from_rows(fc.ambient(m), rows)


@dataclass(frozen=True)
class OracleCell:
    p: int
    q: int
    dim: int
    reps: Matrix
    proj: Matrix
    z_space: Subspace
    divisor: Subspace


def oracle_page(fc: FilteredComplex, r: int, cache: dict | None = None) -> SpectralPage:
    """Page r with a cell at every spot 0 <= p <= m, each Z_r / divisor in full."""
    cache = {} if cache is None else cache
    cells = {}
    for m in range(fc.max_degree + 1):
        for p in range(m + 1):
            z = _z_space(fc, r, p, m, cache)
            divisor = oracle_divisor(fc, r, p, m, cache)
            try:
                reps, proj = quotient_map(z, divisor)
            except ValueError:
                raise CertificateError(f"divisor escapes Z_{r}", (p, m - p), r) from None
            cells[(p, m - p)] = OracleCell(p, m - p, reps.rows, reps, proj, z, divisor)
    dr = dense_dr(fc, cells, r)
    return SpectralPage(r, cells, dr, {pq: m.rank() for pq, m in dr.items()})


def dense_dr(fc: FilteredComplex, cells: dict, r: int) -> dict:
    """d_r per nonzero cell by the dense route: d of each representative as a
    dense vector of C^(m+1), `contains_vector` in the target's Z_r and the
    dense `proj.apply` for its class."""
    dr = {}
    for (p, q), cell in cells.items():
        if cell.dim == 0:
            continue
        tgt = cells.get((p + r, q - r + 1))
        if tgt is None or tgt.dim == 0:
            dr[(p, q)] = Matrix.zero(0, cell.dim)
            continue
        cols = []
        d = dmat(fc, p + q)
        for rep in cell.reps.data:
            y = d.apply(rep)
            if not tgt.z_space.contains_vector(y):
                raise CertificateError("d of a representative escapes Z", (p, q), r)
            cols.append(tgt.proj.apply(y))
        dr[(p, q)] = Matrix.of([[col[i] for col in cols] for i in range(tgt.dim)],
                               cols=cell.dim)
    return dr


def dense_tensor_vector(model: EquivariantModel, alpha_row, p: int, beta_row, q: int):
    """alpha (x) beta as a dense vector of C^(p+q), alpha and beta as dense rows."""
    _, pos = degree_basis(model, p + q)
    vec = [Q(0)] * len(pos)
    for g, a in zip(model.basic.gens_of_degree(p), alpha_row):
        for I, b in zip(multi_indices(model.lie.n, q), beta_row):
            if a and b:
                vec[pos[(g, I)]] = a * b
    return tuple(vec)


def dense_frames(model: EquivariantModel, frames) -> dict:
    """(p, q) -> the frame F by the dense route, from frames' own page 2,
    basic cohomology and invariants: every alpha (x) beta from the dense
    basis rows, `contains_vector` in Z_2 and `proj.apply`."""
    out = {}
    for cell in frames.cells:
        pq = (cell.p, cell.q)
        pc = frames.page2.cells.get(pq)
        cols = []
        for alpha in frames.basic.reps[cell.p].data if pc is not None else ():
            for beta in frames.invariants[cell.q].basis.data:
                vec = dense_tensor_vector(model, alpha, cell.p, beta, cell.q)
                if not pc.z_space.contains_vector(vec):
                    raise CertificateError("tensor representative not d-compatible", pq, 2)
                cols.append(pc.proj.apply(vec))
        out[pq] = Matrix.of([[col[i] for col in cols] for i in range(cell.e2_dim)],
                            cols=cell.product_dim)
    return out


def dense_transgression(frames, dr: dict, fmats: dict) -> dict:
    """inverse(F_target) @ d_2 @ F_source from dense d_2 and frames."""
    out = {}
    for cell in frames.cells:
        if cell.product_dim == 0:
            continue
        src, tgt = (cell.p, cell.q), (cell.p + 2, cell.q - 1)
        t_tgt = fmats.get(tgt)
        if t_tgt is None or t_tgt.rows == 0:
            out[src] = Matrix.zero(0, cell.product_dim)
        else:
            out[src] = inverse(t_tgt) @ dr[src] @ fmats[src]
    return out
