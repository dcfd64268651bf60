"""Reference algorithms that the engine no longer runs, kept to test it against.

`seed_quotient_map` is the first quotient algorithm of the package: one row
reduction of the whole accumulated basis per accepted representative, then a
row reduction of [C | I] to read the projection off the tracked transform.
It shares no code with the one-pass sparse echelon of `qlinalg.quotient_map`
beyond `Matrix.rref`, so agreement entry by entry is a real check.
"""

from __future__ import annotations

from fractions import Fraction as Q

from cartanss.qlinalg import Matrix, Subspace


def seed_quotient_map(v: Subspace, w: Subspace) -> tuple[Matrix, Matrix]:
    """(reps, proj) of v/w, computed the slow way; ValueError unless w <= v."""
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = v.ambient_dim
    w_rows = [list(r) for r in w.basis.data]
    if Subspace.from_rows(d, [list(r) for r in v.basis.data] + w_rows).dim != v.dim:
        raise ValueError("quotient undefined: denominator is not contained in numerator")
    rows = w_rows
    reps = []
    current = Subspace.from_rows(d, rows)
    for cand in v.basis.data:
        grown = Subspace.from_rows(d, rows + [list(cand)])
        if grown.dim > current.dim:
            reps.append(list(cand))
            rows.append(list(cand))
            current = grown
    k = len(reps)
    if k == 0:
        return Matrix((), d), Matrix((), d)
    c_mat = Matrix.of(rows, cols=d)
    red, pivots = Matrix.hstack(c_mat, Matrix.identity(c_mat.rows)).rref()
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
