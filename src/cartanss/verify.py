"""Machine verification that E_2 factors as basic cohomology (x) algebra cohomology.

The comparison map F sends a pair (d_hor-cocycle alpha of degree p, invariant
element beta of chi-degree q) to the class of alpha (x) beta on the second page.
Both sides are computed independently: the left from plain matrix ranks of
d_hor and the invariant subcomplex, the right from the filtered-complex page
machinery.  The verdict is "isomorphism" exactly when F has full rank equal
to both dimensions at every (p, q); any mismatch pinpoints the first failing
cell.

The invariant subcomplex realizes the algebra cohomology in each degree; this
identification is itself re-derived here (invariants are closed, and project
isomorphically onto cocycles-mod-coboundaries) rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .liealg import ce_cohomology, invariant_subcomplex, multi_indices
from .model import EquivariantModel, degree_basis
from .qlinalg import Matrix, graded_cohomology, inverse
from .reports import CertificateError
from .specseq import SpectralPage, cartan_filtration, page

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GradedReps:
    """Per-degree dimensions and representative rows (in per-degree coordinates)."""

    dims: tuple[int, ...]
    reps: tuple[Matrix, ...]


def basic_cohomology(model: EquivariantModel) -> GradedReps:
    """Cohomology of (B, d_hor) with chosen cocycle representatives.

    Coordinates in degree p follow gens_of_degree(p) order.  Requires
    d_hor^2 = 0 and clean degree bookkeeping (validate_model).
    """
    basic = model.basic
    maps = (basic.d_hor_matrix(p) for p in range(basic.max_degree + 1))
    reps = tuple(rep_rows for _, _, rep_rows, _ in graded_cohomology(maps))
    return GradedReps(tuple(r.rows for r in reps), reps)


@dataclass(frozen=True)
class E2Cell:
    p: int
    q: int
    product_dim: int  # dim H^p(B) * dim invariants^q
    e2_dim: int
    f_rank: int

    @property
    def ok(self) -> bool:
        return self.f_rank == self.e2_dim == self.product_dim


@dataclass(frozen=True)
class E2Report:
    cells: tuple[E2Cell, ...]
    verdict: str  # "isomorphism" or "mismatch"
    lie_realization_ok: bool

    @property
    def passed(self) -> bool:
        return self.verdict == "isomorphism" and self.lie_realization_ok

    def first_failure(self) -> E2Cell | None:
        return next((c for c in self.cells if not c.ok), None)


def _tensor_vector(model, alpha_row, gens_p, beta_terms, m):
    """Coordinates of alpha (x) beta in total degree m; beta_terms lists (I, b), b != 0."""
    _, pos = degree_basis(model, m)
    vec = [_ZERO] * len(pos)
    for g, a in zip(gens_p, alpha_row):
        if not a:
            continue
        for I, b in beta_terms:
            vec[pos[(g, I)]] = a * b
    return tuple(vec)


def _lie_realization_ok(model, inv) -> bool:
    """Invariants are closed and map isomorphically onto degree-q cohomology."""
    for q, (ker, img, _, proj) in enumerate(ce_cohomology(model.lie)):
        h_dim = ker.dim - img.dim
        if inv[q].dim != h_dim:
            return False
        classes = []
        for row in inv[q].basis.data:
            if not ker.contains_vector(row):
                return False
            classes.append(proj.apply(row))
        if Matrix.of(classes, cols=h_dim).rank() != h_dim:
            return False
    return True


@dataclass(frozen=True)
class E2Frames:
    """Page 2 with the tensor frames F(alpha (x) beta) of every cell."""

    page2: SpectralPage
    cells: tuple[E2Cell, ...]
    f_matrices: dict = field(compare=False)
    basic: GradedReps = field(compare=False)
    invariants: tuple = field(compare=False)


def _e2_frames(model: EquivariantModel, pg2: SpectralPage | None = None) -> E2Frames:
    """Frames of the comparison map on page 2; pass pg2 when it is already built."""
    if pg2 is None:
        pg2 = page(cartan_filtration(model), 2)
    bc = basic_cohomology(model)
    inv = invariant_subcomplex(model.lie)
    n = model.lie.n
    cells = []
    fmats = {}
    betas = [
        [[(I, b) for I, b in zip(multi_indices(n, q), row) if b] for row in inv[q].basis.data]
        for q in range(n + 1)
    ]
    for p in range(len(bc.dims)):
        gens_p = model.basic.gens_of_degree(p)
        for q in range(n + 1):
            # a spot outside the E_0 support has no cell: E_2 is zero there
            cell = pg2.cells.get((p, q))
            e2_dim = 0 if cell is None else cell.dim
            prod = bc.dims[p] * inv[q].dim
            cols = []
            for alpha in bc.reps[p].data if cell is not None else ():
                for beta_terms in betas[q]:
                    vec = _tensor_vector(model, alpha, gens_p, beta_terms, p + q)
                    if not cell.z_space.contains_vector(vec):
                        raise CertificateError(
                            "tensor representative not d-compatible", (p, q), 2
                        )
                    cols.append(cell.proj.apply(vec))
            data = [[cols[j][i] for j in range(prod)] for i in range(e2_dim)]
            fmat = Matrix.of(data, cols=prod)
            cells.append(E2Cell(p, q, prod, e2_dim, fmat.rank()))
            fmats[(p, q)] = fmat
    return E2Frames(pg2, tuple(cells), fmats, bc, inv)


def e2_tensor_check(model: EquivariantModel, frames: E2Frames | None = None) -> E2Report:
    """Verdict on E_2 ~= H(B, d_hor) (x) H(algebra), cell by cell.

    frames, when given, must be _e2_frames(model) already computed.
    """
    if frames is None:
        frames = _e2_frames(model)
    ok = all(c.ok for c in frames.cells)
    return E2Report(
        frames.cells,
        "isomorphism" if ok else "mismatch",
        _lie_realization_ok(model, frames.invariants),
    )


def d2_transgression(
    model: EquivariantModel, frames: E2Frames | None = None
) -> dict[tuple[int, int], Matrix]:
    """d_2 written in the tensor bases, per source cell with nonzero product dim.

    Entry at (p, q) maps H^p(B) (x) H^q to H^(p+2)(B) (x) H^(q-1) coordinates:
    inverse(frame_target) @ d_2 @ frame_source.  Requires the tensor check to
    pass, otherwise the frames are not invertible and there is no honest
    change of basis.  frames, when given, must be _e2_frames(model).
    """
    if frames is None:
        frames = _e2_frames(model)
    bad = next((c for c in frames.cells if not c.ok), None)
    if bad is not None:
        raise ValueError(
            f"transgression undefined: tensor check fails at ({bad.p},{bad.q})"
        )
    out = {}
    for cell in frames.cells:
        if cell.product_dim == 0:
            continue
        src = (cell.p, cell.q)
        tgt = (cell.p + 2, cell.q - 1)
        d2 = frames.page2.dr[src]
        t_src = frames.f_matrices[src]
        t_tgt = frames.f_matrices.get(tgt)
        if t_tgt is None or t_tgt.rows == 0:
            out[src] = Matrix.zero(0, cell.product_dim)
            continue
        out[src] = inverse(t_tgt) @ d2 @ t_src
    return out
