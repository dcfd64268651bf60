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

`Analysis(model)` is the whole report of one model, from validation to the
transgression.  Each stage is computed once, on first use, from the stages
it needs; the functions here take those stages as inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .liealg import ce_cohomology, invariant_subcomplex, multi_indices, validate_lie
from .model import EquivariantModel, degree_basis, validate_model
from .qlinalg import Matrix, cohomology_dims, graded_cohomology, inverse
from .reports import CertificateError, ValidationReport
from .specseq import (
    AbutmentReport,
    AbutmentRow,
    FilteredComplex,
    SpectralPage,
    cartan_filtration,
    iter_pages,
)

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


def _e2_frames(model: EquivariantModel, pg2: SpectralPage) -> E2Frames:
    """Frames of the comparison map on page 2 of model's spectral sequence."""
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


def e2_tensor_check(model: EquivariantModel, frames: E2Frames) -> E2Report:
    """Verdict on E_2 ~= H(B, d_hor) (x) H(algebra), cell by cell.

    frames are _e2_frames(model, pg2) on page 2 of model's spectral sequence.
    """
    ok = all(c.ok for c in frames.cells)
    return E2Report(
        frames.cells,
        "isomorphism" if ok else "mismatch",
        _lie_realization_ok(model, frames.invariants),
    )


def d2_transgression(frames: E2Frames) -> dict[tuple[int, int], Matrix]:
    """d_2 written in the tensor bases, per source cell with nonzero product dim.

    Entry at (p, q) maps H^p(B) (x) H^q to H^(p+2)(B) (x) H^(q-1) coordinates:
    inverse(frame_target) @ d_2 @ frame_source.  Requires the tensor check to
    pass, otherwise the frames are not invertible and there is no honest
    change of basis.
    """
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


@dataclass(frozen=True)
class PageSummary:
    """One page as reported: nonzero cell dims and nonzero d_r ranks."""

    r: int
    dims: dict
    d_ranks: dict


class Analysis:
    """Every report stage of one model, each computed once, on first use.

    The stages past validation start at `filtration`, which refuses a model
    that fails validation (`valid`).
    """

    def __init__(self, model: EquivariantModel):
        self.model = model

    @cached_property
    def lie_validation(self) -> ValidationReport:
        return validate_lie(self.model.lie)

    @cached_property
    def model_validation(self) -> ValidationReport:
        return validate_model(self.model)

    @property
    def valid(self) -> bool:
        return self.lie_validation.passed and self.model_validation.passed

    @cached_property
    def filtration(self) -> FilteredComplex:
        if not self.valid:
            failed = self.lie_validation.failures() + self.model_validation.failures()
            raise ValueError(f"{self.model.name}: invalid model, no filtration built:\n"
                             + "\n".join(c.line() for c in failed))
        return cartan_filtration(self.model)

    @cached_property
    def _page_pass(self) -> tuple:
        """One iter_pages pass; only page 2 and E_infinity outlive their summaries."""
        summaries = []
        for pg in iter_pages(self.filtration):
            ranks = {pq: rk for pq, rk in pg.dr_ranks().items() if rk}
            summaries.append(PageSummary(pg.r, pg.dims(), ranks))
            if pg.r == 2:
                page2 = pg
        r_stab = 1 + max((s.r for s in summaries if s.r >= 2 and s.d_ranks), default=1)
        return tuple(s for s in summaries if s.r <= r_stab), pg, r_stab, page2

    pages = property(lambda self: self._page_pass[0], doc="Summaries of E_0 .. E_stabilization.")
    stable = property(lambda self: self._page_pass[1], doc="The last page built, E_infinity.")
    stabilization = property(lambda self: self._page_pass[2])
    page2 = property(lambda self: self._page_pass[3])

    @cached_property
    def total_cohomology(self) -> tuple[int, ...]:
        """dim H^k of the total complex from the ranks of the filtration's d alone."""
        return cohomology_dims(self.filtration.d)

    @cached_property
    def abutment(self) -> AbutmentReport:
        hdims = self.total_cohomology
        sums = [0] * len(hdims)
        for (p, q), d in self.stable.dims().items():
            sums[p + q] += d
        rows = tuple(AbutmentRow(k, sums[k], hdims[k]) for k in range(len(hdims)))
        return AbutmentReport(rows, self.stabilization)

    @cached_property
    def frames(self) -> E2Frames:
        return _e2_frames(self.model, self.page2)

    @cached_property
    def e2(self) -> E2Report:
        return e2_tensor_check(self.model, self.frames)

    @cached_property
    def transgression(self) -> dict[tuple[int, int], Matrix]:
        return d2_transgression(self.frames) if self.e2.passed else {}
