"""Machine verification that E_2 factors as basic cohomology (x) algebra cohomology.

The comparison map F sends a pair (d_hor-cocycle alpha of degree p, invariant
element beta of chi-degree q) to the class of alpha (x) beta on the second page.
Both sides are computed independently: the left from the cohomology of
d_hor and the invariant subcomplex, the right from the persistence pairing
of the total differential (specseq.second_page).  The verdict is
"isomorphism" exactly when F has full rank equal to both dimensions at every
(p, q); any mismatch pinpoints the first failing cell.  Page 2 is read off
the pairing, whose pairs of gap 0 or 1 decide its cells, so this check
certifies those pairs.  Its pairs of gap 2 give the report's d_2 ranks,
and the frames read d_2 apart from them, as the classes of d(alpha (x)
beta), which depend only on the pairs of gap 0 or 1: once the check
passes, F spans each cell, and `d2_rank_check` holds each d_2 rank against
the rank of d_2 F.  The pairs of larger gap show only in E_infinity,
which the abutment compares with the total cohomology.

The invariant subcomplex (liealg's certified harmonic forms) realizes the
algebra cohomology in each degree; this identification is itself re-derived
here (invariants are closed, and project isomorphically onto
cocycles-mod-coboundaries) rather than assumed, by ranks alone: the
dimension of H^q from the ranks of delta, closedness by applying delta_q,
and independence modulo the coboundaries by one stacked rank, with no
kernel or quotient of delta built.

The basic factor of E_2 is qlinalg.graded_cohomology over d_hor, one
Quotient per basic degree (basic_cohomology).  Each alpha is the echelon
row of a representative's pivot in the cocycles, and alpha (x) beta is a
{coordinate: value} dict.  The class of alpha (x) beta is one class read
in its page-2 cell (specseq.WindowCell.class_of), which checks that it
lies in Z_2 and solves for its class over the cell's window; where d_2 has
a nonzero target, the class of d(alpha (x) beta) is read there too, with d
applied once per representative.  The ranks come from those sparse
columns by qlinalg.sparse_rank.  The transgression stays sparse too: the
d_2 images of each source frame column, then one solve through a tagged
echelon of the target frame's columns, whose solutions are kept as they
come, one `Transgression` record of sparse columns per source cell; only
the renders write its zeros.  Where delta is zero into and out of degree
q, H^q is Lambda^q, and the realization check there is a comparison of
dimensions with no elimination.

`Analysis(model)`, given the model alone, is the whole report of one model,
from validation to the transgression.  Each stage is computed once, on
first use, from the stages it needs; the functions here take those stages
as inputs, and the frames they share are a plain record, `E2Frames`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import comb

from .liealg import (
    LieData,
    delta_columns,
    invariant_subcomplex,
    validate_lie,
)
from .model import EquivariantModel, validate_model
from .qlinalg import (
    Quotient,
    apply_sparse,
    cohomology_dims,
    graded_cohomology,
    solve_columns,
    sparse_rank,
)
from .reports import CertificateError, ValidationReport
from .specseq import (
    AbutmentReport,
    AbutmentRow,
    FilteredComplex,
    WindowCell,
    cartan_filtration,
    persistence_pairing,
    second_page,
)


def basic_cohomology(model: EquivariantModel) -> tuple[Quotient, ...]:
    """Cohomology of (B, d_hor), one graded_cohomology Quotient per basic degree.

    Coordinates in degree p follow gens_of_degree(p) order: each Quotient's
    space is the d_hor-cocycles and its reps represent a basis of H^p.
    Requires d_hor^2 = 0 and clean degree bookkeeping (validate_model).
    """
    basic = model.basic
    return tuple(graded_cohomology(basic.d_hor_columns(p) for p in range(basic.max_degree + 1)))


class E2Cell(namedtuple("E2Cell", "p q product_dim e2_dim f_rank")):
    """One cell of the E_2 check: product_dim is dim H^p(B) * dim invariants^q,
    e2_dim the cell's dimension on page 2 and f_rank the rank of its frames."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.f_rank == self.e2_dim == self.product_dim


class E2Report(namedtuple("E2Report", "cells verdict lie_realization_ok")):
    """The E2Cells, the verdict ("isomorphism" or "mismatch") and whether the
    invariants realize the algebra's cohomology."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "isomorphism" and self.lie_realization_ok


def _lie_realization_ok(lie: LieData, inv) -> bool:
    """Invariants are closed and map isomorphically onto degree-q cohomology.

    By ranks, with no kernel or quotient: dim H^q = C(n, q) - rk delta_q -
    rk delta_(q-1), each rank one `sparse_rank` of delta_columns, taken once
    and carried to the next degree.  The invariants must have that
    dimension, each basis row must be closed (delta_q of it is zero), and
    the rows must be independent modulo the coboundaries: the rank of the
    rows with the nonzero columns of delta_(q-1) is dim inv_q + rk
    delta_(q-1).  So their classes are a basis of ker / im.  A zero
    delta_q has rank 0 with no elimination, and where H^q is all of
    Lambda^q (delta is zero into and out of degree q), invariants of its
    dimension are all of Lambda^q, and nothing is read or reduced there.
    When delta is zero on every generator, which its generator table tells
    in O(n^2), that holds in every degree and no column is built.  The
    first failing degree ends the check before the next degree's columns
    are reduced.
    """
    if not any(lie.delta_gens):
        return all(s.dim == s.ambient_dim for s in inv)
    below: list[dict] = []  # the nonzero columns of delta_(q-1)
    below_rank = 0
    for q in range(lie.n + 1):
        columns = delta_columns(lie, q)
        image = [dict(col) for col in columns if col]
        rank = sparse_rank(image) if image else 0
        h_dim = len(columns) - rank - below_rank
        if inv[q].dim != h_dim:
            return False
        if h_dim and h_dim != len(columns):
            rows = [inv[q].sparse_row(pivot) for pivot in inv[q].echelon()]
            if any(apply_sparse(columns, h) for h in rows):
                return False
            if sparse_rank(rows + below) != h_dim + below_rank:
                return False
        below, below_rank = image, rank
    return True


class E2Frames(namedtuple("E2Frames", "page2 cells f_columns d2_columns basic invariants")):
    """Page 2's cells with the tensor frames F(alpha (x) beta) of every cell.

    f_columns[(p, q)] holds F's columns at (p, q), one per pair alpha (x)
    beta, each as {class index: value}.  d2_columns[(p, q)] holds d_2 F's
    columns there, where the target cell (p + 2, q - 1) is nonzero: the
    class in it of d(alpha (x) beta), one per column of F.  basic is
    basic_cohomology's Quotients and invariants the invariant subspaces, per
    degree.
    """

    __slots__ = ()


def _e2_frames(model: EquivariantModel, page2: dict[tuple[int, int], WindowCell]) -> E2Frames:
    """Frames of the comparison map on page 2 of model's spectral sequence.

    alpha (x) beta is built sparse, {position: a b}, from alpha's and
    beta's echelon rows: alpha is the cocycle row at each pivot of
    basic_cohomology's representatives, beta each invariant basis row.
    The cell's window is the block B^p (x) Lambda^q, generator by
    generator, so the entry of the j-th generator of degree p and the i-th
    multi-index of degree q sits at cell.lo + j C(n, q) + i, the position
    rule of model.prefix_levels.  Its class is one class read in the cell,
    which also checks that it lies in Z_2, and where the target of d_2 is
    nonzero, d of it is read there too.
    d is applied once per representative: the class read in the cell takes
    it as given, and the read in the target skips the check of d(d x) in
    F^(p+4), since d^2 = 0 (validate_model).  f_rank is the rank of the
    class columns.
    """
    bc = basic_cohomology(model)
    inv = invariant_subcomplex(model.lie)
    n = model.lie.n
    cells = []
    f_columns = {}
    d2_columns = {}
    betas = [[tuple(inv[q].sparse_row(pivot).items()) for pivot in inv[q].echelon()]
             for q in range(n + 1)]
    for p, hp in enumerate(bc):
        alphas = [tuple(hp.space.sparse_row(pivot).items()) for pivot in hp.pivots]
        for q in range(n + 1):
            cell = page2.get((p, q))
            prod = hp.dim * inv[q].dim
            if cell is None:
                # a spot outside the E_0 support has no cell: E_2 is zero there
                cells.append(E2Cell(p, q, prod, 0, 0))
                f_columns[(p, q)] = [{} for _ in range(prod)]
                continue
            tgt = page2.get((p + 2, q - 1))
            if tgt is not None and not tgt.dim:
                tgt = None
            lo, width = cell.lo, comb(n, q)
            cols, images = [], []
            for alpha in alphas:
                for beta in betas[q]:
                    x = {lo + j * width + i: a * b for j, a in alpha for i, b in beta}
                    dx = apply_sparse(cell.d_columns, x)
                    y = cell.class_of(x, dx)
                    if y is None:
                        raise CertificateError(
                            "tensor representative not d-compatible", (p, q), 2
                        )
                    cols.append(y)
                    if tgt is not None:
                        z = tgt.class_of(dx, {})
                        if z is None:
                            raise CertificateError("d of a tensor representative escapes Z_2",
                                                   (p + 2, q - 1), 2)
                        images.append(z)
            cells.append(E2Cell(p, q, prod, cell.dim, sparse_rank(cols)))
            f_columns[(p, q)] = cols
            if tgt is not None:
                d2_columns[(p, q)] = images
    return E2Frames(page2, tuple(cells), f_columns, d2_columns, bc, inv)


def e2_tensor_check(model: EquivariantModel, frames: E2Frames) -> E2Report:
    """Verdict on E_2 ~= H(B, d_hor) (x) H(algebra), cell by cell.

    frames are _e2_frames(model, page2) on page 2 of model's spectral sequence.
    """
    ok = all(c.ok for c in frames.cells)
    return E2Report(
        frames.cells,
        "isomorphism" if ok else "mismatch",
        _lie_realization_ok(model.lie, frames.invariants),
    )


def d2_rank_check(frames: E2Frames, ranks: dict[tuple[int, int], int]) -> None:
    """The pairing's d_2 ranks against the frames' d_2 images, cell by cell.

    ranks are page 2's d_ranks, the pairing's pairs of gap 2 per spot.  With
    the tensor check passed, F_source spans its cell, so d_2 F_source, the
    classes of d(alpha (x) beta) in the target cell, has d_2's rank; where
    the target cell is zero there are none, and the rank must be zero with
    no `sparse_rank` called.  A mismatch raises CertificateError at the
    source cell, page 2.
    """
    for cell in frames.cells:
        pq = (cell.p, cell.q)
        images = frames.d2_columns.get(pq)
        if (sparse_rank(images) if images else 0) != ranks.get(pq, 0):
            raise CertificateError("d_2 rank differs from the pairing's pairs of gap 2", pq, 2)


class Transgression(namedtuple("Transgression", "rows columns")):
    """d_2 at one source cell in the tensor bases, kept by its sparse columns.

    rows is the target's dimension, dim H^(p+2)(B) (x) H^(q-1); columns[j]
    is the image of the j-th basis element alpha (x) beta of the source, as
    {row: value} of its nonzero entries in qlinalg's scalar form.  shape
    and entry read it as the dense matrix it stands for, with 0 where a
    column has no entry.
    """

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, len(self.columns))

    def entry(self, i: int, j: int):
        return self.columns[j].get(i, 0)


def d2_transgression(frames: E2Frames) -> dict[tuple[int, int], Transgression]:
    """d_2 written in the tensor bases, per source cell with nonzero product dim.

    Entry at (p, q) maps H^p(B) (x) H^q to H^(p+2)(B) (x) H^(q-1) coordinates:
    F_target^-1 d_2 F_source, computed column by column.  d_2 F_source is
    frames.d2_columns, the classes of d(alpha (x) beta) in the target cell,
    and F_target x = y is solved through one tagged echelon of F_target's
    columns per target cell (qlinalg.solve_columns), with no dense product
    and no inverse; a y outside their span raises CertificateError at the
    target cell, page 2.  The solutions are the Transgression's columns as
    they come: nothing dense is built, so the stage holds only the nonzero
    entries.  Requires the tensor check to pass, otherwise the frames are
    not invertible and there is no honest change of basis.
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
        f_tgt = frames.f_columns.get(tgt)
        if not f_tgt:
            out[src] = Transgression(0, [{} for _ in range(cell.product_dim)])
            continue
        try:
            cols = solve_columns(f_tgt, frames.d2_columns[src])
        except ValueError:
            raise CertificateError("d_2 not solvable in the target frame", tgt, 2) from None
        out[src] = Transgression(len(f_tgt), cols)
    return out


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
        """Every page's summary and page 2 with its classes, from one persistence pairing."""
        fc = self.filtration
        pairing = persistence_pairing(fc)
        pages = tuple(pairing.summary(r) for r in range(pairing.stabilization + 1))
        return pages, second_page(fc, pairing)

    pages = property(lambda self: self._page_pass[0], doc="Summaries of E_0 .. E_stabilization.")
    stable = property(lambda self: self.pages[-1], doc="The summary of E_infinity.")
    stabilization = property(lambda self: self.stable.r)
    page2 = property(lambda self: self._page_pass[1])

    @cached_property
    def total_cohomology(self) -> tuple[int, ...]:
        """dim H^k of the total complex: cohomology_dims of the filtration's d columns."""
        return cohomology_dims(self.filtration.d_columns)

    @cached_property
    def abutment(self) -> AbutmentReport:
        hdims = self.total_cohomology
        sums = [0] * len(hdims)
        for (p, q), d in self.stable.dims.items():
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
    def transgression(self) -> dict[tuple[int, int], Transgression]:
        """d_2 in the tensor bases, once its ranks are checked against the pairing's."""
        if not self.e2.passed:
            return {}
        d2_rank_check(self.frames, self.pages[2].d_ranks)
        return d2_transgression(self.frames)
