"""Machine verification that E_2 factors as basic cohomology (x) algebra cohomology.

The comparison map F sends a pair (d_hor-cocycle alpha of degree p, invariant
element beta of chi-degree q) to the class of alpha (x) beta on the second page.
Both sides are computed independently: the left from the cohomology of
d_hor and the invariant subcomplex, the right from the filtered-complex page
machinery.  The verdict is "isomorphism" exactly when F has full rank equal
to both dimensions at every (p, q); any mismatch pinpoints the first failing
cell.

The invariant subcomplex realizes the algebra cohomology in each degree; this
identification is itself re-derived here (invariants are closed, and project
isomorphically onto cocycles-mod-coboundaries) rather than assumed.

Both factors of E_2 are qlinalg.graded_cohomology of columns, and both stay
its per-degree Quotients: basic_cohomology over d_hor, per basic degree,
and liealg.lie_cohomology over delta, per chi-degree, read lazily.  Both
checks read classes sparse.  Each alpha is the echelon row of a
representative's pivot in the cocycles, alpha (x) beta and each invariant
are {coordinate: value} dicts, and one class read
(qlinalg.Quotient.class_of) reduces each through the echelon of Z_2, or of
the cocycles, which checks that it lies there and gives its class.  The
ranks come from those sparse columns by qlinalg.sparse_rank.  The
transgression stays sparse too: page 2's d_2 columns applied to each source
frame column, then one solve through a tagged echelon of the target frame's
columns; only the matrix it returns is dense.  Where delta is zero into
and out of degree q, H^q is Lambda^q with the identity projection, and the
realization check there is a comparison of dimensions with no elimination.

`Analysis(model)` is the whole report of one model, from validation to the
transgression.  Each stage is computed once, on first use, from the stages
it needs; the functions here take those stages as inputs.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .liealg import (
    LieData,
    invariant_subcomplex,
    lie_cohomology,
    multi_indices,
    validate_lie,
)
from .model import EquivariantModel, degree_basis, validate_model
from .qlinalg import (
    Matrix,
    Quotient,
    apply_sparse,
    cohomology_dims,
    graded_cohomology,
    solve_columns,
    sparse_rank,
)
from .reports import CertificateError, ReadOnly, ValidationReport
from .specseq import (
    AbutmentReport,
    AbutmentRow,
    FilteredComplex,
    SpectralPage,
    cartan_filtration,
    page,
    persistence_pairing,
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

    def first_failure(self) -> E2Cell | None:
        return next((c for c in self.cells if not c.ok), None)


def _lie_realization_ok(lie: LieData, inv) -> bool:
    """Invariants are closed and map isomorphically onto degree-q cohomology.

    Each invariant basis row is read sparse: one class read in ker / im
    checks that it is closed and gives its class, and the classes must have
    full rank.  Where H^q is all of Lambda^q (delta is zero into and out of
    degree q), invariants of its dimension are all of Lambda^q, and nothing
    is read or reduced there.  When delta is zero on every generator, which
    its generator table tells in O(n^2), that holds in every degree and no
    column is built.  lie_cohomology is read degree by degree, so the first
    failing degree ends the check before the next degree's cohomology is
    built.
    """
    if not any(lie.delta_gens):
        return all(s.dim == s.ambient_dim for s in inv)
    for q, quot in enumerate(lie_cohomology(lie)):
        if inv[q].dim != quot.dim:
            return False
        if quot.dim == quot.space.ambient_dim:
            continue
        classes = [quot.class_of(inv[q].sparse_row(pivot)) for pivot in inv[q].echelon()]
        if None in classes or sparse_rank(classes) != quot.dim:
            return False
    return True


class E2Frames(ReadOnly):
    """Page 2 with the tensor frames F(alpha (x) beta) of every cell.

    f_columns[(p, q)] holds F's columns at (p, q), one per pair alpha (x)
    beta, each as {class index: value}; basic is basic_cohomology's
    Quotients and invariants the invariant subspaces, per degree.  Those
    three take no part in equality and hash, which compare page2 and cells.
    """

    def __init__(self, page2: SpectralPage, cells: tuple[E2Cell, ...], f_columns: dict,
                 basic: tuple[Quotient, ...], invariants: tuple):
        vars(self).update(page2=page2, cells=cells, f_columns=f_columns, basic=basic,
                          invariants=invariants)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.page2, self.cells) == (other.page2, other.cells)

    def __hash__(self):
        return hash((self.page2, self.cells))

    def __repr__(self):
        return (f"{type(self).__qualname__}(page2={self.page2!r}, cells={self.cells!r}, "
                f"f_columns={self.f_columns!r}, basic={self.basic!r}, "
                f"invariants={self.invariants!r})")


def _e2_frames(model: EquivariantModel, pg2: SpectralPage) -> E2Frames:
    """Frames of the comparison map on page 2 of model's spectral sequence.

    alpha (x) beta is built sparse, {position: a b}, from alpha's and
    beta's echelon rows: alpha is the cocycle row at each pivot of
    basic_cohomology's representatives, beta each invariant basis row.  Its
    class is one class read in the cell, which also checks that it lies in
    Z_2.  f_rank is the rank of those sparse columns.
    """
    bc = basic_cohomology(model)
    inv = invariant_subcomplex(model.lie)
    n = model.lie.n
    cells = []
    f_columns = {}
    betas = []
    for q in range(n + 1):
        idx = multi_indices(n, q)
        betas.append([[(idx[j], b) for j, b in inv[q].sparse_row(pivot).items()]
                      for pivot in inv[q].echelon()])
    for p, hp in enumerate(bc):
        gens_p = model.basic.gens_of_degree(p)
        alphas = [[(gens_p[j], a) for j, a in hp.space.sparse_row(pivot).items()]
                  for pivot in hp.pivots]
        for q in range(n + 1):
            # a spot outside the E_0 support has no cell: E_2 is zero there
            cell = pg2.cells.get((p, q))
            prod = hp.dim * inv[q].dim
            if cell is None:
                cols = [{} for _ in range(prod)]
            else:
                _, pos = degree_basis(model, p + q)
                cols = []
                for alpha in alphas:
                    for beta in betas[q]:
                        y = cell.class_of(
                            {pos[(g, I)]: a * b for g, a in alpha for I, b in beta})
                        if y is None:
                            raise CertificateError(
                                "tensor representative not d-compatible", (p, q), 2
                            )
                        cols.append(y)
            e2_dim = 0 if cell is None else cell.dim
            cells.append(E2Cell(p, q, prod, e2_dim, sparse_rank(cols)))
            f_columns[(p, q)] = cols
    return E2Frames(pg2, tuple(cells), f_columns, bc, inv)


def e2_tensor_check(model: EquivariantModel, frames: E2Frames) -> E2Report:
    """Verdict on E_2 ~= H(B, d_hor) (x) H(algebra), cell by cell.

    frames are _e2_frames(model, pg2) on page 2 of model's spectral sequence.
    """
    ok = all(c.ok for c in frames.cells)
    return E2Report(
        frames.cells,
        "isomorphism" if ok else "mismatch",
        _lie_realization_ok(model.lie, frames.invariants),
    )


def d2_transgression(frames: E2Frames) -> dict[tuple[int, int], Matrix]:
    """d_2 written in the tensor bases, per source cell with nonzero product dim.

    Entry at (p, q) maps H^p(B) (x) H^q to H^(p+2)(B) (x) H^(q-1) coordinates:
    F_target^-1 d_2 F_source, computed column by column.  Page 2's sparse d_2
    columns are applied to each sparse column of F_source, and F_target x =
    y is solved through one tagged echelon of F_target's columns per target
    cell (qlinalg.solve_columns), with no dense product and no inverse; a y
    outside their span raises CertificateError at the target cell, page 2.
    Only the returned matrix is dense, with Fraction entries.  Requires the
    tensor check to pass, otherwise the frames are not invertible and there
    is no honest change of basis.
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
            out[src] = Matrix.zero(0, cell.product_dim)
            continue
        d2 = [tuple(col.items()) for col in frames.page2.dr[src]]
        images = [apply_sparse(d2, x) for x in frames.f_columns[src]]
        try:
            cols = solve_columns(f_tgt, images)
        except ValueError:
            raise CertificateError("d_2 not solvable in the target frame", tgt, 2) from None
        out[src] = Matrix.from_columns(cols, len(f_tgt))
    return out


class Analysis:
    """Every report stage of one model, each computed once, on first use.

    The stages past validation start at `filtration`, which refuses a model
    that fails validation (`valid`).  `validation`, the (Lie, model)
    reports of this model where they were already run, stands in for
    running them again.
    """

    def __init__(self, model: EquivariantModel,
                 validation: tuple[ValidationReport, ValidationReport] | None = None):
        self.model = model
        if validation is not None:
            self.lie_validation, self.model_validation = validation

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
        """Every page's summary from the persistence pairing, and page 2 built
        alone, whose cell dims and d_2 ranks must be the pairing's, cell by cell."""
        fc = self.filtration
        pairing = persistence_pairing(fc)
        pages = tuple(pairing.summary(r) for r in range(pairing.stabilization + 1))
        pg2 = page(fc, 2)
        want = pages[2]
        for pq, cell in pg2.cells.items():
            got = (cell.dim, pg2.ranks.get(pq, 0))
            paired = (want.dims.get(pq, 0), want.d_ranks.get(pq, 0))
            if got != paired:
                raise CertificateError(
                    f"page 2 dims = pairing dims fails: dim and d_2 rank {got} on page 2, "
                    f"{paired} by the pairing", pq, 2)
        return pages, pg2

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
    def transgression(self) -> dict[tuple[int, int], Matrix]:
        return d2_transgression(self.frames) if self.e2.passed else {}
