"""Spectral sequence of a filtered cochain complex, every page, exactly.

For a decreasing filtration F^0 >= F^1 >= ... compatible with the degree +1
differential d, the pages are computed from the general-position spaces

    Z_r^{p,q} = { x in F^p C^{p+q} : d x in F^{p+r} C^{p+q+1} }
    E_r^{p,q} = Z_r^{p,q} / ( d Z_{r-1}^{p-r+1, q+r-2} + Z_{r-1}^{p+1, q-1} )

with F^p = C for p <= 0, so the formulas hold uniformly for all r >= 0.  The
differential d_r : E_r^{p,q} -> E_r^{p+r, q-r+1} is induced by d on
representatives; every quotient is realized by explicit coset representatives
plus a coordinate projection, so induced maps are honest matrices.

Every filtration level here is a coordinate prefix: F^p C^m is spanned by the
first k(p, m) basis vectors, and the complex keeps only the prefix lengths
k(p, m), never F^p as a subspace.  So Z_r is the kernel of the block of d
with rows k(p+r, m+1): and columns :k(p, m), padded with zeros (`_kernel`),
and no subspace intersection is needed.

The pages are built on the associated graded.  E_0^{p,q} = F^p C^m / F^(p+1)
C^m is the coordinate window [k(p+1, m), k(p, m)), m = p + q; where it is
empty, the spot is zero on every page and no cell is built.  Since
Z_r^p meets F^(p+1) in exactly Z_(r-1)^(p+1), the divisor's second part is
what the projection pi onto the window forgets, and

    E_r^{p,q} = pi(Z_r^p) / pi(d Z_(r-1)^(p-r+1)),

one pass of qlinalg.quotient_map over the window columns.  That pass also
checks that d Z_(r-1)^(p-r+1) lies in Z_r^p, and its representatives are
rows of Z_r^p in C^m, the same ones the full quotient would choose.

The differentials are very sparse (for a torus acting on itself d is zero),
so the complex keeps each d^m only by the nonzero entries of its columns,
read straight off the model's monomial images; no dense d is built.  Every
space is sparse first: Z_r is one qlinalg.sparse_kernel of the block's rows,
gathered from those columns by qlinalg.column_rows, and is kept by its
echelon.  A block with no nonzero entry, which the running maximum of the
lowest row in d's columns (`FilteredComplex.reach`) tells with no rows
gathered, has all of F^p as its kernel without an elimination: Z_r is then
the prefix form of qlinalg.Subspace, kept as its length k(p, m).  Such a
Z_r is very common (on a torus acting on itself every block is zero), and
nothing that reads it eliminates: its quotient checks the divisor by its
entries past k(p, m) and is the window itself where no divisor is left
there, its class reads are entry checks, and d of one of its rows is a
column of d.  d Z_(r-1) and d_r are applied through the columns (`_image`).
d_r applies d to each representative's sparse echelon row and reads the
class of the image in the target cell by one elimination through the
target's Z_r (qlinalg.Quotient.class_of), which is also the check that it
lies in Z_r; no vector of C^m is built dense.  The page keeps d_r as
those sparse columns, one class per representative, and its rank is
counted from them; the transgression reads page 2's d_2 from them too.  A
Subspace's dense basis and a cell's dense reps and proj are built only
when read, which the page pass never does, so the page pass builds no
Matrix.

The filtration of the invariant-forms model is by chi-count complement:
F^p C^m is spanned by monomials of horizontal degree >= p, which come first
in the monomial basis.  The window of spot (p, q) is then B^p (x) Lambda^q,
so only the spots with B^p != 0 and q <= n get cells, not the whole
triangle 0 <= p <= m up to the top degree.  Page r = 0 and r = 1 are
bookkeeping pages of the bigraded model; the geometric content starts at
r = 2.

`FilteredComplex.support` lists the nonempty E_0 windows once, and a page
walks that list.  `verify.Analysis` builds only page 2 as quotients, whose
representatives and d_2 the frames, the E_2 check and the transgression
read.  Every page's dims and d_r ranks, E_infinity and the stabilization
come from one persistence pairing of d (`persistence_pairing`), which
`verify.Analysis` checks against page 2 cell by cell.  `AbutmentReport`
compares E_infinity with total cohomology degree by degree, with the total
ranks counted on the same columns by qlinalg.cohomology_dims.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from fractions import Fraction

from .model import EquivariantModel, degree_basis, max_total_degree, total_columns
from .qlinalg import (
    Quotient,
    SparseColumns,
    Subspace,
    _ratio,
    apply_sparse,
    column_rows,
    quotient_map,
    sparse_kernel,
    sparse_rank,
)
from .reports import CertificateError, ReadOnly


class FilteredComplex(namedtuple("FilteredComplex", "dims d_columns prefix")):
    """Finite cochain complex over Q with a decreasing, exhaustive prefix filtration.

    dims[m] is the ambient dimension of C^m for 0 <= m < len(dims);
    d_columns[m] is d^m : C^m -> C^(m+1) column by column (the top one maps
    to zero): column j holds the (row, value) pairs of the nonzero entries of
    d e_j, in increasing row order;
    prefix[m][p] = k(p, m) for 0 <= p <= m+1: F^p C^m is spanned by the
    first k(p, m) coordinates, with k(0, m) = dims[m] and k(m+1, m) = 0.
    reach and support are derived on first read and kept in the instance
    dict, outside the fields.
    """

    def ambient(self, m: int) -> int:
        if 0 <= m < len(self.dims):
            return self.dims[m]
        return 0

    def cut(self, p: int, m: int) -> int:
        """k(p, m) = dim F^p C^m, with F^p = C for p <= 0 and F^p = 0 deep enough."""
        if not 0 <= m < len(self.dims):
            return 0
        if p <= 0:
            return self.dims[m]
        levels = self.prefix[m]
        return levels[p] if p < len(levels) else 0

    @cached_property
    def reach(self) -> tuple[tuple[int, ...], ...]:
        """reach[m][k]: one past the lowest nonzero row of d^m's first k columns, or 0.

        A running maximum over d^m's columns, so the block of d^m with rows
        row: and columns :k has a nonzero entry iff reach[m][k] > row.
        """
        out = []
        for cols in self.d_columns:
            run = [0]
            for col in cols:
                run.append(max(run[-1], col[-1][0] + 1) if col else run[-1])
            out.append(tuple(run))
        return tuple(out)

    @cached_property
    def support(self) -> tuple[tuple[int, int, int, int], ...]:
        """(p, q, lo, hi) for each nonempty E_0 window [lo, hi) = [k(p+1, m), k(p, m)).

        m = p + q; in order of m, then p.  These are the spots that get a
        cell on every page.
        """
        return tuple((p, m - p, levels[p + 1], levels[p])
                     for m, levels in enumerate(self.prefix)
                     for p in range(m + 1) if levels[p + 1] != levels[p])


def cartan_filtration(model: EquivariantModel) -> FilteredComplex:
    """Filtration by horizontal degree of the invariant-forms model.

    Monomial bases are ordered by descending horizontal degree, so each F^p
    is a coordinate prefix.  d is read column-sparse off the model's
    monomial images (model.total_columns).  The model must pass
    validate_model.
    """
    top = max_total_degree(model)
    dims = []
    columns = []
    prefix = []
    for m in range(top + 1):
        basis, _ = degree_basis(model, m)
        degrees = [model.basic.degree_of(g) for g, _ in basis]
        dims.append(len(basis))
        columns.append(total_columns(model, m))
        prefix.append(tuple(sum(1 for deg in degrees if deg >= p) for p in range(m + 2)))
    return FilteredComplex(tuple(dims), tuple(columns), tuple(prefix))


class SpectralPage(ReadOnly):
    """Page r: its cells, d_r per source cell, and the rank of each d_r.

    cells[(p, q)] is E_r^(p,q) at a spot of the E_0 support, the Quotient
    presentation of Z_r: its space is Z_r in C^(p+q) coordinates, its reps
    are coset representatives and class_of reads the class of a vector.
    dr[pq] holds d_r at a nonzero cell pq by its sparse columns, one
    {class index: value} per representative of the cell, in the
    coordinates of the target cell (p + r, q - r + 1); where there is no
    nonzero target every column is empty.  ranks[pq] is the rank of dr[pq],
    counted from the same columns; it takes no part in equality and hash,
    which compare r, cells and dr.
    """

    def __init__(self, r: int, cells: dict[tuple[int, int], Quotient],
                 dr: dict[tuple[int, int], list[dict[int, Fraction]]],
                 ranks: dict[tuple[int, int], int]):
        vars(self).update(r=r, cells=cells, dr=dr, ranks=ranks)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.r, self.cells, self.dr) == (other.r, other.cells, other.dr)

    def __hash__(self):
        return hash((self.r, self.cells, self.dr))

    def __repr__(self):
        return (f"{type(self).__qualname__}(r={self.r!r}, cells={self.cells!r}, "
                f"dr={self.dr!r}, ranks={self.ranks!r})")

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: c.dim for pq, c in self.cells.items() if c.dim}

def _kernel(fc: FilteredComplex, block: tuple[int, int, int]) -> Subspace:
    """The kernel of block (m, k, row) of d^m, rows row: and columns :k, in C^m.

    A block with no nonzero entry, which `FilteredComplex.reach` tells with
    no rows gathered, has all of F^p as its kernel: the prefix [0, k).  Any
    other block is one `sparse_kernel` of its rows read off d's columns,
    padded with zeros to C^m; zero columns appended to a reduced echelon
    basis leave it reduced, so the result is the canonical basis.
    """
    m, k, row = block
    if k == 0 or fc.reach[m][k] <= row:
        return Subspace.prefix_space(fc.ambient(m), k)
    rows = column_rows(fc.d_columns[m][:k], row)
    return Subspace.from_echelon(fc.ambient(m), sparse_kernel(rows, k))


def _image(cols: SparseColumns, space: Subspace, pivot: int) -> dict:
    """d of space's basis row at pivot, by its nonzero entries.

    A row of a prefix is the unit vector at its pivot, whose image is that
    column of d; any other row is applied through the columns.
    """
    if space.prefix is not None:
        return dict(cols[pivot])
    return apply_sparse(cols, space.sparse_row(pivot))


def _boundaries(fc: FilteredComplex, m: int, born: Subspace) -> list[dict]:
    """d born in C^m, born a space of C^(m-1): the nonzero images of its basis rows.

    Each is kept by its nonzero entries, {coordinate: value}.
    """
    if born.is_zero():
        return []
    cols = fc.d_columns[m - 1]
    images = (_image(cols, born, pivot) for pivot in born.echelon())
    return [y for y in images if y]


def page(fc: FilteredComplex, r: int) -> SpectralPage:
    """The r-th page with its differential, one cell per spot of the E_0 support.

    E_0^(p,q) is F^p C^m / F^(p+1) C^m, the coordinate window
    [k(p+1, m), k(p, m)) with m = p + q, so a spot whose window is empty is
    zero on every page and gets no cell (`FilteredComplex.support`).  Each
    other spot is E_r = pi(Z_r^p) / pi(d Z_(r-1)^(p-r+1)), pi the
    projection onto its window: Z_r^p meets F^(p+1) in Z_(r-1)^(p+1), which
    is the rest of the divisor, so quotient_map works on the window columns
    alone.  It still checks that d Z_(r-1)^(p-r+1) lies in Z_r^p, and the
    representatives are rows of Z_r^p in C^m.  No two spots share a block of
    d, since their windows are nonempty, so no kernel is kept for another.

    d_r of a representative is d applied to its sparse echelon row, and its
    class in the target cell is one class read: the elimination through the
    target's Z_r that checks containment also gives the coordinates.  Those
    classes are d_r's columns, kept sparse in SpectralPage.dr.
    """
    if r < 0:
        raise ValueError("page index must be >= 0")
    cells: dict[tuple[int, int], Quotient] = {}
    for p, q, lo, hi in fc.support:
        m = p + q
        z = _kernel(fc, (m, hi, fc.cut(p + r, m + 1)))
        born = _kernel(fc, (m - 1, fc.cut(p - r + 1, m - 1), hi))
        try:
            cells[(p, q)] = quotient_map(z, _boundaries(fc, m, born), window=(lo, hi))
        except ValueError:
            raise CertificateError(f"divisor escapes Z_{r}", (p, q), r) from None
    dr: dict[tuple[int, int], list[dict[int, Fraction]]] = {}
    ranks: dict[tuple[int, int], int] = {}
    for (p, q), cell in cells.items():
        if cell.dim == 0:
            continue
        tgt = cells.get((p + r, q - r + 1))
        if tgt is None or tgt.dim == 0:
            dr[(p, q)] = [{} for _ in range(cell.dim)]
            ranks[(p, q)] = 0
            continue
        d_cols = fc.d_columns[p + q]
        cols = []
        for pivot in cell.pivots:
            y = tgt.class_of(_image(d_cols, cell.space, pivot))
            if y is None:
                raise CertificateError("d of a representative escapes Z", (p, q), r)
            cols.append(y)
        dr[(p, q)] = cols
        ranks[(p, q)] = sparse_rank(cols)
    return SpectralPage(r, cells, dr, ranks)


class PageSummary(namedtuple("PageSummary", "r dims d_ranks")):
    """One page as reported: nonzero cell dims and nonzero d_r ranks."""

    __slots__ = ()


class Pairing(namedtuple("Pairing", "sizes pairs")):
    """The persistence pairing of d, and every page's dims and d_r ranks from it.

    sizes[(p, q)] is dim E_0^(p,q), in the order of the E_0 support; pairs
    holds (p, q, g) per pair: its column's spot and its gap g, so its row
    sits at d_g's target (p + g, q - g + 1).
    """

    __slots__ = ()

    def summary(self, r: int) -> PageSummary:
        """Page r: a basis element counts at its spot unless it is paired with gap < r."""
        dims = dict(self.sizes)
        ranks: dict[tuple[int, int], int] = {}
        for p, q, g in self.pairs:
            if g < r:
                dims[(p, q)] -= 1
                dims[(p + g, q - g + 1)] -= 1
            elif g == r:
                ranks[(p, q)] = ranks.get((p, q), 0) + 1
        return PageSummary(r, {pq: d for pq, d in dims.items() if d},
                           {pq: ranks[pq] for pq in self.sizes if pq in ranks})

    @property
    def stabilization(self) -> int:
        """One past the largest gap >= 2, or 2 when there is none: E_infinity's page."""
        return 1 + max((g for _, _, g in self.pairs if g >= 2), default=1)


def persistence_pairing(fc: FilteredComplex) -> Pairing:
    """The column reduction of persistent homology on each d^m, as it stands.

    Every F^p is a coordinate prefix, so index order is filtration order
    (Edelsbrunner, Letscher & Zomorodian, DCG 28, 2002; Basu & Parida, Expo.
    Math. 35, 2017).  Each column, a dict of exact values, is reduced by the
    earlier ones until its lowest nonzero row, the largest index and so the
    lowest level, is one no other column holds, and pairs with that row.  A
    column that was a lowest row of d^(m-1) is skipped: the cocycle that
    paired it makes it a combination of earlier columns.  Each degree's
    reduced columns, scaled to 1 at their lowest row, go once it is done.
    """
    # levels[m][j]: the filtration level of basis vector j of C^m
    levels = [[0] * dim for dim in fc.dims]
    for p, q, lo, hi in fc.support:
        levels[p + q][lo:hi] = [p] * (hi - lo)
    pairs = []
    cleared: set = set()
    for m, cols in enumerate(fc.d_columns):
        reduced: dict[int, dict] = {}
        for j, col in enumerate(cols):
            if not col or j in cleared:
                continue
            x = dict(col)
            low = col[-1][0]
            while low in reduced:
                a = x.pop(low)
                for i, b in reduced[low].items():
                    v = x.get(i, 0) - a * b
                    if v:
                        x[i] = v
                    else:
                        del x[i]
                low = max(x, default=-1)
            if x:
                a = x.pop(low)
                reduced[low] = {i: _ratio(v, a) for i, v in x.items()}
                p = levels[m][j]
                pairs.append((p, m - p, levels[m + 1][low] - p))
        cleared = set(reduced)
    return Pairing({(p, q): hi - lo for p, q, lo, hi in fc.support}, tuple(pairs))


class AbutmentRow(namedtuple("AbutmentRow", "degree stable_total cohomology_dim")):
    """Degree k: the sum of dim E_infinity^(p,q) over p + q = k against dim H^k."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.stable_total == self.cohomology_dim


class AbutmentReport(namedtuple("AbutmentReport", "rows stabilization")):
    """One AbutmentRow per total degree, and the page where the sequence stabilized."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)
