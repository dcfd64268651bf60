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

`FilteredComplex.support` lists the nonempty E_0 windows once, and every
page walks that list.  `iter_pages` builds the pages one after another over
one cache.  Z_r is kept under its block of d, (m, k(p, m), k(p+r, m+1)), so
where the row cut does not move Z_r is Z_(r-1) and no kernel runs again.  A
cell's quotient is kept under its Z block, the block of the Z_(r-1) whose
image is its divisor, and its window: where none of these moved, the page
takes the earlier page's Quotient and applies no d.  After page r the cache
drops every entry page r did not read, so it holds about two pages.
`iter_pages` also decides where the pages stop: at the first page r >= 2
whose d_r is zero and whose nonzero cells leave no room for a later
differential, which is E_infinity.  `verify.Analysis` reads the
stabilization index off that one pass: one past the last r >= 2 with a
nonzero d_r, or 2 when there is none.  `AbutmentReport` compares E_infinity
with total cohomology degree by degree; `verify.Analysis` fills it in, with
the total ranks counted on the same columns by qlinalg.cohomology_dims.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .model import EquivariantModel, degree_basis, max_total_degree, total_columns
from .qlinalg import (
    Quotient,
    SparseColumns,
    Subspace,
    apply_sparse,
    column_rows,
    quotient_map,
    sparse_kernel,
    sparse_rank,
)
from .reports import CertificateError


@dataclass(frozen=True)
class FilteredComplex:
    """Finite cochain complex over Q with a decreasing, exhaustive prefix filtration.

    dims[m] is the ambient dimension of C^m for 0 <= m < len(dims);
    d_columns[m] is d^m : C^m -> C^(m+1) column by column (the top one maps
    to zero): column j holds the (row, value) pairs of the nonzero entries of
    d e_j, in increasing row order;
    prefix[m][p] = k(p, m) for 0 <= p <= m+1: F^p C^m is spanned by the
    first k(p, m) coordinates, with k(0, m) = dims[m] and k(m+1, m) = 0.
    """

    dims: tuple[int, ...]
    d_columns: tuple[SparseColumns, ...]
    prefix: tuple[tuple[int, ...], ...]

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


@dataclass(frozen=True)
class SpectralPage:
    """Page r: its cells, d_r per source cell, and the rank of each d_r.

    cells[(p, q)] is E_r^(p,q) at a spot of the E_0 support, the Quotient
    presentation of Z_r: its space is Z_r in C^(p+q) coordinates, its reps
    are coset representatives and class_of reads the class of a vector.
    dr[pq] holds d_r at a nonzero cell pq by its sparse columns, one
    {class index: value} per representative of the cell, in the
    coordinates of the target cell (p + r, q - r + 1); where there is no
    nonzero target every column is empty.  ranks[pq] is the rank of dr[pq],
    counted from the same columns.
    """

    r: int
    cells: dict[tuple[int, int], Quotient]
    dr: dict[tuple[int, int], list[dict[int, Fraction]]]
    ranks: dict[tuple[int, int], int] = field(compare=False)

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: c.dim for pq, c in self.cells.items() if c.dim}

    def dr_is_zero(self) -> bool:
        return not any(self.ranks.values())


class _PageCache(dict):
    """The spaces and quotients of the page pass, by key; remembers the keys asked for.

    `keep_read` drops every entry that no `get` asked for since the last
    call, so between pages the cache holds what the last page read.
    """

    def __init__(self):
        super().__init__()
        self.read: set = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def keep_read(self) -> None:
        for key in self.keys() - self.read:
            del self[key]
        self.read = set()


def _kernel(fc: FilteredComplex, block: tuple[int, int, int], cache: dict) -> Subspace:
    """The kernel of block (m, k, row) of d^m, rows row: and columns :k, in C^m.

    A block with no nonzero entry, which `FilteredComplex.reach` tells with
    no rows gathered, has all of F^p as its kernel: the prefix [0, k).  Any
    other block is one `sparse_kernel` of its rows read off d's columns,
    padded with zeros to C^m; zero columns appended to a reduced echelon
    basis leave it reduced, so the result is the canonical basis.  Cached
    under the block, so every Z_r with the same block is one kernel.
    """
    hit = cache.get(block)
    if hit is not None:
        return hit
    m, k, row = block
    if k == 0 or fc.reach[m][k] <= row:
        out = Subspace.prefix_space(fc.ambient(m), k)
    else:
        rows = column_rows(fc.d_columns[m][:k], row)
        out = Subspace.from_echelon(fc.ambient(m), sparse_kernel(rows, k))
    cache[block] = out
    return out


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


def page(fc: FilteredComplex, r: int, _cache: dict | None = None) -> SpectralPage:
    """The r-th page with its differential, one cell per spot of the E_0 support.

    E_0^(p,q) is F^p C^m / F^(p+1) C^m, the coordinate window
    [k(p+1, m), k(p, m)) with m = p + q, so a spot whose window is empty is
    zero on every page and gets no cell (`FilteredComplex.support`).  Each
    other spot is E_r = pi(Z_r^p) / pi(d Z_(r-1)^(p-r+1)), pi the
    projection onto its window: Z_r^p meets F^(p+1) in Z_(r-1)^(p+1), which
    is the rest of the divisor, so quotient_map works on the window columns
    alone.  It still checks that d Z_(r-1)^(p-r+1) lies in Z_r^p, and the
    representatives are rows of Z_r^p in C^m.

    A cell's quotient depends only on the block of Z_r^p, the block of
    Z_(r-1)^(p-r+1) that d maps into the divisor, and the window, so the
    cache keeps it under those three: a spot where none of them moved since
    an earlier page takes that page's Quotient, with no d applied and no
    quotient_map.

    d_r of a representative is d applied to its sparse echelon row, and its
    class in the target cell is one class read: the elimination through the
    target's Z_r that checks containment also gives the coordinates.  Those
    classes are d_r's columns, kept sparse in SpectralPage.dr.
    """
    if r < 0:
        raise ValueError("page index must be >= 0")
    cache: dict = {} if _cache is None else _cache
    cells: dict[tuple[int, int], Quotient] = {}
    for p, q, lo, hi in fc.support:
        m = p + q
        z_block = (m, hi, fc.cut(p + r, m + 1))
        born_block = (m - 1, fc.cut(p - r + 1, m - 1), hi)
        z = _kernel(fc, z_block, cache)
        # read also where the cell is kept, so that a later page whose Z
        # block moves but whose born block does not finds it in the cache
        born = _kernel(fc, born_block, cache)
        key = (z_block, born_block, lo)
        quot = cache.get(key)
        if quot is None:
            try:
                quot = quotient_map(z, _boundaries(fc, m, born), window=(lo, hi))
            except ValueError:
                raise CertificateError(f"divisor escapes Z_{r}", (p, q), r) from None
            cache[key] = quot
        cells[(p, q)] = quot
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


def iter_pages(fc: FilteredComplex) -> Iterator[SpectralPage]:
    """Pages E_0, E_1, ..., each built once, ending with E_infinity.

    Page E_r, r >= 2, is E_infinity when d_r is zero and no two nonzero cells
    sit at (p, q) and (p+s, q-s+1) for any s > r: every later page is a
    subquotient of E_r, so no later d_s can be nonzero.  Past the largest gap
    in p between nonzero cells no such pair is left and d_r is zero, so the
    pages end by r = len(fc.dims) + 1, two past the top degree.

    The pages share one cache of kernels by block and of quotients by cell
    key (`page`), so each is computed once per run wherever later pages do
    not move it.  After page r the cache drops every entry page r did not
    read, which keeps it at about two pages' worth.
    """
    cache = _PageCache()
    r = 0
    while True:
        pg = page(fc, r, cache)
        yield pg
        if r >= 2 and pg.dr_is_zero():
            dims = pg.dims()
            if not any((p + s, q - s + 1) in dims
                       for p, q in dims for s in range(r + 1, q + 2)):
                return
        cache.keep_read()
        r += 1


@dataclass(frozen=True)
class AbutmentRow:
    """Degree k: the sum of dim E_infinity^(p,q) over p + q = k against dim H^k."""

    degree: int
    stable_total: int
    cohomology_dim: int

    @property
    def ok(self) -> bool:
        return self.stable_total == self.cohomology_dim


@dataclass(frozen=True)
class AbutmentReport:
    rows: tuple[AbutmentRow, ...]
    stabilization: int

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)
