"""Spectral sequence of a filtered cochain complex, every page, exactly.

For a decreasing filtration F^0 >= F^1 >= ... compatible with the degree +1
differential d, page r is

    E_r^{p,q} = Z_r^{p,q} / ( d Z_{r-1}^{p-r+1, q+r-2} + Z_{r-1}^{p+1, q-1} )
    Z_r^{p,q} = { x in F^p C^{p+q} : d x in F^{p+r} C^{p+q+1} }

with F^p = C for p <= 0, and d_r : E_r^{p,q} -> E_r^{p+r, q-r+1} is induced
by d on representatives.

Every filtration level here is a coordinate prefix: F^p C^m is spanned by the
first k(p, m) basis vectors, and the complex keeps only the prefix lengths
k(p, m), never F^p as a subspace.  So index order is filtration order, and
E_0^{p,q} = F^p C^m / F^(p+1) C^m is the coordinate window [k(p+1, m),
k(p, m)), m = p + q.  Where the window is empty the spot is zero on every
page; `FilteredComplex.support` lists the others once.  The differentials
are very sparse (for a torus acting on itself d is zero), so the complex
keeps each d^m only by the nonzero entries of its columns, read straight off
the model's monomial images; no dense d is built.

Every page comes from one column reduction of d, the persistence pairing
(`persistence_pairing`).  Reducing the columns in index order writes R = D V
with V unipotent upper triangular (Cohen-Steiner, Edelsbrunner & Morozov,
SoCG 2006), which gives each C^m a basis b_j whose largest index is j, with
coefficient 1 there: b_j = R_k / lead where j is the lowest row of a reduced
column k of d^(m-1), and b_j = V_j otherwise.  In this basis d is a
matching, d b_j = lead_j b_low(j) for each pair and zero on every other b_j,
so the spectral sequence splits into intervals (the barcode basis of Basu &
Parida, Expo. Math. 35, 2017).  An unpaired b_j is one dimension at its
spot on every page.  A pair of gap g, the level of its row less that of its
column, is one dimension at each end on the pages r <= g, where d_g joins
them.  `Pairing.summary` counts every page's dims and d_r ranks off the
pairs, and E_infinity is the page one past the largest gap >= 2.

Page 2 also keeps its classes, which the E_2 frames and the transgression
read (`second_page`).  An index of a window is alive at page 2 unless its
pair, as column or as row, has gap 0 or 1; call the rows of those pairs
boundaries.  Read on the window's indices that are not columns of such
pairs, Z_2^p is the whole coordinate space, with the triangular basis of
the unit vectors at the alive indices and the b_l of the boundaries l, and
the divisor of E_2^p is spanned by those b_l.  So the alive unit vectors
represent a basis of E_2, and the class of x in Z_2^p is what is left of x
at the alive indices once the b_l are taken off it, from the top of the
window down.  The pairing keeps each such b_l only by its part inside its
window (`Pairing.tails`), a part of R; V is not kept.  The class read first
checks that x lies in Z_2^p, by its largest index and by d x in F^(p+2).
d_2 of a class is the class of d of a representative in the target cell,
which is how the frames read it, and its rank at each cell is the number of
pairs of gap 2 there.  No page is built as quotients and no kernel is taken.

The filtration of the invariant-forms model is by chi-count complement:
F^p C^m is spanned by monomials of horizontal degree >= p, which come first
in the monomial basis, and the filtration reads every k(p, m) off
model.prefix_levels, a count over the blocks B^p (x) Lambda^(m-p) that
lists no monomial.  The window of spot (p, q) is then B^p (x) Lambda^q,
so only the spots with B^p != 0 and q <= n get cells, not the whole
triangle 0 <= p <= m up to the top degree.  Page r = 0 and r = 1 are
bookkeeping pages of the bigraded model; the geometric content starts at
r = 2.

`AbutmentReport` compares E_infinity with total cohomology degree by
degree, with the total ranks counted on the same columns by
qlinalg.cohomology_dims.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .model import EquivariantModel, prefix_levels, total_columns
from .qlinalg import _ratio, apply_sparse


class FilteredComplex(namedtuple("FilteredComplex", "dims d_columns prefix")):
    """Finite cochain complex over Q with a decreasing, exhaustive prefix filtration.

    dims[m] is the ambient dimension of C^m for 0 <= m < len(dims);
    d_columns[m] is d^m : C^m -> C^(m+1) column by column (the top one maps
    to zero): column j holds the (row, value) pairs of the nonzero entries of
    d e_j, in increasing row order;
    prefix[m][p] = k(p, m) for 0 <= p <= m+1: F^p C^m is spanned by the
    first k(p, m) coordinates, with k(0, m) = dims[m] and k(m+1, m) = 0.
    support is derived on first read and kept in the instance dict, outside
    the fields.
    """

    def cut(self, p: int, m: int) -> int:
        """k(p, m) = dim F^p C^m, with F^p = C for p <= 0 and F^p = 0 deep enough."""
        if not 0 <= m < len(self.dims):
            return 0
        if p <= 0:
            return self.dims[m]
        levels = self.prefix[m]
        return levels[p] if p < len(levels) else 0

    @cached_property
    def support(self) -> tuple[tuple[int, int, int, int], ...]:
        """(p, q, lo, hi) for each nonempty E_0 window [lo, hi) = [k(p+1, m), k(p, m)).

        m = p + q; in order of m, then p.  These are the spots that get a
        cell on every page.  Each degree is walked down from p = m only until
        k(p, m) reaches dim C^m: the levels do not decrease as p falls, so
        every window below that is empty.
        """
        out = []
        for m, levels in enumerate(self.prefix):
            spots = []
            p, hi = m + 1, 0
            while hi < levels[0]:
                p -= 1
                lo, hi = hi, levels[p]
                if lo != hi:
                    spots.append((p, m - p, lo, hi))
            out.extend(reversed(spots))
        return tuple(out)


def cartan_filtration(model: EquivariantModel) -> FilteredComplex:
    """Filtration by horizontal degree of the invariant-forms model.

    The monomial basis of each degree is ordered by descending horizontal
    degree, so each F^p is a coordinate prefix, and its length k(p, m) is
    counted, not read off a basis (model.prefix_levels).  d is read
    column-sparse off the model's monomial images, placed by the same
    count (model.total_columns).  The model must pass validate_model.
    """
    levels = prefix_levels(model)
    return FilteredComplex(tuple(k[0] for k in levels), total_columns(model, levels), levels)


class PageSummary(namedtuple("PageSummary", "r dims d_ranks")):
    """One page as reported: nonzero cell dims and nonzero d_r ranks."""

    __slots__ = ()


class Pairing(namedtuple("Pairing", "sizes pairs tails")):
    """The persistence pairing of d, and every page's dims and d_r ranks from it.

    sizes[(p, q)] is dim E_0^(p,q), in the order of the E_0 support; pairs
    holds (p, q, g, j, low) per pair: its column's spot, its gap g, so its
    row sits at d_g's target (p + g, q - g + 1), column j of d^(p+q) and
    the lowest row of its reduced column R_j.  tails[m] holds, for each lowest row l in C^m of a
    pair of gap 0 or 1, the part of b_l = R_j / lead strictly inside l's E_0
    window, as {index: value}, where that part is nonzero.
    """

    __slots__ = ()

    def summary(self, r: int) -> PageSummary:
        """Page r: a basis element counts at its spot unless it is paired with gap < r."""
        dims = dict(self.sizes)
        ranks: dict[tuple[int, int], int] = {}
        for p, q, g, _, _ in self.pairs:
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
        return 1 + max((g for _, _, g, _, _ in self.pairs if g >= 2), default=1)


def persistence_pairing(fc: FilteredComplex) -> Pairing:
    """The column reduction of persistent homology on each d^m, as it stands.

    Every F^p is a coordinate prefix, so index order is filtration order
    (Edelsbrunner, Letscher & Zomorodian, DCG 28, 2002; Basu & Parida, Expo.
    Math. 35, 2017).  Each column, a dict of exact values, is reduced by the
    earlier ones until its lowest nonzero row, the largest index and so the
    lowest level, is one no other column holds, and pairs with that row.  A
    column that was a lowest row of d^(m-1) is skipped: the cocycle that
    paired it makes it a combination of earlier columns.  Each reduced
    column is scaled to 1 at its lowest row; where its gap is 0 or 1, its
    part inside that row's window is kept for page 2, and the rest of each
    degree's reduced columns go once the degree is done.
    """
    # levels[m][j]: the filtration level of basis vector j of C^m
    levels = [[0] * dim for dim in fc.dims]
    for p, q, lo, hi in fc.support:
        levels[p + q][lo:hi] = [p] * (hi - lo)
    pairs = []
    tails: list[dict] = [{} for _ in fc.dims]
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
                reduced[low] = scaled = {i: _ratio(v, a) for i, v in x.items()}
                p = levels[m][j]
                g = levels[m + 1][low] - p
                pairs.append((p, m - p, g, j, low))
                if g < 2:
                    lo = fc.cut(p + g + 1, m + 1)
                    tail = {i: v for i, v in scaled.items() if i >= lo}
                    if tail:
                        tails[m + 1][low] = tail
        cleared = set(reduced)
    return Pairing({(p, q): hi - lo for p, q, lo, hi in fc.support}, tuple(pairs),
                   tuple(tails))


class WindowCell(namedtuple("WindowCell", "lo hi bound alive tails d_columns")):
    """E_2 at one spot (p, q) of the E_0 support, on its window [lo, hi).

    alive maps each index of the window alive at page 2 to its class index,
    in increasing order; tails[l] is the part inside the window of b_l for
    each boundary l of the window where it is nonzero (`Pairing.tails`);
    d_columns are d's columns in degree m = p + q, and bound is
    k(p + 2, m + 1).
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.alive)

    def class_of(self, x: dict[int, Fraction],
                 dx: dict[int, Fraction] | None = None) -> dict[int, Fraction] | None:
        """The class of x, given by its nonzero entries, or None when x is not in Z_2.

        x lies in Z_2^p when it has no entry at or past hi and d x none at or
        past bound.  dx is d x where the caller already has it; otherwise it
        is computed here.  On the window, x is then a combination of the unit
        vectors at the alive indices and the b_l of the boundaries, which
        together are triangular: from the top down, what is left of x at a
        boundary l is b_l's coefficient, and b_l's tail takes it off the
        entries below.  What is left at the alive indices is the class.
        Entries below lo lie in F^(p+1), and those at a column paired with
        gap 0 or 1 follow from the others, so neither is read.
        """
        if x and max(x) >= self.hi:
            return None
        if dx is None:
            dx = apply_sparse(self.d_columns, x)
        if dx and max(dx) >= self.bound:
            return None
        alive, tails = self.alive, self.tails
        heap = [-j for j in x if j in tails]
        rest = dict(x) if heap else x
        heapify(heap)
        while heap:
            l = -heappop(heap)
            c = rest.pop(l)
            if not c:
                continue
            for i, a in tails[l].items():
                v = rest.get(i)
                if v is None:
                    rest[i] = -c * a
                    if i in tails:
                        heappush(heap, -i)
                else:
                    rest[i] = v - c * a
        return {alive[j]: a for j, a in rest.items() if a and j in alive}


def second_page(fc: FilteredComplex, pairing: Pairing) -> dict[tuple[int, int], WindowCell]:
    """Page 2's cells, one WindowCell per spot of the E_0 support, off the pairing.

    An index of a window is alive at page 2 unless its pair, as column or
    as row, has gap 0 or 1, and the unit vectors at the alive indices, in
    increasing order, represent the cell's basis classes.  The tails of the
    window's boundaries are the pairing's.
    """
    dead: list[set] = [set() for _ in fc.dims]
    for p, q, g, j, low in pairing.pairs:
        if g < 2:
            dead[p + q].add(j)
            dead[p + q + 1].add(low)
    cells = {}
    for p, q, lo, hi in fc.support:
        m = p + q
        found, alive, tails = pairing.tails[m], {}, {}
        for j in range(lo, hi):
            if j in found:
                tails[j] = found[j]
            elif j not in dead[m]:
                alive[j] = len(alive)
        cells[(p, q)] = WindowCell(lo, hi, fc.cut(p + 2, m + 1), alive, tails, fc.d_columns[m])
    return cells


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
