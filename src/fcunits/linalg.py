"""Exact dense linear algebra over the scalar fields.

Vectors are lists, and matrices lists of rows, of canonical raw values of
a single field (see `fields`).  Dimensions are capped upstream
(subalgebras stay at 64 basis elements or fewer), so plain Gaussian
elimination with first-nonzero pivoting is all we need.

`SpanBasis` is the one Gaussian elimination: it eliminates with the
field's raw operations, reducing each coordinate once per elimination,
and hands back canonical values.  `rref` reads the reduced echelon form
off a `SpanBasis` of the rows, and the whole-matrix routines (`solve`,
`kernel_basis`) read their answers off `rref`.
"""

from __future__ import annotations

from itertools import repeat


def rref(field, rows):
    """Reduced row echelon form; returns (new rows, pivot column list).

    The rows of a `SpanBasis` of the row space, sorted by leading column,
    are the unique reduced echelon form; zero rows pad it to the input's
    row count."""
    ncols = len(rows[0]) if rows else 0
    S = SpanBasis(field, ncols)
    for row in rows:
        S.add(row)
    echelon = sorted(zip(S._leads, S._rows))
    R = [row for _, row in echelon]
    R += [[field.raw_zero] * ncols for _ in range(len(rows) - len(R))]
    return R, [lead for lead, _ in echelon]


def solve(field, rows, rhs):
    """One solution x of (rows) x = rhs, or None when inconsistent.

    Free variables are set to zero.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    R, pivots = rref(field, aug)
    if n in pivots:
        return None
    x = [field.raw_zero] * n
    for i, col in enumerate(pivots):
        x[col] = R[i][n]
    return x


def kernel_basis(field, rows, ncols):
    """A basis of the right kernel of the matrix."""
    R, pivots = rref(field, rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.raw_zero] * ncols
        vec[free] = field.raw_one
        for i, col in enumerate(pivots):
            vec[col] = field.reduce(field.raw_neg(R[i][free]))
        basis.append(vec)
    return basis


def _minus_multiple(field, x, c, y):
    """x - c*y on raw values, unreduced."""
    return list(map(field.raw_sub, x, map(field.raw_mul, repeat(c), y)))


class SpanBasis:
    """Incremental echelon basis of a subspace, with coordinate tracking.

    `add` inserts a vector and reports whether the span grew; `coordinates`
    expresses a vector as a combination of the *inserted* vectors (the ones
    for which add returned True), or returns None when it lies outside.
    The rows and combinations kept inside are canonical raw values, and
    so are the coordinates handed back.
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = []          # raw echelon rows, leading entry 1
        self._leads = []         # leading column per row
        self._combos = []        # each row as a raw combination of inserted
        self.inserted = []       # the vectors whose insertion grew the span

    @property
    def dim(self):
        return len(self._rows)

    def _reduce(self, vec):
        """The raw remainder of vec against the rows, and the coefficient
        of each row.  Every row is zero in the other rows' leading columns,
        so the coefficients can all be read off vec before eliminating."""
        field = self.field
        zero = field.raw_zero
        v = vec
        coeffs = [v[lead] for lead in self._leads]
        for c, row in zip(coeffs, self._rows):
            if c != zero:
                v = _minus_multiple(field, v, c, row)
        return list(map(field.reduce, v)), coeffs

    def coordinates(self, vec):
        field = self.field
        zero = field.raw_zero
        v, coeffs = self._reduce(vec)
        if any(x != zero for x in v):
            return None
        out = [zero] * len(self.inserted)
        for c, combo in zip(coeffs, self._combos):
            if c != zero:
                out = list(map(field.raw_add, out,
                               map(field.raw_mul, repeat(c), combo)))
        return list(map(field.reduce, out))

    def contains(self, vec):
        zero = self.field.raw_zero
        v, _ = self._reduce(vec)
        return all(x == zero for x in v)

    def add(self, vec):
        field = self.field
        zero, mul, reduce = field.raw_zero, field.raw_mul, field.reduce
        v, coeffs = self._reduce(vec)
        lead = next((i for i, x in enumerate(v) if x != zero), None)
        if lead is None:
            return False
        inv = field.raw_inv(v[lead])
        v = [reduce(mul(x, inv)) for x in v]
        combo = [zero] * len(self.inserted)
        for c, prev in zip(coeffs, self._combos):
            if c != zero:
                combo = _minus_multiple(field, combo, c, prev)
        combo.append(field.raw_one)
        combo = [reduce(mul(x, inv)) for x in combo]
        self.inserted.append(list(vec))
        for existing in self._combos:
            existing.append(zero)
        # keep all rows fully reduced so _reduce stays a single pass
        for i, row in enumerate(self._rows):
            c = row[lead]
            if c != zero:
                self._rows[i] = list(map(
                    reduce, _minus_multiple(field, row, c, v)))
                self._combos[i] = list(map(
                    reduce, _minus_multiple(field, self._combos[i], c, combo)))
        self._rows.append(v)
        self._leads.append(lead)
        self._combos.append(combo)
        return True
