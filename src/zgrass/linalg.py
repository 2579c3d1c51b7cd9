"""Small exact linear algebra over Fraction and over coefficient rings.

Matrices are plain lists of lists.  det_unit is the one Gaussian
elimination (det_field is det_unit over Fraction); det_ring expands, over
rings without unit pivots.  _is_unit is the one pivot test, shared with the
skew elimination of pfaffian.pfaffian.  echelon is the one row reduction
over a field: it reads sparse rows one at a time, each in one pass over its
own keys against a basis it keeps reduced, since the systems it solves have
many more rows than rank.  Frames and orbit profiles read their answers off
it.
kernel, the sparse kernel of residue complements and stabilizers, reads a
reduced basis: echelon's, or a canonical frame's rows as they are.  rref
and nullspace are their dense views.  Exactness is the point.
"""

from fractions import Fraction

from .errors import ZgrassError
from .series import _inv_coeff


def det_field(rows):
    """Determinant over Fraction: det_unit on the entries read as Fraction.

    Over a field every nonzero pivot is a unit, so det_unit never refuses.
    """
    return det_unit([list(map(Fraction, r)) for r in rows])


def det_ring(rows):
    """Division-free determinant over any commutative ring.

    Laplace expansion along successive columns, memoized on the set of rows
    still in play -- O(2^n * n) ring operations, fine for n <= ~18.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    memo = {}

    def go(idx):
        if not idx:
            return Fraction(1)
        if idx in memo:
            return memo[idx]
        col = n - len(idx)
        total = Fraction(0)
        for pos, r in enumerate(idx):
            a = rows[r][col]
            if not a:
                continue
            sub = go(idx[:pos] + idx[pos + 1 :])
            if not sub:
                continue
            term = a * sub
            total = total + term if pos % 2 == 0 else total - term
        memo[idx] = total
        return total

    return go(tuple(range(n)))


def det_unit(rows):
    """Gaussian determinant, the signed product of unit pivots.

    Each column pivots on its first unit (_is_unit).  Raises ZgrassError
    when a column's nonzero entries hold no unit; callers fall back to
    det_ring.  Over int or Fraction it never raises (det_field).
    """
    n = len(rows)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if _is_unit(a[r][col])), None)
        if piv is None:
            if any(a[r][col] for r in range(col, n)):
                raise ZgrassError("no unit pivot in column")
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col][col]
        pinv = _inv_coeff(p)
        det = det * p
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * pinv
                for c in range(col, n):
                    a[r][c] = a[r][c] - f * a[col][c]
    return det


def _is_unit(x):
    """Whether x can be a pivot: a nonzero rational (int or Fraction), or a
    ring element with a nonzero constant term (weight-truncated parameter
    polynomials)."""
    if isinstance(x, (int, Fraction)):
        return x != 0
    return hasattr(x, "constant_term") and x.constant_term() != 0


def echelon(rows):
    """Reduced echelon basis of sparse rows, each a dict {key: value}.

    The one row reduction in zgrass.  The basis stays reduced as it grows, so
    a row is reduced in one pass over its own keys: v[p] * basis[p] off for
    each pivot p among them.  A row that keeps a nonzero entry joins, monic
    at its smallest key (inverted with series._inv_coeff, so any ring whose
    pivots are units works), and that key is cleared from the other rows.

    Returns (basis, kept): basis maps each pivot to its row, in the order the
    pivots were found, and kept lists the indices of the input rows that
    added a pivot, in input order.
    """
    basis = {}
    kept = []
    for i, r in enumerate(rows):
        v = dict(r)
        for p in [p for p in v if p in basis]:
            _axpy(v, -v[p], basis[p])
        if not v:
            continue
        lead = min(v)
        inv = _inv_coeff(v[lead])
        row = {c: x * inv for c, x in v.items()}
        for other in basis.values():
            f = other.get(lead)
            if f:
                _axpy(other, -f, row)
        basis[lead] = row
        kept.append(i)
    return basis, kept


def _sparse(rows):
    """Dense rows as sparse {column: Fraction} rows, zeros left out."""
    return ({c: Fraction(x) for c, x in enumerate(r) if x} for r in rows)


def rref(rows):
    """Reduced row echelon form over Fraction.  Returns (matrix, pivot_cols).

    A dense view of echelon: the matrix keeps the input's row count, the
    pivot rows in column order, then zero rows.
    """
    width = len(rows[0]) if rows else 0
    basis, _ = echelon(_sparse(rows))
    pivots = sorted(basis)
    zero = Fraction(0)
    a = [[basis[p].get(c, zero) for c in range(width)] for p in pivots]
    a += [[zero] * width for _ in range(len(rows) - len(pivots))]
    return a, pivots


def _axpy(v, f, w):
    """v += f * w on sparse rows, dropping the entries that vanish."""
    for c, x in w.items():
        y = v.get(c, 0) + f * x
        if y:
            v[c] = y
        else:
            # over a capped ring f * x itself can vanish
            v.pop(c, None)


def kernel(basis, cols):
    """Right kernel of a reduced basis {pivot: row}, echelon's or a canonical
    frame's rows as they are, over the ascending column keys cols.  One index
    over the rows' entries makes the read linear: the vector of each free
    column c is 1 at c, then -row[c] at each pivot whose row reaches c."""
    reach = {}
    for p, row in basis.items():
        for c, x in row.items():
            reach.setdefault(c, {})[p] = -x
    one = Fraction(1)
    return [{c: one, **reach.get(c, {})} for c in cols if c not in basis]


def nullspace(rows, ncols):
    """Dense view of kernel: one list per free column of the matrix."""
    zero = Fraction(0)
    return [[v.get(c, zero) for c in range(ncols)]
            for v in kernel(echelon(_sparse(rows))[0], range(ncols))]
