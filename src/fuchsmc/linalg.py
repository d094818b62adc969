"""Dense exact matrices over the Gaussian rationals.

Everything downstream reduces to the primitives here: reduced row echelon
form with its canonical pivot structure, kernel/image bases read off from it,
commutant dimensions, the dimension of a generated matrix algebra, and the
space of intertwiners between two matrix tuples.

An `ExactMatrix` is one positive integer `den` and two tuples of int rows,
`re` and `im`: the matrix is (re + i*im)/den.  The triple is kept reduced
(no prime divides den and every numerator, and the zero matrix has den 1),
so each value has exactly one stored form, equality and hashing compare
ints, and den is the lcm of the entry denominators.  Sums, products,
scaling, stacking and transposes run on the stored ints; `GaussianRational`
appears only at the edge: entries, columns, `rows`, `trace`, the result of
`apply` and the constructor.

The n^2-wide systems behind the last three are the expensive part, so the
predicates built on them try an exact certificate first, and solve the
n^2-wide system only when it does not decide:

- `commutant_dim` reads the dimension off the characteristic polynomial
  (division-free, `modular.berkowitz`, on the live block of nonzero rows,
  `_int_char_poly`), the roots of gcd(chi, chi') lifted from roots mod p,
  and their Weyr counts (`weyr_counts`, over `nullity_chain`, which forms
  no power); with zero rows R and an invertible live block D it is that of
  D plus |R|^2; it solves the Sylvester system only for a repeated
  eigenvalue outside Q(i) (`_commutant_dim_sylvester`);
- `spin_conjugacy` decides simultaneous conjugacy on the n-dimensional
  image of the intertwiners under X -> X e_1, when e_1 is cyclic and that
  image has dimension <= 1;
- irreducibility is certified mod p by Norton's test (`fuchsmc.modular`),
  which tries the scheme's hints, then the residues, then random words,
  and `generated_algebra_dim` is its fallback.

Each certificate is either a proof over Q(i) or returns "undecided"; none
changes what a predicate returns, only how fast.

All of them run on one Gaussian-integer product, `_gaussian_matmul` (also
under `ExactMatrix.__mul__`), and one fraction-free elimination kernel over
Z[i]: a row is a pair of int sequences, and a matrix's rows enter as they
are stored, since scaling by den changes no row space.  `_add_row` reduces
one row against an echelon basis and is the only pivot loop: `_echelon`
feeds it the rows of a matrix, and the Burnside span closure feeds it one
product at a time.  Rank and pivot columns read the pivots;
rref, kernel, solve and inverse divide each reduced row by one entry, once,
at the end.

All values are immutable after construction and all operations are pure, so
concurrent use is safe.  Kernel and image bases are the rref-canonical ones
(free variables set to one in column order, pivot columns of the original
matrix), which makes every construction built on them deterministic.
"""

from __future__ import annotations

from bisect import bisect
from itertools import chain, compress, repeat
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from . import modular
from .modular import dot
from .errors import NonSquareError, SizeMismatchError
from .scalars import ZERO, GaussianRational, from_triple, gr

Vector = tuple[GaussianRational, ...]
IntRow = tuple[list[int], list[int]]
IntMatrix = tuple[list[list[int]], list[list[int]]]  # real and imaginary parts


class ExactMatrix:
    """The matrix (re + i*im)/den, reduced (see the module docstring)."""

    __slots__ = ("nrows", "ncols", "den", "re", "im")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[Sequence]):
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise SizeMismatchError("matrix data does not match declared shape")
        entries = [[_integer_pair(x) for x in r] for r in rows]
        # the lcm of the entry denominators leaves the triple reduced: a prime
        # power exactly dividing it exactly divides some entry's denominator,
        # and that entry's numerators are not both multiples of the prime
        den = lcm(*(d for r in entries for d, _, _ in r))
        self.nrows, self.ncols, self.den = nrows, ncols, den
        self.re = tuple(tuple(x * (den // d) for d, x, _ in r) for r in entries)
        self.im = tuple(tuple(y * (den // d) for d, _, y in r) for r in entries)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        nc = len(rows[0]) if rows else 0
        return ExactMatrix(len(rows), nc, rows)

    @staticmethod
    def from_columns(cols: Sequence[Vector], nrows: int | None = None) -> "ExactMatrix":
        if not cols:
            if nrows is None:
                raise SizeMismatchError("empty column list needs an explicit row count")
            return ExactMatrix.zeros(nrows, 0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise SizeMismatchError("columns of unequal length")
        return ExactMatrix(n, len(cols), [[c[i] for c in cols] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int | None = None) -> "ExactMatrix":
        ncols = nrows if ncols is None else ncols
        zero = ((0,) * ncols,) * nrows
        return _matrix(nrows, ncols, 1, zero, zero)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        ones = [[int(i == j) for j in range(n)] for i in range(n)]
        return _matrix(n, n, 1, ones, ((0,) * n,) * n)

    @staticmethod
    def diagonal(values: Sequence) -> "ExactMatrix":
        vals = [gr(v) for v in values]
        n = len(vals)
        return ExactMatrix(
            n, n, [[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    # -- basic structure ------------------------------------------------------

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The entries as Gaussian rationals, row by row (built on each read)."""
        return tuple(
            tuple(_scalar(x, y, self.den) for x, y in zip(r, s)) for r, s in zip(self.re, self.im)
        )

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        return _scalar(self.re[i][j], self.im[i][j], self.den)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.den == other.den
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, self.re, self.im))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"ExactMatrix({self.nrows}x{self.ncols}: {body})"

    def is_zero(self) -> bool:
        return not any(map(any, self.re + self.im))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> Vector:
        return tuple(_scalar(r[j], s[j], self.den) for r, s in zip(self.re, self.im))

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "ExactMatrix":
        re, im = ([[r[j] for r in part] for j in range(self.ncols)] for part in (self.re, self.im))
        return _stored(self.ncols, self.nrows, self.den, re, im)

    def trace(self) -> GaussianRational:
        if not self.is_square():
            raise NonSquareError("trace of a non-square matrix")
        return _scalar(
            sum(r[i] for i, r in enumerate(self.re)), sum(r[i] for i, r in enumerate(self.im)), self.den
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        re, im = ([[part[i][j] for j in col_idx] for i in row_idx] for part in (self.re, self.im))
        return _matrix(len(row_idx), len(col_idx), self.den, re, im)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise SizeMismatchError("shape mismatch")
        den = lcm(self.den, other.den)
        (are, aim), (bre, bim) = _scaled(self, den), _scaled(other, den)
        return _matrix(
            self.nrows,
            self.ncols,
            den,
            [[x + y for x, y in zip(r, s)] for r, s in zip(are, bre)],
            [[x + y for x, y in zip(r, s)] for r, s in zip(aim, bim)],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        d, cr, ci = _integer_pair(c)
        # (x + yi)(cr + ci i) = (x cr - y ci) + (x ci + y cr)i
        return _matrix(
            self.nrows,
            self.ncols,
            self.den * d,
            [[x * cr - y * ci for x, y in zip(r, s)] for r, s in zip(self.re, self.im)],
            [[x * ci + y * cr for x, y in zip(r, s)] for r, s in zip(self.re, self.im)],
        )

    def shift(self, c) -> "ExactMatrix":
        """self + c * identity."""
        if not self.is_square():
            raise NonSquareError("shift of a non-square matrix")
        d, cr, ci = _integer_pair(c)
        den = lcm(self.den, d)
        k, t = den // self.den, den // d
        re, im = (
            [[x * k + v * t * (i == j) for j, x in enumerate(r)] for i, r in enumerate(part)]
            for part, v in ((self.re, cr), (self.im, ci))
        )
        return _matrix(self.nrows, self.ncols, den, re, im)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise SizeMismatchError(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            if not self.ncols:
                return ExactMatrix.zeros(self.nrows, other.ncols)
            re, im = _gaussian_matmul((self.re, self.im), (other.re, other.im))
            return _matrix(self.nrows, other.ncols, self.den * other.den, re, im)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise SizeMismatchError("vector length does not match column count")
        u = ExactMatrix(1, self.ncols, [v])
        re, im = _gaussian_apply((self.re, self.im), (u.re[0], u.im[0]))
        return tuple(_scalar(x, y, self.den * u.den) for x, y in zip(re, im))

    # -- stacking -------------------------------------------------------------

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.nrows != other.nrows:
            raise SizeMismatchError("hstack row mismatch")
        return block_matrix([[self, other]])

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.ncols:
            raise SizeMismatchError("vstack column mismatch")
        return block_matrix([[self], [other]])


def block_matrix(grid: Sequence[Sequence[ExactMatrix]]) -> ExactMatrix:
    den = lcm(*(b.den for brow in grid for b in brow))
    ncols = sum(b.ncols for b in grid[0]) if grid else 0
    re, im = [], []
    for brow in grid:
        h = brow[0].nrows
        if any(b.nrows != h for b in brow):
            raise SizeMismatchError("ragged block row")
        if sum(b.ncols for b in brow) != ncols:
            raise SizeMismatchError("block rows of unequal width")
        parts = [_scaled(b, den) for b in brow]
        re += ([x for bre, _ in parts for x in bre[i]] for i in range(h))
        im += ([y for _, bim in parts for y in bim[i]] for i in range(h))
    # reduced blocks over the lcm of their denominators leave the result reduced
    return _stored(len(re), ncols, den, re, im)


# -- the stored form -----------------------------------------------------------


def _matrix(nrows: int, ncols: int, den: int, re, im) -> ExactMatrix:
    """The matrix (re + i*im)/den, den > 0, brought to its reduced form."""
    g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im)) if den != 1 else 1
    if g != 1:
        den //= g
        re = [[x // g for x in r] for r in re]
        im = [[y // g for y in r] for r in im]
    return _stored(nrows, ncols, den, re, im)


def _stored(nrows: int, ncols: int, den: int, re, im) -> ExactMatrix:
    """The matrix (re + i*im)/den from a triple that is already reduced."""
    m = ExactMatrix.__new__(ExactMatrix)
    m.nrows, m.ncols, m.den = nrows, ncols, den
    m.re, m.im = tuple(map(tuple, re)), tuple(map(tuple, im))
    return m


def _scalar(x: int, y: int, den: int) -> GaussianRational:
    """(x + y i)/den."""
    if not (x or y):
        return ZERO
    return from_triple(x, y, den)


def _integer_pair(c) -> tuple[int, int, int]:
    """(d, cr, ci) with gr(c) = (cr + ci i)/d and d > 0, reduced."""
    c = gr(c)
    return c.den, c.x, c.y


def _scaled(m: ExactMatrix, den: int) -> IntMatrix:
    """The numerators of m over `den`, a multiple of m.den."""
    k = den // m.den
    if k == 1:
        return m.re, m.im
    return [[x * k for x in r] for r in m.re], [[y * k for y in r] for r in m.im]


def _common_scale(a: ExactMatrix, b: ExactMatrix) -> tuple[IntMatrix, IntMatrix]:
    """a and b times one integer, the lcm of their denominators."""
    den = lcm(a.den, b.den)
    return _scaled(a, den), _scaled(b, den)


# -- elimination kernel --------------------------------------------------------
#
# Every elimination runs over the Gaussian integers Z[i].  A row is a pair
# (re, im) of equal-length sequences of Python ints; a matrix's rows enter
# as stored, den times the rational rows, and scaling a row by a nonzero
# constant changes neither the row space, the pivot columns, the rank nor the
# kernel.  Rows are kept primitive (the integer gcd of all their parts
# divided out), so entries stay small without any rational arithmetic.
# Results that need rational values divide each row by one of its entries
# once, at the end.


def _primitive(re: list[int], im: list[int]) -> IntRow:
    g = gcd(*re, *im) if any(im) else gcd(*re)
    if g > 1:
        return [x // g for x in re], [y // g for y in im]
    return re, im


def _real_at(row: IntRow, c: int) -> IntRow:
    """The row times the conjugate of its entry in column c, made primitive:
    a multiple whose entry in column c is a real integer."""
    re, im = row
    a, b = re[c], im[c]
    if not b:
        return row
    # (x + yi)(a - bi) = (xa + yb) + (ya - xb)i
    return _primitive([x * a + y * b for x, y in zip(re, im)], [y * a - x * b for x, y in zip(re, im)])


def _eliminate(row: IntRow, prow: IntRow, c: int) -> IntRow:
    """The row step: p*row - f*prow made primitive, where p = prow[c] is a
    real integer and f = row[c].  The result is zero in column c.

    Only real multipliers ever scale a row, so making it primitive divides
    out whatever the multipliers added: the rows stay as small as the
    Gaussian-integer multiples of their rational counterparts.
    """
    re, im = row
    pre, pim = prow
    p, fr, fi = pre[c], re[c], im[c]
    g = gcd(p, fr, fi)
    if g > 1:
        p, fr, fi = p // g, fr // g, fi // g
    if fi:  # (fr + fi i)(u + vi) = (fr u - fi v) + (fr v + fi u)i
        return _primitive(
            [p * x - fr * u + fi * v for x, u, v in zip(re, pre, pim)],
            [p * y - fr * v - fi * u for y, u, v in zip(im, pre, pim)],
        )
    # a real multiplier keeps an all-zero imaginary part zero
    return _primitive(
        [p * x - fr * u for x, u in zip(re, pre)],
        [p * y - fr * v for y, v in zip(im, pim)] if any(im) or any(pim) else im,
    )


def _add_row(pivots: list[int], rows: list[IntRow], row: IntRow) -> bool:
    """Reduce `row` against an echelon basis and insert it if it is new.

    The basis is sorted by pivot, each basis row's first nonzero entry sits
    in its pivot column and is a real integer, so one pass in pivot order
    clears every pivot column of `row`.  Returns whether the row was
    independent.
    """
    for c, prow in zip(pivots, rows):
        if row[0][c] or row[1][c]:
            row = _eliminate(row, prow, c)
    re, im = row
    n = len(re)
    lead = min(next(compress(range(n), re), n), next(compress(range(n), im), n))
    if lead == n:
        return False
    at = bisect(pivots, lead)
    pivots.insert(at, lead)
    rows.insert(at, _real_at(row, lead))
    return True


def _echelon(rows: Iterable[IntRow], ncols: int) -> tuple[list[int], list[IntRow]]:
    """Pivot columns (increasing) and a primitive echelon basis of the row space."""
    pivots: list[int] = []
    basis: list[IntRow] = []
    for row in rows:
        if len(pivots) == ncols:
            break
        _add_row(pivots, basis, row)
    return pivots, basis


def _reduced(rows: Iterable[IntRow], ncols: int) -> tuple[list[int], list[IntRow]]:
    """Like `_echelon`, with every pivot column cleared in the other rows too:
    a multiple of the rref, row by row."""
    pivots, rows = _echelon(rows, ncols)
    for k in range(len(rows) - 1, 0, -1):
        c, prow = pivots[k], rows[k]
        for i in range(k):
            if rows[i][0][c] or rows[i][1][c]:
                rows[i] = _eliminate(rows[i], prow, c)
    return pivots, rows


def _kernel_rows(rows: Iterable[IntRow], ncols: int) -> list[tuple[int, IntRow]]:
    """(f, v) per free column f, in increasing order: v is a primitive
    multiple of the canonical kernel vector, which is v divided by v[f]."""
    pivots, rows = _reduced(rows, ncols)
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        used = [(c, re, im) for c, (re, im) in zip(pivots, rows) if re[f] or im[f]]
        scale = lcm(*(re[c] for c, re, _ in used))
        vre, vim = [0] * ncols, [0] * ncols
        vre[f] = scale
        for c, re, im in used:
            k = scale // re[c]  # the pivot re[c] is real and divides scale
            vre[c] = -re[f] * k
            vim[c] = -im[f] * k
        out.append((f, _primitive(vre, vim)))
    return out


def _divided(row: IntRow, c: int) -> tuple[int, IntRow]:
    """(d, v) with v / d the row divided by its entry in column c; d is a
    nonzero integer, positive at a free column of `_kernel_rows`."""
    row = _real_at(row, c)
    return row[0][c], row


def _stacked(rows: Sequence[tuple[int, IntRow]], ncols: int) -> ExactMatrix:
    """The matrix whose rows are v / d for (d, v) in rows; (1, zeros) for a zero row."""
    den = lcm(*(d for d, _ in rows))
    return _matrix(
        len(rows),
        ncols,
        den,
        [[x * (den // d) for x in re] for d, (re, _) in rows],
        [[y * (den // d) for y in im] for d, (_, im) in rows],
    )


def _rref(m: ExactMatrix) -> tuple[list[int], list[tuple[int, IntRow]]]:
    """Pivot columns and the nonzero rows of the reduced row echelon form,
    each as (d, v) for the row v / d."""
    pivots, rows = _reduced(zip(m.re, m.im), m.ncols)
    return pivots, [_divided(row, c) for c, row in zip(pivots, rows)]


def rref(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """The unique reduced row echelon form of m and its pivot columns."""
    pivots, rows = _rref(m)
    rows += [(1, ((0,) * m.ncols,) * 2)] * (m.nrows - len(rows))
    return _stacked(rows, m.ncols), pivots


def rank(m: ExactMatrix) -> int:
    return len(independent_columns(m))


def kernel_basis(m: ExactMatrix) -> list[Vector]:
    """Canonical basis of the right null space.

    Each free column of the rref contributes one vector with that coordinate
    set to one (in increasing column order) and pivot coordinates read off
    from the reduced rows.
    """
    out = []
    for f, v in _kernel_rows(zip(m.re, m.im), m.ncols):
        d, (re, im) = _divided(v, f)
        out.append(tuple(_scalar(x, y, d) for x, y in zip(re, im)))
    return out


def image_basis(m: ExactMatrix) -> list[Vector]:
    """The pivot columns of m: the canonical basis of the column space."""
    return [m.column(c) for c in independent_columns(m)]


def independent_columns(m: ExactMatrix) -> list[int]:
    return _echelon(zip(m.re, m.im), m.ncols)[0]


def solve(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Solve a X = b exactly.

    Requires every column of b to lie in the column space of a; free
    coordinates (when a has deficient column rank) are set to zero, matching
    the kernel/image canonical conventions.
    """
    if a.nrows != b.nrows:
        raise SizeMismatchError("solve: row mismatch")
    pivots, rows = _rref(a.hstack(b))
    for c in pivots:
        if c >= a.ncols:
            raise SizeMismatchError("solve: inconsistent system")
    k = a.ncols
    out = [(1, ((0,) * b.ncols,) * 2)] * k
    for c, (d, (re, im)) in zip(pivots, rows):
        out[c] = d, (re[k:], im[k:])
    return _stacked(out, b.ncols)


def inverse(m: ExactMatrix) -> ExactMatrix:
    if not m.is_square():
        raise NonSquareError("inverse of a non-square matrix")
    n = m.nrows
    pivots, rows = _rref(m.hstack(ExactMatrix.identity(n)))
    if pivots[:n] != list(range(n)):
        raise SizeMismatchError("matrix is singular")
    return _stacked([(d, (re[n:], im[n:])) for d, (re, im) in rows], n)


# -- Gaussian integer matrices -------------------------------------------------


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not any(map(any, b)):
        return [[0] * len(b[0]) for _ in a]
    out = []
    for arow in a:
        acc = [0] * len(b[0])
        for x, brow in zip(arow, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def _gaussian_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    (are, aim), (bre, bim) = a, b
    re, im = _int_matmul(are, bre), _int_matmul(are, bim)
    if any(map(any, aim)):
        re = [[x - y for x, y in zip(r, s)] for r, s in zip(re, _int_matmul(aim, bim))]
        im = [[x + y for x, y in zip(r, s)] for r, s in zip(im, _int_matmul(aim, bre))]
    return re, im


def _flat(m: IntMatrix) -> IntRow:
    re, im = m
    return [x for r in re for x in r], [y for r in im for y in r]


def _unflat(v: IntRow, ncols: int) -> IntMatrix:
    re, im = v
    return (
        [re[k : k + ncols] for k in range(0, len(re), ncols)],
        [im[k : k + ncols] for k in range(0, len(im), ncols)],
    )


def _sylvester_rows(a: IntMatrix, b: IntMatrix) -> list[IntRow]:
    """The equations g a - b g = 0 on the row-major entries of g."""
    (are, aim), (bre, bim) = a, b
    na, nb = len(are), len(bre)
    rows = []
    for i in range(nb):
        for j in range(na):
            re = [0] * (nb * na)
            im = [0] * (nb * na)
            for c in range(na):
                re[i * na + c] += are[c][j]
                im[i * na + c] += aim[c][j]
            for r in range(nb):
                re[r * na + j] -= bre[i][r]
                im[r * na + j] -= bim[i][r]
            rows.append((re, im))
    return rows


# -- higher-level primitives ---------------------------------------------------


def commutant_dim(m: ExactMatrix) -> int:
    """Dimension of the centralizer {X : mX = Xm} inside full matrix space.

    Read off the characteristic polynomial chi of the stored integer
    multiple A = den * m, which has the commutant of m, instead of solving
    the n^2 Sylvester equations.  The dimension is the sum over the
    eigenvalues of sum_j w_j^2, where the Weyr count w_j (`weyr_counts`) is
    the number of Jordan blocks of size >= j (Frobenius).  A simple
    eigenvalue adds 1, so the dimension is n plus sum_j w_j^2 - a over the
    repeated eigenvalues, a = sum_j w_j their multiplicities.

    - chi square-free mod a prime of Z[i] is square-free: the answer is n.
    - chi = x^z chi' with chi'(0) != 0 and chi' square-free mod that prime
      (0 is the usual repeated eigenvalue of a convolution's residues): the
      answer is n - z plus the Weyr sum of 0, whose chain stops at z.
    - Otherwise each candidate of `modular.gaussian_root_candidates(c)`,
      c = gcd(chi, chi'), is read, and those with a >= 2 are added.  When
      their a - 1 add up to deg c, every repeated eigenvalue is counted;
      when they fall short, one lies outside Q(i), and only then the
      Sylvester system is solved (`_commutant_dim_sylvester`).  Each chain
      stops at the nullity 1 + left, left being deg c less the a - 1 found
      so far: no multiplicity still to be found exceeds it.

    Lemma.  c = prod (x - lam)^(a_lam - 1) over the eigenvalues of A, and
    its roots in Q(i) lie in Z[i] and among the candidates.

    Proof.  Over a splitting field chi' = sum_lam a_lam chi / (x - lam):
    (x - lam)^(a_lam - 1) divides every term, and (x - lam)^a_lam every
    term but that of lam, as a_lam != 0.  The Euclidean algorithm runs in
    Q(i), so the gcd is the same there.  c divides the monic chi over Z[i],
    so it is monic over Z[i] by Gauss's lemma (InvariantError otherwise),
    and its roots in Q(i) are algebraic integers, so they lie in Z[i].  As
    the candidates are distinct, the a - 1 found add up to deg c exactly
    when every root of c is found.

    chi comes from the live block D of A, its rows R that are not zero and
    those columns (`_int_char_poly`), and when chi_D(0) != 0 the tiers run
    on D alone.  A convolution's residues are zero outside about rank(m)
    rows, and the rows of an Okubo form's A_j outside block j.

    Lemma.  With R the zero rows of A, chi = x^|R| chi_D, and if D is
    invertible the commutant of A has dimension that of D plus |R|^2.

    Proof.  With S first, A = [[D, E], [0, 0]] is block triangular, so chi
    = x^|R| chi_D.  If D is invertible, T = [[1, D^-1 E], [0, 1]] gives
    A = T^-1 (D + 0) T.  An X commuting with D + 0 has D X_12 = 0 and
    X_21 D = 0, so X_12 = X_21 = 0; X_11 commutes with D and X_22 is free.
    """
    if not m.is_square():
        raise NonSquareError("commutant of a non-square matrix")
    chi, (dre, dim) = _int_char_poly(m)
    dead = m.nrows - len(dre)
    if dead and (chi[0][dead] or chi[1][dead]):  # chi_D(0) != 0
        d = _stored(len(dre), len(dre), 1, dre, dim)
        return dead * dead + _commutant_dim(d, (chi[0][dead:], chi[1][dead:]))
    return _commutant_dim(m, chi)


def _commutant_dim(m: ExactMatrix, chi: IntRow) -> int:
    """`commutant_dim` from chi, the characteristic polynomial of m's stored
    integer multiple."""
    n = m.nrows
    if modular.is_squarefree(*chi):
        return n
    # eigenvalue 0 has multiplicity z, the number of zero low coefficients
    z = next(j for j, (x, y) in enumerate(zip(*chi)) if x or y)
    if z and modular.is_squarefree(chi[0][z:], chi[1][z:]):
        return n - z + sum(w * w for w in weyr_counts(m, 0, z))
    c = modular.gcd_with_derivative(*chi)
    total, left = n, len(c[0]) - 1
    for x, y in modular.gaussian_root_candidates(*c) if left else ():
        counts = weyr_counts(m, gr(x, y) / m.den, left + 1)
        total += sum(w * w - w for w in counts)
        left -= max(sum(counts) - 1, 0)  # a - 1, or 0 when the candidate is not an eigenvalue
    return _commutant_dim_sylvester(m) if left else total


def weyr_counts(m: ExactMatrix, lam, mult: int | None = None) -> list[int]:
    """The Weyr counts of lam for m (Gantmacher, Theory of Matrices I, ch.
    VI): the rises of `nullity_chain` over lam repeated, until the nullity
    reaches mult or a step adds nothing.  They add up to the multiplicity
    of lam; a mult equal to it spares the chain its last, empty step."""
    counts, prev = [], 0
    for nullity in nullity_chain(m, repeat(lam)):
        if nullity == prev:
            break
        counts.append(nullity - prev)
        prev = nullity
        if prev == mult:
            break
    return counts


def nullity_chain(m: ExactMatrix, shifts: Iterable) -> Iterator[int]:
    """Yield nullity((m - c_1)...(m - c_k)) for k = 1, 2, ..., one shift c_k
    at a time, without forming any product.

    With P_0 = 1 and P_k = P_(k-1)(m - c_k), every row of P_k is a row of
    P_(k-1) times m - c_k, so rowspace(P_k) = rowspace(P_(k-1)) (m - c_k)
    and nullity(P_k) = n - dim rowspace(P_k).  The chain keeps a primitive
    Z[i] echelon basis of rowspace(P_(k-1)), multiplies only its r <= n rows
    by the stored integer rows of m (A/d) and echelonises the images again;
    with c_k = c/e, the image of a row v, times d e, is e vA - d c v.  The
    basis never grows, and a scheme column lists its largest multiplicity
    first, so it is soon small; once it is empty the nullity stays n and
    nothing more is computed.
    """
    if not m.is_square():
        raise NonSquareError("nullity chain of a non-square matrix")
    n, d = m.nrows, m.den
    basis = last = None  # no basis yet: the rows of P_0 = 1
    for c in shifts:
        if basis is None or basis:
            if c is not last:  # a repeated shift is converted once
                e, cr, ci = _integer_pair(c)
                dr, di, last = d * cr, d * ci, c
            if basis is None:  # the rows of e A - d c
                rows = []
                for i, (xre, xim) in enumerate(zip(m.re, m.im)):
                    re, im = [e * x for x in xre], [e * y for y in xim]
                    re[i] -= dr
                    im[i] -= di
                    rows.append((re, im))
            else:  # e vA - d c v for each basis row v
                images = _gaussian_matmul(([re for re, _ in basis], [im for _, im in basis]), (m.re, m.im))
                rows = (
                    (
                        [e * x - dr * u + di * w for x, u, w in zip(xre, vre, vim)],
                        [e * y - dr * w - di * u for y, u, w in zip(xim, vre, vim)],
                    )
                    for xre, xim, (vre, vim) in zip(*images, basis)
                )
            basis = _echelon(rows, n)[1]
        yield n - len(basis)


def _commutant_dim_sylvester(m: ExactMatrix) -> int:
    """The commutant dimension as n^2 minus the rank of the Sylvester system
    mX - Xm = 0: the fallback of `commutant_dim` and its test oracle."""
    a = m.re, m.im
    n = m.nrows
    return n * n - len(_echelon(_sylvester_rows(a, a), n * n)[0])


def _gaussian_apply(m: IntMatrix, v: IntRow) -> IntRow:
    """m v over Z[i]; a zero row of re(m), and re(m) im(v) for a real v,
    take no product."""
    (mre, mim), (vre, vim) = m, v
    re = [dot(r, vre) if any(r) else 0 for r in mre]
    im = [dot(r, vim) if any(r) else 0 for r in mre] if any(vim) else [0] * len(re)
    if any(map(any, mim)):
        re = [x - dot(r, vim) for x, r in zip(re, mim)]
        im = [x + dot(r, vre) for x, r in zip(im, mim)]
    return re, im


def solve_sylvester_space(
    a_list: Sequence[ExactMatrix], b_list: Sequence[ExactMatrix]
) -> list[ExactMatrix]:
    """Basis of the intertwiner space {g : g a_j = b_j g for all j}.

    Solved one constraint at a time: the kernel of the first equation is
    computed directly, then each further equation is imposed on the current
    solution span, which keeps the eliminations small.

    The basis is the canonical kernel basis of all equations together.  The
    intermediate spans are carried as Gaussian integer multiples of their
    canonical vectors, which are recovered at the end: each one is its
    multiple divided by the entry at its free coordinate (its last nonzero
    one).  Scaling a pair (a_j, b_j) by a common constant keeps the space.
    """
    if len(a_list) != len(b_list):
        raise SizeMismatchError("intertwiner: list length mismatch")
    if not a_list:
        raise SizeMismatchError("intertwiner: empty constraint list")
    na = a_list[0].ncols
    nb = b_list[0].ncols
    for a in a_list:
        if not a.is_square() or a.nrows != na:
            raise SizeMismatchError("intertwiner: left sizes differ")
    for b in b_list:
        if not b.is_square() or b.nrows != nb:
            raise SizeMismatchError("intertwiner: right sizes differ")

    pairs = [_common_scale(a, b) for a, b in zip(a_list, b_list)]
    gens = _kernel_rows(_sylvester_rows(*pairs[0]), nb * na)
    for a, b in pairs[1:]:
        if not gens:
            return []
        residuals = []  # g a - b g for each g, flattened: the columns of the next system
        for _, v in gens:
            g = _unflat(v, na)
            (ga_re, ga_im), (bg_re, bg_im) = _flat(_gaussian_matmul(g, a)), _flat(_gaussian_matmul(b, g))
            residuals.append(([x - y for x, y in zip(ga_re, bg_re)], [x - y for x, y in zip(ga_im, bg_im)]))
        rows = [([re[k] for re, _ in residuals], [im[k] for _, im in residuals]) for k in range(nb * na)]
        gens = [(gens[f][0], _combined(gens, c)) for f, c in _kernel_rows(rows, len(gens))]
    out = []
    for f, v in gens:
        d, g = _divided(v, f)
        out.append(_matrix(nb, na, d, *_unflat(g, na)))
    return out


def _combined(gens: list[tuple[int, IntRow]], coeffs: IntRow) -> IntRow:
    """sum_k coeffs[k] * gens[k], made primitive."""
    length = len(gens[0][1][0])
    re, im = [0] * length, [0] * length
    for (_, (vre, vim)), cr, ci in zip(gens, coeffs[0], coeffs[1]):
        if cr:
            re = [s + cr * x for s, x in zip(re, vre)]
            im = [s + cr * y for s, y in zip(im, vim)]
        if ci:
            re = [s - ci * y for s, y in zip(re, vim)]
            im = [s + ci * x for s, x in zip(im, vre)]
    return _primitive(re, im)


def spin_conjugacy(
    a_list: Sequence[ExactMatrix], b_list: Sequence[ExactMatrix]
) -> bool | None:
    """Whether some invertible X has X a_j = b_j X for every j, decided on
    the spin basis of e_1; None when that basis does not decide.

    Spin e_1 under the a_j to S = (s_0 = e_1, s_1, ...), each s_k = a_g s_parent,
    and record the word M_k = b_g M_parent (M_0 = 1).  If e_1 is cyclic, an
    intertwiner X is fixed by u = X e_1, as X s_k = M_k u; so X -> X e_1
    embeds Hom(a, b) into Q(i)^n.  Each image a_g s_k outside the spanning
    tree, written as sum_l c_l s_l, gives the n equations
    (sum_l c_l M_l - b_g M_k) u = 0, and together they cut out the image.
    Rank n leaves Hom = 0: not conjugate.  Rank n - 1 leaves one candidate
    u, the value of an intertwiner exactly when it solves every edge's
    equations; that intertwiner, X = [M_k u] S^-1, is invertible exactly
    when the M_k u are independent.  Any other outcome (e_1 not cyclic, or
    Hom of dimension >= 2) returns None.  Everything runs over Z[i], each
    pair (a_j, b_j) scaled by a common constant, which keeps the
    intertwiners.
    """
    n = a_list[0].nrows
    pairs = [_common_scale(a, b) for a, b in zip(a_list, b_list)]
    e1 = ([1] + [0] * (n - 1), [0] * n)
    pivots: list[int] = []
    echelon: list[IntRow] = []
    _add_row(pivots, echelon, e1)
    one = ExactMatrix.identity(n)
    spin, words = [e1], [(one.re, one.im)]
    edges = []  # (k, g, a_g s_k) off the spanning tree
    for k, s in enumerate(spin):  # spin grows while it is walked
        for g, (a, b) in enumerate(pairs):
            w = _gaussian_apply(a, s)
            if len(spin) < n and _add_row(pivots, echelon, w):
                spin.append(w)
                words.append(_gaussian_matmul(b, words[k]))
            else:
                edges.append((k, g, w))
    if len(spin) < n:
        return None
    # [S | W] reduced: row l is (d_l e_l | d_l c_l) for the coordinates c of
    # the edge images on S, d_l a real integer; d scales every c integral
    cols = spin + [w for _, _, w in edges]
    aug = (([c[0][i] for c in cols], [c[1][i] for c in cols]) for i in range(n))
    _, rows = _reduced(aug, len(cols))
    d = lcm(*(re[l] for l, (re, _) in enumerate(rows)))
    # edge e's equations are the combination d c_l M_l - d b_g M_k
    coeffs = [
        (
            [re[n + e] * (d // re[l]) for l, (re, _) in enumerate(rows)] + [-d],
            [im[n + e] * (d // re[l]) for l, (re, im) in enumerate(rows)] + [0],
        )
        for e in range(len(edges))
    ]
    flat_words = [(0, _flat(m)) for m in words]
    pivots, echelon = [], []
    for (k, g, _), c in zip(edges, coeffs):
        target = (0, _flat(_gaussian_matmul(pairs[g][1], words[k])))
        for row in zip(*_unflat(_combined(flat_words + [target], c), n)):
            _add_row(pivots, echelon, row)
        if len(pivots) >= n - 1:
            break
    if len(pivots) != n - 1:
        return False if len(pivots) == n else None
    ((_, u),) = _kernel_rows(echelon, n)
    ys = [(0, _gaussian_apply(m, u)) for m in words]
    for (k, g, _), c in zip(edges, coeffs):
        residual = _combined(ys + [(0, _gaussian_apply(pairs[g][1], ys[k][1]))], c)
        if any(residual[0]) or any(residual[1]):
            return False
    return len(_echelon((y for _, y in ys), n)[0]) == n


def generated_algebra_dim(mats: Sequence[ExactMatrix], size: int | None = None) -> int:
    """Dimension of the unital algebra generated by the given matrices.

    Span-closure under left multiplication by the generators, iterated until
    stable; stops early once the full matrix space is reached.  A nonzero
    multiple of a generator generates the same unital algebra, so each one is
    scaled to a Gaussian integer matrix and the products stay in Z[i].
    """
    if mats:
        n = mats[0].nrows
        for m in mats:
            if not m.is_square() or m.nrows != n:
                raise SizeMismatchError("generators must be square of equal size")
    else:
        if size is None:
            raise SizeMismatchError("empty generator list needs an explicit size")
        n = size
    gens = [(m.re, m.im) for m in mats]
    full = n * n
    pivots: list[int] = []
    basis: list[IntRow] = []
    one = ExactMatrix.identity(n)
    ident = one.re, one.im
    _add_row(pivots, basis, _flat(ident))
    frontier = [ident]
    while frontier and len(pivots) < full:
        new_frontier = []
        for g in gens:
            for b in frontier:
                prod = _gaussian_matmul(g, b)
                if _add_row(pivots, basis, _flat(prod)):
                    new_frontier.append(prod)
                    if len(pivots) == full:
                        return full
        frontier = new_frontier
    return len(pivots)


def row_spin_dim(c: ExactMatrix, a: ExactMatrix) -> int:
    """Dimension of the smallest space of row vectors that contains the rows
    of c and is closed under v -> v a: the rank of the observability matrix
    [c; c a; c a^2; ...].

    Its kernel is the largest a-invariant subspace inside ker c, so that
    subspace is zero exactly when the dimension is a.nrows.  Each row that
    enters the echelon basis is multiplied by a once; both run on the
    stored Z[i] rows, since scaling c or a changes no span.
    """
    if not a.is_square() or c.ncols != a.nrows:
        raise SizeMismatchError("row spin needs a square a with as many rows as c has columns")
    pivots: list[int] = []
    basis: list[IntRow] = []
    frontier = [row for row in zip(c.re, c.im) if _add_row(pivots, basis, row)]
    while frontier and len(pivots) < a.nrows:
        images = _gaussian_matmul(([re for re, _ in frontier], [im for _, im in frontier]), (a.re, a.im))
        frontier = [row for row in zip(*images) if _add_row(pivots, basis, row)]
    return len(pivots)


def largest_invariant_subspace(a: ExactMatrix, basis: Sequence[Vector]) -> list[Vector]:
    """Largest a-invariant subspace contained in the span of `basis`.

    Fixpoint of U <- {x in U : a x in U}, starting from the given span.  Exact
    and stable under field extension since every step is cut out by linear
    conditions over the base field.  The genericity tests decide the same
    question by one rank (`row_spin_dim`); this fixpoint is their test
    oracle.
    """
    if not basis:
        return []
    n = a.nrows
    u = ExactMatrix.from_columns(list(basis), nrows=n)
    pivots = independent_columns(u)
    u = ExactMatrix.from_columns([u.column(c) for c in pivots], nrows=n)
    while True:
        d = u.ncols
        if d == 0:
            return []
        ann = kernel_basis(u.transpose())  # rows annihilating span(u)
        if not ann:
            return u.columns()  # span is the whole space
        q = ExactMatrix.from_rows([list(v) for v in ann])
        m = q * (a * u)
        coeffs = kernel_basis(m)
        if len(coeffs) == d:
            return u.columns()
        if not coeffs:
            return []
        u = u * ExactMatrix.from_columns(coeffs, nrows=d)


def char_poly(m: ExactMatrix) -> list[GaussianRational]:
    """Coefficients [c_0, ..., c_{n-1}, 1] of det(xI - m), low degree first.

    Division-free (Berkowitz) on the stored integer multiple d*m, then rescaled:
    the coefficient of x^(n-k) of det(xI - m) is d^-k times that of
    det(xI - d*m).
    """
    if not m.is_square():
        raise NonSquareError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    cre, cim = _int_char_poly(m)[0]
    return [_scalar(x, y, m.den ** (n - k)) for k, (x, y) in enumerate(zip(cre, cim))]


def _int_char_poly(m: ExactMatrix) -> tuple[IntRow, IntMatrix]:
    """det(xI - A) for the stored integer multiple A = den * m, low degree
    first, and the block D of A on its nonzero rows and those columns:
    Berkowitz on D only, as det(xI - A) = x^|R| det(xI - D) for the zero
    rows R (see `commutant_dim`)."""
    live = [i for i, (r, s) in enumerate(zip(m.re, m.im)) if any(r) or any(s)]
    block = [[m.re[i][j] for j in live] for i in live], [[m.im[i][j] for j in live] for i in live]
    pad = [0] * (m.nrows - len(live))
    cre, cim = modular.berkowitz(*block)
    return (pad + cre, pad + cim), block
