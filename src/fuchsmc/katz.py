"""Rank-preserving and rank-changing operations on residue tuples.

Scheme data is transported through every operation; for the convolution the
transported scheme is verified against the output matrices and silently
dropped when the transformation's hypotheses did not hold.

The middle convolution of (A_1, ..., A_p) at lambda (Dettweiler and Reiter,
J. Symbolic Comput. 30 (2000)) is the action of the convolution tuple on
V/(K + L), V = (Q(i)^n)^p.  G_j vanishes outside row block j, which is
B_j = (A_1 ... A_j + lambda ... A_p); the sum of the G_j is 1 (x) W +
lambda, W = (A_1 ... A_p).  So no elimination needs to be pn x pn:

- K = (+)_j ker A_j.  L = ker(sum G_j): for lambda != 0 each block of v in
  L is -Wv/lambda, so L = diag ker(sum A_j + lambda); for lambda = 0,
  L = ker W.  An rref-canonical kernel basis depends on the space alone.
- Invariance follows from the kernel products that `convolution` checks:
  for k in ker A_nu in block nu, G_j k = lambda delta_(j,nu) k; for l in L,
  B_j l = (sum A_j + lambda) w = 0 (l = diag w), or W l = 0 (lambda = 0).
- For lambda != 0, K and L meet in 0: diag w in K puts w in every ker A_j,
  so lambda w = 0.  For lambda = 0, W k = A_nu k = 0: K lies in L.
- Completing S = K + L in increasing order takes e_c exactly when no vector
  of S has its last nonzero coordinate at c.  Those coordinates P are the
  pivots of the rref of S's rows with the columns reversed, whose rows s_i
  are 1 at P_i and 0 at the other pivots; C is the rest.  The projection
  onto span(e_C) along S is pi(v) = v[C] - R^T v[P], R[i, c] = s_i[c].
- M_j = pi G_j on e_C = G_j[C, C] - R^T G_j[P, C] = pi[:, block j] B_j[:, C].
  The matrix of the induced map in the basis e_C is unique, so every exact
  way of computing it gives the same matrices.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import linalg
from .errors import (
    DuplicatePoleError,
    IndexRangeError,
    InvariantError,
    LengthMismatchError,
    NotAPermutationError,
    NotIrreducibleError,
    NotNormalizableError,
    PreconditionFailError,
    SchemeUnavailableError,
)
from .linalg import ExactMatrix, Vector
from .scalars import GaussianRational, ZERO, gr
from .schlesinger import (
    SchlesingerTuple,
    _attach_scheme,
    is_irreducible,
    residue_at_infinity,
    verify_scheme,
)
from .spectral import (
    Column,
    PartitionTuple,
    RiemannScheme,
    canonical_column,
    tau_max,
)


def addition(t: SchlesingerTuple, mu: Sequence) -> SchlesingerTuple:
    """Shift each residue by a scalar: A_j + mu_j.

    The scheme transport is exact: labels at the j-th point move by mu_j and
    the labels at infinity by minus the total.
    """
    mu = [gr(x) for x in mu]
    if len(mu) != t.num_points:
        raise LengthMismatchError("one shift per finite point required")
    if all(c.is_zero() for c in mu):
        # the same tuple; rebuilding it would only verify its scheme again
        return t
    mats = [m.shift(c) for m, c in zip(t.matrices, mu)]
    scheme = None
    if t.scheme is not None:
        total = gr(0)
        for c in mu:
            total = total + c
        cols = [_shift_column(t.scheme.column_at_infinity(), -total)]
        for j in range(1, t.num_points + 1):
            cols.append(_shift_column(t.scheme.column_at(j), mu[j - 1]))
        scheme = RiemannScheme(t.poles, cols)
    return SchlesingerTuple(t.poles, mats, scheme)


def _shift_column(col: Column, delta: GaussianRational) -> Column:
    return canonical_column([(label + delta, mult) for label, mult in col])


class ConvolutionData:
    """K, L and the quotient coordinates of the convolution tuple.

    span_basis is the independent choice from k_basis + l_basis, and
    complement_basis the coordinates C completing it, as
    `linalg.complete_to_basis` picks them; projection is the matrix of pi.
    block_row(j) is the only nonzero row block of G_j.
    """

    __slots__ = (
        "residues", "lam", "k_basis", "l_basis", "span_basis", "complement_basis", "projection",
    )

    def __init__(self, residues, lam, k_basis, l_basis, span_basis, complement_basis, projection):
        self.residues, self.lam = residues, lam
        self.k_basis, self.l_basis, self.span_basis = k_basis, l_basis, span_basis
        self.complement_basis, self.projection = complement_basis, projection

    def block_row(self, j: int) -> ExactMatrix:
        """B_j = (A_1 ... A_j + lambda ... A_p), 0-based j."""
        return linalg.block_matrix(
            [[m.shift(self.lam) if nu == j else m for nu, m in enumerate(self.residues)]]
        )

    @property
    def big_matrices(self) -> list[ExactMatrix]:
        """G_1, ..., G_p, built on each read."""
        p, n = len(self.residues), self.residues[0].nrows
        zero = ExactMatrix.zeros(n, p * n)
        return [
            linalg.block_matrix([[self.block_row(j) if i == j else zero] for i in range(p)])
            for j in range(p)
        ]


def convolution(t: SchlesingerTuple, lam) -> ConvolutionData:
    """K, L and the quotient coordinates of the convolution tuple, by the
    closed forms of the module docstring; raises `InvariantError` when a
    kernel product that proves K and L invariant does not vanish."""
    lam = gr(lam)
    p, n = t.num_points, t.rank
    pn = p * n
    k_basis: list[Vector] = []
    for j, a in enumerate(t.matrices):
        kern = linalg.kernel_basis(a)
        _check_kernel(a, kern, "kernel")
        k_basis += [(ZERO,) * (j * n) + v + (ZERO,) * (pn - (j + 1) * n) for v in kern]
    if lam.is_zero():
        w = linalg.block_matrix([list(t.matrices)])
        l_basis = linalg.kernel_basis(w)
        _check_kernel(w, l_basis, "sum-kernel")
        # K lies in L; a vector of L adds to K + span(earlier ones) exactly when
        # its last nonzero coordinate is not the last one of a vector of K
        k_last = {_last_nonzero(v) for v in k_basis}
        span_basis = k_basis + [v for v in l_basis if _last_nonzero(v) not in k_last]
        s_rows = l_basis
    else:
        total = sum(t.matrices[1:], t.matrices[0]).shift(lam)
        l0 = linalg.kernel_basis(total)
        _check_kernel(total, l0, "sum-kernel")
        l_basis = [v * p for v in l0]  # diag w = (w, ..., w)
        span_basis = s_rows = k_basis + l_basis
    # rref of the rows of K + L with the columns reversed: its pivots are the
    # last nonzero coordinates P, its rows s_i are 1 at P_i and 0 at P_k, k != i
    rr, rev = linalg.rref(ExactMatrix(len(s_rows), pn, [v[::-1] for v in s_rows]))
    if len(rev) != len(span_basis):
        raise InvariantError("subspace dimensions do not add up")
    pivots = [pn - 1 - c for c in rev]
    comp = sorted(set(range(pn)).difference(pivots))
    q = len(comp)
    r = rr.submatrix(range(len(rev)), [pn - 1 - c for c in comp])
    # pi(v) = v[C] - R^T v[P], with R[i, k] = s_i[C_k]: the columns of
    # (1 | -R^T) in the order C, P, put back in coordinate order
    order = {c: k for k, c in enumerate(comp + pivots)}
    projection = ExactMatrix.identity(q).hstack(-r.transpose()).submatrix(
        range(q), [order[c] for c in range(pn)]
    )
    return ConvolutionData(t.matrices, lam, k_basis, l_basis, span_basis, comp, projection)


def _check_kernel(a: ExactMatrix, basis: list[Vector], name: str) -> None:
    if basis and not (a * ExactMatrix.from_columns(basis)).is_zero():
        raise InvariantError(f"{name} subspace is not invariant")


def _last_nonzero(v: Vector) -> int:
    return max(i for i, x in enumerate(v) if x)


def middle_convolution(t: SchlesingerTuple, lam) -> SchlesingerTuple:
    """The induced tuple on the quotient of the convolution space:
    M_j = pi[:, block j] * B_j[:, C] (see the module docstring).

    Total as a construction; the theorem-backed facts (index invariance,
    composition, preserved irreducibility) hold under the genericity
    conditions and are asserted only in tests.
    """
    lam = gr(lam)
    cd = convolution(t, lam)
    comp = cd.complement_basis
    q = len(comp)
    if q == 0:
        raise PreconditionFailError("middle convolution collapsed to rank zero")
    n = t.rank
    mats = [
        cd.projection.submatrix(range(q), range(j * n, (j + 1) * n))
        * cd.block_row(j).submatrix(range(n), comp)
        for j in range(t.num_points)
    ]
    out = SchlesingerTuple(t.poles, mats)
    scheme = _transported_scheme(t, lam, out)
    return out if scheme is None else _attach_scheme(out, scheme)


def _transported_scheme(t, lam, result) -> Optional[RiemannScheme]:
    if t.scheme is None:
        return None
    try:
        predicted = predicted_scheme(t.scheme, lam)
    except NotNormalizableError:
        return None
    if predicted.order != result.rank:
        return None
    return predicted if verify_scheme(result, predicted) else None


# -- point bookkeeping operations -------------------------------------------------


def swap_with_infinity(t: SchlesingerTuple, j: int) -> SchlesingerTuple:
    """Exchange the residue at the j-th point (1-based) with the one at
    infinity; an involution."""
    if not 1 <= j <= t.num_points:
        raise IndexRangeError(f"point index {j} out of range")
    mats = list(t.matrices)
    mats[j - 1] = residue_at_infinity(t)
    scheme = None
    if t.scheme is not None:
        cols = list(t.scheme.columns)
        cols[0], cols[j] = cols[j], cols[0]
        scheme = RiemannScheme(t.poles, cols)
    return SchlesingerTuple(t.poles, mats, scheme)


def permute(t: SchlesingerTuple, sigma: Sequence[int]) -> SchlesingerTuple:
    """Relabel the finite points by the permutation (1-based): position i
    receives the data of position sigma_i, poles included."""
    p = t.num_points
    if sorted(sigma) != list(range(1, p + 1)):
        raise NotAPermutationError(f"{sigma!r} is not a permutation of 1..{p}")
    mats = [t.matrices[s - 1] for s in sigma]
    poles = [t.poles[s - 1] for s in sigma]
    scheme = None
    if t.scheme is not None:
        cols = [t.scheme.column_at_infinity()] + [t.scheme.column_at(s) for s in sigma]
        scheme = RiemannScheme(poles, cols)
    return SchlesingerTuple(poles, mats, scheme)


def append_infinity_pole(t: SchlesingerTuple, t_new) -> SchlesingerTuple:
    """Materialize the residue at infinity as a new finite point.

    The new last matrix is the negated sum, the point at infinity is left with
    the zero residue, and the scheme column at infinity moves to the new point.
    """
    t_new = gr(t_new)
    if t_new in t.poles:
        raise DuplicatePoleError(f"pole {t_new} already present")
    mats = list(t.matrices) + [residue_at_infinity(t)]
    poles = list(t.poles) + [t_new]
    scheme = None
    if t.scheme is not None:
        inf_col = canonical_column([(gr(0), t.rank)])
        cols = [inf_col] + [t.scheme.column_at(j) for j in range(1, t.num_points + 1)]
        cols.append(t.scheme.column_at_infinity())
        scheme = RiemannScheme(poles, cols)
    return SchlesingerTuple(poles, mats, scheme)


def drop_trailing_zero_pole(t: SchlesingerTuple) -> SchlesingerTuple:
    """Remove the last point when its residue is zero (inverse of appending)."""
    if t.num_points < 2:
        raise IndexRangeError("cannot drop the only point")
    if not t.matrices[-1].is_zero():
        raise PreconditionFailError("last residue is not zero")
    scheme = None
    if t.scheme is not None:
        cols = [t.scheme.column_at_infinity()]
        cols += [t.scheme.column_at(j) for j in range(1, t.num_points)]
        scheme = RiemannScheme(t.poles[:-1], cols)
    return SchlesingerTuple(t.poles[:-1], t.matrices[:-1], scheme)


# -- scheme-level transformation ---------------------------------------------------


def predicted_scheme(s: RiemannScheme, lam) -> RiemannScheme:
    """Transform a scheme the way the rank-changing convolution does.

    The value lam is pinned to the top slot at infinity and zero to the top
    slot at each finite point (inserting empty slots when the value is absent,
    taking the largest multiplicity among equal values).  The top
    multiplicities drop by the slot defect d; remaining labels shift by
    -lam at infinity and +lam at finite points.  For lam = 0 the convolution
    is the identity up to conjugacy and the scheme is returned unchanged.
    """
    lam = gr(lam)
    if lam.is_zero():
        return s
    n = s.order
    p = len(s.poles)
    inf_slot, inf_rest = _split_slot(s.column_at_infinity(), lam)
    finite = [_split_slot(s.column_at(j), gr(0)) for j in range(1, p + 1)]
    d = inf_slot + sum(top for top, _ in finite) - (p - 1) * n
    new_cols = []
    if inf_slot - d < 0:
        raise NotNormalizableError("top multiplicity at infinity would become negative")
    inf_entries = [(-lam, inf_slot - d)]
    inf_entries += [(label - lam, mult) for label, mult in inf_rest]
    new_cols.append(canonical_column(inf_entries))
    for j, (top, rest) in enumerate(finite, start=1):
        if top - d < 0:
            raise NotNormalizableError("top multiplicity at a finite point would become negative")
        entries = [(gr(0), top - d)]
        entries += [(label + lam, mult) for label, mult in rest]
        new_cols.append(canonical_column(entries))
    return RiemannScheme(s.poles, new_cols)


def _split_slot(col: Column, value: GaussianRational) -> tuple[int, list]:
    """Take the largest-multiplicity part with the given label out of the
    column; returns (its multiplicity or 0, the remaining parts)."""
    best = -1
    best_i = None
    for i, (label, mult) in enumerate(col):
        if label == value and mult > best:
            best = mult
            best_i = i
    if best_i is None:
        return 0, list(col)
    rest = [e for i, e in enumerate(col) if i != best_i]
    return best, rest


def mc_max(t: SchlesingerTuple) -> SchlesingerTuple:
    """The canonical reduction step: additions that zero the maximal finite
    slots, then the convolution at the maximal slot total.

    The order drops by the slot defect exactly when that total is nonzero;
    slot ties are retried to avoid a zero total when possible.
    """
    if t.scheme is None:
        raise SchemeUnavailableError("reduction step needs a declared scheme")
    if not is_irreducible(t):
        raise NotIrreducibleError("reduction step requires an irreducible tuple")
    return _mc_max(t)


def _mc_max(t: SchlesingerTuple) -> SchlesingerTuple:
    """`mc_max` on a scheme-carrying tuple whose irreducibility the caller
    has just checked."""
    m = t.scheme.tuple_
    tau = _nonzero_slot_choice(m)
    cols = m.columns
    lam = gr(0)
    for col, ti in zip(cols, tau):
        lam = lam + col[ti - 1][0]
    if lam.is_zero():
        raise PreconditionFailError(
            "every maximal slot choice sums to zero; the reduction step is undefined"
        )
    mu = [-cols[j][tau[j] - 1][0] for j in range(1, len(cols))]
    return middle_convolution(addition(t, mu), lam)


def _nonzero_slot_choice(m: PartitionTuple) -> tuple[int, ...]:
    base = tau_max(m)
    cols = m.columns
    total = gr(0)
    for col, t in zip(cols, base):
        total = total + col[t - 1][0]
    if not total.is_zero():
        return base
    # retry alternative maximal slots one column at a time
    for j, col in enumerate(cols):
        top = col[base[j] - 1][1]
        for i, (label, mult) in enumerate(col):
            if mult == top and i != base[j] - 1:
                alt = total - col[base[j] - 1][0] + label
                if not alt.is_zero():
                    out = list(base)
                    out[j] = i + 1
                    return tuple(out)
    return base
