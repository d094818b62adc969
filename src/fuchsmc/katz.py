"""Rank-preserving and rank-changing operations on residue tuples.

The rank-changing middle convolution is realized as the induced action on the
quotient of the big convolution space by its two canonical invariant
subspaces, expressed on the rref-canonical complement basis so results are
deterministic.  Scheme data is transported through every operation; for the
convolution the transported scheme is verified against the output matrices and
silently dropped when the transformation's hypotheses did not hold.
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
    """The big convolution tuple together with its canonical subspaces.

    big_matrices[j] acts on the p*n-dimensional block space; row block j holds
    (A_1 ... A_j + lambda ... A_p) and all other row blocks vanish.  k_basis
    spans the blockwise kernel, l_basis the kernel of the sum, and
    complement_basis lists the standard basis indices completing their joint
    span, from which the quotient is coordinatized.
    """

    __slots__ = ("big_matrices", "k_basis", "l_basis", "span_basis", "complement_basis")

    def __init__(self, big_matrices, k_basis, l_basis, span_basis, complement_basis):
        self.big_matrices = big_matrices
        self.k_basis = k_basis
        self.l_basis = l_basis
        self.span_basis = span_basis
        self.complement_basis = complement_basis
        pn = big_matrices[0].nrows
        overlap = len(k_basis) + len(l_basis) - len(span_basis)
        if overlap < 0 or len(span_basis) + len(complement_basis) != pn:
            raise InvariantError("subspace dimensions do not add up")
        spans = [
            (name, ExactMatrix.from_columns(list(basis), nrows=pn))
            for name, basis in (("kernel", k_basis), ("sum-kernel", l_basis))
            if basis
        ]
        for g in big_matrices:
            for name, span in spans:
                if not linalg.span_contains(span, g * span):
                    raise InvariantError(f"{name} subspace is not invariant")


def convolution(t: SchlesingerTuple, lam) -> ConvolutionData:
    """Assemble the convolution tuple and its two invariant subspaces."""
    lam = gr(lam)
    p = t.num_points
    n = t.rank
    pn = p * n
    zero = ExactMatrix.zeros(n)
    big = []
    for j in range(p):
        grid = [[zero] * p for _ in range(p)]
        for nu in range(p):
            block = t.matrices[nu]
            if nu == j:
                block = block.shift(lam)
            grid[j][nu] = block
        big.append(linalg.block_matrix(grid))

    k_basis: list[Vector] = []
    for j in range(p):
        for v in linalg.kernel_basis(t.matrices[j]):
            vec = [ZERO] * pn
            vec[j * n : (j + 1) * n] = list(v)
            k_basis.append(tuple(vec))

    total = big[0]
    for g in big[1:]:
        total = total + g
    l_basis = linalg.kernel_basis(total)

    stacked = ExactMatrix.from_columns(k_basis + l_basis, nrows=pn)
    indep, comp = linalg.complete_to_basis(stacked)
    span_basis = [stacked.column(c) for c in indep]
    return ConvolutionData(big, k_basis, l_basis, span_basis, comp)


def middle_convolution(t: SchlesingerTuple, lam) -> SchlesingerTuple:
    """The induced tuple on the quotient of the convolution space.

    Total as a construction; the theorem-backed facts (index invariance,
    composition, preserved irreducibility) hold under the genericity
    conditions and are asserted only in tests.
    """
    lam = gr(lam)
    cd = convolution(t, lam)
    pn = cd.big_matrices[0].nrows
    q = len(cd.complement_basis)
    if q == 0:
        raise PreconditionFailError("middle convolution collapsed to rank zero")
    comp_mat = ExactMatrix.identity(pn).submatrix(range(pn), cd.complement_basis)
    basis = ExactMatrix.from_columns(list(cd.span_basis), nrows=pn).hstack(comp_mat)
    basis_inv = linalg.inverse(basis)
    s = len(cd.span_basis)
    mats = []
    for g in cd.big_matrices:
        coords = basis_inv * (g * comp_mat)
        mats.append(coords.submatrix(range(s, pn), range(q)))
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
