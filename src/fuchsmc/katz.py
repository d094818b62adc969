"""Rank-preserving and rank-changing operations on residue tuples.

Every operation carries a Riemann scheme by one rule (see
`schlesinger._attach_scheme`): a lemma gives it from the input's verified
scheme, and the operation checks the lemma's hypotheses.  Additions, point
swaps, permutations and adding or dropping a zero residue are exact
transports: each output residue is an input residue, the residue at
infinity, a scalar shift of one of them, or zero.  The convolution's scheme
is Dettweiler and Reiter's (`predicted_scheme`), which the reduction step
`_mc_max` has proven applies.  The public `middle_convolution` proves none
of its hypotheses, so it verifies its prediction once and drops it when it
fails.

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
  As B_j = W + lambda in block j and pi[:, C] = 1, the lambda part is
  lambda at (k, k) for C_k in block j.  The matrix of the induced map
  in the basis e_C is unique, so every exact way of computing it gives the
  same matrices.

Every step runs on the Z[i] rows the residues store (`linalg._kernel_rows`,
integer kernel products, `linalg._reduced`); no basis is read back as
Gaussian-rational vectors.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Sequence

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
from .linalg import ExactMatrix, IntRow
from .scalars import GaussianRational, gr
from .schlesinger import (
    SchlesingerTuple,
    _attach_scheme,
    is_irreducible,
    residue_at_infinity,
    verify_scheme,
)
from .spectral import Column, RiemannScheme, canonical_column


def addition(t: SchlesingerTuple, mu: Sequence) -> SchlesingerTuple:
    """Shift each residue by a scalar: A_j + mu_j.

    An exact transport: nullity((A + mu - (c + mu))^k) = nullity((A - c)^k),
    so the labels at the j-th point move by mu_j, and the residue at infinity
    is A_inf - sum mu, so its labels move by minus the total.
    """
    mu = [gr(x) for x in mu]
    if len(mu) != t.num_points:
        raise LengthMismatchError("one shift per finite point required")
    if all(c.is_zero() for c in mu):
        # the same tuple; rebuilding it would only verify its scheme again
        return t
    mats = [m.shift(c) for m, c in zip(t.matrices, mu)]
    scheme = None if t.scheme is None else _shifted(t.scheme, mu)
    return _attach_scheme(SchlesingerTuple(t.poles, mats), scheme)


def _shifted(s: RiemannScheme, mu: Sequence[GaussianRational]) -> RiemannScheme:
    """The labels of s moved as `addition` moves them.  One constant moves a
    whole column, which keeps the canonical (-mult, re, im) order, so the
    columns are not sorted again."""
    deltas = [-sum(mu, gr(0)), *mu]
    cols = [tuple((label + c, mult) for label, mult in col) for col, c in zip(s.columns, deltas)]
    return RiemannScheme._of_canonical(s.poles, cols)


Row = tuple[int, IntRow]  # (f, v) is the vector v / v[f]


class ConvolutionData:
    """K, L and the quotient coordinates of the convolution tuple.

    K, L and the independent choice from K + L are Z[i] rows (f, v), each
    the vector v / v[f], as `linalg._kernel_rows` gives them.
    complement_basis is C, as `tests/constructions.complete_to_basis` picks it;
    projection is the matrix of pi.
    """

    __slots__ = (
        "residues", "lam", "k_rows", "l_rows", "span_rows", "complement_basis", "projection",
    )

    def __init__(self, residues, lam, k_rows, l_rows, span_rows, complement_basis, projection):
        self.residues, self.lam = residues, lam
        self.k_rows, self.l_rows, self.span_rows = k_rows, l_rows, span_rows
        self.complement_basis, self.projection = complement_basis, projection


def convolution(t: SchlesingerTuple, lam) -> ConvolutionData:
    """K, L and the quotient coordinates of the convolution tuple, by the
    closed forms of the module docstring; raises `InvariantError` when a
    kernel product that proves K and L invariant does not vanish."""
    lam = gr(lam)
    p, n = t.num_points, t.rank
    pn = p * n
    k_rows: list[Row] = []
    for j, a in enumerate(t.matrices):
        pad, rest = [0] * (j * n), [0] * (pn - (j + 1) * n)
        for f, (re, im) in _kernel(a, "kernel"):
            k_rows.append((j * n + f, (pad + re + rest, pad + im + rest)))
    if lam.is_zero():
        l_rows = _kernel(linalg.block_matrix([list(t.matrices)]), "sum-kernel")
        # K lies in L; a vector of L adds to K + span(earlier ones) exactly when
        # its last nonzero coordinate, the free column f, is not one of K's
        k_last = {f for f, _ in k_rows}
        span_rows = k_rows + [(f, v) for f, v in l_rows if f not in k_last]
        s_rows = l_rows
    else:
        total = sum(t.matrices[1:], t.matrices[0]).shift(lam)
        l_rows = [(f, (re * p, im * p)) for f, (re, im) in _kernel(total, "sum-kernel")]  # diag w
        span_rows = s_rows = k_rows + l_rows
    # K + L's rows reduced with the columns reversed: the pivots are the last
    # nonzero coordinates P, and row i over its (real) pivot entry is s_i
    rev, rows = linalg._reduced(((re[::-1], im[::-1]) for _, (re, im) in s_rows), pn)
    if len(rev) != len(span_rows):
        raise InvariantError("subspace dimensions do not add up")
    pivots = [pn - 1 - c for c in rev]
    comp = sorted(set(range(pn)).difference(pivots))
    # pi is 1 at (k, C_k) and -s_i[C_k] at (k, P_i): over the lcm of the pivot entries
    den = lcm(*(re[c] for c, (re, _) in zip(rev, rows)))
    pre, pim = [[den * (c == cc) for c in range(pn)] for cc in comp], [[0] * pn for _ in comp]
    for c, pc, (re, im) in zip(rev, pivots, rows):
        scale = den // re[c]
        for k, cc in enumerate(comp):
            pre[k][pc] = -re[pn - 1 - cc] * scale
            pim[k][pc] = -im[pn - 1 - cc] * scale
    projection = linalg._matrix(len(comp), pn, den, pre, pim)
    return ConvolutionData(t.matrices, lam, k_rows, l_rows, span_rows, comp, projection)


def _kernel(a: ExactMatrix, name: str) -> list[Row]:
    """The canonical kernel basis of a as rows, each checked: a v = 0."""
    kern = linalg._kernel_rows(zip(a.re, a.im), a.ncols)
    for _, v in kern:
        if any(map(any, linalg._gaussian_apply((a.re, a.im), v))):
            raise InvariantError(f"{name} subspace is not invariant")
    return kern


def middle_convolution(t: SchlesingerTuple, lam) -> SchlesingerTuple:
    """The induced tuple on the quotient of the convolution space:
    M_j = pi[:, block j] * B_j[:, C] (see the module docstring).

    Total as a construction; the theorem-backed facts (index invariance,
    composition, preserved irreducibility) hold under the genericity
    conditions and are asserted only in tests.  The scheme is
    `predicted_scheme`'s, verified once against the output and dropped when
    it fails or cannot be formed (NotNormalizableError).  Its lemma needs
    lam != 0 and conditions (*) and (**), which this operation does not
    prove.  Outside them a prediction is often still right: of 2336 on
    random rank-2 and rank-3 tuples with entries in -1..1 that fail them,
    2094 verified.  So the check, not the lemma, decides here; `_mc_max`,
    which proves the conditions, attaches the prediction unverified.
    """
    lam = gr(lam)
    cd = convolution(t, lam)
    comp = cd.complement_basis
    q = len(comp)
    if q == 0:
        raise PreconditionFailError("middle convolution collapsed to rank zero")
    n, pi, w = t.rank, cd.projection, linalg.block_matrix([list(t.matrices)])
    w_c = tuple([[r[c] for c in comp] for r in part] for part in (w.re, w.im))
    e, lr, li = linalg._integer_pair(lam)
    den = lcm(pi.den * w.den, e)
    s, u = den // (pi.den * w.den), den // e
    mats = []
    for j in range(t.num_points):
        block = slice(j * n, (j + 1) * n)
        pi_j = tuple([r[block] for r in part] for part in (pi.re, pi.im))
        re, im = ([[x * s for x in r] for r in part] for part in linalg._gaussian_matmul(pi_j, w_c))
        for k in (k for k, c in enumerate(comp) if c // n == j):
            re[k][k] += lr * u
            im[k][k] += li * u
        mats.append(linalg._matrix(q, q, den, re, im))
    out = SchlesingerTuple(t.poles, mats)
    if t.scheme is None:
        return out
    try:
        predicted = predicted_scheme(t.scheme, lam)
    except NotNormalizableError:
        return out
    return _attach_scheme(out, predicted) if verify_scheme(out, predicted) else out


# -- point bookkeeping operations -------------------------------------------------


def swap_with_infinity(t: SchlesingerTuple, j: int) -> SchlesingerTuple:
    """Exchange the residue at the j-th point (1-based) with the one at
    infinity; an involution.  An exact transport: the new residue at
    infinity is -(sum A - A_j + A_inf) = A_j, so the two columns swap."""
    if not 1 <= j <= t.num_points:
        raise IndexRangeError(f"point index {j} out of range")
    mats = list(t.matrices)
    mats[j - 1] = residue_at_infinity(t)
    scheme = None
    if t.scheme is not None:
        cols = list(t.scheme.columns)
        cols[0], cols[j] = cols[j], cols[0]
        scheme = RiemannScheme._of_canonical(t.poles, cols)
    return _attach_scheme(SchlesingerTuple(t.poles, mats), scheme)


def permute(t: SchlesingerTuple, sigma: Sequence[int]) -> SchlesingerTuple:
    """Relabel the finite points by the permutation (1-based): position i
    receives the data of position sigma_i, poles included.  An exact
    transport: the residues and their sum are unchanged."""
    p = t.num_points
    if sorted(sigma) != list(range(1, p + 1)):
        raise NotAPermutationError(f"{sigma!r} is not a permutation of 1..{p}")
    mats = [t.matrices[s - 1] for s in sigma]
    poles = [t.poles[s - 1] for s in sigma]
    cols = None if t.scheme is None else t.scheme.columns
    scheme = None if cols is None else RiemannScheme._of_canonical(poles, [cols[0]] + [cols[s] for s in sigma])
    return _attach_scheme(SchlesingerTuple(poles, mats), scheme)


def append_infinity_pole(t: SchlesingerTuple, t_new) -> SchlesingerTuple:
    """Materialize the residue at infinity as a new finite point.

    The new last matrix is the negated sum, the point at infinity is left with
    the zero residue, and the scheme column at infinity moves to the new point.
    An exact transport: infinity's column becomes the zero class [0:n].
    """
    t_new = gr(t_new)
    if t_new in t.poles:
        raise DuplicatePoleError(f"pole {t_new} already present")
    mats = list(t.matrices) + [residue_at_infinity(t)]
    poles = list(t.poles) + [t_new]
    scheme = None
    if t.scheme is not None:
        cols = t.scheme.columns
        scheme = RiemannScheme._of_canonical(poles, [((gr(0), t.rank),), *cols[1:], cols[0]])
    return _attach_scheme(SchlesingerTuple(poles, mats), scheme)


def drop_trailing_zero_pole(t: SchlesingerTuple) -> SchlesingerTuple:
    """Remove the last point when its residue is zero (inverse of appending).
    An exact transport: the other residues and their sum are unchanged."""
    if t.num_points < 2:
        raise IndexRangeError("cannot drop the only point")
    if not t.matrices[-1].is_zero():
        raise PreconditionFailError("last residue is not zero")
    scheme = None if t.scheme is None else RiemannScheme._of_canonical(t.poles[:-1], t.scheme.columns[:-1])
    return _attach_scheme(SchlesingerTuple(t.poles[:-1], t.matrices[:-1]), scheme)


# -- scheme-level transformation ---------------------------------------------------


def predicted_scheme(s: RiemannScheme, lam) -> RiemannScheme:
    """Transform a scheme the way the rank-changing convolution does.

    The value lam is pinned to the top slot at infinity and zero to the top
    slot at each finite point (inserting empty slots when the value is absent,
    taking the largest multiplicity among equal values).  The top
    multiplicities drop by the slot defect d; remaining labels shift by
    -lam at infinity and +lam at finite points.  For lam = 0 the convolution
    is the identity up to conjugacy and the scheme is returned unchanged.
    The convolution half of `plan_step`; each column is sorted once.

    Lemma.  Let s be the verified scheme of a tuple t that satisfies
    Dettweiler and Reiter's conditions (*) and (**), and let lam != 0.  Then
    this is the scheme of `middle_convolution(t, lam)`, and it raises
    nothing.

    Proof.  A canonical column lists each label's parts in descending
    multiplicity, and a class is fixed by its Weyr counts w_k, the number
    of Jordan blocks of size >= k at the label; so each label's parts must
    be the output's Weyr counts.  The output's rank is m = pn - sum_j
    nullity(A_j) - nullity(A_inf - lam): K = (+) ker A_j, L = diag ker(sum
    A_j + lam) and they meet in 0.  The largest part of a label is its
    nullity, so the finite slots are nullity(A_j), infinity's is
    nullity(A_inf - lam), and d = n - m.  Under the hypotheses, Dettweiler
    and Reiter's theorem (J. Algebra 318 (2007)) gives the output's Jordan
    blocks.  At a finite point, J(a, l) with a not in {0, -lam} becomes
    J(a + lam, l), J(0, l) becomes J(lam, l - 1), J(-lam, l) becomes
    J(0, l + 1), and e blocks J(0, 1) fill the rank m.  Let z_1 >= z_2 >= ...
    be the Weyr counts at 0 and y_1 >= y_2 >= ... those at -lam.  The output
    has a's counts at a + lam, z_2, z_3, ... at lam, and y_1 + e, y_1, y_2,
    ... at 0.  The blocks other than the e fill n - z_1 + y_1, so
    y_1 + e = m - n + z_1 = z_1 - d.  The rule above moves every finite part
    by lam, except the slot, the part z_1 at 0, which becomes z_1 - d at 0:
    the first Weyr count at 0, followed by the y_k moved there from -lam,
    while the z_k for k >= 2 land at lam.  At infinity, J(a, l) with a not in
    {0, lam} becomes J(a - lam, l), J(lam, l) becomes J(0, l - 1), J(0, l)
    becomes J(-lam, l + 1), and e' blocks J(-lam, 1) fill the rank; with
    u_k at lam and v_k at 0, the same count gives u_1 - d = v_1 + e' as the
    first Weyr count at -lam, followed by the v_k, and u_2, u_3, ... at 0.
    A multiplicity z_1 - d or u_1 - d of zero means no block there, and
    `canonical_column` drops the part.  As e and e' are >= 0, no
    multiplicity is negative.
    """
    lam = gr(lam)
    if lam.is_zero():
        return s
    n, p = s.order, len(s.poles)
    inf_slot, inf_rest = _split_slot(s.column_at_infinity(), lam)
    finite = [_split_slot(col, gr(0)) for col in s.columns[1:]]
    d = inf_slot + sum(top for top, _ in finite) - (p - 1) * n
    if inf_slot - d < 0:
        raise NotNormalizableError("top multiplicity at infinity would become negative")
    new_cols = [canonical_column([(-lam, inf_slot - d)] + [(x - lam, m) for x, m in inf_rest])]
    for top, rest in finite:
        if top - d < 0:
            raise NotNormalizableError("top multiplicity at a finite point would become negative")
        new_cols.append(canonical_column([(gr(0), top - d)] + [(x + lam, m) for x, m in rest]))
    return RiemannScheme._of_canonical(s.poles, new_cols)


def _split_slot(col: Column, value: GaussianRational) -> tuple[int, list]:
    """Take the largest-multiplicity part with the given label out of the
    column; returns (its multiplicity or 0, the remaining parts)."""
    parts = [i for i, (label, _) in enumerate(col) if label == value]
    if not parts:
        return 0, list(col)
    best = max(parts, key=lambda i: col[i][1])  # the first on a tie
    return col[best][1], [e for i, e in enumerate(col) if i != best]


def mc_max(t: SchlesingerTuple) -> SchlesingerTuple:
    """The canonical reduction step (`plan_step`): additions that zero the
    maximal finite slots, then the convolution at the maximal slot total.

    The order drops by the slot defect exactly when that total is nonzero;
    slot ties are retried to avoid a zero total when possible.  A slot
    defect d <= 0 raises PreconditionFailError (`plan_step`).
    """
    if t.scheme is None:
        raise SchemeUnavailableError("reduction step needs a declared scheme")
    if not is_irreducible(t):
        raise NotIrreducibleError("reduction step requires an irreducible tuple")
    return _mc_max(t)


def _mc_max(t: SchlesingerTuple) -> SchlesingerTuple:
    """`mc_max` on a scheme-carrying tuple that the caller has proven
    irreducible: `plan_step` of its scheme applied to the residues, with
    the step's scheme attached by lemma.

    Lemma.  The output is irreducible, and its scheme is the step's.

    Proof.  An addition shifts each residue by a scalar, so it keeps every
    invariant subspace, and its scheme is `_shifted`'s.  An irreducible
    tuple of rank >= 2 satisfies Dettweiler and Reiter's conditions (*) and
    (**): a nonzero vector in the kernels of the A_i, i != j, and of
    A_j + tau spans an invariant line, and a proper subspace that contains
    their images is invariant, and nonzero unless every residue is scalar.
    The step's lam is nonzero: the slot labels' sum, or after a retry on a
    zero sum, a different label less the one it replaced.  So their theorem
    makes the convolution irreducible, and `predicted_scheme`'s lemma gives
    its scheme; a rank-0 output raises.  At rank 1 each column has one
    part, the additions zero every finite residue, K is the whole space and
    the convolution raises.
    """
    step = plan_step(t.scheme)
    out = middle_convolution(addition(t.with_scheme(None), step.mu), step.lam)
    return _attach_scheme(out, step.scheme)


class KatzStep(NamedTuple):
    """A Katz step on labels: each column's slot (1-based, infinity first),
    the additions mu, the convolution parameter lam and the next scheme."""

    slots: tuple[int, ...]
    mu: tuple[GaussianRational, ...]
    lam: GaussianRational
    scheme: RiemannScheme


def plan_step(s: RiemannScheme) -> KatzStep:
    """The step of `mc_max` read from the scheme s alone, the Katz
    counterpart of `yokoyama.plan_round`.  Each slot is its column's first
    part (`tau_max`) and lam is the sum of their labels.  On a zero lam, the
    first other part of a column's largest multiplicity whose label differs
    from its slot's takes the slot; with none, the step is undefined.  mu
    moves the finite slots to 0, and infinity's slot to lam (`_shifted`),
    and `predicted_scheme` convolves at lam, which lowers the order by the
    slot defect d; a scheme with d <= 0 has no step.
    """
    cols = s.columns
    d = sum(col[0][1] for col in cols) - (len(cols) - 2) * s.order
    if d <= 0:
        raise PreconditionFailError(f"slot defect d = {d}: a Katz step would not lower the order {s.order}")
    slots, labels = [1] * len(cols), [col[0][0] for col in cols]
    if sum(labels, gr(0)).is_zero():
        retry = ((j, i) for j, col in enumerate(cols) for i, (label, mult) in enumerate(col)
                 if mult == col[0][1] and label != labels[j])
        j, i = next(retry, (None, None))
        if j is None:
            raise PreconditionFailError("every maximal slot choice sums to zero; the reduction step is undefined")
        slots[j], labels[j] = i + 1, cols[j][i][0]
    mu, lam = tuple(-label for label in labels[1:]), sum(labels, gr(0))
    return KatzStep(tuple(slots), mu, lam, predicted_scheme(_shifted(s, mu), lam))
