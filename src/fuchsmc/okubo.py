"""Okubo normal form: (xI - T) du/dx = A u with T diagonal by blocks.

A system in this shape is the same thing as a residue tuple whose j-th matrix
is the j-th block row of A; both directions of that dictionary live here,
together with the normal-form genericity conditions, the image-space
realization of the rank-changing convolution, and the generic Euler
transformation A -> A + lambda.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import linalg
from .errors import (
    ConditionsFailError,
    DuplicatePoleError,
    EigenvalueCollisionError,
    InvariantError,
    NotOkuboConvertibleError,
    NotONFShapeError,
    PreconditionFailError,
    SizeMismatchError,
)
from .katz import predicted_scheme
from .linalg import ExactMatrix
from .scalars import GaussianRational, format_scalar, gr
from .schlesinger import SchlesingerTuple, _attach_scheme, verify_scheme
from .spectral import Column, RiemannScheme, canonical_column


class OkuboSystem:
    """Block sizes, poles and the single coefficient matrix of a normal-form
    system; immutable, optionally with a verified scheme.  The residue tuple
    is built by the first `scf_from_onf` and kept.  A block of size 0 is a
    point with a zero residue, whose column is [0:n]."""

    __slots__ = ("block_sizes", "poles", "a", "scheme", "_residues")

    def __init__(
        self,
        block_sizes: Sequence[int],
        poles: Sequence,
        a: ExactMatrix,
        scheme: Optional[RiemannScheme] = None,
    ):
        block_sizes = tuple(int(b) for b in block_sizes)
        poles = tuple(gr(t) for t in poles)
        if len(block_sizes) != len(poles):
            raise SizeMismatchError("one block per pole required")
        if any(b < 0 for b in block_sizes):
            raise SizeMismatchError("block sizes must not be negative")
        if len(set(poles)) != len(poles):
            raise DuplicatePoleError("poles must be pairwise distinct")
        n = sum(block_sizes)
        if not a.is_square() or a.nrows != n:
            raise SizeMismatchError("coefficient matrix must match the block total")
        self.block_sizes = block_sizes
        self.poles = poles
        self.a = a
        self.scheme = None
        self._residues = None
        if scheme is not None:
            if not verify_scheme(scf_from_onf(self), scheme):
                raise InvariantError("declared scheme does not match the system")
            self.scheme = scheme

    @property
    def rank(self) -> int:
        return self.a.nrows

    @property
    def num_points(self) -> int:
        return len(self.block_sizes)

    def with_scheme(self, scheme: Optional[RiemannScheme]) -> "OkuboSystem":
        return OkuboSystem(self.block_sizes, self.poles, self.a, scheme)

    def block_range(self, j: int) -> range:
        """Row/column range of the j-th block, 1-based."""
        start = sum(self.block_sizes[: j - 1])
        return range(start, start + self.block_sizes[j - 1])

    def diagonal_block(self, j: int) -> ExactMatrix:
        r = self.block_range(j)
        return self.a.submatrix(r, r)

    def __eq__(self, other):
        if not isinstance(other, OkuboSystem):
            return NotImplemented
        return (
            self.block_sizes == other.block_sizes
            and self.poles == other.poles
            and self.a == other.a
        )

    def __repr__(self):
        return f"OkuboSystem(blocks={self.block_sizes}, n={self.rank})"


def scf_from_onf(o: OkuboSystem) -> SchlesingerTuple:
    """Residue tuple of the system: A_j is block row j of A, zero elsewhere."""
    t = o._residues
    if t is None:
        n = o.rank
        # row n of `padded` is zero: residue j takes block row j of A and that
        # zero row everywhere else
        padded = o.a.vstack(ExactMatrix.zeros(1, n))
        mats = []
        for j in range(1, o.num_points + 1):
            r = o.block_range(j)
            mats.append(padded.submatrix([i if i in r else n for i in range(n)], range(n)))
        t = o._residues = SchlesingerTuple(o.poles, mats)
    # o's scheme was verified against exactly this tuple when o was built
    return _attach_scheme(t, o.scheme)


def onf_from_scf(t: SchlesingerTuple) -> OkuboSystem:
    """Conjugate a tuple into normal form.

    Needs every residue nonzero, their ranks to sum to the rank of the system
    and the images to fill the whole space; the conjugating matrix is
    assembled from the canonical image bases in point order, so conversion
    is deterministic.
    """
    n = t.rank
    images = _images(t)
    blocks = [c.ncols for c in images]
    if sum(blocks) != n:
        raise NotOkuboConvertibleError(
            f"residue ranks sum to {sum(blocks)}, expected the system rank {n}"
        )
    if 0 in blocks:
        j = blocks.index(0) + 1
        raise NotOkuboConvertibleError(
            f"the residue at t_{j} = {format_scalar(t.poles[j - 1])} is zero and would leave an empty block"
        )
    g = linalg.block_matrix([images])
    if linalg.rank(g) != n:
        raise NotOkuboConvertibleError("residue images do not fill the whole space")
    ginv = linalg.inverse(g)
    total = t.matrices[0]
    for m in t.matrices[1:]:
        total = total + m
    o = OkuboSystem(blocks, t.poles, ginv * total * g)
    # block row j of a is g^-1 A_j g, since g^-1 A_k g maps into block k: each
    # residue is conjugate to t's, so t's verified scheme carries over exactly
    return _attach_scheme(o, t.scheme)


def _images(t: SchlesingerTuple) -> list[ExactMatrix]:
    """Per residue, its pivot columns: the canonical basis of its image."""
    rows = range(t.rank)
    return [m.submatrix(rows, linalg.independent_columns(m)) for m in t.matrices]


def check_onf_conditions(o: OkuboSystem) -> bool:
    """Full rank of A plus per-block kernel/image genericity.

    The per-block tests quantify over all scalar shifts; each asks that no
    nonzero invariant subspace of the diagonal block lie in the kernel of
    the other blocks' rows in its column strip (of their columns in its row
    strip, for the transposed test).  That subspace is the kernel of the
    observability matrix [C; C a; C a^2; ...], so each test is one rank
    (`linalg.row_spin_dim`), and the decision is exact.  This is a code
    path independent of the residue-tuple genericity test, and equivalent
    to it.  A carried scheme answers the rank: A is minus the residue at
    infinity, so it is invertible exactly when the verified infinity column
    has no zero label.

    Lemma.  On an irreducible normal form of rank n >= 2 the conditions
    hold; at rank 1 they say A != 0, which a scheme reads as `_invertible`.

    Proof.  The residues are E_j A, with E_j the projection onto block j,
    so a subspace that is A-invariant and graded (the sum of its
    intersections with the blocks) is invariant under every residue.  If
    the column test fails, some eigenvector v of A_ii is killed by the
    other rows of its column strip; placed in block i, v is an
    eigenvector of A, and it spans a graded line.  If the row test fails,
    some left eigenvector w of A_ii kills the rest of its row strip; then
    w applied to block i cuts out an A-invariant graded hyperplane.  A
    kernel vector of A is killed by every residue, and it spans an
    invariant line.  For n >= 2 each is a proper invariant subspace.
    """
    n = o.rank
    if o.scheme is not None:
        if not _invertible(o.scheme):
            return False
    elif linalg.rank(o.a) != n:
        return False
    for i in range(1, o.num_points + 1):
        rng = o.block_range(i)
        others = [r for r in range(n) if r not in rng]
        aii = o.a.submatrix(rng, rng)
        # column test: no eigenvector of the diagonal block killed by the
        # other blocks' rows in the same column strip
        col_strip = o.a.submatrix(others, rng)
        if not _block_condition(aii, col_strip):
            return False
        # row test: the transposed analogue on the row strip
        row_strip = o.a.submatrix(rng, others).transpose()
        if not _block_condition(aii.transpose(), row_strip):
            return False
    return True


def _block_condition(aii: ExactMatrix, strip: ExactMatrix) -> bool:
    # a single-point system has no other blocks; the empty constraint set is
    # pinned to the zero subspace, matching the tuple-level convention
    if strip.nrows == 0:
        return True
    return linalg.row_spin_dim(strip, aii) == aii.nrows


def mc_via_images(o: OkuboSystem, lam) -> OkuboSystem:
    """The rank-changing convolution realized on the residue images.

    When -lam misses the spectrum of A the convolution of the underlying tuple
    is conjugate to a normal-form system living on the direct sum of the
    residue images; this builds that system directly and is the independent
    counterpart of the quotient construction.

    Lemma.  Let o satisfy the normal-form conditions and carry a verified
    scheme s, with lam != 0 and A + lam invertible.  The output is
    conjugate to `middle_convolution(scf_from_onf(o), lam)`, and its scheme
    is `predicted_scheme(s, lam)`.

    Proof.  Write A_j = E_j A for the residues, E_j the projection onto
    block j.  First, L = diag ker(sum A_j + lam) = diag ker(A + lam) = 0.
    The map phi: (v_nu) -> (A_nu v_nu) takes V = (Q(i)^n)^p onto
    W = (+) im A_nu with kernel K, and phi G_j = H_j phi, where H_j vanishes
    outside row block j, which is (A_j ... A_j) + lam.  So V/(K + L) with
    the induced maps is W with the H_j, and the output, the restriction of
    their sum to W in the image bases, has the H_j as its residues.
    Second, the residues satisfy (*) and (**), as A is invertible.  (*) at
    k: let A_j v = 0 for j != k and (A_k + tau) v = 0.  Then A v = A_k v =
    -tau v, so v = 0 when tau = 0; else v = -A_k v / tau lies in block k,
    where it is an eigenvector of the diagonal block killed by the other
    rows of its column strip, which the column test excludes.  (**) at k:
    let w A_j = 0 for j != k and w (A_k + tau) = 0.  Each block row of A has
    full row rank, so w vanishes outside block k; there it is a left
    eigenvector of the diagonal block that kills the rest of its row
    strip, which the row test excludes.  With one point there is no other
    block, and no condition is needed: K = ker A = 0, the output is A + lam,
    and `predicted_scheme` moves s by lam with d = 0.  Otherwise
    `predicted_scheme`'s lemma gives the scheme.
    """
    lam = gr(lam)
    if lam.is_zero():
        raise PreconditionFailError("the image realization needs a nonzero parameter")
    if not check_onf_conditions(o):
        raise ConditionsFailError("normal-form genericity conditions fail")
    n = o.rank
    if linalg.rank(o.a.shift(lam)) < n:
        raise EigenvalueCollisionError("-lambda is an eigenvalue of the coefficient matrix")
    t = scf_from_onf(o)
    # the sum of the convolution tuple as induced on (+) im A_j through
    # (v_nu) -> (A_nu v_nu): its row block j is (A_j ... A_j) + lambda
    gsum = linalg.block_matrix([[m] * o.num_points for m in t.matrices]).shift(lam)
    # (+) im A_j as the block-diagonal matrix of the image bases
    images = _images(t)
    zeros = [ExactMatrix.zeros(n, c.ncols) for c in images]
    b = linalg.block_matrix([zeros[:j] + [c] + zeros[j + 1 :] for j, c in enumerate(images)])
    # the new coefficient matrix is the restricted sum
    out = OkuboSystem([c.ncols for c in images], o.poles, linalg.solve(b, gsum * b))
    return _attach_scheme(out, None if o.scheme is None else predicted_scheme(o.scheme, lam))


def euler_transform(o: OkuboSystem, lam) -> OkuboSystem:
    """A -> A + lambda, defined when -lambda misses the spectrum of A.

    Composes additively in lambda.  `check_onf_conditions` proves A
    invertible, and `_euler_transform` shifts.
    """
    if not check_onf_conditions(o):
        raise ConditionsFailError("normal-form genericity conditions fail")
    return _euler_transform(o, lam)


def _euler_transform(o: OkuboSystem, lam) -> OkuboSystem:
    """`euler_transform` of a normal form whose A the caller has proven
    invertible.  An exact transport (`scheme_of_euler`):

    Lemma.  Let o carry a verified scheme, with A and A + lambda invertible.
    The residue at infinity -(A + lambda) has the classes of -A with every
    label lowered by lambda.  The residue of block j has the column
    [0:n - n_j] followed by the classes of its diagonal block plus lambda,
    which are the block's classes with every label raised by lambda.

    Proof.  A scalar shift moves every label and keeps every Weyr count.
    A and A + lambda are invertible, so the block lemma (`_structural_zero`)
    gives the column of block j, in o and in the output alike, as
    [0:n - n_j] followed by the classes of the diagonal block (n_j = n
    leaves one point, whose residue is the whole matrix).

    Lemma (the shift keeps irreducibility).  With A and A + lambda
    invertible, o is irreducible exactly when the output is.

    Proof.  Let V be invariant under every E_j (A + lambda).  Their sum
    A + lambda maps V into V, so its inverse does, and so does
    M = (A + lambda)^-1 A.  Then E_j A = E_j (A + lambda) M maps V into V.
    The converse is the same argument with A^-1.

    A + lambda is singular exactly when lambda is a label at infinity, the
    residue there being -A; a carried scheme answers that, and without one
    the rank is formed.  `_structural_zero` finds each [0:n - n_j].
    """
    lam = gr(lam)
    if lam.is_zero():
        return o
    if o.scheme is not None:
        collides = any(label == lam for label, _ in o.scheme.column_at_infinity())
    else:
        collides = linalg.rank(o.a.shift(lam)) < o.rank
    if collides:
        raise EigenvalueCollisionError("-lambda is an eigenvalue of the coefficient matrix")
    out = OkuboSystem(o.block_sizes, o.poles, o.a.shift(lam))
    scheme = None if o.scheme is None else scheme_of_euler(o.scheme, o.block_sizes, lam)
    return _attach_scheme(out, scheme)


def scheme_of_euler(
    s: RiemannScheme, block_sizes: Sequence[int], lam
) -> RiemannScheme:
    """Label bookkeeping of the Euler transformation on a normal-form scheme.

    The structural kernel part of size n - n_j at each finite point stays at
    zero; every other finite label gains lambda and the labels at infinity
    lose it.
    """
    lam = gr(lam)
    n = s.order
    cols = [canonical_column([(l - lam, m) for l, m in s.column_at_infinity()])]
    for j, nj in enumerate(block_sizes, start=1):
        rest = _structural_zero(s.column_at(j), n, nj)
        cols.append(canonical_column([(gr(0), n - nj)] + [(l + lam, m) for l, m in rest]))
    return RiemannScheme._of_canonical(s.poles, cols)


def _invertible(s: RiemannScheme) -> bool:
    """Whether A is invertible in a normal form carrying the verified scheme
    s: A is minus the residue at infinity, so when that column has no zero
    label."""
    return not any(label.is_zero() for label, _ in s.column_at_infinity())


def _structural_zero(col: Column, n: int, nj: int) -> list:
    """The parts of a normal-form column without its structural kernel part
    [0:n - nj]: the classes of the diagonal block, by the block lemma below.
    A column without that part raises NotONFShapeError.

    Block lemma.  Let the n x n matrix M have its nonzero rows among I,
    |I| = r < n, and let its rows I, [P | B] with P = M[I, I], have full row
    rank r.  Then M is in the class of a canonical column C if and only if
    C's first zero part has multiplicity n - r and P is in the class of C
    with that part removed.  A normal-form residue whose A is invertible is
    such an M: its rows I are the block row of A, which no other residue
    shares.

    Proof.  Ordering I first, M = [[P, B], [0, 0]].  For c != 0,
    M - c = [[P - c, B], [0, -c]] with -c invertible, so
    nullity((M - c)^k) = nullity((P - c)^k).  For c = 0, the rows of M^k
    are those of P^(k-1) [P | B], whose rank is rank(P^(k-1)) since
    [P | B] has full row rank, so nullity(M^k) = n - r + nullity(P^(k-1)).
    The Weyr counts of M are therefore those of P, except at 0, where
    n - r comes first.  A canonical column lists the parts of each label in
    descending multiplicity, and they are that label's Weyr counts, so C's
    zero parts must be n - r followed by P's, and its other parts P's.
    """
    if nj == n:
        return list(col)
    for i, (label, m) in enumerate(col):
        if label.is_zero() and m == n - nj:
            return [e for k, e in enumerate(col) if k != i]
    raise NotONFShapeError("column lacks the kernel part of the declared block size")


def pick_generic(forbidden: Sequence) -> GaussianRational:
    """Smallest positive integer avoiding the forbidden values."""
    forbidden_set = {gr(x) for x in forbidden}
    k = 1
    while gr(k) in forbidden_set:
        k += 1
    return gr(k)
