"""Extension and restriction of normal-form systems.

Extension adjoins a singular point and raises the rank by the dimension of
IM (A - rho1)(A - rho2); restriction deletes a block and lowers it.  Both are
closed-form block matrices, and each carries its Riemann scheme by a transport
lemma stated in its docstring.  Restriction is the inverse of extension:
extending its output at (mu1, mu2) and the deleted pole gives back its input
up to a block-diagonal conjugation, so its lemma follows from extension's.
Extension is also realized as a pipeline of additions, rank-changing
convolutions and point swaps (`extend_composite`); the two routes land in the
same conjugacy class, which the tests exercise.
The composite operators below package the restriction-of-extension
identities; one planner (`plan_round`) reads their parameters, and those of
both levels of the reduction driver, from the labels.  An extension with
(A - rho1)(A - rho2) = 0 adds an empty block, a point with a zero residue.

Irreducibility is proven once, on a round's input, and carried through
each stage by three lemmas, so the stages run the private cores
(`_extend_direct`, `okubo._euler_transform`, `_restrict`), which check
nothing that the lemmas give:
1. the normal-form conditions follow from irreducibility at rank >= 2, and
   at rank 1 they say A != 0 (`check_onf_conditions`);
2. the Euler shift keeps irreducibility (`okubo._euler_transform`);
3. extension and restriction keep it (`_extend_direct`, `_restrict`).
The public operations keep every check they make, and the public
composites prove their input irreducible at entry.

Pole bookkeeping: the operator identities act on matrix tuples, so pole values
travel as labels.  A restriction at point j leaves the extension's new pole
sitting at position j; the second extension of the two-step composite reuses
the deleted pole, which makes its pole set match the plain pipeline exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import linalg
from .errors import (
    ConditionsFailError,
    CRViolatedError,
    DegenerateExtensionError,
    DuplicatePoleError,
    IndexRangeError,
    NotGenericError,
    NotIrreducibleError,
    NotONFShapeError,
    NotQ2Error,
    ZeroRhoError,
)
from .katz import (
    _split_slot,
    addition,
    append_infinity_pole,
    middle_convolution,
    swap_with_infinity,
)
from .okubo import (
    OkuboSystem,
    _euler_transform,
    _structural_zero,
    check_onf_conditions,
    pick_generic,
    scf_from_onf,
    scheme_of_euler,
)
from .scalars import GaussianRational, gr
from .schlesinger import SchlesingerTuple, _attach_scheme, _gaussian_parts, is_irreducible
from .spectral import RiemannScheme, canonical_column


@dataclass(frozen=True)
class ExtensionParams:
    rho1: GaussianRational
    rho2: GaussianRational
    t_new: GaussianRational

    def __init__(self, rho1, rho2, t_new):
        rho1, rho2, t_new = gr(rho1), gr(rho2), gr(t_new)
        if rho1.is_zero() or rho2.is_zero():
            raise ZeroRhoError("extension parameters must be nonzero")
        object.__setattr__(self, "rho1", rho1)
        object.__setattr__(self, "rho2", rho2)
        object.__setattr__(self, "t_new", t_new)


@dataclass(frozen=True)
class RestrictionParams:
    mu1: GaussianRational
    mu2: GaussianRational
    j: int

    def __init__(self, mu1, mu2, j):
        object.__setattr__(self, "mu1", gr(mu1))
        object.__setattr__(self, "mu2", gr(mu2))
        object.__setattr__(self, "j", int(j))


# -- extension -----------------------------------------------------------------


def extend_direct(o: OkuboSystem, params: ExtensionParams) -> OkuboSystem:
    """Closed-form extension on C^n + IM (A - rho1)(A - rho2).

    With s = rho1 + rho2, W = (A - rho1)(A - rho2) of rank r and C the
    canonical basis of U = IM W (its pivot columns), the new matrix is
    A_hat = [[A, C], [X, Y]] with CX = -W and CY = (s - A)C.  W = CR, with R
    the nonzero rows of W's rref, so X = -R; and (s - A)C is the pivot
    columns of (s - A)W = W(s - A) = CR(s - A), so Y = -X(A - s) on the
    pivot columns.

    `check_onf_conditions` proves A invertible, and `_extend_direct`
    builds A_hat.  r = 0 raises: the new block would be empty.
    """
    if params.t_new in o.poles:
        raise DuplicatePoleError(f"pole {params.t_new} already present")
    if not check_onf_conditions(o):
        raise ConditionsFailError("extension needs the normal-form genericity conditions")
    out = _extend_direct(o, params)
    if out.block_sizes[-1] == 0:
        raise DegenerateExtensionError("(A - rho1)(A - rho2) vanishes; the extension would add an empty block")
    return out


def _extend_direct(o: OkuboSystem, params: ExtensionParams) -> OkuboSystem:
    """`extend_direct` of a normal form whose A the caller has proven
    invertible, at a new pole.  An exact transport (`scheme_of_extension`):

    Lemma.  Let o carry a verified scheme, with A invertible and r >= 0.  Let
    m1 be the first Weyr count of A at rho1, and m2 the first at rho2, or
    the second when rho1 = rho2 (the parts `scheme_of_extension` takes from
    the infinity column).  Then -A_hat has the column [-rho1:n - m2,
    -rho2:n - m1], the new point the column [0:n] followed by o's infinity
    column without those two parts, each label l moved to s + l, and block
    j the column [0:n + r - n_j] followed by the classes of o's diagonal
    block j.

    Proof.  Expanding the blocks, with AW = WA and C of full column rank,
    gives (A_hat - rho1)(A_hat - rho2) = 0.  A vector (y, z) lies in the
    image of A_hat - rho1 exactly when y lies in IM(A - rho1) + U, which is
    IM(A - rho1), and Cz = -(A - rho2)y; so rank(A_hat - rho1) =
    rank(A - rho1) = n - m1, and likewise for rho2.  The kernel of W has
    dimension m1 + m2 (for rho1 = rho2 it is the kernel of (A - rho1)^2), so
    r = n - m1 - m2.  For rho1 != rho2, A_hat is therefore diagonalizable
    with multiplicities n + r - (n - m1) = n - m2 and n - m1; for rho1 =
    rho2 its Weyr counts there are n - m2 and n - m1.  Y is s - A on U in
    the basis C.  On A's generalized eigenspace at lam not in {rho1, rho2},
    W is invertible; at rho_k it is (A - rho_k), or (A - rho_k)^2 when
    rho1 = rho2, times an invertible map.  So A on U has A's Weyr counts
    with the first one at each rho_k removed (the first two when rho1 =
    rho2), and Y has them at s - lam, which is s + l for the label l = -lam
    at infinity.  The block lemma (`_structural_zero`) needs a residue's
    block row to have full row rank, and each block row of A_hat has it:
    [A_j | C_j] contains A's block row j, A being invertible, and [X | Y]
    has r rows and rank(X) = rank(W) = r.
    So block j's column is [0:n + r - n_j] followed by the classes of
    A_hat's diagonal block j: A's block for j <= p, Y for the new point.
    The same lemma on o reads A's blocks from o's scheme.

    Lemma (extension keeps irreducibility).  If o is irreducible, so is
    A_hat.

    Proof.  Let V be invariant under every residue E_j A_hat.  Each
    E_j A_hat V lies in V and in block j, and their sum A_hat V has V's
    dimension, as A_hat is invertible (its eigenvalues are among the
    nonzero rho1 and rho2).  So V is graded: V = V1 + V2, V1 in C^n and V2
    in the new block.  A_hat (y, 0) = (Ay, Xy) and A_hat (0, z) = (Cz, Yz),
    so V1 is A-invariant and graded, hence invariant under o's residues:
    V1 is 0 or C^n.  If V1 = 0, then Cz = 0 on V2, and C is injective, so
    V = 0.  If V1 = C^n, then V2 contains the image of X, of rank r, so V
    is everything.

    Both lemmas hold at r = 0, where C, X and Y are empty: A_hat = A, and
    the new point is an empty block, whose zero residue has the column
    [0:n], as o's infinity column without the two parts is empty (r = n -
    m1 - m2).  The caller has proven A invertible, as the scheme lemma
    needs.  A_hat need not be invertible for that lemma: it holds for a
    zero rho too, which ExtensionParams refuses.
    """
    a = o.a
    n = o.rank
    w = a.shift(-params.rho1) * a.shift(-params.rho2)
    reduced, pivots = linalg.rref(w)
    r = len(pivots)
    c = w.submatrix(range(n), pivots)
    x = -reduced.submatrix(range(r), range(n))
    y = x * a.shift(-(params.rho1 + params.rho2)).submatrix(range(n), pivots)
    a_hat = linalg.block_matrix([[a, c], [x, y]])
    out = OkuboSystem(list(o.block_sizes) + [r], list(o.poles) + [params.t_new], a_hat)
    scheme = None if o.scheme is None else scheme_of_extension(
        o.scheme, params.rho1, params.rho2, o.block_sizes, params.t_new
    )
    return _attach_scheme(out, scheme)


def extend_composite(o: OkuboSystem, params: ExtensionParams) -> SchlesingerTuple:
    """Extension as a pipeline on the residue tuple: convolution down by rho1,
    materialize infinity as the new point, shift it by rho2 - rho1, convolve
    back up by rho1."""
    if not check_onf_conditions(o):
        raise ConditionsFailError("extension needs the normal-form genericity conditions")
    t = scf_from_onf(o)
    t = middle_convolution(t, -params.rho1)
    t = append_infinity_pole(t, params.t_new)
    mu = [gr(0)] * t.num_points
    mu[-1] = params.rho2 - params.rho1
    t = addition(t, mu)
    return middle_convolution(t, params.rho1)


# -- restriction ----------------------------------------------------------------


def swap_blocks(o: OkuboSystem, i: int, j: int) -> OkuboSystem:
    """Transpose two blocks (1-based), reordering coordinates, poles and the
    scheme columns together.  An exact transport: a conjugation by a
    permutation matrix, so every residue keeps its class."""
    p = o.num_points
    if not (1 <= i <= p and 1 <= j <= p):
        raise IndexRangeError("block index out of range")
    if i == j:
        return o
    order = _swapped(range(1, p + 1), i, j)
    idx = [k for b in order for k in o.block_range(b)]
    out = OkuboSystem(_swapped(o.block_sizes, i, j), _swapped(o.poles, i, j), o.a.submatrix(idx, idx))
    return _attach_scheme(out, None if o.scheme is None else _swap_points(o.scheme, i, j))


def _swap_points(s: RiemannScheme, i: int, j: int) -> RiemannScheme:
    """The scheme with finite points i and j (1-based) exchanged, poles and
    columns together: `swap_blocks` on labelled data."""
    if i == j:
        return s
    columns = s.columns[:1] + tuple(_swapped(s.columns[1:], i, j))
    return RiemannScheme._of_canonical(_swapped(s.poles, i, j), columns)


def _swapped(items, i: int, j: int) -> list:
    """The items with positions i and j (1-based) exchanged."""
    out = list(items)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return out


def restrict(o: OkuboSystem, params: RestrictionParams) -> OkuboSystem:
    """Delete the block at point j (after moving it last); the inverse of
    `extend_direct`.

    Defined for linearly irreducible systems whose coefficient matrix
    satisfies (A - mu1)(A - mu2) = 0, provided mu1 + mu2 misses the spectrum
    of the target diagonal block (the CR condition).  The first two are
    checked here and CR by `_restrict`.  The scheme answers the quadratic
    relation (`_annihilates`); without one, the product is formed.
    """
    p = o.num_points
    if not 1 <= params.j <= p:
        raise IndexRangeError(f"block index {params.j} out of range")
    if p < 2:
        raise IndexRangeError("cannot restrict a single-point system")
    if o.scheme is not None:
        quadratic = _annihilates(o.scheme, params.mu1, params.mu2)
    else:
        quadratic = (o.a.shift(-params.mu1) * o.a.shift(-params.mu2)).is_zero()
    if not quadratic:
        raise NotQ2Error("coefficient matrix does not satisfy the quadratic relation")
    if not is_irreducible(scf_from_onf(o)):
        raise NotIrreducibleError("restriction requires a linearly irreducible system")
    return _restrict(o, params)


def _restrict(o: OkuboSystem, params: RestrictionParams) -> OkuboSystem:
    """`restrict` of an irreducible normal form with (A - mu1)(A - mu2) = 0
    and at least two points, as the caller has proven.  With the deleted
    block last, write A = [[A', B], [D, E]], E of size n_p, s = mu1 + mu2
    and F = s - E.  An exact transport (`scheme_of_restriction`):

    Lemma.  Under these hypotheses and CR, let o, with block j moved last,
    carry a verified scheme sigma.  Then scheme_of_restriction(sigma) is
    the output's scheme.

    Proof.  (1) A is invertible: a common kernel vector of the residues,
    which are A's block rows, spans an invariant line, and o is irreducible
    of rank n >= 2.  A is not scalar either, as a scalar A leaves each
    coordinate line invariant, so both mu are eigenvalues of A, and
    nonzero.  (2) The blocks of (A - mu1)(A - mu2) = 0 read A'B = BF,
    DA' = FD and (A' - mu1)(A' - mu2) = -BD.  So ker B is E-invariant and
    0 + ker B is invariant under every residue; likewise C^(n - n_p) + IM D,
    since ED = D(s - A').  Irreducibility makes B injective and D
    surjective.  (3) A' is invertible: an eigenvector u of A' at lam not in
    {mu1, mu2} lies in IM B by (2), say u = Bz, and then Fz = lam z; F is
    invertible by CR.  (4) So W' = (A' - mu1)(A' - mu2) = -BD has image
    IM B, and `extend_direct` of the output at (mu1, mu2, t_p) takes the
    pivot columns C = BG of W', G invertible; then X = G^-1 D and
    Y = G^-1 E G, from CX = -W' and CY = (s - A')C = BEG.  Its matrix is
    diag(1, G)^-1 A diag(1, G), which keeps the blocks and so every
    residue's class.  (5) By (3) and `extend_direct`'s lemma, sigma is
    `scheme_of_extension` of the output's scheme sigma'.
    `scheme_of_restriction` undoes that bookkeeping, as
    r = n' - m1' - m2' = n_p, so it maps sigma to sigma'.

    Lemma (restriction keeps irreducibility).  The output is irreducible.

    Proof.  Let V' be invariant under the output's residues.  A' is
    invertible by (3), so V' is graded and A'-invariant, as in
    `_extend_direct`'s proof.  The extension of (4) has W' = -CX, and
    C Y X = (s - A') C X = C X (s - A'), so YX = X(s - A') as C is
    injective.  Hence V = V' + X V' is graded and invariant under that
    extension's matrix, which maps (y, Xz) to (A'y - W'z,
    Xy + X(s - A')z); so V is invariant under its residues.  By (4) these
    are o's residues, conjugated by diag(1, G) and with block j moved
    last, so V, and with it V', is 0 or everything.

    CR says that mu1 + mu2 is no eigenvalue of the deleted diagonal block.
    A carried scheme answers it, as `scheme_of_restriction` raises
    CRViolatedError when mu1 + mu2 labels one of that block's classes;
    without a scheme the rank is formed.
    """
    p, j = o.num_points, params.j
    if o.scheme is None:
        app = o.diagonal_block(j)
        if linalg.rank(app.shift(-(params.mu1 + params.mu2))) < app.nrows:
            raise CRViolatedError(
                "mu1 + mu2 is an eigenvalue of the deleted block; precompose a generic"
                " Euler transformation"
            )
        scheme = None
    else:
        scheme = scheme_of_restriction(_swap_points(o.scheme, j, p), _swapped(o.block_sizes, j, p))
    # `swap_blocks(o, j, p)` without its last block: block p takes j's place
    kept = _swapped(range(1, p + 1), j, p)[:-1]
    idx = [k for b in kept for k in o.block_range(b)]
    sizes, poles = [o.block_sizes[b - 1] for b in kept], [o.poles[b - 1] for b in kept]
    return _attach_scheme(OkuboSystem(sizes, poles, o.a.submatrix(idx, idx)), scheme)


def _annihilates(s: RiemannScheme, mu1, mu2) -> bool:
    """Whether (A - mu1)(A - mu2) = 0 for the A of a normal form carrying the
    verified scheme s.  A is minus the residue at infinity, and the number
    of parts of a label -mu there is the size of A's largest Jordan block at
    mu, that is the power of x - mu in A's minimal polynomial.  So the
    relation holds exactly when every label at infinity, counted once per
    part, is among -mu1 and -mu2, counted with repetition."""
    return not Counter(label for label, _ in s.column_at_infinity()) - Counter([-mu1, -mu2])


# -- restriction-of-extension composites ------------------------------------------


def re_composite(
    o: OkuboSystem, j: int, rho1, rho2, epsilon=None
) -> OkuboSystem:
    """Restriction at j of the epsilon-shifted extension.

    The net effect replaces the block at j; the rank changes by
    dim IM (A - rho1)(A - rho2) - dim IM A_j.  epsilon must avoid a finite
    exceptional set; when omitted, the planner picks the smallest positive
    integer for which every stage is defined (`plan_round`).  o must be
    irreducible (`_round_hypotheses`).
    """
    _round_hypotheses(o)
    return _run_plan(o, _plan_system(o, (j, gr(rho1), gr(rho2)), epsilon))


def _round_hypotheses(o: OkuboSystem) -> None:
    """The hypotheses that the stages of a round carry by the module's
    lemmas: o irreducible, with A invertible.  The second follows from the
    first at rank >= 2 (`check_onf_conditions`' lemma), and at rank 1 it
    says A != 0."""
    if not is_irreducible(scf_from_onf(o)):
        raise NotIrreducibleError("a round requires a linearly irreducible system")
    if o.a.is_zero():
        raise ConditionsFailError("extension needs the normal-form genericity conditions")


def re_katz_pipeline(o: OkuboSystem, j: int, rho1, rho2, epsilon) -> SchlesingerTuple:
    """The equivalent three-operation pipeline on the residue tuple: convolve
    down by rho1, swap point j with infinity, shift it by rho2 - rho1,
    convolve up by rho1 + epsilon."""
    rho1, rho2, epsilon = gr(rho1), gr(rho2), gr(epsilon)
    t = scf_from_onf(o)
    t = middle_convolution(t, -rho1)
    t = swap_with_infinity(t, j)
    mu = [gr(0)] * t.num_points
    mu[j - 1] = rho2 - rho1
    t = addition(t, mu)
    return middle_convolution(t, rho1 + epsilon)


def rere_composite(
    o: OkuboSystem, j: int, rho1, rho2, rho3, epsilon=None
) -> OkuboSystem:
    """Two extension/restriction rounds at the same point.

    Equals a convolution sandwich around a single scalar shift at j (see
    rere_katz_pipeline); the second extension reuses the deleted pole so the
    pole sets agree on the nose.  When epsilon is omitted it is planned as
    in re_composite.  o must be irreducible (`_round_hypotheses`).
    """
    _round_hypotheses(o)
    return _run_plan(o, _plan_system(o, (j, gr(rho1), gr(rho2), gr(rho3)), epsilon))


def auto_epsilon_rere(o, j, rho1, rho2, rho3):
    """The epsilon that `rere_composite` plans when none is given; o must be
    irreducible (`_round_hypotheses`)."""
    _round_hypotheses(o)
    return _plan_system(o, (j, gr(rho1), gr(rho2), gr(rho3))).shift


def rere_katz_pipeline(
    o: OkuboSystem, j: int, rho1, rho3, epsilon
) -> SchlesingerTuple:
    """Convolve down by rho1, add rho1 + rho3 at point j, convolve up by
    rho1 + epsilon."""
    rho1, rho3, epsilon = gr(rho1), gr(rho3), gr(epsilon)
    t = scf_from_onf(o)
    t = middle_convolution(t, -rho1)
    mu = [gr(0)] * t.num_points
    mu[j - 1] = rho1 + rho3
    t = addition(t, mu)
    return middle_convolution(t, rho1 + epsilon)


# -- the planner -------------------------------------------------------------------


class Plan(NamedTuple):
    """A round's shift (eps, or the k of a shifted restriction) and its
    operations, each a name ("extend", "euler", "restrict") and parameters."""

    shift: GaussianRational
    steps: tuple


def plan_round(scheme: RiemannScheme, blocks: Sequence[int], move, epsilon=None) -> Plan:
    """The plan of one round, from labelled data alone: move is () for a
    shifted restriction of the last block, (j, rho1, rho2) for one round at
    point j (`re_composite`) and (j, rho1, rho2, rho3) for two
    (`rere_composite`); `_plan` reads the shift from the labels.
    The scheme level applies the plan with the transports (`_scheme_of_plan`)
    and the matrix level with the operations (`_run_plan`)."""
    def classes(j):
        return _structural_zero(scheme.column_at(j), scheme.order, blocks[j - 1])
    return _plan(scheme.poles, blocks, move, scheme.column_at_infinity(), classes, epsilon)


def _plan_system(o: OkuboSystem, move, epsilon=None) -> Plan:
    """`plan_round` of a normal form; without a scheme, on the parts with
    labels in Q(i) of the classes of -A and of the deleted block, as every
    value the plan tests lies in Q(i)."""
    if o.scheme is not None:
        return plan_round(o.scheme, o.block_sizes, move, epsilon)
    inf = _gaussian_parts(-o.a)
    return _plan(o.poles, o.block_sizes, move, inf, lambda j: _gaussian_parts(o.diagonal_block(j)), epsilon)


def _plan(poles, blocks, move, inf, classes, epsilon) -> Plan:
    """The plan from the labels at infinity (inf) and the classes of the
    deleted block j (the last one for a shifted restriction).  Its shift is
    the given epsilon, or the first of k = 0, 1, ... (shifted restriction)
    or eps = 1, 2, ... (rounds) that blocks no operation.
    A shift blocks an operation when it is:
    - a label at infinity, -rho1 or -rho2 after an extension (the Euler
      collision of `_euler_transform`, by `scheme_of_extension`);
    - one at which mu1 + mu2, moved by twice the shift, labels a class of
      the deleted block, moved by the shift (CR, `_restrict`).  The second
      round deletes the first extension's new block, with the classes
      rho1 + rho2 + l for the labels l left at infinity;
    - eps = 0, or zeroes rho1 + eps or rho1 + rho2 + rho3 + eps.
    An extension with r = n - m1 - m2 = 0 adds an empty block, and a round
    that would leave rank 0 raises DegenerateExtensionError.

    Lemma.  One of the first 4 + |cls| + |inf| + 1 shifts blocks nothing.
    Proof.  Each value a rule names blocks one shift: two extension labels,
    two zeroed parameters, one per class of the deleted block and one per
    label left at infinity (|inf| + |cls| for a shifted restriction)."""
    j = move[0] if move else len(blocks)
    if not 1 <= j <= len(blocks):
        raise IndexRangeError(f"block index {j} out of range")
    n, nj, cls = sum(blocks), blocks[j - 1], classes(j)
    deleted, bound = [label for label, _ in cls], 4 + len(cls) + len(inf)
    if not move:
        (l1, _), (l2, _) = inf
        ranks, shifts, mu_sum = [n - nj], range(bound + 1), -(l1 + l2)

        def blocks_an_operation(k):
            # k = 0 shifts nothing, so only CR can block it
            return (k and k in [label for label, _ in inf]) or mu_sum + k in deleted
    else:
        rho1, rho2 = move[1], move[2]
        m1, rest = _split_slot(inf, -rho1)
        m2, rest = _split_slot(rest, -rho2)
        ranks, shifts, s12 = [n - m1 - m2 + n - nj], range(1, bound + 2), rho1 + rho2
        ext_inf = [label for label, m in ((-rho1, n - m2), (-rho2, n - m1)) if m]
        if len(move) == 4:
            rho3, s13, left = move[3], rho1 + move[3], [label for label, _ in rest]
            if nj == n:  # else the second round leaves n - nj + r2 > 0
                # the labels at infinity after the first restriction, less
                # eps, give r2 (`scheme_of_restriction`)
                mid = [(-rho1, n - m2 - nj), (-rho2, n - m1 - nj)]
                mid += [(label - s12, m) for label, m in cls]
                m1p, mid = _split_slot(mid, -rho1)
                m2p, _ = _split_slot(mid, -(s12 + rho3))
                ranks.append(n - nj + ranks[0] - m1p - m2p)

        def blocks_an_operation(eps):
            if eps.is_zero() or eps in ext_inf or s12 + eps in deleted:
                return True
            return len(move) == 4 and (
                (rho1 + eps).is_zero() or (s12 + rho3 + eps).is_zero() or s13 + eps in left
            )

    if 0 in ranks:
        raise DegenerateExtensionError("the round would leave rank 0")
    if epsilon is not None:
        shifts = [epsilon]
    shift = next((gr(k) for k in shifts if not blocks_an_operation(gr(k))), None)
    if shift is None:  # by the lemma, only a given epsilon
        raise NotGenericError(f"epsilon {epsilon} blocks an operation of the round")
    if not move:
        restriction = ("restrict", RestrictionParams(shift - l1, shift - l2, j))
        return Plan(shift, ((("euler", shift),) if shift else ()) + (restriction,))
    steps = (
        ("extend", ExtensionParams(rho1, rho2, pick_generic(list(poles)))),
        ("euler", shift),
        ("restrict", RestrictionParams(rho1 + shift, rho2 + shift, j)),
    )
    if len(move) == 4:
        rho1p, rho2p = rho1 + shift, s12 + rho3 + shift
        steps += (
            ("extend", ExtensionParams(rho1p, rho2p, poles[j - 1])),
            ("restrict", RestrictionParams(rho1p, rho2p, j)),
        )
    return Plan(shift, steps)


def _run_plan(o: OkuboSystem, plan: Plan) -> OkuboSystem:
    """The plan's operations on o, each once; o must be irreducible with A
    invertible (`_round_hypotheses`)."""
    ops = {"extend": _extend_direct, "euler": _euler_transform, "restrict": _restrict}
    for name, params in plan.steps:
        o = ops[name](o, params)
    return o


def _scheme_of_plan(s: RiemannScheme, blocks: Sequence[int], plan: Plan):
    """The scheme and block sizes after the plan's operations, each carried
    by its lemma: `_run_plan` on labelled data."""
    for name, params in plan.steps:
        if name == "extend":
            out = scheme_of_extension(s, params.rho1, params.rho2, blocks, params.t_new)
            s, blocks = out, (*blocks, out.order - s.order)
        elif name == "euler":
            s = scheme_of_euler(s, blocks, params)
        else:
            blocks = tuple(_swapped(blocks, params.j, len(blocks)))
            s, blocks = scheme_of_restriction(_swap_points(s, params.j, len(blocks)), blocks), blocks[:-1]
    return s, blocks


# -- scheme-level transforms -------------------------------------------------------


def scheme_of_extension(
    s: RiemannScheme,
    rho1,
    rho2,
    block_sizes: Sequence[int],
    t_new=None,
) -> RiemannScheme:
    """Scheme bookkeeping of the extension.

    The infinity column donates its -rho1 and -rho2 slots (largest
    multiplicities, empty when absent; for rho1 = rho2 the two largest); the
    new infinity column is [-rho1:n - m2, -rho2:n - m1], and the new point
    receives a full-size zero part plus the remainder of the old infinity
    column shifted by rho1 + rho2.  Lemma (proof in `extend_direct`): for a
    normal form with A invertible and a verified scheme s, this is exactly
    the scheme of `extend_direct`'s output.
    """
    rho1, rho2 = gr(rho1), gr(rho2)
    n = s.order
    p = len(s.poles)
    if len(block_sizes) != p:
        raise NotONFShapeError("one block size per finite point required")
    inf_col = list(s.column_at_infinity())
    m1, rest = _split_slot(inf_col, -rho1)
    m2, rest = _split_slot(rest, -rho2)
    n_hat = 2 * n - m1 - m2
    new_inf = canonical_column([(-rho1, n - m2), (-rho2, n - m1)])
    cols = [new_inf]
    for j, nj in enumerate(block_sizes, start=1):
        rest_j = _structural_zero(s.column_at(j), n, nj)
        cols.append(canonical_column([(gr(0), n_hat - nj)] + rest_j))
    new_point = [(gr(0), n)]
    new_point += [(rho1 + rho2 + label, mult) for label, mult in rest]
    cols.append(canonical_column(new_point))
    t_new = pick_generic(list(s.poles)) if t_new is None else gr(t_new)
    if t_new in s.poles:
        raise DuplicatePoleError(f"pole {t_new} already present")
    return RiemannScheme._of_canonical((*s.poles, t_new), cols)


def scheme_of_restriction(s: RiemannScheme, block_sizes: Sequence[int]) -> RiemannScheme:
    """Scheme bookkeeping of the restriction at the last point.

    Requires exactly two parts at infinity (the quadratic-relation shape).
    The deleted column's non-kernel labels move to infinity shifted by
    -(mu1 + mu2); the kernel parts shrink by the deleted block size.  It
    undoes `scheme_of_extension`: for the scheme s' of a normal form whose
    extension at (mu1, mu2) adds r >= 1 rows,
    scheme_of_restriction(scheme_of_extension(s', mu1, mu2, ...)) = s'.
    Lemma (proof in `restrict`): for the verified s of an irreducible
    normal form satisfying (A - mu1)(A - mu2) = 0 and the CR condition at
    the last block, this is exactly the scheme of `restrict`'s output.
    """
    n = s.order
    p = len(s.poles)
    if p < 2:
        raise IndexRangeError("cannot restrict a single-point scheme")
    inf_col = list(s.column_at_infinity())
    if len(inf_col) != 2:
        raise NotQ2Error("infinity column must consist of exactly two parts")
    if len(block_sizes) != p:
        raise NotONFShapeError("one block size per finite point required")
    (l1, m1), (l2, m2) = inf_col
    mu1, mu2 = -l1, -l2
    mu_sum = mu1 + mu2
    n_p = block_sizes[-1]
    rest_p = _structural_zero(s.column_at(p), n, n_p)
    for label, _ in rest_p:
        if label == mu_sum:
            raise CRViolatedError(
                "mu1 + mu2 is an eigenvalue of the deleted block; shift first"
            )
    if m1 - n_p < 0 or m2 - n_p < 0:
        raise NotONFShapeError("deleted block larger than an infinity part")
    n_check = n - n_p
    new_inf = [(-mu1, m1 - n_p), (-mu2, m2 - n_p)]
    new_inf += [(label - mu_sum, mult) for label, mult in rest_p]
    cols = [canonical_column(new_inf)]
    for j, nj in enumerate(block_sizes[:-1], start=1):
        rest_j = _structural_zero(s.column_at(j), n, nj)
        cols.append(canonical_column([(gr(0), n_check - nj)] + rest_j))
    return RiemannScheme._of_canonical(s.poles[:-1], cols)
