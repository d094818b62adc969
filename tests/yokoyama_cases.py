"""Inputs and oracles for the tests of the Yokoyama planner.

The oracles are the trial-run searches that chose a round's parameters
before `yokoyama.plan_round`: they run every stage at eps = 1, 2, ... (or
shift k = 0, 1, ...) and take the first run in which no stage raises.
The cases are ROADMAP item 1's normal forms (a) and (b), on which the matrix
level of `reduce --mode yokoyama` once repeated a stage without end, and
(c), on which both levels did, as each move took the structural zero of a
tied column for a class.
"""

import random
from fractions import Fraction as F

from fuchsmc.errors import (
    CalculusError,
    CRViolatedError,
    DegenerateExtensionError,
    EigenvalueCollisionError,
    NotGenericError,
    ZeroRhoError,
)
from fuchsmc import reduction
from fuchsmc.generate import random_scheme_tuple
from fuchsmc.katz import addition, middle_convolution, plan_step
from fuchsmc.linalg import ExactMatrix
from fuchsmc.okubo import OkuboSystem, _euler_transform, onf_from_scf, pick_generic
from fuchsmc.schlesinger import SchlesingerTuple
from fuchsmc.scalars import gr
from fuchsmc.spectral import RiemannScheme
from fuchsmc.yokoyama import ExtensionParams, RestrictionParams, _extend_direct, _restrict


def case_a() -> OkuboSystem:
    """Rank 4, type 211,22,31,31: its first move's second extension is
    degenerate, which the searches refused at every eps."""
    a = ExactMatrix.from_rows(
        [[7, 0, F(64, 7), 0], [0, 7, 0, -48], [7, -21, -5, 63], [7, F(-13, 3), 4, 4]]
    )
    scheme = RiemannScheme(
        [0, 1, 2],
        [
            [(gr(9), 2), (gr(-32), 1), (gr(1), 1)],
            [(gr(0), 2), (gr(7), 2)],
            [(gr(0), 3), (gr(-5), 1)],
            [(gr(0), 3), (gr(4), 1)],
        ],
    )
    return OkuboSystem([2, 1, 1], [0, 1, 2], a, scheme)


def case_b() -> OkuboSystem:
    """Rank 5, type 221,32,32,41: its rank-4 stage repeats 20 times at both
    levels before it falls (ROADMAP item 8)."""
    a = ExactMatrix.from_rows(
        [
            [12, 0, F(-17, 4), F(1, 4), 0],
            [0, 12, 0, -7, F(17, 4)],
            [12, 0, -8, 0, F(-1, 2)],
            [0, 12, 0, -8, F(17, 2)],
            [12, F(-60, 17), -3, F(87, 17), 4],
        ]
    )
    scheme = RiemannScheme(
        [0, 1, 2],
        [
            [(gr(-6), 2), (gr(5), 2), (gr(-10), 1)],
            [(gr(0), 3), (gr(12), 2)],
            [(gr(0), 3), (gr(-8), 2)],
            [(gr(0), 4), (gr(4), 1)],
        ],
    )
    return OkuboSystem([2, 2, 1], [0, 1, 2], a, scheme)


def tied_scheme():
    """Rank 6, type 321,42,42,42 with blocks (2, 2, 2): its rank-4 stage
    211,31,31,22 has the column [-53:2 0:2] at the reduction point, where
    the class -53 sorts before the structural zero."""
    scheme = RiemannScheme(
        [0, 1, 2],
        [
            [(gr(48), 3), (gr(-11), 2), (gr(-104), 1)],
            [(gr(0), 4), (gr(53), 2)],
            [(gr(0), 4), (gr(-7), 2)],
            [(gr(0), 4), (gr(-55), 2)],
        ],
    )
    return scheme, (2, 2, 2)


def case_c() -> OkuboSystem:
    """`tied_scheme` realized: the normal form of `realize`'s tuple."""
    o = onf_from_scf(realize(tied_scheme()[0]))
    assert o.block_sizes == tied_scheme()[1]
    return o


def scheme_lines(scheme, blocks):
    """The lines of the Yokoyama scheme level on a scheme with block sizes."""
    stage = reduction._type_stage(scheme.spectral_type(), (scheme, tuple(blocks)))
    return reduction._reduce(stage, reduction._scheme_step)


def realize(scheme) -> SchlesingerTuple:
    """A tuple carrying the scheme: Katz's algorithm run backwards.  The
    scheme is reduced to rank 1 on labels (`plan_step`), and each step is
    undone on matrices, convolving at -lam and adding -mu; every scheme the
    convolutions predict is verified, and must be the recorded one.  A
    step that does not lower the order raises ValueError: the scheme is not
    rigid, and the loop would not end."""
    steps = []
    while scheme.order > 1:
        step = plan_step(scheme)
        if step.scheme.order >= scheme.order:
            raise ValueError(f"a Katz step keeps the order {scheme.order}: {scheme}")
        steps.append((scheme, step))
        scheme = step.scheme
    t = SchlesingerTuple(scheme.poles, [ExactMatrix.from_rows([[col[0][0]]]) for col in scheme.columns[1:]], scheme)
    for before, step in reversed(steps):
        t = addition(middle_convolution(t, -step.lam), [-c for c in step.mu])
        assert t.scheme == before
    return t


def random_normal_forms(count: int, max_rank: int):
    """Those of rank <= max_rank among the first `count` normal forms of
    rank >= 2 that `random_scheme_tuple` draws from random.Random(7), with
    p in {2, 3, 4} and steps in {1, 2, 3}."""
    rng = random.Random(7)
    drawn = []
    while len(drawn) < count:
        p, steps = rng.choice([2, 3, 4]), rng.choice([1, 2, 3])
        try:
            o = onf_from_scf(random_scheme_tuple(rng, p, steps))
        except CalculusError:
            continue
        if o.rank >= 2:
            drawn.append(o)
    return [o for o in drawn if o.rank <= max_rank]


def _extend(o, params):
    # a search run refused the empty block that `_extend_direct` now builds
    out = _extend_direct(o, params)
    if out.block_sizes[-1] == 0:
        raise DegenerateExtensionError("the extension would add an empty block")
    return out


def run_rounds(o, j, rho1, rho2, rho3, eps):
    """One round at eps (two when rho3 is not None), each stage raising when
    it is undefined."""
    ext = _extend(o, ExtensionParams(rho1, rho2, pick_generic(list(o.poles))))
    if eps.is_zero():
        raise NotGenericError("epsilon must be nonzero")
    try:
        eu = _euler_transform(ext, eps)
    except EigenvalueCollisionError as exc:
        raise NotGenericError(f"epsilon {eps} collides with the extended spectrum") from exc
    mid = _restrict(eu, RestrictionParams(rho1 + eps, rho2 + eps, j))
    if rho3 is None:
        return mid
    rho1p, rho2p = rho1 + eps, rho1 + rho2 + rho3 + eps
    if rho1p.is_zero() or rho2p.is_zero():
        raise NotGenericError("epsilon zeroes a second-stage extension parameter")
    stage2 = _extend(mid, ExtensionParams(rho1p, rho2p, o.poles[j - 1]))
    return _restrict(stage2, RestrictionParams(rho1p, rho2p, j))


def first_working_epsilon(o, j, rho1, rho2, rho3=None):
    """(eps, output) of the first eps = 1, 2, ... < 60 whose run is defined."""
    for k in range(1, 60):
        try:
            return gr(k), run_rounds(o, j, rho1, rho2, rho3, gr(k))
        except (NotGenericError, CRViolatedError, DegenerateExtensionError, ZeroRhoError):
            continue
    raise NotGenericError("no small integer epsilon makes the pipeline defined")


def first_working_shift(o):
    """(k, output) of the first shift k = 0, 1, ... < 40 after which the last
    block of o, which has two parts at infinity, can be deleted."""
    (l1, _), (l2, _) = o.scheme.column_at_infinity()
    p = o.num_points
    for k in range(40):
        try:
            shifted = o if k == 0 else _euler_transform(o, gr(k))
            return gr(k), _restrict(shifted, RestrictionParams(k - l1, k - l2, p))
        except (CRViolatedError, EigenvalueCollisionError):
            continue
    raise NotGenericError("no small shift unlocks the restriction")


def oracle(o, move):
    """The searches' (shift, output) for a planner move."""
    if not move:
        return first_working_shift(o)
    return first_working_epsilon(o, *move)
