"""Deterministic pseudo-random instances for the verification harness.

All generators draw small integer entries from a seeded RNG and reject until
the structural preconditions hold, so a fixed seed reproduces the exact same
instances everywhere.
"""

from __future__ import annotations

import random
from typing import Optional

from . import linalg
from .errors import CalculusError, InvariantError
from .katz import middle_convolution, addition
from .linalg import ExactMatrix
from .okubo import OkuboSystem, check_onf_conditions, pick_generic, scf_from_onf
from .scalars import gr
from .schlesinger import SchlesingerTuple, is_irreducible
from .spectral import PartitionTuple, RiemannScheme, format_spectral_type


def random_matrix(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def random_schlesinger(
    rng: random.Random, n: int, p: int, max_tries: int = 400
) -> SchlesingerTuple:
    """An irreducible tuple with integer entries in [-3, 3]."""
    poles = list(range(p))
    for _ in range(max_tries):
        mats = [random_matrix(rng, n) for _ in range(p)]
        if any(m.is_zero() for m in mats):
            continue
        t = SchlesingerTuple(poles, mats)
        if is_irreducible(t):
            return t
    raise CalculusError(f"no irreducible instance of size ({n},{p}) found")


def random_composition(
    rng: random.Random, n: int, max_parts: int = 3, min_parts: int = 1
) -> list[int]:
    while True:
        parts = []
        left = n
        while left > 0:
            if len(parts) == max_parts - 1:
                parts.append(left)
                break
            take = rng.randint(1, left)
            parts.append(take)
            left -= take
        if len(parts) >= min_parts:
            return parts


def random_okubo(
    rng: random.Random,
    n: int,
    blocks: Optional[list[int]] = None,
    irreducible: bool = True,
    max_tries: int = 600,
) -> OkuboSystem:
    """A normal-form system satisfying the genericity conditions."""
    for _ in range(max_tries):
        bl = blocks if blocks is not None else random_composition(rng, n)
        if len(bl) == 1 and n > 1 and irreducible:
            bl = None
            continue
        o = OkuboSystem(bl, list(range(len(bl))), random_matrix(rng, n))
        if linalg.rank(o.a) != n:
            continue
        if not check_onf_conditions(o):
            continue
        if irreducible and not is_irreducible(scf_from_onf(o)):
            continue
        return o
    raise CalculusError(f"no valid normal-form instance of size {n} found")


def random_scheme_tuple(
    rng: random.Random, p: int, steps: int = 1, max_tries: int = 60
) -> SchlesingerTuple:
    """A scheme-carrying irreducible tuple grown from a rank-one seed.

    Starts from nonzero integer scalars (whose scheme is immediate) and
    applies shift/convolution rounds; transported schemes stay verified, so
    every output carries exact class data for all residues.
    """
    for _ in range(max_tries):
        entries = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(p)]
        if sum(entries) == 0:
            continue
        poles = list(range(p))
        cols = [[(gr(-sum(entries)), 1)]] + [[(gr(e), 1)] for e in entries]
        t = SchlesingerTuple(
            poles,
            [ExactMatrix.from_rows([[e]]) for e in entries],
            RiemannScheme(poles, cols),
        )
        ok = True
        for _ in range(steps):
            mu = [rng.randint(-2, 2) for _ in range(p)]
            lam = rng.randint(1, 4)
            try:
                t2 = middle_convolution(addition(t, mu), lam)
            except CalculusError:
                ok = False
                break
            if t2.scheme is None or not is_irreducible(t2):
                ok = False
                break
            t = t2
        if ok:
            return t
    raise CalculusError("no scheme-carrying instance found")


def rigid_family_type(n: int) -> str:
    """The family 1^n,(n-1)1,1^n: full splitting except one point."""
    return format_spectral_type(PartitionTuple.from_multiplicities([[1] * n, [n - 1, 1], [1] * n]))


def rigid_family_realization(n: int) -> SchlesingerTuple:
    """A rank-n rigid two-point realization of the family 1^n,1^n,(n-1)1.

    Built from a rank-one seed by alternating shifts (to clear the zero
    eigenvalue at the second point) and rank-raising convolutions; each step
    is validated against the expected multiplicity pattern, retrying the
    parameter when labels collide.
    """
    poles = [0, 1]
    a, b = gr(1), gr(2)
    sch = RiemannScheme(poles, [[(-(a + b), 1)], [(a, 1)], [(b, 1)]])
    t = SchlesingerTuple(
        poles,
        [ExactMatrix.from_rows([[1]]), ExactMatrix.from_rows([[2]])],
        sch,
    )
    while t.rank < n:
        k = t.rank
        # shift the second point away from zero (no-op at rank one)
        if k > 1:
            forbidden = [-(label) for label, _ in t.scheme.column_at(2)]
            mu2 = pick_generic(forbidden + [gr(0)])
            t = addition(t, [0, mu2])
        t = _raise_rank(t, rigid_family_type(k + 1))
    if not is_irreducible(t):
        raise InvariantError(f"the rank-{n} rigid family realization is reducible")
    return t


def _raise_rank(t: SchlesingerTuple, expected_type: str) -> SchlesingerTuple:
    for cand in range(1, 40):
        lam = gr(cand)
        try:
            out = middle_convolution(t, lam)
        except CalculusError:
            continue
        if out.rank != t.rank + 1 or out.scheme is None:
            continue
        if format_spectral_type(out.scheme.spectral_type()) == expected_type:
            return out
    raise CalculusError(f"could not raise rank toward {expected_type}")
