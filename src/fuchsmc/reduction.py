"""The reduction driver: Katz's and Yokoyama's reductions are one loop
(report the stage, stop at rank 1 or at a basic type, else take one step)
with different steps: a Katz step (`plan_step`, applied to the residues by
`_mc_max`) or restriction-of-extension rounds (`plan_round`), on a system or
on its scheme, or the precomputed `katz_reduce` chain of a bare type."""

from __future__ import annotations

from itertools import count
from typing import Iterator

from .errors import (
    InvariantError,
    NotIrreducibleError,
    SchemeUnavailableError,
)
from .katz import _mc_max, plan_step
from .okubo import OkuboSystem, _structural_zero, onf_from_scf, pick_generic, scf_from_onf
from .schlesinger import (
    SchlesingerTuple,
    _attach_scheme,
    index_of_rigidity,
    infer_scheme,
    is_irreducible,
)
from .spectral import (
    BASIC_TABLE_IDX0,
    PartitionTuple,
    RiemannScheme,
    canonical_type,
    d_max,
    enumerate_basic,
    format_spectral_type,
    idx_spec,
    katz_reduce,
    ord_of,
    parse_spectral_type,
)
from .yokoyama import _run_plan, _scheme_of_plan, plan_round


def idx_of(system) -> int:
    """Index of rigidity of a residue tuple or a normal-form system.

    A carried scheme has been verified, so its multiplicities are the Weyr
    counts of the residues, and the commutant dimension of each residue is
    the sum of their squares: idx is `idx_spec` of its spectral type.
    """
    if system.scheme is not None:
        return idx_spec(system.scheme.spectral_type())
    t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
    return index_of_rigidity(t)


def reduction_lines(source, mode: str, level: str) -> Iterator[str]:
    """The lines of `fuchsmc reduce`, produced as the reduction runs, for a
    spectral type (either mode) or a system; mode is "katz" or "yokoyama",
    level "matrix" or "scheme".  A failing precondition raises before the
    first line, a failing step after the lines of the stages before it."""
    if isinstance(source, PartitionTuple):
        return _type_reduction(source)
    if level == "matrix":
        return _katz_reduction(source) if mode == "katz" else _yokoyama_reduction(source)
    if source.scheme is None:
        raise SchemeUnavailableError("scheme-level reduction needs a declared scheme")
    if mode == "katz":
        return _reduce(_type_stage(source.scheme.spectral_type(), source.scheme), _katz_scheme_step)
    o = source if isinstance(source, OkuboSystem) else onf_from_scf(source)
    stage = _type_stage(source.scheme.spectral_type(), (source.scheme, list(o.block_sizes)))
    return _reduce(stage, _scheme_step)


def _reduce(stage, step) -> Iterator[str]:
    """The reduction loop.  A stage is (rank, idx, spectral type m, state);
    step(state, m) takes one reduction step from it and returns the next
    stage, or None when no reduction point is left.

    Progress guard.  Each step must lower the rank plus the number of
    points, so the loop ends within that many steps; a step that does not
    raises InvariantError naming its stage.  The guard cannot fire: a Katz
    step, on a system, a scheme or a bare type, lowers the rank by its slot
    defect d > 0 and adds no point; two Yokoyama rounds lower the rank by
    at least the reduction point's positive defect and keep the points
    (`_yokoyama_move`'s lemma); and a shifted restriction deletes the last
    point and lowers the rank by its block size, which may be zero.  So the
    rank alone need not fall within two steps: blocks (1, 1, 0, 0) stay at
    rank 2 for two steps while their empty blocks go.
    """
    for k in count():
        rank, idx, m, state = stage
        yield f"step {k}: rank {rank}, idx {idx}, type {format_spectral_type(m)}"
        if rank == 1:
            yield "reached rank 1"
            return
        if d_max(m) <= 0:
            yield _name_basic(m)
            return
        stage = step(state, m)
        if stage is None:
            # the minimal normal-form stage of a non-rigid chain: name the
            # basic type underneath it
            yield f"minimal normal-form stage reached: {format_spectral_type(m)}"
            yield _name_basic(katz_reduce(m)[0])
            return
        if stage[0] + stage[2].num_points >= rank + m.num_points:
            stalled = f"step {k} (rank {rank}, type {format_spectral_type(m)})"
            raise InvariantError(f"{stalled} lowered neither the rank nor the number of points")


def _name_basic(m: PartitionTuple) -> str:
    """Locate a basic type inside the enumeration and name it."""
    idx = idx_spec(m)
    cand = canonical_type(m)
    listed = enumerate_basic(idx, ord_of(m), m.num_points)
    for k, b in enumerate(listed):
        if canonical_type(b) != cand:
            continue
        label = ""
        for fam, text, *_ in BASIC_TABLE_IDX0:
            if canonical_type(parse_spectral_type(text)) == cand:
                label = f" ({fam})"
        return f"basic #{k} of idx {idx}: {format_spectral_type(b)}{label}"
    return f"basic (unlisted at these bounds): {format_spectral_type(cand)}"


def _type_stage(m: PartitionTuple, state=None):
    return ord_of(m), idx_spec(m), m, state


def _system_stage(system, idx0: int):
    """The stage of a system reached by a matrix-level step, which must carry
    its transported scheme and keep the index of rigidity."""
    if system.scheme is None:
        raise InvariantError("scheme transport failed during reduction")
    if idx_of(system) != idx0:
        raise InvariantError("rigidity index drifted during reduction")
    return system.rank, idx0, system.scheme.spectral_type(), system


def _type_reduction(m: PartitionTuple) -> Iterator[str]:
    # at the level of bare types both modes walk the same defect sequence
    chain = iter(katz_reduce(m)[1])
    return _reduce(_type_stage(m), lambda *_: _type_stage(next(chain)))


def _with_scheme(system):
    """The system carrying its declared scheme, or else the inferred one."""
    if system.scheme is not None:
        return system
    t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
    # infer_scheme has verified the scheme against t, the residues of system
    return _attach_scheme(system, infer_scheme(t))


def _require_irreducible(t: SchlesingerTuple) -> None:
    """The one irreducibility proof of a reduction, on its input; each
    step's lemmas carry it to the next stage."""
    if not is_irreducible(t):
        raise NotIrreducibleError("reduction requires an irreducible system")


def _katz_reduction(system) -> Iterator[str]:
    system = _with_scheme(system)
    t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
    _require_irreducible(t)
    idx0 = idx_of(t)
    # each stage is irreducible by `_mc_max`'s lemma
    return _reduce(
        (t.rank, idx0, t.scheme.spectral_type(), t),
        lambda system, m: _system_stage(_mc_max(system), idx0),
    )


def _katz_scheme_step(s: RiemannScheme, m):
    s = plan_step(s).scheme
    return _type_stage(s.spectral_type(), s)


def _yokoyama_reduction(system) -> Iterator[str]:
    system = _with_scheme(system)
    o = onf_from_scf(system) if isinstance(system, SchlesingerTuple) else system
    idx0 = idx_of(o)

    def step(state, m):
        move = _yokoyama_move(state.scheme, m, state.block_sizes)
        if move is None:
            return None
        # the input is proven irreducible before the first round, and the
        # lemmas of `yokoyama` carry that to every stage; each stage has
        # rank >= 2, so A is invertible too
        if state is o:
            _require_irreducible(scf_from_onf(o))
        return _system_stage(_run_plan(state, plan_round(state.scheme, state.block_sizes, move)), idx0)

    return _reduce((o.rank, idx0, o.scheme.spectral_type(), o), step)


def _scheme_step(state, m):
    s, blocks = state
    move = _yokoyama_move(s, m, blocks)
    if move is None:
        return None
    s, blocks = _scheme_of_plan(s, blocks, plan_round(s, blocks, move))
    return _type_stage(s.spectral_type(), (s, blocks))


def _yokoyama_move(s: RiemannScheme, m: PartitionTuple, blocks):
    """The next Yokoyama step from the stage with scheme s, type m and block
    sizes blocks: () for a shifted restriction of the last block,
    (j, rho1, rho2, rho3) for two extension/restriction rounds at the
    reduction point j, None when no reduction point is left.  -rho1 and
    -rho2 label infinity's two first parts, -rho3 block j's largest class.

    Lemma.  With a1 the multiplicity of -rho1 at infinity, z = n - n_j that
    of column j's structural zero and c1 that of rho3's class, the rounds
    lower the rank by a1 + c1 - z >= m01 - mj1 + mj2, `_reduction_point`'s
    defect.

    Proof.  The rounds are `rere_katz_pipeline`: convolve at -rho1, add
    rho1 + rho3 at j, convolve at rho1 + eps, with eps clear of the label
    collisions of `yokoyama._plan`.  A convolution at lam lowers the rank by
    the multiplicity of lam at infinity plus those of 0 at the finite
    points, less (p - 1) times the rank.  The first pins a1 and the
    structural zeros, which sum to (p - 1)n: the rank falls by a1, and the
    blocks keep their sizes.  The addition puts rho3's class at 0 and the
    structural zero at rho1 + rho3, so the second pins nothing at infinity,
    the structural zeros at k != j and c1 at j: the rank falls by c1 - z.
    If z is a largest part of column j, mj1 = z and mj2 = c1 (a tie sorts
    either way); else mj1 = c1 and z <= mj2 <= c1.  Minus column j's second
    label, taken before, is 0 when a class ties with z and sorts first: the
    second convolution pins nothing at j, the fall is a1 - z, and at a1 = z
    the rounds only move labels.
    """
    inf_col = s.column_at_infinity()
    if len(inf_col) < 2:
        raise SchemeUnavailableError("need at least two parts at infinity")
    if len(inf_col) == 2:
        # the coefficient matrix already satisfies the quadratic relation:
        # the system is an extension, so one shifted restriction reduces it
        return ()
    j = _reduction_point(m)
    if j is None:
        return None
    classes = _structural_zero(s.column_at(j), s.order, blocks[j - 1])
    rho3 = -classes[0][0] if classes else pick_generic([0])
    return j, -inf_col[0][0], -inf_col[1][0], rho3


def _reduction_point(m: PartitionTuple):
    """Smallest finite point index with positive two-slot defect, or None."""
    cols = m.columns
    m01 = cols[0][0][1]
    for j in range(1, len(cols)):
        mj1 = cols[j][0][1]
        mj2 = cols[j][1][1] if len(cols[j]) > 1 else 0
        if m01 - mj1 + mj2 > 0:
            return j
    return None
