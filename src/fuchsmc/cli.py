"""Command-line interface.

Subcommands: apply, reduce, verify, tables, idx, scheme, convert, enumerate.
Exit codes: 0 on success, 1 for precondition violations, 2 for parse errors,
3 for internal invariant breaches or verification mismatches.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialization as ser
from .errors import (
    CalculusError,
    CRViolatedError,
    EigenvalueCollisionError,
    InvariantError,
    NotGenericError,
    ParseError,
    SchemeUnavailableError,
)
from .identities import run_full_suite
from .katz import mc_max
from .okubo import (
    OkuboSystem,
    euler_transform,
    onf_from_scf,
    pick_generic,
    scf_from_onf,
    scheme_of_euler,
)
from .scalars import gr
from .schlesinger import (
    SchlesingerTuple,
    index_of_rigidity,
    infer_scheme,
    is_irreducible,
    verify_scheme,
)
from .spectral import (
    BASIC_TABLE_IDX0,
    BASIC_TABLE_IDX_MINUS2,
    PartitionTuple,
    RiemannScheme,
    canonical_type,
    d_max,
    enumerate_basic,
    format_spectral_type,
    idx_spec,
    katz_reduce,
    oidx,
    onf_realization_types,
    ord_of,
    parse_spectral_type,
)
from .yokoyama import (
    RestrictionParams,
    rere_composite,
    restrict,
    scheme_of_extension,
    scheme_of_restriction,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read or write: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except CalculusError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return exc.exit_code


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fuchsmc", description=__doc__)
    sub = p.add_subparsers(required=True)

    ap = sub.add_parser("apply", help="run an operation pipeline over a system file")
    ap.add_argument("--input", required=True)
    ap.add_argument("--ops", required=True, help="JSON-lines operation log")
    ap.add_argument("--output", required=True)
    ap.set_defaults(func=cmd_apply)

    rp = sub.add_parser("reduce", help="iterate reduction steps down to rank 1 or a basic type")
    rp.add_argument("--input", required=True)
    rp.add_argument("--mode", choices=["katz", "yokoyama"], default="katz")
    rp.add_argument("--level", choices=["matrix", "scheme"], default="matrix")
    rp.set_defaults(func=cmd_reduce)

    vp = sub.add_parser("verify", help="run the identity suite on seeded random instances")
    vp.add_argument("--seed", type=int, default=1)
    vp.add_argument("--count", type=int, default=10)
    vp.add_argument("--bound", type=int, default=4)
    vp.set_defaults(func=cmd_verify)

    tp = sub.add_parser("tables", help="reproduce a classification table and diff it")
    tp.add_argument("--which", choices=["idx0", "idx-2"], required=True)
    tp.set_defaults(func=cmd_tables)

    ip = sub.add_parser("idx", help="index of rigidity of a system or spectral type")
    ip.add_argument("--input", help="system file")
    ip.add_argument("--type", dest="type_", help="spectral type text, e.g. 111,21,21,21")
    ip.set_defaults(func=cmd_idx)

    sp = sub.add_parser("scheme", help="print or verify the scheme of a system file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--infer", action="store_true", help="infer class data from the matrices")
    sp.set_defaults(func=cmd_scheme)

    cp = sub.add_parser("convert", help="convert between the two system shapes")
    cp.add_argument("--input", required=True)
    cp.add_argument("--output", required=True)
    cp.set_defaults(func=cmd_convert)

    ep = sub.add_parser("enumerate", help="enumerate indivisible basic spectral types")
    ep.add_argument("--idx", type=int, required=True)
    ep.add_argument("--max-ord", type=int, required=True)
    ep.add_argument("--max-points", type=int, required=True)
    ep.set_defaults(func=cmd_enumerate)

    return p


def _idx_of(system) -> int:
    t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
    return index_of_rigidity(t)


def cmd_apply(args) -> int:
    system = ser.load_system(args.input)
    with open(args.ops) as fh:
        ops = ser.parse_operations(fh.read())
    log = []
    for k, entry in enumerate(ops):
        try:
            system = ser.apply_operation(system, entry)
        except CalculusError as exc:
            print(f"operation {k} ({entry.get('op')}): {exc}", file=sys.stderr)
            raise
        scheme = system.scheme
        log.append(
            {
                "step": k,
                "op": entry,
                "kind": "onf" if isinstance(system, OkuboSystem) else "scf",
                "rank": system.rank,
                "idx": _idx_of(system),
                "scheme": ser.scheme_to_json(scheme) if scheme is not None else None,
            }
        )
    ser.save_system(args.output, system)
    with open(args.output + ".log", "w") as fh:
        for row in log:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"applied {len(ops)} operations; rank {system.rank}")
    return 0


# -- reduction drivers --------------------------------------------------------------


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


def cmd_reduce(args) -> int:
    with open(args.input) as fh:
        text = fh.read()
    if args.level == "scheme" and not text.lstrip().startswith("{"):
        m = parse_spectral_type(text)
        return _reduce_scheme_level(m, mode=args.mode)
    system = ser.system_from_json(json.loads(text))
    if args.level == "scheme":
        if system.scheme is None:
            raise SchemeUnavailableError("scheme-level reduction needs a declared scheme")
        if args.mode == "katz":
            return _reduce_scheme_level(system.scheme.spectral_type(), mode="katz")
        blocks = (
            system.block_sizes
            if isinstance(system, OkuboSystem)
            else onf_from_scf(system).block_sizes
        )
        return _reduce_yokoyama_scheme(system.scheme, list(blocks))
    if args.mode == "katz":
        return _reduce_katz_matrix(system)
    return _reduce_yokoyama_matrix(system)


def _report_step(step: int, rank, idx, type_text):
    print(f"step {step}: rank {rank}, idx {idx}, type {type_text}")


def _reduce_scheme_level(m: PartitionTuple, mode: str) -> int:
    # at the level of bare types both modes walk the same defect sequence
    final, steps = katz_reduce(m)
    _report_step(0, ord_of(m), idx_spec(m), format_spectral_type(m))
    for k, s in enumerate(steps, start=1):
        _report_step(k, ord_of(s), idx_spec(s), format_spectral_type(s))
    if ord_of(final) == 1:
        print("reached rank 1")
    else:
        print(_name_basic(final))
    return 0


def _reduce_katz_matrix(system) -> int:
    t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
    if t.scheme is None:
        t = t.with_scheme(infer_scheme(t))
    if not is_irreducible(t):
        raise CalculusError("reduction requires an irreducible system")
    step = 0
    idx = idx0 = index_of_rigidity(t)
    while True:
        m = t.scheme.spectral_type()
        _report_step(step, t.rank, idx, format_spectral_type(m))
        if t.rank == 1:
            print("reached rank 1")
            return 0
        if d_max(m) <= 0:
            print(_name_basic(m))
            return 0
        t = mc_max(t)
        if t.scheme is None:
            raise InvariantError("scheme transport failed during reduction")
        idx = index_of_rigidity(t)
        if idx != idx0:
            raise InvariantError("rigidity index drifted during reduction")
        step += 1


def _pick_reduction_point(m: PartitionTuple):
    """Smallest finite point index with positive two-slot defect."""
    cols = m.columns
    m01 = cols[0][0][1]
    for j in range(1, len(cols)):
        mj1 = cols[j][0][1]
        mj2 = cols[j][1][1] if len(cols[j]) > 1 else 0
        if m01 - mj1 + mj2 > 0:
            return j, m01 - mj1 + mj2
    return None, 0


def _reduce_yokoyama_matrix(system) -> int:
    o = onf_from_scf(system) if isinstance(system, SchlesingerTuple) else system
    if o.scheme is None:
        raise SchemeUnavailableError("the reduction driver needs a declared scheme")
    step = 0
    idx = idx0 = _idx_of(o)
    while True:
        m = o.scheme.spectral_type()
        _report_step(step, o.rank, idx, format_spectral_type(m))
        if o.rank == 1:
            print("reached rank 1")
            return 0
        if d_max(m) <= 0:
            print(_name_basic(m))
            return 0
        inf_col = o.scheme.column_at_infinity()
        if len(inf_col) < 2:
            raise SchemeUnavailableError("need at least two parts at infinity")
        if len(inf_col) == 2:
            # the coefficient matrix already satisfies the quadratic relation:
            # the system is an extension, so one shifted restriction reduces it
            o = _restrict_with_shift(o)
        else:
            j, _ = _pick_reduction_point(m)
            if j is None:
                _report_minimal_stage(m)
                return 0
            rho1 = -inf_col[0][0]
            rho2 = -inf_col[1][0]
            col_j = o.scheme.column_at(j)
            rho3 = -col_j[1][0] if len(col_j) > 1 else pick_generic([0])
            o = _attempt_rere(o, j, rho1, rho2, rho3)
        if o.scheme is None:
            raise InvariantError("scheme transport failed during reduction")
        idx = _idx_of(o)
        if idx != idx0:
            raise InvariantError("rigidity index drifted during reduction")
        step += 1


def _report_minimal_stage(m: PartitionTuple) -> None:
    """No reduction point is left: this is the minimal normal-form stage of a
    non-rigid chain; name the basic type underneath it."""
    print(f"minimal normal-form stage reached: {format_spectral_type(m)}")
    core, _ = katz_reduce(m)
    print(_name_basic(core))


def _restrict_with_shift(o: OkuboSystem) -> OkuboSystem:
    """Generic Euler shift followed by deleting the last block."""
    p = o.num_points
    inf_col = o.scheme.column_at_infinity()
    mu1, mu2 = -inf_col[0][0], -inf_col[1][0]
    for k in range(0, 40):
        eps = gr(k)
        try:
            shifted = o if k == 0 else euler_transform(o, eps)
            return restrict(shifted, RestrictionParams(mu1 + eps, mu2 + eps, p))
        except (CRViolatedError, EigenvalueCollisionError):
            continue
    raise NotGenericError("no small shift unlocks the restriction")


def _attempt_rere(o, j, rho1, rho2, rho3):
    try:
        return rere_composite(o, j, rho1, rho2, rho3)
    except NotGenericError:
        # fall back to a fresh third parameter when the drawn one is blocked
        for k in range(1, 12):
            try:
                return rere_composite(o, j, rho1, rho2, gr(k))
            except NotGenericError:
                continue
        raise


def _reduce_yokoyama_scheme(s, blocks) -> int:
    step = 0
    while True:
        m = s.spectral_type()
        _report_step(step, s.order, idx_spec(m), format_spectral_type(m))
        if s.order == 1:
            print("reached rank 1")
            return 0
        if d_max(m) <= 0:
            print(_name_basic(m))
            return 0
        if len(s.column_at_infinity()) == 2:
            s, blocks = _restriction_scheme_step(s, blocks)
        else:
            j, _ = _pick_reduction_point(m)
            if j is None:
                _report_minimal_stage(m)
                return 0
            s, blocks = _rere_scheme_step(s, blocks, j)
        step += 1


def _restriction_scheme_step(s, blocks):
    inf_col = s.column_at_infinity()
    mu_sum = -(inf_col[0][0] + inf_col[1][0])
    forbidden = [label - mu_sum for label, _ in s.column_at(len(blocks))]
    eps = pick_generic([gr(0)] + forbidden + [-l for l, _ in inf_col])
    shifted = scheme_of_euler(s, blocks, eps)
    return scheme_of_restriction(shifted, block_sizes=blocks), blocks[:-1]


def _rere_scheme_step(s, blocks, j):
    """One two-round extension/restriction step on labelled data only."""
    inf_col = s.column_at_infinity()
    rho1, rho2 = -inf_col[0][0], -inf_col[1][0]
    col_j = s.column_at(j)
    rho3 = -col_j[1][0] if len(col_j) > 1 else gr(1)

    # known exceptional values; later stages may reject more, hence the retry
    forbidden = [gr(0), -rho1, -rho2, -(rho1 + rho2 + rho3)]
    forbidden += [label - rho1 - rho2 for label, _ in col_j]
    tried = set()
    for _ in range(24):
        eps = pick_generic(forbidden + sorted(tried, key=lambda g: g.sort_key()))
        tried.add(eps)
        try:
            return _rere_scheme_once(s, blocks, j, rho1, rho2, rho3, eps)
        except CalculusError:
            continue
    raise NotGenericError("no small shift makes the scheme-level step defined")


def _rere_scheme_once(s, blocks, j, rho1, rho2, rho3, eps):
    n = s.order
    s1 = scheme_of_extension(s, rho1, rho2, block_sizes=blocks)
    b1 = blocks + [s1.order - n]
    s2 = scheme_of_euler(s1, b1, eps)
    s2, b2 = _swap_scheme_cols(s2, b1, j, len(b1))
    s3 = scheme_of_restriction(s2, block_sizes=b2)
    b3 = b2[:-1]

    rho1p = rho1 + eps
    rho2p = rho1 + rho2 + rho3 + eps
    s4 = scheme_of_extension(s3, rho1p, rho2p, block_sizes=b3)
    b4 = b3 + [s4.order - s3.order]
    s5, b5 = _swap_scheme_cols(s4, b4, j, len(b4))
    s6 = scheme_of_restriction(s5, block_sizes=b5)
    return s6, b5[:-1]


def _swap_scheme_cols(s, blocks, i, j):
    if i == j:
        return s, list(blocks)
    cols = list(s.columns)
    poles = list(s.poles)
    blocks = list(blocks)
    cols[i], cols[j] = cols[j], cols[i]
    poles[i - 1], poles[j - 1] = poles[j - 1], poles[i - 1]
    blocks[i - 1], blocks[j - 1] = blocks[j - 1], blocks[i - 1]
    return RiemannScheme(poles, cols), blocks


# -- verification and tables ----------------------------------------------------------


def cmd_verify(args) -> int:
    rep = run_full_suite(args.seed, args.count, args.bound)
    for line in rep.lines():
        print(line)
    failures = rep.failures
    print(f"{len(rep.results)} checks, {len(failures)} failures")
    return 3 if failures else 0


def cmd_tables(args) -> int:
    if args.which == "idx0":
        target, max_ord, max_points = 0, 6, 4
        rows = [(text, ordv, onf_rank, alts) for _, text, ordv, onf_rank, alts in BASIC_TABLE_IDX0]
    else:
        target, max_ord, max_points = -2, 12, 5
        rows = list(BASIC_TABLE_IDX_MINUS2)
    got = enumerate_basic(target, max_ord, max_points)
    expected = {canonical_type(parse_spectral_type(text)): row for row in rows for text in [row[0]]}
    ok = True
    if len(got) != len(rows):
        print(f"MISMATCH: enumerated {len(got)} types, table lists {len(rows)}")
        ok = False
    for m in got:
        key = canonical_type(m)
        row = expected.get(key)
        text = format_spectral_type(m)
        if row is None:
            print(f"MISMATCH: enumerated {text} not in the table")
            ok = False
            continue
        _, ordv, onf_rank, alts = row
        if ord_of(m) != ordv or ord_of(m) + oidx(m) != onf_rank:
            print(f"MISMATCH: {text}: ord {ord_of(m)}, minimal rank {ord_of(m)+oidx(m)}")
            ok = False
            continue
        realized = {canonical_type(x) for x in onf_realization_types(m)}
        missing = [
            a for a in alts if canonical_type(parse_spectral_type(a)) not in realized
        ]
        if missing:
            shown = sorted(format_spectral_type(x) for x in realized)
            print(f"MISMATCH: {text}: realizations {shown} lack {missing}")
            ok = False
            continue
        print(f"ok  {text}: ord {ordv}, minimal normal-form rank {onf_rank}")
    if not ok:
        return 3
    print(f"{len(got)} rows matched")
    return 0


def cmd_idx(args) -> int:
    if args.type_:
        print(idx_spec(parse_spectral_type(args.type_)))
        return 0
    if not args.input:
        raise ParseError("idx needs --input or --type")
    system = ser.load_system(args.input)
    print(_idx_of(system))
    return 0


def cmd_scheme(args) -> int:
    system = ser.load_system(args.input)
    t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
    scheme = t.scheme
    if scheme is None and args.infer:
        scheme = infer_scheme(t)
    if scheme is None:
        raise SchemeUnavailableError("no declared scheme; rerun with --infer")
    if not verify_scheme(t, scheme):
        raise InvariantError("scheme fails verification")
    print(json.dumps(ser.scheme_to_json(scheme), indent=1))
    print(f"verified; spectral type {format_spectral_type(scheme.spectral_type())}")
    return 0


def cmd_convert(args) -> int:
    system = ser.load_system(args.input)
    if isinstance(system, OkuboSystem):
        out = scf_from_onf(system)
    else:
        out = onf_from_scf(system)
    ser.save_system(args.output, out)
    print(f"wrote {args.output}")
    return 0


def cmd_enumerate(args) -> int:
    for m in enumerate_basic(args.idx, args.max_ord, args.max_points):
        print(
            f"{format_spectral_type(m)}  ord {ord_of(m)}  "
            f"minimal normal-form rank {ord_of(m) + oidx(m)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
