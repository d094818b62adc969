"""Command-line interface.

Subcommands: apply, reduce, verify, tables, idx, scheme, convert, enumerate.
The reduce subcommand prints the lines of `fuchsmc.reduction`'s driver.
Exit codes: 0 on success, 1 for precondition violations, 2 for parse errors,
3 for internal invariant breaches or verification mismatches.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialization as ser
from .errors import (
    CalculusError,
    InvariantError,
    ParseError,
    SchemeUnavailableError,
)
from .identities import run_full_suite
from .okubo import OkuboSystem, onf_from_scf, scf_from_onf
from .reduction import idx_of, reduction_lines
from .schlesinger import infer_scheme, verify_scheme
from .spectral import (
    BASIC_TABLE_IDX0,
    BASIC_TABLE_IDX_MINUS2,
    canonical_type,
    enumerate_basic,
    format_spectral_type,
    idx_spec,
    oidx,
    onf_realization_types,
    ord_of,
    parse_spectral_type,
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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


@functools.cache  # one parser per process; parse_args leaves it unchanged
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


def cmd_apply(args) -> int:
    system = ser.load_system(args.input)
    ops = ser.parse_operations(ser.read_text(args.ops))
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
                "idx": idx_of(system),
                "scheme": ser.scheme_to_json(scheme) if scheme is not None else None,
            }
        )
    ser.save_system(args.output, system)
    with open(args.output + ".log", "w") as fh:
        for row in log:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"applied {len(ops)} operations; rank {system.rank}")
    return 0


def cmd_reduce(args) -> int:
    text = ser.read_text(args.input)
    if args.level == "scheme" and not text.lstrip().startswith("{"):
        source = parse_spectral_type(text)
    else:
        source = ser.system_from_text(text, args.input)
    for line in reduction_lines(source, args.mode, args.level):
        print(line)
    return 0


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
    print(idx_of(system))
    return 0


def cmd_scheme(args) -> int:
    # the loader verifies a declared scheme; the command checks an inferred one
    system = ser.load_system(args.input)
    t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
    scheme = t.scheme
    if scheme is None:
        if not args.infer:
            raise SchemeUnavailableError("no declared scheme; rerun with --infer")
        scheme = infer_scheme(t)
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
