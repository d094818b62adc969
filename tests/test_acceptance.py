"""Acceptance suite: one test per criterion, one printed line each.

Everything is exact arithmetic; the only tolerances are the stated wall-clock
budgets, asserted directly.
"""

import time

from constructions import find_basic_2x2_tuple
from fuchsmc.generate import (
    rigid_family_realization,
    rigid_family_type,
)
from fuchsmc.identities import (
    run_image_realization_suite,
    run_katz_suite,
    run_onf_convertibility_suite,
    run_yokoyama_suite,
)
from fuchsmc.katz import middle_convolution
from fuchsmc.linalg import ExactMatrix
from fuchsmc.okubo import OkuboSystem, onf_from_scf, pick_generic, scf_from_onf
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import verify_scheme
from fuchsmc.spectral import (
    BASIC_TABLE_IDX_MINUS2,
    RiemannScheme,
    enumerate_basic,
    format_spectral_type,
    katz_reduce,
    oidx,
    ord_of,
    parse_spectral_type,
)
from fuchsmc.yokoyama import ExtensionParams, extend_direct


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{extra}")
    assert ok, f"{criterion}{extra}"


def test_criterion_1_hypergeometric_extension():
    t0 = time.time()
    lam, rho1, rho2 = gr(3), gr(1), gr(5)
    scheme = RiemannScheme([0], [[(-lam, 1)], [(lam, 1)]])
    o = OkuboSystem([1], [0], ExactMatrix.from_rows([[lam]]), scheme)
    ext = extend_direct(o, ExtensionParams(rho1, rho2, 1))
    expected = RiemannScheme(
        [0, 1],
        [
            [(-rho1, 1), (-rho2, 1)],
            [(gr(0), 1), (lam, 1)],
            [(gr(0), 1), (rho1 + rho2 - lam, 1)],
        ],
    )
    elapsed = time.time() - t0
    ok = (
        ext.rank == 2
        and ext.scheme is not None
        and ext.scheme.tuple_ == expected.tuple_
        and ext.scheme.poles == expected.poles
        and verify_scheme(scf_from_onf(ext), expected)
        and elapsed < 1.0
    )
    _report(
        "criterion 1: rank-one extension gives the hypergeometric scheme exactly",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_identity_suite():
    t0 = time.time()
    rep = run_katz_suite(seed=1, count=50, bound_n=4, bound_p=3)
    elapsed = time.time() - t0
    fails = rep.failures
    ok = len(fails) == 0 and elapsed < 300.0
    _report(
        "criterion 2: convolution identity suite on 50 seeded instances",
        ok,
        f"{len(rep.results)} checks, {len(fails)} failures, {elapsed:.0f}s",
    )


def test_criterion_3_extension_restriction_identities():
    t0 = time.time()
    rep = run_yokoyama_suite(seed=2, count=20, bound_n=4)
    elapsed = time.time() - t0
    fails = rep.failures
    ok = len(fails) == 0
    _report(
        "criterion 3: extension/restriction pipeline identities on 20 instances",
        ok,
        f"{len(rep.results)} checks, {len(fails)} failures, {elapsed:.0f}s",
    )


def test_criterion_4_image_realization():
    rep = run_image_realization_suite(seed=3, count=20, bound_n=4)
    fails = rep.failures
    _report(
        "criterion 4: image realization agrees with the quotient construction",
        len(fails) == 0,
        f"{len(rep.results)} checks, {len(fails)} failures",
    )


def test_criterion_5_convertibility_both_directions():
    rep = run_onf_convertibility_suite(seed=4, count=8)
    fails = rep.failures
    _report(
        "criterion 5: normal-form convertibility iff the parameter misses the"
        " infinity spectrum",
        len(fails) == 0,
        f"{len(rep.results)} checks, {len(fails)} failures",
    )


def test_criterion_6_tables():
    t0 = time.time()
    got0 = enumerate_basic(0, 6, 4)
    ok0 = {format_spectral_type(m) for m in got0} == {
        "11,11,11,11",
        "111,111,111",
        "1111,1111,22",
        "111111,222,33",
    }
    ranks0 = sorted(ord_of(m) + oidx(m) for m in got0)
    got2 = enumerate_basic(-2, 12, 5)
    expect2 = {text for text, *_ in BASIC_TABLE_IDX_MINUS2}
    ok2 = {format_spectral_type(m) for m in got2} == expect2 and len(got2) == 13
    ranks2 = sorted(ord_of(m) + oidx(m) for m in got2)
    elapsed = time.time() - t0
    ok = (
        ok0
        and ok2
        and ranks0 == [3, 4, 5, 7]
        and ranks2 == [4, 4, 5, 5, 6, 6, 6, 7, 8, 9, 10, 12, 14]
        and elapsed < 600.0
    )
    _report(
        "criterion 6: both classification tables reproduced exactly",
        ok,
        f"{len(got0)}+{len(got2)} rows, {elapsed:.1f}s",
    )


def test_criterion_7_reduction(tmp_path, capsys):
    ok = True
    detail = []
    final, _ = katz_reduce(parse_spectral_type("11,11,11"))
    ok &= ord_of(final) == 1
    for n in range(2, 6):
        final, _ = katz_reduce(parse_spectral_type(rigid_family_type(n)))
        ok &= ord_of(final) == 1
    detail.append("type-level chains reach order 1")

    from fuchsmc import serialization as ser
    from fuchsmc.cli import main

    for n in range(2, 6):
        t = rigid_family_realization(n)
        o = onf_from_scf(t)
        path = tmp_path / f"fam{n}.json"
        ser.save_system(str(path), o)
        rc = main(["reduce", "--input", str(path), "--mode", "yokoyama"])
        out = capsys.readouterr().out
        steps = [line for line in out.splitlines() if line.startswith("step")]
        ok &= rc == 0
        ok &= "reached rank 1" in out
        ok &= all("idx 2," in line for line in steps)
        detail.append(f"n={n}: {len(steps)} steps")
    _report("criterion 7: rigid reductions reach rank 1 with index 2 throughout",
            bool(ok), "; ".join(detail))


def test_criterion_8_basic_bridge():
    t = find_basic_2x2_tuple()
    ok = format_spectral_type(t.scheme.spectral_type()) == "11,11,11,11"
    lam = pick_generic([l for l, _ in t.scheme.column_at_infinity()])
    out = middle_convolution(t, lam)
    ok &= out.rank == 3 and out.scheme is not None
    ok &= format_spectral_type(out.scheme.spectral_type()) == "111,21,21,21"
    converted = onf_from_scf(out)
    ok &= sum(converted.block_sizes) == 3
    _report(
        "criterion 8: the four-point rank-two basic tuple converts after one"
        " generic convolution",
        bool(ok),
        f"lambda={lam}",
    )
