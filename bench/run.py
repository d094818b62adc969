"""fuchsmc benchmark runner.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is always imported from
the checkout's own `src/`.  Single process, single thread, closed loop: one
caller, and the next call starts only when the previous one has returned.

With `--trace 0` the inputs are set up several times (the median is
`setup_s`), then whole passes run for up to `--seconds` (at least one), and
the end-to-end metrics are reported.  With `--trace 1` the inputs are set up once
with tracing on, then an untraced, a traced, a scalar-counting and a second
untraced pass run, and the per-layer metrics are reported.  Every pass checks its outputs;
a failed check counts in `failed`, it does not abort the run.

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  A copy with the environment record goes to
bench/out/<workload>-seed<N>-trace<T>.json; a traced run also writes its
spans to bench/out/<workload>-seed<N>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "scalars", "linalg", "spectral", "schlesinger", "katz", "okubo",
    "yokoyama", "serialization", "generate", "identities", "cli",
)
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 2, 9, 2.0


class LibraryMissing(Exception):
    pass


def load_library(root: Path = ROOT):
    """Import fuchsmc afresh from `root/src`, so import time is part of set-up."""
    src = root / "src"
    if not (src / "fuchsmc" / "__init__.py").is_file():
        raise LibraryMissing(f"no fuchsmc package under {src}")
    for name in [n for n in sys.modules if n == "fuchsmc" or n.startswith("fuchsmc.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("fuchsmc")
    if Path(package.__file__).resolve().parent != (src / "fuchsmc").resolve():
        raise LibraryMissing(f"fuchsmc was imported from {package.__file__}, not {src}")
    return argparse.Namespace(**{m: importlib.import_module(f"fuchsmc.{m}") for m in MODULES})


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(lib) -> dict:
    backend = lib.scalars._Q
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(ROOT),
        "scalar_backend": f"{backend.__module__}.{backend.__qualname__}",
    }


def percentile(values, pct):
    """Nearest-rank percentile; None means the maximum."""
    ordered = sorted(values)
    if pct is None:
        return ordered[-1]
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(wl, seed, seconds, workdir, tiny=False):
    """Untraced run: the end-to-end metrics."""
    setup_times = []
    while len(setup_times) < MAX_SETUPS:
        start = time.perf_counter()
        lib = load_library()
        state = wl.setup(lib, seed, workdir, tiny)
        setup_times.append(time.perf_counter() - start)
        if len(setup_times) >= MIN_SETUPS and sum(setup_times) >= SETUP_BUDGET_S:
            break
    # whole passes only, and none that would end past the budget
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(p.wall_s for p in passes) <= seconds:
        passes.append(wl.run(state))
    # The host's speed switches between two states for minutes at a time, and
    # interference only ever slows a pass, so the fastest pass is the steadiest
    # estimate of the program's own cost (see README.md, Steadiness).
    wall = min(p.wall_s for p in passes)
    calls = [t for p in passes for t in p.call_s]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (statistics.median(p.units for p in passes) / wall, "1/s"),
        "call_tail_ms": (percentile(calls, wl.tail_percentile) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    tail = wl.tail_percentile
    details = {
        "setup_runs_s": setup_times,
        "pass_wall_s": [p.wall_s for p in passes],
        "median_pass_wall_s": statistics.median(p.wall_s for p in passes),
        "pass_call_s": [p.call_s for p in passes],
        "units_per_pass": passes[0].units,
        "unit": wl.unit,
        # printed but not gated: on spectral its ten-run spread came near or
        # over the 0.25 bound in most sets (see README.md, Steadiness)
        "call_p50_ms": statistics.median(calls) * 1e3,
        "call_samples": len(calls),
        "call_tail_percentile": "max" if tail is None else f"p{tail}",
        "call_samples_beyond_tail": sum(1 for t in calls if t > percentile(calls, tail)),
        "pass_digests": sorted({p.digest for p in passes}),
    }
    checks = [c for p in passes for c in p.checks]
    if len(details["pass_digests"]) > 1:
        checks.append(("every pass gives the same outputs", False, ""))
    return lib, metrics, checks, details


def _system_key(lib, system, scheme):
    """A (system, scheme) argument keyed by poles, matrices and canonical scheme text."""
    text = None if scheme is None else json.dumps(lib.serialization.scheme_to_json(scheme), sort_keys=True)
    return (tuple(system.poles), tuple(m.rows for m in system.matrices), text)


def measure_traced(wl, seed, workdir, spans_path=None, tiny=False):
    """Traced run: the per-layer metrics."""
    lib = load_library()
    with tracing.Tracer() as setup_tracer:
        state = wl.setup(lib, seed, workdir, tiny)
    # untraced passes on both sides of the others, so that the overhead
    # ratio does not depend on which pass ran first
    plain = wl.run(state)
    with tracing.Tracer() as tracer:
        traced = wl.run(state)
    with tracing.ScalarCounter() as counter:
        counted = wl.run(state)
    plain_again = wl.run(state)
    untraced_wall = (plain.wall_s + plain_again.wall_s) / 2

    totals = tracing.layer_totals(tracer.spans)
    setup_totals = tracing.layer_totals(setup_tracer.spans)
    metrics = {}
    for name in tracing.TRACED.values():
        calls, self_s = totals.get(name, (0, 0.0))
        if name in tracing.SETUP_LAYERS:
            setup_calls, setup_self_s = setup_totals.get(name, (0, 0.0))
            calls, self_s = calls + setup_calls, self_s + setup_self_s
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["linalg.elim.entries"] = (tracer.entries, "count")
    for name, args in tracer.keyed_args.items():
        if name == "schlesinger.verify_scheme":
            keys = {_system_key(lib, t, s) for t, s in args}
        else:
            keys = {_system_key(lib, t, t.scheme) for (t,) in args}
        metrics[f"{name}.distinct_ratio"] = (len(keys) / len(args) if args else 0.0, "ratio")
    restricts = totals.get("yokoyama.restrict", (0, 0.0))[0]
    metrics["yokoyama.restrict.per_step"] = (restricts / traced.steps if traced.steps else 0.0, "ratio")
    for name, count in counter.counts.items():
        metrics[name] = (count, "count")
    metrics["trace.overhead_ratio"] = (traced.wall_s / untraced_wall, "ratio")

    checks = plain.checks + traced.checks + counted.checks + plain_again.checks + [
        ("traced pass gives the untraced outputs", traced.digest == plain.digest, ""),
        ("counted pass gives the untraced outputs", counted.digest == plain.digest, ""),
    ]
    if spans_path is not None:
        spans_path.unlink(missing_ok=True)
        setup_tracer.write(spans_path, "setup")
        tracer.write(spans_path, "pass", offset=len(setup_tracer.spans))
    details = {
        "untraced_wall_s": [plain.wall_s, plain_again.wall_s],
        "traced_wall_s": traced.wall_s,
        "counted_wall_s": counted.wall_s,
        "spans": len(setup_tracer.spans) + len(tracer.spans),
        "pass_digest": plain.digest,
    }
    return lib, metrics, checks, details


def result_object(metrics, checks) -> dict:
    failed = sum(1 for _, ok, _ in checks if not ok)
    return {
        "correct": failed == 0 and bool(checks),
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_one(name, seed, seconds, trace) -> int:
    wl = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    stem = OUT_DIR / f"{name}-seed{seed}"
    try:
        if trace:
            lib, metrics, checks, details = measure_traced(wl, seed, workdir, Path(f"{stem}.spans.jsonl"))
        else:
            lib, metrics, checks, details = measure(wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = result_object(metrics, checks)
    env = environment(lib)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "details": details, "result": result,
              "failed_checks": [[label, detail] for label, ok, detail in checks if not ok][:50]}
    Path(f"{stem}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {name} seed {seed} trace {trace}: {json.dumps(env, sort_keys=True)}")
    for label, detail in record["failed_checks"]:
        print(f"# FAIL {label} {detail}".rstrip())
    fail_ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"# {'fail_ratio':<44} {fail_ratio:>14.6g} ratio ({result['failed']}/{result['attempted']} checks)")
    for metric, (value, unit) in metrics.items():
        print(f"# {metric:<44} {value:>14.6g} {unit}")
    if not trace:
        print(f"# {'call_p50_ms (not gated)':<44} {details['call_p50_ms']:>14.6g} ms")
        print(f"# call_tail_ms is {details['call_tail_percentile']} of {details['call_samples']} calls "
              f"({details['call_samples_beyond_tail']} beyond it); {details['units_per_pass']} {wl.unit} per pass")
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
