"""The four benchmark workloads; BENCHMARK.json gates three of them.

Each workload has a `setup(lib, seed, workdir, tiny)` that builds its inputs
from the seed, and a `run(state)` that makes one pass: it times every
top-level public call, stops the clock, and only then checks the outputs.
`lib` holds the fuchsmc modules; calls go through its module attributes at
call time, so the tracer's wrappers see them.  A call that raises is a
failed check, not an abort.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

RECORDED_FILE = Path(__file__).resolve().parent / "recorded.json"  # written by record.py


@dataclass
class Pass:
    """What one pass did: timings, work units, checks and an output digest."""

    wall_s: float
    call_s: list[float]
    units: int
    checks: list[tuple[str, bool, str]]
    lines: list[str]  # the outputs' canonical text, or digests of it
    steps: int = 0  # reduction steps reported (yokoyama-reduce only)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


class _Calls:
    """Times each top-level call; a call that raises yields None."""

    def __init__(self):
        self.times: list[float] = []
        self.errors: list[tuple[str, str]] = []
        self.start = time.perf_counter()

    def __call__(self, label, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception:  # the benchmark must keep running and report it
            self.errors.append((label, traceback.format_exc(limit=4)))
            return None
        finally:
            self.times.append(time.perf_counter() - t0)

    def stop(self) -> float:
        return time.perf_counter() - self.start


def system_digest(lib, system) -> str:
    """Digest of the canonical serialization of a system."""
    text = json.dumps(lib.serialization.system_to_json(system), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _error_checks(calls: _Calls):
    return [(f"{label} raised", False, err) for label, err in calls.errors]


class KatzIdentities:
    """Criterion 2's identity checks on seeded random irreducible tuples."""

    name = "katz-identities"
    unit = "identity checks"
    tail_percentile = None  # one call per pass: the tail is the maximum

    def setup(self, lib, seed, workdir, tiny=False):
        # a suite seed whose n=4, p=3 instance is generic; see record.py
        suite_seed = random.Random(seed).choice(json.loads(RECORDED_FILE.read_text())["katz_suite_seeds"])
        # count 5 at bounds (4, 3) draws sizes (1,2) (2,2) (3,2) (2,3) (4,3)
        return {"lib": lib, "plan": [(suite_seed, 3, 2, 2) if tiny else (suite_seed, 5, 4, 3)]}

    def run(self, st):
        lib = st["lib"]
        calls = _Calls()
        reports = [calls("run_katz_suite", lib.identities.run_katz_suite, *plan) for plan in st["plan"]]
        wall = calls.stop()
        checks = _error_checks(calls)
        lines = []
        for rep in reports:
            if rep is None:
                continue
            lines += rep.lines()
            checks += [(f"{r.instance}: {r.identity}", r.ok, r.detail) for r in rep.results]
        units = sum(len(rep.results) for rep in reports if rep is not None)
        return Pass(wall, calls.times, units, checks, lines)


class YokoyamaReduce:
    """`fuchsmc reduce --mode yokoyama` on the rigid family's normal forms."""

    name = "yokoyama-reduce"
    unit = "reduction steps"
    tail_percentile = None  # two calls per pass: the tail is the maximum

    def setup(self, lib, seed, workdir, tiny=False):
        sizes = [2, 3] if tiny else [5, 6]
        random.Random(seed).shuffle(sizes)
        inputs = []
        for n in sizes:
            onf = lib.okubo.onf_from_scf(lib.generate.rigid_family_realization(n))
            path = Path(workdir) / f"rigid-{n}.json"
            lib.serialization.save_system(str(path), onf)
            inputs.append((n, str(path)))
        return {"lib": lib, "inputs": inputs}

    def run(self, st):
        lib = st["lib"]
        calls = _Calls()
        results = []
        for n, path in st["inputs"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = calls(f"reduce n={n}", lib.cli.main, ["reduce", "--input", path, "--mode", "yokoyama"])
            results.append((n, rc, out.getvalue(), err.getvalue()))
        wall = calls.stop()
        checks = _error_checks(calls)
        steps = 0
        for n, rc, out, err in results:
            lines = [line for line in out.splitlines() if line.startswith("step")]
            steps += max(len(lines) - 1, 0)
            checks += [
                (f"reduce n={n}: exit code 0", rc == 0, err.strip()),
                (f"reduce n={n}: reached rank 1", "reached rank 1" in out, ""),
                (f"reduce n={n}: idx 2 on every step", bool(lines) and all("idx 2," in line for line in lines), ""),
                (f"reduce n={n}: one step per rank", len(lines) == n, f"{len(lines)} step lines"),
            ]
        lines = [f"n={n} exit {rc}\n{out}" for n, rc, out, _ in results]
        return Pass(wall, calls.times, steps, checks, lines, steps=steps)


class Construct:
    """The calculus operations, with scheme transport and no identity checks."""

    name = "construct"
    unit = "constructions"
    tail_percentile = 90
    LAMBDAS = (1, 2, 3, 5)  # every choice keeps all five operations defined
    OPERATIONS = ("onf_from_scf", "middle_convolution", "mc_via_images", "extend_direct", "euler_transform")

    def setup(self, lib, seed, workdir, tiny=False):
        rng = random.Random(seed)
        sizes = [3, 4] if tiny else list(range(6, 11))
        rng.shuffle(sizes)
        cases = []
        for n in sizes:
            cases.append(self.case(lib, n, rng.choice(self.LAMBDAS)))
        digests = json.loads(RECORDED_FILE.read_text())["construct"]
        return {"lib": lib, "cases": cases, "digests": digests}

    @staticmethod
    def case(lib, n, lam):
        """One input tuple with its parameters and predicted output ranks."""
        t = lib.generate.rigid_family_realization(n)
        rank = lib.linalg.rank
        total = t.matrices[0]
        for m in t.matrices[1:]:
            total = total + m
        # Katz's dimension formula, and the extension's added block rank;
        # both are invariant under the conjugation into normal form
        mc_rank = sum(rank(m) for m in t.matrices) + rank(total.shift(lam)) - n
        ext_rank = n + rank(total.shift(-lam) * total.shift(-(lam + 1)))
        return {
            "n": n,
            "lam": lam,
            "tuple": t,
            "params": lib.yokoyama.ExtensionParams(lam, lam + 1, lib.okubo.pick_generic(t.poles)),
            "predicted": {
                "onf_from_scf": n,
                "middle_convolution": mc_rank,
                "mc_via_images": mc_rank,
                "extend_direct": ext_rank,
                "euler_transform": n,
            },
        }

    @staticmethod
    def key(op, n, lam):
        return f"{op} n={n}" if op == "onf_from_scf" else f"{op} n={n} lam={lam}"

    def run(self, st):
        lib = st["lib"]
        calls = _Calls()
        outputs = []
        for case in st["cases"]:
            n, lam = case["n"], case["lam"]
            onf = calls(f"onf_from_scf n={n}", lib.okubo.onf_from_scf, case["tuple"])
            outs = {
                "onf_from_scf": onf,
                "middle_convolution": calls(f"middle_convolution n={n}", lib.katz.middle_convolution, case["tuple"], lam),
            }
            if onf is not None:
                outs["mc_via_images"] = calls(f"mc_via_images n={n}", lib.okubo.mc_via_images, onf, lam)
                outs["extend_direct"] = calls(f"extend_direct n={n}", lib.yokoyama.extend_direct, onf, case["params"])
                outs["euler_transform"] = calls(f"euler_transform n={n}", lib.okubo.euler_transform, onf, lam)
            outputs.append((case, outs))
        wall = calls.stop()
        checks = _error_checks(calls)
        digests = []
        for case, outs in outputs:
            for op in self.OPERATIONS:
                key = self.key(op, case["n"], case["lam"])
                out = outs.get(op)
                if out is None:
                    checks.append((f"{key}: produced", False, "no output"))
                    continue
                got = system_digest(lib, out)
                digests.append(f"{key} {got}")
                want = st["digests"].get(key)
                checks += [
                    (f"{key}: rank", out.rank == case["predicted"][op], f"{out.rank} vs {case['predicted'][op]}"),
                    (f"{key}: scheme transported", out.scheme is not None, ""),
                    (f"{key}: canonical output digest", got == want, "no recorded digest" if want is None else ""),
                ]
        units = sum(1 for _, outs in outputs for out in outs.values() if out is not None)
        return Pass(wall, calls.times, units, checks, digests)


class Spectral:
    """Integer-partition combinatorics only: the bypass workload."""

    name = "spectral"
    unit = "types"
    tail_percentile = 90
    IDX_MINUS4 = (-4, 16, 6)
    IDX_MINUS4_COUNT = 36  # enumerate_basic(-4, 16, 6) at the commit that defined the benchmark

    def setup(self, lib, seed, workdir, tiny=False):
        sp = lib.spectral
        tables = []
        for target, bounds, rows in (
            (0, (6, 4), [(text, ordv, rank, alts) for _, text, ordv, rank, alts in sp.BASIC_TABLE_IDX0]),
            (-2, (12, 5), list(sp.BASIC_TABLE_IDX_MINUS2)),
        ):
            parsed = [
                (sp.parse_spectral_type(text), ordv, rank, [sp.canonical_type(sp.parse_spectral_type(a)) for a in alts])
                for text, ordv, rank, alts in rows
            ]
            tables.append((target, bounds, parsed))
        return {
            "lib": lib,
            "search": (-4, 8, 5) if tiny else self.IDX_MINUS4,
            "order_seed": random.Random(seed).randrange(1 << 30),
            "tables": tables,
        }

    def run(self, st):
        lib = st["lib"]
        sp = lib.spectral
        calls = _Calls()
        found = calls("enumerate_basic idx -4", sp.enumerate_basic, *st["search"]) or []
        order = list(range(len(found)))
        random.Random(st["order_seed"]).shuffle(order)
        reduced = []
        for i in order:
            m = found[i]
            realizations = calls("onf_realization_types", sp.onf_realization_types, m) or []
            chains = [calls("katz_reduce", sp.katz_reduce, x) for x in [m] + realizations]
            reduced.append((m, realizations, chains))
        derived = []
        for target, (max_ord, max_points), rows in st["tables"]:
            got = calls(f"enumerate_basic idx {target}", sp.enumerate_basic, target, max_ord, max_points) or []
            realized = [calls("onf_realization_types", sp.onf_realization_types, m) or [] for m, *_ in rows]
            derived.append((target, rows, got, realized))
        wall = calls.stop()

        checks = _error_checks(calls)
        text = []
        if st["search"] == self.IDX_MINUS4:
            checks.append(("idx -4 count", len(found) == self.IDX_MINUS4_COUNT, f"{len(found)} types"))
        for m, realizations, chains in reduced:
            name = sp.format_spectral_type(m)
            text.append(name + " -> " + " ".join(sp.format_spectral_type(x) for x in realizations))
            gcd = math.gcd(*(x for col in m.multiplicities() for x in col))
            checks += [
                (f"{name}: basic", sp.is_basic(m), ""),
                (f"{name}: indivisible", gcd == 1, ""),
                (f"{name}: idx -4", sp.idx_spec(m) == st["search"][0], ""),
                (f"{name}: basic type reduces to itself", chains[0] == (m, []), ""),
            ]
            for x, chain in zip(realizations, chains[1:]):
                ok = chain is not None and sp.canonical_type(chain[0]) == sp.canonical_type(m)
                checks.append((f"{name}: {sp.format_spectral_type(x)} reduces back", ok, ""))
        for target, rows, got, realized in derived:
            want = {sp.canonical_type(m) for m, *_ in rows}
            have = {sp.canonical_type(m) for m in got}
            text.append(f"idx {target}: " + " ".join(sorted(sp.format_spectral_type(m) for m in got)))
            checks.append((f"idx {target} table", have == want and len(got) == len(rows), f"{len(got)} types"))
            for (m, ordv, rank, alts), reals in zip(rows, realized):
                name = sp.format_spectral_type(m)
                canon = {sp.canonical_type(x) for x in reals}
                ok = sp.ord_of(m) == ordv and sp.ord_of(m) + sp.oidx(m) == rank and all(a in canon for a in alts)
                checks.append((f"idx {target} row {name}", ok, ""))
        units = len(found) + sum(len(got) for _, _, got, _ in derived)
        return Pass(wall, calls.times, units, checks, text)


WORKLOADS = {w.name: w for w in (KatzIdentities(), YokoyamaReduce(), Construct(), Spectral())}
