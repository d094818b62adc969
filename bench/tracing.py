"""Outside-in tracing of fuchsmc: span recording and scalar counting.

Nothing here touches the library's source.  `Tracer` replaces each listed
public function with a wrapper that records a span (name, start, end,
parent) and installs that one wrapper at every binding site: a name bound by
`from .x import y` in another fuchsmc module is a separate reference, so
patching only the defining module would miss those calls.  `ScalarCounter`
counts the Gaussian-rational operations in a pass of its own, so that the
counting does not inflate any span's self time.  Both restore every patched
attribute when their `with` block ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from types import FunctionType

# (module, attribute) -> metric prefix; the attribute "ExactMatrix.__mul__"
# names a method on a class of that module.
TRACED = {
    ("linalg", "rank"): "linalg.rank",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "kernel_basis"): "linalg.kernel_basis",
    ("linalg", "image_basis"): "linalg.image_basis",
    ("linalg", "solve"): "linalg.solve",
    ("linalg", "inverse"): "linalg.inverse",
    ("linalg", "commutant_dim"): "linalg.commutant_dim",
    ("linalg", "generated_algebra_dim"): "linalg.generated_algebra_dim",
    ("linalg", "solve_sylvester_space"): "linalg.solve_sylvester_space",
    ("linalg", "largest_invariant_subspace"): "linalg.largest_invariant_subspace",
    ("linalg", "char_poly"): "linalg.char_poly",
    ("linalg", "ExactMatrix.__mul__"): "linalg.matmul",
    ("schlesinger", "is_irreducible"): "schlesinger.is_irreducible",
    ("schlesinger", "index_of_rigidity"): "schlesinger.index_of_rigidity",
    ("schlesinger", "matrix_tuples_equivalent"): "schlesinger.matrix_tuples_equivalent",
    ("schlesinger", "verify_scheme"): "schlesinger.verify_scheme",
    ("schlesinger", "check_star_conditions"): "schlesinger.check_star_conditions",
    ("katz", "middle_convolution"): "katz.middle_convolution",
    ("katz", "convolution"): "katz.convolution",
    ("katz", "addition"): "katz.addition",
    ("katz", "mc_max"): "katz.mc_max",
    ("okubo", "onf_from_scf"): "okubo.onf_from_scf",
    ("okubo", "scf_from_onf"): "okubo.scf_from_onf",
    ("okubo", "check_onf_conditions"): "okubo.check_onf_conditions",
    ("okubo", "mc_via_images"): "okubo.mc_via_images",
    ("okubo", "euler_transform"): "okubo.euler_transform",
    ("yokoyama", "extend_direct"): "yokoyama.extend_direct",
    ("yokoyama", "restrict"): "yokoyama.restrict",
    ("yokoyama", "auto_epsilon_rere"): "yokoyama.auto_epsilon_rere",
    ("yokoyama", "rere_composite"): "yokoyama.rere_composite",
    ("spectral", "enumerate_basic"): "spectral.enumerate_basic",
    ("spectral", "onf_realization_types"): "spectral.onf_realization_types",
    ("spectral", "katz_reduce"): "spectral.katz_reduce",
    ("identities", "run_katz_suite"): "identities.run_katz_suite",
    ("cli", "main"): "cli.main",
    ("generate", "random_schlesinger"): "generate.random_schlesinger",
    ("generate", "rigid_family_realization"): "generate.rigid_family_realization",
}

# Generators that build inputs: their spans are also taken from the traced
# set-up, where construct and yokoyama-reduce call them.
SETUP_LAYERS = ("generate.random_schlesinger", "generate.rigid_family_realization")

# Elimination entry points whose argument shapes add to linalg.elim.entries.
ELIMINATION = {
    "linalg.rank", "linalg.rref", "linalg.kernel_basis",
    "linalg.image_basis", "linalg.solve", "linalg.inverse",
}

# Functions whose arguments are kept, to count distinct (system, scheme) calls.
KEYED = ("schlesinger.verify_scheme", "schlesinger.is_irreducible")

# GaussianRational methods counted by ScalarCounter, by metric.
SCALAR_METHODS = {
    "scalars.mul.calls": ("__mul__", "__rmul__"),
    "scalars.add.calls": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "scalars.inverse.calls": ("inverse",),
}


def _library_modules():
    return [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == "fuchsmc" or name.startswith("fuchsmc."))
    ]


def _resolve(module: str, attr: str):
    """The owner object and attribute name that hold a traced function."""
    owner = sys.modules[f"fuchsmc.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """Records one span per call into a traced function.

    Spans are kept in memory as (name, start, end, parent index) tuples in
    call order; the parent is the innermost traced call open at the time.
    """

    def __init__(self):
        self.spans: list = []
        self.entries = 0
        self.keyed_args: dict[str, list] = {name: [] for name in KEYED}
        self._stack: list[int] = []
        self._patches = _Patches()

    def __enter__(self):
        for (module, attr), name in TRACED.items():
            owner, attr_name = _resolve(module, attr)
            original = owner.__dict__[attr_name]
            wrapper = self._wrap(name, original)
            self._patches.set(owner, attr_name, wrapper)
            if isinstance(original, FunctionType) and "." not in attr:
                for mod in _library_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.set(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = self.keyed_args.get(name)
        entries = name in ELIMINATION

        def traced(*args, **kwargs):
            if entries:
                self.entries += sum(m.nrows * m.ncols for m in args)
            if keep is not None:
                keep.append(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def write(self, path, phase: str, offset: int = 0) -> None:
        """Append the spans as JSON lines; span ids start at `offset`."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": offset + i,
                    "phase": phase,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": offset + parent if parent >= 0 else None,
                }) + "\n")


def layer_totals(spans) -> dict[str, list]:
    """Per span name: [calls, self seconds].

    A span's self time is its duration minus the time its direct child spans
    cover; calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, parent) in enumerate(spans):
        row = totals[name]
        row[0] += 1
        row[1] += (end - start) - child_time[i]
    return totals


class ScalarCounter:
    """Counts multiplications, additions/subtractions and inverses of
    GaussianRational values while the `with` block is open."""

    def __init__(self):
        self.counts = {metric: 0 for metric in SCALAR_METHODS}
        self._patches = _Patches()

    def __enter__(self):
        cls = sys.modules["fuchsmc.scalars"].GaussianRational
        for metric, methods in SCALAR_METHODS.items():
            for method in methods:
                self._patches.set(cls, method, self._counting(metric, cls.__dict__[method]))
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    def _counting(self, metric, fn):
        counts = self.counts

        def counted(*args):
            counts[metric] += 1
            return fn(*args)

        return counted
