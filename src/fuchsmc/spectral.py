"""Spectral types and Riemann schemes, and the combinatorial reduction
calculus on them.

A spectral type is a tuple of partitions of a common order, one partition per
singular point with the point at infinity first.  A Riemann scheme is the
labelled refinement: each part carries an exact eigenvalue, and the scheme
also records where the singular points sit.  Within a point the parts are kept
in the canonical order (multiplicity descending, ties by the (re, im)
lexicographic order of the label), which pins down every tie-break the
reduction calculus needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import (
    InconsistentColumnsError,
    NegativePartError,
    ParseError,
    PreconditionFailError,
)
from .scalars import GaussianRational, gr, format_scalar

Entry = tuple[Optional[GaussianRational], int]
Column = tuple[Entry, ...]


def _entry_key(e: Entry):
    label, mult = e
    if label is None:
        return (-mult, 0, 0)
    k = label.sort_key()
    return (-mult, k[0], k[1])


def canonical_column(entries: Iterable[Entry]) -> Column:
    out = []
    for label, mult in entries:
        if mult < 0:
            raise NegativePartError("negative multiplicity in a column")
        if mult == 0:
            continue
        out.append((label, int(mult)))
    labelled = [e for e in out if e[0] is not None]
    if labelled and len(labelled) != len(out):
        raise InconsistentColumnsError("column mixes labelled and unlabelled parts")
    return tuple(sorted(out, key=_entry_key))


class PartitionTuple:
    """Tuple of partitions of a common order; column 0 is the point at infinity.

    Labels are optional: the reduction calculus runs label-free, and transports
    labels only when they are present.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[Iterable[Entry]]):
        self._set_columns(tuple(canonical_column(c) for c in columns))

    @classmethod
    def _of_canonical(cls, columns: Sequence[Column]) -> "PartitionTuple":
        """The tuple of columns that are canonical already: each one a
        `canonical_column` output, which is not sorted again."""
        m = cls.__new__(cls)
        m._set_columns(tuple(columns))
        return m

    def _set_columns(self, cols: tuple[Column, ...]) -> None:
        if not cols:
            raise InconsistentColumnsError("a partition tuple needs at least one column")
        sums = [sum(m for _, m in c) for c in cols]
        if len(set(sums)) != 1:
            raise InconsistentColumnsError(f"column sums differ: {sums}")
        self.columns = cols

    @staticmethod
    def from_multiplicities(columns: Sequence[Sequence[int]]) -> "PartitionTuple":
        return PartitionTuple([[(None, m) for m in col] for col in columns])

    @property
    def num_points(self) -> int:
        return len(self.columns)

    @property
    def p(self) -> int:
        """Number of finite singular points."""
        return len(self.columns) - 1

    def multiplicities(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(m for _, m in c) for c in self.columns)

    def strip_labels(self) -> "PartitionTuple":
        # canonical order puts multiplicities in descending order, so the
        # unlabelled columns are canonical as they stand
        return PartitionTuple._of_canonical([tuple((None, m) for _, m in c) for c in self.columns])

    def has_labels(self) -> bool:
        return all(all(lbl is not None for lbl, _ in c) for c in self.columns)

    def __eq__(self, other):
        if not isinstance(other, PartitionTuple):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return f"PartitionTuple({format_spectral_type(self)!r})"


def ord_of(m: PartitionTuple) -> int:
    """The common column sum (the rank of any realizing system)."""
    return sum(mult for _, mult in m.columns[0])


def idx_spec(m: PartitionTuple) -> int:
    """Index of rigidity computed from multiplicities alone."""
    n = ord_of(m)
    p = m.p
    return sum(mult * mult for col in m.columns for _, mult in col) - (p - 1) * n * n


def d_tau(m: PartitionTuple, tau: Sequence[int]) -> int:
    """Defect of the slot choice tau (1-based per column; out of range counts 0)."""
    total = sum(col[t - 1][1] for col, t in zip(m.columns, tau) if 1 <= t <= len(col))
    return total - (m.p - 1) * ord_of(m)


def tau_max(m: PartitionTuple) -> tuple[int, ...]:
    """Per column, the first index of a maximal multiplicity (1-based),
    which the canonical order puts first."""
    return (1,) * m.num_points


def d_max(m: PartitionTuple) -> int:
    return d_tau(m, tau_max(m))


def is_basic(m: PartitionTuple) -> bool:
    return d_max(m) <= 0


def partial_max(m: PartitionTuple) -> PartitionTuple:
    """One reduction step on multiplicities: subtract d_max at the maximal
    slots (`tau_max`).  Labels are dropped; `katz.plan_step` moves them."""
    d, cols = d_max(m), m.multiplicities()
    if any(col[0] < d for col in cols):
        raise NegativePartError("reduction step drives a multiplicity negative (no irreducible realization)")
    return PartitionTuple.from_multiplicities([(col[0] - d, *col[1:]) for col in cols])


def katz_reduce(m: PartitionTuple) -> tuple[PartitionTuple, list[PartitionTuple]]:
    """Iterate partial_max until the order is 1 or the type is basic."""
    steps = []
    cur = m
    while ord_of(cur) > 1 and d_max(cur) > 0:
        cur = partial_max(cur)
        steps.append(cur)
    return cur, steps


def oidx(m: PartitionTuple) -> int:
    """Defect from admitting a normal-form realization: zero means one exists
    after a suitable addition and a point swap."""
    n = ord_of(m)
    p = m.p
    maxes = [max(mult for _, mult in col) for col in m.columns]
    best = max(sum(maxes) - mx for mx in maxes)
    return (p - 1) * n - best


def lemma_ineq_holds(m: PartitionTuple) -> bool:
    """Check the strict slack inequality behind the reduction loop.

    Requires d_max(m) > 0 and d_max of the reduced type > 0; those
    preconditions failing is an error, not a False.
    """
    d = d_max(m)
    if d <= 0:
        raise PreconditionFailError("inequality requires a strictly reducing type")
    md = partial_max(m)
    if d_max(md) <= 0:
        raise PreconditionFailError("inequality requires the reduced type to keep reducing")
    lhs = 0
    for col in m.columns:
        m1 = col[0][1]
        m2 = col[1][1] if len(col) > 1 else 0
        lhs += max(0, d - (m1 - m2))
    return lhs > d


# -- Riemann schemes -----------------------------------------------------------


@dataclass(frozen=True)
class RiemannScheme:
    """Labelled spectral data pinned to singular points (infinity first)."""

    poles: tuple[GaussianRational, ...]
    tuple_: PartitionTuple

    def __init__(self, poles: Sequence, columns_or_tuple):
        poles = tuple(gr(t) for t in poles)
        if len(set(poles)) != len(poles):
            raise InconsistentColumnsError("scheme poles must be pairwise distinct")
        if isinstance(columns_or_tuple, PartitionTuple):
            pt = columns_or_tuple
        else:
            pt = PartitionTuple(columns_or_tuple)
        if pt.num_points != len(poles) + 1:
            raise InconsistentColumnsError("scheme needs one column per point, infinity first")
        if not pt.has_labels():
            raise InconsistentColumnsError("scheme columns must be fully labelled")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "tuple_", pt)

    @classmethod
    def _of_canonical(cls, poles: Sequence[GaussianRational], columns: Sequence[Column]) -> "RiemannScheme":
        """The scheme of columns that are `canonical_column` outputs already,
        which are not sorted again; the other checks are the constructor's."""
        return cls(poles, PartitionTuple._of_canonical(columns))

    @property
    def columns(self) -> tuple[Column, ...]:
        return self.tuple_.columns

    @property
    def order(self) -> int:
        return ord_of(self.tuple_)

    def column_at_infinity(self) -> Column:
        return self.tuple_.columns[0]

    def column_at(self, j: int) -> Column:
        """Finite point column, 1-based."""
        return self.tuple_.columns[j]

    def spectral_type(self) -> PartitionTuple:
        """The labels stripped, computed once per scheme."""
        if "_type" not in self.__dict__:
            object.__setattr__(self, "_type", self.tuple_.strip_labels())
        return self._type

    def __repr__(self):
        pts = ["inf"] + [format_scalar(t) for t in self.poles]
        cols = [
            "[" + " ".join(f"{format_scalar(l)}:{m}" for l, m in col) + "]"
            for col in self.columns
        ]
        return "RiemannScheme(" + ", ".join(f"{p}={c}" for p, c in zip(pts, cols)) + ")"


# -- text syntax ---------------------------------------------------------------


def parse_spectral_type(text: str) -> PartitionTuple:
    """Parse the compact syntax: "111,21,21,21"; parts >= 10 parenthesized."""
    cols = []
    for chunk in text.strip().split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty column in spectral type")
        parts = []
        i = 0
        while i < len(chunk):
            ch = chunk[i]
            if ch == "(":
                close = chunk.find(")", i)
                if close == -1:
                    raise ParseError(f"unbalanced parenthesis in {chunk!r}")
                inner = chunk[i + 1 : close]
                if not inner.isdecimal():
                    raise ParseError(f"bad part {inner!r} in {chunk!r}")
                parts.append(int(inner))
                i = close + 1
            elif ch.isdecimal():
                parts.append(int(ch))
                i += 1
            else:
                raise ParseError(f"bad character {ch!r} in spectral type")
        if any(p <= 0 for p in parts):
            raise ParseError("parts must be positive")
        cols.append(parts)
    return PartitionTuple.from_multiplicities(cols)


def format_spectral_type(m: PartitionTuple) -> str:
    def fmt(col):
        return "".join(str(x) if x < 10 else f"({x})" for _, x in col)

    return ",".join(fmt(c) for c in m.columns)


# -- enumeration of basic types -------------------------------------------------


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return tuple(rec(n, n))


def _canonical_columns(cols: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Identification order: ascending lexicographic on the part tuples."""
    return tuple(sorted(cols))


def enumerate_basic(
    target_idx: int, max_ord: int, max_points: int
) -> list[PartitionTuple]:
    """All indivisible basic tuples with the given rigidity index.

    Basic means no reduction step decreases the order; indivisible means the
    parts have no common divisor.  Trivial one-part columns are never included
    (they can be removed by an addition and change nothing).  Tuples are
    identified up to permuting columns and are returned canonically ordered.
    """
    found = []
    for n in range(2, max_ord + 1):
        deficit_target = 2 * n * n - target_idx
        parts = [p for p in _partitions(n) if len(p) > 1]
        # sort by deficit descending so pruning bounds are tight
        items = sorted(
            ((n * n - sum(x * x for x in p), p) for p in parts), reverse=True
        )
        found.extend(
            _search_tuples(items, n, deficit_target, max_points)
        )
    found.sort(key=lambda m: (ord_of(m), m.multiplicities()))
    return found


def _search_tuples(items, n, target, max_points):
    out = []
    deficits = [d for d, _ in items]

    def rec(start, remaining, chosen):
        q = len(chosen)
        if remaining == 0:
            if q >= 3 and _is_basic_cols(chosen, n) and _indivisible(chosen):
                out.append(PartitionTuple.from_multiplicities(chosen))
            return
        if q >= max_points:
            return
        slots = max_points - q
        for i in range(start, len(items)):
            d, p = items[i]
            if d > remaining:
                continue
            # even taking the largest remaining deficit every time cannot reach
            if d * slots < remaining:
                break
            rec(i, remaining - d, chosen + [p])

    rec(0, target, [])
    return out


def _is_basic_cols(cols, n) -> bool:
    q = len(cols)
    return sum(c[0] for c in cols) <= (q - 2) * n


def _indivisible(cols) -> bool:
    g = 0
    for c in cols:
        for x in c:
            g = math.gcd(g, x)
    return g == 1


def onf_realization_types(m: PartitionTuple) -> list[PartitionTuple]:
    """Minimal-rank normal-form spectral types reachable from m.

    Move a column with maximal top part to infinity, zero the top slots of the
    rest by additions, and apply a generic rank-changing convolution.  Every
    maximizing column choice is returned (distinct choices can give genuinely
    different, mutually convertible types).
    """
    n = ord_of(m)
    cols = [tuple(mult for _, mult in c) for c in m.columns]
    maxes = [c[0] for c in cols]
    total = sum(maxes)
    best = max(total - mx for mx in maxes)
    results = []
    for k in range(len(cols)):
        if total - maxes[k] != best:
            continue
        rise = (len(cols) - 2) * n - (total - maxes[k])  # = oidx, > 0 on basic types
        inf_col = sorted((rise,) + cols[k], reverse=True)
        finite = []
        for j, c in enumerate(cols):
            if j == k:
                continue
            finite.append(sorted((c[0] + rise,) + c[1:], reverse=True))
        cand = _canonical_columns([tuple(inf_col)] + [tuple(f) for f in finite])
        pt = PartitionTuple.from_multiplicities(cand)
        if pt not in results:
            results.append(pt)
    return results


def canonical_type(m: PartitionTuple) -> PartitionTuple:
    """Representative modulo column permutation (for table comparisons)."""
    return PartitionTuple.from_multiplicities(_canonical_columns(m.multiplicities()))


# -- the two classification tables ----------------------------------------------

# (family label, basic type, order, minimal normal-form rank, normal-form types)
BASIC_TABLE_IDX0 = (
    ("D4t", "11,11,11,11", 2, 3, ("111,21,21,21",)),
    ("E6t", "111,111,111", 3, 4, ("1111,211,211",)),
    ("E7t", "1111,1111,22", 4, 5, ("11111,2111,32",)),
    ("E8t", "111111,222,33", 6, 7, ("1111111,322,43",)),
)

BASIC_TABLE_IDX_MINUS2 = (
    ("11,11,11,11,11", 2, 4, ("211,31,31,31,31",)),
    ("111,111,21,21", 3, 4, ("1111,211,31,31",)),
    ("1111,22,22,31", 4, 5, ("11111,32,32,41",)),
    ("1111,1111,211", 4, 5, ("11111,2111,311",)),
    ("211,22,22,22", 4, 6, ("2211,42,42,42", "222,411,42,42")),
    ("11111,221,221", 5, 6, ("111111,321,321",)),
    ("11111,11111,32", 5, 6, ("111111,21111,42",)),
    ("111111,2211,33", 6, 7, ("1111111,3211,43",)),
    ("2211,222,222", 6, 8, ("22211,422,422", "2222,422,4211")),
    ("11111111,332,44", 8, 9, ("111111111,432,54",)),
    ("22211,2222,44", 8, 10, ("222211,4222,64", "22222,42211,64")),
    ("22222,3331,55", 10, 12, ("222222,5331,75",)),
    ("2222211,444,66", 12, 14, ("22222211,644,86",)),
)
