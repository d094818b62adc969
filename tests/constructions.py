"""Constructions that only the tests use: the normalized representative of a
conjugacy class, a basic rank-2 tuple found by a deterministic search, the
big matrices, the bases and the complement choice of a convolution, and the
old rule that verified every predicted scheme."""

import itertools
from typing import Sequence

from fuchsmc import linalg
from fuchsmc.errors import (
    CalculusError,
    NotNormalizableError,
    PartitionSizeMismatchError,
    SchemeUnavailableError,
)
from fuchsmc.linalg import ExactMatrix
from fuchsmc.okubo import OkuboSystem, scf_from_onf
from fuchsmc.scalars import ONE, ZERO, gr
from fuchsmc.schlesinger import SchlesingerTuple, _attach_scheme, infer_scheme, is_irreducible, verify_scheme
from fuchsmc.spectral import canonical_column, format_spectral_type


def build_L(parts: Sequence[tuple]) -> ExactMatrix:
    """The normalized block upper-bidiagonal class representative.

    Parts are sorted canonically (multiplicity descending, label ties by
    (re, im)); diagonal blocks are scalar, and each superdiagonal block is the
    rectangular identity, so repeated eigenvalues across consecutive blocks
    encode nontrivial Jordan structure.
    """
    entries = canonical_column([(gr(l), int(m)) for l, m in parts])
    if not entries:
        raise PartitionSizeMismatchError("empty part list")
    n = sum(m for _, m in entries)
    rows = [[ZERO] * n for _ in range(n)]
    offset = 0
    for idx, (label, m) in enumerate(entries):
        for i in range(m):
            rows[offset + i][offset + i] = label
        if idx + 1 < len(entries):
            nxt = entries[idx + 1][1]
            for i in range(nxt):
                rows[offset + i][offset + m + i] = ONE
        offset += m
    return ExactMatrix(n, n, rows)



def find_basic_2x2_tuple() -> SchlesingerTuple:
    """Brute-force search for a rank-2, four-point basic tuple whose residues
    are small integer rank-one matrices and whose spectral type is
    11,11,11,11.  Deterministic: the first hit in lexicographic order wins.
    """
    vals = [-1, 0, 1, 2]
    rank1 = []
    for a in itertools.product(vals, repeat=4):
        m = ExactMatrix.from_rows([[a[0], a[1]], [a[2], a[3]]])
        if a[0] + a[3] != 0 and linalg.rank(m) == 1:
            rank1.append(m)
    for m1, m2, m3 in itertools.product(rank1, repeat=3):
        t = SchlesingerTuple([0, 1, 2], [m1, m2, m3])
        if not is_irreducible(t):
            continue
        try:
            sch = infer_scheme(t)
        except SchemeUnavailableError:
            continue
        if format_spectral_type(sch.spectral_type()) != "11,11,11,11":
            continue
        return t.with_scheme(sch)
    raise CalculusError("no basic rank-2 tuple found in the search box")


def big_matrices(cd) -> list[ExactMatrix]:
    """G_1, ..., G_p of the convolution data cd (`katz.convolution`): G_j
    vanishes outside row block j, which is (A_1 ... A_j + lambda ... A_p)."""
    p, zero = len(cd.residues), ExactMatrix.zeros(cd.residues[0].nrows)
    out = []
    for j in range(p):
        b_j = [m.shift(cd.lam) if nu == j else m for nu, m in enumerate(cd.residues)]
        out.append(linalg.block_matrix([b_j if i == j else [zero] * p for i in range(p)]))
    return out


def complete_to_basis(span_cols: ExactMatrix) -> tuple[list[int], list[int]]:
    """Split coordinates against a spanning set: the rref-pivot choice of
    independent columns of span_cols, and the standard basis indices that
    complete them to a basis of the ambient space.  The oracle of
    `katz.ConvolutionData.complement_basis`."""
    n = span_cols.nrows
    pivots = linalg.independent_columns(span_cols.hstack(ExactMatrix.identity(n)))
    indep = [c for c in pivots if c < span_cols.ncols]
    comp = [c - span_cols.ncols for c in pivots if c >= span_cols.ncols]
    return indep, comp


def _vectors(rows):
    """Gaussian-rational vectors of Z[i] rows (f, v), each the vector v / v[f]."""
    return [tuple(linalg._scalar(x, y, re[f]) for x, y in zip(re, im)) for f, (re, im) in rows]


def k_basis(cd):
    """K of the convolution data cd as vectors."""
    return _vectors(cd.k_rows)


def l_basis(cd):
    """L of the convolution data cd as vectors."""
    return _vectors(cd.l_rows)


def span_basis(cd):
    """The independent choice from K + L of the convolution data cd as vectors."""
    return _vectors(cd.span_rows)


def attach_predicted(system, scheme, predict):
    """The rule that verified every predicted scheme, the oracle of the
    transport lemmas: system, an operation's scheme-less output, carrying
    predict(scheme) when that prediction verifies against its residues;
    system itself when scheme is None, when predict raises
    NotNormalizableError, or when the check fails."""
    if scheme is None:
        return system
    try:
        predicted = predict(scheme)
    except NotNormalizableError:
        return system
    t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
    if predicted.order != t.rank or not verify_scheme(t, predicted):
        return system
    return _attach_scheme(system, predicted)
