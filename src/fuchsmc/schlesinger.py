"""Tuples of residue matrices with poles, and their structural predicates.

A system du/dx = sum_j A_j/(x - t_j) u is stored as its poles and residue
matrices; the residue at infinity is always the negated sum.  This module
decides the kernel/image genericity conditions, irreducibility, simultaneous
conjugacy, the index of rigidity, and membership of a matrix in the conjugacy
class described by an (eigenvalue, multiplicity) list.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

from . import linalg, modular
from .errors import (
    DuplicatePoleError,
    InvariantError,
    NonSquareError,
    PartitionSizeMismatchError,
    PointMismatchError,
    SchemeUnavailableError,
    SizeMismatchError,
)
from .linalg import ExactMatrix
from .scalars import format_scalar, gr
from .spectral import Column, RiemannScheme, canonical_column


class SchlesingerTuple:
    """Immutable (poles, residue matrices) pair, optionally with a verified
    Riemann scheme attached."""

    __slots__ = ("poles", "matrices", "scheme")

    def __init__(
        self,
        poles: Sequence,
        matrices: Sequence[ExactMatrix],
        scheme: Optional[RiemannScheme] = None,
    ):
        poles = tuple(gr(t) for t in poles)
        matrices = tuple(matrices)
        if len(poles) != len(matrices):
            raise SizeMismatchError("pole and matrix counts differ")
        if len(set(poles)) != len(poles):
            raise DuplicatePoleError("poles must be pairwise distinct")
        if _common_size(matrices) < 1:
            raise SizeMismatchError("rank must be at least 1")
        self.poles = poles
        self.matrices = matrices
        self.scheme = scheme
        if scheme is not None and not verify_scheme(self, scheme):
            raise InvariantError("declared scheme does not match the residues")

    @property
    def rank(self) -> int:
        return self.matrices[0].nrows

    @property
    def num_points(self) -> int:
        return len(self.matrices)

    def with_scheme(self, scheme: Optional[RiemannScheme]) -> "SchlesingerTuple":
        return SchlesingerTuple(self.poles, self.matrices, scheme)

    def __eq__(self, other):
        if not isinstance(other, SchlesingerTuple):
            return NotImplemented
        return self.poles == other.poles and self.matrices == other.matrices

    def __hash__(self):
        return hash((self.poles, self.matrices))

    def __repr__(self):
        return f"SchlesingerTuple(p={self.num_points}, n={self.rank})"


# -- carrying a Riemann scheme through an operation -----------------------------
#
# An operation that builds a system from a scheme-carrying one carries the
# scheme by one rule: a lemma, stated in the operation's docstring, gives
# every output class from the input's verified ones; the operation checks the
# lemma's hypotheses and attaches the scheme with `_attach_scheme`, verifying
# nothing.  A scheme is verified where it enters the library: a constructor,
# with_scheme, a file, and the public `katz.middle_convolution`, which does
# not prove its lemma's hypotheses and so checks its prediction instead.


def _attach_scheme(system, scheme: Optional[RiemannScheme]):
    """A copy of a SchlesingerTuple or OkuboSystem carrying `scheme`, which is
    not verified again; system itself when scheme is None.

    Only for a scheme just verified against exactly this system's residues,
    or one a transport lemma gives from a verified scheme, so that each
    (system, scheme) pair is verified at most once.  A scheme from any other
    source goes through the verifying constructors or with_scheme.
    """
    if scheme is None:
        return system
    out = copy.copy(system)
    out.scheme = scheme
    return out


def residue_at_infinity(t: SchlesingerTuple) -> ExactMatrix:
    return -sum(t.matrices[1:], t.matrices[0])


def check_star_conditions(t: SchlesingerTuple) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Kernel and image genericity of the tuple, per point.

    The kernel condition at i holds when no nonzero vector of
    W_i = intersection of ker A_nu (nu != i) is an eigenvector of A_i,
    i.e. the largest A_i-invariant subspace of W_i vanishes.  The image
    condition is the same test after transposing every matrix.  For a
    single-point tuple the intersection over the empty index set is taken
    to be zero, so both conditions hold vacuously.
    """
    star = _genericity_flags(t.matrices)
    starstar = _genericity_flags([m.transpose() for m in t.matrices])
    return star, starstar


def _genericity_flags(mats: Sequence[ExactMatrix]) -> tuple[bool, ...]:
    """Per i, whether no nonzero A_i-invariant subspace lies in the common
    kernel of the other matrices.

    With C the other matrices stacked, the largest A_i-invariant subspace of
    ker C is the kernel of [C; C A_i; C A_i^2; ...], whose rows are those of
    C spun under right multiplication by A_i (`linalg.row_spin_dim`).  The
    condition holds exactly when they span all n coordinates, a rank, which
    is exact and stable under field extension.
    """
    if len(mats) == 1:
        return (True,)
    n = mats[0].nrows
    return tuple(
        linalg.row_spin_dim(linalg.block_matrix([[m] for m in mats[:i] + mats[i + 1 :]]), a) == n
        for i, a in enumerate(mats)
    )


def is_irreducible(t: SchlesingerTuple) -> bool:
    """No common invariant subspace, by the Burnside criterion: the algebra
    generated by the residues is the full matrix algebra.

    Norton's test mod a prime (`modular.full_matrix_algebra`) is tried
    first.  Its success is a proof: reduction mod p can only lower the
    algebra's dimension, and the test shows the reduced algebra is all of
    M_n(F_p).  When the tuple carries a scheme, the test starts from the
    residue of the first column with a simple label lam (multiplicity one,
    no other part with that label) and that lam, so no characteristic
    polynomial or root is needed; the scheme only proposes lam, and the
    test checks nullity(residue - lam) = 1 mod p itself.  When no hint
    decides, the residues are tried with the roots mod p of their live
    blocks, and then random algebra elements.  The test decides nothing on a reducible
    tuple, or when no element it tries has an eigenvalue of nullity one;
    only then the span closure runs (`_is_irreducible_by_closure`).
    """
    if t.rank == 1 or modular.full_matrix_algebra(t.matrices, _norton_hints(t)):
        return True
    return _is_irreducible_by_closure(t.matrices)


def _norton_hints(t: SchlesingerTuple):
    """(residue, lam) for each column of t's scheme, infinity first, that has
    a simple label lam: a part of multiplicity one whose label no other
    part of the column repeats.  Residues are built only when reached."""
    if t.scheme is None:
        return
    for j, col in enumerate(t.scheme.columns):
        labels = [label for label, _ in col]
        lam = next((label for label, mult in col if mult == 1 and labels.count(label) == 1), None)
        if lam is not None:
            yield (residue_at_infinity(t) if j == 0 else t.matrices[j - 1]), lam


def _is_irreducible_by_closure(mats: Sequence[ExactMatrix]) -> bool:
    """The Burnside span closure: the fallback of `is_irreducible` and its
    test oracle."""
    n = mats[0].nrows
    return linalg.generated_algebra_dim(list(mats), size=n) == n * n


def index_of_rigidity(t: SchlesingerTuple) -> int:
    total = sum(map(linalg.commutant_dim, (residue_at_infinity(t),) + t.matrices))
    return total - (t.num_points - 1) * t.rank ** 2


# -- simultaneous conjugacy ------------------------------------------------------


def matrix_tuples_equivalent(
    a_mats: Sequence[ExactMatrix], b_mats: Sequence[ExactMatrix]
) -> bool:
    """Simultaneous conjugacy of two matrix tuples, decided exactly.

    Each tuple needs one or more n x n matrices (SizeMismatchError); tuples
    of different lengths or sizes are not conjugate.  The spin basis of e_1
    decides first (`linalg.spin_conjugacy`): when e_1 is cyclic for the a_j,
    an intertwiner is fixed by its value on e_1, so n unknowns replace n^2,
    and a space of dimension 0 or 1 decides exactly.  Otherwise the rank and
    characteristic polynomial of each matrix are compared, and then the full
    intertwiner space is solved (`_equivalent_by_sylvester`).
    """
    n = _common_size(a_mats)
    if _common_size(b_mats) != n or len(a_mats) != len(b_mats):
        return False
    if list(a_mats) == list(b_mats):
        return True
    verdict = linalg.spin_conjugacy(a_mats, b_mats)
    if verdict is not None:
        return verdict
    for a, b in zip(a_mats, b_mats):
        if linalg.rank(a) != linalg.rank(b):
            return False
        if linalg.char_poly(a) != linalg.char_poly(b):
            return False
    return _equivalent_by_sylvester(a_mats, b_mats)


def _common_size(mats: Sequence[ExactMatrix]) -> int:
    """n when mats is nonempty and all n x n, else SizeMismatchError."""
    if not mats or any(m.nrows != m.ncols or m.nrows != mats[0].nrows for m in mats):
        raise SizeMismatchError("a tuple needs one or more square matrices of one size")
    return mats[0].nrows


def _equivalent_by_sylvester(
    a_mats: Sequence[ExactMatrix], b_mats: Sequence[ExactMatrix]
) -> bool:
    """Simultaneous conjugacy from a basis of the whole intertwiner space:
    the fallback of `matrix_tuples_equivalent` and its test oracle.

    The basis is searched for an invertible element.  When there is none,
    the Weyr counts at 0 of each matrix are compared (`linalg.weyr_counts`),
    which fix the nullities of all its powers, and then the principal lattice
    {c in N^k : sum c <= n} of basis coefficients is searched.  The
    determinant restricted to the space is a polynomial of total degree at
    most n in the coefficients, and that lattice is unisolvent for such
    polynomials (Chung-Yao 1977), so if the determinant vanishes on it, it
    is identically zero and no invertible intertwiner exists over any
    extension field.
    """
    n = a_mats[0].nrows
    basis = linalg.solve_sylvester_space(list(a_mats), list(b_mats))
    if not basis:
        return False
    if any(linalg.rank(g) == n for g in basis):
        return True
    k = len(basis)
    if k == 1:
        return False
    for a, b in zip(a_mats, b_mats):
        if linalg.weyr_counts(a, 0) != linalg.weyr_counts(b, 0):
            return False
    for coeffs in _principal_lattice(k, n):
        g = ExactMatrix.zeros(n)
        for c, mat in zip(coeffs, basis):
            if c:
                g = g + mat.scale(c)
        if linalg.rank(g) == n:
            return True
    return False


def _principal_lattice(k: int, n: int):
    """The points c of N^k with c_1 + ... + c_k <= n, lexicographically."""
    if k == 0:
        yield ()
        return
    for c in range(n + 1):
        for rest in _principal_lattice(k - 1, n - c):
            yield (c,) + rest


def is_equivalent(a: SchlesingerTuple, b: SchlesingerTuple) -> bool:
    """Simultaneous conjugacy of two systems; poles must agree positionally."""
    if a.poles != b.poles or a.rank != b.rank:
        return False
    return matrix_tuples_equivalent(a.matrices, b.matrices)


# -- conjugacy classes from (eigenvalue, multiplicity) data ----------------------


def matches_conjugacy_class(m: ExactMatrix, parts: Sequence[tuple]) -> bool:
    """Whether m lies in the class the parts (label, multiplicity) give:
    the nullity of each prefix product (m - c_1)...(m - c_k) of the
    canonical column must be m_1 + ... + m_k.  The nullities come from
    `linalg.nullity_chain`, which forms none of the products and stops at
    the first prefix that fails."""
    if not m.is_square():
        raise NonSquareError("class membership needs a square matrix")
    entries = canonical_column([(gr(l), int(mult)) for l, mult in parts])
    if sum(mult for _, mult in entries) != m.nrows:
        raise PartitionSizeMismatchError("multiplicities must sum to the matrix size")
    return _in_class(m, entries)


def _in_class(m: ExactMatrix, column: Column) -> bool:
    """`matches_conjugacy_class` on a canonical column whose multiplicities
    sum to the size of m, such as a column of a RiemannScheme."""
    chain = linalg.nullity_chain(m, (label for label, _ in column))
    total = 0
    for (_, mult), nullity in zip(column, chain):
        total += mult
        if nullity != total:
            return False
    return True


def verify_scheme(t: SchlesingerTuple, s: RiemannScheme) -> bool:
    """Check the declared scheme column by column against the residues,
    infinity first.  A scheme's columns are canonical and all sum to its
    order, so each one goes to the class test as it is."""
    if s.poles != t.poles:
        raise PointMismatchError("scheme points disagree with the tuple's poles")
    if s.order != t.rank:
        return False
    residues = (residue_at_infinity(t),) + t.matrices
    return all(_in_class(m, col) for m, col in zip(residues, s.columns))


# -- scheme inference ------------------------------------------------------------


def infer_scheme(t: SchlesingerTuple) -> RiemannScheme:
    """The Riemann scheme of t when every residue has Gaussian-rational
    eigenvalues.  Otherwise SchemeUnavailableError names the first point,
    infinity first, whose residue has an eigenvalue outside Q(i).

    Each column comes from lifted modular roots (`_class_column`), in time
    polynomial in the size of the entries.

    Lemma.  The scheme passes `verify_scheme`.

    Proof.  `_gaussian_parts` gives, for each candidate eigenvalue, its Weyr
    counts.  The candidates are distinct: each reduces, under Z[i] -> F_p
    with i -> iota, to the root mod p it was lifted from, and those roots
    are distinct.  When the counts sum to n, the candidates therefore cover
    every eigenvalue with its whole multiplicity.  `verify_scheme` checks
    each column by `_in_class`, which tests the nullity of each prefix
    product (m - c_1)...(m - c_k) of the canonical column.  The kernel of a
    product of commuting polynomials in m splits over m's generalized
    eigenspaces, so this kernel is the direct sum, over the labels c, of
    ker (m - c)^k_c, where k_c counts c among c_1, ..., c_k.  A canonical column lists each label's parts in
    descending multiplicity, so the first k_c parts of c are its first k_c
    Weyr counts, and they add up to nullity (m - c)^k_c.  The nullity of the
    prefix product is therefore the sum of its parts, which is the check.
    """
    points = [("infinity", residue_at_infinity(t))]
    for j, (pole, m) in enumerate(zip(t.poles, t.matrices), start=1):
        points.append((f"t_{j} = {format_scalar(pole)}", m))
    cols = []
    for point, m in points:
        col = _class_column(m)
        if col is None:
            raise SchemeUnavailableError(
                f"the residue at {point} has eigenvalues outside the Gaussian rationals"
            )
        cols.append(col)
    return RiemannScheme(t.poles, cols)


def _class_column(m: ExactMatrix) -> Optional[Column]:
    """The canonical column of m's conjugacy class, or None when m has an
    eigenvalue outside Q(i)."""
    parts = _gaussian_parts(m)
    return canonical_column(parts) if sum(k for _, k in parts) == m.nrows else None


def _gaussian_parts(m: ExactMatrix) -> list:
    """The parts of m's class column whose labels lie in Q(i): the whole
    column when every eigenvalue does.

    m = A/d with A over Z[i], and an eigenvalue z/d of m in Q(i) has z a root
    of the monic characteristic polynomial of A, so z lies in Z[i] and among
    `modular.gaussian_root_candidates`.  Each candidate gives the parts of
    its Weyr counts (`linalg.weyr_counts`); a candidate that is not an
    eigenvalue has none.
    """
    entries = []
    for x, y in modular.gaussian_root_candidates(*linalg._int_char_poly(m)[0]):
        lam = gr(x, y) / m.den
        entries += ((lam, w) for w in linalg.weyr_counts(m, lam))
    return entries
