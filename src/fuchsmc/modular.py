"""The arithmetic behind the certificates of `linalg.commutant_dim` and
`schlesinger.is_irreducible`, and behind the eigenvalues of
`schlesinger.infer_scheme`: exact characteristic polynomials over Z[i],
square-free decomposition over Q(i), roots in Z[i] lifted from roots mod p,
and linear algebra over the residue fields F_p of Z[i] for primes
p ≡ 1 (mod 4).

For such p, -1 has a square root iota mod p, and i -> iota maps every
Gaussian rational whose denominators p does not divide into F_p: the
reduction modulo a prime of Z[i] above p.  It is a ring map, so a matrix
identity over Q(i) stays true mod p, and a rank or a dimension can only drop.
A modular result is therefore only ever used as a one-sided proof or as a
candidate that exact arithmetic confirms, never as a verdict by itself.

Polynomials are lists of coefficients, low degree first, with no trailing
zeros; matrices mod p are lists of rows of ints in [0, p).
"""

from __future__ import annotations

import random
from bisect import bisect
from math import isqrt
from operator import mul
from typing import Iterable, Optional, Sequence

from .scalars import ZERO, GaussianRational

PRIMES = (10009, 10037, 10061, 10069, 10093)  # each ≡ 1 (mod 4)
THETA_TRIES = 8  # random algebra elements tried before a prime is given up


def sqrt_minus_one(p: int) -> int:
    """A square root of -1 mod a prime p ≡ 1 (mod 4)."""
    for g in range(2, p):
        r = pow(g, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ValueError(f"{p} is not a prime ≡ 1 (mod 4)")


def _trimmed(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


# -- exact polynomials -------------------------------------------------------------


def berkowitz(re: list[list[int]], im: list[list[int]]) -> tuple[list[int], list[int]]:
    """det(xI - a) of the Gaussian integer matrix a = re + i im, as real and
    imaginary coefficient lists; division-free (Berkowitz).

    The characteristic polynomial c of the leading r x r block grows to the
    (r+1) x (r+1) block as T c, with T lower triangular Toeplitz on
    1, -a_rr, -R v, -R A_r v, ..., -R A_r^(r-1) v: R the row left of a_rr,
    v the column above it and A_r the block.
    """
    real = not any(map(any, im))
    cre, cim = [1], [0]  # high degree first while it grows
    for r in range(len(re)):
        bre, bim = [row[:r] for row in re[:r]], [row[:r] for row in im[:r]]
        vre, vim = [row[r] for row in re[:r]], [row[r] for row in im[:r]]
        tre, tim = [1, -re[r][r]], [0, -im[r][r]]
        for _ in range(r):  # zip stops the row at the block's width
            if real:
                tre.append(-dot(re[r], vre))
                vre = [dot(x, vre) for x in bre]
                continue
            tre.append(dot(im[r], vim) - dot(re[r], vre))
            tim.append(-dot(re[r], vim) - dot(im[r], vre))
            vre, vim = (
                [dot(x, vre) - dot(y, vim) for x, y in zip(bre, bim)],
                [dot(x, vim) + dot(y, vre) for x, y in zip(bre, bim)],
            )
        if real:
            cre = [dot(tre[i::-1], cre) for i in range(r + 2)]
            continue
        cre, cim = (
            [dot(tre[i::-1], cre) - dot(tim[i::-1], cim) for i in range(r + 2)],
            [dot(tre[i::-1], cim) + dot(tim[i::-1], cre) for i in range(r + 2)],
        )
    return cre[::-1], [0] * len(cre) if real else cim[::-1]


def _divmod(f, g):
    f, q = list(f), [ZERO] * max(len(f) - len(g) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = f[k + len(g) - 1] / g[-1]
        for j, y in enumerate(g):
            f[k + j] -= c * y
    return q, _trimmed(f[: len(g) - 1])


def _gcd(f, g):
    """The monic gcd over Q(i), f nonzero."""
    while g:
        f, g = g, _divmod(f, g)[1]
    return [c / f[-1] for c in f]


def _derivative(f):
    return [c * k for k, c in enumerate(f)][1:]


def squarefree_decomposition(f) -> list[tuple[int, list]]:
    """The pairs (k, q_k), q_k monic and not constant, with f = prod q_k^k,
    for a monic f over Q(i) (Yun's algorithm)."""
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = _divmod(f, a)[0], _divmod(df, a)[0]
    out, k = [], 1
    while len(b) > 1:
        # c and the derivative of b have the same degree while b is not constant
        d = _trimmed([x - y for x, y in zip(c, _derivative(b))])
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((k, a))
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        k += 1
    return out


def is_squarefree(re: Sequence[int], im: Sequence[int], p: int = PRIMES[0]) -> bool:
    """Whether a monic polynomial over Z[i] (the real and imaginary parts of
    its coefficients) is square-free mod the prime p ≡ 1 (mod 4).  That
    proves it square-free over Q(i): a repeated factor, monic over Z[i] by
    Gauss's lemma, would reduce to a repeated factor mod p.  False proves
    nothing."""
    iota = sqrt_minus_one(p)
    f = [(x + iota * y) % p for x, y in zip(re, im)]
    return len(poly_gcd(f, [k * c % p for k, c in enumerate(f)][1:], p)) == 1


# -- polynomials mod p ----------------------------------------------------------------


def poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    f, q = list(f), [0] * max(len(f) - len(g) + 1, 0)
    inv = pow(g[-1], -1, p)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = f[k + len(g) - 1] * inv % p
        if c:
            for j, y in enumerate(g):
                f[k + j] = (f[k + j] - c * y) % p
    return q, _trimmed(f[: len(g) - 1])


def poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd mod p, f nonzero."""
    g = _trimmed(list(g))
    while g:
        f, g = g, poly_divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _powmod(f: list[int], e: int, m: list[int], p: int) -> list[int]:
    """f^e mod (m, p), by squaring."""
    out = [1]
    while e:
        if e & 1:
            out = poly_divmod(_times(out, f, p), m, p)[1]
        f = poly_divmod(_times(f, f, p), m, p)[1]
        e >>= 1
    return out


def _times(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return [c % p for c in out]


def roots(f: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of a monic polynomial, increasing.

    The product of the distinct linear factors is gcd(f, x^p - x); it is
    split by Cantor and Zassenhaus's gcd with (x + a)^((p-1)/2) - 1 for
    seeded random shifts a, so runs are reproducible.
    """
    xp = _powmod([0, 1], p, f, p) + [0, 0]
    xp[1] = (xp[1] - 1) % p
    stack, out, rng = [poly_gcd(f, xp, p)], [], random.Random(0)
    while stack:
        g = stack.pop()
        if len(g) == 2:
            out.append(-g[0] % p)
        elif len(g) > 2:
            h = _powmod([rng.randrange(p), 1], (p - 1) // 2, g, p) or [0]
            h[0] = (h[0] - 1) % p
            h = poly_gcd(g, h, p)
            stack += [h, poly_divmod(g, h, p)[0]] if 1 < len(h) < len(g) else [g]
    return sorted(out)


# -- roots in Z[i] by lifting ---------------------------------------------------------


def gaussian_root_candidates(re: Sequence[int], im: Sequence[int]) -> list[tuple[int, int]]:
    """Gaussian integers x + iy, as pairs (x, y), among which lies every root
    in Z[i] of a monic polynomial f over Z[i] (the real and imaginary parts
    of its coefficients): one per root mod p of its square-free part g.  A
    candidate need not be a root.

    g = f / gcd(f, f') is monic over Z[i] by Gauss's lemma.  p is the first
    prime ≡ 1 (mod 4) for which g mod p is square-free, so each root mod p
    is simple and Newton-lifts, like iota, to q = p^(2^j) > 16 B^2, where
    B = 1 + max |Re c| + |Im c| bounds the roots' moduli (Cauchy).  A root
    z of g reduces mod q to the lift of z mod p.  The elements of Z[i] that
    vanish mod q form the ideal spanned by q and i - iota, of norm q, whose
    Lagrange-Gauss-reduced generator w has |w| = sqrt(q) > 4B.  Rounding
    c/w to Z[i] leaves the element of c + (w) within |w|/sqrt(2) of 0, and
    that is z: every other element lies beyond |w| - B > 3|w|/4.  (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 15; Loos, SIAM J.
    Comput. 12, 1983.)
    """
    f = [GaussianRational(x, y) for x, y in zip(re, im)]
    g = _divmod(f, _gcd(f, _derivative(f)))[0]
    gre, gim = [int(c.re) for c in g], [int(c.im) for c in g]
    p = next(p for p in _primes() if is_squarefree(gre, gim, p))
    bound, q = 1 + max(abs(x) + abs(y) for x, y in zip(gre, gim)), p
    while q <= 16 * bound * bound:
        q *= q
    iota = _lift([1, 0, 1], sqrt_minus_one(p), p, q)
    gq = [(x + iota * y) % q for x, y in zip(gre, gim)]
    wre, wim = _shortest((q, 0), (-iota, 1))
    out = []
    for r in roots([c % p for c in gq], p):
        c = _lift(gq, r, p, q)
        ur, ui = _round(c * wre, q), _round(-c * wim, q)  # c/w = c conj(w)/q
        out.append((c - ur * wre + ui * wim, -ur * wim - ui * wre))
    return out


def _primes():
    """PRIMES, then the larger primes ≡ 1 (mod 4)."""
    yield from PRIMES
    q = PRIMES[-1]
    while True:
        q += 4
        if all(q % d for d in range(3, isqrt(q) + 1, 2)):
            yield q


def _lift(f: list[int], r: int, p: int, q: int) -> int:
    """The root mod q = p^(2^j) of f above its simple root r mod p, by
    Newton's iteration, which doubles the precision at each step."""
    df, mod = _derivative(f), p
    while mod < q:
        mod *= mod
        r = (r - _value(f, r, mod) * pow(_value(df, r, mod), -1, mod)) % mod
    return r


def _value(f: list[int], x: int, mod: int) -> int:
    out = 0
    for c in reversed(f):
        out = (out * x + c) % mod
    return out


def _shortest(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """A shortest nonzero vector of the lattice with basis u, v, by
    Lagrange-Gauss reduction."""
    while True:
        if dot(v, v) < dot(u, u):
            u, v = v, u
        mu = _round(dot(u, v), dot(u, u))
        if not mu:
            return u
        v = (v[0] - mu * u[0], v[1] - mu * u[1])


def _round(a: int, b: int) -> int:
    """The integer nearest a/b, for b > 0."""
    return (2 * a + b) // (2 * b)


# -- elimination and spinning mod p ----------------------------------------------------


def reduce_matrices(mats, p: int) -> Optional[list[list[list[int]]]]:
    """The ExactMatrix list mod p with i -> iota, or None when p divides a
    denominator (that is, the stored common denominator)."""
    if any(m.den % p == 0 for m in mats):
        return None
    iota = sqrt_minus_one(p)
    out = []
    for m in mats:
        inv = pow(m.den, -1, p)
        out.append([[(x + iota * y) * inv % p for x, y in zip(r, s)] for r, s in zip(m.re, m.im)])
    return out


def _insert(pivots: list[int], rows: list[list[int]], v: list[int], p: int) -> bool:
    """Reduce v against an echelon basis (pivot entries 1, sorted by pivot)
    and insert it when it is independent; returns whether it was."""
    for c, row in zip(pivots, rows):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    lead = next((k for k, x in enumerate(v) if x), None)
    if lead is None:
        return False
    inv = pow(v[lead], -1, p)
    at = bisect(pivots, lead)
    pivots.insert(at, lead)
    rows.insert(at, [x * inv % p for x in v])
    return True


def kernel(a: list[list[int]], p: int) -> list[list[int]]:
    """A basis of the right null space of a mod p."""
    pivots: list[int] = []
    rows: list[list[int]] = []
    for r in a:
        _insert(pivots, rows, r, p)
    for k in range(len(rows) - 1, 0, -1):  # clear each pivot column above it
        for i in range(k):
            f = rows[i][pivots[k]]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[k])]
    out = []
    for f in sorted(set(range(len(a[0]))) - set(pivots)):
        v = [0] * len(a[0])
        v[f] = 1
        for c, row in zip(pivots, rows):
            v[c] = -row[f] % p
        out.append(v)
    return out


def spin_dim(v: list[int], mats: Sequence[list[list[int]]], p: int) -> int:
    """Dimension of the smallest subspace containing v and invariant under
    every matrix of `mats` mod p."""
    pivots: list[int] = []
    rows: list[list[int]] = []
    _insert(pivots, rows, v, p)
    frontier = [v]
    while frontier and len(pivots) < len(v):
        images = [[dot(row, w) % p for row in m] for w in frontier for m in mats]
        frontier = [x for x in images if _insert(pivots, rows, x, p)]
    return len(pivots)


# -- Norton's irreducibility test --------------------------------------------------------


def reduce_scalar(c, p: int) -> Optional[int]:
    """A Gaussian rational mod p with i -> iota, or None when p divides a
    denominator."""
    if c.den % p == 0:
        return None
    return (c.x + sqrt_minus_one(p) * c.y) * pow(c.den, -1, p) % p


def full_matrix_algebra(mats, hints: Iterable[tuple] = ()) -> bool:
    """A proof that the unital algebra the ExactMatrix list generates over
    Q(i) is the full matrix algebra M_n; False means "not proven".

    Norton's test (Holt and Rees, J. Austral. Math. Soc. A 57, 1994) mod p:
    take theta in the algebra and lam with nullity(theta - lam) = 1, v
    spanning ker(theta - lam) and w spanning ker(theta^T - lam).  A proper
    invariant subspace U either meets ker(theta - lam), and then contains
    v, or theta - lam is singular on the quotient, and then its annihilator
    contains w.  So if v spins to F_p^n under the residues and w under their
    transposes, the algebra mod p acts absolutely irreducibly and is
    M_n(F_p) by Burnside.  Reduction mod p can only lower a dimension, so
    the algebra over Q(i) has dimension n^2 as well.

    The first prime of PRIMES that divides no denominator is used.  The
    pairs (theta, lam) of `hints` (an ExactMatrix of the algebra and a
    Gaussian rational, such as a residue and a simple eigenvalue its scheme
    declares) are tried first, and need no characteristic polynomial.  A
    hint only proposes lam: the nullity is checked mod p, and a hint whose
    lam or theta has a denominator p divides, or whose nullity is not 1, is
    passed over.  The first hint of nullity one decides the hints: both
    spins full proves the claim, and a proper spin leaves it to the random
    path.  That path draws theta as a seeded random combination of the
    generators and their pairwise products, and lam as a root of its
    characteristic polynomial with nullity one.  Every other outcome (no
    nullity-one root in THETA_TRIES draws, or a proper spin, which may be
    an artefact of the reduction) proves nothing.
    """
    for p in PRIMES:
        red = reduce_matrices(mats, p)
        if red is not None:
            break
    else:
        return False
    n = len(red[0])
    cols = [list(zip(*m)) for m in red]
    for theta, lam in hints:
        theta, lam = reduce_matrices([theta], p), reduce_scalar(lam, p)
        if theta is None or lam is None:
            continue
        verdict = _norton(theta[0], lam, red, cols, p)
        if verdict:
            return True
        if verdict is False:
            break
    products = [(a, cb) for i, a in enumerate(red) for cb in cols[i + 1 :]]
    words = red + [[[dot(r, c) % p for c in cb] for r in a] for a, cb in products]
    rng = random.Random(0)
    for _ in range(THETA_TRIES):
        coeffs = [rng.randrange(1, p) for _ in words]
        theta = [
            [sum(c * w[i][j] for c, w in zip(coeffs, words)) % p for j in range(n)]
            for i in range(n)
        ]
        chi = [c % p for c in berkowitz(theta, [[0] * n] * n)[0]]
        for lam in roots(chi, p):
            verdict = _norton(theta, lam, red, cols, p)
            if verdict is not None:
                return verdict
    return False


def _norton(theta, lam: int, red, cols, p: int) -> Optional[bool]:
    """Whether the kernel vectors of theta - lam and its transpose spin to
    F_p^n under `red` and under their transposes `cols`; None when the
    nullity of theta - lam is not 1."""
    n = len(theta)
    shifted = [[(x - lam * (i == j)) % p for j, x in enumerate(r)] for i, r in enumerate(theta)]
    v = kernel(shifted, p)
    if len(v) != 1:
        return None
    (w,) = kernel(list(zip(*shifted)), p)
    return spin_dim(v[0], red, p) == n and spin_dim(w, cols, p) == n
