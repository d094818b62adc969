"""The identity suite: every theorem-backed relation, checked on seeded
random instances and reported one line per identity per instance."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import linalg
from .errors import CalculusError, DegenerateExtensionError, NotGenericError, NotOkuboConvertibleError
from .generate import (
    random_composition,
    random_matrix,
    random_okubo,
    random_scheme_tuple,
    random_schlesinger,
    rigid_family_type,
)
from .katz import addition, middle_convolution, permute, swap_with_infinity
from .okubo import (
    OkuboSystem,
    check_onf_conditions,
    mc_via_images,
    onf_from_scf,
    scf_from_onf,
)
from .scalars import gr
from .schlesinger import (
    SchlesingerTuple,
    check_star_conditions,
    index_of_rigidity,
    is_equivalent,
    is_irreducible,
    matrix_tuples_equivalent,
)
from .spectral import d_max, katz_reduce, lemma_ineq_holds, ord_of, parse_spectral_type, partial_max
from .yokoyama import (
    ExtensionParams,
    RestrictionParams,
    _plan_system,
    _run_plan,
    extend_composite,
    extend_direct,
    re_katz_pipeline,
    rere_katz_pipeline,
    restrict,
)


@dataclass
class CheckResult:
    instance: str
    identity: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status}  {self.instance}  {self.identity}{extra}"


@dataclass
class SuiteReport:
    results: list[CheckResult] = field(default_factory=list)

    def add(self, instance, identity, ok, detail=""):
        self.results.append(CheckResult(instance, identity, bool(ok), detail))

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def _size_cycle(bound_n: int, bound_p: int) -> list[tuple[int, int]]:
    """Weighted size plan: mostly small ranks, a few at the bound."""
    base = [(1, 2), (2, 2), (3, 2), (2, 3), (4, 3), (3, 2), (2, 2), (3, 3), (2, 3), (4, 2)]
    sizes = [(min(n, bound_n), min(p, bound_p)) for n, p in base]
    return sizes


def run_katz_suite(seed: int, count: int, bound_n: int = 4, bound_p: int = 3) -> SuiteReport:
    """Composition, index invariance, permutation commutation and
    functoriality of the rank-changing convolution."""
    rng = random.Random(seed)
    rep = SuiteReport()
    sizes = _size_cycle(bound_n, bound_p)
    for i in range(count):
        if count >= 10 and i == count - 1 and bound_n >= 4 and bound_p >= 3:
            n, p = 4, 3  # exercise the size bound at least once
        else:
            n, p = sizes[i % len(sizes)]
        t = random_schlesinger(rng, n, p)
        name = f"katz[{i}] n={n} p={p}"
        lam, lam2 = gr(rng.randint(1, 3)), gr(rng.randint(1, 3))

        m0 = middle_convolution(t, 0)
        rep.add(name, "mc_0 acts as identity", is_equivalent(m0, t))

        m1 = middle_convolution(t, lam)
        m12 = middle_convolution(m1, lam2)
        m_sum = middle_convolution(t, lam + lam2)
        rep.add(
            name,
            "mc composition law",
            m12.rank == m_sum.rank and is_equivalent(m12, m_sum),
            f"lam={lam},{lam2}",
        )

        idx = index_of_rigidity(t)
        rep.add(name, "idx invariant under mc", index_of_rigidity(m1) == idx)
        mu = [rng.randint(-2, 2) for _ in range(p)]
        rep.add(name, "idx invariant under addition", index_of_rigidity(addition(t, mu)) == idx)
        j = rng.randint(1, p)
        rep.add(name, "idx invariant under point swap", index_of_rigidity(swap_with_infinity(t, j)) == idx)

        sigma = list(range(1, p + 1))
        rng.shuffle(sigma)
        left = middle_convolution(permute(t, sigma), lam)
        right = permute(m1, sigma)
        rep.add(name, "mc commutes with permutation", is_equivalent(left, right))

        g = _random_invertible(rng, n)
        g_inv = linalg.inverse(g)
        conj = SchlesingerTuple(t.poles, [g * m * g_inv for m in t.matrices])
        rep.add(
            name,
            "mc functorial under conjugation",
            is_equivalent(middle_convolution(conj, lam), m1),
        )

        rep.add(name, "mc preserves irreducibility", is_irreducible(m1))
    return rep


def _random_invertible(rng, n):
    while True:
        g = linalg.ExactMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        )
        if linalg.rank(g) == n:
            return g


def run_yokoyama_suite(seed: int, count: int, bound_n: int = 4) -> SuiteReport:
    """Extension/restriction identities on random normal-form systems."""
    rng = random.Random(seed)
    rep = SuiteReport()
    sizes = [1, 2, 2, 3, 3, 4, 2, 3, 4, 2]
    for i in range(count):
        n = min(sizes[i % len(sizes)], bound_n)
        o = random_okubo(rng, n)
        p = o.num_points
        name = f"onf[{i}] n={n} p={p}"
        rho1 = gr(rng.randint(1, 3))
        rho2 = gr(rng.randint(1, 3))
        # a degenerate extension adds nothing: redraw, as the double identity does
        while _image_rank(o, rho1, rho2) == 0:
            rho1, rho2 = gr(rng.randint(1, 3)), gr(rng.randint(1, 3))
        t_new = gr(p)  # poles are 0..p-1
        params = ExtensionParams(rho1, rho2, t_new)

        try:
            ext = extend_direct(o, params)
        except CalculusError as exc:
            rep.add(name, "extension defined", False, str(exc))
            continue
        rep.add(
            name,
            "extension rank bookkeeping",
            ext.rank == n + _image_rank(o, rho1, rho2),
        )
        comp = extend_composite(o, params)
        rep.add(
            name,
            "direct extension matches pipeline",
            comp.rank == ext.rank and is_equivalent(scf_from_onf(ext), comp),
        )
        rep.add(
            name,
            "extension keeps the genericity conditions",
            check_onf_conditions(ext),
        )
        rep.add(
            name,
            "extension preserves irreducibility",
            is_irreducible(scf_from_onf(ext)),
        )

        back = restrict(ext, RestrictionParams(rho1, rho2, p + 1))
        rep.add(
            name,
            "restriction inverts extension",
            back.a == o.a and back.block_sizes == o.block_sizes and back.poles == o.poles,
        )

        j = rng.randint(1, p)
        # random_okubo proved o irreducible with A invertible, as the
        # planned operations take for granted
        try:
            plan = _plan_system(o, (j, rho1, rho2))
            lhs = _run_plan(o, plan)
            rhs = re_katz_pipeline(o, j, rho1, rho2, plan.shift)
            ok = lhs.rank == rhs.rank and matrix_tuples_equivalent(
                scf_from_onf(lhs).matrices, rhs.matrices
            )
            rep.add(name, "restriction-of-extension pipeline identity", ok, f"j={j}")
            expected = n + _image_rank(o, rho1, rho2) - o.block_sizes[j - 1]
            rep.add(name, "restriction-of-extension rank formula", lhs.rank == expected)
        except CalculusError as exc:
            rep.add(name, "restriction-of-extension pipeline identity", False, str(exc))

        # redraw parameters that block the two rounds at every epsilon or leave rank 0
        for attempt in range(8):
            rho3 = gr(rng.randint(1, 3 + attempt))
            rho2b = gr(rng.randint(1, 3 + attempt)) if attempt else rho2
            try:
                plan2 = _plan_system(o, (j, rho1, rho2b, rho3))
            except (NotGenericError, DegenerateExtensionError):
                continue
            lhs2 = _run_plan(o, plan2)
            rhs2 = rere_katz_pipeline(o, j, rho1, rho3, plan2.shift)
            ok = lhs2.rank == rhs2.rank and is_equivalent(scf_from_onf(lhs2), rhs2)
            rep.add(name, "double restriction-of-extension identity", ok, f"j={j}")
            break
        else:
            rep.add(
                name,
                "double restriction-of-extension identity",
                False,
                "no admissible parameters found",
            )
    return rep


def _image_rank(o: OkuboSystem, rho1, rho2) -> int:
    w = o.a.shift(-rho1) * o.a.shift(-rho2)
    return linalg.rank(w)


def run_image_realization_suite(seed: int, count: int, bound_n: int = 4) -> SuiteReport:
    """Agreement of the image-space realization with the quotient
    construction, including the block-size bookkeeping."""
    rng = random.Random(seed)
    rep = SuiteReport()
    sizes = [1, 2, 3, 2, 4, 3, 2, 3, 4, 2]
    for i in range(count):
        n = min(sizes[i % len(sizes)], bound_n)
        o = random_okubo(rng, n, irreducible=False)
        name = f"img[{i}] n={n} p={o.num_points}"
        lam = _nice_lambda(rng, o)
        mi = mc_via_images(o, lam)
        mc = middle_convolution(scf_from_onf(o), lam)
        rep.add(
            name,
            "image realization matches quotient construction",
            mi.rank == mc.rank
            and is_equivalent(scf_from_onf(mi.with_scheme(None)), mc.with_scheme(None)),
            f"lam={lam}",
        )
        rep.add(
            name,
            "image realization block sizes",
            list(mi.block_sizes)
            == [linalg.rank(m) for m in scf_from_onf(o).matrices],
        )
    return rep


def _nice_lambda(rng, o):
    n = o.rank
    for _ in range(20):
        lam = gr(rng.randint(1, 5))
        if linalg.rank(o.a.shift(lam)) == n:
            return lam
    raise CalculusError("no shift avoiding the spectrum found")


def run_onf_convertibility_suite(seed: int, count: int) -> SuiteReport:
    """Normal-form convertibility of the convolution output in both
    directions, using declared schemes to read off the spectrum at infinity."""
    rng = random.Random(seed)
    rep = SuiteReport()
    made = 0
    attempt = 0
    while made < count:
        attempt += 1
        p = 2 + (made % 2)
        t = random_scheme_tuple(rng, p, steps=1 + made % 2)
        star, starstar = check_star_conditions(t)
        if not (all(star) and all(starstar)):
            continue
        name = f"conv[{made}] n={t.rank} p={p}"
        inf_labels = [label for label, _ in t.scheme.column_at_infinity()]
        lam_good = _fresh_value(rng, inf_labels)
        ok_good = True
        try:
            onf_from_scf(middle_convolution(t, lam_good))
        except NotOkuboConvertibleError:
            ok_good = False
        rep.add(
            name,
            "convolution at a non-eigenvalue is normal-form convertible",
            ok_good,
            f"lam={lam_good}",
        )
        lam_bad = inf_labels[made % len(inf_labels)]
        ok_bad = False
        try:
            onf_from_scf(middle_convolution(t, lam_bad))
        except NotOkuboConvertibleError:
            ok_bad = True
        rep.add(
            name,
            "convolution at an eigenvalue of the infinity residue is not",
            ok_bad,
            f"lam={lam_bad}",
        )
        made += 1
    return rep


def _fresh_value(rng, forbidden):
    while True:
        v = gr(rng.randint(1, 9))
        if all(v != f for f in forbidden):
            return v


def run_conditions_suite(seed: int, count: int) -> SuiteReport:
    """Equivalence of the normal-form genericity test with the residue-tuple
    genericity test, on valid and invalid instances alike.

    Multi-point systems only: with a single point the tuple-level test is
    vacuous by the empty-intersection convention while the block-level test
    still demands full rank, so the two are only claimed to agree for p >= 2.
    """
    rng = random.Random(seed)
    rep = SuiteReport()
    for i in range(count):
        n = 2 + i % 3
        blocks = random_composition(rng, n, min_parts=2)
        a = random_matrix(rng, n)
        o = OkuboSystem(blocks, list(range(len(blocks))), a)
        lhs = check_onf_conditions(o)
        star, starstar = check_star_conditions(scf_from_onf(o))
        rhs = all(star) and all(starstar)
        rep.add(
            f"cond[{i}] n={n} blocks={blocks}",
            "block conditions equal tuple conditions",
            lhs == rhs,
            f"{lhs}",
        )
    return rep


def run_reduction_inequality_suite(max_rank: int = 5) -> SuiteReport:
    """The strict inequality along every rigid reduction chain."""
    rep = SuiteReport()
    for n in range(2, max_rank + 1):
        m = parse_spectral_type(rigid_family_type(n))
        chain = [m] + katz_reduce(m)[1]
        for step, cur in enumerate(chain):
            if ord_of(cur) <= 1 or d_max(cur) <= 0:
                continue
            reduced = partial_max(cur)
            if ord_of(reduced) <= 1 or d_max(reduced) <= 0:
                continue
            rep.add(
                f"ineq n={n} step={step}",
                "reduction slack inequality",
                lemma_ineq_holds(cur),
            )
    return rep


def run_full_suite(seed: int, count: int, bound: int) -> SuiteReport:
    """Everything the verification command checks, in deterministic order."""
    rep = SuiteReport()
    if count <= 0:
        return rep
    rep.results += run_katz_suite(seed, count, bound_n=min(bound, 4)).results
    rep.results += run_yokoyama_suite(seed + 1, max(1, count // 2), bound_n=min(bound, 4)).results
    rep.results += run_image_realization_suite(seed + 2, max(1, count // 2), bound_n=min(bound, 4)).results
    rep.results += run_onf_convertibility_suite(seed + 3, max(1, count // 4)).results
    rep.results += run_conditions_suite(seed + 4, count).results
    rep.results += run_reduction_inequality_suite().results
    return rep
