"""Rank-metric codes attached to q-systems.

A non-degenerate [t, k] code over F_{q^n} corresponds to an F_q-subspace U
of F_{q^n}^k of F_q-dimension t spanning the ambient space: the columns of
a generator matrix are F_q-generators of U.  Generalized rank weights are
computed system-side,

    d_rho = t - max{ wt_U(H) : dim H = k - rho },

which reuses the verifier sweep kernels, on this system or, when that is
cheaper, on the system of the dual code (Wei-type duality).  The minimum
distance is d_1; `rank_weight` on single codewords is the independent
codeword-side oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .construction import (
    ConstructionParams,
    QSystem,
    tuple_admissible,
    tuple_strongly_admissible,
)
from .field import FieldTower
from .linalg import (
    FqSubspace,
    expand_vector,
    gaussian_binomial,
    make_rows,
    matrix_rank,
    nullspace,
    rand_below,
    derive_seed,
)
from .verify import max_weight_search


@dataclass(frozen=True)
class RankCode:
    """A linear rank-metric code given by its k x t generator matrix."""

    tower: FieldTower
    k: int
    t: int
    G: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.G) != self.k or any(len(r) != self.t for r in self.G):
            raise ValueError("generator matrix has wrong shape")
        if matrix_rank(self.tower, self.G, self.t) != self.k:
            raise ValueError("generator rows are dependent over the extension field")

    def codeword(self, message) -> tuple[int, ...]:
        t = self.tower
        out = [0] * self.t
        for m, row in zip(message, self.G):
            if m:
                out = [t.add(o, t.mul(m, g)) for o, g in zip(out, row)]
        return tuple(out)

    def system(self) -> QSystem:
        """The q-system spanned by the columns of G inside F_{q^n}^k."""
        cols = [tuple(self.G[r][c] for r in range(self.k)) for c in range(self.t)]
        sub = FqSubspace(self.tower, self.k, cols)
        return QSystem(self.tower, self.k, sub, "code-system")

    @property
    def nondegenerate(self) -> bool:
        return self.system().t == self.t


def code_from_system(system: QSystem) -> RankCode:
    """Generator matrix whose columns are the canonical F_q-generators of U."""
    if not system.spans_ambient:
        raise ValueError("system does not span the ambient space")
    gens = system.subspace.canonical_generators
    k = system.ambient
    G = tuple(tuple(g[r] for g in gens) for r in range(k))
    return RankCode(system.tower, k, len(gens), G)


def rank_weight(tower: FieldTower, v) -> int:
    """F_q-dimension of the span of the coordinates of v."""
    acc = make_rows(tower)
    for x in v:
        acc.add(expand_vector(tower, (x,)))
    return acc.rank


def min_distance(
    code: RankCode, mode: str = "exhaustive", budget: int | None = None, seed: int | None = None
) -> ProfileEntry:
    """d_1 of the weight profile: t - max{wt_U(H) : H a hyperplane}.

    Exact in exhaustive mode (swept on whichever side is cheaper, see
    `generalized_weights`); in sampled mode an upper bound from `budget`
    random hyperplanes.  The system's t is the F_q-dimension of the column
    span, which fixes every codeword's rank weight, so degenerate codes need
    no special case.
    """
    return generalized_weights(code.system(), [1], mode=mode, budget=budget, seed=seed).entries[0]


def dual_code(code: RankCode) -> RankCode:
    """The [t, t-k] code orthogonal to this one under the standard inner product."""
    basis = nullspace(code.tower, code.G, code.t)
    return RankCode(code.tower, code.t - code.k, code.t, basis)


def singleton_bound_rhs(n: int, t: int, d: int) -> int:
    return min(n * (t - d + 1), t * (n - d + 1))


def is_mrd(code: RankCode, d) -> bool:
    """Whether nk meets the rank-metric Singleton bound with equality.

    d must be the exact minimum distance (an int is trusted; a ProfileEntry
    that is only a bound is rejected).
    """
    if isinstance(d, ProfileEntry):
        if d.provenance != EXACT:
            raise ValueError("is_mrd needs an exact minimum distance")
        d = d.value
    n = code.tower.n
    return n * code.k == singleton_bound_rhs(n, code.t, d)


# --- weight profiles ---

EXACT = "exact"
LOWER = "lower_bound"
UPPER = "upper_bound"


@dataclass
class ProfileEntry:
    rho: int
    value: int
    provenance: str  # exact | lower_bound | upper_bound
    checked: int = 0


@dataclass
class WeightProfile:
    """Generalized rank weights d_1..d_k, possibly partial.

    An index may carry an exact value, or a lower and/or upper bound; exact
    entries must be strictly increasing in rho.  `route` names the side that
    `generalized_weights` swept and `swept` counts the subspaces it checked.
    """

    k: int
    t: int
    entries: list[ProfileEntry] = field(default_factory=list)
    route: str = "primal"
    swept: int = 0

    def add(self, rho: int, value: int, provenance: str, checked: int = 0):
        if not 1 <= rho <= self.k:
            raise ValueError("rho out of range")
        self.entries.append(ProfileEntry(rho, value, provenance, checked))

    def exact(self, rho: int) -> int | None:
        for e in self.entries:
            if e.rho == rho and e.provenance == EXACT:
                return e.value
        return None

    def bounds(self, rho: int) -> tuple[int | None, int | None]:
        """(best lower bound, best upper bound) known at this index."""
        lo = hi = None
        for e in self.entries:
            if e.rho != rho:
                continue
            if e.provenance in (EXACT, LOWER):
                lo = e.value if lo is None else max(lo, e.value)
            if e.provenance in (EXACT, UPPER):
                hi = e.value if hi is None else min(hi, e.value)
        return lo, hi

    def exact_tuple(self) -> tuple[int, ...]:
        vals = []
        for rho in range(1, self.k + 1):
            v = self.exact(rho)
            if v is None:
                raise ValueError(f"profile has no exact value at rho={rho}")
            vals.append(v)
        return tuple(vals)

    def is_complete(self) -> bool:
        return all(self.exact(r) is not None for r in range(1, self.k + 1))

    def validate(self):
        prev = 0
        for rho in range(1, self.k + 1):
            v = self.exact(rho)
            if v is None:
                prev = None
                continue
            if v < 1 or v > self.t:
                raise ValueError(f"d_{rho} = {v} out of range 1..{self.t}")
            if prev is not None and v <= prev:
                raise ValueError("exact entries must strictly increase")
            prev = v

    def serialize(self) -> list[dict]:
        return [
            {"rho": e.rho, "value": e.value, "provenance": e.provenance, "subspaces_checked": e.checked}
            for e in sorted(self.entries, key=lambda e: (e.rho, e.provenance))
        ]

    def to_csv(self) -> str:
        lines = ["rho,value,provenance,subspaces_checked"]
        for e in sorted(self.entries, key=lambda e: (e.rho, e.provenance)):
            lines.append(f"{e.rho},{e.value},{e.provenance},{e.checked}")
        return "\n".join(lines) + "\n"


def generalized_weights(
    system: QSystem,
    rho_list=None,
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    engine: str = "auto",
) -> WeightProfile:
    """Generalized rank weights of the code attached to a spanning system.

    Exhaustive entries are exact.  They come from whichever side sweeps
    fewer subspaces: this system, one Grassmannian per requested rho, or the
    system of the nondegenerate dual code, whose full profile fixes every
    d_rho by Wei-type duality (see `_cheaper_dual`).  A budget that stops a
    dual sweep short raises ValueError, since a partial dual profile fixes
    nothing.  Sampled entries only see part of the Grassmannian, so the
    sampled maximum is a lower bound on the true maximum and the reported
    value t - max is an upper bound on d_rho.
    """
    if not system.spans_ambient:
        raise ValueError("system does not span the ambient space")
    k = system.ambient
    t = system.t
    rhos = list(rho_list) if rho_list is not None else list(range(1, k + 1))
    if any(not 1 <= rho <= k for rho in rhos):
        raise ValueError("rho out of range")
    if len(set(rhos)) != len(rhos):
        raise ValueError(f"duplicate rho in {rhos}")
    search = dict(mode=mode, budget=budget, seed=seed, workers=workers, engine=engine)
    dual = _cheaper_dual(system, rhos) if mode == "exhaustive" else None
    if dual is not None:
        return _profile_from_dual(dual, k, t, rhos, search)
    profile = WeightProfile(k, t)
    for rho in rhos:
        w, _, checked, exact = max_weight_search(system, k - rho, **search)
        profile.add(rho, t - w, EXACT if exact else UPPER, checked)
        profile.swept += checked
    return profile


def _cheaper_dual(system: QSystem, rhos) -> QSystem | None:
    """The dual code's system, when the exhaustive weights should come from it.

    That is when sweeping the dual's full profile, sum over s = 1..t-k of
    [t-k, t-k-s]_Q subspaces, costs strictly less than the requested primal
    sweeps, sum over rho of [k, k-rho]_Q, and the dual code is nondegenerate
    (its system has F_q-dimension t), so that Wei-type duality applies.
    Otherwise None.
    """
    k, t, Q = system.ambient, system.t, system.tower.order
    kd = t - k
    primal = sum(gaussian_binomial(k, k - rho, Q) for rho in rhos)
    dual = sum(gaussian_binomial(kd, kd - s, Q) for s in range(1, kd + 1))
    if kd < 1 or dual >= primal:
        return None
    dual_system = dual_code(code_from_system(system)).system()
    return dual_system if dual_system.t == t else None


def _profile_from_dual(dual_system: QSystem, k: int, t: int, rhos, search: dict) -> WeightProfile:
    """Exact d_rho read off the sorted complement [t] \\ {t+1-d_s(C^perp)}.

    Derived entries carry no subspace count of their own; the dual sweep's
    total is the profile's `swept`.
    """
    kd = t - k
    profile = WeightProfile(k, t, route="dual")
    dual = []
    for s in range(1, kd + 1):
        w, _, checked, exact = max_weight_search(dual_system, kd - s, **search)
        if not exact:
            raise ValueError(
                f"budget {search['budget']} stops the dual sweep at s={s}; "
                "exact weights from the dual side need its full profile"
            )
        dual.append(t - w)
        profile.swept += checked
    # explicit raises: these guards must also hold under python -O
    if any(b <= a for a, b in zip(dual, dual[1:])):
        raise AssertionError(f"dual profile {dual} is not strictly increasing")
    primal = sorted(set(range(1, t + 1)) - {t + 1 - d for d in dual})
    if len(primal) != k:
        raise AssertionError(f"Wei complement of the dual profile {dual} has {len(primal)} entries, not {k}")
    for rho in rhos:
        profile.add(rho, primal[rho - 1], EXACT)
    return profile


def check_weight_axioms(profile: WeightProfile, dual_profile: WeightProfile, t: int) -> bool:
    """Strict monotonicity of both profiles plus Wei-type duality:
    {d_i} and {t+1-d_j^dual} partition {1, ..., t}."""
    if not (profile.is_complete() and dual_profile.is_complete()):
        raise ValueError("both profiles must be complete and exact")
    p = profile.exact_tuple()
    pd = dual_profile.exact_tuple()
    if any(b <= a for a, b in zip(p, p[1:])) or any(b <= a for a, b in zip(pd, pd[1:])):
        return False
    if p and (p[0] < 1 or p[-1] > t):
        return False
    left = set(p)
    right = {t + 1 - d for d in pd}
    return len(left) + len(right) == t and left | right == set(range(1, t + 1))


def predicted_direct_sum_profile(m: int, n: int, h: int) -> WeightProfile:
    """Generalized weights of a direct sum of m maximum h-scattered systems
    of F_{q^n}^(h+1), i.e. of an [mn, m(h+1), n-h] direct-sum code.

    Pinned entries: d_i = n-h-1+i for i <= h+1, d_{m(h+1)-i} = mn-i for
    i <= h, and d_{(m-1)(h+1)} = (m-1)n.  For m > 2 the middle indices carry
    only the sandwich n+1 <= d_{h+2} < ... < d_{(m-1)(h+1)-1} <= (m-1)n-1
    and the block bound d_{j(h+1)} <= jn.
    """
    if m < 2 or not 1 <= h <= n - 1:
        raise ValueError("need m >= 2 and 1 <= h <= n-1")
    k = m * (h + 1)
    t = m * n
    profile = WeightProfile(k, t)
    exact: dict[int, int] = {}
    for i in range(1, h + 2):
        exact[i] = n - h - 1 + i
    for i in range(0, h + 1):
        exact[k - i] = t - i
    exact[(m - 1) * (h + 1)] = (m - 1) * n
    for rho, v in sorted(exact.items()):
        profile.add(rho, v, EXACT)
    if m > 2:
        upper: dict[int, int] = {}
        for j, rho in enumerate(range(h + 2, (m - 1) * (h + 1))):
            if rho in exact:
                continue
            # chain the strict inequalities from both pinned ends
            profile.add(rho, n + 1 + j, LOWER)
            upper[rho] = (m - 1) * n - ((m - 1) * (h + 1) - rho)
        for j in range(1, m):
            rho = j * (h + 1)
            if rho not in exact:
                upper[rho] = min(upper.get(rho, j * n), j * n)
        for rho, v in sorted(upper.items()):
            profile.add(rho, v, UPPER)
    return profile


def family_weight_bounds(params: ConstructionParams, s_list=None) -> WeightProfile:
    """Lower bounds on generalized weights of the family code, from its
    evasiveness properties.

    At rho = h+1: d >= 2n-2h-2 (admissible tuples, h >= 2).
    At rho = s(h+1), 2 <= s <= m-2: d >= (s+1)(n-h-1) (strongly admissible).
    At rho = (m-1)(h+1): d >= mn-h-2 (admissible, h >= 2).
    """
    m, h, n = params.m, params.h, params.tower.n
    if h < 2:
        raise ValueError("weight bounds require h >= 2")
    if not tuple_admissible(params.tower, params.m, params.alphas):
        raise ValueError("tuple is not admissible; bounds do not apply")
    k = m * (h + 1)
    t = m * n
    profile = WeightProfile(k, t)
    profile.add(h + 1, 2 * n - 2 * h - 2, LOWER)
    profile.add((m - 1) * (h + 1), t - h - 2, LOWER)
    wanted = list(s_list) if s_list is not None else list(range(2, m - 1))
    for s in wanted:
        if not 2 <= s <= m - 2:
            raise ValueError(f"s = {s} out of range 2..{m - 2}")
    if wanted:
        if not tuple_strongly_admissible(params.tower, params.m, params.alphas):
            raise ValueError(
                "bounds at rho = s(h+1) for s >= 2 require a strongly admissible tuple"
            )
        for s in wanted:
            profile.add(s * (h + 1), (s + 1) * (n - h - 1), LOWER)
    return profile


def compare_with_direct_sum(params: ConstructionParams, s_list=None) -> list[dict]:
    """Per-index comparison of family lower bounds against the direct-sum
    baseline profile; `separated` flags strict improvement."""
    m, h, n = params.m, params.h, params.tower.n
    fam = family_weight_bounds(params, s_list)
    base = predicted_direct_sum_profile(m, n, h)
    out = []
    for e in sorted(fam.entries, key=lambda e: e.rho):
        b_exact = base.exact(e.rho)
        _, b_hi = base.bounds(e.rho)
        baseline = b_exact if b_exact is not None else b_hi
        prov = EXACT if b_exact is not None else UPPER
        out.append(
            {
                "rho": e.rho,
                "family_lower": e.value,
                "baseline": baseline,
                "baseline_provenance": prov,
                "separated": baseline is not None and e.value > baseline,
            }
        )
    return out


# --- random codes for property checks ---


def random_code(tower: FieldTower, k: int, t: int, seed: int) -> RankCode:
    """Seeded random [t, k] code whose system and dual system are nondegenerate."""
    rng = random.Random(derive_seed(seed, "code", k, t))
    Q = tower.order
    while True:
        G = tuple(tuple(rand_below(rng, Q) for _ in range(t)) for _ in range(k))
        if matrix_rank(tower, G, t) != k:
            continue
        code = RankCode(tower, k, t, G)
        if not code.nondegenerate:
            continue
        if not dual_code(code).nondegenerate:
            continue
        return code
