"""Construction of the twisted subspace family and its baselines.

The family lives in F_{q^n}^{m(h+1)} and is parameterized by an m-tuple of
nonzero multipliers A = (a_1, ..., a_m).  Vectors have the shape

    (x, x^q, ..., x^(q^(h-1)), f_1(x), ..., f_m(x)),   x in F_{q^n}^m,

where f_i(x) = x_i^(q^h) + a_{i+1} x_{i+1}^(q^(h+1)) with the index taken
cyclically (f_m uses a_1 and x_1).  A multiplicative invariant of the tuple
decides admissibility: for admissible tuples the family is a maximum
h-scattered subspace, which the verifiers can confirm instance by instance.

Baselines: the pseudoregulus subspace {(x, x^q, ..., x^(q^h))} and block
direct sums of systems, plus a deliberately non-scattered line control.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .field import FieldTower
from .linalg import FqSubspace, rand_below, derive_seed


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters (q, n, m, h, alphas) of one family member."""

    tower: FieldTower
    m: int
    h: int
    alphas: tuple[int, ...]

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("m must be at least 3")
        if not 1 <= self.h <= self.tower.n - 2:
            raise ValueError("h must satisfy 1 <= h <= n-2")
        if len(self.alphas) != self.m:
            raise ValueError("alphas must have length m")
        if any(a == 0 for a in self.alphas):
            raise ValueError("all multipliers must be nonzero")
        object.__setattr__(self, "alphas", tuple(self.alphas))

    @property
    def ambient(self) -> int:
        return self.m * (self.h + 1)

    def serialize(self) -> dict:
        t = self.tower
        return {
            "field": t.descriptor(),
            "m": self.m,
            "h": self.h,
            "alphas": [list(t.coeffs(a)) for a in self.alphas],
        }


def power_sum_exponent(q: int, m: int) -> int:
    """1 + q + q^2 + ... + q^(m-1)."""
    return (q**m - 1) // (q - 1)


def tuple_invariant(tower: FieldTower, m: int, alphas: Sequence[int]) -> int:
    """Multiplicative invariant of a tuple: a_1^(q^(m-1)) a_2 a_3^q ... a_m^(q^(m-2))."""
    return cyclic_tuple_invariant(tower, m, alphas, 1)


def cyclic_tuple_invariant(tower: FieldTower, m: int, alphas: Sequence[int], i: int) -> int:
    """i-th cyclic variant: a_i^(q^(m-1)) a_(i-1)^(q^(m-2)) ... a_(i+1).

    The index i is 1-based and wraps modulo m into 1..m.
    """
    out = 1
    for step in range(m):
        idx = (i - 1 - step) % m
        out = tower.mul(out, tower.frobenius(alphas[idx], m - 1 - step))
    return out


def tuple_admissible(tower: FieldTower, m: int, alphas: Sequence[int]) -> bool:
    """True iff the tuple invariant is not a (1+q+...+q^(m-1))-th power."""
    e = power_sum_exponent(tower.q, m)
    return not tower.is_power_residue(tuple_invariant(tower, m, alphas), e)


def tuple_strongly_admissible(tower: FieldTower, m: int, alphas: Sequence[int]) -> bool:
    """Admissible, and no cyclic-invariant ratio is a (q^m - 1)-th power.

    The stronger condition feeds the sharper evasiveness statements for
    codimensions s(h+1) with s >= 2.
    """
    if not tuple_admissible(tower, m, alphas):
        return False
    qm1 = tower.q**m - 1
    base_inv = tower.inv(cyclic_tuple_invariant(tower, m, alphas, 2))
    for delta in range(1, m):
        ratio = tower.mul(cyclic_tuple_invariant(tower, m, alphas, delta + 2), base_inv)
        if tower.is_power_residue(ratio, qm1):
            return False
    return True


def admissibility_feasible(tower: FieldTower, m: int) -> bool:
    """Whether admissible tuples can exist at all for this (q, n, m).

    The invariant ranges over the whole multiplicative group as the tuple
    varies, so admissible tuples exist iff some element fails to be a
    (1+q+...+q^(m-1))-th power, i.e. iff gcd(1+q+...+q^(m-1), q^n-1) > 1.
    """
    e = power_sum_exponent(tower.q, m)
    return math.gcd(e, tower.order - 1) > 1


# --- q-systems ---


@dataclass(frozen=True)
class QSystem:
    """An F_q-subspace of F_{q^n}^k tagged with its provenance."""

    tower: FieldTower
    ambient: int
    subspace: FqSubspace
    tag: str
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def t(self) -> int:
        """F_q-dimension, the length of the associated rank-metric code."""
        return self.subspace.dim

    @property
    def spans_ambient(self) -> bool:
        return self.subspace.spans_ambient

    def describe(self) -> dict:
        return {
            "tag": self.tag,
            "ambient": self.ambient,
            "fq_dim": self.t,
            "spans_ambient": self.spans_ambient,
        }


def family_map(params: ConstructionParams, xvec: Sequence[int]) -> tuple[int, ...]:
    """The defining map: x -> (x, x^q, ..., x^(q^(h-1)), f_1(x), ..., f_m(x))."""
    t, m, h = params.tower, params.m, params.h
    a = params.alphas
    out = []
    for j in range(h):
        out.extend(t.frobenius(x, j) for x in xvec)
    for i in range(m):
        nxt = (i + 1) % m
        out.append(t.add(t.frobenius(xvec[i], h), t.mul(a[nxt], t.frobenius(xvec[nxt], h + 1))))
    return tuple(out)


def family_subspace(params: ConstructionParams) -> QSystem:
    """Build the family member for these parameters.

    Generators are the images of the mn products (q-basis element times unit
    vector), in (unit, basis) order; this fixes a canonical generator order
    so that witness indices are reproducible.  The map is injective because
    the leading block reproduces x, so the F_q-dimension is exactly mn.
    """
    t, m, h = params.tower, params.m, params.h
    gens = []
    for i in range(m):
        for b in t.q_basis:
            x = [0] * m
            x[i] = b
            gens.append(family_map(params, x))
    sub = FqSubspace(t, params.ambient, gens)
    assert sub.dim == m * t.n, "defining map lost rank"
    return QSystem(t, params.ambient, sub, "family", {"params": params})


def pseudoregulus_subspace(tower: FieldTower, h: int) -> QSystem:
    """The baseline {(x, x^q, ..., x^(q^h))} in F_{q^n}^(h+1), F_q-dim n."""
    if not 1 <= h <= tower.n - 1:
        raise ValueError("need 1 <= h <= n-1")
    gens = []
    for b in tower.q_basis:
        gens.append(tuple(tower.frobenius(b, j) for j in range(h + 1)))
    sub = FqSubspace(tower, h + 1, gens)
    assert sub.dim == tower.n
    return QSystem(tower, h + 1, sub, "pseudoregulus", {"h": h})


def line_control_subspace(tower: FieldTower, ambient: int = 2) -> QSystem:
    """F_q-expansion of the extension line spanned by e_1: a planted violation."""
    if ambient < 2:
        raise ValueError("ambient must be at least 2")
    gens = []
    for b in tower.q_basis:
        v = [0] * ambient
        v[0] = b
        gens.append(tuple(v))
    sub = FqSubspace(tower, ambient, gens)
    return QSystem(tower, ambient, sub, "line-control", {"ambient": ambient})


def direct_sum(systems: Sequence[QSystem]) -> QSystem:
    """Block-diagonal sum; ambient dimensions and F_q-dimensions add."""
    if not systems:
        raise ValueError("direct_sum needs at least one system")
    tower = systems[0].tower
    if any(s.tower != tower for s in systems):
        raise ValueError("systems live over different towers")
    if len(systems) == 1:
        return systems[0]
    ambient = sum(s.ambient for s in systems)
    gens = []
    offset = 0
    for s in systems:
        for g in s.subspace.generators:
            row = [0] * ambient
            row[offset : offset + s.ambient] = g
            gens.append(tuple(row))
        offset += s.ambient
    sub = FqSubspace(tower, ambient, gens)
    return QSystem(tower, ambient, sub, "direct-sum", {"parts": tuple(systems)})


def explicit_system(tower: FieldTower, ambient: int, generators, tag: str = "explicit") -> QSystem:
    sub = FqSubspace(tower, ambient, generators)
    return QSystem(tower, ambient, sub, tag)


# --- descriptors (picklable/JSON-safe system rebuilding) ---


def system_to_desc(system: QSystem) -> dict:
    t = system.tower
    if system.tag == "family":
        return {"kind": "family", **{k: v for k, v in system.meta["params"].serialize().items() if k != "field"}}
    if system.tag == "pseudoregulus":
        return {"kind": "pseudoregulus", "h": system.meta["h"]}
    if system.tag == "line-control":
        return {"kind": "line-control", "ambient": system.ambient}
    if system.tag == "direct-sum":
        return {"kind": "direct-sum", "parts": [system_to_desc(p) for p in system.meta["parts"]]}
    return {
        "kind": "explicit",
        "tag": system.tag,
        "ambient": system.ambient,
        "generators": system.subspace.serialize(),
    }


def system_from_desc(tower: FieldTower, desc: dict) -> QSystem:
    kind = desc["kind"]
    if kind == "family":
        alphas = tuple(tower.val(c) for c in desc["alphas"])
        return family_subspace(ConstructionParams(tower, desc["m"], desc["h"], alphas))
    if kind == "pseudoregulus":
        return pseudoregulus_subspace(tower, desc["h"])
    if kind == "line-control":
        return line_control_subspace(tower, desc["ambient"])
    if kind == "direct-sum":
        return direct_sum([system_from_desc(tower, p) for p in desc["parts"]])
    if kind == "explicit":
        sub = FqSubspace.deserialize(tower, desc["ambient"], desc["generators"])
        return QSystem(tower, desc["ambient"], sub, desc.get("tag", "explicit"))
    raise ValueError(f"unknown system kind {kind!r}")


# --- tuple census ---


CENSUS_EXAMPLES = 5         # admissible tuples a census report lists
CENSUS_FULL_CAP = 4_000_000  # most tuples an unbudgeted census scans


def _census(tower: FieldTower, m: int, check_strong: bool, tuples: Iterable[tuple[int, ...]]):
    """Count admissible tuples, via discrete logs when tables exist."""
    t = tower
    qm1 = t.order - 1
    e = power_sum_exponent(t.q, m)
    g_adm = math.gcd(e, qm1)
    tables = t._tables
    exps = [pow(t.q, m - 1, qm1)] + [pow(t.q, j - 1, qm1) for j in range(1, m)]
    checked = admissible = strong = 0
    examples = []
    for tup in tuples:
        checked += 1
        if tables is not None:
            log = tables[1]
            lk = sum(exps[j] * log[tup[j]] for j in range(m)) % qm1
            adm = g_adm > 1 and lk % g_adm != 0
        else:
            adm = tuple_admissible(t, m, tup)
        if adm:
            admissible += 1
            if len(examples) < CENSUS_EXAMPLES:
                examples.append(tup)
            if check_strong and tuple_strongly_admissible(t, m, tup):
                strong += 1
    return checked, admissible, strong, examples


def scan_admissible(
    tower: FieldTower,
    m: int,
    budget: int | None = None,
    seed: int = 0,
    check_strong: bool = False,
) -> dict:
    """Census of multiplier tuples by admissibility.

    With no budget, scans all (Q-1)^m tuples, which must number at most
    CENSUS_FULL_CAP; with one, scans `budget` seeded random tuples.  Returns
    counts plus the first CENSUS_EXAMPLES admissible tuples.
    """
    Q = tower.order
    total = (Q - 1) ** m
    exhaustive = budget is None and total <= CENSUS_FULL_CAP
    if budget is None and not exhaustive:
        raise ValueError(f"full scan of {total} tuples exceeds cap; pass a budget")
    if exhaustive:
        tuples = itertools.product(range(1, Q), repeat=m)
    else:
        rng = random.Random(derive_seed(seed, "census", m))
        tuples = (
            tuple(1 + rand_below(rng, Q - 1) for _ in range(m)) for _ in range(budget)
        )
    checked, admissible, strong, examples = _census(tower, m, check_strong, tuples)
    out = {
        "tuples_checked": checked,
        "admissible": admissible,
        "exhaustive": exhaustive,
        "feasible": admissibility_feasible(tower, m),
        "examples": [[list(tower.coeffs(a)) for a in tup] for tup in examples],
    }
    if check_strong:
        out["strongly_admissible"] = strong
    if not exhaustive:
        out["seed"] = seed
    return out


def find_admissible(tower: FieldTower, m: int, h: int, strong: bool = False, limit: int = 200_000):
    """First admissible tuple in deterministic scan order, or None."""
    Q = tower.order
    count = 0
    for tup in itertools.product(range(1, Q), repeat=m):
        count += 1
        if count > limit:
            return None
        test = tuple_strongly_admissible if strong else tuple_admissible
        if test(tower, m, tup):
            return ConstructionParams(tower, m, h, tup)
    return None
