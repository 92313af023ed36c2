"""Exact arithmetic in F_{q^n} with a distinguished base subfield F_q.

The extension is modelled as a single quotient ring F_p[z]/(modulus) with
deg(modulus) = s*n and q = p^s.  The subfield F_q is recognised as the fixed
set of the map x -> x^q, and an ordered q-basis (b_0, ..., b_{n-1}) of the
extension over F_q supports coordinate expansion.

Element values are canonical integers: the base-p packing of the fully
reduced coefficient vector.  Value order doubles as the frozen element
enumeration order used by every deterministic sweep in this package.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

# Multiplication switches from log tables to raw polynomial arithmetic
# above this field size.
TABLE_CAP = 1 << 20
TABLE_BLOCK = 1 << 12  # powers per numpy block of the log-table build

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# --- dense polynomials over F_p, ascending coefficient tuples ---


def _trim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_sub(a, b, p):
    m = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(m)])


def _poly_mulmod(a, b, mod, p):
    """a*b mod (monic) mod over F_p."""
    if not a or not b:
        return ()
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    r = len(mod) - 1
    for i in range(len(res) - 1, r - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(r):
                res[i - r + j] = (res[i - r + j] - c * mod[j]) % p
    return _trim(res[:r])


def _poly_powmod(base, e, mod, p):
    result = (1,)
    base = _poly_mulmod(base, (1,), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        db, da = len(b) - 1, len(r) - 1
        while len(r) - 1 >= db and any(r):
            lead = r[-1]
            if lead == 0:
                r.pop()
                continue
            shift = len(r) - 1 - db
            c = lead * inv % p
            for j, bj in enumerate(b):
                r[shift + j] = (r[shift + j] - c * bj) % p
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _trim(r)
    return a


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin irreducibility test over F_p."""
    c = _trim([x % p for x in coeffs])
    r = len(c) - 1
    if r < 1:
        return False
    if r == 1:
        return True
    if c[0] == 0:
        return False
    x = (0, 1)
    frob = x
    powers = {}
    for e in range(1, r + 1):
        frob = _poly_powmod(frob, p, c, p)
        powers[e] = frob
    if _poly_sub(powers[r], x, p):
        return False
    for d in prime_factors(r):
        g = _poly_gcd(_poly_sub(powers[r // d], x, p), c, p)
        if len(g) - 1 != 0:
            return False
    return True


def default_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Deterministic modulus: smallest irreducible by packed coefficient order.

    Candidates are monic of the given degree; the low coefficients are the
    base-p digits of an increasing counter, so the choice is reproducible
    across runs and machines.
    """
    for v in range(1, p**degree):
        low = _digits(v, p, degree)
        if low[0] == 0:
            continue
        cand = (*low, 1)
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {degree} over F_{p}")


def _digits(value: int, p: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


def _pack(coeffs: Sequence[int], p: int) -> int:
    v = 0
    for c in reversed(list(coeffs)):
        v = v * p + (c % p)
    return v


class FieldTower:
    """Arithmetic context for F_{q^n} over F_q = F_{p^s}.

    Immutable after construction and safe to share between workers; every
    operation is pure.  Heavy lookup tables are built lazily and are not
    part of the pickled state.
    """

    def __init__(self, p: int, s: int, n: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if s < 1:
            raise ValueError("s must be a positive integer")
        if n < 2:
            raise ValueError("extension degree n must be at least 2")
        self.p = p
        self.s = s
        self.n = n
        self.q = p**s
        self.degree = s * n
        self.order = p**self.degree
        if modulus is None:
            modulus = default_modulus(p, self.degree)
        else:
            if isinstance(modulus, int):
                modulus = _digits(modulus, p, self.degree + 1)
            modulus = _trim([c % p for c in modulus])
            if len(modulus) - 1 != self.degree:
                raise ValueError(
                    f"modulus degree must be {self.degree}, got {len(modulus) - 1}"
                )
            if modulus[-1] != 1:
                inv = pow(modulus[-1], p - 2, p)
                modulus = tuple(c * inv % p for c in modulus)
            if not is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over the prime field")
        self.modulus = tuple(modulus)
        # Packed modulus bits for the p=2 fast multiply.
        self._mod_bits = _pack(self.modulus, p) if p == 2 else None
        # 1, z, ..., z^(n-1): z generates F_{q^n} over F_q, so they span it
        self.q_basis = tuple(p**j for j in range(n))

    # -- identity / serialization --

    def _key(self):
        return (self.p, self.s, self.n, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FieldTower(p={self.p}, s={self.s}, n={self.n}, modulus={self.modulus})"

    def __getstate__(self):
        return self._key()

    def __setstate__(self, state):
        self.__init__(*state)

    def descriptor(self) -> dict:
        return {"p": self.p, "s": self.s, "n": self.n, "modulus": list(self.modulus)}

    @classmethod
    def from_descriptor(cls, desc: dict) -> "FieldTower":
        return cls(desc["p"], desc["s"], desc["n"], desc.get("modulus"))

    # -- raw coefficient arithmetic --

    def coeffs(self, val: int) -> tuple[int, ...]:
        return _digits(val, self.p, self.degree)

    def val(self, coeffs: Sequence[int]) -> int:
        c = [x % self.p for x in coeffs]
        if len(c) > self.degree:
            raise ValueError("coefficient vector too long")
        return _pack(c, self.p)

    def _mul_raw(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p = self.p
        if p == 2:
            mod = self._mod_bits
            top = 1 << self.degree
            res = 0
            while b:
                if b & 1:
                    res ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return res
        prod = _poly_mulmod(self.coeffs(a), self.coeffs(b), self.modulus, p)
        return _pack(prod, p)

    def _pow_raw(self, a: int, e: int) -> int:
        res = 1
        while e:
            if e & 1:
                res = self._mul_raw(res, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return res

    # -- lazy discrete-log tables --

    @cached_property
    def _tables(self):
        """(exp, log) lists for the first generator gen in value order:
        exp[i] = gen^i for 0 <= i < Q - 1, log[exp[i]] = i and log[0] = -1.

        The powers are built as F_p coefficient rows in int64 numpy, not one
        product per element: row i times the matrix of multiplication by
        gen^L is row i + L, so each block of L rows doubles the rows until a
        block holds TABLE_BLOCK, and later blocks follow one product each.
        Binary fields of at most 2^8 elements take one product per element:
        there a product is a few shifts and XORs, the loop costs no more than
        numpy's fixed cost, and it faults in none of the numpy code (about
        0.25 MB resident) that the build would touch.
        """
        if self.order > TABLE_CAP:
            return None
        qm1 = self.order - 1
        factors = prime_factors(qm1)
        gen = None
        for cand in range(2, self.order):
            if all(self._pow_raw(cand, qm1 // f) != 1 for f in factors):
                gen = cand
                break
        if gen is None:  # pragma: no cover - cannot happen in a field
            raise RuntimeError("no multiplicative generator found")
        if self.p == 2 and self.order <= 1 << 8:
            exp = [1] * qm1
            log = [-1] * self.order
            log[1] = 0
            for i in range(1, qm1):
                exp[i] = self._mul_raw(exp[i - 1], gen)
                log[exp[i]] = i
            return exp, log
        import numpy as np  # loaded by `import rankscatter` anyway, see linalg.counter_words

        p, deg = self.p, self.degree
        # row j: the coefficients of gen * z^j; integer matmul never calls BLAS
        step = np.array([self.coeffs(self._mul_raw(gen, p**j)) for j in range(deg)], dtype=np.int64)
        rows = np.zeros((1, deg), dtype=np.int64)
        rows[0, 0] = 1
        while len(rows) < min(qm1, TABLE_BLOCK):
            rows = np.concatenate([rows, rows @ step % p])
            step = step @ step % p
        packed = p ** np.arange(deg, dtype=np.int64)
        exp = np.empty(qm1, dtype=np.int64)
        for lo in range(0, qm1, len(rows)):
            if lo:
                rows = rows @ step % p
            exp[lo : lo + len(rows)] = (rows @ packed)[: qm1 - lo]
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp] = np.arange(qm1)
        return exp.tolist(), log.tolist()

    # -- field operations --

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        while a:
            a, d = divmod(a, p)
            out += ((-d) % p) * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        t = self._tables
        if t is not None:
            exp, log = t
            return exp[(log[a] + log[b]) % (self.order - 1)]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        t = self._tables
        if t is not None:
            exp, log = t
            return exp[-log[a] % (self.order - 1)]
        return self._pow_raw(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        qm1 = self.order - 1
        t = self._tables
        if t is not None:
            exp, log = t
            return exp[(log[a] * e) % qm1]
        e %= qm1
        return self._pow_raw(a, e)

    def frobenius(self, a: int, j: int = 1) -> int:
        """a^(q^j); an F_q-linear field automorphism.  j is reduced mod n."""
        j %= self.n
        if a == 0 or j == 0:
            return a
        return self.pow(a, self.q**j)

    def in_subfield(self, a: int) -> bool:
        """True iff a lies in the base subfield F_q, i.e. a^q = a."""
        return self.frobenius(a, 1) == a

    def is_power_residue(self, a: int, e: int) -> bool:
        """True iff a = y^e for some nonzero y.

        Uses the classical criterion a^((Q-1)/g) = 1 with g = gcd(e, Q-1).
        """
        if a == 0:
            raise ValueError("power residue test requires a nonzero element")
        if e < 1:
            raise ValueError("exponent must be positive")
        g = math.gcd(e, self.order - 1)
        if g == 1:
            return True
        t = self._tables
        if t is not None:
            return t[1][a] % g == 0
        return self.pow(a, (self.order - 1) // g) == 1

    # -- subfield structure --

    @cached_property
    def subfield_values(self) -> tuple[int, ...]:
        """All elements of F_q inside the extension, ascending by value.

        When s = 1 they are the constants 0..p-1; otherwise they are 0 and
        the powers of y = x^((Q-1)/(q-1)) for the first x >= 2 whose y has
        order q - 1, which visits O(q) elements, not all Q.
        """
        if self.s == 1:
            return tuple(range(self.p))
        q = self.q
        factors = prime_factors(q - 1)
        for x in range(2, self.order):
            y = self._pow_raw(x, (self.order - 1) // (q - 1))
            if all(self._pow_raw(y, (q - 1) // f) != 1 for f in factors):
                break
        powers = [1]
        for _ in range(q - 2):
            powers.append(self._mul_raw(powers[-1], y))
        return tuple(sorted([0, *powers]))

    @cached_property
    def subfield_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.subfield_values)}

    @cached_property
    def subfield_tables(self):
        """(add, mul, inv, neg) tables on subfield indices, for q > 2 row ops."""
        vals = self.subfield_values
        q = len(vals)
        idx = self.subfield_index
        add = [[idx[self.add(vals[i], vals[j])] for j in range(q)] for i in range(q)]
        mul = [[idx[self.mul(vals[i], vals[j])] for j in range(q)] for i in range(q)]
        inv = [0] * q
        neg = [0] * q
        for i in range(1, q):
            inv[i] = idx[self.inv(vals[i])]
        for i in range(q):
            neg[i] = idx[self.neg(vals[i])]
        return add, mul, inv, neg

    # -- expansion over F_q --

    @cached_property
    def _theta(self) -> int:
        """Canonical F_p-generator of the subfield F_q (1 when s = 1)."""
        if self.s == 1:
            return 1
        # the smallest value of degree exactly s over F_p: fixed by no
        # Frobenius power x -> x^(p^j), 0 < j < s
        return next(
            x for x in self.subfield_values[2:] if all(self._pow_raw(x, self.p**j) != x for j in range(1, self.s))
        )

    @cached_property
    def _expand_solver(self):
        """Inverse of the F_p change-of-basis matrix for q-expansion."""
        theta_pows = [1]
        for _ in range(self.s - 1):
            theta_pows.append(self.mul(theta_pows[-1], self._theta))
        cols = []
        for b in self.q_basis:
            for tp in theta_pows:
                cols.append(self.coeffs(self.mul(b, tp)))
        inv = _fp_invert([[cols[j][i] for j in range(self.degree)] for i in range(self.degree)], self.p)
        return inv, theta_pows

    def expand_scalar(self, a: int) -> tuple[int, ...]:
        """Coordinates of a over F_q on the q_basis, as subfield indices."""
        if self.s == 1:
            return _digits(a, self.p, self.n)
        inv, theta_pows = self._expand_solver
        c = self.coeffs(a)
        y = [sum(r * x for r, x in zip(row, c)) % self.p for row in inv]
        out = []
        for j in range(self.n):
            v = 0
            for i in range(self.s):
                d = y[j * self.s + i]
                if d:
                    v = self.add(v, self.mul(d % self.p, theta_pows[i]) if self.p > 2 else theta_pows[i])
            out.append(self.subfield_index[v])
        return tuple(out)

    def unexpand_scalar(self, coords: Sequence[int]) -> int:
        """Inverse of expand_scalar: subfield indices back to an element."""
        vals = self.subfield_values
        out = 0
        for c, b in zip(coords, self.q_basis):
            if c:
                out = self.add(out, self.mul(vals[c], b))
        return out


def _fp_invert(matrix, p):
    """Inverse of a square matrix over F_p, or None if singular."""
    k = len(matrix)
    work = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(matrix)]
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, k) if work[r][col] % p), None)
        if piv is None:
            return None
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for r in range(k):
            if r != rank and work[r][col] % p:
                c = work[r][col]
                work[r] = [(x - c * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return [row[k:] for row in work]


def create_field(p: int, s: int = 1, n: int = 2, modulus=None) -> FieldTower:
    """Build the tower F_q < F_{q^n} with q = p^s.

    When no modulus is given, the deterministic default (smallest irreducible
    by packed coefficient order) is used so that results are reproducible.
    """
    return FieldTower(p, s, n, modulus=modulus)
