"""Arithmetic for a quadratic extension tower of finite fields.

The tower is F_p inside F_q inside F_{q^2} with q = p^m.  F_q is the
quotient F_p[x]/(f) for a canonical monic irreducible f of degree m, and
F_{q^2} is F_q[t]/(g) for a canonical monic irreducible quadratic g.  In
both cases the canonical modulus is the first irreducible candidate when
the non-leading coefficients are read as positional digits, low degree
first, so the construction is reproducible across runs and machines.

Elements of F_{q^2} are integer codes in [0, q^2), the only element
representation: the element a0 + a1*t has code a0 + q*a1, and F_q
elements are themselves encoded by their base-p digit vectors.  Code 0
is the zero element, code 1 the identity, and the codes below q are
exactly the subfield F_q.  poly_str spells a code in that reading.

Arithmetic comes in two tiers, chosen by one test, q^2 <= 512:

* the table tier tabulates addition, multiplication, negation,
  Frobenius and norm of F_{q^2} up front, and ``dot_encs`` folds sums
  through table rows;
* the formula tier computes all five: products multiply coordinate
  pairs over F_q and reduce by the quadratic modulus, the Frobenius maps
  t to the conjugate root -e1 - t of the modulus t^2 + e1 t + e0, so it
  costs two F_q operations, the norm is x * x^q, and ``dot_encs`` sums
  products term by term.

Below them, a prime F_q (m = 1) computes on integer residues mod p,
which are its codes; any other F_q uses dense pairwise add/mul tables up
to q = 64 and polynomial digit vectors above.  Inverses are a^(q-2),
squareness is Euler's criterion, and one square-and-multiply serves
every power.  One discrete-log table of F_q^* serves both nonlinear maps
that complete null vectors: an odd-q square root is +-exp[log a / 2],
and norm preimages come from a walk over the second coordinate x1 of
x0 + x1 t in code order.  There N(x0 + x1 t) = x1^2 N(x0 / x1 + t), so
each x1 != 0 takes its first coordinates from a fiber table of
y -> N(y + t) at a / x1^2, and a size table, indexed by the log of
a / x1^2, counts them.  A single preimage is picked by subtracting
step sizes from its index, from whichever end of the walk is nearer,
and only the chosen step's codes are computed.  The log/exp, fiber and
size tables hold q entries each and are built on first use; square
roots and Artin-Schreier roots in F_{q^2} come from formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# Dense tables are only worth the memory for very small fields: F_q with
# m > 1 tabulates add/mul up to _Q_PAIRWISE_LIMIT elements,
# and F_{q^2} tabulates all five operations up to _Q2_PAIRWISE_LIMIT
# elements and computes them by formula above it.
_Q_PAIRWISE_LIMIT = 64
_Q2_PAIRWISE_LIMIT = 512


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return n


def _is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


def _prime_factors(n: int) -> list[int]:
    out = []
    while n > 1:
        d = _least_factor(n)
        out.append(d)
        while n % d == 0:
            n //= d
    return out


def _power(mul, a, e: int, one=1):
    """a^e for e >= 0 by square-and-multiply over the product mul."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _digits(v: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(v % base)
        v //= base
    return out


def _undigits(digits, base: int) -> int:
    v = 0
    for d in reversed(list(digits)):
        v = v * base + d
    return v


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, low degree first)


def _ptrim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p: int) -> list[int]:
    # f must be monic
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _ptrim(a[:df] or [0])


def _pgcd(a, b, p: int) -> list[int]:
    """Monic gcd of a and a nonzero b: each step divides by the monic
    associate of the divisor, which leaves the same remainder."""
    a = _ptrim(list(a))
    b = _ptrim(list(b))
    while b != [0]:
        inv_lead = pow(b[-1], -1, p)
        monic = [(c * inv_lead) % p for c in b]
        a, b = monic, _pmod(a, monic, p)
    return a


def _irreducible_fp(f, p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p."""
    m = len(f) - 1
    if m == 1:
        return True
    # x^(p^m) must reduce to x, and x^(p^(m/r)) - x must be coprime to f
    # for every prime divisor r of m; frob[j] = x^(p^j) mod f
    frob = [[0, 1]]
    for _ in range(m):
        frob.append(_power(lambda u, v: _pmod(_pmul(u, v, p), f, p),
                           frob[-1], p, [1]))
    if frob[m] != frob[0]:
        return False
    for r in _prime_factors(m):
        pairs = itertools.zip_longest(frob[m // r], frob[0], fillvalue=0)
        if _pgcd([(c - d) % p for c, d in pairs], f, p) != [1]:
            return False
    return True


def _first_irreducible_fp(p: int, m: int) -> tuple[int, ...]:
    for v in range(p ** m):
        f = _digits(v, p, m) + [1]
        if _irreducible_fp(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


@dataclass(frozen=True)
class FieldSpec:
    """Serializable description of a tower.  The moduli follow from
    (p, m); they are written out so that the wire form names its tower
    bit for bit, and a rebuild checks them."""

    p: int
    m: int
    base_modulus: tuple[int, ...]
    ext_modulus: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "base_modulus": list(self.base_modulus),
            "ext_modulus": [list(c) for c in self.ext_modulus],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FieldSpec":
        def ints(values) -> tuple[int, ...]:
            values = tuple(values)
            if any(type(v) is not int for v in values):
                raise TypeError(f"expected JSON integers, got {list(values)}")
            return values

        try:
            p, m = ints((d["p"], d["m"]))
            return cls(p=p, m=m, base_modulus=ints(d["base_modulus"]),
                       ext_modulus=tuple(ints(v) for v in d["ext_modulus"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed field spec: {exc}") from exc


class FieldCtx:
    """Immutable context holding the tower F_p < F_q < F_{q^2}.

    Contexts compare by identity.  Every operation takes and returns
    integer codes, which carry no context of their own.
    """

    def __init__(self, p: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1:
            raise ValueError(f"m must be at least 1, got {m}")
        self.p = p
        self.m = m
        self.q = p ** m
        self.q2 = self.q * self.q

        self._base_mod = _first_irreducible_fp(p, m)
        self._init_q_level()
        self._e0, self._e1 = self._find_ext_modulus()
        self.spec = FieldSpec(p, m, self._base_mod, tuple(
            tuple(_digits(e, p, m)) for e in (self._e0, self._e1, 1)))

        self._init_q2_level()

    # -- F_q layer ---------------------------------------------------------

    def _q_add_poly(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = _digits(a, p, m), _digits(b, p, m)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    def _q_neg_poly(self, a: int) -> int:
        p, m = self.p, self.m
        return _undigits([(-x) % p for x in _digits(a, p, m)], p)

    def _q_sub_poly(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = _digits(a, p, m), _digits(b, p, m)
        return _undigits([(x - y) % p for x, y in zip(da, db)], p)

    def _q_mul_poly(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        prod = _pmod(_pmul(_digits(a, p, m), _digits(b, p, m), p), self._base_mod, p)
        return _undigits(prod, p)

    def _init_q_level(self) -> None:
        q = self.q
        if self.m == 1:
            # the modulus is x, so codes are residues and the digit
            # routines reduce to integer arithmetic mod p
            p = self.p
            self.q_add = lambda a, b: (a + b) % p
            self.q_mul = lambda a, b: a * b % p
            self.q_neg = lambda a: -a % p
            self.q_sub = lambda a, b: (a - b) % p
        elif q <= _Q_PAIRWISE_LIMIT:
            add_t = [[self._q_add_poly(a, b) for b in range(q)] for a in range(q)]
            mul_t = [[self._q_mul_poly(a, b) for b in range(q)] for a in range(q)]
            self.q_add = lambda a, b: add_t[a][b]
            self.q_mul = lambda a, b: mul_t[a][b]
            neg_t = [self._q_neg_poly(a) for a in range(q)]
            self.q_neg = lambda a: neg_t[a]
            self.q_sub = lambda a, b: add_t[a][neg_t[b]]
        else:
            self.q_add = self._q_add_poly
            self.q_mul = self._q_mul_poly
            self.q_neg = self._q_neg_poly
            self.q_sub = self._q_sub_poly
        self._log_exp: tuple[list, list] | None = None

    def q_pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.q_inv(a), -e
        return _power(self.q_mul, a, e)

    def q_inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self.q_pow(a, self.q - 2)

    def q_is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        return self.q_pow(a, (self.q - 1) // 2) == 1

    def _logs(self) -> tuple[list, list]:
        """(log, exp) of F_q^* to its least generator g: exp[j] = g^j
        for 0 <= j < q - 1 and log[exp[j]] = j, with log[0] None.  Built
        on first use."""
        if self._log_exp is None:
            q = self.q
            factors = _prime_factors(q - 1)
            # the group is cyclic, so some code below q generates it
            gen = next(g for g in range(1, q) if all(
                self.q_pow(g, (q - 1) // r) != 1 for r in factors))
            log: list[int | None] = [None] * q
            exp = []
            acc = 1
            for j in range(q - 1):
                log[acc] = j
                exp.append(acc)
                acc = self.q_mul(acc, gen)
            self._log_exp = (log, exp)
        return self._log_exp

    def _log(self, a: int) -> int:
        la = self._logs()[0][a]
        if la is None:
            raise RuntimeError(f"no discrete log of {a} in F_q")
        return la

    def q_sqrt_encs(self, a: int) -> tuple[int, ...]:
        """All square roots of a in F_q, sorted by code."""
        if not 0 <= a < self.q:
            raise ValueError(f"square roots only defined over F_q, got code {a}")
        if self.p == 2:
            # squaring is the Frobenius of F_q, hence a bijection
            return (self.q_pow(a, self.q // 2),)
        if a == 0:
            return (0,)
        la = self._log(a)
        if la % 2:
            return ()
        r = self._logs()[1][la // 2]
        nr = self.q_neg(r)
        return (r, nr) if r < nr else (nr, r)

    # -- canonical quadratic modulus over F_q ------------------------------

    def _find_ext_modulus(self) -> tuple[int, int]:
        """(e0, e1) of the first irreducible t^2 + e1 t + e0 in the order
        of e0 + q * e1."""
        if self.p == 2:
            # e1 = 0 gives a perfect square, so the scan reaches e1 = 1,
            # where t^2 + t + e0 is irreducible exactly when Tr(e0) = 1.
            # The trace is linear in the digits of e0, so the least such
            # code is x^j for the least j with Tr(x^j) = 1.
            for j in range(self.m):
                tr, acc = 0, 1 << j
                for _ in range(self.m):
                    tr = self.q_add(tr, acc)
                    acc = self.q_mul(acc, acc)
                if tr == 1:
                    return (1 << j, 1)
        else:
            four = 4 % self.p
            for v in range(self.q2):
                e0, e1 = v % self.q, v // self.q
                disc = self.q_sub(self.q_mul(e1, e1), self.q_mul(four, e0))
                if disc != 0 and not self.q_is_square(disc):
                    return (e0, e1)
        raise RuntimeError("no irreducible quadratic found")  # pragma: no cover

    # -- F_{q^2} layer -----------------------------------------------------

    def _mul2_poly(self, x: int, y: int) -> int:
        q = self.q
        a0, a1 = x % q, x // q
        b0, b1 = y % q, y // q
        c0 = self.q_mul(a0, b0)
        c1 = self.q_add(self.q_mul(a0, b1), self.q_mul(a1, b0))
        c2 = self.q_mul(a1, b1)
        # reduce t^2 = -e1 t - e0
        r0 = self.q_sub(c0, self.q_mul(c2, self._e0))
        r1 = self.q_sub(c1, self.q_mul(c2, self._e1))
        return r0 + q * r1

    def _add2_poly(self, x: int, y: int) -> int:
        q = self.q
        return self.q_add(x % q, y % q) + q * self.q_add(x // q, y // q)

    def _neg2_poly(self, x: int) -> int:
        q = self.q
        return self.q_neg(x % q) + q * self.q_neg(x // q)

    def _sub2_poly(self, x: int, y: int) -> int:
        q = self.q
        return self.q_sub(x % q, y % q) + q * self.q_sub(x // q, y // q)

    def _init_q2_level(self) -> None:
        q2 = self.q2
        if q2 <= _Q2_PAIRWISE_LIMIT:
            add_t = [[self._add2_poly(a, b) for b in range(q2)] for a in range(q2)]
            mul_t = [[self._mul2_poly(a, b) for b in range(q2)] for a in range(q2)]
            neg_t = [self._neg2_poly(a) for a in range(q2)]
            frob_t = [self._frob_poly(a) for a in range(q2)]
            norm_t = [self._norm_poly(a) for a in range(q2)]
            self._add2_t, self._mul2_t = add_t, mul_t
            self.add_enc = lambda a, b: add_t[a][b]
            self.mul_enc = lambda a, b: mul_t[a][b]
            self.neg_enc = lambda a: neg_t[a]
            self.sub_enc = lambda a, b: add_t[a][neg_t[b]]
            self.frob_enc = lambda a: frob_t[a]
            self.norm_enc = lambda a: norm_t[a]
        else:
            self._add2_t = self._mul2_t = None
            self.add_enc = self._add2_poly
            self.mul_enc = self._mul2_poly
            self.neg_enc = self._neg2_poly
            self.sub_enc = self._sub2_poly
            self.frob_enc = self._frob_poly
            self.norm_enc = self._norm_poly

        self._walk: tuple[list, list, list] | None = None

    def dot_encs(self, terms, vectors) -> list[int]:
        """Code of sum c * v[i] over the (i, c) of terms, for each vector v.

        With pairwise tables, the multiplication row of each c is bound
        once and each sum folds through table rows with no call per term;
        otherwise each nonzero term costs one product and one sum.
        """
        add_t, mul_t = self._add2_t, self._mul2_t
        out = []
        if add_t is None:
            add, mul = self._add2_poly, self._mul2_poly
            for v in vectors:
                total = 0
                for i, c in terms:
                    vi = v[i]
                    if vi:
                        total = add(total, mul(c, vi))
                out.append(total)
            return out
        rows = [(i, mul_t[c]) for i, c in terms]
        for v in vectors:
            total = 0
            for i, row in rows:
                total = add_t[total][row[v[i]]]
            out.append(total)
        return out

    def _frob_poly(self, x: int) -> int:
        # t^q is the other root -e1 - t of the modulus, so
        # (a0 + a1 t)^q = (a0 - e1 a1) - a1 t
        q = self.q
        a0, a1 = x % q, x // q
        if a1 == 0:
            return x
        na1 = self.q_neg(a1)
        return self.q_add(a0, self.q_mul(self._e1, na1)) + q * na1

    def _norm_poly(self, x: int) -> int:
        nx = self._mul2_poly(x, self._frob_poly(x))
        if nx >= self.q:
            raise RuntimeError("norm landed outside the subfield")
        return nx

    def pow_enc(self, x: int, e: int) -> int:
        if e < 0:
            x, e = self.inv_enc(x), -e
        return _power(self.mul_enc, x, e)

    def inv_enc(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero in F_{q^2}")
        # x^-1 = frob(x) / norm(x), with the norm inverted inside F_q
        return self.mul_enc(self.frob_enc(x), self.q_inv(self.norm_enc(x)))

    def div_enc(self, x: int, y: int) -> int:
        return self.mul_enc(x, self.inv_enc(y))

    # -- norm preimages -----------------------------------------------------

    def _walk_tables(self) -> tuple[list, list, list]:
        """(fibers, sizes, steps) of the walk over norm preimages, built
        on first use.

        The walk visits the second coordinate x1 of x0 + x1 t in code
        order.  N(x0 + x1 t) = x1^2 f(x0 / x1) for x1 != 0, with
        f(y) = N(y + t) = y^2 - e1 y + e0, so the preimages of a with that
        x1 are x1 * y + q * x1 over the y in the f-fiber of a / x1^2 =
        exp[(log a - steps[x1]) mod (q - 1)], where steps[x1] is
        2 log x1 mod (q - 1).  fibers[c] lists the f-fiber of c by code,
        and sizes[j] = len(fibers[exp[j]]) counts a step's preimages from
        that same index j.  The value does not depend on the generator
        behind the log table.
        """
        if self._walk is None:
            q = self.q
            fibers: list[list[int]] = [[] for _ in range(q)]
            for y in range(q):
                fibers[self.q_add(self.q_mul(self.q_sub(y, self._e1), y),
                                  self._e0)].append(y)
            log, exp = self._logs()
            self._walk = ([tuple(f) for f in fibers],
                          [len(fibers[c]) for c in exp],
                          [None] + [2 * log[x1] % (q - 1) for x1 in range(1, q)])
        return self._walk

    def _walk_codes(self, x1: int, ys) -> tuple[int, ...]:
        """The codes of the walk's step x1 over the fiber ys, in code
        order; step 0 holds the square roots of a themselves."""
        if x1 == 0:
            return ys
        base = self.q * x1
        if len(ys) < 2:
            return tuple(self.q_mul(x1, y) + base for y in ys)
        u, v = self.q_mul(x1, ys[0]), self.q_mul(x1, ys[1])
        return (u + base, v + base) if u < v else (v + base, u + base)

    def _preimage_count(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"norm preimages only defined over F_q, got code {a}")
        return 1 if a == 0 else self.q + 1

    def norm_preimage_encs(self, a: int) -> tuple[int, ...]:
        """Codes of all solutions of x^(q+1) = a, for a in F_q, sorted.

        Zero has the single preimage zero and any other value q + 1,
        listed by the walk of _walk_tables over the second coordinate x1
        of x0 + x1 t in code order, with at most two first coordinates x0
        for each x1.
        """
        count = self._preimage_count(a)
        out = list(self.q_sqrt_encs(a))
        if a:
            q = self.q
            fibers, _, steps = self._walk_tables()
            la, exp = self._log(a), self._logs()[1]
            for x1 in range(1, q):
                out.extend(self._walk_codes(
                    x1, fibers[exp[(la - steps[x1]) % (q - 1)]]))
        if len(out) != count:
            raise RuntimeError(f"norm value {a} has {len(out)} preimages")
        if self.norm_enc(out[0]) != a:
            raise RuntimeError("listed norm preimage has the wrong norm")
        return tuple(out)

    def norm_preimage_enc(self, a: int, r: int) -> int:
        """norm_preimage_encs(a)[r] without listing the others.

        The pick reads each step's preimage count from the size table
        and subtracts it from r until the step that holds the r-th
        preimage, then computes codes only there.  The count q + 1 is
        known, so an r in the upper half counts down from x1 = q - 1.
        """
        count = self._preimage_count(a)
        if not 0 <= r < count:
            raise ValueError(f"preimage index {r} out of range [0, {count}) "
                             f"for the norm value {a}")
        ys = self.q_sqrt_encs(a)
        x1 = 0
        if r >= len(ys):
            q = self.q
            fibers, sizes, steps = self._walk_tables()
            la, exp, n = self._log(a), self._logs()[1], q - 1
            # index from the end of the walk when that end is nearer
            down = 2 * r >= count
            i = count - 1 - r if down else r - len(ys)
            for x1 in (range(q - 1, 0, -1) if down else range(1, q)):
                j = (la - steps[x1]) % n
                size = sizes[j]
                if i < size:
                    break
                i -= size
            else:
                raise RuntimeError(f"norm value {a} has fewer than {count} "
                                   f"preimages")
            ys = fibers[exp[j]]
            if len(ys) != size:
                raise RuntimeError(f"step {x1} of the walk holds {len(ys)} "
                                   f"preimages, not {size}")
            r = len(ys) - 1 - i if down else i
        x = self._walk_codes(x1, ys)[r]
        if self.norm_enc(x) != a:
            raise RuntimeError("picked norm preimage has the wrong norm")
        return x

    # -- quadratic equations over F_{q^2} ---------------------------------

    def quadratic_roots_enc(self, b: int, c: int) -> tuple[int, ...]:
        """Codes of the roots of x^2 + b x + c in F_{q^2}, sorted.

        Odd q completes the square: x = (-b + s) / 2 over the square
        roots s of b^2 - 4c.  Even q with b = 0 takes the unique square
        root of c; otherwise x = b y turns the equation into the
        Artin-Schreier equation y^2 + y = c / b^2, whose roots come in
        pairs y, y + 1.
        """
        if self.p != 2:
            disc = self.sub_enc(self.mul_enc(b, b), self.mul_enc(4 % self.p, c))
            nb, half = self.neg_enc(b), self.inv_enc(2)
            return tuple(sorted(self.mul_enc(self.add_enc(nb, s), half)
                                for s in self._sqrt2_odd(disc)))
        if b == 0:
            # squaring is the Frobenius of F_{q^2}, so its inverse is the
            # power q^2 / 2
            return (self.pow_enc(c, self.q2 // 2),)
        ys = self._artin_schreier_roots(self.div_enc(c, self.mul_enc(b, b)))
        return tuple(sorted(self.mul_enc(b, y) for y in ys))

    def _sqrt2_odd(self, a: int) -> tuple[int, ...]:
        """Square roots of a in F_{q^2} for odd q, from F_q square roots.

        a is a square exactly when its norm is a square n^2 in F_q.
        Then (a + n)^2 = a s with s = Tr(a) + 2n in F_q, which is nonzero
        for one sign of n, so a root is (a + n) / w with w^2 = s.  For a
        nonsquare s, w = r u with u = 2t + e1, whose square is the
        nonsquare discriminant of the modulus, and r^2 = s / u^2.
        """
        if a == 0:
            return (0,)
        ns = self.q_sqrt_encs(self.norm_enc(a))
        if not ns:
            return ()
        n, tr = ns[0], self.add_enc(a, self.frob_enc(a))
        s = self.q_add(tr, self.q_add(n, n))
        if s == 0:
            n = self.q_neg(n)
            s = self.q_add(tr, self.q_add(n, n))
        w = self.q_sqrt_encs(s)[:1]
        if not w:
            u = self._e1 + 2 * self.q
            r = self.q_sqrt_encs(self.q_mul(s, self.q_inv(self.mul_enc(u, u))))
            w = (self.mul_enc(r[0], u),)
        x = self.div_enc(self.add_enc(a, n), w[0])
        return tuple(sorted((x, self.neg_enc(x))))

    def _artin_schreier_roots(self, a: int) -> tuple[int, ...]:
        """Roots of y^2 + y = a in F_{q^2} for even q, sorted by code.

        The canonical modulus is t^2 + t + e0 with Tr(e0) = 1, so d = e0 t
        has absolute trace Tr(e0 (t + t^q)) = 1.  Then, with k = 2m,
        y = sum_{0 < j < k} d^(2^j) sum_{i < j} a^(2^i) satisfies
        y^2 + y = a + d Tr(a): a root exactly when Tr(a) = 0, and the
        other root is y + 1.
        """
        add, mul = self.add_enc, self.mul_enc
        y, part, a_pow, d_pow = 0, 0, a, self._e0 * self.q
        for _ in range(2 * self.m - 1):
            part = add(part, a_pow)
            a_pow, d_pow = mul(a_pow, a_pow), mul(d_pow, d_pow)
            y = add(y, mul(d_pow, part))
        if add(mul(y, y), y) != a:
            return ()
        return tuple(sorted((y, add(y, 1))))

    def poly_str(self, enc: int) -> str:
        """The code a0 + q * a1 spelled as a0, a1*t or a0+a1*t, with the
        F_q coordinates a0 and a1 written as their own codes."""
        a0, a1 = enc % self.q, enc // self.q
        if a1 == 0:
            return str(a0)
        if a0 == 0:
            return f"{a1}*t"
        return f"{a0}+{a1}*t"

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, m={self.m}, q={self.q}, q2={self.q2})"


# ---------------------------------------------------------------------------
# module level operations


def build_tower(p: int, m: int = 1) -> FieldCtx:
    """Construct the tower F_p < F_q < F_{q^2} with canonical moduli."""
    return FieldCtx(p, m)


def ctx_from_spec(spec: FieldSpec) -> FieldCtx:
    """Rebuild a context from its serialized description.

    The tower follows from (p, m) alone, so the spec must name the
    canonical moduli of that tower.
    """
    ctx = build_tower(spec.p, spec.m)
    if spec != ctx.spec:
        raise ValueError(f"field spec {spec.to_json_dict()} does not name the "
                         f"canonical tower {ctx.spec.to_json_dict()}")
    return ctx

