"""Hermitian form machinery and enumeration of its level sets.

The form on F_{q^2}^n is <u, v> = sum_i u_i^q v_i: twisted linear in the
first slot, linear in the second.  Self-pairings <u, u> always land in
the subfield F_q, which makes the level sets ("cones") C_n(k) finite
objects indexed by k in F_q.  The subfield mode restricts coordinates to
F_q, where the form degenerates to the sum of squares.

Enumeration completes a free choice of the first n - 1 coordinates with
the norm preimages (or subfield square roots) of the residual, instead
of filtering the whole space.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .fields import FieldCtx

FULL_FIELD = "full_field"
SUBFIELD = "subfield"

DEFAULT_CAPACITY = 1 << 24


class CapacityError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget."""


def inner_encs(ctx: FieldCtx, u, v) -> int:
    """Hermitian pairing of two code tuples of equal length."""
    frob = ctx.frob_enc
    return ctx.dot_encs([(i, frob(x)) for i, x in enumerate(u)], (v,))[0]


class HermMatrix:
    """Square matrix over F_{q^2} with the conjugate-transpose involution.

    Entries are stored as rows of codes.  from_encs is the public
    constructor and checks them.
    """

    __slots__ = ("ctx", "_encs")

    @classmethod
    def from_encs(cls, ctx: FieldCtx, rows) -> "HermMatrix":
        q2 = ctx.q2
        encs = tuple(tuple(r) for r in rows)
        for r in encs:
            for e in r:
                if type(e) is not int:
                    raise ValueError(f"element code {e!r} is not an integer")
                if not 0 <= e < q2:
                    raise ValueError(f"element code {e} out of range [0, {q2})")
        if not encs or any(len(r) != len(encs) for r in encs):
            raise ValueError("matrix must be square and nonempty")
        return cls._of(ctx, encs)

    @classmethod
    def _of(cls, ctx: FieldCtx, encs) -> "HermMatrix":
        """Wrap code rows that are valid by construction."""
        m = object.__new__(cls)
        m.ctx, m._encs = ctx, encs
        return m

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "HermMatrix":
        return cls.scalar(ctx, n, 1)

    @classmethod
    def scalar(cls, ctx: FieldCtx, n: int, c: int) -> "HermMatrix":
        """c times the n by n identity, for the code c."""
        return cls.from_encs(ctx, tuple(tuple(c if i == j else 0
                                              for j in range(n))
                                        for i in range(n)))

    @property
    def n(self) -> int:
        return len(self._encs)

    def encs(self) -> tuple[tuple[int, ...], ...]:
        return self._encs

    def __add__(self, other: "HermMatrix") -> "HermMatrix":
        if other.ctx is not self.ctx or other.n != self.n:
            raise ValueError("matrix shapes or contexts differ")
        add = self.ctx.add_enc
        return HermMatrix._of(self.ctx, tuple(
            tuple(add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self._encs, other._encs)))

    @property
    def has_subfield_coeffs(self) -> bool:
        q = self.ctx.q
        return all(e < q for r in self._encs for e in r)

    @property
    def is_scalar(self) -> bool:
        c = self._encs[0][0]
        return all(e == (c if i == j else 0)
                   for i, r in enumerate(self._encs) for j, e in enumerate(r))

    def __repr__(self) -> str:
        poly = self.ctx.poly_str
        body = "; ".join(", ".join(poly(e) for e in r) for r in self._encs)
        return f"HermMatrix([{body}])"


def block_diag(a: HermMatrix, b: HermMatrix) -> HermMatrix:
    """Direct sum placed on orthogonal coordinate blocks."""
    if a.ctx is not b.ctx:
        raise ValueError("blocks belong to different field contexts")
    za, zb = (0,) * a.n, (0,) * b.n
    return HermMatrix._of(a.ctx, tuple(r + zb for r in a.encs())
                          + tuple(za + r for r in b.encs()))


def cone_upper_bound(ctx: FieldCtx, n: int, mode: str) -> int:
    """Cheap upper bound on the number of enumerated vectors."""
    if mode == FULL_FIELD:
        return ctx.q2 ** (n - 1) * (ctx.q + 1)
    per = 1 if ctx.p == 2 else 2
    return ctx.q ** (n - 1) * per


def cone_excess(ctx: FieldCtx, n: int, mode: str, capacity: int,
                levels: int = 1) -> str | None:
    """None when levels cones of dimension n in mode fit capacity, else
    their bound as a refusal writes it.

    A cone bound is at least q^(n - 1) >= 2^(n - 1), so once n - 1
    passes capacity.bit_length() it exceeds capacity and is not built:
    at a huge n its power alone would take seconds, and the text names
    2^(n - 1) instead.
    """
    if n - 1 > capacity.bit_length():
        return f"at least 2^{n - 1}"
    total = levels * cone_upper_bound(ctx, n, mode)
    return None if total <= capacity else count_text(total)


def count_text(x: int) -> str:
    """A bound or capacity as a refusal writes it: past 40 digits as the
    power of two it reaches, for CPython writes no int past 4,300 digits."""
    return str(x) if x < 10 ** 40 else f"at least 2^{x.bit_length() - 1}"


def _level_maps(ctx: FieldCtx, mode: str):
    """The per-coordinate self-pairing of a mode and its completion map,
    which lists every last coordinate giving a residual in F_q."""
    if mode == FULL_FIELD:
        return ctx.norm_enc, ctx.norm_preimage_encs
    return (lambda x: ctx.q_mul(x, x)), ctx.q_sqrt_encs


def _level_set_is_empty(ctx: FieldCtx, n: int, k_enc: int, mode: str,
                        exclude_zero: bool) -> bool:
    """Whether no vector u (nonzero, with exclude_zero) has <u, u> = k.

    Decided without enumeration.  In one coordinate the members are the
    completions of k.  From two coordinates on, the norm and the sum of
    two squares reach every value of F_q, so only the nonzero zero-level
    vectors of odd subfield mode can be missing: a form of dimension
    three or more over F_q is isotropic, and x^2 + y^2 = 0 has a nonzero
    solution exactly when -1 is a square.
    """
    if n == 1:
        options = _level_maps(ctx, mode)[1](k_enc)
        return not options or (exclude_zero and options == (0,))
    if mode == FULL_FIELD or ctx.p == 2 or k_enc != 0 or not exclude_zero:
        return False
    return n == 2 and not ctx.q_is_square(ctx.q_neg(1))


def check_level(ctx: FieldCtx, k) -> None:
    """Refuse a level that is not a code of F_q; bool is a subclass of
    int, but True is not a code."""
    if type(k) is not int or not 0 <= k < ctx.q:
        raise ValueError(f"level code must lie in F_q = [0, {ctx.q}), "
                         f"got {k!r}")


def _check_cone(ctx: FieldCtx, n: int, k_enc: int, mode: str) -> None:
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    if mode not in (FULL_FIELD, SUBFIELD):
        raise ValueError(f"unknown mode {mode!r}")
    check_level(ctx, k_enc)


def _residual(ctx: FieldCtx, norm_of, k_enc: int, prefix) -> int:
    """The self-pairing the last coordinate must add to prefix's to reach k."""
    acc = 0
    for x in prefix:
        acc = ctx.q_add(acc, norm_of(x))
    residual = ctx.q_sub(k_enc, acc)
    if residual >= ctx.q:
        raise RuntimeError("cone residual landed outside the subfield")
    return residual


@lru_cache(maxsize=128)
def cone_encs(ctx: FieldCtx, n: int, k_enc: int, mode: str,
              capacity: int = DEFAULT_CAPACITY) -> tuple[tuple[int, ...], ...]:
    """Cone vectors in lexicographic code order, cached per context and
    arguments.  At level 0 the zero vector comes first, so the nonzero
    null vectors are the rest."""
    _check_cone(ctx, n, k_enc, mode)
    excess = cone_excess(ctx, n, mode, capacity)
    if excess is not None:
        raise CapacityError(f"cone may hold up to {excess} vectors, "
                            f"capacity is {count_text(capacity)}")
    space = ctx.q2 if mode == FULL_FIELD else ctx.q
    norm_of, complete = _level_maps(ctx, mode)
    # at most q distinct residuals, each completed once per walk
    completions: dict[int, tuple[int, ...]] = {}
    out = []
    for prefix in itertools.product(range(space), repeat=n - 1):
        residual = _residual(ctx, norm_of, k_enc, prefix)
        options = completions.get(residual)
        if options is None:
            options = completions[residual] = complete(residual)
        out.extend(prefix + (last,) for last in options)
    return tuple(out)


def sample_cone_encs(ctx: FieldCtx, n: int, k_enc: int, mode: str,
                     exclude_zero: bool, count: int, rng) -> Iterator[tuple[int, ...]]:
    """Random cone members: uniform prefix plus a random completion.

    Draws are independent, so repeats can occur; prefixes without a
    completion (possible only in odd subfield mode) are redrawn.  An
    empty level set raises ValueError instead of redrawing forever.
    Arguments are checked on the call, before the first draw.
    """
    _check_cone(ctx, n, k_enc, mode)
    if _level_set_is_empty(ctx, n, k_enc, mode, exclude_zero):
        raise ValueError(f"no vector of length {n} to sample: the {mode} "
                         f"level set <u, u> = {k_enc} is empty")
    return _draw_cone(ctx, n, k_enc, mode, exclude_zero, count, rng)


# codes per block of draw_matrices, so its memory does not grow with count
_BLOCK_CODES = 4096


def draw_matrices(rng, limit: int, n: int,
                  count: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """count code matrices, n by n, with entries drawn below limit.

    The entries, and the state rng is left in once the generator is
    exhausted, are those of nested rng.randrange(limit) in row order if
    nothing else draws from rng meanwhile.  CPython's randrange draws
    getrandbits(k), k = limit.bit_length(), until the value falls below
    limit; for k <= 32 that value is the top k bits of one 32-bit
    Mersenne Twister word, and getrandbits(32 * w) returns w consecutive
    words, the first least significant.  So for k <= 8 a block's codes
    are drawn in rounds of one word per code still missing, which the
    per-entry loop would consume too: bytes.translate keeps the top
    byte of each word whose top k bits fall below limit, mapped to
    those bits.  Larger limits draw entry by entry.  A block holds at
    most _BLOCK_CODES codes, or one matrix.
    """
    bits = rng.getrandbits
    k = limit.bit_length()
    if k <= 8:
        shift = 8 - k
        table = bytes(b >> shift for b in range(256))
        reject = bytes(b for b in range(256) if b >> shift >= limit)
    per = n * n
    per_block = max(1, _BLOCK_CODES // per)
    for start in range(0, count, per_block):
        want = min(per_block, count - start) * per
        if k <= 8:
            parts = []
            while want:
                kept = bits(32 * want).to_bytes(4 * want, "little")[3::4] \
                    .translate(table, reject)
                parts.append(kept)
                want -= len(kept)
            codes = b"".join(parts)
        else:
            codes = []
            for _ in range(want):
                r = bits(k)
                while r >= limit:
                    r = bits(k)
                codes.append(r)
        entries = iter(codes)
        rows = zip(*[entries] * n)
        yield from zip(*[rows] * n)


def _draw_cone(ctx: FieldCtx, n: int, k_enc: int, mode: str,
               exclude_zero: bool, count: int, rng) -> Iterator[tuple[int, ...]]:
    space = ctx.q2 if mode == FULL_FIELD else ctx.q
    norm_of, complete = _level_maps(ctx, mode)
    produced = 0
    while produced < count:
        prefix = tuple(rng.randrange(space) for _ in range(n - 1))
        residual = _residual(ctx, norm_of, k_enc, prefix)
        if mode == FULL_FIELD:
            # zero has one norm preimage and every other value q + 1, so
            # the pick draws the index a listing would
            r = rng.randrange(1 if residual == 0 else ctx.q + 1)
            last = ctx.norm_preimage_enc(residual, r)
        else:
            options = complete(residual)
            if not options:
                continue
            last = options[rng.randrange(len(options))]
        if exclude_zero and last == 0 and not any(prefix):
            continue
        produced += 1
        yield prefix + (last,)
