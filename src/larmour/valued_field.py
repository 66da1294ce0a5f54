"""The complete discretely valued field K = k((t)) with capped precision.

Elements are Laurent series with exactly known coefficients below a
precision bound.  ``prec=None`` marks an element that is exactly the
stored Laurent polynomial (all higher coefficients are genuinely zero);
a finite ``prec`` means coefficients at exponents >= prec are unknown.
The exact zero is representable and distinct from "all known coefficients
vanish": the latter is a fuzzy zero whose valuation queries raise
PrecisionExhausted instead of silently comparing equal.

Multiplication over a prime residue field packs coefficient windows into
big integers (Kronecker substitution), so a product is one CPython bigint
multiply plus linear pack/unpack work.  The rationals mode uses schoolbook
convolution of Fractions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

from .base_fields import PrimeField, QuadExtField, RationalField, ResElem, ResidueField
from .errors import (
    DivisionByZero,
    FieldMismatch,
    NegativeValuation,
    NotASquare,
    ParseError,
    PrecisionExhausted,
    ZeroInput,
)

DEFAULT_PRECISION = 32


def _limb_bytes(p: int) -> int:
    # products of packed digits must stay below 2^(8*limb); see quaternion.py
    # for the widest combination (4 accumulated a*b-scaled products)
    if p < 64:
        return 4
    if p < 8192:
        return 8
    raise ValueError(f"prime {p} too large for packed multiplication")


def _pack(coeffs, limb: int) -> int:
    if limb == 4:
        # stored coefficients are reduced mod p < 64, so each fits one byte
        buf = bytearray(4 * len(coeffs))
        buf[0::4] = bytes(coeffs)
        return int.from_bytes(buf, "little")
    return int.from_bytes(b"".join(c.to_bytes(limb, "little") for c in coeffs), "little")


def _unpack(n: int, count: int, limb: int) -> list:
    # n may carry digits beyond count (truncated windows); ignore them
    data = n.to_bytes(max(count * limb, (n.bit_length() + 7) // 8), "little")
    fmt = "<%d%s" % (count, "I" if limb == 4 else "Q")
    return list(struct.unpack_from(fmt, data))


def convolve_raw(field: ResidueField, a: list, b: list) -> list:
    """Exact convolution of coefficient windows (length len(a)+len(b)-1)."""
    if not a or not b:
        return []
    if isinstance(field, PrimeField):
        p = field.p
        if len(b) == 1:
            c = b[0]
            return [x * c % p for x in a]
        if len(a) == 1:
            c = a[0]
            return [x * c % p for x in b]
        if len(a) * len(b) <= 24:
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return [x % p for x in out]
        limb = _limb_bytes(p)
        prod = _pack(a, limb) * _pack(b, limb)
        return [c % p for c in _unpack(prod, len(a) + len(b) - 1, limb)]
    out = [field.zero_raw] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if field.is_zero(ai):
            continue
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


@dataclass(frozen=True)
class LaurentField:
    """K = k((t)) for a residue field k, with a default precision cap."""

    residue: ResidueField
    default_prec: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.default_prec < 1:
            raise ValueError("default precision must be positive")
        if isinstance(self.residue, QuadExtField):
            raise ValueError("Laurent coefficients live in F_p or Q, not F_{p^2}")

    # -- constructors ------------------------------------------------------

    def zero(self) -> "LaurentElem":
        return LaurentElem(self, None, [], None)

    def one(self) -> "LaurentElem":
        return LaurentElem(self, 0, [self.residue.one_raw], None)

    def t(self, exp: int = 1) -> "LaurentElem":
        return LaurentElem(self, exp, [self.residue.one_raw], None)

    def const(self, raw) -> "LaurentElem":
        c = self.residue.coerce(raw)
        if self.residue.is_zero(c):
            return self.zero()
        return LaurentElem(self, 0, [c], None)

    def monomial(self, raw, exp: int) -> "LaurentElem":
        c = self.residue.coerce(raw)
        if self.residue.is_zero(c):
            return self.zero()
        return LaurentElem(self, exp, [c], None)

    def from_terms(self, terms, prec: int | None = None) -> "LaurentElem":
        """Build from (exponent, coefficient) pairs; exact unless prec given."""
        by_exp: dict[int, object] = {}
        for exp, c in terms:
            raw = self.residue.coerce(c)
            if exp in by_exp:
                raw = self.residue.add(by_exp[exp], raw)
            by_exp[exp] = raw
        by_exp = {e: c for e, c in by_exp.items() if not self.residue.is_zero(c)}
        if prec is not None:
            by_exp = {e: c for e, c in by_exp.items() if e < prec}
        if not by_exp:
            return LaurentElem(self, None, [], prec)
        val = min(by_exp)
        top = max(by_exp)
        coeffs = [by_exp.get(e, self.residue.zero_raw) for e in range(val, top + 1)]
        return LaurentElem(self, val, coeffs, prec)

    def parse(self, text: str) -> "LaurentElem":
        return parse_laurent(self, text)

    def nonsquare_unit(self) -> "LaurentElem":
        """The fixed nonsquare unit u (smallest nonresidue for finite k, -1 for Q)."""
        if isinstance(self.residue, PrimeField):
            return self.const(self.residue.nonsquare_raw())
        return self.const(-1)

    def __str__(self):
        return f"{self.residue}((t))"


class LaurentElem:
    """A capped-precision Laurent series over the residue field.

    Invariants: ``val is None`` iff no nonzero coefficient is known (exact
    zero when ``prec is None``, fuzzy zero otherwise); when ``val`` is an
    integer the leading stored coefficient is nonzero and all stored
    coefficients lie at exponents below ``prec``.
    """

    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field: LaurentField, val, coeffs, prec, _normalized=False):
        self.field = field
        if _normalized:
            self.val, self.coeffs, self.prec = val, coeffs, prec
            return
        res = field.residue
        if prec is not None and val is not None:
            # drop unknown coefficients
            keep = prec - val
            if keep < len(coeffs):
                coeffs = coeffs[: max(keep, 0)]
        lead = 0
        while lead < len(coeffs) and res.is_zero(coeffs[lead]):
            lead += 1
        if lead == len(coeffs):
            self.val, self.coeffs, self.prec = None, [], prec
            return
        tail = len(coeffs)
        while res.is_zero(coeffs[tail - 1]):
            tail -= 1
        self.val = val + lead
        self.coeffs = coeffs[lead:tail]
        self.prec = prec

    # -- state predicates --------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.prec is None

    def is_exact_zero(self) -> bool:
        return self.val is None and self.prec is None

    def is_possibly_zero(self) -> bool:
        return self.val is None

    def known_floor(self) -> int | None:
        """Certified lower bound for the valuation; None for exact zero."""
        if self.val is not None:
            return self.val
        return self.prec  # None for exact zero

    def vanishes_below(self, n: int) -> bool:
        """True iff all coefficients at exponents < n are known to be zero."""
        if self.val is None:
            return self.prec is None or self.prec >= n
        return self.val >= n

    # -- ring operations ---------------------------------------------------

    def _check_field(self, other: "LaurentElem"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "LaurentElem") -> "LaurentElem":
        self._check_field(other)
        res = self.field.residue
        if self.prec is None:
            prec = other.prec
        elif other.prec is None:
            prec = self.prec
        else:
            prec = min(self.prec, other.prec)
        if self.val is None and other.val is None:
            return LaurentElem(self.field, None, [], prec)
        if self.val is None:
            return LaurentElem(self.field, other.val, list(other.coeffs), prec)
        if other.val is None:
            return LaurentElem(self.field, self.val, list(self.coeffs), prec)
        base = min(self.val, other.val)
        end = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        out = [res.zero_raw] * (end - base)
        for i, c in enumerate(self.coeffs):
            out[self.val - base + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.val - base + i
            out[j] = res.add(out[j], c)
        return LaurentElem(self.field, base, out, prec)

    def __neg__(self) -> "LaurentElem":
        res = self.field.residue
        return LaurentElem(
            self.field, self.val, [res.neg(c) for c in self.coeffs], self.prec, _normalized=True
        )

    def __sub__(self, other: "LaurentElem") -> "LaurentElem":
        return self + (-other)

    def __mul__(self, other: "LaurentElem") -> "LaurentElem":
        self._check_field(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return self.field.zero()
        if self.val is None or other.val is None:
            # fuzzy zero times anything: all coefficients below the
            # propagated precision are known to vanish
            lo_self = self.val if self.val is not None else self.prec
            lo_other = other.val if other.val is not None else other.prec
            bounds = []
            if self.prec is not None:
                bounds.append(self.prec + lo_other)
            if other.prec is not None:
                bounds.append(other.prec + lo_self)
            return LaurentElem(self.field, None, [], min(bounds))
        base = self.val + other.val
        if self.prec is None and other.prec is None:
            prec = None
        else:
            bounds = []
            if other.prec is not None:
                bounds.append(self.val + other.prec)
            if self.prec is not None:
                bounds.append(other.val + self.prec)
            prec = min(bounds)
        digits = convolve_raw(self.field.residue, self.coeffs, other.coeffs)
        return LaurentElem(self.field, base, digits, prec)

    def scale(self, raw) -> "LaurentElem":
        """Multiply by a residue-field constant."""
        res = self.field.residue
        c = res.coerce(raw)
        if res.is_zero(c):
            if self.prec is None:
                return self.field.zero()
            return LaurentElem(self.field, None, [], self.prec)
        return LaurentElem(self.field, self.val, [res.mul(c, x) for x in self.coeffs], self.prec)

    def shift(self, exp: int) -> "LaurentElem":
        """Multiply by t^exp."""
        if self.val is None:
            prec = None if self.prec is None else self.prec + exp
            return LaurentElem(self.field, None, [], prec, _normalized=True)
        prec = None if self.prec is None else self.prec + exp
        return LaurentElem(self.field, self.val + exp, list(self.coeffs), prec, _normalized=True)

    def truncate(self, prec: int) -> "LaurentElem":
        """Cap the known-coefficient window at ``prec``."""
        if self.prec is not None and self.prec <= prec:
            return self
        return LaurentElem(self.field, self.val, list(self.coeffs), prec)

    def _require_nonzero(self, what="operand"):
        if self.val is None:
            if self.prec is None:
                raise ZeroInput(f"{what} is zero")
            raise PrecisionExhausted(
                f"{what} is indistinguishable from zero below t^{self.prec}"
            )

    def inv(self) -> "LaurentElem":
        if self.is_exact_zero():
            raise DivisionByZero("inverse of zero")
        self._require_nonzero()
        res = self.field.residue
        if len(self.coeffs) == 1:  # monomial: exact inverse
            prec = None if self.prec is None else self.prec - 2 * self.val
            return LaurentElem(
                self.field, -self.val, [res.inv(self.coeffs[0])], prec, _normalized=True
            )
        window = (
            self.field.default_prec if self.prec is None else self.prec - self.val
        )
        c = self.coeffs
        lead_inv = res.inv(c[0])
        d = [lead_inv]
        for k in range(1, window):
            acc = res.zero_raw
            for i in range(1, min(k, len(c) - 1) + 1):
                acc = res.add(acc, res.mul(c[i], d[k - i]))
            d.append(res.neg(res.mul(lead_inv, acc)))
        prec = -self.val + window
        return LaurentElem(self.field, -self.val, d, prec)

    def __truediv__(self, other: "LaurentElem") -> "LaurentElem":
        return self * other.inv()

    # -- queries -----------------------------------------------------------

    def valuation(self) -> int:
        self._require_nonzero("argument of the valuation")
        return self.val

    def residue(self) -> ResElem:
        """Coefficient at exponent 0; requires nonnegative valuation."""
        if self.val is None:
            if self.prec is not None and self.prec < 1:
                raise PrecisionExhausted("residue not determined at this precision")
            return self.field.residue.zero()
        if self.val < 0:
            raise NegativeValuation(f"valuation {self.val} < 0")
        if self.val > 0:
            return self.field.residue.zero()
        return ResElem(self.field.residue, self.coeffs[0])

    def coeff(self, exp: int) -> ResElem:
        """Coefficient at a given exponent (must be known)."""
        if self.prec is not None and exp >= self.prec:
            raise PrecisionExhausted(f"coefficient at t^{exp} unknown (prec {self.prec})")
        if self.val is None or exp < self.val or exp >= self.val + len(self.coeffs):
            return self.field.residue.zero()
        return ResElem(self.field.residue, self.coeffs[exp - self.val])

    def leading_coeff(self) -> ResElem:
        self._require_nonzero()
        return ResElem(self.field.residue, self.coeffs[0])

    def unit_part(self) -> "LaurentElem":
        """x * t^(-v(x)), a unit."""
        self._require_nonzero()
        return self.shift(-self.val)

    def is_monomial(self) -> bool:
        return self.val is not None and len(self.coeffs) == 1

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentElem):
            return NotImplemented
        return (
            self.field == other.field
            and self.val == other.val
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.field, self.val, tuple(self.coeffs), self.prec))

    def agrees_with(self, other: "LaurentElem", below: int) -> bool:
        """True iff the two elements provably share all coefficients < below."""
        return (self - other).vanishes_below(below)

    def __repr__(self):
        return f"LaurentElem({self})"

    def __str__(self):
        return format_laurent(self)


# ---------------------------------------------------------------------------
# valuation-theoretic operations
# ---------------------------------------------------------------------------


def ls_arith(op: str, lhs: LaurentElem, rhs: LaurentElem | None = None) -> LaurentElem:
    """Named-op entry point: add, mul, inv, neg (inv/neg ignore rhs)."""
    if op == "inv":
        return lhs.inv()
    if op == "neg":
        return -lhs
    if rhs is None:
        raise ValueError(f"{op} needs two operands")
    if op == "add":
        return lhs + rhs
    if op == "mul":
        return lhs * rhs
    raise ValueError(f"unknown op {op!r}")


def valuation_K(x: LaurentElem) -> int:
    return x.valuation()


def residue_K(x: LaurentElem) -> ResElem:
    return x.residue()


@dataclass(frozen=True)
class SquareClassK:
    """A square class of K*: four classes {1, u, t, ut} over F_p((t)); over
    Q((t)) the unit datum is the signed square-free part instead."""

    field: LaurentField
    t_parity: int
    unit_square: bool | None = None  # finite residue
    squarefree: int | None = None  # rationals residue

    @property
    def label(self) -> str:
        if self.squarefree is not None:
            return f"{self.squarefree}" + ("*t" if self.t_parity else "")
        unit = "" if self.unit_square else "u"
        tpart = "t" if self.t_parity else ""
        return (unit + tpart) or "1"

    def representative(self) -> LaurentElem:
        if self.squarefree is not None:
            return self.field.monomial(Fraction(self.squarefree), self.t_parity)
        raw = (
            self.field.residue.one_raw
            if self.unit_square
            else self.field.residue.nonsquare_raw()
        )
        return self.field.monomial(raw, self.t_parity)

    def __str__(self):
        return self.label


def square_class_K(x: LaurentElem) -> SquareClassK:
    x._require_nonzero()
    field = x.field
    v = x.val
    lead = x.coeffs[0]
    res = field.residue
    if isinstance(res, RationalField):
        return SquareClassK(field, v % 2, squarefree=res.squarefree_part(lead))
    return SquareClassK(field, v % 2, unit_square=res.is_square_raw(lead))


def is_square_K(x: LaurentElem) -> bool:
    """x is a square iff v(x) is even and the leading unit reduces to a square."""
    cls = square_class_K(x)
    if cls.t_parity:
        return False
    if cls.squarefree is not None:
        return cls.squarefree == 1
    return cls.unit_square


def hensel_sqrt(x: LaurentElem) -> LaurentElem:
    """The square root of a square, leading coefficient canonically chosen.

    Newton iteration s <- (s + x/s)/2 on the unit part, started from the
    canonical residue-field root; each step doubles the correct window.
    """
    if not is_square_K(x):
        raise NotASquare(f"{x} is not a square in {x.field}")
    field, res = x.field, x.field.residue
    m = x.val // 2
    u = x.shift(-x.val)
    if u.is_monomial():
        return field.monomial(res.sqrt_canonical(u.coeffs[0]), m)
    window = field.default_prec if u.prec is None else u.prec
    half = field.const(res.inv(res.coerce(2)))
    s = field.const(res.sqrt_canonical(u.coeffs[0])).truncate(window)
    u_capped = u.truncate(window)
    correct = 1
    while correct < window:
        s = ((s + u_capped / s) * half).truncate(window)
        correct *= 2
    return s.shift(m)


# ---------------------------------------------------------------------------
# element text syntax: terms `c*t^e` joined by `+`
# ---------------------------------------------------------------------------


def format_laurent(x: LaurentElem) -> str:
    if x.val is None:
        return "0" if x.prec is None else f"O(t^{x.prec})"
    res = x.field.residue
    parts = []
    for i, c in enumerate(x.coeffs):
        if res.is_zero(c):
            continue
        e = x.val + i
        cs = res.format_raw(c)
        if e == 0:
            parts.append(cs)
        elif e == 1:
            parts.append("t" if cs == "1" else f"{cs}*t")
        else:
            parts.append(f"t^{e}" if cs == "1" else f"{cs}*t^{e}")
    return " + ".join(parts)


def parse_laurent(field: LaurentField, text: str) -> LaurentElem:
    """Parse the shared element syntax, e.g. ``2*t^-1 + 1 + 2*t^3``."""
    if not isinstance(text, str):
        text = str(text)
    src = text.strip()
    if not src:
        raise ParseError("empty element", text)
    terms = []
    for chunk in src.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term", text)
        coeff_str, exp = chunk, 0
        if "t" in chunk:
            head, _, tail = chunk.partition("t")
            head = head.strip()
            tail = tail.strip()
            if head.endswith("*"):
                head = head[:-1].strip()
            if tail.startswith("^"):
                try:
                    exp = int(tail[1:].strip())
                except ValueError as e:
                    raise ParseError(f"bad exponent in {chunk!r}", text) from e
            elif tail:
                raise ParseError(f"bad term {chunk!r}", text)
            else:
                exp = 1
            coeff_str = head if head not in ("", "-") else head + "1"
        try:
            if "/" in coeff_str:
                num, den = coeff_str.split("/")
                coeff = Fraction(int(num.strip()), int(den.strip()))
            else:
                coeff = Fraction(int(coeff_str))
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad coefficient in {chunk!r}", text) from e
        terms.append((exp, coeff))
    if all(c == 0 for _, c in terms):
        return field.zero()
    return field.from_terms(terms)
