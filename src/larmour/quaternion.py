"""Quaternion algebra D = (a,b/K) over the valued field, with the extended
valuation, canonical involution, reduced norm, presentation normalization,
and residue-algebra elements.

Algebras are always stored on a normalized presentation: a and b are
monomial square-class representatives with v(a) = 0 and v(b) in {0, 1}.
That makes scaling by a and b an exponent shift, so a quaternion product
over a prime residue field reduces to sixteen packed coefficient
convolutions combined with shifts (see valued_field.convolve_raw).

The valuation extends by nu_D(u) = nu_K(Nrd(u)) / 2, kept in half-units
(integer numerators) so all valuation bookkeeping stays integral.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_fields import PrimeField, QuadExtField, ResElem, ResidueField
from .errors import (
    FieldMismatch,
    NegativeValuation,
    SplitAlgebra,
    UndecidableDivision,
    UnsupportedField,
    ZeroInput,
)
from .quad_forms import QuadFormK, is_anisotropic_quad_K, springer_boundary
from .valued_field import LaurentElem, LaurentField, square_class_K

INF = float("inf")


@dataclass(frozen=True, order=True)
class HalfInt:
    """A value of the extended valuation, stored as numerator/2."""

    numerator: int

    @property
    def is_integral(self) -> bool:
        return self.numerator % 2 == 0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.numerator + other.numerator)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.numerator - other.numerator)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.numerator)

    def __str__(self):
        if self.numerator % 2 == 0:
            return str(self.numerator // 2)
        return f"{self.numerator}/2"


UNRAMIFIED = "unramified"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuatAlgebra:
    """(a,b/K) on a normalized presentation.

    a and b are monomial square-class representatives, v(a) = 0 and
    v(b) in {0, 1}; the algebra is ramified exactly when v(b) = 1.
    Division is certified through the Springer oracle for finite residue
    fields and trusted-by-caller in rationals mode (``division`` records
    which).
    """

    base: LaurentField
    a: LaurentElem
    b: LaurentElem
    division: str = "oracle"  # "oracle" | "assumed"

    def __post_init__(self):
        if not (self.a.is_monomial() and self.b.is_monomial()):
            raise ValueError("algebra constants must be monomial square-class representatives")
        if self.a.valuation() != 0:
            raise ValueError("v(a) must be 0")
        if self.b.valuation() not in (0, 1):
            raise ValueError("v(b) must be 0 or 1")
        if isinstance(self.base.residue, PrimeField):
            if not is_anisotropic_quad_K(norm_form(self)):
                raise SplitAlgebra(f"({self.a}, {self.b}) is not a division algebra")
        elif self.division != "assumed":
            raise UndecidableDivision(
                "no isotropy oracle over this residue field; construct with "
                "division='assumed' to assert the division property"
            )

    @property
    def ramified(self) -> bool:
        return self.b.valuation() == 1

    @property
    def ramification(self) -> str:
        return RAMIFIED if self.ramified else UNRAMIFIED

    @property
    def j(self) -> int:
        return 2 if self.ramified else 1

    # -- element constructors ------------------------------------------------

    def elem(self, c1, cx, cy, cz) -> "QuatElem":
        coerced = tuple(
            c if isinstance(c, LaurentElem) else self.base.const(c) for c in (c1, cx, cy, cz)
        )
        return QuatElem(self, coerced)

    def zero(self) -> "QuatElem":
        z = self.base.zero()
        return QuatElem(self, (z, z, z, z))

    def one(self) -> "QuatElem":
        z = self.base.zero()
        return QuatElem(self, (self.base.one(), z, z, z))

    def scalar(self, c: LaurentElem) -> "QuatElem":
        z = self.base.zero()
        return QuatElem(self, (c, z, z, z))

    def gen_x(self) -> "QuatElem":
        z = self.base.zero()
        return QuatElem(self, (z, self.base.one(), z, z))

    def gen_y(self) -> "QuatElem":
        z = self.base.zero()
        return QuatElem(self, (z, z, self.base.one(), z))

    def gen_z(self) -> "QuatElem":
        z = self.base.zero()
        return QuatElem(self, (z, z, z, self.base.one()))

    def basis(self) -> tuple:
        return (self.one(), self.gen_x(), self.gen_y(), self.gen_z())

    def descriptor(self) -> dict:
        res = self.base.residue
        p = res.p if isinstance(res, PrimeField) else "Q"
        return {"p": p, "a": str(self.a), "b": str(self.b)}

    def __str__(self):
        return f"({self.a}, {self.b} / {self.base})"


class QuatElem:
    """Element of D on the basis {1, x, y, z}; coordinates are Laurent series."""

    __slots__ = ("algebra", "co")

    def __init__(self, algebra: QuatAlgebra, co: tuple):
        self.algebra = algebra
        self.co = co

    @property
    def c1(self) -> LaurentElem:
        return self.co[0]

    @property
    def cx(self) -> LaurentElem:
        return self.co[1]

    @property
    def cy(self) -> LaurentElem:
        return self.co[2]

    @property
    def cz(self) -> LaurentElem:
        return self.co[3]

    def _check(self, other: "QuatElem"):
        if self.algebra != other.algebra:
            raise FieldMismatch("elements of different algebras")

    def __add__(self, other: "QuatElem") -> "QuatElem":
        self._check(other)
        return QuatElem(self.algebra, tuple(s + o for s, o in zip(self.co, other.co)))

    def __sub__(self, other: "QuatElem") -> "QuatElem":
        self._check(other)
        return QuatElem(self.algebra, tuple(s - o for s, o in zip(self.co, other.co)))

    def __neg__(self) -> "QuatElem":
        return QuatElem(self.algebra, tuple(-s for s in self.co))

    def __mul__(self, other: "QuatElem") -> "QuatElem":
        self._check(other)
        if isinstance(self.algebra.base.residue, PrimeField):
            return _mul_packed(self, other)
        return _mul_generic(self, other)

    def scale(self, c: LaurentElem) -> "QuatElem":
        return QuatElem(self.algebra, tuple(s * c for s in self.co))

    def conj(self) -> "QuatElem":
        """The canonical involution: negate the pure part."""
        return QuatElem(self.algebra, (self.co[0], -self.co[1], -self.co[2], -self.co[3]))

    def trd(self) -> LaurentElem:
        return self.co[0] + self.co[0]

    def nrd(self) -> LaurentElem:
        """Reduced norm c1^2 - a*cx^2 - b*cy^2 + a*b*cz^2."""
        alg = self.algebra
        d, x, y, z = self.co
        out = d * d - (x * x) * alg.a - (y * y) * alg.b
        return out + ((z * z) * alg.a) * alg.b

    def inv(self) -> "QuatElem":
        n = self.nrd()
        if n.is_exact_zero():
            raise ZeroInput("inverse of zero")
        ninv = n.inv()  # raises PrecisionExhausted on a fuzzy norm
        return self.conj().scale(ninv)

    def is_exact_zero(self) -> bool:
        return all(c.is_exact_zero() for c in self.co)

    def is_possibly_zero(self) -> bool:
        return all(c.is_possibly_zero() for c in self.co)

    def pure_part(self) -> "QuatElem":
        return QuatElem(self.algebra, (self.algebra.base.zero(),) + self.co[1:])

    def truncate(self, prec: int) -> "QuatElem":
        return QuatElem(self.algebra, tuple(c.truncate(prec) for c in self.co))

    def __eq__(self, other):
        if not isinstance(other, QuatElem):
            return NotImplemented
        return self.algebra == other.algebra and self.co == other.co

    def __hash__(self):
        return hash((self.algebra, self.co))

    def __repr__(self):
        return f"QuatElem({self})"

    def __str__(self):
        names = ("", "x", "y", "z")
        parts = []
        for c, n in zip(self.co, names):
            if c.is_exact_zero():
                continue
            body = str(c)
            if n and ("+" in body or body != "1"):
                body = f"({body})*{n}" if "+" in body else f"{body}*{n}"
            elif n:
                body = n
            parts.append(body)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# multiplication backends
# ---------------------------------------------------------------------------


def _mul_generic(u: QuatElem, v: QuatElem) -> QuatElem:
    alg = u.algebra
    a, b = alg.a, alg.b
    d1, a1, b1, g1 = u.co
    d2, a2, b2, g2 = v.co
    c1 = d1 * d2 + (a1 * a2) * a + (b1 * b2) * b - ((g1 * g2) * a) * b
    cx = d1 * a2 + a1 * d2 + (g1 * b2 - b1 * g2) * b
    cy = d1 * b2 + b1 * d2 + (a1 * g2 - g1 * a2) * a
    cz = d1 * g2 + g1 * d2 + a1 * b2 - b1 * a2
    return QuatElem(alg, (c1, cx, cy, cz))


def _windows(co: tuple, base: int, length: int, zero) -> list:
    out = []
    for c in co:
        w = [zero] * length
        if c.val is not None:
            off = c.val - base
            w[off : off + len(c.coeffs)] = c.coeffs
        out.append(w)
    return out


def _mul_packed(u: QuatElem, v: QuatElem) -> QuatElem:
    """Prime-field product: 16 packed convolutions plus shift/scale combos.

    All digit arithmetic happens on nonnegative integers; positive and
    negative contributions accumulate separately and are subtracted mod p
    after unpacking.
    """
    from .valued_field import _limb_bytes, _pack, _unpack

    alg = u.algebra
    fld = alg.base
    p = fld.residue.p

    def floors(w):
        lows, precs, exact_zero = [], [], []
        for c in w.co:
            if c.val is not None:
                lows.append(c.val)
                exact_zero.append(False)
            elif c.prec is not None:
                lows.append(c.prec)
                exact_zero.append(False)
            else:
                lows.append(INF)
                exact_zero.append(True)
            precs.append(c.prec if c.prec is not None else INF)
        return lows, precs, exact_zero

    fu, pu, zu = floors(u)
    fv, pv, zv = floors(v)
    if all(zu) or all(zv):  # exact zero operand
        return alg.zero()
    vu = int(min(f for f in fu if f != INF))
    vv = int(min(f for f in fv if f != INF))
    base = vu + vv

    ca, ea = fld.residue.coerce(alg.a.coeffs[0]), alg.a.valuation()  # ea == 0
    cb, eb = fld.residue.coerce(alg.b.coeffs[0]), alg.b.valuation()
    cab, eab = ca * cb % p, ea + eb

    def pprec(i, j):
        """Known-coefficient bound of the product coord_i(u) * coord_j(v)."""
        if zu[i] or zv[j]:
            return INF
        return min(fu[i] + pv[j], fv[j] + pu[i])

    # precision of each output coordinate = min over its contributions,
    # matching what the coordinate-wise generic path computes
    combos = (
        ((0, 0, 0), (1, 1, ea), (2, 2, eb), (3, 3, eab)),
        ((0, 1, 0), (1, 0, 0), (3, 2, eb), (2, 3, eb)),
        ((0, 2, 0), (2, 0, 0), (1, 3, ea), (3, 1, ea)),
        ((0, 3, 0), (3, 0, 0), (1, 2, 0), (2, 1, 0)),
    )
    coord_precs = [min(pprec(i, j) + sh for i, j, sh in combo) for combo in combos]

    len_u = max((c.val + len(c.coeffs) for c in u.co if c.val is not None), default=vu) - vu
    len_v = max((c.val + len(c.coeffs) for c in v.co if c.val is not None), default=vv) - vv
    len_u, len_v = max(len_u, 1), max(len_v, 1)
    full = len_u + len_v - 1 + eab
    n_out = full
    needed = max(coord_precs)
    if needed != INF:
        n_out = min(full, max(int(needed) - base, 0))
    if n_out <= 0:
        coords = [LaurentElem(fld, None, [], None if cp == INF else int(cp)) for cp in coord_precs]
        return QuatElem(alg, tuple(coords))

    limb = _limb_bytes(p)
    zero_raw = 0
    wu = [_pack(w, limb) for w in _windows(u.co, vu, len_u, zero_raw)]
    wv = [_pack(w, limb) for w in _windows(v.co, vv, len_v, zero_raw)]

    def prod(i, j):
        return wu[i] * wv[j]

    bits = 8 * limb
    sh_b = bits * eb
    sh_ab = bits * eab
    # scalar: P00 + a*P11 + b*P22 - ab*P33
    pos0 = prod(0, 0) + ca * prod(1, 1) + ((cb * prod(2, 2)) << sh_b)
    neg0 = (cab * prod(3, 3)) << sh_ab
    # x: P01 + P10 + b*(P32 - P23)
    pos1 = prod(0, 1) + prod(1, 0) + ((cb * prod(3, 2)) << sh_b)
    neg1 = (cb * prod(2, 3)) << sh_b
    # y: P02 + P20 + a*(P13 - P31)
    pos2 = prod(0, 2) + prod(2, 0) + ca * prod(1, 3)
    neg2 = ca * prod(3, 1)
    # z: P03 + P30 + P12 - P21
    pos3 = prod(0, 3) + prod(3, 0) + prod(1, 2)
    neg3 = prod(2, 1)

    coords = []
    for (pos, neg), cp in zip(((pos0, neg0), (pos1, neg1), (pos2, neg2), (pos3, neg3)), coord_precs):
        dp = _unpack(pos, n_out, limb)
        dn = _unpack(neg, n_out, limb)
        digits = [(x - y) % p for x, y in zip(dp, dn)]
        coords.append(LaurentElem(fld, base, digits, None if cp == INF else int(cp)))
    return QuatElem(alg, tuple(coords))


# named-op surface over the element methods


def quat_mul(u: QuatElem, v: QuatElem) -> QuatElem:
    return u * v


def conj_tau(u: QuatElem) -> QuatElem:
    return u.conj()


def nrd(u: QuatElem) -> LaurentElem:
    return u.nrd()


def trd(u: QuatElem) -> LaurentElem:
    return u.trd()


def quat_inv(u: QuatElem) -> QuatElem:
    return u.inv()


# ---------------------------------------------------------------------------
# extended valuation
# ---------------------------------------------------------------------------


def valuation_D(u: QuatElem) -> HalfInt:
    """nu_D(u) = nu_K(Nrd(u)) / 2 in half-units."""
    if u.is_exact_zero():
        raise ZeroInput("valuation of zero")
    return HalfInt(u.nrd().valuation())


def val_floor_half_units(u: QuatElem):
    """Certified lower bound of nu_D in half-units from the coordinates.

    Sound in any algebra (each basis vector has known value); exact in a
    division algebra.  Returns INF when u is exactly zero.
    """
    vb = u.algebra.b.valuation()
    adj = (0, 0, vb, vb)  # 2*nu_D of the basis vectors 1, x, y, z
    best = INF
    for c, extra in zip(u.co, adj):
        floor = c.known_floor()
        if floor is None:
            continue
        best = min(best, 2 * floor + extra)
    return best


def residue_D(u: QuatElem):
    """Image of an integral element in the residue algebra.

    Unramified: coordinate-wise residues in (abar, bbar / k).
    Ramified: residue of c1 + cx*x in k(xbar); the y,z coordinates lie in
    the maximal ideal and vanish.
    """
    floor = val_floor_half_units(u)
    if floor is not INF and floor < 0:
        raise NegativeValuation("element is not integral")
    alg = u.algebra
    res = alg.base.residue
    if not alg.ramified:
        ralg = residue_algebra(alg)
        return ralg.elem(tuple(c.residue().raw for c in u.co))
    if not isinstance(res, PrimeField):
        raise UnsupportedField("ramified residue algebra needs a finite residue field")
    fld = residue_field_extension(alg)
    return ResElem(fld, (u.c1.residue().raw, u.cx.residue().raw))


def residue_field_extension(alg: QuatAlgebra) -> QuadExtField:
    """k(xbar) for a ramified algebra over a finite residue field."""
    res = alg.base.residue
    if not isinstance(res, PrimeField):
        raise UnsupportedField("k(xbar) requires a prime residue field")
    return QuadExtField(res.p, alg.a.residue().raw)


@dataclass(frozen=True)
class ResQuatAlgebra:
    """The residue quaternion algebra (abar, bbar / k) of an unramified D."""

    k: ResidueField
    abar: object
    bbar: object

    def elem(self, coords) -> "ResQuatElem":
        return ResQuatElem(self, tuple(self.k.coerce(c) for c in coords))

    def zero(self) -> "ResQuatElem":
        z = self.k.zero_raw
        return ResQuatElem(self, (z, z, z, z))

    def one(self) -> "ResQuatElem":
        z = self.k.zero_raw
        return ResQuatElem(self, (self.k.one_raw, z, z, z))


class ResQuatElem:
    """Element of the residue quaternion algebra, coordinates in k."""

    __slots__ = ("algebra", "co")

    def __init__(self, algebra: ResQuatAlgebra, co: tuple):
        self.algebra = algebra
        self.co = co

    def __add__(self, other):
        k = self.algebra.k
        return ResQuatElem(self.algebra, tuple(k.add(s, o) for s, o in zip(self.co, other.co)))

    def __sub__(self, other):
        k = self.algebra.k
        return ResQuatElem(self.algebra, tuple(k.sub(s, o) for s, o in zip(self.co, other.co)))

    def __neg__(self):
        k = self.algebra.k
        return ResQuatElem(self.algebra, tuple(k.neg(s) for s in self.co))

    def __mul__(self, other):
        k = self.algebra.k
        a, b = self.algebra.abar, self.algebra.bbar
        d1, a1, b1, g1 = self.co
        d2, a2, b2, g2 = other.co
        mul, add, sub = k.mul, k.add, k.sub
        ab = mul(a, b)
        c1 = sub(add(mul(d1, d2), add(mul(a, mul(a1, a2)), mul(b, mul(b1, b2)))), mul(ab, mul(g1, g2)))
        cx = add(add(mul(d1, a2), mul(a1, d2)), mul(b, sub(mul(g1, b2), mul(b1, g2))))
        cy = add(add(mul(d1, b2), mul(b1, d2)), mul(a, sub(mul(a1, g2), mul(g1, a2))))
        cz = add(add(mul(d1, g2), mul(g1, d2)), sub(mul(a1, b2), mul(b1, a2)))
        return ResQuatElem(self.algebra, (c1, cx, cy, cz))

    def apply_signs(self, signs: tuple) -> "ResQuatElem":
        k = self.algebra.k
        return ResQuatElem(
            self.algebra, tuple(c if s > 0 else k.neg(c) for c, s in zip(self.co, signs))
        )

    def is_zero(self) -> bool:
        return all(self.algebra.k.is_zero(c) for c in self.co)

    def __eq__(self, other):
        if not isinstance(other, ResQuatElem):
            return NotImplemented
        return self.algebra == other.algebra and self.co == other.co

    def __hash__(self):
        return hash((self.algebra, self.co))

    def __repr__(self):
        k = self.algebra.k
        names = ("", "xbar", "ybar", "zbar")
        parts = [
            (k.format_raw(c) + ("*" + n if n else "")) for c, n in zip(self.co, names) if not k.is_zero(c)
        ]
        return " + ".join(parts) if parts else "0"


def residue_algebra(alg: QuatAlgebra) -> ResQuatAlgebra:
    if alg.ramified:
        raise UnsupportedField("residue quaternion algebra exists only when unramified")
    return ResQuatAlgebra(alg.base.residue, alg.a.residue().raw, alg.b.residue().raw)


# ---------------------------------------------------------------------------
# presentation normalization
# ---------------------------------------------------------------------------


def norm_form(alg: QuatAlgebra) -> QuadFormK:
    one = alg.base.one()
    return QuadFormK(alg.base, (one, -alg.a, -alg.b, alg.a * alg.b))


def normalize_presentation(
    base: LaurentField, a_raw: LaurentElem, b_raw: LaurentElem, assume_division: bool = False
) -> QuatAlgebra:
    """Reduce (a_raw, b_raw) to a normalized division-algebra presentation.

    Entries are replaced by square-class representatives; when both have
    odd valuation, (a, b) -> (a, -a*b) makes one even; a final swap puts
    the unit first.  The output's norm form is K-isometric to the input's
    (checked through the Springer boundary over finite residue fields).
    """
    a_raw._require_nonzero("a")
    b_raw._require_nonzero("b")
    a = square_class_K(a_raw).representative()
    b = square_class_K(b_raw).representative()
    if a.valuation() % 2 == 1 and b.valuation() % 2 == 1:
        b = square_class_K(-(a * b)).representative()
    if a.valuation() == 1:
        a, b = b, a
    if isinstance(base.residue, PrimeField):
        one = base.one()
        # the constructor re-runs the division oracle; check the class match
        algebra = QuatAlgebra(base, a, b, division="oracle")
        input_norm = QuadFormK(base, (one, -a_raw, -b_raw, a_raw * b_raw))
        if springer_boundary(input_norm) != springer_boundary(norm_form(algebra)):
            raise ValueError("normalization changed the norm form class")  # unreachable
        return algebra
    if not assume_division:
        raise UndecidableDivision(
            "no isotropy oracle over Q; pass assume_division=True to assert division"
        )
    return QuatAlgebra(base, a, b, division="assumed")
