"""Involutions of the first kind on D and the ten-case classification.

After normalization every involution acts diagonally on the basis
{1, x, y, z}: the canonical involution negates the pure part, and the
orthogonal involutions twisted by x or y flip the complementary signs.
``normalize_involution`` re-presents the algebra on an adapted basis so
that an arbitrary skew twist lands on a basis vector, recording the
coordinate change.

The classification assigns one of ten labels from the ramification of D,
the involution type and twist slot, and the sign eps; each record carries
the distinguished uniformizers pi_prime / pi_dblprime, s_eps, the residue
structure tags, and the symmetric-element spans used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EvenS,
    NotSkew,
    UnitComplementContradiction,
    ZeroInput,
)
from .quaternion import (
    QuatAlgebra,
    QuatElem,
    valuation_D,
)
from .valued_field import LaurentElem, hensel_sqrt, square_class_K

SIGN_PATTERNS = {
    "tau": (1, -1, -1, -1),
    "tau_x": (1, -1, 1, 1),
    "tau_y": (1, 1, -1, 1),
    "tau_z": (1, 1, 1, -1),
}

BASIS_NAMES = ("1", "x", "y", "z")


def apply_pattern(u: QuatElem, pattern: tuple) -> QuatElem:
    return QuatElem(
        u.algebra, tuple(c if s > 0 else -c for c, s in zip(u.co, pattern))
    )


@dataclass(frozen=True)
class InvolutionDesc:
    """Canonical involution, or the twist by the basis vector in ``slot``."""

    kind: str  # "canonical" | "twisted"
    slot: str | None = None  # "x" | "y" for twisted

    def __post_init__(self):
        if self.kind == "canonical":
            if self.slot is not None:
                raise ValueError("canonical involution carries no twist slot")
        elif self.kind == "twisted":
            if self.slot not in ("x", "y"):
                raise ValueError("twist slot must be a basis vector x or y")
        else:
            raise ValueError(f"unknown involution kind {self.kind!r}")

    @classmethod
    def canonical(cls) -> "InvolutionDesc":
        return cls("canonical")

    @classmethod
    def twisted(cls, slot: str) -> "InvolutionDesc":
        return cls("twisted", slot)

    @property
    def type(self) -> str:
        return "symplectic" if self.kind == "canonical" else "orthogonal"

    @property
    def name(self) -> str:
        return "tau" if self.kind == "canonical" else f"tau_{self.slot}"

    @property
    def pattern(self) -> tuple:
        return SIGN_PATTERNS[self.name]

    def zeta(self, algebra: QuatAlgebra) -> QuatElem | None:
        if self.kind == "canonical":
            return None
        return algebra.gen_x() if self.slot == "x" else algebra.gen_y()

    def apply(self, u: QuatElem) -> QuatElem:
        return apply_pattern(u, self.pattern)

    def __str__(self):
        return self.name


def apply_involution(sigma: InvolutionDesc, u: QuatElem) -> QuatElem:
    return sigma.apply(u)


def sym_basis(algebra: QuatAlgebra, sigma: InvolutionDesc, eps: int) -> tuple:
    """Basis vectors v among {1, x, y, z} with sigma(v) = eps*v."""
    return tuple(
        name for name, sign in zip(BASIS_NAMES, sigma.pattern) if sign == eps
    )


# ---------------------------------------------------------------------------
# adapted-basis normalization of a twisted involution
# ---------------------------------------------------------------------------


@dataclass
class PresentationChange:
    """Change of presentation (1, x', y', z') recorded against the old basis."""

    old_algebra: QuatAlgebra
    new_algebra: QuatAlgebra
    new_x: QuatElem  # expressed in old coordinates
    new_y: QuatElem
    new_z: QuatElem

    @classmethod
    def identity(cls, algebra: QuatAlgebra) -> "PresentationChange":
        return cls(algebra, algebra, algebra.gen_x(), algebra.gen_y(), algebra.gen_z())

    @property
    def trivial(self) -> bool:
        return self.new_algebra == self.old_algebra and all(
            v == w
            for v, w in zip(
                (self.new_x, self.new_y, self.new_z),
                (self.old_algebra.gen_x(), self.old_algebra.gen_y(), self.old_algebra.gen_z()),
            )
        )

    def to_new(self, u: QuatElem) -> QuatElem:
        """Coordinates of an old-presentation element on the adapted basis."""
        if self.trivial:
            return u
        new = self.new_algebra
        pure = u.pure_part()
        cx = _bilinear(pure, self.new_x) / new.a
        cy = _bilinear(pure, self.new_y) / new.b
        czz = -(new.a * new.b)
        cz = _bilinear(pure, self.new_z) / czz
        return QuatElem(new, (u.c1, cx, cy, cz))

    def to_old(self, u: QuatElem) -> QuatElem:
        if self.trivial:
            return u
        alg = self.old_algebra
        out = alg.scalar(u.c1)
        out = out + self.new_x.scale(u.cx) + self.new_y.scale(u.cy) + self.new_z.scale(u.cz)
        return out


def _bilinear(u: QuatElem, v: QuatElem) -> LaurentElem:
    """Polar form of the squaring form on pure quaternions: (uv + vu)/2."""
    res = u.algebra.base.residue
    anti = u * v + v * u
    half = res.inv(res.coerce(2))
    return anti.c1.scale(half)


def _scalar_square(u: QuatElem) -> LaurentElem:
    """u^2 for a pure quaternion (a scalar)."""
    return (u * u).c1


def _canonical_sign(vec: QuatElem) -> QuatElem:
    """Flip the sign so the first certified coordinate leads canonically.

    Makes the adapted basis independent of K*-rescalings of the twist
    element (the square-root tie-break alone fixes it only up to sign).
    """
    res = vec.algebra.base.residue
    for c in vec.co:
        if c.val is None:
            continue
        lead = c.coeffs[0]
        if res.canonical_key(lead) > res.canonical_key(res.neg(lead)):
            return -vec
        return vec
    return vec


def _reduce_to_rep(vec: QuatElem, square: LaurentElem) -> tuple:
    """Scale a pure vector so its square becomes the square-class monomial."""
    rep = square_class_K(square).representative()
    ratio = square / rep
    s = hensel_sqrt(ratio)
    return _canonical_sign(vec.scale(s.inv())), rep


def normalize_involution(
    algebra: QuatAlgebra, zeta_raw: QuatElem
) -> tuple[InvolutionDesc, PresentationChange]:
    """Normalize a twisted involution onto an adapted presentation.

    The twist element is rescaled by K* to value 0 or 1/2 and becomes the
    basis vector x (unit case) or y (uniformizer case, ramified algebras);
    the remaining basis vectors come from the orthogonal complement, built
    by the polar-form projection.  Returns the involution over the new
    presentation together with the recorded coordinate change.
    """
    if zeta_raw.is_possibly_zero():
        raise ZeroInput("twist element must be nonzero")
    if not zeta_raw.c1.is_possibly_zero():
        raise NotSkew("twist element must be a pure quaternion")
    base = algebra.base
    zeta = zeta_raw
    n = valuation_D(zeta).numerator
    m = n // 2  # integer part of nu_D; after shifting, nu_D in {0, 1/2}
    if m:
        zeta = zeta.scale(base.t(-m))
    half_val = n - 2 * m  # 0 or 1
    if half_val and not algebra.ramified:
        raise ValueError("unramified algebra admits no half-integer values")

    # fast path: the twist already sits on a basis vector
    if half_val == 0 and zeta.cy.is_possibly_zero() and zeta.cz.is_possibly_zero():
        return InvolutionDesc.twisted("x"), PresentationChange.identity(algebra)
    if half_val == 1 and zeta.cx.is_possibly_zero() and zeta.cz.is_possibly_zero():
        return InvolutionDesc.twisted("y"), PresentationChange.identity(algebra)

    candidates = (algebra.gen_x(), algebra.gen_y(), algebra.gen_z())
    if half_val == 0:
        # adapted x' = zeta (unit); complement supplies y'
        new_x, a_rep = _reduce_to_rep(zeta, _scalar_square(zeta))
        w = _complement(candidates, new_x, a_rep)
        w, w_sq = _normalize_complement_valuation(w)
        if algebra.ramified and w_sq.valuation() % 2 == 0:
            raise UnitComplementContradiction(
                "ramified algebra produced a unit orthogonal complement"
            )
        new_y, b_rep = _reduce_to_rep(w, w_sq)
        slot = "x"
    else:
        # adapted y' = zeta (uniformizer, ramified only); complement supplies x'
        new_y, b_rep = _reduce_to_rep(zeta, _scalar_square(zeta))
        w = _complement(candidates, new_y, b_rep)
        w, w_sq = _normalize_complement_valuation(w)
        if w_sq.valuation() % 2 == 1:
            # both sub-possibilities collapse: w * y'^{-1} is a unit complement
            w = w * new_y.inv()
            w_sq = _scalar_square(w)
        new_x, a_rep = _reduce_to_rep(w, w_sq)
        slot = "y"
    new_z = new_x * new_y
    # the constructor re-certifies the division property of the adapted
    # presentation over finite residue fields
    new_alg = QuatAlgebra(base, a_rep, b_rep, division=algebra.division)
    change = PresentationChange(algebra, new_alg, new_x, new_y, new_z)
    return InvolutionDesc.twisted(slot), change


def _complement(candidates, axis: QuatElem, axis_sq: LaurentElem) -> QuatElem:
    """First basis candidate with a certified-nonzero polar projection residue."""
    for v in candidates:
        w = v - axis.scale(_bilinear(v, axis) / axis_sq)
        if not w.is_possibly_zero():
            return w
    raise UnitComplementContradiction("no orthogonal complement found")  # unreachable


def _normalize_complement_valuation(w: QuatElem) -> tuple:
    w_sq = _scalar_square(w)
    m = w_sq.valuation() // 2
    if m:
        w = w.scale(w.algebra.base.t(-m))
        w_sq = w_sq.shift(-2 * m)
    return w, w_sq


# ---------------------------------------------------------------------------
# the ten cases
# ---------------------------------------------------------------------------

QDA = "QDA"
QUAD_EXT = "QuadExt"

TAU_BAR = "tau_bar"
TAU_X_BAR = "tau_x_bar"
IOTA = "iota"
IDENTITY = "identity"


@dataclass(eq=False)
class CaseRecord:
    """One row of the classification table, with concrete uniformizers."""

    label: str
    algebra: QuatAlgebra
    sigma: InvolutionDesc
    eps: int
    j: int
    pi_prime: QuatElem
    pi_dblprime: QuatElem
    s_eps: int
    residue_algebra: str  # QDA | QuadExt
    res_inv0: str
    res_inv1: str | None  # None when s_eps = 2
    sym_basis: tuple
    h0_span: tuple
    h1_span: tuple
    pi_prime_name: str = ""
    pi_dblprime_name: str = ""

    def to_dict(self) -> dict:
        return {
            "case": self.label,
            "j": self.j,
            "pi_prime": self.pi_prime_name,
            "sigma": self.sigma.name,
            "residue_algebra": self.residue_algebra,
            "res_inv0": self.res_inv0,
            "eps": self.eps,
            "pi_dblprime": self.pi_dblprime_name,
            "s_eps": self.s_eps,
            "sym_basis": list(self.sym_basis),
            "res_inv1": self.res_inv1,
            "h0_span": list(self.h0_span),
            "h1_span": list(self.h1_span),
        }


# label -> (pi_prime, pi_dblprime, s, res_inv1, sym, h0_span, h1_span)
_CASE_TABLE = {
    "A11": ("pi", "pi", 1, TAU_BAR, ("1",), ("1",), ("1",)),
    "A12": ("pi*x", "pi*x", 1, TAU_X_BAR, ("x", "y", "z"), ("x", "y", "z"), ("x", "y", "z")),
    "A21": ("pi", "pi", 1, TAU_X_BAR, ("1", "y", "z"), ("1", "y", "z"), ("1", "y", "z")),
    "A22": ("pi*x", "pi*x", 1, TAU_BAR, ("x",), ("x",), ("x",)),
    "B11": ("y", "pi", 2, None, ("1",), ("1",), ()),
    "B12": ("y", "y", 1, IDENTITY, ("x", "y", "z"), ("x",), ("y", "z")),
    "B211": ("y", "y", 1, IDENTITY, ("1", "y", "z"), ("1",), ("y", "z")),
    "B212": ("y", "pi*x", 2, None, ("x",), ("x",), ()),
    "B221": ("z", "z", 1, IDENTITY, ("1", "x", "z"), ("1", "x"), ("z",)),
    "B222": ("y", "y", 1, IOTA, ("y",), (), ("y",)),
}


def _named_element(algebra: QuatAlgebra, name: str) -> QuatElem:
    t = algebra.base.t()
    if name == "pi":
        return algebra.scalar(t)
    if name == "pi*x":
        return algebra.gen_x().scale(t)
    if name == "y":
        return algebra.gen_y()
    if name == "z":
        return algebra.gen_z()
    raise ValueError(name)


def classify_case(algebra: QuatAlgebra, sigma: InvolutionDesc, eps: int) -> CaseRecord:
    """The classification row for (D, sigma, eps); sigma must be normalized."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if sigma.slot == "y" and not algebra.ramified:
        raise ValueError("twist by y is not normalized on an unramified algebra")
    eps_digit = "1" if eps == 1 else "2"
    if not algebra.ramified:
        label = f"A{1 if sigma.kind == 'canonical' else 2}{eps_digit}"
    elif sigma.kind == "canonical":
        label = f"B1{eps_digit}"
    else:
        label = f"B2{1 if sigma.slot == 'x' else 2}{eps_digit}"

    pi1_name, pi2_name, s, res_inv1, sym, h0_span, h1_span = _CASE_TABLE[label]
    pi_prime = _named_element(algebra, pi1_name)
    pi_dblprime = _named_element(algebra, pi2_name)

    res_inv0 = {
        ("A", "tau"): TAU_BAR,
        ("A", "tau_x"): TAU_X_BAR,
        ("B", "tau"): IOTA,
        ("B", "tau_x"): IOTA,
        ("B", "tau_y"): IDENTITY,
    }[(label[0], sigma.name)]

    record = CaseRecord(
        label=label,
        algebra=algebra,
        sigma=sigma,
        eps=eps,
        j=algebra.j,
        pi_prime=pi_prime,
        pi_dblprime=pi_dblprime,
        s_eps=s,
        residue_algebra=QDA if label[0] == "A" else QUAD_EXT,
        res_inv0=res_inv0,
        res_inv1=res_inv1,
        sym_basis=sym,
        h0_span=h0_span,
        h1_span=h1_span,
        pi_prime_name=pi1_name,
        pi_dblprime_name=pi2_name,
    )
    _check_record(record)
    return record


def _check_record(record: CaseRecord):
    # pi_dblprime is eps-symmetric of value s/j; both facts are cheap to verify
    sig = record.sigma
    w = record.pi_dblprime
    back = sig.apply(w)
    expect = w if record.eps == 1 else -w
    if back != expect:
        raise ValueError(f"pi_dblprime not eps-symmetric in case {record.label}")
    num = valuation_D(w).numerator  # half-units
    if num * record.j != 2 * record.s_eps:
        raise ValueError(f"s_eps mismatch in case {record.label}")


def symmetric_uniformizer(record: CaseRecord, sigma: InvolutionDesc) -> QuatElem:
    """An eps-symmetric element of value 1/j (odd s only).

    In general pi'^e pi'' sigma(pi'^e) with e = (1 - s)/2.
    """
    if record.s_eps % 2 == 0:
        raise EvenS(f"case {record.label} has s_eps = {record.s_eps}")
    # every odd s_eps in _CASE_TABLE is 1, so pi'^((1 - s)/2) = 1
    return record.pi_dblprime
