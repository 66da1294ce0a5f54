"""Diagonal eps-hermitian forms over (D, sigma) and their decomposition.

The pipeline is: validate entries, move each entry's value into {0, 1/j}
by one conjugation with a power P = pi'^m of the distinguished uniformizer
(closed form, as pi'^2 is a monomial scalar of K), then (over ramified
algebras) reduce each entry to its case shape by lifting a residue-level
isometry.  Every move carries an explicit witness t realizing
sigma(t) * source * t = target, re-verifiable to a fixed residual
threshold in half-units of the extended valuation, making every
existence statement the construction relies on effective.

The lifting update is t <- t(1 + c) with c = (1/2) w^{-1} e for
w = sigma(t) v1 t and e = v0 - w.  Since sigma(e) = eps*e and
sigma(w) = eps*w, one checks sigma(c)w + wc = e exactly, so the new
residual is -sigma(c)wc and its valuation doubles each step (char != 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_fields import ResElem
from .errors import (
    NonUnit,
    NotEpsilonSymmetric,
    PrecisionExhausted,
    ResidueConditionFails,
    UnsupportedRamification,
    ValueParityImpossible,
    ZeroEntry,
)
from .involutions import CaseRecord, InvolutionDesc, SIGN_PATTERNS, apply_pattern, classify_case
from .quaternion import (
    QuatAlgebra,
    QuatElem,
    ResQuatElem,
    residue_D,
    val_floor_half_units,
)

VERIFY_HALF_UNITS = 24
LIFT_WORKING_PREC = 16
MAX_LIFT_ITERATIONS = 7

# twisting sigma by y sends each diagonal involution to another one
_SIGMA_Y_TWIST = {"tau": "tau_y", "tau_x": "tau_z", "tau_y": "tau"}


@dataclass(frozen=True)
class HermitianForm:
    algebra: QuatAlgebra
    sigma: InvolutionDesc
    eps: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")

    @property
    def dim(self):
        return len(self.entries)

    def orth_sum(self, other: "HermitianForm") -> "HermitianForm":
        if (self.algebra, self.sigma, self.eps) != (other.algebra, other.sigma, other.eps):
            raise ValueError("orthogonal sum needs matching (algebra, sigma, eps)")
        return HermitianForm(self.algebra, self.sigma, self.eps, self.entries + other.entries)

    def negated(self) -> "HermitianForm":
        return HermitianForm(self.algebra, self.sigma, self.eps, tuple(-u for u in self.entries))

    def __str__(self):
        body = ", ".join(str(u) for u in self.entries)
        return f"<{body}> over ({self.algebra}, {self.sigma.name}, eps={self.eps:+d})"


def validate_form(h: HermitianForm) -> HermitianForm:
    """Assert nonzero, eps-symmetric entries; returns the form unchanged."""
    for i, u in enumerate(h.entries):
        if u.is_possibly_zero():
            raise ZeroEntry(i)
        mismatch = h.sigma.apply(u) - (u if h.eps == 1 else -u)
        if not mismatch.is_possibly_zero():
            raise NotEpsilonSymmetric(i)
    return h


@dataclass(frozen=True)
class IsometryWitness:
    """An explicit t with sigma(t) * source * t = target (to verification
    precision)."""

    t: QuatElem
    source_entry: QuatElem
    target_entry: QuatElem

    def residual(self, sigma_pattern: tuple) -> QuatElem:
        st = apply_pattern(self.t, sigma_pattern)
        return st * self.source_entry * self.t - self.target_entry

    def residual_half_units(self, sigma_pattern: tuple):
        """Certified lower bound of 2 * nu_D(residual); INF when exact."""
        return val_floor_half_units(self.residual(sigma_pattern))

    def verify(self, sigma_pattern: tuple, threshold: int = VERIFY_HALF_UNITS) -> bool:
        return self.residual_half_units(sigma_pattern) >= threshold


def identity_witness(u: QuatElem) -> IsometryWitness:
    return IsometryWitness(u.algebra.one(), u, u)


@dataclass(frozen=True)
class LarmourSplit:
    """h0 with unit entries, h1 with value-1/j entries, one composite
    witness per original entry (its target is the routed final entry)."""

    h0: HermitianForm
    h1: HermitianForm
    witnesses: tuple
    routes: tuple  # 0 or 1 per original entry


# ---------------------------------------------------------------------------
# value normalization (conjugation by the distinguished uniformizer)
# ---------------------------------------------------------------------------


def scale_entry(
    u: QuatElem, steps: int, record: CaseRecord, sigma: InvolutionDesc
) -> tuple[QuatElem, IsometryWitness]:
    """Shift an entry's value by steps * 2/j via u -> P u sigma(P), P = pi'^steps.

    c = pi'^2 is t^2, t^2 a, b or -ab, so P = c^(steps // 2) pi'^(steps % 2)
    costs the one quaternion product pi' * pi'.  The witness is t = sigma(P):
    sigma(t) u t equals the output for any involution, and the output stays
    eps-symmetric.
    """
    pi = record.pi_prime
    c = (pi * pi).c1
    k = steps // 2
    if k < 0:
        c, k = c.inv(), -k
    power = c.field.monomial(c.coeffs[0] ** k, c.val * k)
    pivot = pi.scale(power) if steps % 2 else record.algebra.scalar(power)
    t = sigma.apply(pivot)
    out = pivot * u * t
    return out, IsometryWitness(t, u, out)


def normalize_values(h: HermitianForm, record: CaseRecord) -> LarmourSplit:
    """Move every entry's value into {0, 1/j} with at most one scale_entry call.

    When s_eps = 2 an entry of odd half-value would be unreachable; that
    cannot happen for genuinely eps-symmetric entries, so it raises the
    internal-inconsistency signal instead.
    """
    validate_form(h)
    j = record.j
    step = 4 // j  # half-units moved per power of pi'
    witnesses, routes = [], []
    for u in h.entries:
        num = val_floor_half_units(u)  # = 2*nu_D(u); exact in a division algebra
        if j == 1 and num % 2:
            raise ValueParityImpossible("odd half-value in an unramified algebra")
        target = num % step
        if record.s_eps == 2 and target != 0:
            raise ValueParityImpossible(
                f"case {record.label} admits no ramified part (s_eps = 2)"
            )
        if num == target:
            witnesses.append(identity_witness(u))
        else:
            witnesses.append(scale_entry(u, (target - num) // step, record, h.sigma)[1])
        routes.append(0 if target == 0 else 1)
    return _assemble_split(h, witnesses, routes)


def _assemble_split(h: HermitianForm, witnesses: list, routes: list) -> LarmourSplit:
    """h0 and h1 from the witness targets, in entry order, by route."""

    def part(route):
        entries = tuple(w.target_entry for w, r in zip(witnesses, routes) if r == route)
        return HermitianForm(h.algebra, h.sigma, h.eps, entries)

    return LarmourSplit(part(0), part(1), tuple(witnesses), tuple(routes))


# ---------------------------------------------------------------------------
# Hensel lifting of residue-level isometries
# ---------------------------------------------------------------------------


def lift_residue(algebra: QuatAlgebra, theta) -> QuatElem:
    """A coordinate-wise lift of a residue-algebra element into O_D."""
    base = algebra.base
    if isinstance(theta, QuatElem):
        return theta
    if isinstance(theta, ResQuatElem):
        return algebra.elem(*(base.const(c) for c in theta.co))
    if isinstance(theta, ResElem):
        e0, e1 = theta.raw
        return algebra.elem(base.const(e0), base.const(e1), base.zero(), base.zero())
    raise TypeError(f"cannot lift {type(theta).__name__} into the algebra")


def _symmetry_sign(v: QuatElem, pattern: tuple) -> int:
    if (apply_pattern(v, pattern) - v).is_possibly_zero():
        return 1
    if (apply_pattern(v, pattern) + v).is_possibly_zero():
        return -1
    raise NotEpsilonSymmetric(-1, "element is neither symmetric nor skew for this involution")


def hensel_lift_isometry(
    v0: QuatElem,
    v1: QuatElem,
    theta,
    sigma_pattern: tuple,
    target_half_units: int = VERIFY_HALF_UNITS,
    working_prec: int = LIFT_WORKING_PREC,
    max_iterations: int = MAX_LIFT_ITERATIONS,
    trace: list | None = None,
) -> QuatElem:
    """Lift theta to t with tbar = theta and v0 = sigma(t) v1 t.

    Requires units v0, v1, both symmetric or both skew, and the exact
    residue identity v0bar = sigmabar(theta) v1bar theta.  The residual
    valuation at least doubles per iteration, so the iteration count is
    logarithmic in the verification precision.
    """
    if val_floor_half_units(v0) != 0 or val_floor_half_units(v1) != 0:
        raise NonUnit("lifting requires unit inputs")
    if _symmetry_sign(v0, sigma_pattern) != _symmetry_sign(v1, sigma_pattern):
        raise NotEpsilonSymmetric(-1, "v0 and v1 must carry the same symmetry sign")

    algebra = v0.algebra
    t0 = lift_residue(algebra, theta)
    conj0 = apply_pattern(t0, sigma_pattern) * v1 * t0
    if residue_D(conj0) != residue_D(v0):
        raise ResidueConditionFails("v0bar != sigmabar(theta) v1bar theta")

    res = algebra.base.residue
    half = algebra.base.const(res.inv(res.coerce(2)))
    t = t0.truncate(working_prec)
    v0w = v0.truncate(working_prec)
    v1w = v1.truncate(working_prec)
    for _ in range(max_iterations):
        w = apply_pattern(t, sigma_pattern) * v1w * t
        e = v0w - w
        floor = val_floor_half_units(e)
        if trace is not None:
            trace.append(floor)
        if floor >= target_half_units:
            return t
        c = (w.inv() * e).scale(half)
        t = (t + t * c).truncate(working_prec)
    raise PrecisionExhausted(
        f"no convergence to {target_half_units} half-units in {max_iterations} iterations"
    )


# ---------------------------------------------------------------------------
# per-entry simplification over ramified algebras
# ---------------------------------------------------------------------------


def _project_scalar_x(u: QuatElem) -> QuatElem:
    z = u.algebra.base.zero()
    return QuatElem(u.algebra, (u.co[0], u.co[1], z, z))


def simplify_unramified_entry(
    u: QuatElem, record: CaseRecord, sigma: InvolutionDesc
) -> tuple[QuatElem, IsometryWitness]:
    """Reduce a unit entry over a ramified algebra to its case shape.

    The y,z coordinates vanish in the residue, so dropping them preserves
    the residue class; the isometry lifting recovers the witness.
    """
    if not record.algebra.ramified:
        raise UnsupportedRamification("entry simplification applies to ramified algebras")
    simplified = _project_scalar_x(u)
    if (u - simplified).is_possibly_zero():
        return u, identity_witness(u)
    t = hensel_lift_isometry(u, simplified, record.algebra.one(), sigma.pattern)
    # sigma(t) simplified t = u, so t^{-1} carries u onto the simplified entry
    t_inv = t.inv()
    return simplified, IsometryWitness(t_inv, u, simplified)


def simplify_ramified_entry(
    u: QuatElem, record: CaseRecord, sigma: InvolutionDesc
) -> tuple[QuatElem, IsometryWitness]:
    """Reduce a value-1/2 entry over a ramified algebra to its case shape.

    Working over the y-twisted involution, u*y^{-1} is a unit congruent to
    its scalar+x projection; lifting there and transporting back by
    t -> y^{-1} t y yields the witness for the {y,z}-span shape.
    """
    if not record.algebra.ramified:
        raise UnsupportedRamification("entry simplification applies to ramified algebras")
    if val_floor_half_units(u) != 1:
        raise NonUnit("ramified-entry simplification needs value 1/2")
    algebra = record.algebra
    y = algebra.gen_y()
    y_inv = y.inv()
    v0 = u * y_inv
    v1 = _project_scalar_x(v0)
    if (v0 - v1).is_possibly_zero():
        return u, identity_witness(u)
    twisted = SIGN_PATTERNS[_SIGMA_Y_TWIST[sigma.name]]
    s = hensel_lift_isometry(v0, v1, algebra.one(), twisted)
    t = y_inv * s * y  # sigma(t) (v1*y) t = u
    t_inv = t.inv()
    simplified = v1 * y
    return simplified, IsometryWitness(t_inv, u, simplified)


# ---------------------------------------------------------------------------
# the full decomposition
# ---------------------------------------------------------------------------


def larmour_decompose(h: HermitianForm, record: CaseRecord | None = None) -> LarmourSplit:
    """Classify, normalize values, simplify entries, and verify witnesses.

    Unramified algebras keep full 4-coordinate entries (their residues are
    consumed as quaternion residues); ramified algebras additionally
    reduce each entry to the tabulated span.
    """
    if record is None:
        record = classify_case(h.algebra, h.sigma, h.eps)
    split = normalize_values(h, record)
    if h.algebra.ramified:
        final = [_simplify(w, r, record, h.sigma) for w, r in zip(split.witnesses, split.routes)]
        split = _assemble_split(h, final, split.routes)
    _verify_split(split, record)
    return split


def _simplify(
    moved: IsometryWitness, route: int, record: CaseRecord, sigma: InvolutionDesc
) -> IsometryWitness:
    """Simplify a normalized entry; its witness starts at the original entry.

    An entry left in place is the very object in and out (no move, no lift),
    so witnesses are multiplied only when both a move and a lift happened.
    """
    simplify = simplify_unramified_entry if route == 0 else simplify_ramified_entry
    v = moved.target_entry
    simplified, lift = simplify(v, record, sigma)
    if simplified is v:
        return moved
    if moved.source_entry is v:
        return lift
    return IsometryWitness(moved.t * lift.t, moved.source_entry, simplified)


def _verify_split(split: LarmourSplit, record: CaseRecord):
    pattern = record.sigma.pattern
    for w in split.witnesses:
        if not w.verify(pattern):
            raise PrecisionExhausted(
                f"witness residual below {VERIFY_HALF_UNITS} half-units in case {record.label}"
            )
