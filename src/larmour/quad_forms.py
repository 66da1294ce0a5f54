"""Quadratic forms over K = k((t)) and their two-residue decomposition.

A diagonal form splits into an even-valuation part and an odd-valuation
part after square-class reduction of each entry; the residues of the two
parts land in W(k) + W(k).  For a prime residue field this module also
decides K-anisotropy, which is what certifies quaternion algebras as
division algebras downstream.

The second residue map depends on the uniformizer; it is taken relative
to the fixed choice t throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_fields import (
    PrimeField,
    QuadFormRes,
    WittClassQuadFinite,
    is_isotropic_quad_finite,
    witt_class_quad,
)
from .errors import UnsupportedField, ZeroInput
from .valued_field import LaurentField


@dataclass(frozen=True)
class QuadFormK:
    """Diagonal quadratic form with nonzero entries over K."""

    field: LaurentField
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            e._require_nonzero("quadratic form entry")

    @property
    def dim(self):
        return len(self.entries)

    def orth_sum(self, other: "QuadFormK") -> "QuadFormK":
        return QuadFormK(self.field, self.entries + other.entries)

    def negated(self) -> "QuadFormK":
        return QuadFormK(self.field, tuple(-e for e in self.entries))

    def __str__(self):
        return "<" + ", ".join(str(e) for e in self.entries) + ">"


def springer_split(q: QuadFormK) -> tuple[QuadFormK, QuadFormK]:
    """Split q into unit-entry parts (q0, q1) with q ~ q0 + t*q1.

    Each entry c is replaced by c*t^(-2*floor(v(c)/2)), a move inside its
    square class; even-valuation entries go to q0, odd ones are divided by
    t and go to q1.
    """
    q0_entries, q1_entries = [], []
    for c in q.entries:
        v = c.valuation()
        unit_or_t = c.shift(-2 * (v // 2))
        if v % 2 == 0:
            q0_entries.append(unit_or_t)
        else:
            q1_entries.append(unit_or_t.shift(-1))
    return QuadFormK(q.field, tuple(q0_entries)), QuadFormK(q.field, tuple(q1_entries))


def residue_form(q: QuadFormK) -> QuadFormRes:
    """Entry-wise residue of a unit-entry form."""
    entries = []
    for e in q.entries:
        r = e.residue()
        if r.is_zero():
            raise ZeroInput("entry is not a unit")
        entries.append(r)
    return QuadFormRes(q.field.residue, tuple(entries))


def springer_boundary(q: QuadFormK) -> tuple[WittClassQuadFinite, WittClassQuadFinite]:
    """The pair ([q0 residue], [q1 residue]) of canonical Witt classes."""
    if not isinstance(q.field.residue, PrimeField):
        raise UnsupportedField("springer_boundary needs a finite residue field")
    q0, q1 = springer_split(q)
    return witt_class_quad(residue_form(q0)), witt_class_quad(residue_form(q1))


def is_anisotropic_quad_K(q: QuadFormK) -> bool:
    """K-anisotropy via both residue forms (Springer, both directions)."""
    if not isinstance(q.field.residue, PrimeField):
        raise UnsupportedField("anisotropy decision needs a finite residue field")
    q0, q1 = springer_split(q)
    return not is_isotropic_quad_finite(residue_form(q0)) and not is_isotropic_quad_finite(
        residue_form(q1)
    )
