"""The residue maps of the decomposition, specialized to the ten cases.

d0 takes entry-wise residues of the unit part; d1 takes residues of
v * pi'^{-1} over the twisted residue structure.  d1 follows that
definition as the source of truth: two tabulated rows differ from the
direct computation (the z-term of the unramified skew case picks up a
-1/a factor, and the value-1/2 tau_y case yields <gammabar> rather than
<gammabar*xbar>); those rows carry warnings instead of being forced to
match, and their Witt-level behaviour is what the tests pin down.

Over a finite residue field (necessarily the ramified cases) the forms
reduce to canonical Witt classes: four quadratic classes over k(xbar),
or rank mod 2 for (skew-)hermitian forms over (k(xbar), iota), the skew
side scaled onto the hermitian side by xbar^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_fields import (
    PrimeField,
    QuadExtField,
    QuadFormRes,
    ResElem,
    WittClassQuadFinite,
    is_isotropic_quad_finite,
    witt_class_herm_quadext,
    witt_class_quad,
)
from .errors import (
    RamifiedPartForbidden,
    StructureMismatch,
    UnsupportedField,
    ZeroInput,
)
from .hermitian import HermitianForm, LarmourSplit, larmour_decompose
from .involutions import (
    IDENTITY,
    IOTA,
    QDA,
    TAU_BAR,
    CaseRecord,
    classify_case,
)
from .quaternion import ResQuatElem, residue_D, residue_field_extension

QUAD_OVER_K = "quad_over_k"
QUAD_OVER_EXT = "quad_over_ext"
HERM_OVER_EXT = "herm_over_ext"
SKEW_HERM_OVER_EXT = "skew_herm_over_ext"
HERM_OVER_QDA = "herm_over_qda"
SKEW_HERM_OVER_QDA = "skew_herm_over_qda"


@dataclass(frozen=True)
class ResidueTargetDesc:
    structure: str
    involution: str | None = None

    def __str__(self):
        inv = f", {self.involution}" if self.involution else ""
        return f"{self.structure}{inv}"


def residue_targets(record: CaseRecord) -> tuple[ResidueTargetDesc, ResidueTargetDesc | None]:
    """Target structures of (d0, d1) for this case; d1 is None when s = 2."""

    def target(inv_tag: str, eps_for_sign: int) -> ResidueTargetDesc:
        if record.residue_algebra == QDA:
            structure = HERM_OVER_QDA if eps_for_sign == 1 else SKEW_HERM_OVER_QDA
            return ResidueTargetDesc(structure, inv_tag)
        if inv_tag == IOTA:
            structure = HERM_OVER_EXT if eps_for_sign == 1 else SKEW_HERM_OVER_EXT
            return ResidueTargetDesc(structure, IOTA)
        return ResidueTargetDesc(QUAD_OVER_EXT, IDENTITY)

    t0 = target(record.res_inv0, record.eps)
    if record.s_eps == 2:
        return t0, None
    # the second residue form is hermitian over the twisted involution
    return t0, target(record.res_inv1, 1)


def divergence_warnings(record: CaseRecord) -> tuple:
    """Documented rows where d1 differs from the printed tabulation."""
    if record.label == "A12":
        return (
            "case A12: d1 computes pi^{-1}(alpha - gamma*y - (beta/a)*z); the "
            "tabulated z-term differs by the factor -1/a",
        )
    if record.label == "B221":
        return (
            "case B221: d1 computes <gammabar> from residue of gamma*z*z^{-1}; "
            "the tabulated value carries an extra xbar scaling",
        )
    return ()


@dataclass(frozen=True)
class ResidueForm:
    """Entries of a residue form together with its target structure."""

    target: ResidueTargetDesc
    entries: tuple

    @property
    def dim(self):
        return len(self.entries)

    def __str__(self):
        return f"<{', '.join(str(e) for e in self.entries)}> in {self.target}"


def _validate_residue_entry(target: ResidueTargetDesc, entry):
    if isinstance(entry, ResQuatElem):
        if entry.is_zero():
            raise ZeroInput("zero residue entry")
        if target.structure not in (HERM_OVER_QDA, SKEW_HERM_OVER_QDA):
            raise StructureMismatch("quaternion residue entry in a field target")
        pattern = (1, -1, -1, -1) if target.involution == TAU_BAR else (1, -1, 1, 1)
        eps = 1 if target.structure == HERM_OVER_QDA else -1
        fixed = entry.apply_signs(pattern)
        want = entry if eps == 1 else -entry
        if fixed != want:
            raise StructureMismatch("residue entry not symmetric for the target involution")
        return
    if not isinstance(entry, ResElem):
        raise StructureMismatch(f"unexpected residue entry {type(entry).__name__}")
    if entry.is_zero():
        raise ZeroInput("zero residue entry")
    if target.structure == HERM_OVER_EXT and entry.raw[1] != 0:
        raise StructureMismatch("hermitian residue entry must be iota-fixed")
    if target.structure == SKEW_HERM_OVER_EXT and entry.raw[0] != 0:
        raise StructureMismatch("skew-hermitian residue entry must be iota-skew")


def d0(split: LarmourSplit, record: CaseRecord) -> ResidueForm:
    """Entry-wise residues of the unit part."""
    target = residue_targets(record)[0]
    entries = tuple(residue_D(u) for u in split.h0.entries)
    for e in entries:
        _validate_residue_entry(target, e)
    return ResidueForm(target, entries)


def d1(split: LarmourSplit, record: CaseRecord) -> ResidueForm:
    """Entry-wise residues of v * pi'^{-1} (the defining formula)."""
    target = residue_targets(record)[1]
    if target is None:
        raise RamifiedPartForbidden(f"case {record.label} has s_eps = 2")
    pivot_inv = record.pi_prime.inv()
    entries = tuple(residue_D(v * pivot_inv) for v in split.h1.entries)
    for e in entries:
        _validate_residue_entry(target, e)
    return ResidueForm(target, entries)


# ---------------------------------------------------------------------------
# canonical Witt classes of residue forms (finite residue fields)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermRankClass:
    """Witt class of a (skew-)hermitian form over (F_{p^2}, iota): rank mod 2."""

    field: QuadExtField
    parity: int
    skew: bool = False

    def is_zero(self) -> bool:
        return self.parity == 0

    def __add__(self, other: "HermRankClass") -> "HermRankClass":
        if (self.field, self.skew) != (other.field, other.skew):
            raise StructureMismatch("mismatched hermitian class targets")
        return HermRankClass(self.field, (self.parity + other.parity) % 2, self.skew)

    def __str__(self):
        return f"rank_parity={self.parity}"


def residue_witt_class(form: ResidueForm, ext: QuadExtField):
    """Canonical class of a residue form over the finite residue structures."""
    structure = form.target.structure
    if structure == QUAD_OVER_EXT:
        if not form.entries:
            return WittClassQuadFinite(ext, 0, None)
        return witt_class_quad(QuadFormRes(ext, form.entries))
    if structure == HERM_OVER_EXT:
        return HermRankClass(ext, witt_class_herm_quadext(ext, form.entries), skew=False)
    if structure == SKEW_HERM_OVER_EXT:
        # scale <w> -> <w * xbar^{-1}> onto the hermitian side (xbar is
        # iota-skew and the scaling is a group isomorphism)
        xbar_inv = ext.gen().inv()
        scaled = tuple(e * xbar_inv for e in form.entries)
        return HermRankClass(ext, witt_class_herm_quadext(ext, scaled), skew=True)
    raise UnsupportedField(f"no canonical Witt reduction for {form.target}")


@dataclass(frozen=True)
class BoundaryClass:
    """Canonical classes of (d0, d1); c1 is absent when s = 2."""

    c0: object
    c1: object | None

    def is_zero(self) -> bool:
        return self.c0.is_zero() and (self.c1 is None or self.c1.is_zero())

    def __add__(self, other: "BoundaryClass") -> "BoundaryClass":
        if (self.c1 is None) != (other.c1 is None):
            raise StructureMismatch("mismatched boundary shapes")
        c1 = None if self.c1 is None else self.c1 + other.c1
        return BoundaryClass(self.c0 + other.c0, c1)

    def __str__(self):
        return f"({self.c0}, {self.c1 if self.c1 is not None else '-'})"


_BOUNDARY_NEEDS_FINITE = (
    "canonical boundary classes need a finite residue field; "
    "use d0/d1 for form-level residues"
)


def _decompose_finite(h: HermitianForm, record: CaseRecord | None, message: str):
    """Shared prelude of the finite-field decisions: check, classify, decompose."""
    if not isinstance(h.algebra.base.residue, PrimeField):
        raise UnsupportedField(message)
    if record is None:
        record = classify_case(h.algebra, h.sigma, h.eps)
    return record, larmour_decompose(h, record)


def split_boundary(split: LarmourSplit, record: CaseRecord) -> BoundaryClass:
    """Reduce both residue forms of a decomposition to canonical Witt classes."""
    if not isinstance(record.algebra.base.residue, PrimeField):
        raise UnsupportedField(_BOUNDARY_NEEDS_FINITE)
    ext = residue_field_extension(record.algebra)
    c0 = residue_witt_class(d0(split, record), ext)
    if record.s_eps == 2:
        return BoundaryClass(c0, None)
    c1 = residue_witt_class(d1(split, record), ext)
    return BoundaryClass(c0, c1)


def boundary(h: HermitianForm, record: CaseRecord | None = None) -> BoundaryClass:
    """Decompose and reduce both residue forms to canonical Witt classes."""
    record, split = _decompose_finite(h, record, _BOUNDARY_NEEDS_FINITE)
    return split_boundary(split, record)


def witt_equal(h1f: HermitianForm, h2f: HermitianForm) -> bool:
    """Witt-class equality via injectivity: boundary of h1 + (-h2) vanishes."""
    if (h1f.algebra, h1f.sigma, h1f.eps) != (h2f.algebra, h2f.sigma, h2f.eps):
        raise StructureMismatch("forms live over different (algebra, sigma, eps)")
    return boundary(h1f.orth_sum(h2f.negated())).is_zero()


def _residue_form_anisotropic(form: ResidueForm, ext: QuadExtField) -> bool:
    structure = form.target.structure
    if structure == QUAD_OVER_EXT:
        if not form.entries:
            return True
        return not is_isotropic_quad_finite(QuadFormRes(ext, form.entries))
    if structure in (HERM_OVER_EXT, SKEW_HERM_OVER_EXT):
        # the norm of the quadratic extension is surjective, so hermitian
        # forms of rank >= 2 are isotropic
        return form.dim <= 1
    raise UnsupportedField(f"no anisotropy rule for {form.target}")


def is_anisotropic_herm(h: HermitianForm) -> bool:
    """Anisotropy over K via anisotropy of both residue forms."""
    record, split = _decompose_finite(h, None, "anisotropy decision needs a finite residue field")
    ext = residue_field_extension(h.algebra)
    if not _residue_form_anisotropic(d0(split, record), ext):
        return False
    if record.s_eps == 2:
        return True
    return _residue_form_anisotropic(d1(split, record), ext)
