"""The acceptance property suites, runnable from tests or the CLI.

Each suite mirrors one acceptance criterion, is deterministic for a fixed
seed, and reports trial/failure counts.  Oracles stay independent of the
code paths they check: isotropy and Witt triviality over the finite
fields are decided by exhaustive enumeration and Gram-matrix hyperbolic
splitting, never by the decision rules under test.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field

from .base_fields import (
    PrimeField,
    QuadFormRes,
    brute_force_isotropic,
    is_isotropic_quad_finite,
    witt_class_quad,
)
from .errors import SplitAlgebra
from .hermitian import (
    VERIFY_HALF_UNITS,
    HermitianForm,
    hensel_lift_isometry,
    larmour_decompose,
)
from .involutions import classify_case, symmetric_uniformizer
from .quad_forms import QuadFormK, springer_boundary
from .quaternion import normalize_presentation, residue_D, valuation_D
from .random_forms import (
    ALL_CASE_LABELS,
    B_CASE_LABELS,
    case_record,
    case_setup,
    finite_field,
    ramified_algebra,
    rand_form,
    rand_laurent,
    rand_sym_unit,
    rand_unit,
)
from .residue_maps import boundary, d0, d1, divergence_warnings

DEFAULT_SEED = 42


@dataclass
class SuiteResult:
    criterion: int
    name: str
    trials: int
    failures: int
    elapsed: float
    notes: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] criterion {self.criterion}: {self.name} "
            f"({self.trials - self.failures}/{self.trials} checks)"
        )


def _run(criterion, name, fn):
    start = time.perf_counter()
    trials, failures, notes = fn()
    return SuiteResult(criterion, name, trials, failures, time.perf_counter() - start, notes)


# ---------------------------------------------------------------------------
# criterion 1: classification fixtures reproduce every table column
# ---------------------------------------------------------------------------

EXPECTED_ROWS = {
    "A11": dict(j=1, pi_prime="pi", sigma="tau", residue_algebra="QDA", res_inv0="tau_bar",
                eps=1, pi_dblprime="pi", s_eps=1, sym_basis=["1"], res_inv1="tau_bar"),
    "A12": dict(j=1, pi_prime="pi*x", sigma="tau", residue_algebra="QDA", res_inv0="tau_bar",
                eps=-1, pi_dblprime="pi*x", s_eps=1, sym_basis=["x", "y", "z"], res_inv1="tau_x_bar"),
    "A21": dict(j=1, pi_prime="pi", sigma="tau_x", residue_algebra="QDA", res_inv0="tau_x_bar",
                eps=1, pi_dblprime="pi", s_eps=1, sym_basis=["1", "y", "z"], res_inv1="tau_x_bar"),
    "A22": dict(j=1, pi_prime="pi*x", sigma="tau_x", residue_algebra="QDA", res_inv0="tau_x_bar",
                eps=-1, pi_dblprime="pi*x", s_eps=1, sym_basis=["x"], res_inv1="tau_bar"),
    "B11": dict(j=2, pi_prime="y", sigma="tau", residue_algebra="QuadExt", res_inv0="iota",
                eps=1, pi_dblprime="pi", s_eps=2, sym_basis=["1"], res_inv1=None),
    "B12": dict(j=2, pi_prime="y", sigma="tau", residue_algebra="QuadExt", res_inv0="iota",
                eps=-1, pi_dblprime="y", s_eps=1, sym_basis=["x", "y", "z"], res_inv1="identity"),
    "B211": dict(j=2, pi_prime="y", sigma="tau_x", residue_algebra="QuadExt", res_inv0="iota",
                 eps=1, pi_dblprime="y", s_eps=1, sym_basis=["1", "y", "z"], res_inv1="identity"),
    "B212": dict(j=2, pi_prime="y", sigma="tau_x", residue_algebra="QuadExt", res_inv0="iota",
                 eps=-1, pi_dblprime="pi*x", s_eps=2, sym_basis=["x"], res_inv1=None),
    "B221": dict(j=2, pi_prime="z", sigma="tau_y", residue_algebra="QuadExt", res_inv0="identity",
                 eps=1, pi_dblprime="z", s_eps=1, sym_basis=["1", "x", "z"], res_inv1="identity"),
    "B222": dict(j=2, pi_prime="y", sigma="tau_y", residue_algebra="QuadExt", res_inv0="identity",
                 eps=-1, pi_dblprime="y", s_eps=1, sym_basis=["y"], res_inv1="iota"),
}

EXPECTED_SPANS = {
    "A11": (["1"], ["1"]), "A12": (["x", "y", "z"], ["x", "y", "z"]),
    "A21": (["1", "y", "z"], ["1", "y", "z"]), "A22": (["x"], ["x"]),
    "B11": (["1"], []), "B12": (["x"], ["y", "z"]), "B211": (["1"], ["y", "z"]),
    "B212": (["x"], []), "B221": (["1", "x"], ["z"]), "B222": ([], ["y"]),
}


def suite_classification_fixtures(seed=DEFAULT_SEED):
    def body():
        trials = failures = 0
        notes = []
        seen = set()
        fixtures = [("B", p) for p in (3, 5)] + [("A", None)]
        for family, p in fixtures:
            labels = B_CASE_LABELS if family == "B" else ("A11", "A12", "A21", "A22")
            for label in labels:
                algebra, sigma, eps = case_setup(label, p or 3)
                record = classify_case(algebra, sigma, eps)
                got = record.to_dict()
                want = dict(EXPECTED_ROWS[label], case=label)
                want["h0_span"], want["h1_span"] = EXPECTED_SPANS[label]
                trials += 1
                if got != want:
                    failures += 1
                    notes.append(f"{label}: {got} != {want}")
                seen.add(record.label)
        if seen != set(ALL_CASE_LABELS):
            failures += 1
            notes.append(f"labels reached: {sorted(seen)}")
        trials += 1
        return trials, failures, notes

    return _run(1, "table reproduction over the fixture set", body)


# ---------------------------------------------------------------------------
# criterion 2: symmetric uniformizers in all odd-s cases
# ---------------------------------------------------------------------------


def suite_uniformizer(seed=DEFAULT_SEED, trials=200):
    odd_labels = [c for c in ALL_CASE_LABELS if EXPECTED_ROWS[c]["s_eps"] == 1]

    def body():
        rng = random.Random(seed + 2)
        failures = 0
        notes = []
        for i in range(trials):
            label = odd_labels[i % len(odd_labels)]
            p = rng.choice((3, 5))
            if label.startswith("B") and rng.random() < 0.5:
                algebra = ramified_algebra(p, unit_b=True)
                _, sigma, eps = case_setup(label, p)
            else:
                algebra, sigma, eps = case_setup(label, p)
            record = classify_case(algebra, sigma, eps)
            w = symmetric_uniformizer(record, sigma)
            sym_ok = (sigma.apply(w) - (w if eps == 1 else -w)).is_exact_zero()
            val_ok = valuation_D(w).numerator * record.j == 2
            if not (sym_ok and val_ok):
                failures += 1
                notes.append(f"{label}: sym={sym_ok} val={val_ok}")
        return trials, failures, notes

    return _run(2, "eps-symmetric uniformizers (odd s)", body)


# ---------------------------------------------------------------------------
# criterion 3: witness soundness across all ten cases
# ---------------------------------------------------------------------------


def suite_witness_soundness(seed=DEFAULT_SEED, forms=500):
    def body():
        rng = random.Random(seed + 3)
        failures = 0
        notes = []
        records = {}
        for i in range(forms):
            label = ALL_CASE_LABELS[i % len(ALL_CASE_LABELS)]
            p = (3, 5)[i % 2]
            key = (label, p)
            if key not in records:
                records[key] = case_record(label, p)
            record = records[key]
            h = rand_form(rng, record, max_dim=2)
            split = larmour_decompose(h, record)
            pattern = record.sigma.pattern
            for w in split.witnesses:
                if w.residual_half_units(pattern) < VERIFY_HALF_UNITS:
                    failures += 1
                    notes.append(f"{label} p={p}: residual below threshold")
        return forms, failures, notes

    return _run(3, "isometry witness soundness (500 forms)", body)


# ---------------------------------------------------------------------------
# criterion 4: Hensel round trips
# ---------------------------------------------------------------------------


def suite_hensel_roundtrip(seed=DEFAULT_SEED, trials=100):
    # every ramified case whose symmetric span contains a unit slot
    labels = ("B11", "B12", "B211", "B212", "B221")

    def body():
        rng = random.Random(seed + 4)
        failures = 0
        notes = []
        records = {}
        for i in range(trials):
            label = labels[i % len(labels)]
            p = (3, 5)[i % 2]
            key = (label, p)
            if key not in records:
                records[key] = case_record(label, p)
            record = records[key]
            v1 = rand_sym_unit(rng, record)
            t0 = rand_unit(rng, record.algebra)
            pattern = record.sigma.pattern
            v0 = record.sigma.apply(t0) * v1 * t0
            theta = residue_D(t0)
            t = hensel_lift_isometry(v0, v1, theta, pattern, max_iterations=7)
            resid = record.sigma.apply(t) * v1 * t - v0
            from .quaternion import val_floor_half_units

            ok = val_floor_half_units(resid) >= VERIFY_HALF_UNITS and residue_D(t) == theta
            if not ok:
                failures += 1
                notes.append(f"{label} p={p}: round trip failed")
        return trials, failures, notes

    return _run(4, "Hensel lifting round trips (<= 7 iterations)", body)


# ---------------------------------------------------------------------------
# criterion 5: boundary is a homomorphism with hyperbolic kernel
# ---------------------------------------------------------------------------


def suite_boundary_homomorphism(seed=DEFAULT_SEED, pairs_per_case=200, zero_trials=100):
    def body():
        rng = random.Random(seed + 5)
        failures = 0
        notes = []
        records = {}
        trials = 0

        def rec(label, p):
            if (label, p) not in records:
                records[(label, p)] = case_record(label, p)
            return records[(label, p)]

        for label in B_CASE_LABELS:
            for i in range(pairs_per_case):
                p = (3, 5)[i % 2]
                record = rec(label, p)
                d1_dim, d2_dim = rng.choice((1, 1, 1, 2)), rng.choice((1, 1, 1, 2))
                h1f = rand_form(rng, record, max_dim=d1_dim, min_dim=d1_dim)
                h2f = rand_form(rng, record, max_dim=d2_dim, min_dim=d2_dim)
                lhs = boundary(h1f.orth_sum(h2f), record)
                rhs = boundary(h1f, record) + boundary(h2f, record)
                trials += 1
                if lhs != rhs:
                    failures += 1
                    notes.append(f"{label} p={p}: additivity broke")
        for i in range(zero_trials):
            label = B_CASE_LABELS[i % len(B_CASE_LABELS)]
            p = (3, 5)[i % 2]
            record = rec(label, p)
            h = rand_form(rng, record, max_dim=2)
            trials += 1
            if not boundary(h.orth_sum(h.negated()), record).is_zero():
                failures += 1
                notes.append(f"{label} p={p}: h + (-h) not in the kernel")
        return trials, failures, notes

    return _run(5, "boundary additivity and hyperbolic kernel", body)


# ---------------------------------------------------------------------------
# criterion 6: well-definedness under entry conjugation
# ---------------------------------------------------------------------------


def suite_well_definedness(seed=DEFAULT_SEED, trials_per_case=100):
    def body():
        rng = random.Random(seed + 6)
        failures = 0
        notes = []
        trials = 0
        for label in B_CASE_LABELS:
            record3 = case_record(label, 3)
            record5 = case_record(label, 5)
            for i in range(trials_per_case):
                record = record3 if i % 2 == 0 else record5
                h = rand_form(rng, record, max_dim=2)
                conj_entries = []
                for u in h.entries:
                    t = rand_unit(rng, record.algebra)
                    conj_entries.append(record.sigma.apply(t) * u * t)
                h_conj = HermitianForm(record.algebra, record.sigma, record.eps, tuple(conj_entries))
                trials += 1
                if boundary(h, record) != boundary(h_conj, record):
                    failures += 1
                    notes.append(f"{label}: boundary moved under conjugation")
        return trials, failures, notes

    return _run(6, "boundary invariance under entry conjugation", body)


# ---------------------------------------------------------------------------
# criterion 7: even-s cases are entirely unramified
# ---------------------------------------------------------------------------


def suite_remark_even_s(seed=DEFAULT_SEED, trials_per_case=100):
    def body():
        rng = random.Random(seed + 7)
        failures = 0
        notes = []
        trials = 0
        for label in ("B11", "B212"):
            for i in range(trials_per_case):
                record = case_record(label, (3, 5)[i % 2])
                h = rand_form(rng, record, max_dim=3, min_val=-2, max_val=3)
                split = larmour_decompose(h, record)
                trials += 1
                if split.h1.entries:
                    failures += 1
                    notes.append(f"{label}: nonempty h1")
        return trials, failures, notes

    return _run(7, "even-s cases decompose with empty ramified part", body)


# ---------------------------------------------------------------------------
# criterion 8: the Springer engine
# ---------------------------------------------------------------------------


def suite_springer(seed=DEFAULT_SEED, pairs=200):
    def body():
        rng = random.Random(seed + 8)
        failures = 0
        notes = []
        trials = 0
        for i in range(pairs):
            p = (3, 5)[i % 2]
            K = finite_field(p)
            dim1, dim2 = rng.randint(1, 3), rng.randint(1, 3)
            q1 = QuadFormK(K, tuple(rand_laurent(rng, K, -2, 3) for _ in range(dim1)))
            q2 = QuadFormK(K, tuple(rand_laurent(rng, K, -2, 3) for _ in range(dim2)))
            lhs = springer_boundary(q1.orth_sum(q2))
            rhs0 = springer_boundary(q1)
            rhs1 = springer_boundary(q2)
            trials += 1
            if lhs != (rhs0[0] + rhs1[0], rhs0[1] + rhs1[1]):
                failures += 1
                notes.append(f"p={p}: additivity broke")
        for p in (3, 5):
            K = finite_field(p)
            u = K.nonsquare_unit()
            for c in (K.one(), u, K.t(), u * K.t()):
                q = QuadFormK(K, (c, -c))
                b0, b1 = springer_boundary(q)
                trials += 1
                if not (b0.is_zero() and b1.is_zero()):
                    failures += 1
                    notes.append(f"p={p}: <c,-c> survived for c={c}")
        for p in (3, 5):
            K = finite_field(p)
            trials += 1
            try:
                normalize_presentation(K, K.const(2), K.t())
            except SplitAlgebra:
                failures += 1
                notes.append(f"(2,t) over F_{p} flagged split")
        K = finite_field(3)
        trials += 1
        try:
            normalize_presentation(K, K.one(), K.t())
            failures += 1
            notes.append("(1,t) not recognized as split")
        except SplitAlgebra:
            pass
        return trials, failures, notes

    return _run(8, "Springer boundary engine and division oracle", body)


# ---------------------------------------------------------------------------
# criterion 9: Witt arithmetic against enumeration oracles
# ---------------------------------------------------------------------------


def _gram_eval(field, gram, vec):
    acc = field.zero_raw
    n = len(gram)
    for i in range(n):
        for j in range(n):
            acc = field.add(acc, field.mul(gram[i][j], field.mul(vec[i], vec[j])))
    return acc


def _gram_bilinear(field, gram, v, w):
    acc = field.zero_raw
    n = len(gram)
    for i in range(n):
        for j in range(n):
            acc = field.add(acc, field.mul(gram[i][j], field.mul(v[i], w[j])))
    return acc


def _iter_vectors(field, n):
    elems = list(field.all_raw())
    total = len(elems) ** n
    for k in range(total):
        vec, kk = [], k
        for _ in range(n):
            vec.append(elems[kk % len(elems)])
            kk //= len(elems)
        yield tuple(vec)


def _find_isotropic(field, gram):
    n = len(gram)
    for vec in _iter_vectors(field, n):
        if all(field.is_zero(c) for c in vec):
            continue
        if field.is_zero(_gram_eval(field, gram, vec)):
            return vec
    return None


def _restrict_to_complement(field, gram, v, w):
    """Gram matrix on the orthogonal complement of the hyperbolic pair (v, w)."""
    n = len(gram)
    bv = _gram_bilinear(field, gram, v, w)
    bv_inv = field.inv(bv)
    # make w isotropic too: w -= v * q(w) / (2 B(v,w))
    qw = _gram_eval(field, gram, w)
    if not field.is_zero(qw):
        corr = field.mul(qw, field.inv(field.add(bv, bv)))
        w = [field.sub(w[i], field.mul(corr, v[i])) for i in range(n)]
    basis = []
    for k in range(n):
        e = [field.zero_raw] * n
        e[k] = field.one_raw
        # subtract projections onto v and w (both isotropic, B(v,w) = bv)
        c_w = field.mul(_gram_bilinear(field, gram, e, v), bv_inv)
        c_v = field.mul(_gram_bilinear(field, gram, e, w), bv_inv)
        cand = [
            field.sub(e[i], field.add(field.mul(c_v, v[i]), field.mul(c_w, w[i])))
            for i in range(n)
        ]
        basis.append(cand)
    # pick n-2 independent vectors by Gaussian elimination
    independent = []
    rows = []
    for cand in basis:
        row = list(cand)
        for pivot_col, pivot_row in rows:
            factor = row[pivot_col]
            if not field.is_zero(factor):
                row = [field.sub(row[i], field.mul(factor, pivot_row[i])) for i in range(n)]
        lead = next((i for i, c in enumerate(row) if not field.is_zero(c)), None)
        if lead is None:
            continue
        inv_lead = field.inv(row[lead])
        row = [field.mul(inv_lead, c) for c in row]
        rows.append((lead, row))
        independent.append(cand)
        if len(independent) == n - 2:
            break
    sub = [
        [_gram_bilinear(field, gram, a, b) for b in independent]
        for a in independent
    ]
    return sub


def brute_witt_trivial(field, entries) -> bool:
    """Witt triviality by repeated hyperbolic splitting (enumeration only)."""
    gram = [
        [entries[i] if i == j else field.zero_raw for j in range(len(entries))]
        for i in range(len(entries))
    ]
    while gram:
        if len(gram) % 2 == 1:
            return False
        v = _find_isotropic(field, gram)
        if v is None:
            return False
        n = len(gram)
        w = None
        for cand in _iter_vectors(field, n):
            if not field.is_zero(_gram_bilinear(field, gram, v, cand)):
                w = cand
                break
        gram = _restrict_to_complement(field, gram, v, w)
    return True


def suite_witt_oracles(seed=DEFAULT_SEED):
    from itertools import combinations_with_replacement

    def body():
        failures = 0
        notes = []
        trials = 0
        for p in (3, 5):
            field = PrimeField(p)
            reps = (field.one_raw, field.nonsquare_raw())
            forms = [
                combo
                for dim in (1, 2, 3, 4)
                for combo in combinations_with_replacement(reps, dim)
            ]
            classes = set()
            for entries in forms:
                q = QuadFormRes(field, entries)
                trials += 1
                if is_isotropic_quad_finite(q) != brute_force_isotropic(q):
                    failures += 1
                    notes.append(f"F_{p} {q}: isotropy rule vs enumeration")
                cls = witt_class_quad(q)
                classes.add((cls.rank_parity, cls.disc))
                trials += 1
                if cls.is_zero() != brute_witt_trivial(field, list(entries)):
                    failures += 1
                    notes.append(f"F_{p} {q}: zero class vs brute splitting")
            trials += 1
            if len(classes | {(0, None)}) != 4:
                failures += 1
                notes.append(f"F_{p}: reached classes {classes}")
        # W(F_3) has an order-4 generator: the class of <1>
        field = PrimeField(3)
        one = witt_class_quad(QuadFormRes(field, (1,)))
        two = one + one
        four = two + two
        trials += 1
        if two.is_zero() or not four.is_zero():
            failures += 1
            notes.append("W(F_3) order-4 structure broke")
        return trials, failures, notes

    return _run(9, "Witt reducers against enumeration oracles", body)


# ---------------------------------------------------------------------------
# criterion 10: tabulated residue shapes
# ---------------------------------------------------------------------------


def _sample_entries(record, rng):
    """One generic entry per nonempty part, already at its target value."""
    span_idx = {"1": 0, "x": 1, "y": 2, "z": 3}
    K = record.algebra.base
    out = []
    for part, span in ((0, record.h0_span), (1, record.h1_span)):
        if not span:
            continue
        want = 0 if part == 0 else 2 // record.j  # target value in half-units
        for _ in range(50):
            coords = [K.zero()] * 4
            for name in record.sym_basis:
                if record.algebra.ramified:
                    # unit parts lead on {1,x}, ramified parts on {y,z}
                    lo = 0 if (name in ("1", "x")) == (part == 0) else 1
                else:
                    lo = part
                coords[span_idx[name]] = rand_laurent(rng, K, lo, lo + 1)
            u = record.algebra.elem(*coords)
            if not u.is_possibly_zero() and valuation_D(u).numerator == want:
                out.append((part, u))
                break
    return out


def suite_residue_shapes(seed=DEFAULT_SEED):
    def body():
        rng = random.Random(seed + 10)
        failures = 0
        notes = []
        trials = 0
        for label in ALL_CASE_LABELS:
            record = case_record(label, 3)
            pairs = _sample_entries(record, rng)
            h = HermitianForm(record.algebra, record.sigma, record.eps, tuple(u for _, u in pairs))
            split = larmour_decompose(h, record)
            r0 = d0(split, record)
            trials += 1
            if not _d0_shape_ok(record, split, r0):
                failures += 1
                notes.append(f"{label}: d0 shape off")
            if record.s_eps == 1:
                r1 = d1(split, record)
                trials += 1
                if not _d1_matches_definition(record, split, r1):
                    failures += 1
                    notes.append(f"{label}: d1 definition value off")
                if label in ("A12", "B221"):
                    trials += 1
                    if not divergence_warnings(record):
                        failures += 1
                        notes.append(f"{label}: missing divergence warning")
                else:
                    trials += 1
                    if not _d1_matches_table(record, split, r1):
                        failures += 1
                        notes.append(f"{label}: d1 tabulated value off")
        return trials, failures, notes

    return _run(10, "tabulated residue shapes (d0 all rows, d1 convergent rows)", body)


def _d0_shape_ok(record, split, r0) -> bool:
    """d0 entries are the coordinate residues supported on the h0 span."""
    span_idx = {"1": 0, "x": 1, "y": 2, "z": 3}
    allowed = {span_idx[n] for n in record.h0_span}
    for u, e in zip(split.h0.entries, r0.entries):
        if record.algebra.ramified:
            want = (u.c1.residue().raw, u.cx.residue().raw)
            if e.raw != want:
                return False
            if 0 not in allowed and want[0] != 0:
                return False
            if 1 not in allowed and want[1] != 0:
                return False
        else:
            for idx in range(4):
                res = u.co[idx].residue().raw
                if e.co[idx] != res:
                    return False
                if idx not in allowed and res != 0:
                    return False
    return not (record.h0_span == () and split.h0.entries)


def _d1_matches_definition(record, split, r1) -> bool:
    """d1 equals the residue of v * pi'^{-1} computed independently."""
    pivot_inv = record.pi_prime.inv()
    for v, e in zip(split.h1.entries, r1.entries):
        if residue_D(v * pivot_inv) != e:
            return False
    return True


def _d1_matches_table(record, split, r1) -> bool:
    """The printed h1-column on the six convergent rows."""
    K = record.algebra.base
    for v, e in zip(split.h1.entries, r1.entries):
        d, a, b, g = v.co
        if record.label == "A11":
            want = record.algebra.elem(d * K.t(-1), 0, 0, 0)
        elif record.label == "A21":
            want = record.algebra.elem(d * K.t(-1), K.zero(), b * K.t(-1), g * K.t(-1))
        elif record.label == "A22":
            want = record.algebra.elem(a * K.t(-1), 0, 0, 0)
        elif record.label in ("B12", "B211"):
            return all(
                e.raw == (v.cy.residue().raw, v.cz.residue().raw)
                for v, e in zip(split.h1.entries, r1.entries)
            )
        elif record.label == "B222":
            return all(
                e.raw == (v.cy.residue().raw, 0)
                for v, e in zip(split.h1.entries, r1.entries)
            )
        else:
            return False
        if residue_D(want) != e:
            return False
    return True


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

ALL_SUITES = (
    suite_classification_fixtures,
    suite_uniformizer,
    suite_witness_soundness,
    suite_hensel_roundtrip,
    suite_boundary_homomorphism,
    suite_well_definedness,
    suite_remark_even_s,
    suite_springer,
    suite_witt_oracles,
    suite_residue_shapes,
)


def run_all(seed: int = DEFAULT_SEED, quick: bool = False) -> list:
    """Run every suite; ``quick`` shrinks the trial counts for smoke runs."""
    results = []
    for fn in ALL_SUITES:
        if quick and fn is suite_witness_soundness:
            results.append(fn(seed, forms=60))
        elif quick and fn is suite_boundary_homomorphism:
            results.append(fn(seed, pairs_per_case=20, zero_trials=12))
        elif quick and fn is suite_well_definedness:
            results.append(fn(seed, trials_per_case=10))
        elif quick and fn is suite_hensel_roundtrip:
            results.append(fn(seed, trials=20))
        elif quick and fn is suite_uniformizer:
            results.append(fn(seed, trials=40))
        elif quick and fn is suite_remark_even_s:
            results.append(fn(seed, trials_per_case=20))
        elif quick and fn is suite_springer:
            results.append(fn(seed, pairs=40))
        else:
            results.append(fn(seed))
    return results


def report(results, include_timing: bool = False) -> str:
    lines = [r.line() + (f" [{r.elapsed:.2f}s]" if include_timing else "") for r in results]
    total_fail = sum(r.failures for r in results)
    lines.append(
        f"{'ALL PASS' if total_fail == 0 else 'FAILURES: %d' % total_fail} "
        f"({len(results)} suites)"
    )
    return "\n".join(lines)
