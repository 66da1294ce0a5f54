import random

import pytest

from larmour.base_fields import PrimeField
from larmour.errors import (
    NotEpsilonSymmetric,
    ResidueConditionFails,
    UnsupportedRamification,
    ZeroEntry,
)
from larmour.hermitian import (
    VERIFY_HALF_UNITS,
    HermitianForm,
    hensel_lift_isometry,
    larmour_decompose,
    normalize_values,
    scale_entry,
    simplify_ramified_entry,
    simplify_unramified_entry,
    validate_form,
)
from larmour.involutions import InvolutionDesc, classify_case
from larmour.quaternion import QuatElem, residue_D, val_floor_half_units, valuation_D
from larmour.random_forms import (
    ALL_CASE_LABELS,
    case_record,
    rand_form,
    rand_sym_entry,
    rand_sym_unit,
    rand_unit,
)
from larmour.valued_field import LaurentField, hensel_sqrt, parse_laurent
from larmour.quaternion import normalize_presentation

K3 = LaurentField(PrimeField(3))
B3 = normalize_presentation(K3, K3.const(2), K3.t())
TAU = InvolutionDesc.canonical()
TAU_X = InvolutionDesc.twisted("x")
TAU_Y = InvolutionDesc.twisted("y")


class TestValidate:
    def test_scalar_entry_valid_for_tau(self):
        h = HermitianForm(B3, TAU, 1, (B3.scalar(parse_laurent(K3, "1 + t")),))
        assert validate_form(h) is h

    def test_x_not_symmetric_for_tau(self):
        with pytest.raises(NotEpsilonSymmetric):
            validate_form(HermitianForm(B3, TAU, 1, (B3.gen_x(),)))

    def test_skew_entry_for_tau(self):
        h = HermitianForm(B3, TAU, -1, (B3.gen_y() + B3.gen_z(),))
        validate_form(h)

    def test_zero_entry(self):
        with pytest.raises(ZeroEntry):
            validate_form(HermitianForm(B3, TAU, 1, (B3.zero(),)))


class TestScaleEntry:
    def test_down_scale_scalar(self):
        rec = classify_case(B3, TAU, 1)
        u = B3.scalar(K3.t())
        out, w = scale_entry(u, -1, rec, TAU)
        assert out == B3.scalar(K3.const(2))  # y^{-1} t tau(y^{-1}) = -1 = 2
        assert w.residual_half_units(TAU.pattern) >= VERIFY_HALF_UNITS

    def test_up_scale_scalar_unramified(self):
        from larmour.random_forms import rational_algebra

        A = rational_algebra()
        rec = classify_case(A, TAU, 1)
        out, w = scale_entry(A.one(), 1, rec, TAU)
        assert out == A.scalar(A.base.t(2))
        assert w.residual_half_units(TAU.pattern) >= VERIFY_HALF_UNITS

    def test_value_shift_property(self):
        rng = random.Random(0)
        for label in ("B12", "A21"):
            rec = case_record(label)
            sigma = rec.sigma
            for _ in range(50):
                u = rand_sym_entry(rng, rec)
                before = valuation_D(u).numerator
                up, w_up = scale_entry(u, 1, rec, sigma)
                down, w_down = scale_entry(u, -1, rec, sigma)
                assert valuation_D(up).numerator - before == 4 // rec.j
                assert before - valuation_D(down).numerator == 4 // rec.j
                for w in (w_up, w_down):
                    assert w.residual_half_units(sigma.pattern) >= VERIFY_HALF_UNITS

    @pytest.mark.parametrize("label", ALL_CASE_LABELS)
    def test_closed_form_matches_repeated_products(self, label):
        # P = pi'^m built as |m| explicit products of pi' or its inverse
        rec = case_record(label)
        sigma = rec.sigma
        entry = rand_sym_entry(random.Random(8), rec)
        for u in (entry, entry.truncate(12)):
            for sign in (1, -1):
                factor = rec.pi_prime if sign > 0 else rec.pi_prime.inv()
                pivot, done = rec.algebra.one(), 0
                for m in (1, 2, 3, 4, 5, 6, 7, 501):
                    for _ in range(m - done):
                        pivot = pivot * factor
                    done = m
                    out, w = scale_entry(u, sign * m, rec, sigma)
                    assert out == pivot * u * sigma.apply(pivot)
                    assert w.t == sigma.apply(pivot)
                    assert w.source_entry is u and w.target_entry is out


class TestNormalizeValues:
    def test_b11_spec_example(self):
        rec = classify_case(B3, TAU, 1)
        h = HermitianForm(B3, TAU, 1, (B3.scalar(K3.t()), B3.scalar(parse_laurent(K3, "1 + t"))))
        split = normalize_values(h, rec)
        assert [str(e) for e in split.h0.entries] == ["2", "1 + t"]
        assert split.h1.entries == ()

    def test_b12_uniformizer_untouched(self):
        rec = classify_case(B3, TAU, -1)
        h = HermitianForm(B3, TAU, -1, (B3.gen_y(),))
        split = normalize_values(h, rec)
        assert split.h0.entries == () and split.h1.entries == (B3.gen_y(),)

    def test_b12_mixed_value_half(self):
        rec = classify_case(B3, TAU, -1)
        u = B3.gen_x().scale(K3.t()) + B3.gen_y()
        assert valuation_D(u).numerator == 1
        split = normalize_values(HermitianForm(B3, TAU, -1, (u,)), rec)
        assert split.h1.entries == (u,)

    def test_preserves_count_and_symmetry(self):
        rng = random.Random(1)
        for label in ALL_CASE_LABELS:
            rec = case_record(label)
            h = rand_form(rng, rec, max_dim=3, min_val=-2, max_val=3)
            split = normalize_values(h, rec)
            assert split.h0.dim + split.h1.dim == h.dim
            validate_form(split.h0)
            validate_form(split.h1)
            for e in split.h0.entries:
                assert valuation_D(e).numerator == 0
            for e in split.h1.entries:
                assert valuation_D(e).numerator == 2 // rec.j
            # integrality: normalized entries have O_K coordinates
            for e in split.h0.entries + split.h1.entries:
                assert all(c.is_exact_zero() or c.valuation() >= 0 for c in e.co)


class TestHenselLift:
    def test_equal_units_immediate(self):
        from larmour.hermitian import LIFT_WORKING_PREC

        v = B3.one() + B3.gen_x().scale(K3.t())  # symmetric for tau_y
        t = hensel_lift_isometry(v, v, B3.one(), TAU_Y.pattern)
        assert t == B3.one().truncate(LIFT_WORKING_PREC)

    def test_scalar_case_matches_hensel_sqrt(self):
        v0 = B3.scalar(parse_laurent(K3, "1 + t"))
        t = hensel_lift_isometry(v0, B3.one(), B3.one(), TAU.pattern)
        assert all(c.is_possibly_zero() for c in t.co[1:])
        s = hensel_sqrt(parse_laurent(K3, "1 + t"))
        assert (t.co[0] - s).vanishes_below(16)

    def test_residue_condition_checked(self):
        with pytest.raises(ResidueConditionFails):
            hensel_lift_isometry(
                B3.scalar(K3.const(2)), B3.one(), B3.one(), TAU.pattern
            )

    def test_non_unit_rejected(self):
        from larmour.errors import NonUnit

        with pytest.raises(NonUnit):
            hensel_lift_isometry(B3.scalar(K3.t()), B3.one(), B3.one(), TAU.pattern)

    def test_round_trips(self):
        rng = random.Random(2)
        for label in ("B11", "B12", "B211", "B212", "B221"):
            rec = case_record(label)
            pattern = rec.sigma.pattern
            for _ in range(10):
                v1 = rand_sym_unit(rng, rec)
                t0 = rand_unit(rng, rec.algebra)
                v0 = rec.sigma.apply(t0) * v1 * t0
                theta = residue_D(t0)
                t = hensel_lift_isometry(v0, v1, theta, pattern)
                assert residue_D(t) == theta
                resid = rec.sigma.apply(t) * v1 * t - v0
                assert val_floor_half_units(resid) >= VERIFY_HALF_UNITS

    def test_residual_doubles_each_iteration(self):
        rng = random.Random(5)
        for label in ("B12", "B211", "B221"):
            rec = case_record(label)
            pattern = rec.sigma.pattern
            for _ in range(15):
                v1 = rand_sym_unit(rng, rec)
                t0 = rand_unit(rng, rec.algebra)
                v0 = rec.sigma.apply(t0) * v1 * t0
                trace = []
                hensel_lift_isometry(v0, v1, residue_D(t0), pattern, trace=trace)
                assert len(trace) <= 7  # ceil(log2(32)) + 2
                # certified floors double until they saturate at the
                # working-precision ceiling (all coordinates fuzzy-zero)
                from larmour.hermitian import LIFT_WORKING_PREC

                ceiling = 2 * LIFT_WORKING_PREC
                for before, after in zip(trace, trace[1:]):
                    assert after >= min(2 * before, ceiling)


class TestSimplify:
    def test_b12_unramified_entry(self):
        rec = classify_case(B3, TAU, -1)
        u = B3.gen_x() + B3.gen_y().scale(K3.t())
        simplified, w = simplify_unramified_entry(u, rec, TAU)
        assert simplified == B3.gen_x()
        assert w.residual_half_units(TAU.pattern) >= VERIFY_HALF_UNITS

    def test_b221_spec_example(self):
        rec = classify_case(B3, TAU_Y, 1)
        u = B3.elem(parse_laurent(K3, "1 + t"), K3.const(2), K3.zero(), K3.t())
        simplified, w = simplify_unramified_entry(u, rec, TAU_Y)
        assert simplified == B3.elem(parse_laurent(K3, "1 + t"), K3.const(2), K3.zero(), K3.zero())
        assert w.residual_half_units(TAU_Y.pattern) >= VERIFY_HALF_UNITS

    def test_unramified_algebra_rejected(self):
        from larmour.random_forms import rational_algebra

        A = rational_algebra()
        rec = classify_case(A, TAU, 1)
        with pytest.raises(UnsupportedRamification):
            simplify_unramified_entry(A.one(), rec, TAU)
        with pytest.raises(UnsupportedRamification):
            simplify_ramified_entry(A.one(), rec, TAU)

    def test_b12_ramified_entry(self):
        rec = classify_case(B3, TAU, -1)
        u = B3.gen_x().scale(K3.t()) + B3.gen_y()
        simplified, w = simplify_ramified_entry(u, rec, TAU)
        assert simplified == B3.gen_y()
        assert w.residual_half_units(TAU.pattern) >= VERIFY_HALF_UNITS

    def test_b222_already_shaped(self):
        rec = classify_case(B3, TAU_Y, -1)
        u = B3.gen_y().scale(parse_laurent(K3, "1 + t"))
        simplified, w = simplify_ramified_entry(u, rec, TAU_Y)
        assert simplified == u and w.t == B3.one()

    def test_b211_keeps_unit_y_z_combination(self):
        rec = classify_case(B3, TAU_X, 1)
        u = B3.gen_y() + B3.gen_z()
        simplified, w = simplify_ramified_entry(u, rec, TAU_X)
        assert simplified == u  # beta + gamma*x = 1 + x is already a unit shape


class TestDecompose:
    def test_spec_pipeline_example(self):
        rec = classify_case(B3, TAU, -1)
        h = HermitianForm(B3, TAU, -1, (B3.gen_x().scale(K3.t()), B3.gen_y()))
        split = larmour_decompose(h, rec)
        # t*x scales down to a unit multiple of x; y is already shaped
        assert len(split.h0.entries) == 1 and len(split.h1.entries) == 1
        e0 = split.h0.entries[0]
        assert e0.c1.is_possibly_zero() and not e0.cx.is_possibly_zero()
        assert e0.cy.is_possibly_zero() and e0.cz.is_possibly_zero()
        assert split.h1.entries[0] == B3.gen_y()

    def test_scalar_square_scaling(self):
        from larmour.random_forms import rational_algebra

        A = rational_algebra()
        rec = classify_case(A, TAU, 1)
        h = HermitianForm(A, TAU, 1, (A.scalar(A.base.t(2)),))
        split = larmour_decompose(h, rec)
        assert split.h0.entries == (A.one(),)

    @pytest.mark.parametrize("label", ALL_CASE_LABELS)
    def test_product_count_independent_of_value(self, label, monkeypatch):
        rec = case_record(label)
        u = rand_sym_entry(random.Random(9), rec)
        calls = []
        mul = QuatElem.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(QuatElem, "__mul__", counting_mul)
        counts = []
        for m in (4, 3000):
            deep = u.scale(rec.algebra.base.t(m))
            calls.clear()
            larmour_decompose(HermitianForm(rec.algebra, rec.sigma, rec.eps, (deep,)), rec)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_witnesses_verified_and_spans_respected(self):
        rng = random.Random(3)
        span_idx = {"1": 0, "x": 1, "y": 2, "z": 3}
        for label in ALL_CASE_LABELS:
            rec = case_record(label)
            pattern = rec.sigma.pattern
            for _ in range(6):
                h = rand_form(rng, rec, max_dim=2, min_val=-1, max_val=2)
                split = larmour_decompose(h, rec)
                for w in split.witnesses:
                    assert w.residual_half_units(pattern) >= VERIFY_HALF_UNITS
                if not rec.algebra.ramified:
                    continue
                for part, span in ((split.h0, rec.h0_span), (split.h1, rec.h1_span)):
                    allowed = {span_idx[n] for n in span}
                    for e in part.entries:
                        for idx, c in enumerate(e.co):
                            if idx not in allowed:
                                assert c.is_possibly_zero()

    def test_decompose_after_twist_adaptation(self):
        # forms given on an arbitrary twisted involution: entries are built
        # in the original coordinates, carried through the recorded change,
        # and the full decomposition still produces verified witnesses
        from larmour.involutions import normalize_involution
        from larmour.quaternion import val_floor_half_units
        from larmour.random_forms import rand_laurent

        rng = random.Random(6)
        done = 0
        while done < 25:
            coords = [K3.zero()] + [
                rand_laurent(rng, K3, -1, 2, allow_zero=True) for _ in range(3)
            ]
            zeta = B3.elem(*coords)
            if zeta.is_possibly_zero():
                continue
            sigma, change = normalize_involution(B3, zeta)
            eps = rng.choice((1, -1))
            entries = []
            for _ in range(rng.randint(1, 2)):
                if eps == -1:
                    u = zeta.scale(rand_laurent(rng, K3, -1, 2))
                else:
                    # delta + pure part orthogonal to zeta
                    v = B3.elem(K3.zero(), *(rand_laurent(rng, K3, 0, 2, allow_zero=True) for _ in range(3)))
                    zeta_sq = (zeta * zeta).c1
                    anti = v * zeta + zeta * v
                    proj = zeta.scale(anti.c1.scale(K3.residue.inv(2)) / zeta_sq)
                    u = B3.scalar(rand_laurent(rng, K3, 0, 2)) + v - proj
                if u.is_possibly_zero() or val_floor_half_units(u) > 6:
                    continue
                entries.append(change.to_new(u))
            if not entries:
                continue
            h = validate_form(HermitianForm(change.new_algebra, sigma, eps, tuple(entries)))
            rec = classify_case(change.new_algebra, sigma, eps)
            split = larmour_decompose(h, rec)
            for w in split.witnesses:
                assert w.residual_half_units(sigma.pattern) >= VERIFY_HALF_UNITS
            done += 1

    def test_composite_witness_targets_final_entries(self):
        rng = random.Random(4)
        rec = case_record("B211")
        h = rand_form(rng, rec, max_dim=2, min_val=-1, max_val=2)
        split = larmour_decompose(h, rec)
        finals = iter(split.h0.entries + split.h1.entries)
        h0_iter = iter(split.h0.entries)
        h1_iter = iter(split.h1.entries)
        for route, w in zip(split.routes, split.witnesses):
            target = next(h0_iter) if route == 0 else next(h1_iter)
            assert w.target_entry == target
            assert w.source_entry in h.entries
