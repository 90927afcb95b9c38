"""Kernel triples: factor values, expectation constants, structural flags."""

from __future__ import annotations

import numpy as np
import pytest

from l2disc import (
    MeasureId,
    NoGeometricOracleError,
    NonDifferentiableMeasureError,
    PointSet,
    ValidationError,
    expectation_constants,
    gradient,
    kernel_spec,
    mc_squared_discrepancy,
)
from l2disc.kernels import c_cross, mirrored

UNWEIGHTED = [
    MeasureId.STAR,
    MeasureId.EXT,
    MeasureId.PER,
    MeasureId.CTR,
    MeasureId.CAD,
    MeasureId.SYM,
    MeasureId.MIX,
    MeasureId.ASD,
]

ALL_SPECS = [kernel_spec(m, 2) for m in UNWEIGHTED] + [
    kernel_spec(MeasureId.CTR_WEIGHTED, 2, gamma=[4.0, 4.0]),
    kernel_spec(MeasureId.SYM_WEIGHTED, 2, gamma=[4.0, 4.0]),
]

# Hand-integrated expectation constants (E[B], E[C(u,v)], E[C(u,u)]) for the
# unweighted measures; per's B is identically zero.
EXPECTED_CONSTANTS = {
    MeasureId.STAR: (1 / 3, 1 / 3, 1 / 2),
    MeasureId.EXT: (1 / 12, 1 / 12, 1 / 6),
    MeasureId.PER: (0.0, 1 / 3, 1 / 2),
    MeasureId.CTR: (1 / 12, 1 / 12, 1 / 4),
    MeasureId.CAD: (1 / 12, 1 / 12, 1 / 4),
    MeasureId.SYM: (1 / 12, 1 / 12, 1 / 4),
    MeasureId.MIX: (7 / 12, 7 / 12, 3 / 4),
    MeasureId.ASD: (1 / 3, 1 / 3, 1 / 2),
}


class TestFactorValues:
    def test_star_values(self):
        spec = kernel_spec("star", 1)
        assert spec.b_col(0.0, 0) == 0.5
        assert spec.c_col(0.0, 0.0, 0) == 1.0
        assert spec.a == pytest.approx(1 / 3, rel=1e-15)

    def test_asd_values_at_center(self):
        spec = kernel_spec("asd", 2)
        assert spec.b_col(0.5, 0) == pytest.approx(3 / 8, rel=1e-15)
        assert spec.c_col(0.5, 0.5, 0) == pytest.approx(1 / 2, rel=1e-15)

    def test_a_constants(self):
        for d in (1, 3):
            assert kernel_spec("star", d).a == pytest.approx(3.0**-d)
            assert kernel_spec("ext", d).a == pytest.approx(12.0**-d)
            assert kernel_spec("per", d).a == pytest.approx(-(3.0**-d))
            assert kernel_spec("mix", d).a == pytest.approx((7 / 12) ** d)
            assert kernel_spec("asd", d).a == pytest.approx(3.0**-d)

    def test_weighted_a_constant(self):
        g = [1.0, 2.0, 3.0]
        spec = kernel_spec("ctr_weighted", 3, gamma=g)
        expected = (1 + 1 / 12) * (1 + 2 / 12) * (1 + 3 / 12)
        assert spec.a == pytest.approx(expected, rel=1e-15)


class TestStructuralFlags:
    def test_per_has_no_b_term(self):
        spec = kernel_spec("per", 3)
        assert spec.eb_product() == 0.0

    def test_cad_is_discontinuous(self):
        assert not kernel_spec("cad", 2).continuous
        for m in UNWEIGHTED:
            if m is not MeasureId.CAD:
                assert kernel_spec(m, 2).continuous

    def test_mix_and_weighted_have_no_geometric_oracle(self):
        assert not kernel_spec("mix", 2).has_geometric_oracle
        assert not kernel_spec("sym_weighted", 2, gamma=[1, 1]).has_geometric_oracle
        for m in UNWEIGHTED:
            if m is not MeasureId.MIX:
                assert kernel_spec(m, 2).has_geometric_oracle

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.measure.value)
    def test_geometric_flag_is_whether_the_oracle_runs(self, spec):
        try:
            mc_squared_discrepancy(spec.measure, PointSet([[0.3, 0.6]]), 100, seed=0)
        except NoGeometricOracleError:
            assert not spec.has_geometric_oracle
        else:
            assert spec.has_geometric_oracle

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.measure.value)
    def test_continuous_flag_is_whether_a_gradient_exists(self, spec):
        try:
            gradient(spec, PointSet([[0.3, 0.6], [0.8, 0.1]]))
        except NonDifferentiableMeasureError:
            assert not spec.continuous
        else:
            assert spec.continuous


class TestValidation:
    def test_gamma_required_for_weighted(self):
        with pytest.raises(ValidationError, match="requires a gamma"):
            kernel_spec("ctr_weighted", 2)

    def test_gamma_rejected_for_unweighted(self):
        with pytest.raises(ValidationError, match="does not take"):
            kernel_spec("star", 2, gamma=[1, 1])

    def test_gamma_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            kernel_spec("sym_weighted", 3, gamma=[1, 1])

    def test_bad_dimension(self):
        with pytest.raises(ValidationError):
            kernel_spec("star", 0)

    @pytest.mark.parametrize("d", [2.5, "3", True])
    def test_non_integer_dimension(self, d):
        with pytest.raises(ValidationError, match="d must be an integer"):
            kernel_spec("star", d)

    def test_unknown_measure(self):
        with pytest.raises(ValidationError):
            kernel_spec("linf", 2)


class TestExpectationConstants:
    @pytest.mark.parametrize("d", [1, 2, 9, 400])
    def test_shared_unweighted_constants_have_the_recomputed_bits(self, d):
        # an unweighted measure's constants are computed once and shared by
        # its specs at every d
        for measure in UNWEIGHTED:
            spec = kernel_spec(measure, d)
            stored = (spec.eb, spec.ec_uv, spec.ec_uu)
            assert [float(c).hex() for c in stored] == [
                float(c).hex() for c in expectation_constants(spec)]

    @pytest.mark.parametrize("measure", UNWEIGHTED, ids=lambda m: m.value)
    def test_constants_match_hand_integration(self, measure):
        spec = kernel_spec(measure, 4)
        eb_ref, ecuv_ref, ecuu_ref = EXPECTED_CONSTANTS[measure]
        assert spec.eb == pytest.approx(eb_ref, abs=1e-14)
        assert spec.ec_uv == pytest.approx(ecuv_ref, abs=1e-14)
        assert spec.ec_uu == pytest.approx(ecuu_ref, abs=1e-14)

    def test_recomputation_matches_stored(self):
        for spec in ALL_SPECS:
            eb, ec_uv, ec_uu = expectation_constants(spec)
            np.testing.assert_allclose(eb, spec.eb, rtol=0, atol=1e-15)
            np.testing.assert_allclose(ec_uv, spec.ec_uv, rtol=0, atol=1e-15)
            np.testing.assert_allclose(ec_uu, spec.ec_uu, rtol=0, atol=1e-15)

    def test_weighted_constants(self):
        g = np.array([4.0, 0.5])
        for tag in ("ctr_weighted", "sym_weighted"):
            spec = kernel_spec(tag, 2, gamma=g)
            np.testing.assert_allclose(spec.eb, 1 + g / 12, rtol=0, atol=1e-14)
            np.testing.assert_allclose(spec.ec_uv, 1 + g / 12, rtol=0, atol=1e-14)
            np.testing.assert_allclose(spec.ec_uu, 1 + g / 4, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.measure.value)
    def test_zero_sum_identity(self, spec):
        # A - 2 prod E[B] + prod E[C(u,v)] vanishes for every measure: the
        # IID expectation has no n-free part, so n * E[D^2] is n-independent.
        acc = spec.a + spec.ecuv_product() - 2.0 * spec.eb_product()
        assert acc == pytest.approx(0.0, abs=1e-14)


class TestIidExpectationColumn:
    # n * E[D^2] under IID sampling, via the expectation constants, must
    # reproduce the published closed forms for the six consistent rows.
    CLOSED_FORMS = {
        MeasureId.STAR: lambda d: 2.0**-d - 3.0**-d,
        MeasureId.EXT: lambda d: 6.0**-d - 12.0**-d,
        MeasureId.PER: lambda d: 2.0**-d - 3.0**-d,
        MeasureId.CTR: lambda d: 4.0**-d - 12.0**-d,
        MeasureId.SYM: lambda d: 4.0**-d - 12.0**-d,
        MeasureId.ASD: lambda d: 2.0**-d - 3.0**-d,
    }

    @pytest.mark.parametrize("measure", sorted(CLOSED_FORMS, key=lambda m: m.value),
                             ids=lambda m: m.value)
    def test_n_times_expected(self, measure):
        for d in range(1, 11):
            spec = kernel_spec(measure, d)
            for n in (1, 5):
                expected_sq = spec.a + (1 - 1 / n) * spec.ecuv_product() \
                    + spec.ecuu_product() / n - 2.0 * spec.eb_product()
                closed = self.CLOSED_FORMS[measure](d)
                assert n * expected_sq == pytest.approx(closed, rel=1e-10)


class TestKernelSymmetry:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.measure.value)
    def test_c_symmetric_exactly(self, spec):
        rng = np.random.Generator(np.random.Philox(11))
        x = rng.random(10_000)
        z = rng.random(10_000)
        for j in range(spec.d):
            left = spec.c_col(x, z, j)
            right = spec.c_col(z, x, j)
            np.testing.assert_array_equal(left, right)

    @pytest.mark.parametrize("measure", list(MeasureId), ids=lambda m: m.value)
    def test_c_cross_symmetric_exactly(self, measure):
        # the evaluator computes the kernel matrix only on and right of its
        # diagonal segments and doubles the rest, which needs C(x, z) to equal
        # C(z, x) bit for bit, on kinks and repeated points too
        gamma = [0.3, 1.7, 4.9] if measure.value.endswith("_weighted") else None
        spec = kernel_spec(measure, 3, gamma=gamma)
        rng = np.random.Generator(np.random.Philox(13))
        edges = [[0.0, 0.5, 1.0], [0.5, 0.5, 0.5], [1.0, 0.0, 0.25], [0.25, 1.0, 0.5]]
        pts = np.vstack([rng.random((150, 3)), edges])
        pts = np.vstack([pts, pts[::7]])
        kernel = c_cross(spec, pts, pts)
        np.testing.assert_array_equal(kernel, kernel.T)


class TestFactorTiles:
    # value_and_gradient takes C, dC/dx and the mirrored dC(z, x)/dx of all
    # coordinates from one difference x - z, written by c_col and c_dx_col
    # into reused arrays with an axis-index array j; each must keep the bits
    # of the per-axis calls that return new arrays, on the ties x == z and
    # the kinks at 0, 1/2 and 1 of the subgradient conventions too
    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.continuous] + [
        kernel_spec("ctr_weighted", 3, gamma=[0.3, 1.7, 4.9]),
        kernel_spec("sym_weighted", 3, gamma=[0.3, 1.7, 4.9]),
    ], ids=lambda s: f"{s.measure.value}-d{s.d}")
    def test_fused_factors_have_the_column_bits(self, spec):
        rng = np.random.Generator(np.random.Philox(19))
        kinks = np.array([0.0, 0.5, 1.0, 0.25, 0.75, 0.5 - 2**-53, 0.5 + 2**-52])
        cols = np.vstack([rng.random((60, spec.d)),
                          np.repeat(kinks[:, None], spec.d, axis=1)]).T
        x, z = cols[:, :, None], cols[:, None, :]
        axes = np.arange(spec.d)[:, None, None]
        c, dc, mirror, t = np.full((4, spec.d) + (cols.shape[1],) * 2, np.nan)
        writes_mirror = mirrored(spec)
        # dc is C's scratch until dC is written, and t dC's once it is read
        assert spec.c_col(x, z, axes, np.subtract(x, z, out=t), c, dc) is c
        assert spec.c_dx_col(x, z, axes, t, dc, t, mirror if writes_mirror else None) is dc
        bits = lambda a: np.asarray(a).view(np.uint64)
        for j in range(spec.d):
            np.testing.assert_array_equal(bits(c[j]), bits(spec.c_col(x[j], z[j], j)))
            np.testing.assert_array_equal(bits(dc[j]), bits(spec.c_dx_col(x[j], z[j], j)))
            swapped = spec.c_dx_col(z[j], x[j], j)
            if writes_mirror:
                np.testing.assert_array_equal(bits(mirror[j]), bits(swapped))
            else:
                # an odd derivative: -dC, equal as numbers (the sign of a
                # zero on the tie may differ)
                np.testing.assert_array_equal(-dc[j], swapped)
        assert writes_mirror == (spec.measure.value.removesuffix("_weighted")
                                 not in ("per", "sym", "asd"))


class TestAxisArrays:
    # greedy's pattern search evaluates all axes in one call with j an
    # array of axes; each entry must get its own axis's factor, bit for bit
    @pytest.mark.parametrize("spec", ALL_SPECS[:-2] + [
        kernel_spec("ctr_weighted", 3, gamma=[0.3, 1.7, 4.9]),
        kernel_spec("sym_weighted", 3, gamma=[0.3, 1.7, 4.9]),
    ], ids=lambda s: s.measure.value)
    def test_index_array_matches_per_axis_calls(self, spec):
        rng = np.random.Generator(np.random.Philox(5))
        x, z = rng.random((spec.d, 7, 1)), rng.random((spec.d, 1, 5))
        axes = np.arange(spec.d)
        c = spec.c_col(x, z, axes[:, None, None])
        b = spec.b_col(x[..., 0], axes[:, None])
        dc = spec.c_dx_col(x, z, axes[:, None, None]) if spec.continuous else None
        for j in range(spec.d):
            np.testing.assert_array_equal(c[j], spec.c_col(x[j], z[j], j))
            np.testing.assert_array_equal(b[j], spec.b_col(x[j, :, 0], j))
            if dc is not None:
                np.testing.assert_array_equal(dc[j], spec.c_dx_col(x[j], z[j], j))


class TestContinuityNearKinks:
    @pytest.mark.parametrize(
        "spec", [s for s in ALL_SPECS if s.continuous], ids=lambda s: s.measure.value
    )
    def test_factors_continuous_across_kinks(self, spec):
        eps = 1e-9
        # B across x = 1/2
        for j in range(spec.d):
            lo = float(spec.b_col(0.5 - eps, j))
            hi = float(spec.b_col(0.5 + eps, j))
            assert abs(hi - lo) < 1e-6
        # C across the diagonal x = z and across x = 1/2
        for j in range(spec.d):
            z = 0.37
            lo = float(spec.c_col(z - eps, z, j))
            hi = float(spec.c_col(z + eps, z, j))
            assert abs(hi - lo) < 1e-6
            lo = float(spec.c_col(0.5 - eps, z, j))
            hi = float(spec.c_col(0.5 + eps, z, j))
            assert abs(hi - lo) < 1e-6

    def test_cad_jumps_across_center(self):
        spec = kernel_spec("cad", 1)
        eps = 1e-9
        below = float(spec.c_col(0.5 - eps, 0.4, 0))
        above = float(spec.c_col(0.5 + eps, 0.4, 0))
        assert below > 0.0 and above == 0.0


class TestAsdAveragingIdentity:
    def test_b_and_c_are_reflection_averages_of_star(self):
        star = kernel_spec("star", 1)
        asd = kernel_spec("asd", 1)
        rng = np.random.Generator(np.random.Philox(13))
        x = rng.random(1000)
        z = rng.random(1000)
        b_avg = (star.b_col(x, 0) + star.b_col(1 - x, 0)) / 2
        np.testing.assert_allclose(asd.b_col(x, 0), b_avg, rtol=0, atol=1e-15)
        c_avg = (star.c_col(x, z, 0) + star.c_col(1 - x, 1 - z, 0)) / 2
        np.testing.assert_allclose(asd.c_col(x, z, 0), c_avg, rtol=0, atol=1e-15)


class TestCadIndicator:
    def test_zero_on_opposite_sides(self):
        spec = kernel_spec("cad", 1)
        rng = np.random.Generator(np.random.Philox(17))
        x = rng.random(500) * 0.5  # strictly below 1/2 (prob-1 no exact tie)
        z = 0.5 + rng.random(500) * 0.5
        np.testing.assert_array_equal(spec.c_col(x, z, 0), np.zeros(500))
        np.testing.assert_array_equal(spec.c_col(z, x, 0), np.zeros(500))

    def test_tie_at_half_counts_as_upper_side(self):
        spec = kernel_spec("cad", 1)
        assert float(spec.c_col(0.5, 0.75, 0)) == pytest.approx(0.25)
        assert float(spec.c_col(0.5, 0.25, 0)) == 0.0
