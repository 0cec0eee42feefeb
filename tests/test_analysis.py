"""Tests for the correlation analysis and its special functions."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.special
import scipy.stats

from detangle.analysis import (
    BASELINE_AGGREGATES,
    betainc_regularized,
    correlate_metrics_with_cg,
    pearson,
    render_correlation_table,
    t_two_sided_p,
)
from detangle.errors import ValidationError


class TestIncompleteBeta:
    def test_matches_scipy_over_grid(self):
        params = [0.5, 1.0, 2.5, 7.0, 40.0]
        xs = np.linspace(0.001, 0.999, 41)
        for a in params:
            for b in params:
                for x in xs:
                    got = betainc_regularized(a, b, float(x))
                    want = float(scipy.special.betainc(a, b, x))
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-13), (a, b, x)

    def test_endpoints(self):
        assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert betainc_regularized(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for x in (0.1, 0.4, 0.7):
            lhs = betainc_regularized(3.0, 5.0, x)
            rhs = 1.0 - betainc_regularized(5.0, 3.0, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_domain_checked(self):
        with pytest.raises(ValidationError):
            betainc_regularized(0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            betainc_regularized(1.0, -1.0, 0.5)
        with pytest.raises(ValidationError):
            betainc_regularized(1.0, 1.0, 1.5)


class TestStudentT:
    def test_matches_scipy_survival(self):
        for t in (0.0, 0.5, 1.3, 2.8, 6.45, 12.0):
            for df in (1, 2, 5, 18, 100):
                got = t_two_sided_p(t, df)
                want = 2.0 * float(scipy.stats.t.sf(abs(t), df))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (t, df)

    def test_symmetric_in_t(self):
        assert t_two_sided_p(2.5, 10) == t_two_sided_p(-2.5, 10)

    def test_infinite_t(self):
        assert t_two_sided_p(math.inf, 7) == 0.0
        assert t_two_sided_p(-math.inf, 7) == 0.0

    def test_zero_t_gives_one(self):
        assert t_two_sided_p(0.0, 9) == pytest.approx(1.0, abs=1e-12)

    def test_df_checked(self):
        with pytest.raises(ValidationError):
            t_two_sided_p(1.0, 0)

    def test_monotone_decreasing_in_magnitude(self):
        ps = [t_two_sided_p(t, 12) for t in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))


class TestPearson:
    def test_reference_values_n18(self):
        # r = 0.85 at n = 18: t = 6.4543 with p below 1e-5.
        result = _correlation_with_r(0.85, 18)
        assert result["r"] == pytest.approx(0.85, abs=1e-12)
        assert result["t"] == pytest.approx(6.4543, abs=0.01)
        assert result["p"] < 1e-5

    def test_reference_values_n6(self):
        # r = 0.85 at n = 6: t = 3.2271 with p below 0.033.
        result = _correlation_with_r(0.85, 6)
        assert result["r"] == pytest.approx(0.85, abs=1e-12)
        assert result["t"] == pytest.approx(3.2271, abs=0.01)
        assert result["p"] < 0.033

    def test_matches_scipy_pearsonr(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + 0.5 * x
            got = pearson(x, y)
            want = scipy.stats.pearsonr(x, y)
            assert got["r"] == pytest.approx(float(want.statistic), abs=1e-12)
            assert got["p"] == pytest.approx(float(want.pvalue), rel=1e-9, abs=1e-280)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert pearson(x, y)["r"] == pearson(y, x)["r"]

    def test_affine_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        base = pearson(x, y)["r"]
        scaled = pearson(3.0 * x - 7.0, 0.25 * y + 2.0)["r"]
        assert scaled == pytest.approx(base, abs=1e-12)
        flipped = pearson(-x, y)["r"]
        assert flipped == pytest.approx(-base, abs=1e-12)

    def test_perfect_fit_floors_p(self):
        # Power-of-two slope keeps every float product exact, so r is
        # exactly +-1 rather than 1 - 1 ulp.
        x = [-2.0, -2.0, 2.0, 2.0]
        result = pearson(x, [0.5 * v + 7.0 for v in x])
        assert result["r"] == 1.0
        assert result["t"] == math.inf
        assert result["p"] == sys.float_info.min
        assert result["p_floored"]

        inverse = pearson(x, [-0.25 * v for v in x])
        assert inverse["r"] == -1.0
        assert inverse["t"] == -math.inf
        assert inverse["p_floored"]

    def test_near_perfect_fit_is_not_floored(self):
        x = [0.0, 1.0, 2.0, 3.0]
        result = pearson(x, [2.0 * v + 1.0 for v in x])
        assert abs(result["r"]) < 1.0
        assert result["p"] > 0.0
        assert not result["p_floored"]

    def test_unfloored_p_flagged_false(self):
        result = _correlation_with_r(0.5, 10)
        assert not result["p_floored"]

    def test_json_payload(self):
        payload = pearson([0.0, 1.0, 2.0], [0.0, 1.0, 2.1])
        assert payload["schema_version"] == 1
        assert set(payload) == {"schema_version", "r", "n", "t", "p", "p_floored"}
        assert payload["n"] == 3

    @pytest.mark.parametrize(
        "x,y,pattern",
        [
            ([1.0, 2.0], [1.0, 2.0], "3 points"),
            ([1.0, 2.0, 3.0], [1.0, 2.0], "mismatch"),
            ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "zero-variance"),
            ([1.0, 2.0, np.nan], [1.0, 2.0, 3.0], "finite"),
        ],
    )
    def test_invalid_inputs(self, x, y, pattern):
        with pytest.raises(ValidationError, match=pattern):
            pearson(x, y)

    def test_duplicated_constant_still_zero_variance(self):
        with pytest.raises(ValidationError, match="zero-variance"):
            pearson([4.2, 4.2, 4.2, 4.2], [0.0, 1.0, 0.5, 0.25])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValidationError, match="1-d"):
            pearson(np.zeros((3, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes(self, scale):
        # The squares of these values overflow or underflow a float.
        assert pearson([scale, -scale, 0.0], [1.0, 2.0, 3.0])["r"] == pytest.approx(-0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        xy=st.integers(3, 20).flatmap(
            lambda n: st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                               min_size=n, max_size=n)
        ),
        k=st.integers(-1000, 1000),
    )
    def test_power_of_two_scale_leaves_result_unchanged(self, xy, k):
        x, y = np.array(xy, dtype=np.float64).T
        assume(np.ptp(x) > 0 and np.ptp(y) > 0)
        assert pearson(np.ldexp(x, k), y) == pearson(x, y)


def _correlation_with_r(target_r, n):
    """Build two vectors whose sample correlation is exactly target_r."""
    x = np.linspace(-1.0, 1.0, n)
    x = (x - x.mean()) / np.sqrt(np.sum((x - x.mean()) ** 2))
    rng = np.random.default_rng(42)
    e = rng.normal(size=n)
    e = e - e.mean()
    e = e - x * np.dot(e, x)  # orthogonalize
    e = e / np.sqrt(np.sum(e * e))
    y = target_r * x + math.sqrt(1.0 - target_r**2) * e
    return pearson(x, y)


def metric_payload(per_factor_by_metric):
    return {
        metric: {"per_factor": dict(scores)}
        for metric, scores in per_factor_by_metric.items()
    }


def cg_payload(joint_adjusted):
    return {"joint_both": {"adjusted": joint_adjusted, "raw": joint_adjusted, "chance_rate": 0.1}}


def synthetic_study(n_models=6):
    """Hand-built payload family where snc tracks the target and mig does not."""
    metric_payloads, cg_payloads = [], []
    for i in range(n_models):
        level = i / (n_models - 1)
        metric_payloads.append(
            metric_payload(
                {
                    "snc": {"a": 0.2 + 0.7 * level, "b": 0.3 + 0.6 * level},
                    "nk": {"a": 0.1 + 0.5 * level, "b": 0.2 + 0.4 * level},
                    "mig": {"a": 0.9 - 0.8 * level, "b": 0.5},
                    "sap": {"a": 0.4, "b": 0.35 + 0.01 * ((-1) ** i)},
                }
            )
        )
        cg_payloads.append(cg_payload(0.05 + 0.9 * level))
    return metric_payloads, cg_payloads


class TestCorrelateMetrics:
    def test_subset_product_and_baseline_mean(self):
        metric_payloads, cg_payloads = synthetic_study()
        out = correlate_metrics_with_cg(metric_payloads, cg_payloads, subset=("a", "b"))
        assert out["n_models"] == 6
        assert out["aggregate_mode"] == "product"
        assert out["baseline_aggregate"] == "mean_all"

        # snc values are products over the subset.
        first = metric_payloads[0]["snc"]["per_factor"]
        assert out["per_metric"]["snc"]["values"][0] == pytest.approx(
            first["a"] * first["b"]
        )
        # mig (baseline) values are means over all factors.
        first_mig = metric_payloads[0]["mig"]["per_factor"]
        assert out["per_metric"]["mig"]["values"][0] == pytest.approx(
            (first_mig["a"] + first_mig["b"]) / 2
        )
        assert out["per_metric"]["snc"]["correlation"]["r"] > 0.9
        assert out["per_metric"]["mig"]["correlation"]["r"] < 0.0

    def test_subset_restriction_for_corrected_metrics(self):
        metric_payloads, cg_payloads = synthetic_study()
        out = correlate_metrics_with_cg(
            metric_payloads, cg_payloads, subset=("a",), metrics=("snc",)
        )
        values = out["per_metric"]["snc"]["values"]
        expected = [p["snc"]["per_factor"]["a"] for p in metric_payloads]
        assert values == pytest.approx(expected)

    def test_mean_aggregate_mode(self):
        metric_payloads, cg_payloads = synthetic_study()
        out = correlate_metrics_with_cg(
            metric_payloads, cg_payloads, subset=("a", "b"),
            metrics=("nk",), aggregate_mode="mean",
        )
        first = metric_payloads[0]["nk"]["per_factor"]
        assert out["per_metric"]["nk"]["values"][0] == pytest.approx(
            (first["a"] + first["b"]) / 2
        )

    @pytest.mark.parametrize("baseline", BASELINE_AGGREGATES)
    def test_baseline_aggregate_modes(self, baseline):
        metric_payloads, cg_payloads = synthetic_study()
        out = correlate_metrics_with_cg(
            metric_payloads, cg_payloads, subset=("a",),
            metrics=("mig",), baseline_aggregate=baseline,
        )
        first = metric_payloads[0]["mig"]["per_factor"]
        got = out["per_metric"]["mig"]["values"][0]
        if baseline == "mean_all":
            assert got == pytest.approx((first["a"] + first["b"]) / 2)
        else:
            # With a single-factor subset, mean and product agree.
            assert got == pytest.approx(first["a"])

    def test_suite_payload_target(self):
        metric_payloads, cg_payloads = synthetic_study(n_models=4)
        suites = [
            {"runs": [{}], "averages": {"mlp": {"joint_both_adjusted": p["joint_both"]["adjusted"]}}}
            for p in cg_payloads
        ]
        out = correlate_metrics_with_cg(metric_payloads, suites, subset=("a", "b"), metrics=("snc",))
        assert out["generalization"] == [p["joint_both"]["adjusted"] for p in cg_payloads]

    def test_multi_kind_suite_rejected(self):
        metric_payloads, cg_payloads = synthetic_study(n_models=3)
        suites = [
            {
                "runs": [{}],
                "averages": {
                    "mlp": {"joint_both_adjusted": 0.5},
                    "linear": {"joint_both_adjusted": 0.2},
                },
            }
            for _ in cg_payloads
        ]
        with pytest.raises(ValidationError, match="one at a time"):
            correlate_metrics_with_cg(metric_payloads, suites, subset=("a",), metrics=("snc",))

    def test_suite_without_probe_kinds_rejected(self):
        metric_payloads, _ = synthetic_study(n_models=3)
        suites = [{"runs": [], "averages": {}}] * 3
        with pytest.raises(ValidationError, match="suite payload holds no probe kind"):
            correlate_metrics_with_cg(metric_payloads, suites, subset=("a",), metrics=("snc",))

    def test_length_mismatch_rejected(self):
        metric_payloads, cg_payloads = synthetic_study()
        with pytest.raises(ValidationError, match="payloads"):
            correlate_metrics_with_cg(metric_payloads[:-1], cg_payloads, subset=("a",))

    def test_missing_metric_block_rejected(self):
        metric_payloads, cg_payloads = synthetic_study(n_models=3)
        del metric_payloads[1]["nk"]
        with pytest.raises(ValidationError, match="no 'nk' block"):
            correlate_metrics_with_cg(metric_payloads, cg_payloads, subset=("a",), metrics=("nk",))

    @pytest.mark.parametrize("block", [["a"], {"per_factor": ["a"]}])
    def test_block_that_is_not_an_object_rejected(self, block):
        metric_payloads, cg_payloads = synthetic_study(n_models=3)
        metric_payloads[1]["nk"] = block
        with pytest.raises(ValidationError, match="no 'nk' block"):
            correlate_metrics_with_cg(metric_payloads, cg_payloads, subset=("a",), metrics=("nk",))

    @pytest.mark.parametrize("score", ["0.5", None, True, [0.5]])
    def test_non_numeric_factor_score_rejected(self, score):
        metric_payloads, cg_payloads = synthetic_study(n_models=3)
        metric_payloads[1]["mig"]["per_factor"]["b"] = score
        with pytest.raises(ValidationError, match="'mig' score for factor 'b' is not a number"):
            correlate_metrics_with_cg(metric_payloads, cg_payloads, subset=("a",),
                                      metrics=("mig",))

    def test_missing_subset_factor_rejected(self):
        metric_payloads, cg_payloads = synthetic_study(n_models=3)
        with pytest.raises(ValidationError, match="lacks factors"):
            correlate_metrics_with_cg(metric_payloads, cg_payloads, subset=("zzz",), metrics=("snc",))

    def test_empty_subset_rejected(self):
        metric_payloads, cg_payloads = synthetic_study(n_models=3)
        with pytest.raises(ValidationError, match="nonempty"):
            correlate_metrics_with_cg(metric_payloads, cg_payloads, subset=())

    def test_invalid_baseline_rejected(self):
        metric_payloads, cg_payloads = synthetic_study(n_models=3)
        with pytest.raises(ValidationError, match="baseline_aggregate"):
            correlate_metrics_with_cg(
                metric_payloads, cg_payloads, subset=("a",), baseline_aggregate="median_all"
            )

    @pytest.mark.parametrize("metrics", [("mig",), ("sap", "mig"), ("snc",)])
    def test_invalid_aggregate_mode_rejected_for_any_metrics(self, metrics):
        metric_payloads, cg_payloads = synthetic_study(n_models=3)
        with pytest.raises(ValidationError, match="unknown aggregate mode 'bogus'"):
            correlate_metrics_with_cg(metric_payloads, cg_payloads, subset=("a",),
                                      metrics=metrics, aggregate_mode="bogus")

    def test_bad_target_payload_rejected(self):
        metric_payloads, _ = synthetic_study(n_models=3)
        with pytest.raises(ValidationError, match="generalization payload"):
            correlate_metrics_with_cg(metric_payloads, [{}, {}, {}], subset=("a",))

    def test_render_table(self):
        metric_payloads, cg_payloads = synthetic_study()
        out = correlate_metrics_with_cg(metric_payloads, cg_payloads, subset=("a", "b"))
        text = render_correlation_table(out)
        lines = text.strip().split("\n")
        assert lines[0].startswith("models: 6")
        assert lines[1].split() == ["metric", "r", "t", "p"]
        assert len(lines) == 6
        assert lines[2].startswith("snc")


class TestGeneratorFamilyStudy:
    def test_snc_tracks_generalization(self, generator_family_study):
        corr = generator_family_study["correlation"]
        r_snc = corr["per_metric"]["snc"]["correlation"]["r"]
        assert r_snc > 0.5

    def test_study_is_well_formed(self, generator_family_study):
        corr = generator_family_study["correlation"]
        assert corr["n_models"] == 10
        assert len(corr["generalization"]) == 10
        for metric in ("snc", "nk", "mig", "sap"):
            block = corr["per_metric"][metric]
            assert len(block["values"]) == 10
            assert -1.0 <= block["correlation"]["r"] <= 1.0
