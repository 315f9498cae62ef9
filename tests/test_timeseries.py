import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collabnet.errors import DataError
from collabnet.timeseries import (
    MetricSeries,
    bh_fdr,
    contiguous_overlap,
    first_difference,
    fit_restricted_unrestricted,
    forecast,
    granger_test,
    trend_diagnostic,
)
from oracles import bh_oracle, granger_f_oracle


def series(values, start=2000, name="s"):
    return MetricSeries(name, tuple(range(start, start + len(values))), tuple(values))


class TestMetricSeries:
    def test_years_strictly_increasing(self):
        with pytest.raises(DataError):
            MetricSeries("s", (2001, 2001), (1.0, 2.0))

    def test_missing_markers_preserved(self):
        s = series([1.0, None, 3.0])
        assert s.values == (1.0, None, 3.0)
        ys, vs = s.present()
        assert list(ys) == [2000, 2002]


class TestFirstDifference:
    def test_constant_to_zero(self):
        out = first_difference(series([5.0] * 6))
        assert all(v == 0.0 for v in out.values)

    def test_hand_differences(self):
        out = first_difference(series([1.0, 3.0, 6.0, 10.0]))
        assert out.values == (2.0, 3.0, 4.0)
        assert out.years == (2001, 2002, 2003)

    def test_missing_propagates(self):
        out = first_difference(series([1.0, None, 3.0, 4.0]))
        assert out.values == (None, None, 1.0)

    def test_too_short(self):
        with pytest.raises(DataError):
            first_difference(series([1.0]))

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30))
    def test_inverts_cumulative_sum(self, increments):
        csum = np.cumsum([0.0] + increments)
        out = first_difference(series(list(csum)))
        for got, want in zip(out.values, increments):
            assert got == pytest.approx(want, abs=1e-6 * max(1.0, abs(want)))


class TestFitRestrictedUnrestricted:
    def test_zero_x_no_explanatory_power(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=40)
        x = np.zeros(40)
        fit = fit_restricted_unrestricted(y, x, 1)
        assert fit.f_stat == 0.0
        assert fit.p_value == 1.0
        assert fit.rss_unrestricted == pytest.approx(fit.rss_restricted)

    def test_perfect_prediction(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=60)
        y = np.concatenate([[0.0], x[:-1]])  # y_t = x_{t-1} exactly
        fit = fit_restricted_unrestricted(y, x, 1)
        assert fit.rss_unrestricted == pytest.approx(0.0, abs=1e-18)
        assert fit.p_value == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_sample(self):
        with pytest.raises(DataError):
            fit_restricted_unrestricted(np.ones(5), np.ones(5), 2)

    def test_dof_formula(self):
        rng = np.random.default_rng(2)
        y, x = rng.normal(size=50), rng.normal(size=50)
        fit = fit_restricted_unrestricted(y, x, 3)
        assert fit.dof == (3, 47 - 7)

    @pytest.mark.filterwarnings("ignore::FutureWarning")
    def test_matches_statsmodels_f_test(self):
        sm = pytest.importorskip("statsmodels.tsa.stattools")
        rng = np.random.default_rng(3)
        x = rng.normal(size=80)
        y = 0.5 * np.concatenate([[0.0], x[:-1]]) + rng.normal(size=80)
        data = np.column_stack([y, x])
        for lag in (1, 2, 3):
            ours = fit_restricted_unrestricted(y, x, lag)
            theirs = sm.grangercausalitytests(data, maxlag=[lag], verbose=False)
            f_stat, p_val, _, _ = theirs[lag][0]["ssr_ftest"]
            assert ours.f_stat == pytest.approx(f_stat, rel=1e-8)
            assert ours.p_value == pytest.approx(p_val, rel=1e-8, abs=1e-12)


def integer_series(seed: int, length: int = 20) -> list[int]:
    return np.random.default_rng(seed).integers(0, 10, length).tolist()


class TestFitOracleParity:
    """`fit_restricted_unrestricted` against the exact normal-equation RSS and
    F of `oracles.granger_f_oracle` on small integer series. Both RSS are
    within 1e-9 of the target's sum of squares, F within 1e-9 relative where
    the unrestricted RSS is not zero, and the p-value within 1e-9 of
    `scipy.stats.f.sf` of the exact F."""

    CASES = ([(f"random{seed}", integer_series(seed), integer_series(100 + seed)) for seed in range(6)]
             + [("constant_x", integer_series(6), [4] * 20),
                ("perfect_fit", [0] + integer_series(7)[:-1], integer_series(7))])  # y[t] = x[t - 1]

    @pytest.mark.parametrize("lag", [1, 2, 3])
    @pytest.mark.parametrize("name, y, x", CASES, ids=[case[0] for case in CASES])
    def test_matches_exact_normal_equations(self, name, y, x, lag):
        from scipy import stats

        rss_r, rss_u, f = granger_f_oracle(y, x, lag)
        fit = fit_restricted_unrestricted(np.array(y, dtype=float), np.array(x, dtype=float), lag)
        scale = sum(v * v for v in y[lag:])
        assert abs(Fraction(fit.rss_restricted) - rss_r) <= 1e-9 * scale
        assert abs(Fraction(fit.rss_unrestricted) - rss_u) <= 1e-9 * scale
        if rss_u:
            assert fit.f_stat == pytest.approx(float(f), rel=1e-9, abs=1e-9)
        assert fit.p_value == pytest.approx(stats.f.sf(float(f), lag, len(y) - 3 * lag - 1), rel=0, abs=1e-9)
        if name == "constant_x":
            assert rss_u == rss_r and fit.p_value == pytest.approx(1.0, abs=1e-9)
        if name == "perfect_fit":
            assert rss_u == 0 and f == math.inf and fit.p_value <= 1e-9


class TestGrangerTest:
    def test_huge_max_lag_stops_at_the_series_length(self):
        # a lag past the differenced series' length has no sample: the loop stops there
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert granger_test(x, y, max_lag=10**15).pvalues == granger_test(x, y, max_lag=29).pvalues

    def test_deterministic_causation_tiny_p(self):
        x = np.sin(np.arange(40) * 0.7) + np.arange(40) * 0.01
        y = np.concatenate([[0.0], x[:-1]])
        res = granger_test(x, y, max_lag=2)
        assert res.pvalues[1] <= 1e-10

    def test_constant_x_convention(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=30)
        x = np.full(30, 7.0)
        res = granger_test(x, y, max_lag=2)
        assert all(p == 1.0 for p in res.pvalues.values())

    def test_constant_target_rejected(self):
        x = np.arange(30.0)
        with pytest.raises(DataError):
            granger_test(x, np.full(30, 2.0), max_lag=2)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=60)
        y = 0.4 * np.concatenate([[0.0], x[:-1]]) + rng.normal(size=60)
        base = granger_test(x, y, max_lag=3)
        scaled = granger_test(5.0 * x - 11.0, -2.0 * y + 3.0, max_lag=3)
        for lag in base.pvalues:
            assert base.fstats[lag] == pytest.approx(scaled.fstats[lag], rel=1e-8)

    def test_short_series_skips_high_lags(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=14), rng.normal(size=14)
        res = granger_test(x, y, max_lag=6)
        assert res.skipped
        assert max(res.pvalues) < 6

    def test_metric_series_alignment(self):
        # a missing value splits the overlap; the longer run after it is kept
        xs = series(list(np.sin(np.arange(30))), name="x")
        ys = series([None if i == 3 else v for i, v in enumerate(np.cos(np.arange(30)))], name="y")
        xv, yv = contiguous_overlap(xs, ys)
        assert np.array_equal(xv, np.sin(np.arange(4, 30))) and np.array_equal(yv, np.cos(np.arange(4, 30)))
        res = granger_test(xv, yv, max_lag=2)
        assert set(res.pvalues) == {1, 2}

    def test_no_usable_lag(self):
        with pytest.raises(DataError):
            granger_test(np.arange(5.0), np.array([1.0, 2.0, 1.0, 2.0, 1.5]), max_lag=6)


class TestBhFdr:
    def test_two_value_fixture(self):
        assert bh_fdr([0.005, 0.05]) == pytest.approx([0.01, 0.05])

    def test_four_value_fixture(self):
        assert bh_fdr([0.01, 0.02, 0.03, 0.04]) == pytest.approx([0.04, 0.04, 0.04, 0.04])

    def test_single_p_identity(self):
        assert bh_fdr([0.3]) == pytest.approx([0.3])

    def test_largest_p_not_rounded_below_raw(self):
        # 0.986598936225114 * 3 / 3 rounds one ulp down, to 0.9865989362251139
        p = [0.01, 0.02, 0.986598936225114]
        assert p[2] * 3 / 3 < p[2]
        assert bh_fdr(p)[2] == p[2]

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            bh_fdr([0.5, 1.5])
        with pytest.raises(DataError):
            bh_fdr([0.5, float("nan")])

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_adjusted_at_least_raw_and_order_preserving(self, pvals):
        adj = bh_fdr(pvals)
        assert np.all(adj >= np.asarray(pvals))
        assert np.all(adj <= 1.0)
        order = np.argsort(pvals, kind="stable")
        sorted_adj = adj[order]
        assert np.all(np.diff(sorted_adj) >= -1e-15)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
    @settings(max_examples=200)
    def test_matches_exact_definition_with_ties(self, pvals):
        # p * m / rank rounds twice (relative 2u + u^2, u = 2^-53, plus 2^-1073 where it is subnormal);
        # the running minimum, the cap and the floor at the raw p-value move no value away from the exact one
        u = Fraction(1, 2**53)
        adjusted = bh_fdr(pvals)
        for got, exact in zip(adjusted.tolist(), bh_oracle(pvals)):
            assert abs(Fraction(got) - exact) <= (2 * u + u * u) * exact + Fraction(1, 2**1073)
        for p in set(pvals):
            assert len({a for a, q in zip(adjusted.tolist(), pvals) if q == p}) == 1  # tied p-values, one adjusted value

    def test_matches_statsmodels(self):
        mt = pytest.importorskip("statsmodels.stats.multitest")
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.random(rng.integers(1, 40))
            ours = bh_fdr(p)
            theirs = mt.multipletests(p, method="fdr_bh")[1]
            assert ours == pytest.approx(theirs, abs=1e-12)


class TestForecast:
    def test_constant_series(self):
        fc = forecast(series([2.5] * 12), horizon=4)
        assert fc.points == pytest.approx((2.5,) * 4)
        assert fc.upper[0] - fc.lower[0] == pytest.approx(0.0, abs=1e-6)

    def test_linear_trend_continuation(self):
        fc = forecast(series([3.0 * i for i in range(15)]), horizon=3)
        assert fc.points == pytest.approx((45.0, 48.0, 51.0), abs=1e-6)

    def test_band_ordering_and_widening(self):
        rng = np.random.default_rng(8)
        vals = np.cumsum(rng.normal(size=30)) + 10
        fc = forecast(series(list(vals)), horizon=6)
        widths = []
        for lo, pt, hi in zip(fc.lower, fc.points, fc.upper):
            assert lo <= pt <= hi
            widths.append(hi - lo)
        assert all(b >= a - 1e-12 for a, b in zip(widths, widths[1:]))

    def test_too_short(self):
        with pytest.raises(DataError):
            forecast(series([1.0] * 9), horizon=2)

    def test_missing_values_rejected(self):
        with pytest.raises(DataError):
            forecast(series([1.0, None] + [2.0] * 10), horizon=2)

    def test_ar1_coverage_smoke(self):
        # light version of the acceptance coverage check
        rng = np.random.default_rng(9)
        hits = 0
        trials = 100
        for _ in range(trials):
            e = rng.normal(size=61)
            x = np.zeros(61)
            for t in range(1, 61):
                x[t] = 0.5 * x[t - 1] + e[t]
            fc = forecast(series(list(x[:60])), horizon=1)
            hits += fc.lower[0] <= x[60] <= fc.upper[0]
        assert 0.85 <= hits / trials <= 1.0


class TestTrendDiagnostic:
    def test_too_short_to_test_reads_one(self):
        # one year cannot be differenced; two to four years leave fewer than four differences
        for n in range(1, 5):
            assert trend_diagnostic(series([0.1 * i * i for i in range(n)])) == 1.0

    def test_strong_trend_flagged(self):
        vals = [0.1 * i * i for i in range(20)]
        assert trend_diagnostic(series(vals)) < 0.05

    def test_white_noise_not_flagged(self):
        rng = np.random.default_rng(10)
        ps = [trend_diagnostic(series(list(rng.normal(size=24)))) for _ in range(40)]
        assert np.mean([p < 0.05 for p in ps]) < 0.2


class TestTailParity:
    """The F, normal and t tails come from scipy.special, in the calls that
    scipy.stats makes itself; each equals the scipy.stats value byte for
    byte. scipy.stats is imported inside these tests only."""

    @staticmethod
    def same_bytes(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_f_tail_matches_stats_on_grid(self):
        from scipy import special, stats
        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0, 1e-300, 1e300], rng.exponential(3.0, 60), rng.uniform(0.0, 1e3, 20)])
        for d1 in range(1, 7):
            for d2 in range(1, 41):
                assert self.same_bytes(special.fdtrc(d1, d2, x), stats.f.sf(x, d1, d2)), (d1, d2)

    def test_two_sided_t_tail_matches_stats_on_grid(self):
        from scipy import special, stats
        rng = np.random.default_rng(12)
        t = np.concatenate([[0.0, -0.0, 1e-300, 1e300], rng.normal(0.0, 3.0, 80)])
        for df in range(1, 41):
            got = 2.0 * special.stdtr(df, -np.abs(t))
            assert self.same_bytes(got, 2.0 * stats.t.sf(np.abs(t), df)), df

    def test_normal_quantile_matches_stats_at_forecast_levels(self):
        from scipy import special, stats
        q = 0.5 + np.arange(1, 1000) / 1000.0 / 2.0
        assert self.same_bytes(special.ndtri(q), stats.norm.ppf(q))

    def test_fit_p_value_is_stats_f_tail(self):
        from scipy import stats
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = np.cumsum(rng.normal(size=30))
            y = 0.4 * np.concatenate([[0.0], x[:-1]]) + rng.normal(size=30)
            for lag in (1, 2, 3):
                fit = fit_restricted_unrestricted(y, x, lag)
                assert fit.p_value == float(stats.f.sf(fit.f_stat, *fit.dof))

    def test_forecast_band_uses_stats_normal_quantile(self):
        from scipy import stats
        rng = np.random.default_rng(14)
        s = series(list(np.cumsum(rng.normal(size=20))))
        for level in (0.001, 0.5, 0.8, 0.95, 0.999):
            fc = forecast(s, horizon=1, level=level)
            z = float(stats.norm.ppf(0.5 + level / 2.0))
            half = z * np.sqrt(fc.sigma2 * np.ones(1))
            assert fc.upper[0] == float(fc.points[0] + half[0])
            assert fc.lower[0] == float(fc.points[0] - half[0])

    def test_trend_p_value_is_stats_t_tail(self, monkeypatch):
        from scipy import special, stats
        calls = []
        stdtr = special.stdtr

        def recording(df, x):
            calls.append((df, x))
            return stdtr(df, x)

        monkeypatch.setattr(special, "stdtr", recording)
        rng = np.random.default_rng(15)
        for n in (6, 12, 24):
            for _ in range(10):
                calls.clear()
                p = trend_diagnostic(series(list(np.cumsum(rng.normal(0.1, 1.0, size=n)))))
                [(df, x)] = calls
                assert df == n - 3 and x <= 0.0
                assert p == float(2.0 * stats.t.sf(-x, df))
