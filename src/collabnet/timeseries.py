"""Annual metric series and the econometrics that run on them.

Granger tests follow the restricted-vs-unrestricted OLS formulation: the
restricted model regresses the target on an intercept and its own lags, the
unrestricted model adds the same number of lags of the candidate predictor,
and the joint F statistic compares the two residual sums of squares. Series
are first-differenced before estimation; lag order is picked by AIC and the
whole grid of raw p-values is adjusted jointly with Benjamini-Hochberg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError


@dataclass
class MetricSeries:
    """A named annual time series with explicit missing markers."""

    name: str
    years: tuple[int, ...]
    values: tuple[float | None, ...]
    unit: str = ""

    def __post_init__(self):
        self.years = tuple(int(y) for y in self.years)
        self.values = tuple(None if v is None else float(v) for v in self.values)
        if len(self.years) != len(self.values):
            raise DataError(f"series {self.name!r}: {len(self.years)} years vs {len(self.values)} values")
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise DataError(f"series {self.name!r}: years must be strictly increasing")

    def __len__(self) -> int:
        return len(self.years)

    def value_at(self, year: int) -> float | None:
        try:
            return self.values[self.years.index(year)]
        except ValueError:
            return None

    def present(self) -> tuple[np.ndarray, np.ndarray]:
        """Years and values with missing entries dropped."""
        pairs = [(y, v) for y, v in zip(self.years, self.values) if v is not None]
        if not pairs:
            return np.array([], dtype=int), np.array([], dtype=float)
        ys, vs = zip(*pairs)
        return np.array(ys, dtype=int), np.array(vs, dtype=float)

    @classmethod
    def from_pairs(cls, name: str, pairs, unit: str = "") -> "MetricSeries":
        pairs = sorted(pairs, key=lambda p: p[0])
        return cls(name, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs), unit)


def first_difference(series: MetricSeries) -> MetricSeries:
    """Consecutive differences; a difference touching a missing value is missing."""
    if len(series) < 2:
        raise DataError(f"series {series.name!r} too short to difference (length {len(series)})")
    diffs = []
    for prev, cur in zip(series.values, series.values[1:]):
        diffs.append(None if prev is None or cur is None else cur - prev)
    return MetricSeries(series.name, series.years[1:], tuple(diffs), series.unit)


def contiguous_overlap(x: MetricSeries, y: MetricSeries) -> tuple[np.ndarray, np.ndarray]:
    """Longest run of consecutive years where both series have values."""
    common = sorted(set(x.years) & set(y.years))
    runs: list[list[int]] = []
    for year in common:
        if x.value_at(year) is None or y.value_at(year) is None:
            continue
        if runs and runs[-1][-1] == year - 1:
            runs[-1].append(year)
        else:
            runs.append([year])
    if not runs:
        raise DataError(f"series {x.name!r} and {y.name!r} share no usable years")
    best = max(runs, key=len)
    xs = np.array([x.value_at(yr) for yr in best], dtype=float)
    ys = np.array([y.value_at(yr) for yr in best], dtype=float)
    return xs, ys


def _lag_matrix(v: np.ndarray, lag: int) -> np.ndarray:
    """Columns are v lagged by 1..lag, rows aligned with v[lag:]."""
    T = len(v)
    return np.column_stack([v[lag - 1 - i : T - 1 - i] for i in range(lag)])


def _ols_rss(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ beta
    return beta, float(resid @ resid)


@dataclass
class LagFit:
    """One restricted/unrestricted regression pair at a fixed lag order."""

    lag: int
    rss_restricted: float
    rss_unrestricted: float
    aic: float
    dof: tuple[int, int]
    f_stat: float
    p_value: float


def fit_restricted_unrestricted(y, x, lag: int) -> LagFit:
    """OLS of y on its own lags (restricted) vs own lags plus lags of x.

    Inputs are already-differenced aligned arrays. AIC is
    T_eff * ln(RSS/T_eff) + 2k with k counting all estimated coefficients
    of the unrestricted model (intercept plus 2*lag slopes).
    """
    from scipy import special  # loaded on the first F test; fdtrc is what scipy.stats' F tail calls
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise DataError("y and x must be aligned one-dimensional series")
    T = len(y)
    t_eff = T - lag
    if t_eff < 2 * lag + 2:
        raise DataError(f"insufficient sample for lag {lag}: {t_eff} effective obs, need {2 * lag + 2}")

    target = y[lag:]
    own = _lag_matrix(y, lag)
    other = _lag_matrix(x, lag)
    ones = np.ones((t_eff, 1))
    design_r = np.hstack([ones, own])
    design_u = np.hstack([ones, own, other])

    if np.linalg.matrix_rank(design_r) < design_r.shape[1]:
        raise NumericError(f"rank-deficient restricted design at lag {lag}")

    _, rss_r = _ols_rss(design_r, target)
    _, rss_u = _ols_rss(design_u, target)
    rss_u = min(rss_u, rss_r)  # adding regressors cannot raise the RSS

    k = 2 * lag + 1
    aic = -math.inf if rss_u <= 0.0 else t_eff * math.log(rss_u / t_eff) + 2 * k
    dof = (lag, t_eff - 2 * lag - 1)

    if rss_u <= 0.0:
        f_stat = math.inf
    else:
        f_stat = max(0.0, (rss_r - rss_u) / lag / (rss_u / dof[1]))
    p_value = float(special.fdtrc(*dof, f_stat)) if math.isfinite(f_stat) else 0.0

    return LagFit(lag, rss_r, rss_u, aic, dof, f_stat, p_value)


@dataclass
class GrangerTest:
    """Per-lag F-test results for one (predictor, target) pair."""

    pvalues: dict[int, float]
    aic: dict[int, float]
    fstats: dict[int, float]
    optimal_lag: int
    skipped: tuple[int, ...]


def granger_test(x, y, max_lag: int = 6) -> GrangerTest:
    """Does the past of x improve one-step predictions of y?

    x and y are aligned arrays of annual levels; `contiguous_overlap`
    aligns two MetricSeries. Both are first-differenced (the descriptive
    rolling window is never applied here). Lags whose effective sample is
    too small are skipped and reported; the optimal lag minimizes AIC over
    usable lags.
    """
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xv.shape != yv.shape:
        raise DataError("x and y must cover the same years")
    if len(xv) < 2:
        raise DataError("series too short to difference")
    xv = np.diff(xv)
    yv = np.diff(yv)
    if np.ptp(yv) == 0.0:
        raise DataError("target series has no variation after differencing")

    pvalues: dict[int, float] = {}
    aics: dict[int, float] = {}
    fstats: dict[int, float] = {}
    skipped: list[int] = []
    for lag in range(1, max_lag + 1):
        try:
            fit = fit_restricted_unrestricted(yv, xv, lag)
        except (DataError, NumericError):
            skipped.append(lag)
            continue
        pvalues[lag] = fit.p_value
        aics[lag] = fit.aic
        fstats[lag] = fit.f_stat
    if not pvalues:
        raise DataError(f"no usable lag up to {max_lag} for series of length {len(yv)}")
    optimal = min(aics, key=lambda lag: (aics[lag], lag))
    return GrangerTest(pvalues, aics, fstats, optimal, tuple(skipped))


def bh_fdr(pvalues) -> np.ndarray:
    """Benjamini-Hochberg step-up adjustment, original order preserved."""
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DataError("bh_fdr needs a non-empty one-dimensional p-value vector")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise DataError("p-values must be finite and within [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    adjusted = np.empty(m, dtype=float)
    adjusted[order] = adjusted_sorted
    # p * m / rank can round one ulp below p when rank == m
    return np.maximum(adjusted, p)


@dataclass
class Forecast:
    """Point forecasts with symmetric Gaussian bands."""

    model: str
    horizon: int
    years: tuple[int, ...]
    points: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    level: float
    sigma2: float


@np.errstate(over="ignore", invalid="ignore")  # a fit that overflows is refused as a whole
def forecast(series: MetricSeries, horizon: int, level: float = 0.95) -> Forecast:
    """Fit an AR(p<=3)-with-drift model by AIC and iterate it forward.

    The horizon may not exceed the series length. Band widths come from
    the propagated innovation variance (psi-weight recursion), so they are
    non-decreasing with the horizon.
    """
    from scipy import special  # loaded on first forecast; ndtri is scipy.stats' normal quantile
    if horizon < 1:
        raise DataError("horizon must be at least 1")
    if not 0.0 < level < 1.0:
        raise DataError(f"forecast level must lie strictly between 0 and 1, got {level}")
    values = [v for v in series.values if v is not None]
    if len(values) != len(series.values):
        raise DataError(f"series {series.name!r} has missing values; fill or trim before forecasting")
    if series.years and series.years[-1] - series.years[0] != len(series) - 1:
        raise DataError(f"series {series.name!r} skips a year; its years must be consecutive to forecast")
    v = np.asarray(values, dtype=float)
    if len(v) < 10:
        raise DataError(f"series {series.name!r} too short to forecast (length {len(v)}, need 10)")
    if horizon > len(v):
        raise DataError(f"horizon {horizon} exceeds the length {len(v)} of series {series.name!r}")

    best: tuple[float, int, np.ndarray, float] | None = None  # (aic, order, beta, sigma2)
    for order in range(0, 4):
        t_eff = len(v) - order
        k = order + 1
        if t_eff <= k:
            continue
        target = v[order:]
        design = np.ones((t_eff, 1)) if order == 0 else np.hstack([np.ones((t_eff, 1)), _lag_matrix(v, order)])
        beta, rss = _ols_rss(design, target)
        aic = -math.inf if rss <= 0.0 else t_eff * math.log(rss / t_eff) + 2 * k
        sigma2 = max(rss, 0.0) / max(t_eff - k, 1)
        if best is None or (aic, order) < (best[0], best[1]):
            best = (aic, order, beta, sigma2)
    if best is None:
        raise DataError(f"series {series.name!r} too short to fit any autoregression")
    _, order, beta, sigma2 = best
    drift, phi = float(beta[0]), np.asarray(beta[1:], dtype=float)

    history = list(v)
    points = []
    for _ in range(horizon):
        nxt = drift + sum(phi[i] * history[-1 - i] for i in range(order))
        points.append(float(nxt))
        history.append(nxt)

    # psi-weight recursion: forecast error variance at horizon h is
    # sigma2 * sum of psi_j^2 for j < h
    psi = [1.0]
    for j in range(1, horizon):
        psi.append(sum(phi[i] * psi[j - 1 - i] for i in range(min(j, order))))
    z = float(special.ndtri(0.5 + level / 2.0))
    cum = np.cumsum(np.asarray(psi) ** 2)
    half = z * np.sqrt(sigma2 * cum)
    lower = tuple(float(p - h) for p, h in zip(points, half))
    upper = tuple(float(p + h) for p, h in zip(points, half))
    if not np.isfinite([sigma2, *points, *lower, *upper]).all():
        raise NumericError(f"forecast of series {series.name!r} is not finite: its values are too large to fit")

    last_year = series.years[-1]
    years = tuple(last_year + h for h in range(1, horizon + 1))
    return Forecast(f"ar{order}+drift", horizon, years, tuple(points), lower, upper, level, float(sigma2))


def trend_diagnostic(series: MetricSeries) -> float:
    """p-value of a linear trend remaining in the differenced series.

    Small values signal residual non-stationarity after differencing; the
    Granger pipeline reports the share of flagged series but never blocks.
    Under two years or four present differences it reads 1.0.
    """
    from scipy import special  # loaded on first use; stdtr(df, -|t|) is scipy.stats' t tail
    if len(series) < 2:
        return 1.0
    _, v = first_difference(series).present()
    if len(v) < 4:
        return 1.0
    t = np.arange(len(v), dtype=float)
    design = np.column_stack([np.ones_like(t), t])
    beta, rss = _ols_rss(design, v)
    dof = len(v) - 2
    if rss <= 0.0 or dof <= 0:
        return 1.0
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    t_stat = beta[1] / math.sqrt(cov[1, 1])
    return float(2.0 * special.stdtr(dof, -abs(t_stat)))
