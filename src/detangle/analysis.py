"""Correlation of metric scores against held-out generalization scores.

Pearson r with a two-sided t-test p-value. The p-value uses the regularized
incomplete beta function evaluated with a Lentz continued fraction, so the
package needs no stats dependency at runtime.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .metrics import AGGREGATE_MODES, PER_FACTOR_METRICS, aggregate
from .util import payload_kind, require_distinct

_BETA_EPS = 3e-14
_BETA_FPMIN = 1e-300
_BETA_MAX_ITER = 300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ValidationError("incomplete beta continued fraction failed to converge")


def _off_zero(value: float) -> float:
    """value, or _BETA_FPMIN in its place when it lies closer to zero."""
    return _BETA_FPMIN if abs(value) < _BETA_FPMIN else value


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValidationError("incomplete beta needs a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise ValidationError("incomplete beta needs x in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Symmetry switch keeps the continued fraction in its fast-converging zone.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with df degrees of freedom."""
    if df < 1:
        raise ValidationError("t-test needs at least 1 degree of freedom")
    if math.isinf(t):
        return 0.0
    return betainc_regularized(df / 2.0, 0.5, df / (df + t * t))


def pearson(x: Sequence[float], y: Sequence[float]) -> dict:
    """Pearson correlation with a two-sided significance test: the
    correlation block of a correlate payload, with keys r, n, t, p and
    p_floored.

    Needs n >= 3 finite points and nonzero variance on both sides. A perfect
    |r| = 1 fit has an infinite t statistic; its p is reported as the
    smallest positive normal float and flagged via p_floored.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or yv.ndim != 1:
        raise ValidationError("pearson expects two 1-d sequences")
    if xv.size != yv.size:
        raise ValidationError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 3:
        raise ValidationError("pearson needs at least 3 points")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise ValidationError("pearson inputs must be finite")
    xv, yv = _scaled(xv), _scaled(yv)
    dx = xv - xv.mean()
    dy = yv - yv.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValidationError("pearson is undefined for a zero-variance input")
    r = float(np.sum(dx * dy) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    n = int(xv.size)
    df = n - 2
    if abs(r) == 1.0:
        t, p = math.copysign(math.inf, r), 0.0
    else:
        t = r * math.sqrt(df) / math.sqrt(1.0 - r * r)
        p = t_two_sided_p(t, df)
    floored = p < sys.float_info.min
    return {
        "schema_version": 1,
        "r": r,
        "n": n,
        "t": t,
        "p": max(p, sys.float_info.min),
        "p_floored": floored,
    }


def _scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings its largest magnitude into
    [0.5, 1), when that magnitude lies outside [2**-256, 2**256] and the sums
    of squares in pearson could overflow or underflow; else v itself. A power
    of two scales every sum and square root exactly, so r is that of v."""
    exponent = math.frexp(float(np.max(np.abs(v))))[1]
    return np.ldexp(v, -exponent) if abs(exponent) > 256 else v


MEAN_ALL = "mean_all"
MEAN_SUBSET = "mean_subset"
PRODUCT_SUBSET = "product_subset"
BASELINE_AGGREGATES = (MEAN_ALL, MEAN_SUBSET, PRODUCT_SUBSET)

# The corrected metrics aggregate over the chosen factor subset; the older
# baseline metrics default to their usual mean over all factors but can be
# restricted the same way for a like-for-like comparison.
SUBSET_METRICS = ("snc", "nk")


def _aggregate_from_payload(
    payload: dict, metric: str, subset: Sequence[str] | None, mode: str
) -> float:
    """Combine one metric's per-factor scores into a single model score."""
    block = payload.get(metric)
    per_factor = block.get("per_factor") if isinstance(block, dict) else None
    if not isinstance(per_factor, dict):
        raise ValidationError(f"metric payload has no {metric!r} block with per-factor scores")
    missing = [name for name in subset or () if name not in per_factor]
    if missing:
        raise ValidationError(f"metric payload lacks factors {missing} for {metric!r}")
    for name in subset or per_factor:
        score = per_factor[name]
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise ValidationError(
                f"metric payload's {metric!r} score for factor {name!r} is not a number: {score!r}"
            )
        if isinstance(score, int) and abs(score) > sys.float_info.max:
            raise ValidationError(
                f"metric payload's {metric!r} score for factor {name!r} is too large for a float")
    return aggregate(per_factor, mode, subset)


def _cg_score(payload: dict) -> float:
    try:
        kind = payload_kind(payload)
    except ValidationError as exc:
        raise ValidationError(f"not a generalization payload: {exc}") from exc
    if kind == "cg_run":
        return float(payload["joint_both"]["adjusted"])
    if kind != "cg_suite":
        raise ValidationError(f"not a generalization payload: got a {kind} payload")
    averages = payload["averages"]
    if not averages:
        raise ValidationError("suite payload holds no probe kind")
    if len(averages) != 1:
        raise ValidationError("suite payload holds several probe kinds; correlate one at a time")
    (avg,) = averages.values()
    return float(avg["joint_both_adjusted"])


def correlate_metrics_with_cg(
    metric_payloads: Sequence[dict],
    cg_payloads: Sequence[dict],
    subset: Sequence[str],
    metrics: Sequence[str] = PER_FACTOR_METRICS,
    aggregate_mode: str = "product",
    baseline_aggregate: str = MEAN_ALL,
) -> dict:
    """Correlate per-model metric aggregates against held-out joint scores.

    Position i pairs metric_payloads[i] with cg_payloads[i] (one model per
    position). snc and nk combine their per-factor scores over `subset` with
    aggregate_mode; the remaining metrics use baseline_aggregate (mean over
    all factors, or mean/product over the subset). The target score is the
    chance-adjusted joint accuracy on the excluded combination.
    """
    unknown = [m for m in metrics if m not in PER_FACTOR_METRICS]
    if unknown:
        raise ValidationError(
            f"cannot correlate {unknown}: per-factor scores exist only for {PER_FACTOR_METRICS}"
        )
    if len(metric_payloads) != len(cg_payloads):
        raise ValidationError(
            f"got {len(metric_payloads)} metric payloads but {len(cg_payloads)} "
            "generalization payloads"
        )
    if not metrics:
        raise ValidationError("correlate needs at least one metric column")
    require_distinct(metrics, "metric column")
    if not subset:
        raise ValidationError("correlate needs a nonempty factor subset")
    require_distinct(subset, "factor in subset")
    if aggregate_mode not in AGGREGATE_MODES:  # aggregate's own message
        raise ValidationError(f"unknown aggregate mode {aggregate_mode!r}, "
                              f"expected one of {AGGREGATE_MODES}")
    if baseline_aggregate not in BASELINE_AGGREGATES:
        raise ValidationError(
            f"baseline_aggregate must be one of {BASELINE_AGGREGATES}, "
            f"got {baseline_aggregate!r}"
        )
    y = [_cg_score(p) for p in cg_payloads]
    out: dict = {
        "schema_version": 1,
        "subset": list(subset),
        "aggregate_mode": aggregate_mode,
        "baseline_aggregate": baseline_aggregate,
        "n_models": len(metric_payloads),
        "generalization": y,
        "per_metric": {},
    }
    for metric in metrics:
        if metric in SUBSET_METRICS:
            names, mode = subset, aggregate_mode
        else:
            names = None if baseline_aggregate == MEAN_ALL else subset
            mode = "product" if baseline_aggregate == PRODUCT_SUBSET else "mean"
        x = [_aggregate_from_payload(p, metric, names, mode) for p in metric_payloads]
        out["per_metric"][metric] = {"values": x, "correlation": pearson(x, y)}
    return out


def render_correlation_table(payload: dict) -> str:
    lines = [
        f"models: {payload['n_models']}   subset: {', '.join(payload['subset'])}",
        f"{'metric':<8}{'r':>9}{'t':>10}{'p':>13}",
    ]
    for metric, block in payload["per_metric"].items():
        corr = block["correlation"]
        lines.append(
            f"{metric:<8}{corr['r']:9.4f}{corr['t']:10.4f}{corr['p']:13.3e}"
        )
    return "\n".join(lines) + "\n"
