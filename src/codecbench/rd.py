"""Rate-distortion curves and Bjøntegaard deltas between codec runs.

Deltas are computed on a monotone piecewise-cubic (PCHIP) interpolant of
log10(bitrate) against quality, integrated in closed form over the
quality range shared by both curves. PCHIP avoids the overshoot a global
cubic fit exhibits on short curves while still passing through every
measured point. The fit is scipy's ``PchipInterpolator`` rule (Fritsch &
Carlson 1980, with its three-point end slopes) computed here in numpy.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InputError
from .report import mean, read_csv

# An overlap no wider than this share of the narrower curve's span on the
# integration axis makes the average meaningless, in any metric's units.
MIN_OVERLAP_SHARE = 0.1

RD_CSV_COLUMNS = {"codec": str, "sequence": str, "metric": str, "label": str,
                  "bitrate_kbps": float, "quality": float}


@dataclass(frozen=True)
class RDPoint:
    """One operating point: bitrate in kbit/s, measured quality and a name for faults."""

    bitrate: float
    quality: float
    label: str = ""

    def __post_init__(self):
        if not (self.bitrate > 0 and math.isfinite(self.bitrate)):
            raise InputError(f"bitrate must be positive and finite, got {self.bitrate}")
        if not math.isfinite(self.quality):
            raise InputError(f"quality must be finite, got {self.quality}")


@dataclass(frozen=True)
class RDCurve:
    """Points sorted by bitrate, checked at construction: at least three,
    distinct log10 bitrates, and quality that strictly increases with
    bitrate. Non-monotone curves (possible with subjective scores) are
    rejected so the user inspects the data instead of the tool silently
    reordering it."""

    codec_id: str
    sequence_id: str
    metric_id: str
    points: tuple[RDPoint, ...]

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=lambda p: p.bitrate))
        object.__setattr__(self, "points", pts)
        name = f"curve {self.codec_id}/{self.sequence_id}/{self.metric_id}"
        if len(pts) < 3:
            raise InputError(f"{name}: need at least 3 points, got {len(pts)}")
        for i in range(len(pts) - 1):
            # Distinct rates can still share a log10 value on the axis the fits read.
            if self.log_rates[i] == self.log_rates[i + 1]:
                raise InputError(
                    f"{name}: duplicate log10 bitrate between points {pts[i].label!r} "
                    f"and {pts[i + 1].label!r} ({pts[i].bitrate} and {pts[i + 1].bitrate})"
                )
            if pts[i].quality >= pts[i + 1].quality:
                raise InputError(
                    f"{name}: quality not strictly increasing with bitrate between "
                    f"points {pts[i].label!r} and {pts[i + 1].label!r} "
                    f"({pts[i].quality} -> {pts[i + 1].quality}); inspect the data"
                )

    # Each axis and fit is built once per curve and shared by every caller.
    @cached_property
    def qualities(self) -> np.ndarray:
        return _read_only([p.quality for p in self.points])

    @cached_property
    def log_rates(self) -> np.ndarray:
        return _read_only(np.log10(np.array([p.bitrate for p in self.points], np.float64)))

    @cached_property
    def rate_fit(self) -> _Pchip:
        """log10 bitrate as a function of quality."""
        with _float64_fit():
            return _Pchip(self.qualities, self.log_rates)

    @cached_property
    def quality_fit(self) -> _Pchip:
        """Quality as a function of log10 bitrate."""
        with _float64_fit():
            return _Pchip(self.log_rates, self.qualities)


def _read_only(values) -> np.ndarray:
    """values as a float64 array that no caller can write to."""
    array = np.array(values, dtype=np.float64)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class BDResult:
    """Delta between two curves: percent of rate from bd_rate, metric
    units of quality from bd_quality."""

    delta: float
    overlap: tuple[float, float]
    warnings: tuple[str, ...] = ()


def _end_slope(h0, h1, m0, m1):
    """Three-point one-sided slope at an end knot, clamped at 0 to stay monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if d > 0 else 0.0


class _Pchip:
    """Monotone piecewise cubic through (x, y), as scipy's PchipInterpolator
    builds it: row j of ``c`` holds each interval's coefficient of
    (x - x_k)**(3 - j). x and y must strictly increase over at least 3
    knots, as both axes of an RDCurve do: scipy's branches for flat or
    falling data are left out."""

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        # Interior knots: weighted harmonic mean of the neighbouring secants.
        d = np.empty_like(y)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x, self.h = x, h
        self.c = np.array([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

    def _power_sum(self, c, q):
        """Sum of c[j] * s**(len(c) - 1 - j), s = q - x_k on q's interval k
        (the end intervals extend outward), added from the constant up."""
        k = np.clip(np.searchsorted(self.x, q, side="right") - 1, 0, len(self.h) - 1)
        s = q - self.x[k]
        total, power = c[-1, k], 1.0
        for row in c[-2::-1]:
            power = power * s
            total = total + row[k] * power
        return total

    def __call__(self, q):
        return self._power_sum(self.c, q)

    def integral(self, lo, hi):
        """Closed-form integral over [lo, hi]: the antiderivative at ``hi``
        minus at ``lo``."""
        a = self.c / [[4.0], [3.0], [2.0], [1.0]]
        # The antiderivative's constant on interval k integrates intervals
        # 0..k-1: one running sum of their terms a[3 - j] * h**(j + 1).
        powers = np.cumprod(np.broadcast_to(self.h, a.shape), axis=0)
        ends = np.cumsum((a[::-1] * powers).T.ravel())[3::4]
        anti = np.vstack((a, np.concatenate(([0.0], ends[:-1]))))
        start, end = self._power_sum(anti, np.array([lo, hi]))
        return end - start


@contextmanager
def _float64_fit():
    """Raise InputError where a fit or its use overflows or leaves float64:
    finite points too close together give infinite slopes."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise InputError(f"curves cannot be interpolated in float64: {exc}") from None


def _bd_delta(anchor: RDCurve, test: RDCurve, axis_name: str, fit: str):
    """Mean of test minus anchor over the overlap of their x ranges, each
    curve's y(x) its cached PCHIP fit named ``fit``, integrated in closed
    form, as a BDResult with a warning per point outside the overlap."""
    if anchor.metric_id != test.metric_id:
        raise InputError(
            f"metric mismatch: anchor uses {anchor.metric_id!r}, "
            f"test uses {test.metric_id!r}"
        )
    fit_anchor, fit_test = getattr(anchor, fit), getattr(test, fit)
    lo = max(float(fit_anchor.x[0]), float(fit_test.x[0]))
    hi = min(float(fit_anchor.x[-1]), float(fit_test.x[-1]))
    width = hi - lo
    with _float64_fit():
        floor = MIN_OVERLAP_SHARE * min(np.ptp(fit_anchor.x), np.ptp(fit_test.x))
        if width <= floor:
            found = (f"do not overlap (gap of {-width:.6g})" if width <= 0
                     else f"overlap by only {width:.6g}")
            raise InputError(f"curves {found} on the {axis_name} axis; BD needs more "
                             f"than {floor:.6g}, {MIN_OVERLAP_SHARE:.0%} of the narrower span")
        mean_diff = (fit_test.integral(lo, hi) - fit_anchor.integral(lo, hi)) / width
    warnings = tuple(
        f"{role} point (bitrate={point.bitrate:g}, "
        f"quality={point.quality:g}) lies outside the "
        f"{axis_name} overlap [{lo:.6g}, {hi:.6g}]"
        for role, curve in (("anchor", anchor), ("test", test))
        for point, value in zip(curve.points, getattr(curve, fit).x)
        if value < lo or value > hi
    )
    return BDResult(float(mean_diff), (lo, hi), warnings)


def bd_rate(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average bit-rate difference (percent) at equal quality.

    Negative values mean the test codec needs less rate than the anchor.
    """
    result = _bd_delta(anchor, test, "quality", "rate_fit")
    try:
        return replace(result, delta=(10.0 ** result.delta - 1.0) * 100.0)
    except OverflowError:
        raise InputError(
            f"BD-rate overflows: mean log10 rate difference {result.delta:.6g}"
        ) from None


def bd_quality(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average quality difference at equal rate, in metric units."""
    return _bd_delta(anchor, test, "log-rate", "quality_fit")


def interpolate_log_rate(curve: RDCurve, qualities) -> np.ndarray:
    """Evaluate the curve's log10(bitrate) interpolant at given qualities."""
    with _float64_fit():
        return curve.rate_fit(np.asarray(qualities, dtype=np.float64))


def compare(curves, anchor: str, test: str):
    """Pair each anchor curve with the test curve of its (sequence, metric)
    and take both deltas. Returns the pairs as (sequence, metric, bd_rate
    result, bd_quality result) in anchor-curve order, and each metric's
    mean (BD-rate percent, BD-quality) in sorted metric order, each by
    report.mean over the pairs in order. A delta's InputError is raised
    again with the pair and the delta named first."""
    if anchor == test:
        raise InputError(f"--anchor and --test name the same codec {anchor!r}")
    index: dict[str, dict[tuple[str, str], RDCurve]] = {}
    for curve in curves:
        by_key = index.setdefault(curve.codec_id, {})
        key = curve.sequence_id, curve.metric_id
        if key in by_key:
            raise InputError(f"repeated curve {curve.codec_id}/{key[0]}/{key[1]}")
        by_key[key] = curve
    for role, codec in (("anchor", anchor), ("test", test)):
        if codec not in index:
            raise InputError(
                f"no curves for {role} codec {codec!r} "
                f"(codecs in file: {', '.join(index) or 'none'})"
            )
    anchors, tests = index[anchor], index[test]
    orphans = sorted(anchors.keys() ^ tests.keys())
    if orphans:
        names = ", ".join(f"{seq}/{met}" for seq, met in orphans)
        raise InputError(f"curves without a counterpart: {names}")
    pairs = []
    for (seq, met), a in anchors.items():
        deltas = []
        for name, bd in (("BD-rate", bd_rate), ("BD-quality", bd_quality)):
            try:
                deltas.append(bd(a, tests[seq, met]))
            except InputError as exc:
                raise InputError(f"{seq}/{met}: {name}: {exc}") from None
        pairs.append((seq, met, *deltas))
    by_metric: dict[str, list[tuple[float, float]]] = {}
    for _, met, r, q in pairs:
        by_metric.setdefault(met, []).append((r.delta, q.delta))
    averages = {met: tuple(map(mean, zip(*by_metric[met])))
                for met in sorted(by_metric)}
    return pairs, averages


def plot_rows(curves):
    """Rows of codec, sequence, metric, quality, log10 rate and an
    interpolated flag per curve: its measured points (flag 0), then 100
    samples of its fit evenly spaced over its quality range (flag 1)."""
    rows = []
    for curve in curves:
        ids = [curve.codec_id, curve.sequence_id, curve.metric_id]
        dense = np.linspace(curve.qualities.min(), curve.qualities.max(), 100)
        fitted = interpolate_log_rate(curve, dense)
        rows.extend(ids + [point.quality, log_rate, 0]
                    for point, log_rate in zip(curve.points, curve.log_rates.tolist()))
        rows.extend(ids + [q, log_rate, 1]
                    for q, log_rate in zip(dense.tolist(), fitted.tolist()))
    return rows


def load_rd_csv(path) -> list[RDCurve]:
    """Read operating points and group them into validated curves.

    Rows are grouped by (codec, sequence, metric); curve order follows
    first appearance in the file.
    """
    groups: dict[tuple[str, str, str], list[RDPoint]] = {}
    with read_csv(path, RD_CSV_COLUMNS) as (_, rows):
        for codec, sequence, metric, label, bitrate, quality in rows:
            curve = groups.setdefault((codec, sequence, metric), [])
            curve.append(RDPoint(bitrate, quality, label))
    return [RDCurve(*key, points) for key, points in groups.items()]
