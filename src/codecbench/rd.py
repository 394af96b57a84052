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
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import DataFormatError, InputError
from .report import read_csv, read_number

# Narrower overlap than this (in integration-axis units) makes the
# average meaningless.
MIN_OVERLAP = 0.1

RD_CSV_HEADER = ("codec", "sequence", "metric", "label", "bitrate_kbps", "quality")


@dataclass(frozen=True)
class RDPoint:
    """One operating point: bitrate in kbit/s and the measured quality."""

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
    codec_id: str
    sequence_id: str
    metric_id: str
    points: tuple[RDPoint, ...]

    # Each axis is built once per curve and shared by every caller.
    @cached_property
    def bitrates(self) -> np.ndarray:
        return _read_only([p.bitrate for p in self.points])

    @cached_property
    def qualities(self) -> np.ndarray:
        return _read_only([p.quality for p in self.points])

    @cached_property
    def log_rates(self) -> np.ndarray:
        return _read_only(np.log10(self.bitrates))


def _read_only(values) -> np.ndarray:
    """values as a float64 array that no caller can write to."""
    array = np.array(values, dtype=np.float64)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class BDResult:
    """Delta between two curves; exactly one of the two deltas is set."""

    bd_rate_percent: float | None
    bd_quality: float | None
    overlap: tuple[float, float]
    warnings: tuple[str, ...] = ()


def validate_curve(
    points, codec_id: str = "", sequence_id: str = "", metric_id: str = ""
) -> RDCurve:
    """Sort points by bitrate and reject curves a delta cannot use.

    Requires at least three points, distinct bitrates, and quality that
    strictly increases with bitrate. Non-monotone curves (possible with
    subjective scores) are rejected so the user inspects the data instead
    of the tool silently reordering it.
    """
    pts = sorted(points, key=lambda p: p.bitrate)
    if len(pts) < 3:
        raise InputError(
            f"curve {codec_id}/{sequence_id}/{metric_id}: "
            f"need at least 3 points, got {len(pts)}"
        )
    for i in range(len(pts) - 1):
        # Distinct rates can still share a log10 value, the interpolation axis.
        if math.log10(pts[i].bitrate) == math.log10(pts[i + 1].bitrate):
            raise InputError(
                f"curve {codec_id}/{sequence_id}/{metric_id}: duplicate "
                f"log10 bitrate between points {i} and {i + 1} "
                f"({pts[i].bitrate} and {pts[i + 1].bitrate})"
            )
        if pts[i].quality >= pts[i + 1].quality:
            raise InputError(
                f"curve {codec_id}/{sequence_id}/{metric_id}: quality not "
                f"strictly increasing with bitrate between points {i} and "
                f"{i + 1} ({pts[i].quality} -> {pts[i + 1].quality}); "
                f"inspect the data"
            )
    return RDCurve(codec_id, sequence_id, metric_id, tuple(pts))


def _end_slope(h0, h1, m0, m1):
    """Three-point one-sided slope at an end knot, clamped to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


class _Pchip:
    """Monotone piecewise cubic through (x, y), as scipy's PchipInterpolator
    builds it: row j of ``c`` holds each interval's coefficient of
    (x - x_k)**(3 - j)."""

    def __init__(self, x, y):
        h = np.diff(x)
        if len(x) < 3 or not (h > 0).all():
            raise InputError(
                "interpolation axis must strictly increase over at least 3 "
                f"points, got {x.tolist()}"
            )
        m = np.diff(y) / h
        # Interior knots: weighted harmonic mean of the neighbouring secants,
        # or 0 where they change sign or either is 0.
        d = np.zeros_like(y)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        same = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0)
        d[1:-1][same] = 1.0 / (
            (w1[same] / m[:-1][same] + w2[same] / m[1:][same]) / (w1 + w2)[same]
        )
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


def _bd_delta(anchor: RDCurve, test: RDCurve, axis_name: str, axes):
    """Mean of test minus anchor over the overlap of their x ranges, each
    curve's y(x) a PCHIP fit integrated in closed form; ``axes(curve)``
    gives its (x, y) arrays. Returns the mean, the overlap and a warning
    per point outside the overlap."""
    if anchor.metric_id != test.metric_id:
        raise InputError(
            f"metric mismatch: anchor uses {anchor.metric_id!r}, "
            f"test uses {test.metric_id!r}"
        )
    (x_anchor, y_anchor), (x_test, y_test) = axes(anchor), axes(test)
    lo = max(float(x_anchor.min()), float(x_test.min()))
    hi = min(float(x_anchor.max()), float(x_test.max()))
    width = hi - lo
    if width <= 0:
        raise InputError(f"curves do not overlap (gap of {-width:.6g})")
    if width <= MIN_OVERLAP:
        raise InputError(
            f"overlap width {width:.6g} is below the minimum {MIN_OVERLAP}"
        )
    with _float64_fit():
        delta = (_Pchip(x_test, y_test).integral(lo, hi)
                 - _Pchip(x_anchor, y_anchor).integral(lo, hi))
        mean_diff = delta / width
    warnings = tuple(
        f"{role} point (bitrate={point.bitrate:g}, "
        f"quality={point.quality:g}) lies outside the "
        f"{axis_name} overlap [{lo:.6g}, {hi:.6g}]"
        for role, curve, xs in (("anchor", anchor, x_anchor), ("test", test, x_test))
        for point, value in zip(curve.points, xs)
        if value < lo or value > hi
    )
    return float(mean_diff), (lo, hi), warnings


def bd_rate(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average bit-rate difference (percent) at equal quality.

    Negative values mean the test codec needs less rate than the anchor.
    """
    d, overlap, warnings = _bd_delta(
        anchor, test, "quality", lambda c: (c.qualities, c.log_rates)
    )
    try:
        percent = (10.0 ** d - 1.0) * 100.0
    except OverflowError:
        raise InputError(
            f"BD-rate overflows: mean log10 rate difference {d:.6g}"
        ) from None
    return BDResult(
        bd_rate_percent=percent,
        bd_quality=None,
        overlap=overlap,
        warnings=warnings,
    )


def bd_quality(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average quality difference at equal rate, in metric units."""
    d, overlap, warnings = _bd_delta(
        anchor, test, "log-rate", lambda c: (c.log_rates, c.qualities)
    )
    return BDResult(
        bd_rate_percent=None, bd_quality=d, overlap=overlap, warnings=warnings
    )


def interpolate_log_rate(curve: RDCurve, qualities) -> np.ndarray:
    """Evaluate the curve's log10(bitrate) interpolant at given qualities."""
    with _float64_fit():
        return _Pchip(curve.qualities, curve.log_rates)(
            np.asarray(qualities, dtype=np.float64)
        )


def load_rd_csv(path) -> list[RDCurve]:
    """Read operating points and group them into validated curves.

    Rows are grouped by (codec, sequence, metric); curve order follows
    first appearance in the file.
    """
    groups: dict[tuple[str, str, str], list[RDPoint]] = {}
    with read_csv(path, RD_CSV_HEADER) as (header, rows):
        pick = itemgetter(*map(header.index, RD_CSV_HEADER))
        for lineno, cells in rows:
            codec, sequence, metric, label, bitrate, quality = pick(cells)
            try:
                point = RDPoint(read_number(path, lineno, "bitrate_kbps", bitrate),
                                read_number(path, lineno, "quality", quality), label)
            except InputError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            groups.setdefault((codec, sequence, metric), []).append(point)
    return [
        validate_curve(points, codec_id=k[0], sequence_id=k[1], metric_id=k[2])
        for k, points in groups.items()
    ]
