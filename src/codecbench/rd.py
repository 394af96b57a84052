"""Rate-distortion curves and Bjøntegaard deltas between codec runs.

Deltas are computed on a monotone piecewise-cubic (PCHIP) interpolant of
log10(bitrate) against quality, integrated in closed form over the
quality range shared by both curves. PCHIP avoids the overshoot a global
cubic fit exhibits on short curves while still passing through every
measured point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import CurveError, DataFormatError

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
            raise CurveError(f"bitrate must be positive and finite, got {self.bitrate}")
        if not math.isfinite(self.quality):
            raise CurveError(f"quality must be finite, got {self.quality}")


@dataclass(frozen=True)
class RDCurve:
    codec_id: str
    sequence_id: str
    metric_id: str
    points: tuple[RDPoint, ...]

    @property
    def bitrates(self) -> np.ndarray:
        return np.array([p.bitrate for p in self.points], dtype=np.float64)

    @property
    def qualities(self) -> np.ndarray:
        return np.array([p.quality for p in self.points], dtype=np.float64)

    @property
    def log_rates(self) -> np.ndarray:
        return np.log10(self.bitrates)


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
        raise CurveError(
            f"curve {codec_id}/{sequence_id}/{metric_id}: "
            f"need at least 3 points, got {len(pts)}"
        )
    for i in range(len(pts) - 1):
        if pts[i].bitrate == pts[i + 1].bitrate:
            raise CurveError(
                f"curve {codec_id}/{sequence_id}/{metric_id}: "
                f"duplicate bitrate {pts[i].bitrate}"
            )
        if pts[i].quality >= pts[i + 1].quality:
            raise CurveError(
                f"curve {codec_id}/{sequence_id}/{metric_id}: quality not "
                f"strictly increasing with bitrate between points {i} and "
                f"{i + 1} ({pts[i].quality} -> {pts[i + 1].quality}); "
                f"inspect the data"
            )
    return RDCurve(codec_id, sequence_id, metric_id, tuple(pts))


def _overlap_and_integrals(x_anchor, y_anchor, x_test, y_test):
    lo = max(float(x_anchor.min()), float(x_test.min()))
    hi = min(float(x_anchor.max()), float(x_test.max()))
    width = hi - lo
    if width <= 0:
        raise CurveError(f"curves do not overlap (gap of {-width:.6g})")
    if width <= MIN_OVERLAP:
        raise CurveError(
            f"overlap width {width:.6g} is below the minimum {MIN_OVERLAP}"
        )
    anchor = PchipInterpolator(x_anchor, y_anchor)
    test = PchipInterpolator(x_test, y_test)
    ia = anchor.antiderivative()
    it = test.antiderivative()
    mean_diff = ((it(hi) - it(lo)) - (ia(hi) - ia(lo))) / width
    return float(mean_diff), (lo, hi)


def _outside_warnings(curve: RDCurve, axis_values, lo, hi, role, axis_name):
    out = []
    for point, value in zip(curve.points, axis_values):
        if value < lo or value > hi:
            out.append(
                f"{role} point (bitrate={point.bitrate:g}, "
                f"quality={point.quality:g}) lies outside the "
                f"{axis_name} overlap [{lo:.6g}, {hi:.6g}]"
            )
    return out


def _check_pair(anchor: RDCurve, test: RDCurve):
    if anchor.metric_id != test.metric_id:
        raise CurveError(
            f"metric mismatch: anchor uses {anchor.metric_id!r}, "
            f"test uses {test.metric_id!r}"
        )


def bd_rate(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average bit-rate difference (percent) at equal quality.

    Negative values mean the test codec needs less rate than the anchor.
    """
    _check_pair(anchor, test)
    d, (lo, hi) = _overlap_and_integrals(
        anchor.qualities, anchor.log_rates, test.qualities, test.log_rates
    )
    warnings = _outside_warnings(anchor, anchor.qualities, lo, hi, "anchor", "quality")
    warnings += _outside_warnings(test, test.qualities, lo, hi, "test", "quality")
    return BDResult(
        bd_rate_percent=(10.0 ** d - 1.0) * 100.0,
        bd_quality=None,
        overlap=(lo, hi),
        warnings=tuple(warnings),
    )


def bd_quality(anchor: RDCurve, test: RDCurve) -> BDResult:
    """Average quality difference at equal rate, in metric units."""
    _check_pair(anchor, test)
    d, (lo, hi) = _overlap_and_integrals(
        anchor.log_rates, anchor.qualities, test.log_rates, test.qualities
    )
    warnings = _outside_warnings(anchor, anchor.log_rates, lo, hi, "anchor", "log-rate")
    warnings += _outside_warnings(test, test.log_rates, lo, hi, "test", "log-rate")
    return BDResult(
        bd_rate_percent=None,
        bd_quality=d,
        overlap=(lo, hi),
        warnings=tuple(warnings),
    )


def interpolate_log_rate(curve: RDCurve, qualities) -> np.ndarray:
    """Evaluate the curve's log10(bitrate) interpolant at given qualities."""
    return PchipInterpolator(curve.qualities, curve.log_rates)(
        np.asarray(qualities, dtype=np.float64)
    )


def load_rd_csv(path) -> list[RDCurve]:
    """Read operating points and group them into validated curves.

    Rows are grouped by (codec, sequence, metric); curve order follows
    first appearance in the file.
    """
    groups: dict[tuple[str, str, str], list[RDPoint]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fp:
        reader = csv.DictReader(fp)
        missing = [c for c in RD_CSV_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise DataFormatError(
                f"{path}: missing CSV columns: {', '.join(missing)}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                bitrate = float(row["bitrate_kbps"])
                quality = float(row["quality"])
            except (TypeError, ValueError):
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric bitrate or quality"
                ) from None
            key = (row["codec"], row["sequence"], row["metric"])
            try:
                point = RDPoint(bitrate, quality, label=row["label"] or "")
            except CurveError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            groups.setdefault(key, []).append(point)
    return [
        validate_curve(points, codec_id=k[0], sequence_id=k[1], metric_id=k[2])
        for k, points in groups.items()
    ]
