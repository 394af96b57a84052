"""Objective quality metrics for reference/test sequence pairs.

Sequence-level PSNR is the mean of per-frame PSNR values (the logging
convention of the reference codec software), with per-frame infinities
replaced by a configurable clamp so means stay finite; the substitution
is flagged in the result.
"""

from __future__ import annotations

import collections
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataFormatError, InputError
from .report import open_input, parse_csv, read_number
from .video_io import FrameBuffer

PSNR_Y = "PSNR_Y"
PSNR_U = "PSNR_U"
PSNR_V = "PSNR_V"
WPSNR = "WPSNR"
SSIM = "SSIM"
COMPUTABLE_METRICS = (PSNR_Y, PSNR_U, PSNR_V, WPSNR, SSIM)

DEFAULT_CLAMP_DB = 100.0

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
# SSIM filters strips of _SSIM_STRIP output rows, and runs its row pass in
# tiles of _SSIM_TILE output columns. Of strips 8/12/16/24 by tiles 8/16/24,
# no pair beat 16x16 at both 1920x1080 (61 ms) and 3840x2160 (286 ms) by more
# than the run-to-run spread, on a 2-vCPU Xeon guest with 2 MB L2 per core.
_SSIM_STRIP = 16
_SSIM_TILE = 16
# Leading-axis rows per strip of mse's int64 difference buffer.
_MSE_STRIP = 64


@dataclass(frozen=True)
class SequenceQuality:
    metric_id: str
    frame_values: tuple[float, ...]
    value: float
    clamp_applied: bool = False
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ContentFeatures:
    si: float
    ti: float


def mse(ref_plane, test_plane) -> float:
    """Mean squared error between two equally sized arrays of integer
    samples of up to 16 bits."""
    ref = np.asarray(ref_plane)
    test = np.asarray(test_plane)
    if ref.shape != test.shape:
        raise InputError(f"plane shapes differ: {ref.shape} vs {test.shape}")
    if ref.size == 0:
        raise InputError("empty plane")
    if not (np.issubdtype(ref.dtype, np.integer)
            and np.issubdtype(test.dtype, np.integer)):
        raise InputError(f"samples must be integers, got {ref.dtype} and {test.dtype}")
    # Squared differences are summed exactly in int64, a strip of
    # leading-axis rows at a time, so no full-plane temporary is made. A
    # float64 sum of them would also be exact (it stays below 2**53), so
    # the one division rounds as a float64 mean of the squares does.
    ref, test = np.atleast_1d(ref, test)
    buf = np.empty((min(_MSE_STRIP, len(ref)),) + ref.shape[1:], dtype=np.int64)
    total = 0
    for top in range(0, len(ref), _MSE_STRIP):
        diff = buf[: len(ref) - top]
        np.subtract(ref[top : top + _MSE_STRIP], test[top : top + _MSE_STRIP],
                    out=diff, dtype=np.int64)
        flat = diff.reshape(-1)
        total += int(np.dot(flat, flat))
    return total / ref.size


def psnr_from_mse(mse_value: float, bit_depth: int) -> float:
    """PSNR in dB for a signal of amplitude 2**bit_depth - 1; inf when MSE is 0."""
    if bit_depth not in (8, 10):
        raise InputError(f"unsupported bit depth {bit_depth}")
    if mse_value < 0:
        raise InputError(f"negative MSE {mse_value}")
    if mse_value == 0:
        return math.inf
    amplitude = (1 << bit_depth) - 1
    return 10.0 * math.log10(amplitude * amplitude / mse_value)


def wpsnr(psnr_y: float, psnr_u: float, psnr_v: float) -> float:
    """Combine per-plane PSNR as (6*Y + U + V) / 8."""
    return (6.0 * psnr_y + psnr_u + psnr_v) / 8.0


_SSIM_AXIS = np.arange(_SSIM_WINDOW, dtype=np.float64) - (_SSIM_WINDOW - 1) / 2.0
_SSIM_KERNEL = np.exp(-(_SSIM_AXIS * _SSIM_AXIS) / (2.0 * _SSIM_SIGMA * _SSIM_SIGMA))
_SSIM_KERNEL /= _SSIM_KERNEL.sum()


def _band(rows: int) -> np.ndarray:
    """The (rows, rows + 10) matrix whose row i holds the window's taps at
    columns i..i+10: band @ x filters x along axis 0 into its valid rows."""
    band = np.zeros((rows, rows + _SSIM_WINDOW - 1))
    for i in range(rows):
        band[i, i : i + _SSIM_WINDOW] = _SSIM_KERNEL
    return band


# The column pass of a strip of n output rows uses the top-left (n, n + 10)
# corner of _SSIM_COLUMN_BAND; the row pass maps each tile's _SSIM_TILE + 10
# input columns to its _SSIM_TILE output columns.
_SSIM_COLUMN_BAND = _band(_SSIM_STRIP)
_SSIM_ROW_BAND = np.ascontiguousarray(_band(_SSIM_TILE).T)


def ssim_frame(ref: FrameBuffer, test: FrameBuffer) -> float:
    """Mean luma structural similarity over all fully supported windows.

    Fixed parameters (Wang et al. 2004): 11x11 Gaussian window, sigma 1.5,
    K1 0.01, K2 0.03.
    """
    _check_compatible(ref.info, test.info)
    h, w = ref.y.shape
    if min(h, w) < _SSIM_WINDOW:
        raise InputError(
            f"plane {ref.y.shape} smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window"
        )
    c1 = (_SSIM_K1 * ref.info.sample_max) ** 2
    c2 = (_SSIM_K2 * ref.info.sample_max) ** 2
    halo = _SSIM_WINDOW - 1
    rows = min(_SSIM_STRIP, h - halo)
    tiles = -(-(w - halo) // _SSIM_TILE)
    # Valid output columns in the last tile; the tiles' other columns are
    # padding, filtered but left out of the sum.
    last = w - halo - (tiles - 1) * _SSIM_TILE
    # Every strip reuses these float64 buffers; concurrent calls share none.
    # Input columns past w are never written, so they and their products stay
    # zero: the band products multiply them by zero taps, so must be finite.
    inputs = np.zeros((4, rows + halo, tiles * _SSIM_TILE + halo))
    cols = np.empty((4, rows, inputs.shape[2]))
    maps = np.empty((4, tiles, rows, _SSIM_TILE))
    num_buf = np.empty((tiles, rows, _SSIM_TILE))
    map_step, row_step, col_step = cols.strides
    total = 0.0
    for top in range(0, h - halo, _SSIM_STRIP):
        n = min(_SSIM_STRIP, h - halo - top)
        x = inputs[:, : n + halo]
        r, e, re, sq = x
        np.copyto(r[:, :w], ref.y[top : top + n + halo])
        np.copyto(e[:, :w], test.y[top : top + n + halo])
        # The formula needs only var_r + var_e, so r*r + e*e is one map; re
        # holds e*e until the sum is made. Whole rows keep the products contiguous.
        np.multiply(e, e, out=re)
        np.multiply(r, r, out=sq)
        sq += re
        np.multiply(r, e, out=re)
        # Columns, then rows, each pass one banded product over all four
        # maps. The row pass reads each tile's columns and halo through a
        # strided view of the column pass's output.
        np.matmul(_SSIM_COLUMN_BAND[:n, : n + halo], x, out=cols[:, :n])
        windows = as_strided(
            cols,
            (4, tiles, n, _SSIM_TILE + halo),
            (map_step, _SSIM_TILE * col_step, row_step, col_step),
            writeable=False,
        )
        tiled = maps[:, :, :n]
        np.matmul(windows, _SSIM_ROW_BAND, out=tiled)
        mu_r, mu_e, cov, var_sum = tiled
        # The rest runs in place on the tiles:
        # num = (2 mu_r mu_e + c1) (2 cov + c2),
        # den = (mu_r^2 + mu_e^2 + c1) (var_r + var_e + c2).
        num = num_buf[:, :n]
        np.multiply(mu_r, mu_e, out=num)
        cov -= num
        cov *= 2.0
        cov += c2
        num *= 2.0
        num += c1
        num *= cov
        mu_r *= mu_r
        mu_e *= mu_e
        den = mu_r
        den += mu_e
        var_sum -= den
        var_sum += c2
        den += c1
        den *= var_sum
        num /= den
        total += float(num[:-1].sum()) + float(num[-1, :, :last].sum())
    return total / ((h - halo) * (w - halo))


def _check_compatible(a, b):
    if (a.width, a.height) != (b.width, b.height):
        raise InputError(
            f"geometry mismatch: reference {a.width}x{a.height} "
            f"vs test {b.width}x{b.height}"
        )
    if a.bit_depth != b.bit_depth:
        raise InputError(
            f"bit depth mismatch: reference {a.bit_depth} vs test {b.bit_depth}"
        )
    if a.chroma != b.chroma:
        raise InputError(
            f"chroma mismatch: reference {a.chroma} vs test {b.chroma}"
        )


# Planes whose PSNR each metric reads.
_METRIC_PLANES = {PSNR_Y: (0,), PSNR_U: (1,), PSNR_V: (2,), WPSNR: (0, 1, 2), SSIM: ()}


def _frame_pair_metrics(pair, metric_ids, clamp_db):
    """The per-frame kernel: MSE/PSNR of only the planes the selection reads,
    then each selected value (infinite PSNR replaced by clamp_db) and
    whether a clamp went into it."""
    ref, test = pair
    exact = {
        i: psnr_from_mse(mse(ref.planes[i], test.planes[i]), ref.info.bit_depth)
        for i in sorted({i for mid in metric_ids for i in _METRIC_PLANES[mid]})
    }
    psnr = {i: p if math.isfinite(p) else clamp_db for i, p in exact.items()}

    values = {}
    clamped = {}
    for mid in metric_ids:
        if mid == SSIM:
            values[mid] = ssim_frame(ref, test)
        elif mid == WPSNR:
            values[mid] = wpsnr(psnr[0], psnr[1], psnr[2])
        else:
            values[mid] = psnr[_METRIC_PLANES[mid][0]]
        clamped[mid] = any(not math.isfinite(exact[i]) for i in _METRIC_PLANES[mid])
    return values, clamped


def _paired(ref_source, test_source):
    ref_it = iter(ref_source)
    test_it = iter(test_source)
    index = 0
    while True:
        ref = next(ref_it, None)
        test = next(test_it, None)
        if ref is None and test is None:
            return
        if ref is None or test is None:
            side = "reference" if ref is None else "test"
            raise InputError(
                f"frame-count mismatch: {side} sequence ended at frame {index}"
            )
        _check_compatible(ref.info, test.info)
        yield ref, test
        index += 1


def _ordered_map(fn, items, jobs):
    if jobs <= 1:
        for item in items:
            yield fn(item)
        return
    from concurrent.futures import ThreadPoolExecutor

    window = max(2, jobs * 2)
    pending = collections.deque()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def sequence_quality(
    ref_source,
    test_source,
    metric_ids=COMPUTABLE_METRICS,
    clamp_db: float = DEFAULT_CLAMP_DB,
    jobs: int = 1,
) -> dict[str, SequenceQuality]:
    """Stream frame pairs once and compute the selected metrics.

    The reduction consumes per-frame results in ascending frame order, so
    results are identical regardless of the worker count.
    """
    metric_ids = tuple(metric_ids)
    if not metric_ids:
        raise InputError("empty metric selection")
    for mid in metric_ids:
        if mid not in COMPUTABLE_METRICS:
            raise InputError(f"unknown metric {mid!r}")
    per_frame = {mid: [] for mid in metric_ids}
    clamp_hit = {mid: False for mid in metric_ids}

    def work(pair):
        return _frame_pair_metrics(pair, metric_ids, clamp_db)

    for values, clamped in _ordered_map(work, _paired(ref_source, test_source), jobs):
        for mid in metric_ids:
            per_frame[mid].append(values[mid])
            clamp_hit[mid] = clamp_hit[mid] or clamped[mid]

    n = len(per_frame[metric_ids[0]])
    if n == 0:
        raise InputError("no frames in input sequences")

    out = {}
    for mid in metric_ids:
        frames = per_frame[mid]
        out[mid] = SequenceQuality(
            metric_id=mid,
            frame_values=tuple(frames),
            value=sum(frames) / n,
            clamp_applied=clamp_hit[mid],
        )
    return out


def _sobel_magnitude(luma: np.ndarray) -> np.ndarray:
    """Gradient magnitude on interior pixels, standard 3x3 Sobel kernels.

    The gradients and their squared sum are exact in int32 (below 2**31 for
    10-bit samples), so only the square root is a float64 frame.
    """
    if luma.shape[0] < 3 or luma.shape[1] < 3:
        raise InputError(f"plane {luma.shape} too small for a 3x3 Sobel filter")
    p = luma.astype(np.int32)
    gx = (p[:-2, 2:] + 2 * p[1:-1, 2:] + p[2:, 2:]) - (
        p[:-2, :-2] + 2 * p[1:-1, :-2] + p[2:, :-2]
    )
    gy = (p[2:, :-2] + 2 * p[2:, 1:-1] + p[2:, 2:]) - (
        p[:-2, :-2] + 2 * p[:-2, 1:-1] + p[:-2, 2:]
    )
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx)


def _si_ti(frames, want_si=True, want_ti=True):
    """One pass over the sequence: the max per-frame SI and the max TI over
    successive frame pairs (None when not wanted or not defined), and the
    number of frames seen."""
    si = ti = previous = None
    count = 0
    for count, frame in enumerate(frames, start=1):
        if want_si:
            value = float(np.std(_sobel_magnitude(frame.y)))
            si = value if si is None else max(si, value)
        if want_ti:
            if previous is not None:
                value = float(np.std(np.subtract(frame.y, previous, dtype=np.int32)))
                ti = value if ti is None else max(ti, value)
            previous = frame.y
    return si, ti, count


def spatial_info(frames) -> float:
    """Max over frames of the stddev of the Sobel-filtered luma plane."""
    si, _, count = _si_ti(frames, want_ti=False)
    if count == 0:
        raise InputError("spatial_info requires at least one frame")
    return si


def temporal_info(frames) -> float:
    """Max over successive frame pairs of the stddev of the luma difference."""
    _, ti, count = _si_ti(frames, want_si=False)
    if count < 2:
        raise InputError("temporal_info requires at least two frames")
    return ti


def content_features(frames) -> ContentFeatures:
    """SI and TI in a single pass over the sequence."""
    si, ti, count = _si_ti(frames)
    if count == 0:
        raise InputError("content_features requires at least one frame")
    if count < 2:
        raise InputError("content_features requires at least two frames for TI")
    return ContentFeatures(si=si, ti=ti)


def ingest_external_scores(
    path, name: str | None = None, frame_count: int | None = None
) -> SequenceQuality:
    """Load per-frame scores produced by an external metric tool.

    Supports a two-column CSV (frame,score) and the JSON layout of the
    common VMAF tool: {"frames": [{"metrics": {"<name>": value}}, ...]}.
    """
    with open_input(path) as fp:
        text = fp.read()
    body = text.lstrip()
    if body.startswith(("{", "[")):
        metric_name = name or "vmaf"
        scores = _scores_from_json(body, metric_name, path)
    else:
        metric_name = name or "score"
        header, rows = parse_csv(io.StringIO(text), path)
        if [cell.lower() for cell in header] != ["frame", "score"]:
            raise DataFormatError(
                f"{path}: expected header 'frame,score', got {','.join(header)!r}"
            )
        scores = [read_number(path, lineno, "score", cells[1]) for lineno, cells in rows]

    if not scores:
        raise InputError(f"{path}: no scores present")
    warnings = []
    if frame_count is not None and frame_count != len(scores):
        warnings.append(
            f"score count {len(scores)} does not match declared frame count "
            f"{frame_count}; mean taken over present scores"
        )
    return SequenceQuality(
        metric_id=f"EXTERNAL:{metric_name}",
        frame_values=tuple(scores),
        value=sum(scores) / len(scores),
        warnings=tuple(warnings),
    )


def _scores_from_json(text, metric_name, path):
    try:
        # Integers parse as floats, so an oversized one is inf, not an error.
        doc = json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's recursion limit.
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    frames = doc.get("frames") if isinstance(doc, dict) else None
    if not isinstance(frames, list):
        raise DataFormatError(f'{path}: missing "frames" array')
    scores = []
    for i, entry in enumerate(frames):
        try:
            value = entry["metrics"][metric_name]
        except (TypeError, KeyError):
            raise DataFormatError(
                f"{path}: frame {i} lacks metric {metric_name!r}"
            ) from None
        if not (isinstance(value, float) and math.isfinite(value)):
            raise DataFormatError(
                f"{path}: frame {i}: {metric_name} must be a finite number, got {value!r}"
            )
        scores.append(value)
    return scores

