"""Objective quality metrics for reference/test sequence pairs.

Sequence-level PSNR is the mean of per-frame PSNR values (the logging
convention of the reference codec software), with per-frame infinities
replaced by a configurable clamp so means stay finite; the substitution
is flagged in the result.
"""

from __future__ import annotations

import collections
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataFormatError, InputError
from .report import mean, named_errors, open_input, parse_csv
from .video_io import FrameBuffer

PSNR_Y = "PSNR_Y"
PSNR_U = "PSNR_U"
PSNR_V = "PSNR_V"
WPSNR = "WPSNR"
SSIM = "SSIM"
COMPUTABLE_METRICS = (PSNR_Y, PSNR_U, PSNR_V, WPSNR, SSIM)
# The tokens of a --metrics list: each metric id in lower case, and psnr
# for every PSNR.
_METRIC_TOKENS = {"psnr": (PSNR_Y, PSNR_U, PSNR_V, WPSNR),
                  **{m.lower(): (m,) for m in COMPUTABLE_METRICS}}

DEFAULT_CLAMP_DB = 100.0

EXTERNAL_CSV_COLUMNS = {"frame": int, "score": float}

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


def parse_metric_selection(text: str) -> tuple[str, ...]:
    """The metric ids a --metrics comma list selects, in COMPUTABLE_METRICS
    order; case and blank tokens are ignored."""
    selected = set()
    for token in filter(None, (t.strip().lower() for t in text.split(","))):
        if token not in _METRIC_TOKENS:
            raise InputError(
                f"unknown metric {token!r}; choose from "
                f"{', '.join(sorted(_METRIC_TOKENS))}"
            )
        selected.update(_METRIC_TOKENS[token])
    if not selected:
        raise InputError("empty metric selection")
    return tuple(m for m in COMPUTABLE_METRICS if m in selected)


@dataclass(frozen=True)
class SequenceQuality:
    metric_id: str
    frame_values: tuple[float, ...]
    clamp_applied: bool = False

    @property
    def value(self) -> float:
        """The sequence value: the mean of the per-frame values."""
        return mean(self.frame_values)


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
    value = (6.0 * psnr_y + psnr_u + psnr_v) / 8.0
    if math.isinf(value) and all(map(math.isfinite, (psnr_y, psnr_u, psnr_v))):
        # Finite planes near the float64 limit overflow the weighted sum.
        value = 0.75 * psnr_y + psnr_u / 8.0 + psnr_v / 8.0
    return value


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
    ref.info.check_compatible(test.info)
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


# Planes whose PSNR each metric reads.
_METRIC_PLANES = {PSNR_Y: (0,), PSNR_U: (1,), PSNR_V: (2,), WPSNR: (0, 1, 2), SSIM: ()}


def _frame_pair_metrics(pair, metric_ids, clamp_db):
    """The per-frame kernel: MSE/PSNR of only the planes the selection reads,
    then one (value, clamped) per selected metric, in selection order: the
    value with infinite PSNR replaced by clamp_db, and whether a clamp went
    into it."""
    ref, test = pair
    exact = {
        i: psnr_from_mse(mse(ref.planes[i], test.planes[i]), ref.info.bit_depth)
        for i in sorted({i for mid in metric_ids for i in _METRIC_PLANES[mid]})
    }
    psnr = {i: p if math.isfinite(p) else clamp_db for i, p in exact.items()}

    results = []
    for mid in metric_ids:
        planes = _METRIC_PLANES[mid]
        if mid == SSIM:
            value = ssim_frame(ref, test)
        elif mid == WPSNR:
            value = wpsnr(psnr[0], psnr[1], psnr[2])
        else:
            value = psnr[planes[0]]
        results.append((value, any(not math.isfinite(exact[i]) for i in planes)))
    return results


def sequence_quality(
    ref_source,
    test_source,
    metric_ids=COMPUTABLE_METRICS,
    clamp_db: float = DEFAULT_CLAMP_DB,
    jobs: int = 1,
) -> dict[str, SequenceQuality]:
    """Stream frame pairs once and compute the selected metrics.

    At most `jobs` frame pairs are in memory, the one being read included,
    and as many threads compute them, capped at the CPUs this process may
    use: its affinity mask where the platform has one, else the host's
    count. Per-frame results are reduced in ascending frame order, so
    results do not depend on the worker count.
    """
    metric_ids = tuple(metric_ids)
    if not metric_ids:
        raise InputError("empty metric selection")
    for mid in metric_ids:
        if mid not in COMPUTABLE_METRICS:
            raise InputError(f"unknown metric {mid!r}")
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")

    if hasattr(os, "sched_getaffinity"):
        jobs = min(jobs, len(os.sched_getaffinity(0)))
    else:
        jobs = min(jobs, os.cpu_count() or 1)
    from concurrent.futures import ThreadPoolExecutor

    # The loop holds a pair only from its read to its submit, and takes the
    # oldest result once `jobs` pairs are pending, so the next read starts
    # with at most jobs - 1 pairs alive.
    refs, tests = iter(ref_source), iter(test_source)
    pending = collections.deque()
    frames = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for index in itertools.count():
            ref, test = next(refs, None), next(tests, None)
            if ref is None and test is None:
                break
            if ref is None or test is None:
                side = "reference" if ref is None else "test"
                raise InputError(
                    f"frame-count mismatch: {side} sequence ended at frame {index}"
                )
            ref.info.check_compatible(test.info)
            pending.append(
                pool.submit(_frame_pair_metrics, (ref, test), metric_ids, clamp_db))
            del ref, test
            if len(pending) == jobs:
                frames.append(pending.popleft().result())
        frames.extend(future.result() for future in pending)
    if not frames:
        raise InputError("no frames in input sequences")

    out = {}
    for mid, per_frame in zip(metric_ids, zip(*frames)):
        values, clamped = zip(*per_frame)
        out[mid] = SequenceQuality(
            metric_id=mid, frame_values=values, clamp_applied=any(clamped)
        )
    return out


def ingest_external_scores(path, name: str | None = None) -> SequenceQuality:
    """Load per-frame scores produced by an external metric tool.

    Supports a CSV of EXTERNAL_CSV_COLUMNS and the JSON layout of the
    common VMAF tool: {"frames": [{"metrics": {"<name>": value}}, ...]}.
    The count is not checked: a caller with a video compares it.
    """
    with named_errors(path) as where, open_input(path) as fp:
        text = fp.read()
        body = text.lstrip()
        if body.startswith(("{", "[")):
            metric_name = name or "vmaf"
            scores = _scores_from_json(body, metric_name)
        else:
            metric_name = name or "score"
            _, rows = parse_csv(io.StringIO(text), where, EXTERNAL_CSV_COLUMNS)
            scores = []
            for index, score in rows:
                if index != len(scores):
                    raise DataFormatError(f"expected frame {len(scores)}, got {index}")
                scores.append(score)
        if not scores:
            raise InputError("no scores present")
    return SequenceQuality(metric_id=f"EXTERNAL:{metric_name}", frame_values=tuple(scores))


def _scores_from_json(text, metric_name):
    try:
        # Integers parse as floats, so an oversized one is inf, not an error.
        doc = json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's recursion limit.
        raise DataFormatError(f"invalid JSON: {exc}") from None
    frames = doc.get("frames") if isinstance(doc, dict) else None
    if not isinstance(frames, list):
        raise DataFormatError('missing "frames" array')
    scores = []
    for i, entry in enumerate(frames):
        try:
            value = entry["metrics"][metric_name]
        except (TypeError, KeyError):
            raise DataFormatError(f"frame {i} lacks metric {metric_name!r}") from None
        if not (isinstance(value, float) and math.isfinite(value)):
            raise DataFormatError(
                f"frame {i}: {metric_name} must be a finite number, got {value!r}"
            )
        scores.append(value)
    return scores
