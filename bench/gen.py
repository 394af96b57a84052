"""Seeded synthetic inputs for the benchmark workloads, with planted truth.

Every generator takes a directory and a seed, writes its input files there
and returns a JSON-serialisable ``truth`` dict: the values it planted, which
the output checks hold the tool's reports against. The same seed always
gives byte-identical files and the same truth.
"""

from __future__ import annotations

import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 1920, 1080
FPS = (25, 1)


# --------------------------------------------------------------------- video

def ssim_reference(ref: np.ndarray, test: np.ndarray, sample_max: int) -> float:
    """Mean SSIM (Wang et al. 2004) over fully supported 11x11 windows.

    Gaussian window with sigma 1.5, K1=0.01, K2=0.03, in float64. The
    separable correlation is written as eleven shifted multiply-adds per
    axis, independent of the tool's scipy.ndimage path.
    """
    size, sigma = 11, 1.5
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    kernel = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()

    def window_mean(x):
        h, w = x.shape
        rows = kernel[0] * x[:, :w - size + 1]
        for i in range(1, size):
            rows += kernel[i] * x[:, i:w - size + 1 + i]
        out = kernel[0] * rows[:h - size + 1, :]
        for i in range(1, size):
            out += kernel[i] * rows[i:h - size + 1 + i, :]
        return out

    r = ref.astype(np.float64)
    e = test.astype(np.float64)
    c1 = (0.01 * sample_max) ** 2
    c2 = (0.03 * sample_max) ** 2
    mu_r, mu_e = window_mean(r), window_mean(e)
    var_r = window_mean(r * r) - mu_r * mu_r
    var_e = window_mean(e * e) - mu_e * mu_e
    cov = window_mean(r * e) - mu_r * mu_e
    num = (2.0 * mu_r * mu_e + c1) * (2.0 * cov + c2)
    den = (mu_r * mu_r + mu_e * mu_e + c1) * (var_r + var_e + c2)
    return float(np.mean(num / den))


def _smooth_base(shape, rng) -> np.ndarray:
    h, w = shape
    y = np.linspace(0.0, 1.0, h)[:, None]
    x = np.linspace(0.0, 1.0, w)[None, :]
    fx, fy = rng.uniform(1.0, 4.0, 2)
    px, py = rng.uniform(0.0, 2.0 * math.pi, 2)
    return 0.5 + 0.35 * np.sin(2 * math.pi * fx * x + px) * np.cos(
        2 * math.pi * fy * y + py
    )


def video_pair(directory, seed, *, frames, bit_depth, chroma444, y4m,
               lossless_frame, max_noise, with_ssim):
    """Write a reference/test pair whose per-plane MSE is planted exactly.

    The test picture is the reference plus integer noise in
    [-a, a]; reference samples stay at least ``max_noise`` away from both
    ends of the range, so no sample clips and each plane's squared error
    sum is the noise's, known in integers.
    """
    rng = np.random.default_rng(seed)
    sample_max = (1 << bit_depth) - 1
    chroma = (HEIGHT, WIDTH) if chroma444 else (HEIGHT // 2, WIDTH // 2)
    shapes = [(HEIGHT, WIDTH), chroma, chroma]
    dtype = np.dtype("u1") if bit_depth == 8 else np.dtype("<u2")
    lo, hi = max_noise, sample_max - max_noise
    texture = (hi - lo) // 12
    # int16 holds every sample, noise and squared noise used here.
    smooth = [np.rint(lo + (hi - lo) * _smooth_base(s, rng)).astype(np.int16)
              for s in shapes]
    ext = "y4m" if y4m else "yuv"
    names = {"reference": f"ref.{ext}", "test": f"test.{ext}"}
    sse, ssim = [], []
    with open(directory / names["reference"], "wb") as fr, \
            open(directory / names["test"], "wb") as ft, \
            ThreadPoolExecutor(max_workers=2) as pool:
        if y4m:
            tag = ("444" if chroma444 else "420") + ("p10" if bit_depth == 10 else "")
            header = (f"YUV4MPEG2 W{WIDTH} H{HEIGHT} F{FPS[0]}:{FPS[1]} "
                      f"Ip A1:1 C{tag}\n").encode("ascii")
            fr.write(header)
            ft.write(header)
        for i in range(frames):
            if y4m:
                fr.write(b"FRAME\n")
                ft.write(b"FRAME\n")
            frame_sse, luma = [], None
            for base, shape in zip(smooth, shapes):
                ref = np.roll(base, 9 * i, axis=1)
                ref += rng.integers(-texture, texture + 1, size=shape, dtype=np.int16)
                np.clip(ref, lo, hi, out=ref)
                if i == lossless_frame:
                    noise = np.zeros(shape, dtype=np.int16)
                else:
                    a = int(rng.integers(1, max_noise + 1))
                    noise = rng.integers(-a, a + 1, size=shape, dtype=np.int16)
                frame_sse.append(int(np.sum(noise * noise, dtype=np.int64)))
                ref, test = ref.astype(dtype), (ref + noise).astype(dtype)
                fr.write(ref.tobytes())
                ft.write(test.tobytes())
                if luma is None:
                    luma = (ref, test)
            sse.append(frame_sse)
            if with_ssim:
                ssim.append(pool.submit(ssim_reference, *luma, sample_max))
    return {
        "files": names,
        "width": WIDTH,
        "height": HEIGHT,
        "fps": f"{FPS[0]}/{FPS[1]}",
        "bit_depth": bit_depth,
        "chroma": "C444" if chroma444 else "C420",
        "frames": frames,
        "lossless_frame": lossless_frame,
        "frame_bytes": sum(h * w for h, w in shapes) * dtype.itemsize,
        "sse": sse,
        "mse": [[s / (h * w) for s, (h, w) in zip(f, shapes)] for f in sse],
        "ssim": [f.result() for f in ssim] or None,
    }


# ----------------------------------------------------------------- callgrind

# Stems chosen so the built-in stage map sends most functions to a named
# stage and some to Other.
_FN_STEMS = (
    "EncAdaptiveLoopFilter::deriveFilter", "AdaptiveLoopFilter::filterBlk",
    "SampleAdaptiveOffset::offsetBlock", "LoopFilter::xEdgeFilterLuma",
    "DeblockingFilter::xDeblockCU", "IntraPrediction::predIntraAng",
    "IntraSearch::estIntraPredLumaQT", "InterSearch::xTZSearch",
    "InterSearch::xPatternSearchFast", "InterPrediction::motionCompensation",
    "InterPrediction::xPredInterBlk", "TrQuant::transformNxN",
    "partialButterflyInverse16", "fastInvCore", "Quant::quant",
    "CABACWriter::coding_unit", "BinEncoder::encodeBin", "DecLib::DMVR",
    "EncCu::initCtuData", "PelStorage::createBuf", "RdCost::xGetSAD16",
    "EncCu::xCheckRDCostMerge", "std::vector<int>::push_back", "memcpy",
    "EncLib::encode", "Picture::extendPicBorder",
)


def callgrind(directory, seed, *, target_lines):
    """Write a Callgrind file of about ``target_lines`` lines.

    It uses name compression for ob/fl/fn/cfn, ``positions: instr line``
    with relative and repeated subpositions, omitted trailing event counts
    and ``calls=`` records. The truth is each function's self cost in the
    first event, summed over cost lines that do not follow ``calls=``.
    """
    rng = np.random.default_rng(seed)
    functions = [f"{stem}<{k}>" for stem in _FN_STEMS for k in range(12)]
    files = [f"source/Lib/Module{k:02d}.cpp" for k in range(40)]
    objects = ["/usr/local/bin/encoder", "/lib/libc.so.6", "/lib/libm.so.6"]
    # Zipf-like weights: a few functions dominate, as in real profiles.
    weights = 1.0 / np.arange(1, len(functions) + 1) ** 0.9
    weights /= weights.sum()
    order = rng.permutation(len(functions))

    lines = [
        "# callgrind format",
        "version: 1",
        "creator: codecbench-benchmark",
        f"cmd: encoder --seed {seed}",
        "positions: instr line",
        "events: Ir Dr Dw",
        "",
    ]
    defined: dict[str, set] = {"fn": set(), "fl": set(), "ob": set()}

    def ref(kind, table, idx, key):
        if idx in defined[kind]:
            return f"{key}=({idx + 1})"
        defined[kind].add(idx)
        return f"{key}=({idx + 1}) {table[idx]}"

    costs: dict[str, int] = {}
    emit = lines.append
    batch = 4096
    while len(lines) < target_lines:
        # Draw a batch of blocks at once; Python lists keep the loop cheap.
        fn_idx = order[rng.choice(len(functions), size=batch, p=weights)].tolist()
        callee_idx = rng.integers(0, len(functions), size=batch).tolist()
        file_idx = rng.integers(0, len(files), size=batch).tolist()
        n_cost = rng.integers(1, 14, size=batch).tolist()
        # Flat per-cost-line draws: cost line c of block b is slot 14*b + c.
        kinds = rng.integers(0, 20, size=batch * 14).tolist()
        counts = rng.integers(1, 4000, size=batch * 14 * 3).tolist()
        present = rng.integers(0, 4, size=batch * 14).tolist()
        steps = rng.integers(1, 9, size=batch * 14).tolist()
        for b in range(batch):
            fn = functions[fn_idx[b]]
            if b % 64 == 0:
                emit(ref("ob", objects, b // 64 % len(objects), "ob"))
            emit(ref("fl", files, file_idx[b], "fl"))
            emit(ref("fn", functions, fn_idx[b], "fn"))
            addr = 0x400000 + 65536 * fn_idx[b]
            line_no = 10 + file_idx[b]
            slot = 14 * b
            emit(f"{addr:#x} {line_no} {counts[3 * slot]} {counts[3 * slot + 1]}")
            total = costs.get(fn, 0) + counts[3 * slot]
            for slot in range(slot + 1, slot + n_cost[b]):
                kind, k, s = kinds[slot], present[slot], steps[slot]
                ir = 3 * slot
                pos = f"+{s} *" if kind % 3 else f"+{s} -{s}"
                if kind == 0:
                    # cfn shares the fn name table; the cost line after
                    # calls= is inclusive call cost, not self cost.
                    emit(ref("fn", functions, callee_idx[b], "cfn"))
                    emit(f"calls={s} {addr + 64:#x} {line_no}")
                    emit(f"{pos} {counts[ir] * 50} {counts[ir + 1]}")
                    continue
                if kind in (1, 2):
                    emit(f"{'fi' if kind == 1 else 'fe'}=({file_idx[b] + 1})")
                elif kind == 3:
                    emit("# inlined from a header")
                # k of the three event columns are written (0..3).
                emit(" ".join([pos, *map(str, counts[ir:ir + k])]))
                if k:
                    total += counts[ir]
            costs[fn] = total
            emit("")
            if len(lines) >= target_lines:
                break
    text = "\n".join(lines) + "\n"
    (directory / "callgrind.out").write_text(text, encoding="utf-8")
    return {
        "file": "callgrind.out",
        "lines": len(lines),
        "functions": dict(sorted(costs.items())),
        "total_cost": sum(costs.values()),
    }


# ------------------------------------------------------------------------ rd

def rd_points(directory, seed, *, sequences, points_per_curve):
    """Write an RD points CSV: anchor curves and test curves whose rates are
    the anchor's scaled by a fixed per-curve factor s.

    Scaling every rate by s shifts log10(rate) by log10(s) at every quality,
    so the BD-rate of each pair is exactly (s - 1) * 100 percent.
    """
    rng = np.random.default_rng(seed)
    metrics = (("PSNR", 28.0, 3.2), ("SSIM", 0.80, 0.035))
    rows = ["codec,sequence,metric,label,bitrate_kbps,quality"]
    planted = {}
    for s in range(sequences):
        seq = f"seq{s:04d}"
        base = rng.uniform(150.0, 2500.0)
        ratio = rng.uniform(1.45, 1.9)
        rates = base * ratio ** np.arange(points_per_curve)
        for metric, q0, step in metrics:
            qualities = q0 + rng.uniform(0.0, step) + step * np.cumsum(
                rng.uniform(0.6, 1.0, points_per_curve)
            )
            factor = float(rng.uniform(0.55, 0.97))
            planted[f"{seq}/{metric}"] = (factor - 1.0) * 100.0
            for codec, scale in (("anchor", 1.0), ("test", factor)):
                for i, (r, q) in enumerate(zip(rates, qualities)):
                    rows.append(f"{codec},{seq},{metric},QP{22 + 5 * i},"
                                f"{float(r) * scale!r},{float(q)!r}")
    (directory / "points.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {
        "file": "points.csv",
        "curves": 2 * sequences * len(metrics),
        "points_per_curve": points_per_curve,
        "bd_rate_percent": planted,
    }


# ---------------------------------------------------------------- subjective

_RESOLUTIONS = ("1280x720", "1920x1080", "3840x2160")
_BITRATES = (500, 1000, 2000, 4000, 8000, 16000)


def score_panel(directory, seed, *, subjects, stimuli, missing, outliers):
    """Write a scores CSV and PVS metadata with planted outlier subjects.

    Regular subjects score the true quality plus a per-subject bias and
    noise, so they correlate with the MOS at about 0.95; outliers score at
    random and correlate near 0, far below the 0.75 screening threshold.
    The truth holds the outliers, and MOS, CI and ANOVA computed with
    numpy/scipy over the retained subjects.
    """
    from scipy import stats

    rng = np.random.default_rng(seed)
    subject_ids = [f"S{i:03d}" for i in range(subjects)]
    pvs_ids = [f"P{j:04d}" for j in range(stimuli)]
    levels = {
        "codec": [f"codec{k}" for k in range(4)],
        "resolution": list(_RESOLUTIONS),
        "bitrate": list(_BITRATES),
        "content": [f"src{k:02d}" for k in range(40)],
    }
    # Cycling a permutation gives every level many stimuli.
    assign = {f: rng.permutation(stimuli) % len(v) for f, v in levels.items()}
    truth_quality = rng.uniform(12.0, 88.0, stimuli) + 2.0 * assign["codec"]
    bias = rng.normal(0.0, 3.0, subjects)
    scores = np.rint(
        truth_quality[None, :] + bias[:, None] + rng.normal(0.0, 7.0, (subjects, stimuli))
    )
    outlier_rows = np.sort(rng.choice(subjects, size=outliers, replace=False))
    scores[outlier_rows, :] = rng.integers(0, 101, size=(outliers, stimuli))
    scores = np.clip(scores, 0.0, 100.0)
    scores[rng.random((subjects, stimuli)) < missing] = np.nan

    header = "subject," + ",".join(pvs_ids)
    body = [
        sid + "," + ",".join("" if math.isnan(v) else str(int(v)) for v in row)
        for sid, row in zip(subject_ids, scores.tolist())
    ]
    (directory / "scores.csv").write_text(
        "\n".join([header] + body) + "\n", encoding="utf-8"
    )
    meta = ["pvs,codec,resolution,bitrate_kbps,content"]
    for j, pvs in enumerate(pvs_ids):
        meta.append(
            f"{pvs},{levels['codec'][assign['codec'][j]]},"
            f"{levels['resolution'][assign['resolution'][j]]},"
            f"{levels['bitrate'][assign['bitrate'][j]]},"
            f"{levels['content'][assign['content'][j]]}"
        )
    (directory / "pvs.csv").write_text("\n".join(meta) + "\n", encoding="utf-8")

    keep = np.setdiff1d(np.arange(subjects), outlier_rows)
    retained = scores[keep, :]
    n = np.sum(~np.isnan(retained), axis=0)
    mos = np.nanmean(retained, axis=0)
    ci = 1.95 * np.nanstd(retained, axis=0) / np.sqrt(n)
    anova = {}
    for factor, values in levels.items():
        groups = [mos[assign[factor] == k] for k in range(len(values))]
        res = stats.f_oneway(*groups)
        anova[factor] = {
            "f_stat": float(res.statistic),
            "p_value": float(res.pvalue),
            "df_between": len(values) - 1,
            "df_within": stimuli - len(values),
        }
    return {
        "files": {"scores": "scores.csv", "pvs": "pvs.csv"},
        "subjects": subjects,
        "stimuli": stimuli,
        "cells": subjects * stimuli,
        "outliers": [subject_ids[i] for i in outlier_rows],
        "mos": mos.tolist(),
        "ci95": ci.tolist(),
        "n": n.tolist(),
        "anova": anova,
    }


def main(argv) -> int:
    """``gen.py WORKLOAD DIRECTORY SEED``: write the inputs and truth.json."""
    from workloads import WORKLOADS  # not at the top: workloads imports gen

    name, directory, seed = argv[0], Path(argv[1]), int(argv[2])
    truth = WORKLOADS[name].prepare(directory, seed)
    (directory / "truth.json").write_text(json.dumps(truth))
    # Flush the new files now, so their write-back does not run while the
    # benchmark times the tool.
    for path in directory.iterdir():
        with open(path, "rb") as fp:
            os.fsync(fp.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
