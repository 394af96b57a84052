"""Output checks: hold the tool's reports against the generator's truth.

Each check returns a list of failure messages; an empty list means the
output is correct. Reports are requested at full precision so values can
be held to 1e-9; the per-frame CSV is always written at six significant
digits, so it is held to that rounding.
"""

from __future__ import annotations

import csv
import io
import math

REL = 1e-9
SIX_DIGITS = 6e-6  # relative error bound of rounding to 6 significant digits
CLAMP_DB = 100.0


def close(actual, expected, rel=REL, floor=0.0) -> bool:
    if not isinstance(actual, (int, float)) or isinstance(actual, bool):
        return False
    return abs(actual - expected) <= max(rel * abs(expected), floor)


def expected_video(truth, metric_ids):
    """Per-frame values, sequence means and clamp flags in closed form.

    PSNR of a plane is 10*log10(A^2 / MSE) from the planted MSE, the
    squared error sum over the sample count; a lossless plane is infinite and enters the mean as the
    default clamp. SSIM comes from the generator's float64 reference.
    """
    amp = (1 << truth["bit_depth"]) - 1
    per_frame = {m: [] for m in metric_ids}
    clamped = {m: False for m in metric_ids}
    for f, mse in enumerate(truth["mse"]):
        psnr = [math.inf if e == 0 else 10.0 * math.log10(amp * amp / e) for e in mse]
        inf = [not math.isfinite(p) for p in psnr]
        c = [CLAMP_DB if i else p for p, i in zip(psnr, inf)]
        values = {
            "PSNR_Y": (c[0], inf[0]),
            "PSNR_U": (c[1], inf[1]),
            "PSNR_V": (c[2], inf[2]),
            "WPSNR": ((6.0 * c[0] + c[1] + c[2]) / 8.0, any(inf)),
        }
        if truth["ssim"] is not None:
            values["SSIM"] = (truth["ssim"][f], False)
        for m in metric_ids:
            per_frame[m].append(values[m][0])
            clamped[m] = clamped[m] or values[m][1]
    means = {m: sum(v) / len(v) for m, v in per_frame.items()}
    return per_frame, means, clamped


def check_metrics_report(doc, truth, metric_ids) -> list[str]:
    fails = []
    res = doc["results"]
    if res["frame_count"] != truth["frames"]:
        fails.append(f"frame_count {res['frame_count']} != {truth['frames']}")
    geometry = res["geometry"]
    for key in ("width", "height", "bit_depth", "chroma", "fps"):
        if geometry[key] != truth[key]:
            fails.append(f"geometry {key} {geometry[key]!r} != {truth[key]!r}")
    _, means, clamped = expected_video(truth, metric_ids)
    rows = res["metrics"]
    if [r["metric"] for r in rows] != list(metric_ids):
        return fails + [f"metric rows {[r['metric'] for r in rows]} != {list(metric_ids)}"]
    for row in rows:
        m = row["metric"]
        # PSNR is held to 1e-9 relative, SSIM (at most 1) to 1e-9 absolute.
        ok = (close(row["mean"], means[m], rel=0.0, floor=REL) if m == "SSIM"
              else close(row["mean"], means[m]))
        if not ok:
            fails.append(f"{m} mean {row['mean']!r} != expected {means[m]!r}")
        if row["clamp_applied"] is not clamped[m]:
            fails.append(f"{m} clamp_applied {row['clamp_applied']} != {clamped[m]}")
        if row["frames"] != truth["frames"]:
            fails.append(f"{m} frames {row['frames']} != {truth['frames']}")
    if truth["lossless_frame"] is not None and not any(r["clamp_applied"] for r in rows):
        fails.append("lossless frame present but no metric is flagged clamp_applied")
    return fails


def check_per_frame_csv(text, truth, metric_ids) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["frame", *metric_ids]:
        return [f"per-frame header {rows[0]} != {['frame', *metric_ids]}"]
    if len(rows) - 1 != truth["frames"]:
        return [f"per-frame rows {len(rows) - 1} != {truth['frames']}"]
    per_frame, _, _ = expected_video(truth, metric_ids)
    fails = []
    for i, row in enumerate(rows[1:]):
        if int(row[0]) != i:
            fails.append(f"per-frame row {i} has frame index {row[0]}")
        for m, cell in zip(metric_ids, row[1:]):
            if not close(float(cell), per_frame[m][i], rel=SIX_DIGITS):
                fails.append(f"frame {i} {m} {cell} != {per_frame[m][i]!r}")
    return fails[:3] + ([f"... {len(fails)} per-frame values differ in all"]
                        if len(fails) > 3 else [])


def check_profile(doc, pie_text, truth) -> list[str]:
    profiles = doc["results"]["profiles"]
    if len(profiles) != 1:
        return [f"expected one profile, got {len(profiles)}"]
    prof = profiles[0]
    fails = []
    if prof["total_cost"] != truth["total_cost"]:
        fails.append(f"total_cost {prof['total_cost']} != planted {truth['total_cost']}")
    if sum(s["cost"] for s in prof["stages"]) != prof["total_cost"]:
        fails.append("stage costs do not sum to the total cost")
    if not close(sum(s["percent"] for s in prof["stages"]), 100.0):
        fails.append("stage percentages do not sum to 100")
    pie = list(csv.reader(io.StringIO(pie_text)))
    if [r[0] for r in pie[1:]] != [s["stage"] for s in prof["stages"]]:
        fails.append("pie-data stages differ from the report's stages")
    return fails


def check_bdrate(doc, plot_text, truth) -> list[str]:
    planted = truth["bd_rate_percent"]
    res = doc["results"]
    fails = []
    seen = {f"{row['sequence']}/{row['metric']}": row["bd_rate_percent"]
            for row in res["deltas"]}
    if seen.keys() != planted.keys():
        fails.append(f"delta rows {len(seen)} do not match the {len(planted)} planted pairs")
    wrong = [k for k, v in seen.items()
             if k in planted and not close(v, planted[k], rel=0.0, floor=REL)]
    fails.extend(f"{k} BD-rate {seen[k]!r} != planted {planted[k]!r}" for k in wrong[:3])
    if len(wrong) > 3:
        fails.append(f"... {len(wrong)} BD-rates differ in all")
    for avg in res["averages"]:
        values = [v for k, v in planted.items() if k.endswith("/" + avg["metric"])]
        expected = sum(values) / len(values)
        if not close(avg["bd_rate_percent"], expected, rel=0.0, floor=REL):
            fails.append(f"{avg['metric']} average BD-rate {avg['bd_rate_percent']!r} != {expected!r}")
    rows = plot_text.count("\n") - 1
    expected_rows = truth["curves"] * (truth["points_per_curve"] + 100)
    if rows != expected_rows:
        fails.append(f"plot-data rows {rows} != {expected_rows}")
    return fails


def check_mos(doc, truth) -> list[str]:
    res = doc["results"]
    fails = []
    if res["screening"]["discarded"] != truth["outliers"]:
        fails.append(f"discarded {res['screening']['discarded']} != planted {truth['outliers']}")
    points = res["mos"]
    if len(points) != truth["stimuli"]:
        return fails + [f"{len(points)} MOS points != {truth['stimuli']} stimuli"]
    bad = 0
    for j, p in enumerate(points):
        if not (close(p["mos"], truth["mos"][j]) and close(p["ci95"], truth["ci95"][j])
                and p["n"] == truth["n"][j]):
            bad += 1
            if bad <= 3:
                fails.append(f"{p['pvs']}: MOS {p['mos']!r} ci {p['ci95']!r} n {p['n']} != "
                             f"{truth['mos'][j]!r} {truth['ci95'][j]!r} {truth['n'][j]}")
    if bad > 3:
        fails.append(f"... {bad} MOS points differ in all")
    anova = {row["factor"]: row for row in res["anova"]}
    for factor, exp in truth["anova"].items():
        row = anova.get(factor)
        if row is None:
            fails.append(f"ANOVA row for {factor!r} missing")
            continue
        for key in ("df_between", "df_within"):
            if row[key] != exp[key]:
                fails.append(f"ANOVA {factor} {key} {row[key]} != {exp[key]}")
        for key in ("f_stat", "p_value"):
            if not close(row[key], exp[key]):
                fails.append(f"ANOVA {factor} {key} {row[key]!r} != scipy {exp[key]!r}")
    return fails
