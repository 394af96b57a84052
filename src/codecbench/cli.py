"""Command-line front end: metrics, bdrate, mos and profile subcommands.

Exit codes: 0 on success, 2 for user/input errors, 3 for malformed data.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# Only modules free of numpy and scipy load here; each subcommand imports
# the rest itself, so start-up pays only for the command that runs.
from . import __version__, profiling, report
from .errors import (
    CodecBenchError,
    DataFormatError,
    InputError,
    StatsError,
)

# Metric ids as in metrics.COMPUTABLE_METRICS.
_METRIC_TOKENS = {
    "psnr": ("PSNR_Y", "PSNR_U", "PSNR_V", "WPSNR"),
    "psnr_y": ("PSNR_Y",),
    "psnr_u": ("PSNR_U",),
    "psnr_v": ("PSNR_V",),
    "wpsnr": ("WPSNR",),
    "ssim": ("SSIM",),
}

# Defaults of numeric flags, equal to the library's (metrics.DEFAULT_CLAMP_DB,
# subjective.SCREENING_THRESHOLD and CI_CONSTANT) without importing numpy.
_CLAMP_DB = 100.0
_SCREENING_THRESHOLD = 0.75
_CI_CONSTANT = 1.95


# Bounds of numeric flags, keyed by subcommand because mos and profile both
# have a --threshold. Each test is one comparison chain, which nan fails.
_FLAG_BOUNDS = {
    "metrics": {
        "clamp_db": ("be finite", lambda v: -math.inf < v < math.inf),
        "jobs": ("be at least 1", lambda v: v >= 1),
    },
    "mos": {
        "ci_constant": ("be finite and above 0", lambda v: 0 < v < math.inf),
        "threshold": ("be finite and lie in [-1, 1]", lambda v: -1 <= v <= 1),
    },
    "profile": {
        "threshold": ("be finite and lie in [0, 100]", lambda v: 0 <= v <= 100),
    },
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line with exit code 2, like every
    other error, instead of the usage block; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"codecbench: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--output", "-o", default="-",
        help="report destination ('-' for stdout, default)",
    )
    common.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format (default json)",
    )
    common.add_argument(
        "--quiet", "-q", action="store_true", help="suppress the stdout summary"
    )
    common.add_argument(
        "--full-precision", action="store_true",
        help="serialize floats at full precision instead of 6 significant digits",
    )

    parser = _Parser(
        prog="codecbench",
        description="Codec evaluation toolkit: objective quality metrics, "
        "Bjøntegaard deltas, subjective score statistics and profiler-based "
        "complexity breakdowns.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "metrics", parents=[common],
        help="compute quality metrics for a reference/test sequence pair",
    )
    p.add_argument("reference", help="reference video (.y4m or raw planar YUV)")
    p.add_argument("test", help="test video (.y4m or raw planar YUV)")
    p.add_argument(
        "--metrics", default="psnr,ssim", metavar="LIST",
        help="comma list of psnr, psnr_y, psnr_u, psnr_v, wpsnr, ssim "
        "(default psnr,ssim)",
    )
    p.add_argument(
        "--clamp-db", type=float, default=_CLAMP_DB,
        help="replacement for infinite per-frame PSNR (default 100)",
    )
    p.add_argument("--width", type=int, help="raw input: frame width")
    p.add_argument("--height", type=int, help="raw input: frame height")
    p.add_argument("--bit-depth", type=int, choices=(8, 10), help="raw input: bit depth")
    p.add_argument("--fps", help="raw input: frame rate as N, N:D or N/D")
    p.add_argument(
        "--chroma", choices=("420", "444"), default="420",
        help="raw input: chroma layout (default 420)",
    )
    p.add_argument("--per-frame", metavar="CSV", help="also write per-frame values")
    p.add_argument(
        "--external", metavar="FILE",
        help="attach per-frame scores from an external metric tool (CSV or JSON)",
    )
    p.add_argument(
        "--external-name", metavar="NAME",
        help="metric key inside the external file (default: vmaf for JSON)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker threads, capped at the CPUs this process may use (default 1)",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "bdrate", parents=[common],
        help="Bjøntegaard deltas between an anchor and a test codec",
    )
    p.add_argument("points", help="rate-distortion points CSV")
    p.add_argument("--anchor", required=True, help="anchor codec id")
    p.add_argument("--test", required=True, help="test codec id")
    p.add_argument(
        "--plot-data", metavar="CSV",
        help="write interpolated curve samples for plotting",
    )
    p.set_defaults(func=cmd_bdrate)

    p = sub.add_parser(
        "mos", parents=[common],
        help="MOS statistics with outlier screening and per-factor ANOVA",
    )
    p.add_argument("scores", help="subject scores CSV (one session per file)")
    p.add_argument("--pvs-meta", required=True, help="PVS metadata CSV")
    p.add_argument(
        "--threshold", type=float, default=_SCREENING_THRESHOLD,
        help="screening correlation threshold (default 0.75)",
    )
    p.add_argument(
        "--ci-constant", type=float, default=_CI_CONSTANT,
        help="confidence interval multiplier (default 1.95)",
    )
    p.add_argument("--session", default="", help="session label echoed in the report")
    p.add_argument(
        "--exclude", action="append", default=[], metavar="PVS",
        help="drop a stimulus column before analysis (repeatable)",
    )
    p.set_defaults(func=cmd_mos)

    p = sub.add_parser(
        "profile", parents=[common],
        help="stage complexity repartition from Callgrind output",
    )
    p.add_argument("callgrind", nargs="+", help="Callgrind output file(s)")
    p.add_argument(
        "--mapping", metavar="FILE",
        help=f"stage mapping file (default: ${profiling.MAPPING_ENV_VAR} "
        "or the built-in taxonomy)",
    )
    p.add_argument(
        "--threshold", type=float, default=profiling.BUCKET_THRESHOLD,
        help="fold stages below this percentage into Other (default 1.0)",
    )
    p.add_argument("--event", help="cost event name (default: first declared)")
    p.add_argument("--timing", metavar="CSV", help="timing records CSV")
    p.add_argument(
        "--pie-data", metavar="CSV",
        help="write stage,percent rows per input (multiple inputs get the "
        "input stem suffixed)",
    )
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        _check_flag_bounds(args)
        return args.func(args)
    except DataFormatError as exc:
        print(f"codecbench: format error: {exc}", file=sys.stderr)
        return 3
    except (CodecBenchError, OSError) as exc:
        print(f"codecbench: error: {exc}", file=sys.stderr)
        return 2


def _write_csv(args, path, header, rows):
    """Write every CSV the CLI produces, honouring --full-precision."""
    with report.open_output(path) as fp:
        report.render_csv(header, rows, fp, full_precision=args.full_precision)


def _check_flag_bounds(args):
    for dest, (rule, ok) in _FLAG_BOUNDS.get(args.subcommand, {}).items():
        value = getattr(args, dest)
        if not ok(value):
            raise InputError(f"--{dest.replace('_', '-')} must {rule}, got {value}")


def _emit(args, report_doc, csv_header, csv_rows, summary_lines):
    if args.format == "json":
        text = report.render_json(report_doc, full_precision=args.full_precision)
        with report.open_output(args.output) as fp:
            fp.write(text)
    else:
        _write_csv(args, args.output, csv_header, csv_rows)
    if not args.quiet and args.output != "-":
        for line in summary_lines:
            print(line)
    return 0


def _parse_fps(text: str) -> tuple[int, int]:
    for sep in (":", "/"):
        if sep in text:
            num, _, den = text.partition(sep)
            try:
                return int(num), int(den)
            except ValueError:
                raise InputError(f"malformed --fps value {text!r}") from None
    try:
        return int(text), 1
    except ValueError:
        raise InputError(f"malformed --fps value {text!r}") from None


def _open_video(path, args):
    from . import video_io

    # A .y4m extension or the stream magic selects container parsing, so a
    # corrupt Y4M file reports a format error instead of falling back to raw.
    with open(path, "rb") as probe:
        magic = probe.read(len(video_io.Y4M_MAGIC))
    if magic == video_io.Y4M_MAGIC or str(path).lower().endswith(".y4m"):
        return video_io.Y4MReader(path)
    missing = [
        flag
        for flag, value in (
            ("--width", args.width),
            ("--height", args.height),
            ("--bit-depth", args.bit_depth),
            ("--fps", args.fps),
        )
        if value is None
    ]
    if missing:
        raise InputError(
            f"{path} is not a Y4M stream; raw input requires "
            f"{' '.join(missing)} (no geometry autodetection)"
        )
    fps_num, fps_den = _parse_fps(args.fps)
    try:
        info = video_io.SequenceInfo(
            width=args.width,
            height=args.height,
            fps_num=fps_num,
            fps_den=fps_den,
            bit_depth=args.bit_depth,
            chroma=video_io.CHROMA_420 if args.chroma == "420" else video_io.CHROMA_444,
        )
    except DataFormatError as exc:
        # The flags, not the file, are at fault: a usage error.
        raise InputError(
            f"invalid raw-input flags --width/--height/--fps/--chroma: {exc}"
        ) from None
    return video_io.RawReader(path, info)


def _parse_metric_selection(text: str) -> tuple[str, ...]:
    selected = set()
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _METRIC_TOKENS:
            raise InputError(
                f"unknown metric {token!r}; choose from "
                f"{', '.join(sorted(_METRIC_TOKENS))}"
            )
        selected.update(_METRIC_TOKENS[token])
    if not selected:
        raise InputError("empty metric selection")
    from . import metrics

    return tuple(m for m in metrics.COMPUTABLE_METRICS if m in selected)


def cmd_metrics(args) -> int:
    from . import metrics

    metric_ids = _parse_metric_selection(args.metrics)
    # Results do not depend on the worker count, so the cap is safe. The
    # affinity mask counts the CPUs this process may run on, not the host's.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    jobs = min(args.jobs, cpus)
    with _open_video(args.reference, args) as ref, _open_video(args.test, args) as test:
        ri = ref.info
        metrics._check_compatible(ri, test.info)
        results = metrics.sequence_quality(
            ref, test, metric_ids, clamp_db=args.clamp_db, jobs=jobs
        )

    frame_count = len(next(iter(results.values())).frame_values)
    warnings = []
    if args.external:
        external = metrics.ingest_external_scores(
            args.external, name=args.external_name, frame_count=frame_count
        )
        results[external.metric_id] = external
        warnings.extend(external.warnings)

    rows = []
    for mid, sq in results.items():
        rows.append(
            {
                "metric": mid,
                "mean": sq.value,
                "frames": len(sq.frame_values),
                "clamp_applied": sq.clamp_applied,
            }
        )

    if args.per_frame:
        ids = [mid for mid, sq in results.items() if len(sq.frame_values) == frame_count]
        _write_csv(args, args.per_frame, ["frame"] + ids, [
            [i] + [results[mid].frame_values[i] for mid in ids]
            for i in range(frame_count)
        ])

    inputs = [args.reference, args.test] + ([args.external] if args.external else [])
    doc = report.make_report(
        command=args.argv,
        inputs=inputs,
        results={
            "reference": args.reference,
            "test": args.test,
            "geometry": {
                "width": ri.width,
                "height": ri.height,
                "bit_depth": ri.bit_depth,
                "chroma": ri.chroma,
                "fps": f"{ri.fps_num}/{ri.fps_den}",
            },
            "frame_count": frame_count,
            "metrics": rows,
        },
        warnings=warnings,
        notes=[
            f"per-frame infinite PSNR replaced by {args.clamp_db:g} dB; "
            "substitutions are flagged per metric",
            "sequence value is the mean of per-frame values",
            "SSIM: luma plane, 11x11 Gaussian window (sigma 1.5), "
            "K1=0.01, K2=0.03, fully supported windows only",
        ],
    )
    csv_rows = [
        [r["metric"], r["mean"], r["frames"], int(r["clamp_applied"])] for r in rows
    ]
    summary = [
        f"{r['metric']}: {r['mean']:.4f}"
        + (" (clamped)" if r["clamp_applied"] else "")
        for r in rows
    ]
    return _emit(args, doc, ["metric", "mean", "frames", "clamp_applied"], csv_rows, summary)


def cmd_bdrate(args) -> int:
    from . import rd

    if args.anchor == args.test:
        raise InputError(f"--anchor and --test name the same codec {args.anchor!r}")
    curves = rd.load_rd_csv(args.points)
    codecs = dict.fromkeys(curve.codec_id for curve in curves)
    for role, codec in (("anchor", args.anchor), ("test", args.test)):
        if codec not in codecs:
            raise InputError(
                f"no curves for {role} codec {codec!r} "
                f"(codecs in file: {', '.join(codecs) or 'none'})"
            )
    anchors = {}
    tests = {}
    for curve in curves:
        if curve.codec_id == args.anchor:
            anchors[(curve.sequence_id, curve.metric_id)] = curve
        elif curve.codec_id == args.test:
            tests[(curve.sequence_id, curve.metric_id)] = curve
    orphans = sorted(set(anchors) ^ set(tests))
    if orphans:
        names = ", ".join(f"{seq}/{met}" for seq, met in orphans)
        raise InputError(f"curves without a counterpart: {names}")

    rows = []
    warnings = []
    by_metric: dict[str, list[tuple[float, float]]] = {}
    for key in anchors:
        seq, met = key
        r = rd.bd_rate(anchors[key], tests[key])
        q = rd.bd_quality(anchors[key], tests[key])
        rows.append(
            {
                "sequence": seq,
                "metric": met,
                "bd_rate_percent": r.bd_rate_percent,
                "bd_quality": q.bd_quality,
                "overlap": list(r.overlap),
            }
        )
        warnings.extend(f"{seq}/{met}: {w}" for w in r.warnings)
        by_metric.setdefault(met, []).append((r.bd_rate_percent, q.bd_quality))
    rows.sort(key=lambda row: (row["metric"], row["sequence"]))

    averages = []
    for met in sorted(by_metric):
        pairs = by_metric[met]
        averages.append(
            {
                "sequence": "Average",
                "metric": met,
                "bd_rate_percent": sum(p[0] for p in pairs) / len(pairs),
                "bd_quality": sum(p[1] for p in pairs) / len(pairs),
            }
        )

    if args.plot_data:
        _write_csv(
            args, args.plot_data,
            ["codec", "sequence", "metric", "quality", "log10_rate_kbps", "interpolated"],
            _plot_rows(list(anchors.values()) + list(tests.values())),
        )

    doc = report.make_report(
        command=args.argv,
        inputs=[args.points],
        results={
            "anchor": args.anchor,
            "test": args.test,
            "deltas": rows,
            "averages": averages,
        },
        warnings=warnings,
        notes=[
            "interpolation: monotone piecewise cubic (PCHIP) of log10(rate) "
            "vs quality, integrated in closed form over the shared range",
            "Average row is the arithmetic mean of per-sequence deltas",
        ],
    )
    header = ["sequence", "metric", "bd_rate_percent", "bd_quality"]
    csv_rows = [
        [r["sequence"], r["metric"], r["bd_rate_percent"], r["bd_quality"]]
        for r in rows + averages
    ]
    summary = [
        f"{r['sequence']} [{r['metric']}]: BD-rate {r['bd_rate_percent']:+.2f}%"
        for r in rows + averages
    ]
    return _emit(args, doc, header, csv_rows, summary)


def _plot_rows(curves):
    import numpy as np

    from . import rd

    rows = []
    for curve in curves:
        ids = [curve.codec_id, curve.sequence_id, curve.metric_id]
        dense = np.linspace(curve.qualities.min(), curve.qualities.max(), 100)
        fitted = rd.interpolate_log_rate(curve, dense)
        rows.extend(ids + [point.quality, log_rate, 0]
                    for point, log_rate in zip(curve.points, curve.log_rates.tolist()))
        rows.extend(ids + [q, log_rate, 1]
                    for q, log_rate in zip(dense.tolist(), fitted.tolist()))
    return rows


def cmd_mos(args) -> int:
    from . import subjective

    matrix = subjective.load_scores_csv(args.scores)
    if args.exclude:
        unknown = [p for p in args.exclude if p not in matrix.stimuli]
        if unknown:
            raise InputError(f"--exclude names unknown stimuli: {', '.join(unknown)}")
        matrix = matrix.without_stimuli(args.exclude)
    meta = subjective.load_pvs_csv(args.pvs_meta)
    missing = [s for s in matrix.stimuli if s not in meta]
    if missing:
        raise InputError(f"no metadata for PVS ids: {', '.join(missing)}")
    matrix.meta = meta

    screening, filtered = subjective.screen_subjects(matrix, threshold=args.threshold)
    points = [
        subjective.mos_point(filtered, s, constant=args.ci_constant)
        for s in filtered.stimuli
    ]

    anova_rows = []
    warnings = []
    for factor in subjective.FACTORS:
        try:
            res = subjective.anova_oneway(filtered, factor)
        except StatsError as exc:
            warnings.append(f"ANOVA skipped for factor {factor!r}: {exc}")
            continue
        anova_rows.append(
            {
                "factor": res.factor,
                "df_between": res.df_between,
                "df_within": res.df_within,
                "f_stat": res.f_stat,
                "p_value": res.p_value,
            }
        )

    doc = report.make_report(
        command=args.argv,
        inputs=[args.scores, args.pvs_meta],
        results={
            "session": args.session,
            "screening": {
                "threshold": screening.threshold,
                "subjects": [
                    {
                        "subject": s.subject,
                        "pearson": s.pearson,
                        "spearman": s.spearman,
                        "retained": s.retained,
                        "note": s.note,
                    }
                    for s in screening.subjects
                ],
                "discarded": list(screening.discarded),
            },
            "mos": [
                {"pvs": p.stimulus, "mos": p.mos, "ci95": p.ci95, "n": p.n}
                for p in points
            ],
            "anova": anova_rows,
        },
        warnings=warnings,
        notes=[
            f"confidence interval: {args.ci_constant:g} * stddev / sqrt(N), "
            "population stddev (squared deviations, divided by N)",
            "screening: single pass against the all-subjects MOS, retained "
            f"when min(Pearson, Spearman) >= {args.threshold:g}",
            "one session per scores file; screen HD and UHD sessions separately",
        ],
    )
    header = ["pvs", "mos", "ci95", "n"]
    csv_rows = [[p.stimulus, p.mos, p.ci95, p.n] for p in points]
    summary = [
        f"discarded subjects: {', '.join(screening.discarded) or 'none'}",
    ] + [f"{p.stimulus}: MOS {p.mos:.2f} +/- {p.ci95:.2f} (n={p.n})" for p in points]
    for row in anova_rows:
        summary.append(
            f"ANOVA {row['factor']}: F({row['df_between']},{row['df_within']}) "
            f"= {row['f_stat']:.3f}, p = {row['p_value']:.4g}"
        )
    return _emit(args, doc, header, csv_rows, summary)


def _load_stage_mapping(args):
    if args.mapping:
        return profiling.load_mapping(args.mapping), args.mapping
    env_path = os.environ.get(profiling.MAPPING_ENV_VAR)
    if env_path:
        return profiling.load_mapping(env_path), env_path
    return profiling.default_mapping(), "built-in"


def _pie_paths(base, inputs):
    """One --pie-data file per input: several inputs get the input stem
    suffixed, and two inputs with the same stem are refused before any
    file is written."""
    if len(inputs) == 1:
        return [base]
    stem, ext = os.path.splitext(base)
    owners = {}
    for path in inputs:
        input_stem = os.path.splitext(os.path.basename(path))[0]
        pie = f"{stem}-{input_stem}{ext or '.csv'}"
        if pie in owners:
            raise InputError(
                f"--pie-data: inputs {owners[pie]} and {path} would both write {pie}"
            )
        owners[pie] = path
    return list(owners)


def cmd_profile(args) -> int:
    mapping, mapping_origin = _load_stage_mapping(args)
    pies = _pie_paths(args.pie_data, args.callgrind) if args.pie_data else None
    profiles = []
    for i, path in enumerate(args.callgrind):
        costs = profiling.parse_callgrind(path, event=args.event)
        profile = profiling.aggregate_stages(
            costs, mapping, bucket_threshold=args.threshold
        )
        stages = sorted(
            profile.percentages.items(), key=lambda kv: (-kv[1], kv[0])
        )
        profiles.append(
            {
                "file": str(path),
                "total_cost": profile.total_cost,
                "stages": [
                    {
                        "stage": stage,
                        "cost": profile.totals[stage],
                        "percent": percent,
                    }
                    for stage, percent in stages
                ],
                "other_bucket": list(profile.other_bucket),
            }
        )
        if pies:
            _write_csv(args, pies[i], ["stage", "percent"],
                       [[stage, percent] for stage, percent in stages])

    timing_section = None
    inputs = list(args.callgrind)
    if args.timing:
        inputs.append(args.timing)
        records = profiling.load_timing_csv(args.timing)
        factors = [
            {
                "codec": r.codec_id,
                "sequence": r.sequence_id,
                "qp": r.qp,
                "time_factor": profiling.time_factor(r),
            }
            for r in records
        ]
        speedups = []
        grouped: dict[tuple[str, int], list[profiling.TimingRecord]] = {}
        for r in records:
            grouped.setdefault((r.sequence_id, r.qp), []).append(r)
        for (sequence, qp), group in sorted(grouped.items()):
            group = sorted(group, key=lambda r: r.codec_id)
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    a, b = group[i], group[j]
                    speedups.append(
                        {
                            "sequence": sequence,
                            "qp": qp,
                            "codec_a": a.codec_id,
                            "codec_b": b.codec_id,
                            "speedup_a_over_b": profiling.speedup(a, b),
                        }
                    )
        timing_section = {"time_factors": factors, "speedups": speedups}

    results = {"mapping": mapping_origin, "profiles": profiles}
    if timing_section is not None:
        results["timing"] = timing_section

    doc = report.make_report(
        command=args.argv,
        inputs=inputs,
        results=results,
        notes=[
            "self cost only (no inclusive-cost propagation); cost basis is "
            + (f"event {args.event!r}" if args.event else "the first declared event"),
            f"stages below {args.threshold:g}% are folded into Other",
        ],
    )
    header = ["file", "stage", "percent"]
    csv_rows = [
        [p["file"], s["stage"], s["percent"]]
        for p in profiles
        for s in p["stages"]
    ]
    summary = []
    for p in profiles:
        summary.append(f"{p['file']} (total {p['total_cost']}):")
        summary.extend(
            f"  {s['stage']}: {s['percent']:.1f}%" for s in p["stages"]
        )
    if timing_section:
        summary.extend(
            f"{s['sequence']} qp{s['qp']}: {s['codec_a']} / {s['codec_b']} "
            f"= {s['speedup_a_over_b']:.2f}x"
            for s in timing_section["speedups"]
        )
    return _emit(args, doc, header, csv_rows, summary)


if __name__ == "__main__":
    sys.exit(main())
