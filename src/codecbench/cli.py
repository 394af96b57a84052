"""Command-line front end: metrics, bdrate, mos and profile subcommands.

Exit codes: 0 on success, 2 for user/input errors, 3 for malformed data.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

# Only modules free of numpy and scipy load here; each subcommand imports
# the rest itself, so start-up pays only for the command that runs.
from . import __version__, profiling, report
from .errors import CodecBenchError, DataFormatError, InputError, StatsError

# Defaults of numeric flags, equal to the library's (metrics.DEFAULT_CLAMP_DB,
# subjective.SCREENING_THRESHOLD and CI_CONSTANT) without importing numpy.
_CLAMP_DB = 100.0
_SCREENING_THRESHOLD = 0.75
_CI_CONSTANT = 1.95


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line with exit code 2, like every
    other error, instead of the usage block; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"codecbench: error: {message}\n")


def _number(flag, kind, rule="", ok=lambda value: True):
    """The argparse type of a numeric flag: report.parse_number's rule, then
    the flag's bound `ok`, worded by `rule`. Each fails with an InputError,
    which argparse lets through to main's handler."""
    what = "an integer" if kind is int else "a finite number"

    def parse(text):
        value = report.parse_number(text, kind)
        if value is None:
            raise InputError(f"{flag} must be {what}, got {text!r}")
        if not ok(value):
            raise InputError(f"{flag} must {rule}, got {value}")
        return value

    return parse


def _parse_fps(text: str) -> tuple[int, int]:
    """The argparse type of --fps: N, N:D or N/D as (num, den)."""
    num, sep, den = text.replace("/", ":").partition(":")
    fps = (report.parse_number(num, int), report.parse_number(den, int) if sep else 1)
    if None in fps:
        raise InputError(f"malformed --fps value {text!r}")
    return fps


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--output", "-o", default="-",
        help="report destination ('-' for stdout, default)",
    )
    common.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format (default %(default)s)",
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
        "(default %(default)s)",
    )
    p.add_argument(
        "--clamp-db", type=_number("--clamp-db", float),
        default=_CLAMP_DB,
        help="replacement for infinite per-frame PSNR (default %(default)g)",
    )
    p.add_argument("--width", type=_number("--width", int), help="raw input: frame width")
    p.add_argument("--height", type=_number("--height", int), help="raw input: frame height")
    p.add_argument(
        "--bit-depth", type=_number("--bit-depth", int), choices=(8, 10),
        help="raw input: bit depth",
    )
    p.add_argument("--fps", type=_parse_fps, help="raw input: frame rate as N, N:D or N/D")
    p.add_argument(
        "--chroma", choices=("420", "444"), default="420",
        help="raw input: chroma layout (default %(default)s)",
    )
    p.add_argument("--per-frame", metavar="CSV", help="also write per-frame values")
    p.add_argument(
        "--external", metavar="FILE",
        help="attach per-frame scores from an external metric tool (CSV or JSON)",
    )
    p.add_argument(
        "--external-name", metavar="NAME",
        help="JSON metric key (default: vmaf); a CSV's series name (default: score)",
    )
    p.add_argument(
        "--jobs", type=_number("--jobs", int, "be at least 1", lambda v: v >= 1),
        default=1,
        help="worker threads, capped at the CPUs this process may use "
        "(default %(default)s)",
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
        "--threshold",
        type=_number("--threshold", float, "be finite and lie in [-1, 1]",
                     lambda v: -1 <= v <= 1),
        default=_SCREENING_THRESHOLD,
        help="screening correlation threshold (default %(default)s)",
    )
    p.add_argument(
        "--ci-constant",
        type=_number("--ci-constant", float, "be finite and above 0", lambda v: v > 0),
        default=_CI_CONSTANT,
        help="confidence interval multiplier (default %(default)s)",
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
        help="stage mapping file (default: the built-in taxonomy)",
    )
    p.add_argument(
        "--threshold",
        type=_number("--threshold", float, "be finite and lie in [0, 100]",
                     lambda v: 0 <= v <= 100),
        default=profiling.BUCKET_THRESHOLD,
        help="fold stages below this percentage into Other (default %(default)s)",
    )
    p.add_argument("--event", help="cost event name (default: first declared)")
    p.add_argument("--timing", metavar="CSV", help="timing records CSV")
    p.add_argument(
        "--pie-data", metavar="CSV",
        help="write the stage,percent rows of the one Callgrind input",
    )
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        args.argv = argv
        return args.func(args)
    except DataFormatError as exc:
        print(f"codecbench: format error: {exc}", file=sys.stderr)
        return 3
    except (CodecBenchError, OSError) as exc:
        print(f"codecbench: error: {exc}", file=sys.stderr)
        return 2


def _same_file(a, b):
    """Whether paths a and b name one regular file: by device and inode where
    both exist, else by resolved path. Devices and FIFOs are never the same
    file, as writing to one does not replace what is read from the other."""
    try:
        return os.path.samefile(a, b) and os.path.isfile(a)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _is_stdout(path):
    """Whether an output path writes to stdout: '-', or a path naming the
    file open as stdout (/dev/stdout, or the file stdout is redirected to)."""
    try:
        return path == "-" or os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _check_files(args, inputs, outputs):
    """The one output rule, run before a command opens any file: no output
    that does not write to stdout is an input or another output, and at most
    one output writes to stdout. That one has stdout to itself, so the summary
    is left out (quiet). `inputs` and `outputs` are (flag, path) pairs, a path
    None where the flag is not given; the report (--output) is the first
    output of every command. The given inputs, in flag order, are recorded
    as args.inputs: the files the report digests."""
    seen = [(flag, path) for flag, path in inputs if path is not None]
    args.inputs = [path for _, path in seen]
    stdout = None
    for flag, path in [("--output", args.output), *outputs]:
        if path is None:
            continue
        if _is_stdout(path):
            if stdout:
                raise InputError(f"{stdout} and {flag} {path} both write to stdout")
            stdout, args.quiet = f"{flag} {path}", True
            continue
        for other, taken in seen:
            if _same_file(path, taken):
                raise InputError(f"{flag} {path} is the same file as {other} {taken}")
        seen.append((flag, path))


def _write_csv(args, path, header, rows):
    """Write every CSV the CLI produces, honouring --full-precision."""
    with report.open_output(path) as fp:
        report.render_csv(header, rows, fp, full_precision=args.full_precision)


def _emit(args, results, columns, table, summary, warnings=(), notes=()):
    """The one report rule of every command: JSON is the whole report, over
    the inputs _check_files was given, and a CSV report is the rows of `table`
    (dicts from `results`) projected on `columns`, a flag written 0/1."""
    if args.format == "json":
        doc = report.make_report(args.argv, args.inputs, results, warnings, notes)
        text = report.render_json(doc, full_precision=args.full_precision)
        with report.open_output(args.output) as fp:
            fp.write(text)
    else:
        _write_csv(args, args.output, columns, [
            [int(row[c]) if isinstance(row[c], bool) else row[c] for c in columns]
            for row in table
        ])
    if not args.quiet:
        for line in summary:
            print(line)
    return 0


def _open_video(fp, args):
    from . import video_io

    # The reader takes the file cmd_metrics opened, so a pipe or FIFO works:
    # a .y4m extension or the magic peeked from the stream selects container
    # parsing, so a corrupt Y4M file reports a format error, not raw input.
    if (fp.peek(len(video_io.Y4M_MAGIC)).startswith(video_io.Y4M_MAGIC)
            or fp.name.lower().endswith(".y4m")):
        return video_io.Y4MReader(fp)
    flags = {"--width": args.width, "--height": args.height,
             "--bit-depth": args.bit_depth, "--fps": args.fps}
    missing = [flag for flag, value in flags.items() if value is None]
    if missing:
        raise InputError(
            f"{fp.name} is not a Y4M stream; raw input requires "
            f"{' '.join(missing)} (no geometry autodetection)"
        )
    try:
        info = video_io.SequenceInfo(
            width=args.width,
            height=args.height,
            fps_num=args.fps[0],
            fps_den=args.fps[1],
            bit_depth=args.bit_depth,
            chroma=video_io.CHROMA_420 if args.chroma == "420" else video_io.CHROMA_444,
        )
    except DataFormatError as exc:
        # The flags, not the file, are at fault: a usage error.
        raise InputError(
            f"invalid raw-input flags --width/--height/--fps/--chroma: {exc}"
        ) from None
    return video_io.RawReader(fp, info)


def cmd_metrics(args) -> int:
    from . import metrics

    _check_files(args, [("reference", args.reference), ("test", args.test),
                        ("--external", args.external)],
                 [("--per-frame", args.per_frame)])
    metric_ids = metrics.parse_metric_selection(args.metrics)
    # Read first, so a bad score file fails before any frame is computed.
    external = (metrics.ingest_external_scores(args.external, name=args.external_name)
                if args.external else None)
    with open(args.reference, "rb") as ref_fp, open(args.test, "rb") as test_fp:
        ref, test = _open_video(ref_fp, args), _open_video(test_fp, args)
        ri = ref.info
        series = metrics.sequence_quality(
            ref, test, metric_ids, clamp_db=args.clamp_db, jobs=args.jobs
        )

    frame_count = len(next(iter(series.values())).frame_values)
    if external:
        series[external.metric_id] = external

    # One rule for every series: a count other than the frame count is warned
    # of, and --per-frame leaves the series out, as it cannot be placed.
    rows, warnings, ids = [], [], []
    for mid, sq in series.items():
        rows.append(
            {
                "metric": mid,
                "mean": sq.value,
                "frames": len(sq.frame_values),
                "clamp_applied": sq.clamp_applied,
            }
        )
        if len(sq.frame_values) == frame_count:
            ids.append(mid)
        else:
            warnings.append(
                f"{mid}: {len(sq.frame_values)} values for {frame_count} frames; "
                "mean taken over present values"
                + ("; column left out of --per-frame" if args.per_frame else "")
            )

    if args.per_frame:
        _write_csv(args, args.per_frame, ["frame"] + ids, [
            [i] + [series[mid].frame_values[i] for mid in ids]
            for i in range(frame_count)
        ])

    results = {
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
    }
    notes = [
        f"per-frame infinite PSNR replaced by {args.clamp_db:g} dB; "
        "substitutions are flagged per metric",
        "sequence value is the mean of per-frame values",
        "SSIM: luma plane, 11x11 Gaussian window (sigma 1.5), "
        "K1=0.01, K2=0.03, fully supported windows only",
    ]
    summary = [
        f"{r['metric']}: {r['mean']:.4f}"
        + (" (clamped)" if r["clamp_applied"] else "")
        for r in rows
    ]
    return _emit(args, results, ["metric", "mean", "frames", "clamp_applied"],
                 rows, summary, warnings, notes)


def cmd_bdrate(args) -> int:
    from . import rd

    _check_files(args, [("points", args.points)], [("--plot-data", args.plot_data)])
    curves = rd.load_rd_csv(args.points)
    pairs, means = rd.compare(curves, args.anchor, args.test)
    rows = sorted(
        ({"sequence": seq, "metric": met, "bd_rate_percent": r.delta,
          "bd_quality": q.delta, "overlap": list(r.overlap)}
         for seq, met, r, q in pairs),
        key=lambda row: (row["metric"], row["sequence"]),
    )
    warnings = [f"{seq}/{met}: {w}" for seq, met, r, q in pairs
                for w in r.warnings + q.warnings]
    averages = [
        {"sequence": "Average", "metric": met, "bd_rate_percent": rate,
         "bd_quality": quality}
        for met, (rate, quality) in means.items()
    ]

    if args.plot_data:
        _write_csv(
            args, args.plot_data,
            ["codec", "sequence", "metric", "quality", "log10_rate_kbps", "interpolated"],
            rd.plot_rows([curve for codec in (args.anchor, args.test)
                          for curve in curves if curve.codec_id == codec]),
        )

    results = {"anchor": args.anchor, "test": args.test, "deltas": rows,
               "averages": averages}
    notes = [
        "interpolation: monotone piecewise cubic (PCHIP) of log10(rate) "
        "vs quality, integrated in closed form over the shared range",
        "Average row is the arithmetic mean of per-sequence deltas",
    ]
    summary = [
        f"{r['sequence']} [{r['metric']}]: BD-rate {r['bd_rate_percent']:+.2f}%"
        for r in rows + averages
    ]
    return _emit(args, results, ["sequence", "metric", "bd_rate_percent", "bd_quality"],
                 rows + averages, summary, warnings, notes)


def cmd_mos(args) -> int:
    from . import rd, subjective

    _check_files(args, [("scores", args.scores), ("--pvs-meta", args.pvs_meta)], [])
    matrix = subjective.load_scores_csv(args.scores)
    if args.exclude:
        matrix = matrix.without_stimuli(args.exclude)
    matrix = replace(matrix, meta=subjective.load_pvs_csv(args.pvs_meta))

    screening, filtered = subjective.screen_subjects(matrix, threshold=args.threshold)
    mos = subjective.mos_rows(filtered, constant=args.ci_constant)

    anovas = []
    warnings = []
    for factor in subjective.FACTORS:
        try:
            anovas.append(subjective.anova_oneway(filtered, factor))
        except StatsError as exc:
            warnings.append(f"ANOVA skipped for factor {factor!r}: {exc}")

    results = {
        "session": args.session,
        "screening": asdict(screening),
        "mos": mos,
        "anova": [asdict(res) for res in anovas],
    }
    notes = [
        f"confidence interval: {args.ci_constant:g} * stddev / sqrt(N), "
        "population stddev (squared deviations, divided by N)",
        "screening: single pass against the all-subjects MOS, retained "
        f"when min(Pearson, Spearman) >= {args.threshold:g}",
        "one session per scores file; screen HD and UHD sessions separately",
        "each mos row is also an RD point (sequence content@resolution, metric MOS, "
        "label the PVS id, quality the MOS), so the CSV report is a bdrate points file",
    ]
    summary = [
        f"discarded subjects: {', '.join(screening.discarded) or 'none'}",
    ] + [f"{r['pvs']}: MOS {r['mos']:.2f} +/- {r['ci95']:.2f} (n={r['n']})" for r in mos]
    for res in anovas:
        summary.append(
            f"ANOVA {res.factor}: F({res.df_between},{res.df_within}) "
            f"= {res.f_stat:.3f}, p = {res.p_value:.4g}"
        )
    return _emit(args, results, [*rd.RD_CSV_COLUMNS, "ci95", "n"], mos, summary,
                 warnings, notes)


def cmd_profile(args) -> int:
    if args.pie_data and len(args.callgrind) > 1:
        raise InputError("--pie-data takes one input; use --format csv for several")
    _check_files(args, [*(("callgrind", path) for path in args.callgrind),
                        ("--mapping", args.mapping), ("--timing", args.timing)],
                 [("--pie-data", args.pie_data)])
    mapping = profiling.load_mapping(args.mapping)
    inputs = [(path, profiling.parse_callgrind(path, event=args.event))
              for path in args.callgrind]
    profiles = []
    for path, profile in zip(args.callgrind, profiling.aggregate_stages(
            inputs, mapping, bucket_threshold=args.threshold)):
        percentages = profile.percentages
        stages = [{"stage": stage, "cost": cost, "percent": percentages[stage]}
                  for stage, cost in profile.totals.items()]
        profiles.append({"file": str(path), "total_cost": profile.total_cost,
                         "stages": stages, "other_bucket": list(profile.other_bucket)})

    results = {"mapping": args.mapping or "built-in", "profiles": profiles}
    speedups = []
    if args.timing:
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
        speedups = [{"sequence": a.sequence_id, "qp": a.qp, "codec_a": a.codec_id,
                     "codec_b": b.codec_id, "speedup_a_over_b": profiling.speedup(a, b)}
                    for a, b in profiling.codec_pairs(records)]
        results["timing"] = {"time_factors": factors, "speedups": speedups}

    notes = [
        "self cost only (no inclusive-cost propagation); cost basis is "
        + (f"event {args.event!r}" if args.event else "the first declared event"),
        f"stages below {args.threshold:g}% in every input are folded into Other",
    ]
    summary = []
    for p in profiles:
        summary.append(f"{p['file']} (total {p['total_cost']}):")
        summary.extend(
            f"  {s['stage']}: {s['percent']:.1f}%" for s in p["stages"]
        )
    summary.extend(
        f"{s['sequence']} qp{s['qp']}: {s['codec_a']} / {s['codec_b']} "
        f"= {s['speedup_a_over_b']:.2f}x"
        for s in speedups
    )
    if args.pie_data:
        _write_csv(args, args.pie_data, ["stage", "percent"],
                   [[s["stage"], s["percent"]] for s in profiles[0]["stages"]])
    table = [{"file": p["file"], **s} for p in profiles for s in p["stages"]]
    return _emit(args, results, ["file", "stage", "cost", "percent"], table, summary,
                 notes=notes)


if __name__ == "__main__":
    sys.exit(main())
