"""Fuzz every subcommand with random input files and flag variants.

Whatever the input, a run ends with exit code 0, 2 or 3, writes at most one
line to stderr (never a traceback: an exception escaping ``main`` fails the
test), and a second run of the same command gives the same stdout, stderr
and report files. Inputs are either random bytes or random bytes after a
valid header, plus a few structured generators that get past the header
checks into the computations.
"""

import contextlib
import io
import itertools
import operator
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from codecbench.cli import main

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

Y4M_HEADER = b"YUV4MPEG2 W16 H16 F25:1 Ip A1:1 C420jpeg\n"
FRAME_BYTES = 16 * 16 * 3 // 2
RD_HEADER = b"codec,sequence,metric,label,bitrate_kbps,quality\n"
SCORES_HEADER = b"subject,p0,p1,p2,p3\n"
PVS_META = (
    b"pvs,codec,resolution,bitrate_kbps,content\n"
    b"p0,HM,HD,1000,a\np1,HM,UHD,2000,b\np2,VTM,HD,1000,a\np3,VTM,UHD,2000,b\n"
)
CALLGRIND_HEADER = b"version: 1\nevents: Ir\nfl=(1) enc.cpp\nfn=(1) f\n"

NUMBER = st.one_of(
    st.integers(-5, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)


def raw_or_after(header):
    """Random bytes, alone or after a valid header."""
    body = st.binary(max_size=400)
    return st.one_of(body, body.map(lambda b: header + b))


def csv_lines(cells):
    return st.lists(cells.map(",".join), max_size=12).map(
        lambda rows: "".join(f"{r}\n" for r in rows).encode()
    )


Y4M = st.one_of(
    raw_or_after(Y4M_HEADER),
    st.lists(st.binary(min_size=FRAME_BYTES, max_size=FRAME_BYTES), max_size=2).map(
        lambda frames: Y4M_HEADER + b"".join(b"FRAME\n" + f for f in frames)
    ),
)
RAW = st.one_of(st.binary(max_size=800), st.binary(min_size=384, max_size=384))
# Anchor and test curves of one metric: 3-4 increasing rates and qualities.
RD_CURVES = st.tuples(
    st.sampled_from(["PSNR", "SSIM"]),
    *[st.lists(st.floats(1e-300, 1e300), min_size=3, max_size=4, unique=True),
      st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=4, unique=True)] * 2,
).map(
    lambda c: "".join(
        f"{codec},s1,{c[0]},,{r!r},{q!r}\n"
        for codec, rates, qualities in (("A", c[1], c[2]), ("B", c[3], c[4]))
        for r, q in zip(sorted(rates), sorted(qualities))
    ).encode()
)


@st.composite
def overlapping_rd_curves(draw):
    """Anchor (A) and test (B) curves for each drawn sequence and metric, with
    rates and qualities increasing; the test curve is the anchor shifted by at
    most 0.45 of its span on both axes, so the two overlap by more than
    MIN_OVERLAP. Blank and empty-celled lines are scattered between rows."""
    rows = []
    for sequence in draw(st.lists(st.sampled_from(["s1", "s2"]), min_size=1, unique=True)):
        for metric in draw(st.lists(st.sampled_from(["PSNR", "SSIM"]), min_size=1,
                                    unique=True)):
            steps = draw(st.integers(2, 4))  # so 3 to 5 points
            ratios = draw(st.lists(st.floats(1.3, 3.0), min_size=steps, max_size=steps))
            increments = draw(st.lists(st.floats(0.2, 5.0), min_size=steps, max_size=steps))
            rates = list(itertools.accumulate(ratios, operator.mul,
                                              initial=draw(st.floats(10, 1e4))))
            qualities = list(itertools.accumulate(increments,
                                                  initial=draw(st.floats(-50, 50))))
            scale = (rates[-1] / rates[0]) ** draw(st.floats(-0.45, 0.45))
            shift = draw(st.floats(-0.45, 0.45)) * (qualities[-1] - qualities[0])
            for codec, s, d in (("A", 1.0, 0.0), ("B", scale, shift)):
                rows.extend(f"{codec},{sequence},{metric},,{r * s!r},{q + d!r}\n"
                            for r, q in zip(rates, qualities))
    for blank in draw(st.lists(st.sampled_from(["\n", " , \n", ",,,,,\n"]), max_size=4)):
        rows.insert(draw(st.integers(0, len(rows))), blank)
    return RD_HEADER + "".join(rows).encode()


RD_POINTS = st.one_of(
    raw_or_after(RD_HEADER),
    csv_lines(
        st.tuples(
            st.sampled_from(["A", "B"]), st.sampled_from(["s1", "s2"]),
            st.sampled_from(["PSNR", "SSIM"]), st.just(""), NUMBER, NUMBER,
        )
    ).map(lambda rows: RD_HEADER + rows),
    st.lists(RD_CURVES, max_size=2, unique_by=lambda c: c.split(b",")[2]).map(
        lambda curves: RD_HEADER + b"".join(curves)
    ),
    overlapping_rd_curves(),
)
SCORES = st.one_of(
    raw_or_after(SCORES_HEADER),
    csv_lines(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            *[st.one_of(st.integers(0, 100).map(str), st.just(""), NUMBER)] * 4,
        )
    ).map(lambda rows: SCORES_HEADER + rows),
    # Valid panels: 3-6 subjects, scores in range, a few missing.
    st.lists(
        st.lists(st.integers(0, 110).map(lambda v: str(v) if v <= 100 else ""),
                 min_size=4, max_size=4),
        min_size=3, max_size=6,
    ).map(
        lambda rows: SCORES_HEADER
        + "".join(f"s{i},{','.join(r)}\n" for i, r in enumerate(rows)).encode()
    ),
)
PROFILED = ("InterSearch::xTZSearch", "TrQuant::transformNxN",
            "LoopFilter::xDeblockCU", "IntraPrediction::predIntraAng", "memcpy")


@st.composite
def callgrind_profiles(draw):
    """Callgrind files with a positions: header, compressed fn=/cfn= names
    (defined on first use, referred to by id after), cost lines with
    subpositions and omitted trailing events, and calls= records whose
    next cost line is inclusive cost."""
    positions = draw(st.sampled_from(["line", "instr line"]))
    events = draw(st.sampled_from(["Ir", "Ir Dr"]))
    lines = ["version: 1", f"positions: {positions}", f"events: {events}",
             "fl=(1) enc.cpp"]
    named = set()

    def name(key):
        i = draw(st.integers(0, len(PROFILED) - 1))
        ref = f"{key}=({i})" if i in named else f"{key}=({i}) {PROFILED[i]}"
        named.add(i)
        return ref

    for _ in range(draw(st.integers(1, 6))):
        lines.append(name("fn"))
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                lines += [name("cfn"), f"calls={draw(st.integers(1, 9))} 10"]
            where = draw(st.lists(st.sampled_from(["16", "+1", "-2", "*"]),
                                  min_size=len(positions.split()),
                                  max_size=len(positions.split())))
            cost = draw(st.lists(st.integers(0, 10**6).map(str), min_size=1,
                                 max_size=len(events.split())))
            lines.append(" ".join(where + cost))
    return ("\n".join(lines) + "\n").encode()


CALLGRIND = st.one_of(
    raw_or_after(CALLGRIND_HEADER),
    csv_lines(st.tuples(NUMBER, NUMBER)).map(
        lambda rows: CALLGRIND_HEADER + rows.replace(b",", b" ")
    ),
    callgrind_profiles(),
)
COMMON = st.tuples(
    st.sampled_from([[], ["--format", "csv"]]),
    st.sampled_from([[], ["--full-precision"]]),
    st.sampled_from([["--output", "report"], ["--output", "-"]]),
).map(lambda parts: sum(parts, []))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(files, argv, outputs):
    """Write the input files to a fresh directory, run argv twice and check
    the contract; file names in argv are taken relative to that directory."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, name) for name in [*files, *outputs]}
        for name, data in files.items():
            paths[name].write_bytes(data)
        argv = [str(paths[a]) if a in paths else a for a in argv]
        runs = []
        for _ in range(2):
            for name in outputs:
                paths[name].unlink(missing_ok=True)
            code, out, err = run(argv)
            assert code in (0, 2, 3), (code, err)
            assert len(err.splitlines()) <= 1, err
            reports = {n: paths[n].read_bytes() for n in outputs if paths[n].exists()}
            runs.append((code, out, err, reports))
        assert runs[0] == runs[1]


@FUZZ
@given(
    st.one_of(
        st.tuples(st.just(".y4m"), Y4M, Y4M, st.just([])),
        st.tuples(
            st.just(".yuv"), RAW, RAW,
            st.sampled_from([
                ["--width", "16", "--height", "16", "--bit-depth", "8", "--fps", "25"],
                ["--width", "16", "--height", "16", "--bit-depth", "10",
                 "--fps", "25:1", "--chroma", "444"],
            ]),
        ),
    ),
    st.sampled_from([[], ["--metrics", "psnr_y"], ["--metrics", "ssim,wpsnr"]]),
    st.sampled_from([[], ["--per-frame", "frames.csv"], ["--jobs", "2"],
                     ["--clamp-db", "60"]]),
    COMMON,
)
def test_metrics(inputs, selection, extra, common):
    ext, ref, test, raw_flags = inputs
    files = {f"ref{ext}": ref, f"test{ext}": test}
    argv = ["metrics", *files, *raw_flags, *selection, *extra, *common]
    check(files, argv, ["report", "frames.csv"])


@FUZZ
@given(RD_POINTS, st.sampled_from([[], ["--plot-data", "plot.csv"]]), COMMON)
def test_bdrate(points, extra, common):
    argv = ["bdrate", "points.csv", "--anchor", "A", "--test", "B", *extra, *common]
    check({"points.csv": points}, argv, ["report", "plot.csv"])


@FUZZ
@given(
    SCORES,
    st.one_of(st.just(PVS_META), st.binary(max_size=200)),
    st.sampled_from([[], ["--exclude", "p3"], ["--threshold", "0"],
                     ["--ci-constant", "1.96"]]),
    COMMON,
)
def test_mos(scores, meta, extra, common):
    argv = ["mos", "scores.csv", "--pvs-meta", "meta.csv", *extra, *common]
    check({"scores.csv": scores, "meta.csv": meta}, argv, ["report"])


@FUZZ
@given(
    CALLGRIND,
    st.sampled_from([[], ["--event", "Ir"], ["--threshold", "0"],
                     ["--pie-data", "pie.csv"]]),
    COMMON,
)
def test_profile(callgrind, extra, common):
    argv = ["profile", "callgrind.out", *extra, *common]
    check({"callgrind.out": callgrind}, argv, ["report", "pie.csv"])
