"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s or -rP to see them)."""

import json
import math
import time

import numpy as np
import pytest

from codecbench.cli import main
from codecbench.metrics import (
    PSNR_U,
    PSNR_V,
    PSNR_Y,
    SSIM,
    WPSNR,
    mse,
    psnr_from_mse,
    sequence_quality,
    ssim_frame,
    wpsnr,
)
from codecbench.profiling import (
    StageMapping,
    aggregate_stages,
    load_timing_csv,
    parse_callgrind,
    speedup,
    time_factor,
)
from codecbench.rd import RDCurve, RDPoint, bd_rate, interpolate_log_rate
from codecbench.subjective import (
    ScoreMatrix,
    anova_oneway,
    mos_point,
    screen_subjects,
)
from codecbench.video_io import FrameBuffer, Y4MReader

from conftest import make_info, offset_frame, random_frame, write_y4m
from test_metrics import ssim_brute_force
from test_rd import random_monotone_curve
from test_subjective import f_sf_numeric, two_group_matrix


def offset_pair(rng, bit_depth, delta=1, size=(32, 32)):
    info = make_info(size[0], size[1], bit_depth=bit_depth)
    frame = random_frame(info, rng)
    clipped = tuple(
        np.minimum(p, info.sample_max - delta).astype(p.dtype) for p in frame.planes
    )
    ref = FrameBuffer(info=info, planes=clipped, frame_index=0)
    return ref, offset_frame(ref, delta)


def test_criterion_1_psnr_closed_form(rng):
    start = time.perf_counter()
    ref8, test8 = offset_pair(rng, bit_depth=8)
    got8 = psnr_from_mse(mse(ref8.y, test8.y), 8)
    assert got8 == pytest.approx(48.1308, abs=1e-3)
    assert got8 == pytest.approx(20 * math.log10(255), abs=1e-3)

    ref10, test10 = offset_pair(rng, bit_depth=10)
    got10 = psnr_from_mse(mse(ref10.y, test10.y), 10)
    assert got10 == pytest.approx(20 * math.log10(1023), abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 (PSNR closed form, {elapsed:.3f}s): PASS")


def test_criterion_2_wpsnr(rng):
    assert wpsnr(40.0, 44.0, 44.0) == 41.0
    for x in rng.uniform(0, 120, 100):
        assert wpsnr(x, x, x) == pytest.approx(x, abs=1e-12)
    print("criterion 2 (weighted PSNR): PASS")


def test_criterion_3_ssim(rng):
    info = make_info(48, 48)
    for _ in range(20):
        frame = random_frame(info, rng)
        assert ssim_frame(frame, frame) == pytest.approx(1.0, abs=1e-12)

    small = make_info(32, 32)
    for _ in range(3):
        a = random_frame(small, rng)
        b = random_frame(small, rng)
        assert ssim_frame(a, b) == pytest.approx(
            ssim_brute_force(a.y, b.y, 255), abs=1e-9
        )
    print("criterion 3 (SSIM identity and oracle agreement): PASS")


def test_criterion_4_bd_rate(rng):
    start = time.perf_counter()
    for _ in range(50):
        curve = random_monotone_curve(rng)
        assert abs(bd_rate(curve, curve).delta) < 1e-9
        fitted = interpolate_log_rate(curve, curve.qualities)
        assert np.max(np.abs(fitted - curve.log_rates)) < 1e-9

    base = [(1000.0, 30.0), (2000.0, 35.0), (4000.0, 40.0), (8000.0, 45.0)]
    anchor = RDCurve("", "", "PSNR", [RDPoint(r, q) for r, q in base])
    scaled = RDCurve("", "", "PSNR", [RDPoint(r * 0.8, q) for r, q in base])
    assert bd_rate(anchor, scaled).delta == pytest.approx(-20.0, abs=0.01)

    for _ in range(10):
        curve = random_monotone_curve(rng)
        k = float(rng.uniform(0.4, 2.5))
        other = RDCurve(
            "", "", curve.metric_id,
            [RDPoint(p.bitrate * k, p.quality) for p in curve.points],
        )
        forward = bd_rate(curve, other).delta
        backward = bd_rate(other, curve).delta
        assert (1 + forward / 100) * (1 + backward / 100) == pytest.approx(
            1.0, abs=1e-6
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 4 (BD-rate properties, {elapsed:.3f}s): PASS")


def test_criterion_5_mos_ci():
    matrix = ScoreMatrix(
        subjects=("s0", "s1", "s2", "s3"),
        stimuli=("p0",),
        scores=np.array([[60.0], [70.0], [80.0], [90.0]]),
    )
    point = mos_point(matrix, "p0")
    assert point.mos == 75.0
    assert point.ci95 == pytest.approx(10.9009, abs=1e-4)

    constant = ScoreMatrix(
        subjects=("s0", "s1", "s2"),
        stimuli=("p0",),
        scores=np.array([[70.0], [70.0], [70.0]]),
    )
    assert mos_point(constant, "p0").ci95 == 0.0
    print("criterion 5 (MOS and confidence interval): PASS")


def test_criterion_6_screening():
    base = np.linspace(20, 80, 5)
    rows = [base + i for i in range(9)] + [100 - base]
    panel = ScoreMatrix(
        subjects=tuple(f"s{i}" for i in range(10)),
        stimuli=tuple(f"p{j}" for j in range(5)),
        scores=np.array(rows),
    )
    result, filtered = screen_subjects(panel, threshold=0.75)
    assert result.discarded == ("s9",)
    assert len(filtered.subjects) == 9

    consistent = ScoreMatrix(
        subjects=tuple(f"s{i}" for i in range(10)),
        stimuli=tuple(f"p{j}" for j in range(5)),
        scores=np.array([base + i for i in range(10)]),
    )
    result, _ = screen_subjects(consistent, threshold=0.75)
    assert result.discarded == ()
    print("criterion 6 (outlier screening): PASS")


def test_criterion_7_anova(rng):
    result = anova_oneway(two_group_matrix([10, 12, 14], [20, 22, 24]), "codec")
    assert result.f_stat == pytest.approx(37.5, abs=1e-9)
    assert result.p_value == pytest.approx(0.00364, abs=1e-4)
    assert result.p_value == pytest.approx(
        f_sf_numeric(result.f_stat, result.df_between, result.df_within), abs=1e-10
    )

    equal = anova_oneway(two_group_matrix([1, 2, 3], [1, 2, 3]), "codec")
    assert equal.f_stat == 0.0
    assert equal.p_value == 1.0

    for _ in range(20):
        a = rng.uniform(0, 100, int(rng.integers(3, 9)))
        b = rng.uniform(0, 100, int(rng.integers(3, 9)))
        res = anova_oneway(two_group_matrix(a, b), "codec")
        n1, n2 = len(a), len(b)
        pooled = ((n1 - 1) * np.var(a, ddof=1) + (n2 - 1) * np.var(b, ddof=1)) / (
            n1 + n2 - 2
        )
        t = (a.mean() - b.mean()) / math.sqrt(pooled * (1 / n1 + 1 / n2))
        assert res.f_stat == pytest.approx(t * t, abs=1e-9 * max(1.0, t * t))
    print("criterion 7 (one-way ANOVA): PASS")


def test_criterion_8_callgrind(tmp_path):
    plain = "events: Ir\nfl=main.c\nfn=foo\n10 400\n11 600\nfn=bar\n20 3000\n"
    compressed = (
        "events: Ir\nfl=(1) main.c\nfn=(1) foo\n10 400\n"
        "fn=(2) bar\n11 111\nfn=(1)\n12 600\n"
    )
    multi_file = (
        "events: Ir\nfl=(1) one.c\nfn=(1) shared\n5 100\n"
        "fl=(2) two.c\nfn=(1)\n6 200\nfn=(2) lone\n7 50\n"
    )
    with_calls = (
        "events: Ir\nfl=(1) a.c\nfn=(1) caller\n15 100\n"
        "cfl=(1)\ncfn=(2) callee\ncalls=2 20\n16 800\n17 50\n"
        "fn=(2) callee\n20 400\n21 400\n"
    )
    def tally(text):
        path = tmp_path / "callgrind.out"
        path.write_text(text)
        return parse_callgrind(path)

    assert tally(plain) == {"foo": 1000, "bar": 3000}
    assert tally(compressed) == {"foo": 1000, "bar": 111}
    assert tally(multi_file) == {"shared": 300, "lone": 50}
    assert tally(with_calls) == {"caller": 150, "callee": 800}

    mapping = StageMapping(rules=(("foo", "Alpha"), ("bar", "Beta")))
    [profile] = aggregate_stages([(None, tally(plain))], mapping)
    assert sum(profile.percentages.values()) == pytest.approx(100.0, abs=0.01)

    # A 0.9% stage folds under the default 1% threshold.
    [skewed] = aggregate_stages(
        [(None, tally("events: Ir\nfl=f\nfn=foo\n1 9\nfn=bar\n2 991\n"))], mapping)
    assert "Alpha" not in skewed.percentages
    assert skewed.other_bucket == ("Alpha",)
    assert sum(skewed.percentages.values()) == pytest.approx(100.0, abs=0.01)
    print("criterion 8 (Callgrind parsing and stage buckets): PASS")


def test_criterion_9_time_factors(tmp_path):
    timing = tmp_path / "timing.csv"
    timing.write_text(
        "codec,sequence,qp,wall_seconds,frame_count,fps_num,fps_den\n"
        "HM,uhd_mean,32,123.0,500,50,1\n"
        "VTM,uhd_mean,32,414.0,500,50,1\n"
    )
    records = {r.codec_id: r for r in load_timing_csv(timing)}
    assert time_factor(records["VTM"]) == pytest.approx(41.4, abs=1e-12)
    assert time_factor(records["HM"]) == pytest.approx(12.3, abs=1e-12)
    ratio = speedup(records["VTM"], records["HM"])
    assert ratio == pytest.approx(41.4 / 12.3, abs=1e-12)
    assert ratio == pytest.approx(3.37, abs=0.01)
    print("criterion 9 (decode-time speedup arithmetic): PASS")


def test_criterion_10_y4m_round_trip(tmp_path, rng):
    for bit_depth in (8, 10):
        info = make_info(32, 16, fps=(30000, 1001), bit_depth=bit_depth)
        frames = [random_frame(info, rng, i) for i in range(3)]
        path = tmp_path / f"clip{bit_depth}.y4m"
        write_y4m(path, frames)
        with Y4MReader(path) as reader:
            assert reader.info == info
            got = list(reader)
        assert len(got) == 3
        for a, b in zip(frames, got):
            for pa, pb in zip(a.planes, b.planes):
                assert np.array_equal(pa, pb)

    good = tmp_path / "good.y4m"
    write_y4m(good, [random_frame(make_info(16, 16), rng)])
    malformed = [
        b"JUNK W16 H16 F25:1 C420\n",
        b"YUV4MPEG2 W0 H16 F25:1 C420\n",
        b"YUV4MPEG2 W16 H16 F25:1 C422\n",
        b"YUV4MPEG2 W16 H16 F25:1 It C420\n",
        b"YUV4MPEG2 W16 H16 C420\n",
        b"YUV4MPEG2 W15 H16 F25:1 C420\n",
        b"YUV4MPEG2 W16 H16 F25 C420\n",
    ]
    for i, header in enumerate(malformed):
        bad = tmp_path / f"bad{i}.y4m"
        bad.write_bytes(header)
        rc = main(["metrics", str(bad), str(good), "--quiet"])
        assert rc == 3, f"fixture {i} returned {rc}"
    print("criterion 10 (Y4M round-trip and malformed-header rejection): PASS")


def test_criterion_11_performance_and_determinism(rng):
    info = make_info(1920, 1080)
    ref = [random_frame(info, rng, i) for i in range(10)]
    test = [offset_frame(f, 0) for f in ref[:5]] + [
        random_frame(info, rng, i) for i in range(5, 10)
    ]
    metric_ids = (PSNR_Y, PSNR_U, PSNR_V, WPSNR, SSIM)

    start = time.perf_counter()
    serial = sequence_quality(ref, test, metric_ids, jobs=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"PSNR+SSIM over ten 1080p frames took {elapsed:.2f}s"

    parallel = sequence_quality(ref, test, metric_ids, jobs=4)
    for mid in metric_ids:
        assert serial[mid].frame_values == parallel[mid].frame_values
        assert serial[mid].value == parallel[mid].value
    print(
        f"criterion 11 (ten 1080p frames in {elapsed:.2f}s; "
        "parallel run bit-identical): PASS"
    )


# VTM's rates are HM's times this factor at equal MOS: every BD-rate is -35%.
RATE_FACTOR = 0.65
# Subject offsets around each PVS's planted MOS: symmetric, so the MOS is
# exact, and the same for every PVS, so no subject is screened out.
OFFSETS = (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)


def write_planted_panel(directory, sessions):
    """Scores and PVS metadata of (content, resolution, HM rates, MOS)
    sessions; VTM shows each MOS at the HM rate times RATE_FACTOR."""
    pvs, mos = [], []
    meta = ["pvs,codec,resolution,bitrate_kbps,content"]
    for content, resolution, rates, levels in sessions:
        for codec, factor in (("HM", 1.0), ("VTM", RATE_FACTOR)):
            for rate, level in zip(rates, levels):
                pvs.append(f"{content}-{resolution}-{codec}-{rate}")
                meta.append(f"{pvs[-1]},{codec},{resolution},{rate * factor!r},{content}")
                mos.append(level)
    scores, pvs_meta = directory / "scores.csv", directory / "pvs.csv"
    scores.write_text("subject," + ",".join(pvs) + "\n" + "".join(
        f"s{i}," + ",".join(str(m + o) for m in mos) + "\n" for i, o in enumerate(OFFSETS)))
    pvs_meta.write_text("\n".join(meta) + "\n")
    return scores, pvs_meta


def subjective_bd_rates(directory, sessions, precision):
    """`mos --format csv` on the planted panel, then `bdrate` on that report:
    the mos CSV header and each BD-rate row's (sequence, percent)."""
    scores, meta = write_planted_panel(directory, sessions)
    mos_csv, bd_json = directory / "mos.csv", directory / "bd.json"
    assert main(["mos", str(scores), "--pvs-meta", str(meta), "--format", "csv",
                 *precision, "-o", str(mos_csv), "-q"]) == 0
    assert main(["bdrate", str(mos_csv), "--anchor", "HM", "--test", "VTM",
                 "--full-precision", "-o", str(bd_json), "-q"]) == 0
    results = json.loads(bd_json.read_text())["results"]
    return mos_csv.read_text().splitlines()[0], [
        (row["sequence"], row["bd_rate_percent"])
        for row in results["deltas"] + results["averages"]]


@pytest.mark.parametrize("precision", [[], ["--full-precision"]], ids=["6-digits", "full"])
def test_criterion_12_subjective_bd_rate(tmp_path, precision):
    sessions = [("A", "HD", (1000, 2000, 4000, 8000), (30, 45, 60, 75)),
                ("B", "HD", (1500, 3000, 6000, 12000), (25, 40, 58, 72))]
    header, rates = subjective_bd_rates(tmp_path, sessions, precision)
    assert header == "codec,sequence,metric,label,bitrate_kbps,quality,ci95,n"
    assert [seq for seq, _ in rates] == ["A@HD", "B@HD", "Average"]
    for _, percent in rates:
        assert percent == pytest.approx(-35.0, abs=1e-9)

    # One content at two resolutions gives two curves, not one merged curve.
    (tmp_path / "two").mkdir()
    sessions = [("A", "HD", (1000, 2000, 4000), (30, 50, 70)),
                ("A", "UHD", (3000, 6000, 12000), (35, 55, 80))]
    _, rates = subjective_bd_rates(tmp_path / "two", sessions, precision)
    assert [seq for seq, _ in rates] == ["A@HD", "A@UHD", "Average"]
    for _, percent in rates:
        assert percent == pytest.approx(-35.0, abs=1e-9)
    print(f"criterion 12 (subjective BD-rate through mos then bdrate, "
          f"{' '.join(precision) or '6 digits'}): PASS")


def test_criterion_12_bad_curve_names_its_pvs(tmp_path, capsys):
    # Two HM PVSs of one content shown at one bitrate: the curve `bdrate`
    # refuses names both by the PVS ids the mos report carries as labels.
    scores, meta = write_planted_panel(tmp_path, [("A", "HD", (1000, 2000, 4000),
                                                   (30, 45, 60))])
    meta.write_text(meta.read_text().replace(",HM,HD,2000.0,", ",HM,HD,1000.0,"))
    mos_csv = tmp_path / "mos.csv"
    assert main(["mos", str(scores), "--pvs-meta", str(meta), "--format", "csv",
                 "-o", str(mos_csv), "-q"]) == 0
    capsys.readouterr()
    assert main(["bdrate", str(mos_csv), "--anchor", "HM", "--test", "VTM", "-q"]) == 2
    assert capsys.readouterr().err == (
        "codecbench: error: curve HM/A@HD/MOS: duplicate log10 bitrate between points "
        "'A-HD-HM-1000' and 'A-HD-HM-2000' (1000.0 and 1000.0)\n")
    print("criterion 12 (a bad subjective curve names its PVSs): PASS")
