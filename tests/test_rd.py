import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from codecbench.errors import DataFormatError, InputError
from codecbench.rd import (
    RDCurve,
    RDPoint,
    _Pchip,
    bd_quality,
    bd_rate,
    compare,
    interpolate_log_rate,
    load_rd_csv,
    plot_rows,
)


def curve(points, codec="A", sequence="seq", metric="PSNR"):
    """A curve of (bitrate, quality) or (bitrate, quality, label) points."""
    return RDCurve(codec, sequence, metric, [RDPoint(*point) for point in points])


def random_monotone_curve(rng, n_points=5):
    """Random RD-like curve: increasing rates, increasing quality."""
    rates = np.cumprod(rng.uniform(1.5, 2.5, n_points)) * rng.uniform(200, 2000)
    qualities = np.cumsum(rng.uniform(1.0, 5.0, n_points)) + rng.uniform(25, 35)
    return curve(list(zip(rates, qualities)))


BASE = [(1000, 30), (2000, 35), (4000, 40), (8000, 45)]


class TestValidateCurve:
    def test_axes_built_once_and_read_only(self):
        c = curve(BASE)
        for axis in ("qualities", "log_rates"):
            values = getattr(c, axis)
            assert getattr(c, axis) is values
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        assert c.log_rates.tolist() == np.log10([r for r, _ in BASE]).tolist()

    def test_sorted_and_accepted(self):
        c = curve([(8000, 45), (1000, 30), (4000, 40), (2000, 35)])
        assert [p.bitrate for p in c.points] == [1000, 2000, 4000, 8000]
        assert isinstance(c.points, tuple)

    def test_non_monotone_quality_names_pair(self):
        points = [RDPoint(1000, 30, "a"), RDPoint(2000, 35, "b"), RDPoint(4000, 34, "c"),
                  RDPoint(8000, 40, "d")]
        message = "not strictly increasing .* points 'b' and 'c' \\(35 -> 34\\)"
        with pytest.raises(InputError, match=message):
            RDCurve("A", "seq", "PSNR", points)

    def test_too_few_points(self):
        with pytest.raises(InputError, match="need at least 3 points, got 2"):
            curve([(1000, 30), (2000, 35)])

    def test_duplicate_bitrate(self):
        # Points of one bitrate keep their order in the input.
        message = "duplicate log10 bitrate between points 'P2' and 'P1'"
        with pytest.raises(InputError, match=message):
            curve([(1000, 30, "P2"), (2000, 40, "P3"), (1000, 35, "P1")])

    def test_rates_equal_on_log_scale(self):
        message = "duplicate log10 bitrate between points 'lo' and 'hi'"
        with pytest.raises(InputError, match=message):
            curve([(1e-300, 30, "lo"), (1.0000000000000002e-300, 35, "hi"), (1.0, 40)])

    def test_rates_equal_under_numpy_log10(self):
        # The check reads the log10 axis the fits read. Adjacent floats near
        # 7000 often share a numpy log10 value; a pair that math.log10 tells
        # apart is taken where numpy's log10 has one.
        rate, pairs = 7000.0, []
        for _ in range(5000):
            above = float(np.nextafter(rate, np.inf))
            logs = np.log10([rate, above, 1e4])
            if logs[0] == logs[1]:
                pairs.append((math.log10(rate) == math.log10(above), rate, above))
            rate = above
        _, low, high = min(pairs)
        message = (f"duplicate log10 bitrate between points 'low' and 'high' "
                   f"\\({low} and {high}\\)")
        with pytest.raises(InputError, match=message):
            curve([(high, 35, "high"), (low, 30, "low"), (1e4, 40)])

    @pytest.mark.parametrize(
        "bad", [(4000, float("nan")), (4000, float("inf")), (float("inf"), 50)]
    )
    def test_non_finite_point(self, bad):
        message = "must be (positive and )?finite, got (nan|inf)"
        with pytest.raises(InputError, match=message):
            curve(BASE + [bad])

    def test_non_positive_bitrate(self):
        message = "bitrate must be positive and finite, got 0.0"
        with pytest.raises(InputError, match=message):
            RDPoint(0.0, 30)


class TestBdRate:
    def test_self_delta_zero(self, rng):
        for _ in range(10):
            c = random_monotone_curve(rng)
            assert abs(bd_rate(c, c).delta) < 1e-9

    def test_rate_scale_is_exact_percent(self):
        anchor = curve(BASE)
        test = curve([(r * 0.8, q) for r, q in BASE], codec="B")
        assert bd_rate(anchor, test).delta == pytest.approx(-20.0, abs=1e-9)

    def test_reciprocity_on_scaled_curves(self, rng):
        for _ in range(10):
            anchor = random_monotone_curve(rng)
            k = rng.uniform(0.5, 1.5)
            scaled = curve([(p.bitrate * k, p.quality) for p in anchor.points])
            forward = bd_rate(anchor, scaled).delta
            backward = bd_rate(scaled, anchor).delta
            assert (1 + forward / 100) * (1 + backward / 100) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_rate_unit_invariance(self, rng):
        anchor = random_monotone_curve(rng)
        test = random_monotone_curve(rng)
        in_bps_a = curve([(p.bitrate * 1000, p.quality) for p in anchor.points])
        in_bps_t = curve([(p.bitrate * 1000, p.quality) for p in test.points])
        assert bd_rate(anchor, test).delta == pytest.approx(
            bd_rate(in_bps_a, in_bps_t).delta, abs=1e-9
        )


# Each error path once per delta. bd_rate integrates over quality, so its
# test curve is BASE shifted in quality; bd_quality integrates over
# log-rate, so its test curve is BASE shifted in rate. BASE doubles the
# rate every 5 dB, so both shifts move the curve equally far along the axis.
def shifted(delta_db, bd):
    if bd is bd_rate:
        return curve([(r, q + delta_db) for r, q in BASE])
    return curve([(r * 2 ** (delta_db / 5), q) for r, q in BASE])


BD_AXES = pytest.mark.parametrize(
    "bd,axis", [(bd_rate, "quality"), (bd_quality, "log-rate")],
    ids=["bd_rate", "bd_quality"],
)


class TestBdErrors:
    @BD_AXES
    def test_metric_mismatch(self, bd, axis):
        anchor = curve(BASE, metric="PSNR")
        test = curve(BASE, metric="SSIM")
        message = "metric mismatch: anchor uses 'PSNR', test uses 'SSIM'"
        with pytest.raises(InputError, match=message):
            bd(anchor, test)

    @BD_AXES
    def test_no_overlap(self, bd, axis):
        message = (rf"^curves do not overlap \(gap of [\d.]+\) on the {axis} axis; "
                   rf"BD needs more than [\d.]+, 10% of the narrower span$")
        with pytest.raises(InputError, match=message):
            bd(curve(BASE), shifted(100, bd))

    @BD_AXES
    def test_overlap_too_narrow(self, bd, axis):
        message = (rf"^curves overlap by only [\d.]+ on the {axis} axis; "
                   rf"BD needs more than [\d.]+, 10% of the narrower span$")
        with pytest.raises(InputError, match=message):
            bd(curve(BASE), shifted(14.95, bd))

    # The floor is 10% of the narrower span, 1.5 dB of BASE's 15 dB and
    # 0.09 of its 0.9 decades: an overlap of 1 dB is refused, 1.6 dB is not.
    @BD_AXES
    def test_overlap_floor_is_a_share_of_the_span(self, bd, axis):
        with pytest.raises(InputError, match=f"^curves overlap by only .* {axis} axis"):
            bd(curve(BASE), shifted(14.0, bd))
        assert bd(curve(BASE), shifted(13.4, bd)).overlap

    @BD_AXES
    def test_points_outside_overlap_warn(self, bd, axis):
        test = shifted(3, bd)
        top = test.points[-1]
        result = bd(curve(BASE), test)
        assert len(result.warnings) == 2
        assert result.warnings[0].startswith("anchor point (bitrate=1000, quality=30)")
        assert result.warnings[1].startswith(
            f"test point (bitrate={top.bitrate:g}, quality={top.quality:g})"
        )
        assert all(f"outside the {axis} overlap" in w for w in result.warnings)


INFINITE_SLOPE = [(1.0, 1e-300), (2.0, 1.0000000000000002e-300), (3.0, 1.0)]


class TestBdFloatRange:
    def test_infinite_slope(self):
        anchor = curve([(1.0, -1.0), (2.0, 0.0), (3.0, 1.0)])
        with pytest.raises(InputError, match="cannot be interpolated in float64"):
            bd_rate(anchor, curve(INFINITE_SLOPE))

    def test_interpolate_infinite_slope(self):
        with pytest.raises(InputError, match="cannot be interpolated in float64"):
            interpolate_log_rate(curve(INFINITE_SLOPE), [0.5])

    def test_secant_underflowing_to_zero(self):
        # 5e-324 over 3 decades rounds to a zero secant: a flat step the fit
        # does not take, refused as a float64 fault like an infinite one.
        anchor = curve([(1, 0.0), (1000, 5e-324), (1e6, 1.0)])
        test = curve([(2, 0.0), (1000, 5e-324), (1e6, 1.0)])
        with pytest.raises(InputError, match="cannot be interpolated in float64"):
            bd_quality(anchor, test)

    def test_bd_rate_overflow(self):
        anchor = curve([(1e-290, 0), (1e-280, 1), (1e-270, 2)])
        test = curve([(1e250, 0), (1e260, 1), (1e270, 2)])
        with pytest.raises(InputError, match="BD-rate overflows"):
            bd_rate(anchor, test)


class TestHandBuiltCurve:
    # An RDCurve built by hand is checked at construction, as a loaded one is:
    # unsorted points are sorted, and too few points never reach a fit.
    @pytest.mark.parametrize(
        "points", [[(2000, 35), (1000, 30), (4000, 40)], [(1000, 30), (2000, 35)]],
        ids=["unsorted", "two_points"],
    )
    @pytest.mark.parametrize("call", [
        lambda c: bd_rate(curve(BASE), c),
        lambda c: bd_quality(curve(BASE), c),
        lambda c: interpolate_log_rate(c, [32.0]).tolist(),
    ], ids=["bd_rate", "bd_quality", "interpolate_log_rate"])
    def test_axis_not_increasing(self, points, call):
        def hand_built():
            return RDCurve("B", "seq", "PSNR", tuple(RDPoint(r, q) for r, q in points))

        if len(points) < 3:
            message = "^curve B/seq/PSNR: need at least 3 points, got 2$"
            with pytest.raises(InputError, match=message):
                call(hand_built())
        else:
            assert call(hand_built()) == call(curve(sorted(points), codec="B"))

    @pytest.mark.parametrize("points", [
        [(1000, 30), (2000, 35)],
        [(1000, 30), (1000, 35), (2000, 40)],
        [(2000, 35), (1000, 30), (4000, 34)],
    ], ids=["two_points", "duplicate_bitrate", "non_monotone"])
    def test_same_message_as_load_rd_csv(self, tmp_path, points):
        path = tmp_path / "points.csv"
        path.write_text("codec,sequence,metric,label,bitrate_kbps,quality\n" + "".join(
            f"B,seq,PSNR,,{r},{q}\n" for r, q in points
        ))
        with pytest.raises(InputError) as loaded:
            load_rd_csv(path)
        with pytest.raises(InputError) as built:
            curve([(float(r), float(q)) for r, q in points], codec="B")
        assert str(built.value) == str(loaded.value)


@st.composite
def valid_curves(draw):
    """3 to 8 points of distinct integer bitrate (so distinct log10 bitrate),
    quality increasing with rate."""
    n = draw(st.integers(3, 8))
    rates = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True))
    steps = draw(st.lists(st.floats(0.01, 10), min_size=n, max_size=n))
    return list(zip(sorted(rates), np.cumsum(steps).tolist()))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(valid_curves().flatmap(lambda pts: st.tuples(st.just(pts), st.permutations(pts))))
def test_every_permutation_builds_an_equal_curve(pair):
    points, shuffled = pair
    assert curve(shuffled) == curve(points)
    assert curve(shuffled).points == tuple(RDPoint(r, q) for r, q in points)


@st.composite
def overlapping_pairs(draw):
    """Anchor and test points, the test curve the anchor scaled in rate and
    shifted in quality by at most 0.45 of its span."""
    steps = draw(st.integers(2, 5))
    ratios = draw(st.lists(st.floats(1.3, 3.0), min_size=steps, max_size=steps))
    rises = draw(st.lists(st.floats(0.01, 5.0), min_size=steps, max_size=steps))
    rates = np.cumprod([draw(st.floats(10, 1e4)), *ratios])
    qualities = np.cumsum([draw(st.floats(-50, 50)), *rises])
    scale = (rates[-1] / rates[0]) ** draw(st.floats(-0.45, 0.45))
    shift = draw(st.floats(-0.45, 0.45)) * (qualities[-1] - qualities[0])
    return (list(zip(rates.tolist(), qualities.tolist())),
            list(zip((rates * scale).tolist(), (qualities + shift).tolist())))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(overlapping_pairs())
def test_deltas_scale_with_quality_units(pair):
    # Scaling quality by a power of two is exact through the fit and the
    # integral: BD-rate stays bit-identical and BD-quality scales with it,
    # SSIM-sized curves on [0, 1] included.
    def scaled(points, k):
        return curve([(r, q * 2.0 ** k) for r, q in points])

    base_rate = bd_rate(scaled(pair[0], 0), scaled(pair[1], 0)).delta
    base_quality = bd_quality(scaled(pair[0], 0), scaled(pair[1], 0)).delta
    for k in range(-10, 11):
        anchor, test = scaled(pair[0], k), scaled(pair[1], k)
        assert bd_rate(anchor, test).delta == base_rate
        assert bd_quality(anchor, test).delta == base_quality * 2.0 ** k


class TestBdQuality:
    def test_self_delta_zero(self, rng):
        c = random_monotone_curve(rng)
        assert abs(bd_quality(c, c).delta) < 1e-9

    def test_uniform_offset(self):
        anchor = curve(BASE)
        test = curve([(r, q + 1.0) for r, q in BASE])
        assert bd_quality(anchor, test).delta == pytest.approx(1.0, abs=1e-6)

    def test_synthetic_two_db(self):
        anchor = curve([(1000, 30), (2000, 35), (4000, 40), (8000, 45)])
        test = curve([(1000, 32), (2000, 37), (4000, 42), (8000, 47)])
        assert bd_quality(anchor, test).delta == pytest.approx(2.0, abs=1e-6)


class TestInterpolant:
    def test_passes_through_points(self, rng):
        for _ in range(10):
            c = random_monotone_curve(rng)
            fitted = interpolate_log_rate(c, c.qualities)
            assert np.max(np.abs(fitted - c.log_rates)) < 1e-9

    def test_monotone_on_dense_grid(self, rng):
        for _ in range(10):
            c = random_monotone_curve(rng)
            dense = np.linspace(c.qualities.min(), c.qualities.max(), 1000)
            values = interpolate_log_rate(c, dense)
            assert np.all(np.diff(values) >= -1e-12)

    def test_closed_form_integral_matches_quadrature(self, rng):
        # rd's closed-form integral vs numeric quadrature of rd's own fit.
        for _ in range(5):
            c = random_monotone_curve(rng)
            fit = c.rate_fit
            lo, hi = float(c.qualities.min()), float(c.qualities.max())
            closed = float(fit.integral(lo, hi))
            numeric, err = quad(fit, lo, hi, limit=200)
            assert closed == pytest.approx(numeric, abs=max(1e-9, 10 * err))


@st.composite
def pchip_curves(draw):
    """3 to 8 knots: x strictly increasing, with gaps up to 1e4 apart in
    size, and y strictly increasing, as on both axes of an RDCurve. The
    smallest secant, 1e-6 / 1e5, is far from underflowing to 0."""
    steps = draw(st.integers(2, 7))
    unit = draw(st.floats(1e-3, 10))
    gaps = draw(st.lists(st.floats(1, 1e4), min_size=steps, max_size=steps))
    rises = draw(st.lists(st.floats(1e-6, 10), min_size=steps, max_size=steps))
    x = np.cumsum([draw(st.floats(-100, 100)), *(unit * g for g in gaps)])
    y = np.cumsum([draw(st.floats(-100, 100)), *rises])
    return x, y


# The fit reproduces scipy's arithmetic; this bounds any drift, relative to
# the curve's largest |y| (and for integrals, times the width of the range).
PCHIP_BOUND = 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pchip_curves(), st.lists(st.floats(0, 1), min_size=2, max_size=2))
def test_pchip_matches_scipy(curve, ends):
    x, y = curve
    fit, oracle = _Pchip(x, y), PchipInterpolator(x, y)
    scale = max(1.0, float(np.abs(y).max()))
    span = x[-1] - x[0]
    # The grid reaches a tenth of the span past each end: the end cubics extend.
    grid = np.linspace(x[0] - span / 10, x[-1] + span / 10, 400)
    assert np.abs(fit(grid) - oracle(grid)).max() <= PCHIP_BOUND * scale
    assert np.abs(fit(x) - y).max() <= PCHIP_BOUND * scale
    lo, hi = sorted(x[0] + span * np.array(ends))
    assert abs(fit.integral(lo, hi) - oracle.integrate(lo, hi)) <= (
        PCHIP_BOUND * scale * max(span, 1.0)
    )


class TestLoadCsv:
    def test_grouping(self, tmp_path):
        path = tmp_path / "points.csv"
        rows = ["codec,sequence,metric,label,bitrate_kbps,quality"]
        for r, q in BASE:
            rows.append(f"HM,s1,PSNR,qp32,{r},{q}")
            rows.append(f"VTM,s1,PSNR,qp32,{r * 0.8},{q}")
        path.write_text("\n".join(rows) + "\n")
        curves = load_rd_csv(path)
        assert len(curves) == 2
        assert {c.codec_id for c in curves} == {"HM", "VTM"}
        assert all(len(c.points) == 4 for c in curves)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("codec,sequence,metric,bitrate_kbps,quality\nA,s,m,1,2\n")
        with pytest.raises(DataFormatError, match="label"):
            load_rd_csv(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text(
            "codec,sequence,metric,label,bitrate_kbps,quality\nA,s,m,x,fast,30\n"
        )
        with pytest.raises(DataFormatError, match="2"):
            load_rd_csv(path)

    @pytest.mark.parametrize("as_source", [Path, os.fsencode], ids=["path", "bytes"])
    def test_rejected_point_names_file_and_line(self, tmp_path, as_source):
        path = tmp_path / "pts.csv"
        path.write_text("codec,sequence,metric,label,bitrate_kbps,quality\nA,s,m,,-5,30\n")
        with pytest.raises(DataFormatError) as exc:
            load_rd_csv(as_source(path))
        assert str(exc.value) == f"{path}:2: bitrate must be positive and finite, got -5.0"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, cell):
        path = tmp_path / "points.csv"
        path.write_text(
            "codec,sequence,metric,label,bitrate_kbps,quality\n"
            f"A,s,m,,1000,30\nA,s,m,,2000,{cell}\nA,s,m,,4000,40\n"
        )
        with pytest.raises(DataFormatError, match=":3: .*finite"):
            load_rd_csv(path)

    def test_short_curve_rejected(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text(
            "codec,sequence,metric,label,bitrate_kbps,quality\n"
            "A,s,m,,1000,30\nA,s,m,,2000,35\n"
        )
        message = "curve A/s/m: need at least 3 points, got 2"
        with pytest.raises(InputError, match=message):
            load_rd_csv(path)

    def test_curve_fault_names_points_by_label(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text(
            "codec,sequence,metric,label,bitrate_kbps,quality\n"
            "A,s,m,qp37,1000,30\nA,s,m,qp27,4000,34\nA,s,m,qp32,2000,35\n"
        )
        message = ("curve A/s/m: quality not strictly increasing with bitrate between "
                   "points 'qp32' and 'qp27' (35.0 -> 34.0); inspect the data")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_rd_csv(path)


# Planted panel: the test curve of each (sequence, metric) is its anchor's
# rates times a factor, so its BD-rate is (factor - 1) * 100 up to rounding.
PANEL_FACTORS = {("s2", "SSIM"): 0.7, ("s1", "PSNR"): 0.9, ("s3", "PSNR"): 0.65,
                 ("s1", "SSIM"): 0.8, ("s2", "PSNR"): 0.75, ("s3", "SSIM"): 1.1}


def panel(codec, keys, factor=lambda key: 1.0):
    return [curve([(r * factor(key), q) for r, q in BASE], codec, *key) for key in keys]


def planted_panel():
    """Anchor curves in PANEL_FACTORS order, a third codec's curves, then
    the test curves in the reverse order."""
    keys = list(PANEL_FACTORS)
    return (panel("HM", keys) + panel("AV1", keys, lambda key: 0.5)
            + panel("VTM", keys[::-1], PANEL_FACTORS.get))


class TestCompare:
    def test_planted_factors_and_averages(self):
        pairs, averages = compare(planted_panel(), "HM", "VTM")
        assert [(seq, met) for seq, met, _, _ in pairs] == list(PANEL_FACTORS)
        for seq, met, r, q in pairs:
            assert r.delta == pytest.approx(
                (PANEL_FACTORS[seq, met] - 1) * 100, abs=1e-9)
        assert list(averages) == ["PSNR", "SSIM"]
        for metric, (rate, quality) in averages.items():
            mine = [(r.delta, q.delta)
                    for _, met, r, q in pairs if met == metric]
            assert rate == sum(r for r, _ in mine) / len(mine)
            assert quality == sum(q for _, q in mine) / len(mine)
        assert averages["PSNR"][0] == pytest.approx(-(10 + 35 + 25) / 3, abs=1e-9)

    def test_pairs_follow_the_anchor_curves(self):
        # Swapping the roles walks the other codec's file order.
        pairs, _ = compare(planted_panel(), "VTM", "HM")
        assert [(seq, met) for seq, met, _, _ in pairs] == list(PANEL_FACTORS)[::-1]
        for seq, met, r, _ in pairs:
            assert r.delta == pytest.approx(
                (1 / PANEL_FACTORS[seq, met] - 1) * 100, abs=1e-9)

    @pytest.mark.parametrize(("anchor", "test", "message"), [
        ("HM", "HM", "--anchor and --test name the same codec 'HM'"),
        ("HM", "JM", "no curves for test codec 'JM' (codecs in file: HM, AV1, VTM)"),
        ("JM", "HM", "no curves for anchor codec 'JM' (codecs in file: HM, AV1, VTM)"),
    ])
    def test_codec_messages(self, anchor, test, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            compare(planted_panel(), anchor, test)

    def test_repeated_curve(self):
        # Two curves of one (codec, sequence, metric) would make the result
        # depend on their order.
        a, b = curve(BASE), curve(BASE, codec="B")
        again = curve([(r * 0.5, q) for r, q in BASE])
        for curves in ([a, again, b], [again, a, b]):
            with pytest.raises(InputError, match="^repeated curve A/seq/PSNR$"):
                compare(curves, "A", "B")

    def test_no_curves_at_all(self):
        message = "no curves for anchor codec 'HM' (codecs in file: none)"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            compare([], "HM", "VTM")

    def test_orphans_named_in_sorted_order(self):
        curves = [c for c in planted_panel()
                  if not (c.codec_id == "VTM" and c.sequence_id == "s3")
                  and not (c.codec_id == "HM" and c.sequence_id == "s1"
                           and c.metric_id == "SSIM")]
        message = "curves without a counterpart: s1/SSIM, s3/PSNR, s3/SSIM"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            compare(curves, "HM", "VTM")


class TestPlotRows:
    def test_points_then_samples_per_curve(self):
        a, b = curve(BASE), curve([(r * 0.8, q) for r, q in BASE], codec="B")
        rows = plot_rows([a, b])
        assert len(rows) == 2 * (len(BASE) + 100)
        first = rows[: len(BASE) + 100]
        assert [row[:3] for row in first] == [["A", "seq", "PSNR"]] * (len(BASE) + 100)
        assert [row[3:] for row in first[: len(BASE)]] == [
            [q, float(np.log10(r)), 0] for r, q in BASE]
        dense = first[len(BASE):]
        assert [row[5] for row in dense] == [1] * 100
        assert (dense[0][3], dense[-1][3]) == (30.0, 45.0)
        assert dense[-1][4] == pytest.approx(np.log10(8000), abs=1e-12)
        assert rows[len(BASE) + 100][0] == "B"
