import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from codecbench.errors import CurveError, DataFormatError
from codecbench.rd import (
    RDCurve,
    RDPoint,
    _Pchip,
    bd_quality,
    bd_rate,
    interpolate_log_rate,
    load_rd_csv,
    validate_curve,
)


def curve(points, codec="A", sequence="seq", metric="PSNR"):
    return validate_curve(
        [RDPoint(r, q) for r, q in points],
        codec_id=codec,
        sequence_id=sequence,
        metric_id=metric,
    )


def random_monotone_curve(rng, n_points=5):
    """Random RD-like curve: increasing rates, increasing quality."""
    rates = np.cumprod(rng.uniform(1.5, 2.5, n_points)) * rng.uniform(200, 2000)
    qualities = np.cumsum(rng.uniform(1.0, 5.0, n_points)) + rng.uniform(25, 35)
    return curve(list(zip(rates, qualities)))


BASE = [(1000, 30), (2000, 35), (4000, 40), (8000, 45)]


class TestValidateCurve:
    def test_axes_built_once_and_read_only(self):
        c = curve(BASE)
        for axis in ("bitrates", "qualities", "log_rates"):
            values = getattr(c, axis)
            assert getattr(c, axis) is values
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        assert c.log_rates.tolist() == np.log10([r for r, _ in BASE]).tolist()

    def test_sorted_and_accepted(self):
        c = curve([(8000, 45), (1000, 30), (4000, 40), (2000, 35)])
        assert [p.bitrate for p in c.points] == [1000, 2000, 4000, 8000]

    def test_non_monotone_quality_names_pair(self):
        points = [RDPoint(1000, 30), RDPoint(2000, 35), RDPoint(4000, 34),
                  RDPoint(8000, 40)]
        with pytest.raises(CurveError, match=r"points 1 and 2"):
            validate_curve(points)

    def test_too_few_points(self):
        with pytest.raises(CurveError, match="3 points"):
            curve([(1000, 30), (2000, 35)])

    def test_duplicate_bitrate(self):
        with pytest.raises(CurveError, match="duplicate"):
            curve([(1000, 30), (1000, 35), (2000, 40)])

    def test_rates_equal_on_log_scale(self):
        with pytest.raises(CurveError, match="duplicate log10 bitrate between points 0"):
            curve([(1e-300, 30), (1.0000000000000002e-300, 35), (1.0, 40)])

    @pytest.mark.parametrize(
        "bad", [(4000, float("nan")), (4000, float("inf")), (float("inf"), 50)]
    )
    def test_non_finite_point(self, bad):
        with pytest.raises(CurveError, match="finite"):
            curve(BASE + [bad])

    def test_non_positive_bitrate(self):
        with pytest.raises(CurveError):
            RDPoint(0.0, 30)


class TestBdRate:
    def test_self_delta_zero(self, rng):
        for _ in range(10):
            c = random_monotone_curve(rng)
            assert abs(bd_rate(c, c).bd_rate_percent) < 1e-9

    def test_rate_scale_is_exact_percent(self):
        anchor = curve(BASE)
        test = curve([(r * 0.8, q) for r, q in BASE], codec="B")
        assert bd_rate(anchor, test).bd_rate_percent == pytest.approx(-20.0, abs=1e-9)

    def test_reciprocity_on_scaled_curves(self, rng):
        for _ in range(10):
            anchor = random_monotone_curve(rng)
            k = rng.uniform(0.5, 1.5)
            scaled = curve([(p.bitrate * k, p.quality) for p in anchor.points])
            forward = bd_rate(anchor, scaled).bd_rate_percent
            backward = bd_rate(scaled, anchor).bd_rate_percent
            assert (1 + forward / 100) * (1 + backward / 100) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_rate_unit_invariance(self, rng):
        anchor = random_monotone_curve(rng)
        test = random_monotone_curve(rng)
        in_bps_a = curve([(p.bitrate * 1000, p.quality) for p in anchor.points])
        in_bps_t = curve([(p.bitrate * 1000, p.quality) for p in test.points])
        assert bd_rate(anchor, test).bd_rate_percent == pytest.approx(
            bd_rate(in_bps_a, in_bps_t).bd_rate_percent, abs=1e-9
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
        with pytest.raises(CurveError, match="metric"):
            bd(anchor, test)

    @BD_AXES
    def test_no_overlap(self, bd, axis):
        with pytest.raises(CurveError, match="do not overlap"):
            bd(curve(BASE), shifted(100, bd))

    @BD_AXES
    def test_overlap_too_narrow(self, bd, axis):
        with pytest.raises(CurveError, match="below the minimum"):
            bd(curve(BASE), shifted(14.95, bd))

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
        with pytest.raises(CurveError, match="cannot be interpolated in float64"):
            bd_rate(anchor, curve(INFINITE_SLOPE))

    def test_interpolate_infinite_slope(self):
        with pytest.raises(CurveError, match="cannot be interpolated in float64"):
            interpolate_log_rate(curve(INFINITE_SLOPE), [0.5])

    def test_bd_rate_overflow(self):
        anchor = curve([(1e-290, 0), (1e-280, 1), (1e-270, 2)])
        test = curve([(1e250, 0), (1e260, 1), (1e270, 2)])
        with pytest.raises(CurveError, match="BD-rate overflows"):
            bd_rate(anchor, test)


class TestHandBuiltCurve:
    # An RDCurve built without validate_curve: the fit checks its own axis.
    @pytest.mark.parametrize(
        "points", [[(2000, 35), (1000, 30), (4000, 40)], [(1000, 30), (2000, 35)]],
        ids=["unsorted", "two_points"],
    )
    @pytest.mark.parametrize("call", [
        lambda c: bd_rate(curve(BASE), c),
        lambda c: bd_quality(curve(BASE), c),
        lambda c: interpolate_log_rate(c, [32.0]),
    ], ids=["bd_rate", "bd_quality", "interpolate_log_rate"])
    def test_axis_not_increasing(self, points, call):
        hand_built = RDCurve("B", "seq", "PSNR", tuple(RDPoint(r, q) for r, q in points))
        with pytest.raises(CurveError, match="axis must strictly increase"):
            call(hand_built)


class TestBdQuality:
    def test_self_delta_zero(self, rng):
        c = random_monotone_curve(rng)
        assert abs(bd_quality(c, c).bd_quality) < 1e-9

    def test_uniform_offset(self):
        anchor = curve(BASE)
        test = curve([(r, q + 1.0) for r, q in BASE])
        assert bd_quality(anchor, test).bd_quality == pytest.approx(1.0, abs=1e-6)

    def test_synthetic_two_db(self):
        anchor = curve([(1000, 30), (2000, 35), (4000, 40), (8000, 45)])
        test = curve([(1000, 32), (2000, 37), (4000, 42), (8000, 47)])
        assert bd_quality(anchor, test).bd_quality == pytest.approx(2.0, abs=1e-6)


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
            fit = _Pchip(c.qualities, c.log_rates)
            lo, hi = float(c.qualities.min()), float(c.qualities.max())
            closed = float(fit.integral(lo, hi))
            numeric, err = quad(fit, lo, hi, limit=200)
            assert closed == pytest.approx(numeric, abs=max(1e-9, 10 * err))


@st.composite
def pchip_curves(draw):
    """3 to 8 knots: x strictly increasing, with gaps up to 1e4 apart in
    size, and y steps of either sign or zero, so every branch of the slope
    rule runs."""
    steps = draw(st.integers(2, 7))
    unit = draw(st.floats(1e-3, 10))
    gaps = draw(st.lists(st.floats(1, 1e4), min_size=steps, max_size=steps))
    rises = draw(st.lists(st.one_of(st.just(0.0), st.floats(-10, 10)),
                          min_size=steps, max_size=steps))
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
        with pytest.raises(CurveError):
            load_rd_csv(path)
