import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d

from codecbench import metrics, report
from codecbench.errors import DataFormatError, InputError
from codecbench.metrics import (
    COMPUTABLE_METRICS,
    PSNR_U,
    PSNR_V,
    PSNR_Y,
    SSIM,
    WPSNR,
    ingest_external_scores,
    mse,
    psnr_from_mse,
    sequence_quality,
    ssim_frame,
    wpsnr,
)
from codecbench.video_io import CHROMA_444, FrameBuffer

from conftest import make_frame, make_info, offset_frame, random_frame


class TestMse:
    def test_identity(self, rng):
        plane = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        assert mse(plane, plane) == 0.0

    def test_uniform_unit_offset(self, rng):
        plane = rng.integers(0, 255, (16, 16)).astype(np.uint8)
        assert mse(plane, plane + 1) == 1.0

    def test_hand_oracle(self):
        assert mse([0, 0, 0, 0], [2, 0, 0, 0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InputError, match=r"plane shapes differ: \(3,\) vs \(2,\)"):
            mse([1, 2, 3], [1, 2])

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.integers(0, 1024, 50)
            b = rng.integers(0, 1024, 50)
            assert mse(a, b) == mse(b, a)

    @pytest.mark.parametrize("dtype, high", [(np.uint8, 256), (np.uint16, 1024)])
    def test_bitwise_equal_to_two_cast_form(self, rng, dtype, high):
        a = rng.integers(0, high, (135, 241)).astype(dtype)
        b = rng.integers(0, high, (135, 241)).astype(dtype)
        expected = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
        assert mse(a, b) == expected

    def test_extremes_exact_at_2160p(self):
        # Every strip's sum is at its largest: 1023**2 per sample.
        black = np.zeros((2160, 3840), np.uint16)
        white = np.full((2160, 3840), 1023, np.uint16)
        assert mse(black, white) == 1023.0**2
        assert mse(white, black) == 1023.0**2

    @pytest.mark.parametrize("shape", [(1000,), (130, 3, 7)], ids=["1d", "3d"])
    def test_any_shape_exact(self, rng, shape):
        a = rng.integers(0, 1024, shape)
        b = rng.integers(0, 1024, shape)
        exact = sum((int(x) - int(y)) ** 2 for x, y in zip(a.flat, b.flat))
        assert mse(a, b) == exact / a.size

    def test_non_integer_samples_rejected(self):
        with pytest.raises(InputError, match="integers"):
            mse([0.5, 1.0], [0.0, 1.0])

    def test_empty_planes_rejected(self):
        empty = np.zeros((0, 4), np.uint8)
        with pytest.raises(InputError, match="^empty plane$"):
            mse(empty, empty)


class TestPsnr:
    def test_zero_mse_is_infinite(self):
        assert math.isinf(psnr_from_mse(0.0, 8))

    def test_eight_bit_closed_form(self):
        assert psnr_from_mse(1.0, 8) == pytest.approx(20 * math.log10(255), abs=1e-10)
        assert psnr_from_mse(1.0, 8) == pytest.approx(48.1308, abs=1e-4)

    def test_ten_bit_closed_form(self):
        # 20*log10(1023) = 60.19751...
        assert psnr_from_mse(1.0, 10) == pytest.approx(20 * math.log10(1023), abs=1e-10)

    def test_monotone_in_mse(self, rng):
        values = np.sort(rng.uniform(1e-6, 1e4, 30))
        psnrs = [psnr_from_mse(v, 8) for v in values]
        assert all(a > b for a, b in zip(psnrs, psnrs[1:]))

    def test_negative_mse_rejected(self):
        with pytest.raises(InputError):
            psnr_from_mse(-1.0, 8)

    def test_bad_depth_rejected(self):
        with pytest.raises(InputError):
            psnr_from_mse(1.0, 12)


class TestWpsnr:
    def test_weighting(self):
        assert wpsnr(40.0, 44.0, 44.0) == 41.0

    def test_identity_for_equal_inputs(self, rng):
        for x in rng.uniform(0, 100, 100):
            assert wpsnr(x, x, x) == pytest.approx(x, abs=1e-12)

    def test_hand_value(self):
        assert wpsnr(48.1308, 48.1308, 60.1956) == pytest.approx(49.6389, abs=1e-3)

    @pytest.mark.parametrize("x", [sys.float_info.max, -sys.float_info.max])
    def test_finite_at_the_float64_limit(self, x):
        # 6 * Y overflows, but the weighted mean of finite planes is finite.
        assert wpsnr(x, x, x) == x
        assert wpsnr(math.inf, x, x) == math.inf

    def test_chroma_permutation_invariant(self, rng):
        y = rng.uniform(20, 60)
        u = y + 5.0
        v = rng.uniform(20, 60)
        assert wpsnr(y, u, v) == pytest.approx(wpsnr(y, v, u), abs=1e-9)
        # swapping luma with a chroma input shifts the result by 5(y-u)/8
        assert abs(wpsnr(y, u, v) - wpsnr(u, y, v)) > 1.0


def ssim_brute_force(ref, test, sample_max, size=11, sigma=1.5, k1=0.01, k2=0.03):
    """Windowed evaluation with explicit loops; the independent oracle."""
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2
    g = np.exp(-(ax * ax) / (2 * sigma * sigma))
    g /= g.sum()
    w = np.outer(g, g)
    c1 = (k1 * sample_max) ** 2
    c2 = (k2 * sample_max) ** 2
    r = np.asarray(ref, dtype=np.float64)
    e = np.asarray(test, dtype=np.float64)
    values = []
    for i in range(r.shape[0] - size + 1):
        for j in range(r.shape[1] - size + 1):
            wr = r[i : i + size, j : j + size]
            we = e[i : i + size, j : j + size]
            mu_r = float((w * wr).sum())
            mu_e = float((w * we).sum())
            var_r = float((w * wr * wr).sum()) - mu_r * mu_r
            var_e = float((w * we * we).sum()) - mu_e * mu_e
            cov = float((w * wr * we).sum()) - mu_r * mu_e
            values.append(
                ((2 * mu_r * mu_e + c1) * (2 * cov + c2))
                / ((mu_r**2 + mu_e**2 + c1) * (var_r + var_e + c2))
            )
    return float(np.mean(values))


def ssim_untiled_five_maps(ref, test):
    """Whole-plane SSIM from five windowed maps, the formula before strips."""
    size = 11
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2
    g = np.exp(-(ax * ax) / (2 * 1.5 * 1.5))
    g /= g.sum()

    def windowed_mean(values):
        r = size // 2
        rows = correlate1d(values, g, axis=1, mode="constant")[:, r:-r]
        return correlate1d(rows, g, axis=0, mode="constant")[r:-r, :]

    c1 = (0.01 * ref.info.sample_max) ** 2
    c2 = (0.03 * ref.info.sample_max) ** 2
    r = ref.y.astype(np.float64)
    e = test.y.astype(np.float64)
    mu_r = windowed_mean(r)
    mu_e = windowed_mean(e)
    var_r = windowed_mean(r * r) - mu_r * mu_r
    var_e = windowed_mean(e * e) - mu_e * mu_e
    cov = windowed_mean(r * e) - mu_r * mu_e
    ssim_map = ((2.0 * mu_r * mu_e + c1) * (2.0 * cov + c2)) / (
        (mu_r * mu_r + mu_e * mu_e + c1) * (var_r + var_e + c2)
    )
    return float(ssim_map.mean())


def noisy_copy(frame, rng, amplitude):
    """The frame with uniform luma noise in [-amplitude, amplitude], clipped."""
    noise = rng.integers(-amplitude, amplitude + 1, frame.y.shape)
    y = np.clip(frame.y.astype(np.int64) + noise, 0, frame.info.sample_max)
    planes = (y.astype(frame.info.dtype),) + frame.planes[1:]
    return FrameBuffer(info=frame.info, planes=planes, frame_index=frame.frame_index)


SEAM_HEIGHTS = (11, 12) + tuple(
    strips * metrics._SSIM_STRIP + 10 + offset
    for strips in (1, 2)
    for offset in (-1, 0, 1)
)

SEAM_WIDTHS = tuple(range(11, 21)) + tuple(
    tiles * metrics._SSIM_TILE + 10 + offset
    for tiles in (1, 2, 4)
    for offset in (-1, 0, 1, 2)
)


class TestSsim:
    def test_identity(self, rng):
        info = make_info(32, 32)
        frame = random_frame(info, rng)
        assert ssim_frame(frame, frame) == pytest.approx(1.0, abs=1e-12)

    def test_identity_ten_bit(self, rng):
        info = make_info(16, 16, bit_depth=10)
        frame = random_frame(info, rng)
        assert ssim_frame(frame, frame) == pytest.approx(1.0, abs=1e-12)

    def test_constant_extremes_closed_form(self):
        info = make_info(32, 32)
        black = make_frame(info, np.zeros((32, 32)))
        white = make_frame(info, np.full((32, 32), 255))
        c1 = (0.01 * 255) ** 2
        expected = c1 / (255**2 + c1)
        assert ssim_frame(black, white) == pytest.approx(expected, abs=1e-5)

    def test_against_brute_force_oracle(self, rng):
        info = make_info(32, 32)
        for _ in range(3):
            a = random_frame(info, rng)
            b = random_frame(info, rng)
            fast = ssim_frame(a, b)
            slow = ssim_brute_force(a.y, b.y, 255)
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_symmetric(self, rng):
        info = make_info(24, 24)
        a = random_frame(info, rng)
        b = random_frame(info, rng)
        assert ssim_frame(a, b) == pytest.approx(ssim_frame(b, a), abs=1e-12)

    def test_geometry_mismatch(self, rng):
        a = random_frame(make_info(32, 32), rng)
        b = random_frame(make_info(16, 16), rng)
        message = "geometry mismatch: reference 32x32 vs test 16x16"
        with pytest.raises(InputError, match=message):
            ssim_frame(a, b)

    def test_frame_smaller_than_window(self, rng):
        info = make_info(8, 8)
        frame = random_frame(info, rng)
        with pytest.raises(InputError):
            ssim_frame(frame, frame)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        # 11 and 12 give one and two output rows; the others put the last
        # row just before, on, or just after the first and second strip
        # boundaries. The widths do the same for columns and tile seams.
        height=st.sampled_from(SEAM_HEIGHTS),
        width=st.sampled_from(SEAM_WIDTHS),
        bit_depth=st.sampled_from((8, 10)),
        amplitude=st.sampled_from((1, 16, 1023)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_strip_seams_against_brute_force(
        self, height, width, bit_depth, amplitude, seed
    ):
        rng = np.random.default_rng(seed)
        info = make_info(width, height, bit_depth=bit_depth, chroma=CHROMA_444)
        a = random_frame(info, rng)
        b = noisy_copy(a, rng, amplitude)
        slow = ssim_brute_force(a.y, b.y, info.sample_max)
        assert ssim_frame(a, b) == pytest.approx(slow, abs=1e-9)

    @pytest.mark.parametrize("bit_depth", [8, 10])
    def test_identity_is_exactly_one(self, rng, bit_depth):
        info = make_info(48, 80, bit_depth=bit_depth)
        constant = make_frame(info, np.full((80, 48), info.sample_max // 3))
        assert ssim_frame(constant, constant) == 1.0
        frame = random_frame(info, rng)
        assert ssim_frame(frame, frame) == 1.0

    @pytest.mark.parametrize("bit_depth", [8, 10])
    def test_within_1e_12_of_untiled_formula_at_1080p(self, rng, bit_depth):
        info = make_info(1920, 1080, bit_depth=bit_depth)
        a = random_frame(info, rng)
        b = noisy_copy(a, rng, 4 << (bit_depth - 8))
        assert abs(ssim_frame(a, b) - ssim_untiled_five_maps(a, b)) <= 1e-12

    @pytest.mark.parametrize("bit_depth", [8, 10])
    @pytest.mark.parametrize("width", [2 * metrics._SSIM_TILE + 10 + 1, 20])
    def test_strided_planes_equal_contiguous(self, rng, bit_depth, width):
        # The planes are crops of wider arrays, as a caller's views may be;
        # ssim_frame copies them into part of each padded input row.
        height = 2 * metrics._SSIM_STRIP + 10 + 1
        info = make_info(width, height, bit_depth=bit_depth, chroma=CHROMA_444)
        a = random_frame(info, rng)
        b = noisy_copy(a, rng, 16)

        def cropped(frame):
            planes = []
            for plane in frame.planes:
                rows, cols = plane.shape
                big = rng.integers(0, info.sample_max + 1, (rows, cols + 7))
                big = big.astype(info.dtype)
                big[:, 3 : 3 + cols] = plane
                planes.append(big[:, 3 : 3 + cols])
            return FrameBuffer(info=info, planes=tuple(planes), frame_index=0)

        sa, sb = cropped(a), cropped(b)
        assert not sa.y.flags.c_contiguous
        assert ssim_frame(sa, sb) == ssim_frame(a, b)
        for p, q, sp, sq in zip(a.planes, b.planes, sa.planes, sb.planes):
            assert mse(sp, sq) == mse(p, q)

    def test_blas_thread_count_leaves_values_unchanged(self):
        src = os.path.dirname(os.path.dirname(metrics.__file__))
        probe = (
            "import numpy as np\n"
            "from codecbench.metrics import ssim_frame\n"
            "from codecbench.video_io import FrameBuffer, SequenceInfo\n"
            "rng = np.random.default_rng(15)\n"
            "out = []\n"
            "for w, h, depth in ((1920, 1080, 8), (3840, 2160, 10)):\n"
            "    info = SequenceInfo(w, h, 50, 1, depth, 'C420')\n"
            "    top = info.sample_max + 1\n"
            "    frames = []\n"
            "    for _ in range(2):\n"
            "        planes = tuple(rng.integers(0, top, s).astype(info.dtype)\n"
            "                       for s in info.plane_shapes)\n"
            "        frames.append(FrameBuffer(info, planes, 0))\n"
            "    out.append(repr(ssim_frame(*frames)))\n"
            "print(*out)\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", probe],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(outputs[0].split()) == 2
        assert outputs[0] == outputs[1]

    def test_peak_memory_on_1080p(self, rng):
        # The strip buffers take ~3.8 MiB; a whole-frame float64 map would
        # add 16 MiB.
        info = make_info(1920, 1080)
        a = random_frame(info, rng)
        b = noisy_copy(a, rng, 4)
        tracemalloc.start()
        try:
            ssim_frame(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20


def exact_psnr(a, b):
    """Per-plane PSNR of one frame pair in closed form (inf when lossless)."""
    depth = a.info.bit_depth
    return [psnr_from_mse(mse(p, q), depth) for p, q in zip(a.planes, b.planes)]


class TestFrameQuality:
    def test_wpsnr_consistency(self, rng):
        info = make_info(32, 32)
        a = random_frame(info, rng)
        b = random_frame(info, rng)
        result = sequence_quality([a], [b])
        psnrs = exact_psnr(a, b)
        assert all(math.isfinite(p) for p in psnrs)
        for mid, p in zip((PSNR_Y, PSNR_U, PSNR_V), psnrs):
            assert result[mid].frame_values == (p,)
        assert result[WPSNR].frame_values == (wpsnr(*psnrs),)
        assert result[SSIM].frame_values == (ssim_frame(a, b),)
        assert result[SSIM].value <= 1.0
        assert not any(sq.clamp_applied for sq in result.values())

    def test_plane_psnr_keeps_infinity(self, rng):
        info = make_info(32, 32)
        a = random_frame(info, rng)
        assert all(math.isinf(p) for p in exact_psnr(a, a))
        result = sequence_quality([a], [a])
        for mid in (PSNR_Y, PSNR_U, PSNR_V, WPSNR):
            assert result[mid].frame_values == (100.0,)
            assert result[mid].clamp_applied
        assert result[SSIM].frame_values[0] == pytest.approx(1.0, abs=1e-12)
        assert not result[SSIM].clamp_applied

    @pytest.mark.parametrize(
        "selection",
        [s for n in range(1, 6) for s in itertools.combinations(COMPUTABLE_METRICS, n)],
    )
    def test_matches_sequence_quality_per_frame(self, rng, selection):
        info = make_info(16, 16)
        ref = [random_frame(info, rng, i) for i in range(3)]
        test = [random_frame(info, rng, 0), random_frame(info, rng, 1),
                offset_frame(ref[2], 0)]
        test[2].planes[1][0, 0] ^= 1  # lossless Y and V, lossy U
        result = sequence_quality(ref, test, selection, clamp_db=90.0)
        for i, (a, b) in enumerate(zip(ref, test)):
            clamp = [p if math.isfinite(p) else 90.0 for p in exact_psnr(a, b)]
            expected = {
                PSNR_Y: clamp[0], PSNR_U: clamp[1], PSNR_V: clamp[2],
                WPSNR: wpsnr(*clamp), SSIM: ssim_frame(a, b),
            }
            for mid in selection:
                assert result[mid].frame_values[i] == expected[mid]
        for mid in selection:
            assert result[mid].clamp_applied == (mid in (PSNR_Y, PSNR_V, WPSNR))

    @pytest.mark.parametrize(
        "selection,mse_calls,ssim_calls",
        [((PSNR_Y,), 1, 0), ((SSIM,), 0, 1), ((PSNR_U, SSIM), 1, 1),
         ((PSNR_Y, WPSNR), 3, 0), (COMPUTABLE_METRICS, 3, 1)],
    )
    def test_kernel_computes_only_the_selection(
        self, rng, monkeypatch, selection, mse_calls, ssim_calls
    ):
        calls = {"mse": 0, "ssim_frame": 0}

        def counted(name):
            original = getattr(metrics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(metrics, name, wrapper)

        counted("mse")
        counted("ssim_frame")
        info = make_info(16, 16)
        frames = [random_frame(info, rng, i) for i in range(2)]
        sequence_quality(frames, frames[::-1], selection)
        assert calls == {"mse": 2 * mse_calls, "ssim_frame": 2 * ssim_calls}


class TestSequenceQuality:
    def test_empty_metric_selection_rejected(self, rng):
        frames = [random_frame(make_info(16, 16), rng)]
        with pytest.raises(InputError, match="^empty metric selection$"):
            sequence_quality(frames, frames, metric_ids=())

    def test_identical_sequences_clamp(self, rng):
        info = make_info(16, 16)
        frames = [random_frame(info, rng, i) for i in range(10)]
        result = sequence_quality(frames, frames, (PSNR_Y,))
        sq = result[PSNR_Y]
        assert sq.frame_values == tuple([100.0] * 10)
        assert sq.value == 100.0
        assert sq.clamp_applied

    def test_value_is_derived_from_the_frame_values(self):
        fields = [f.name for f in dataclasses.fields(metrics.SequenceQuality)]
        assert fields == ["metric_id", "frame_values", "clamp_applied"]
        big = sys.float_info.max
        for values in [(90.0, 92.5, 94.25), (big, big), (0.1,) * 7]:
            sq = metrics.SequenceQuality(metric_id="X", frame_values=values)
            assert sq.value == report.mean(values)
        with pytest.raises(AttributeError):
            sq.value = 1.0

    def test_mean_of_per_frame_values(self, rng):
        info = make_info(16, 16)
        base = [
            make_frame(info, rng.integers(0, 250, (16, 16)), frame_index=i)
            for i in range(2)
        ]
        test = [offset_frame(base[0], 1), offset_frame(base[1], 2)]
        result = sequence_quality(base, test, (PSNR_Y,))
        p1 = psnr_from_mse(1.0, 8)
        p4 = psnr_from_mse(4.0, 8)
        assert result[PSNR_Y].frame_values == pytest.approx((p1, p4), abs=1e-12)
        assert result[PSNR_Y].value == pytest.approx((p1 + p4) / 2, abs=1e-12)
        assert not result[PSNR_Y].clamp_applied

    def test_unit_offset_on_middle_frame_only(self, rng):
        info = make_info(16, 16)
        base = [
            make_frame(info, rng.integers(0, 250, (16, 16)), frame_index=i)
            for i in range(3)
        ]
        test = [base[0], offset_frame(base[1], 1), base[2]]
        result = sequence_quality(base, test, (PSNR_Y,))
        p1 = psnr_from_mse(1.0, 8)
        assert result[PSNR_Y].frame_values == pytest.approx((100.0, p1, 100.0))
        assert result[PSNR_Y].value == pytest.approx((200.0 + p1) / 3)
        assert result[PSNR_Y].clamp_applied

    def test_frame_count_mismatch(self, rng):
        info = make_info(16, 16)
        frames = [random_frame(info, rng, i) for i in range(3)]
        # The message names the sequence that ran out.
        for short, pair in (("test", (frames, frames[:2])),
                            ("reference", (frames[:2], frames))):
            message = f"frame-count mismatch: {short} sequence ended at frame 2"
            with pytest.raises(InputError, match=message):
                sequence_quality(*pair, (PSNR_Y,))

    def test_geometry_mismatch(self, rng):
        a = [random_frame(make_info(16, 16), rng)]
        b = [random_frame(make_info(32, 32), rng)]
        message = "geometry mismatch: reference 16x16 vs test 32x32"
        with pytest.raises(InputError, match=message):
            sequence_quality(a, b, (PSNR_Y,))

    def test_parallel_matches_serial(self, rng, monkeypatch):
        # Four usable CPUs, so jobs=4 runs four workers on any host.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        metric_ids = (PSNR_Y, PSNR_U, PSNR_V, WPSNR, SSIM)
        # One SSIM strip and tile, then a frame taller than two strips and
        # wider than two tiles.
        large = make_info(2 * metrics._SSIM_TILE + 21, 2 * metrics._SSIM_STRIP + 21,
                          chroma=CHROMA_444)
        for info in (make_info(24, 24), large):
            ref = [random_frame(info, rng, i) for i in range(6)]
            test = [random_frame(info, rng, i) for i in range(6)]
            serial = sequence_quality(ref, test, metric_ids, jobs=1)
            parallel = sequence_quality(ref, test, metric_ids, jobs=4)
            for mid in metric_ids:
                assert serial[mid].frame_values == parallel[mid].frame_values
                assert serial[mid].value == parallel[mid].value

    def test_unknown_metric(self, rng):
        info = make_info(16, 16)
        frames = [random_frame(info, rng)]
        with pytest.raises(InputError):
            sequence_quality(frames, frames, ("VMAF",))

    @staticmethod
    def pool_sizes(rng, monkeypatch, jobs):
        """max_workers of each pool a 3-frame sequence_quality(jobs=jobs)
        makes."""
        import concurrent.futures

        sizes = []

        class Spy(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        info = make_info(16, 16)
        ref = [random_frame(info, rng, i) for i in range(3)]
        test = [random_frame(info, rng, i) for i in range(3)]
        sequence_quality(ref, test, (PSNR_Y,), jobs=jobs)
        return sizes

    @pytest.mark.parametrize("cpus,jobs,pools", [
        ({0, 1, 2}, 1, [1]), ({0, 1, 2}, 3, [3]), ({0, 1, 2}, 4, [3]), ({2, 7}, 3, [2]),
    ], ids=["1-serial", "3-3", "4-3", "3-on-two-cpus-2"])
    def test_jobs_capped_at_cpu_count(self, rng, monkeypatch, cpus, jobs, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))
        assert self.pool_sizes(rng, monkeypatch, jobs) == pools

    @pytest.mark.parametrize("has_affinity", [True, False])
    def test_jobs_capped_at_usable_cpus(self, rng, monkeypatch, has_affinity):
        # The affinity mask, not the host's CPU count, bounds the threads;
        # without one the CPU count does. One usable CPU means one worker.
        if has_affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert self.pool_sizes(rng, monkeypatch, 4) == [1]

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_pool_keeps_jobs_items_in_flight(self, jobs):
        # Result i arrives when exactly i + jobs items (or all of them) have
        # been pulled, so at most `jobs` frame pairs wait in the pool, and
        # results come in item order though early items finish last.
        count = 10
        pulled = []

        def items():
            for i in range(count):
                pulled.append(i)
                yield i

        def work(i):
            time.sleep(0.002 * (count - i))
            return i * i

        seen = []
        for i, result in enumerate(metrics._ordered_map(work, items(), jobs)):
            assert len(pulled) == min(i + jobs, count)
            seen.append(result)
        assert seen == [i * i for i in range(count)]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, rng, jobs):
        info = make_info(16, 16)
        frames = [random_frame(info, rng)]
        with pytest.raises(InputError, match=f"jobs must be at least 1, got {jobs}"):
            sequence_quality(frames, frames, (PSNR_Y,), jobs=jobs)


class TestExternalScores:
    def test_csv_mean(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n0,90\n1,92\n2,94\n")
        sq = ingest_external_scores(path)
        assert sq.metric_id == "EXTERNAL:score"
        assert sq.value == 92.0
        assert sq.frame_values == (90.0, 92.0, 94.0)

    def test_csv_columns_in_any_order(self, tmp_path):
        # For a CSV the name only names the series; the columns stay frame and score.
        path = tmp_path / "scores.csv"
        path.write_text("score,frame\n90,0\n92,1\n")
        sq = ingest_external_scores(path, name="vmaf")
        assert sq.metric_id == "EXTERNAL:vmaf"
        assert sq.frame_values == (90.0, 92.0)

    def test_vmaf_json(self, tmp_path):
        path = tmp_path / "vmaf.json"
        path.write_text(
            '{"frames": [{"metrics": {"vmaf": 97.2}}, {"metrics": {"vmaf": 98.0}}]}'
        )
        sq = ingest_external_scores(path)
        assert sq.metric_id == "EXTERNAL:vmaf"
        assert sq.value == pytest.approx(97.6)

    def test_constant_scores(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n" + "".join(f"{i},83.7\n" for i in range(300)))
        assert ingest_external_scores(path).value == pytest.approx(83.7)

    @pytest.mark.parametrize("count", [2, 3, 7])
    def test_mean_finite_at_the_float64_limit(self, tmp_path, count):
        # The plain sum overflows; the mean of finite scores stays finite.
        path = tmp_path / "scores.csv"
        big = sys.float_info.max
        path.write_text("frame,score\n" + "".join(f"{i},{big!r}\n" for i in range(count)))
        assert ingest_external_scores(path).value == big

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n")
        with pytest.raises(DataFormatError, match="scores.csv: no scores present"):
            ingest_external_scores(path)

    def test_empty_over_a_bytes_path_names_it_as_text(self, tmp_path):
        # Found after the last row: a DataFormatError (exit 3) naming no line.
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n")
        with pytest.raises(DataFormatError) as exc:
            ingest_external_scores(os.fsencode(path))
        assert str(exc.value) == f"{path}: no scores present"

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n0,high\n")
        with pytest.raises(DataFormatError):
            ingest_external_scores(path)

    @pytest.mark.parametrize("rows,message", [
        ("3,90\n1,10\n1,50\n", ":2: expected frame 0, got 3"),
        ("0,90\n2,10\n1,50\n", ":3: expected frame 1, got 2"),
        ("0,90\n1,10\n1,50\n", ":4: expected frame 2, got 1"),
        ("0,90\n1,10\n3,50\n", ":4: expected frame 2, got 3"),
        ("1,90\n2,10\n", ":2: expected frame 0, got 1"),
        ("0,90\n-1,10\n", ":3: expected frame 1, got -1"),
        ("0,90\n1.0,10\n", ":3: frame must be an integer, got '1.0'"),
        ("0,90\nx,10\n", ":3: frame must be an integer, got 'x'"),
    ], ids=["reordered", "swapped", "repeated", "gapped", "from_one", "negative",
            "float", "text"])
    def test_frames_must_count_from_zero(self, tmp_path, rows, message):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n" + rows)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path) + message)}$"):
            ingest_external_scores(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "9" * 400])
    def test_json_non_finite_score_rejected(self, tmp_path, literal):
        path = tmp_path / "vmaf.json"
        path.write_text(
            '{"frames": [{"metrics": {"vmaf": 97.2}}, {"metrics": {"vmaf": %s}}]}' % literal
        )
        with pytest.raises(DataFormatError, match="frame 1: vmaf must be a finite number"):
            ingest_external_scores(path)

    def test_json_metric_selected_by_name(self, tmp_path):
        path = tmp_path / "vmaf.json"
        path.write_text(
            '{"frames": [{"metrics": {"vmaf": 97.2, "psnr": 41.0}}]}'
        )
        sq = ingest_external_scores(path, name="psnr")
        assert sq.metric_id == "EXTERNAL:psnr"
        assert sq.value == 41.0
