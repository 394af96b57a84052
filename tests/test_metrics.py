import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d

from codecbench import metrics
from codecbench.errors import DataFormatError, InputError
from codecbench.metrics import (
    COMPUTABLE_METRICS,
    PSNR_U,
    PSNR_V,
    PSNR_Y,
    SSIM,
    WPSNR,
    content_features,
    ingest_external_scores,
    mse,
    psnr_from_mse,
    sequence_quality,
    spatial_info,
    ssim_frame,
    temporal_info,
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
    def test_identical_sequences_clamp(self, rng):
        info = make_info(16, 16)
        frames = [random_frame(info, rng, i) for i in range(10)]
        result = sequence_quality(frames, frames, (PSNR_Y,))
        sq = result[PSNR_Y]
        assert sq.frame_values == tuple([100.0] * 10)
        assert sq.value == 100.0
        assert sq.clamp_applied

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

    def test_parallel_matches_serial(self, rng):
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


def sobel_std_brute_force(y):
    """Direct 3x3 convolution on interior pixels, then population stddev."""
    gx_k = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
    gy_k = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h, w = y.shape
    mags = []
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            win = y[i - 1 : i + 2, j - 1 : j + 2]
            gx = float((gx_k * win).sum())
            gy = float((gy_k * win).sum())
            mags.append(math.hypot(gx, gy))
    mags = np.array(mags)
    return float(np.sqrt(np.mean((mags - mags.mean()) ** 2)))


class TestSpatialTemporalInfo:
    def test_constant_frames_si_zero(self):
        info = make_info(16, 16)
        frames = [make_frame(info, np.full((16, 16), 128)) for _ in range(3)]
        assert spatial_info(frames) == 0.0

    def test_si_against_sobel_oracle(self):
        info = make_info(16, 16)
        y = np.zeros((16, 16))
        y[:, 8:] = 255
        frame = make_frame(info, y)
        assert spatial_info([frame]) == pytest.approx(
            sobel_std_brute_force(y), abs=1e-9
        )

    def test_si_max_semantics(self):
        info = make_info(16, 16)
        edge = np.zeros((16, 16))
        edge[:, 8:] = 255
        flat = make_frame(info, np.full((16, 16), 40))
        edgy = make_frame(info, edge)
        assert spatial_info([flat, edgy]) == spatial_info([edgy])

    def test_si_empty(self):
        message = "spatial_info requires at least one frame"
        with pytest.raises(InputError, match=message):
            spatial_info([])
        message = "content_features requires at least one frame"
        with pytest.raises(InputError, match=message):
            content_features([])

    def test_ti_static_zero(self, rng):
        info = make_info(16, 16)
        frame = random_frame(info, rng)
        assert temporal_info([frame, frame, frame]) == 0.0

    def test_ti_uniform_shift_zero(self):
        info = make_info(16, 16)
        frames = [
            make_frame(info, np.full((16, 16), 0)),
            make_frame(info, np.full((16, 16), 10)),
        ]
        assert temporal_info(frames) == 0.0

    def test_ti_checkerboard_inverse(self):
        info = make_info(16, 16)
        board = np.indices((16, 16)).sum(axis=0) % 2 * 255
        frames = [make_frame(info, board), make_frame(info, 255 - board)]
        assert temporal_info(frames) == 255.0

    def test_ti_needs_two_frames(self, rng):
        with pytest.raises(InputError):
            temporal_info([random_frame(make_info(16, 16), rng)])

    def test_duplicate_frames_do_not_change_si_ti(self, rng):
        info = make_info(16, 16)
        frames = [random_frame(info, rng, i) for i in range(3)]
        extended = frames + [frames[-1]]
        assert spatial_info(extended) == spatial_info(frames)
        assert temporal_info(extended) == temporal_info(frames)
        features = content_features(extended)
        assert features.si == spatial_info(frames)
        assert features.ti == temporal_info(frames)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_reductions_match_per_frame_values(self, rng, count):
        info = make_info(16, 16)
        frames = [random_frame(info, rng, i) for i in range(count)]
        si = [float(np.std(metrics._sobel_magnitude(f.y))) for f in frames]
        lumas = [f.y.astype(np.float64) for f in frames]
        ti = [float(np.std(b - a)) for a, b in zip(lumas, lumas[1:])]
        assert spatial_info(iter(frames)) == max(si)
        if count == 1:
            message = "temporal_info requires at least two frames"
            with pytest.raises(InputError, match=message):
                temporal_info(frames)
            message = "content_features requires at least two frames for TI"
            with pytest.raises(InputError, match=message):
                content_features(frames)
            return
        assert temporal_info(iter(frames)) == max(ti)
        assert content_features(iter(frames)) == metrics.ContentFeatures(max(si), max(ti))

    def test_ti_on_frames_too_small_for_sobel(self):
        info = make_info(2, 2)
        frames = [make_frame(info, [[0, 0], [0, 0]]), make_frame(info, [[0, 2], [0, 2]])]
        assert temporal_info(frames) == 1.0
        with pytest.raises(InputError):
            spatial_info(frames)


def si_ti_float64(frames):
    """SI and TI by float64 Sobel gradients and luma differences."""
    lumas = [f.y.astype(np.float64) for f in frames]
    si = []
    for p in lumas:
        gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]) - (
            p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2]
        )
        gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]) - (
            p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:]
        )
        si.append(float(np.std(np.sqrt(gx * gx + gy * gy))))
    ti = [float(np.std(b - a)) for a, b in zip(lumas, lumas[1:])]
    return metrics.ContentFeatures(max(si), max(ti))


class TestSiTiIntegerArithmetic:
    @pytest.mark.parametrize("bit_depth", [8, 10])
    @pytest.mark.parametrize("width,height", [(1920, 1080), (64, 36), (34, 18)])
    def test_equals_float64_formulas(self, rng, bit_depth, width, height):
        info = make_info(width, height, bit_depth=bit_depth)
        frames = [random_frame(info, rng, i) for i in range(3)]
        assert content_features(frames) == si_ti_float64(frames)

    def test_extreme_10_bit_gradients(self):
        # Full-scale edges and corners: |gx|, |gy| up to 4 * 1023.
        info = make_info(16, 16, bit_depth=10)
        i, j = np.indices((16, 16))
        board = (i + j) % 2 * 1023
        edge = (j >= 8) * 1023
        corner = ((i >= 8) | (j >= 8)) * 1023
        frames = [make_frame(info, board), make_frame(info, edge),
                  make_frame(info, corner), make_frame(info, 1023 - board)]
        assert content_features(frames) == si_ti_float64(frames)

    def test_peak_memory_on_1080p(self, rng):
        info = make_info(1920, 1080)
        frames = [random_frame(info, rng, i) for i in range(3)]
        tracemalloc.start()
        try:
            content_features(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45 * 2**20


class TestExternalScores:
    def test_csv_mean(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n0,90\n1,92\n2,94\n")
        sq = ingest_external_scores(path)
        assert sq.metric_id == "EXTERNAL:score"
        assert sq.value == 92.0
        assert sq.frame_values == (90.0, 92.0, 94.0)

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

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n")
        with pytest.raises(InputError, match="scores.csv: no scores present"):
            ingest_external_scores(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n0,high\n")
        with pytest.raises(DataFormatError):
            ingest_external_scores(path)

    def test_count_mismatch_warns(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("frame,score\n0,90\n1,92\n")
        sq = ingest_external_scores(path, frame_count=3)
        assert sq.value == 91.0
        assert sq.warnings

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
