import io

import numpy as np
import pytest

from codecbench.errors import (
    DimensionError,
    HeaderError,
    SampleRangeError,
    TruncationError,
    UnsupportedFormatError,
)
from codecbench.video_io import (
    CHROMA_420,
    CHROMA_444,
    FrameBuffer,
    RawReader,
    SequenceInfo,
    Y4MReader,
    parse_y4m_header,
    read_frame,
    write_y4m,
)

from conftest import make_info, random_frame


def parse(header: bytes) -> SequenceInfo:
    return parse_y4m_header(io.BytesIO(header))


class TestParseHeader:
    def test_full_tag_set(self):
        info = parse(b"YUV4MPEG2 W1920 H1080 F50:1 Ip A1:1 C420\n")
        assert (info.width, info.height) == (1920, 1080)
        assert (info.fps_num, info.fps_den) == (50, 1)
        assert info.bit_depth == 8
        assert info.chroma == CHROMA_420

    def test_ten_bit(self):
        info = parse(b"YUV4MPEG2 W3840 H2160 F60:1 C420p10\n")
        assert (info.width, info.height) == (3840, 2160)
        assert (info.fps_num, info.fps_den) == (60, 1)
        assert info.bit_depth == 10
        assert info.chroma == CHROMA_420

    def test_zero_width_rejected(self):
        with pytest.raises(HeaderError):
            parse(b"YUV4MPEG2 W0 H1080 F50:1 C420\n")

    @pytest.mark.parametrize("variant", [b"C420jpeg", b"C420mpeg2", b"C420paldv"])
    def test_siting_variants_collapse(self, variant):
        info = parse(b"YUV4MPEG2 W64 H64 F25:1 " + variant + b"\n")
        assert info.chroma == CHROMA_420
        assert info.bit_depth == 8

    def test_c444(self):
        info = parse(b"YUV4MPEG2 W64 H64 F25:1 C444p10\n")
        assert info.chroma == CHROMA_444
        assert info.bit_depth == 10

    def test_default_colourspace_is_420(self):
        assert parse(b"YUV4MPEG2 W64 H64 F25:1\n").chroma == CHROMA_420

    def test_missing_magic(self):
        with pytest.raises(HeaderError):
            parse(b"JUNK W64 H64 F25:1\n")

    def test_unknown_colourspace(self):
        with pytest.raises(UnsupportedFormatError):
            parse(b"YUV4MPEG2 W64 H64 F25:1 C422\n")

    @pytest.mark.parametrize("tag", [b"It", b"Ib", b"Im", b"I?"])
    def test_interlaced_rejected(self, tag):
        with pytest.raises(UnsupportedFormatError):
            parse(b"YUV4MPEG2 W64 H64 F25:1 " + tag + b" C420\n")

    def test_missing_required_tags(self):
        with pytest.raises(HeaderError):
            parse(b"YUV4MPEG2 W64 H64\n")

    def test_negative_fps(self):
        with pytest.raises(HeaderError):
            parse(b"YUV4MPEG2 W64 H64 F0:1 C420\n")

    def test_malformed_fps(self):
        with pytest.raises(HeaderError):
            parse(b"YUV4MPEG2 W64 H64 F25 C420\n")

    def test_odd_dimensions_for_420(self):
        with pytest.raises(HeaderError):
            parse(b"YUV4MPEG2 W63 H64 F25:1 C420\n")

    def test_unterminated_header(self):
        with pytest.raises(HeaderError):
            parse(b"YUV4MPEG2 W64 H64 F25:1 C420")

    def test_header_line_limit(self):
        # At most 8191 bytes before the newline, as with the FRAME line.
        base = b"YUV4MPEG2 W64 H64 F25:1 C420 X"
        fits = base + b"a" * (8191 - len(base))
        assert parse(fits + b"\n").width == 64
        with pytest.raises(HeaderError, match="8192"):
            parse(fits + b"a\n")

    def test_extension_tags_ignored(self):
        info = parse(b"YUV4MPEG2 W64 H64 F25:1 C420 XCOLORRANGE=FULL\n")
        assert info.width == 64

    def test_consumes_exactly_header_line(self):
        stream = io.BytesIO(b"YUV4MPEG2 W64 H64 F25:1 C420\nFRAME\n")
        parse_y4m_header(stream)
        assert stream.read(6) == b"FRAME\n"

    def test_parse_deterministic(self):
        data = b"YUV4MPEG2 W1920 H1080 F30000:1001 Ip A1:1 C420p10\n"
        assert parse(data) == parse(data)


class TestReadFrame:
    def test_hd_frame_and_eos(self):
        info = make_info(1920, 1080)
        payload = bytes(info.frame_bytes)
        assert info.frame_bytes == 3110400
        stream = io.BytesIO(b"FRAME\n" + payload)
        frame = read_frame(stream, info, 0)
        assert frame.frame_index == 0
        assert frame.y.shape == (1080, 1920)
        assert read_frame(stream, info, 1) is None

    def test_bytes_consumed_exactly(self):
        info = make_info(64, 32)
        stream = io.BytesIO(b"FRAME\n" + bytes(info.frame_bytes) * 2)
        before = stream.tell()
        read_frame(stream, info, 0)
        assert stream.tell() - before == 6 + info.frame_bytes

    def test_frame_line_with_parameters(self):
        info = make_info(4, 4)
        stream = io.BytesIO(b"FRAME Xsome=tag\n" + bytes(info.frame_bytes))
        assert read_frame(stream, info, 0) is not None

    def test_truncated_frame_reports_sizes(self):
        info = make_info(64, 64)
        stream = io.BytesIO(b"FRAME\n" + bytes(info.frame_bytes - 100))
        with pytest.raises(TruncationError, match=r"expected 6144.*got 6044"):
            read_frame(stream, info, 0)

    def test_bad_frame_prefix(self):
        info = make_info(4, 4)
        with pytest.raises(HeaderError):
            read_frame(io.BytesIO(b"FRAMX\n" + bytes(info.frame_bytes)), info, 0)

    def test_raw_ten_bit_frame(self):
        info = make_info(64, 64, bit_depth=10)
        assert info.frame_bytes == 12288
        samples = np.zeros(6144, dtype="<u2")
        samples[:5] = [0, 1, 512, 1022, 1023]
        stream = io.BytesIO(samples.tobytes())
        frame = read_frame(stream, info, 0, container="raw")
        assert frame.y.dtype == np.uint16
        assert int(frame.y.max()) == 1023
        assert read_frame(stream, info, 1, container="raw") is None

    def test_ten_bit_range_error(self):
        info = make_info(4, 4, bit_depth=10)
        samples = np.full(4 * 4 * 3 // 2, 1024, dtype="<u2")
        with pytest.raises(SampleRangeError, match="frame 5: Y plane sample 1024"):
            read_frame(io.BytesIO(samples.tobytes()), info, 5, container="raw")

    def test_raw_truncation(self):
        info = make_info(8, 8)
        stream = io.BytesIO(bytes(info.frame_bytes + 10))
        assert read_frame(stream, info, 0, container="raw") is not None
        with pytest.raises(TruncationError):
            read_frame(stream, info, 1, container="raw")


class TestFrameBuffer:
    def test_plane_shape_checked(self):
        info = make_info(8, 8)
        bad = np.zeros((8, 8), np.uint8)
        with pytest.raises(DimensionError):
            FrameBuffer(info=info, planes=(bad, bad, bad), frame_index=0)

    def test_sample_range_checked(self):
        info = make_info(8, 8, bit_depth=10)
        y = np.full((8, 8), 2000, np.uint16)
        c = np.zeros((4, 4), np.uint16)
        with pytest.raises(SampleRangeError):
            FrameBuffer(info=info, planes=(y, c, c), frame_index=0)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "bit_depth,chroma",
        [(8, CHROMA_420), (10, CHROMA_420), (8, CHROMA_444), (10, CHROMA_444)],
    )
    def test_write_then_read_bit_identical(self, tmp_path, rng, bit_depth, chroma):
        info = make_info(32, 16, fps=(30000, 1001), bit_depth=bit_depth, chroma=chroma)
        frames = [random_frame(info, rng, i) for i in range(3)]
        path = tmp_path / "clip.y4m"
        assert write_y4m(path, frames) == 3
        with Y4MReader(path) as reader:
            assert reader.info == info
            got = list(reader)
        assert len(got) == 3
        for a, b in zip(frames, got):
            for pa, pb in zip(a.planes, b.planes):
                assert pa.dtype == pb.dtype
                assert np.array_equal(pa, pb)

    def test_reader_frames_are_readonly(self, tmp_path, rng):
        info = make_info(16, 16)
        write_y4m(tmp_path / "c.y4m", [random_frame(info, rng)])
        with Y4MReader(tmp_path / "c.y4m") as reader:
            frame = reader.read_frame()
        with pytest.raises(ValueError):
            frame.y[0, 0] = 1


class TestRawReader:
    def test_frame_count_from_file_size(self, tmp_path):
        info = make_info(64, 64, bit_depth=10)
        path = tmp_path / "clip.yuv"
        path.write_bytes(bytes(12288))
        with RawReader(path, info) as reader:
            frames = list(reader)
        assert len(frames) == 1
