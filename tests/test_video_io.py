import io
import itertools
import os
import re
import weakref

import numpy as np
import pytest

from codecbench.errors import DataFormatError, InputError
from codecbench.video_io import (
    CHROMA_420,
    CHROMA_444,
    FrameBuffer,
    RawReader,
    SequenceInfo,
    Y4MReader,
    parse_y4m_header,
)

from conftest import make_info, random_frame, write_y4m


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
        with pytest.raises(DataFormatError, match="non-positive W tag value 0"):
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
        with pytest.raises(DataFormatError, match="missing YUV4MPEG2 magic"):
            parse(b"JUNK W64 H64 F25:1\n")

    def test_unknown_colourspace(self):
        with pytest.raises(DataFormatError, match="unsupported colourspace tag C422"):
            parse(b"YUV4MPEG2 W64 H64 F25:1 C422\n")

    @pytest.mark.parametrize("tag", [b"It", b"Ib", b"Im", b"I?"])
    def test_interlaced_rejected(self, tag):
        message = f"interlaced stream ({tag.decode()}) is not supported"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            parse(b"YUV4MPEG2 W64 H64 F25:1 " + tag + b" C420\n")

    def test_missing_required_tags(self):
        with pytest.raises(DataFormatError, match="must carry W, H and F tags"):
            parse(b"YUV4MPEG2 W64 H64\n")

    def test_negative_fps(self):
        with pytest.raises(DataFormatError, match="non-positive F tag value '0:1'"):
            parse(b"YUV4MPEG2 W64 H64 F0:1 C420\n")

    def test_malformed_fps(self):
        message = r"malformed F tag value '25' \(expected N:D\)"
        with pytest.raises(DataFormatError, match=message):
            parse(b"YUV4MPEG2 W64 H64 F25 C420\n")

    @pytest.mark.parametrize("header,message", [
        (b"W1_6 H64 F25:1", "malformed W tag value '1_6'"),
        (b"W64 H6_4 F25:1", "malformed H tag value '6_4'"),
        (b"W64 H64 F30_000:1001", "malformed F tag value '30_000:1001'"),
        (b"W64 H64 F25:1 A1:1_0", "malformed A tag value '1:1_0'"),
    ], ids=["W", "H", "F", "A"])
    def test_grouped_digits_rejected(self, header, message):
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            parse(b"YUV4MPEG2 " + header + b" C420\n")

    def test_odd_dimensions_for_420(self):
        message = "C420 requires even dimensions, got 63x64"
        with pytest.raises(DataFormatError, match=message):
            parse(b"YUV4MPEG2 W63 H64 F25:1 C420\n")

    def test_unterminated_header(self):
        with pytest.raises(DataFormatError, match="unterminated Y4M header line"):
            parse(b"YUV4MPEG2 W64 H64 F25:1 C420")

    def test_header_line_limit(self):
        # At most 8191 bytes before the newline, as with the FRAME line.
        base = b"YUV4MPEG2 W64 H64 F25:1 C420 X"
        fits = base + b"a" * (8191 - len(base))
        assert parse(fits + b"\n").width == 64
        with pytest.raises(DataFormatError, match="header line exceeds 8192 bytes"):
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


def y4m_reader(info, frames: bytes) -> Y4MReader:
    """A Y4MReader over a stream of info's header line followed by frames."""
    stream = io.BytesIO()
    write_y4m(stream, [], info)
    stream.write(frames)
    stream.seek(0)
    return Y4MReader(stream)


class TestReadFrame:
    def test_hd_frame_and_eos(self):
        info = make_info(1920, 1080)
        payload = bytes(info.frame_bytes)
        assert info.frame_bytes == 3110400
        reader = y4m_reader(info, b"FRAME\n" + payload)
        frame = reader.read_frame()
        assert frame.frame_index == 0
        assert frame.y.shape == (1080, 1920)
        assert reader.read_frame() is None
        assert reader.read_frame() is None

    def test_bytes_consumed_exactly(self):
        info = make_info(64, 32)
        stream = io.BytesIO()
        write_y4m(stream, [], info)
        stream.write(b"FRAME\n" + bytes(info.frame_bytes) * 2)
        stream.seek(0)
        reader = Y4MReader(stream)
        before = stream.tell()
        reader.read_frame()
        assert stream.tell() - before == 6 + info.frame_bytes

    def test_frame_line_with_parameters(self):
        info = make_info(4, 4)
        reader = y4m_reader(info, b"FRAME Xsome=tag\n" + bytes(info.frame_bytes))
        assert reader.read_frame() is not None

    def test_truncated_frame_reports_sizes(self):
        info = make_info(64, 64)
        frame = b"FRAME\n" + bytes(info.frame_bytes)
        reader = y4m_reader(info, frame * 2 + frame[:-100])
        assert len(list(itertools.islice(reader, 2))) == 2
        message = "^truncated frame 2: expected 6144 bytes, got 6044$"
        with pytest.raises(DataFormatError, match=message):
            reader.read_frame()

    def test_frame_line_without_payload_is_truncated(self):
        reader = y4m_reader(make_info(4, 4), b"FRAME\n")
        message = "^truncated frame 0: expected 24 bytes, got 0$"
        with pytest.raises(DataFormatError, match=message):
            reader.read_frame()

    def test_bad_frame_prefix(self):
        info = make_info(4, 4)
        reader = y4m_reader(info, b"FRAME\n" + bytes(info.frame_bytes) + b"FRAMX\n")
        assert reader.read_frame().frame_index == 0
        message = "^expected FRAME prefix at frame 1, got b'FRAMX'$"
        with pytest.raises(DataFormatError, match=message):
            reader.read_frame()

    def test_unterminated_frame_line(self):
        info = make_info(4, 4)
        reader = y4m_reader(info, b"FRAME\n" + bytes(info.frame_bytes) + b"FRAME")
        assert reader.read_frame() is not None
        with pytest.raises(DataFormatError, match="^unterminated FRAME line at frame 1$"):
            reader.read_frame()

    def test_frame_line_limit(self):
        info = make_info(4, 4)
        # At most 8191 bytes before the newline, as with the header line.
        fits = b"FRAME X" + b"a" * (8191 - 7)
        payload = bytes(info.frame_bytes)
        reader = y4m_reader(info, fits + b"\n" + payload + fits + b"a\n" + payload)
        assert reader.read_frame() is not None
        with pytest.raises(DataFormatError, match="^FRAME line at frame 1 exceeds 8192 bytes$"):
            reader.read_frame()

    def test_raw_ten_bit_frame(self):
        info = make_info(64, 64, bit_depth=10)
        assert info.frame_bytes == 12288
        samples = np.zeros(6144, dtype="<u2")
        samples[:5] = [0, 1, 512, 1022, 1023]
        reader = RawReader(io.BytesIO(samples.tobytes()), info)
        frame = reader.read_frame()
        assert frame.y.dtype == np.uint16
        assert int(frame.y.max()) == 1023
        assert reader.read_frame() is None

    def test_ten_bit_samples_read_little_endian(self):
        info = make_info(2, 2, bit_depth=10)
        frame = y4m_reader(info, b"FRAME\n" + b"\x02\x03" * 6).read_frame()
        assert [plane.tolist() for plane in frame.planes] == [
            [[0x0302, 0x0302], [0x0302, 0x0302]], [[0x0302]], [[0x0302]]
        ]

    def test_ten_bit_range_error(self):
        info = make_info(4, 4, bit_depth=10)
        good = np.zeros(4 * 4 * 3 // 2, dtype="<u2").tobytes()
        bad = np.full(4 * 4 * 3 // 2, 1024, dtype="<u2").tobytes()
        reader = RawReader(io.BytesIO(good * 5 + bad), info)
        assert [f.frame_index for f in itertools.islice(reader, 5)] == [0, 1, 2, 3, 4]
        message = "^frame 5: Y plane sample 1024 exceeds 10-bit maximum 1023$"
        with pytest.raises(DataFormatError, match=message):
            reader.read_frame()

    def test_raw_truncation(self):
        info = make_info(8, 8)
        reader = RawReader(io.BytesIO(bytes(info.frame_bytes * 5 + 10)), info)
        assert len(list(itertools.islice(reader, 5))) == 5
        message = "^truncated frame 5: expected 96 bytes, got 10$"
        with pytest.raises(DataFormatError, match=message):
            reader.read_frame()


class TestSequenceInfo:
    @pytest.mark.parametrize("kwargs,message", [
        ({"bit_depth": 12}, "unsupported bit depth 12"),
        ({"chroma": "C422"}, "unsupported chroma layout 'C422'"),
    ], ids=["bit_depth", "chroma"])
    def test_unsupported_sample_format_rejected(self, kwargs, message):
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            make_info(16, 16, **kwargs)


class TestFrameBuffer:
    def test_planes_and_index_checked(self):
        y, c = np.zeros((8, 8), np.uint8), np.zeros((4, 4), np.uint8)
        for planes, index, message in [
            ((y, c), 0, "expected 3 planes, got 2"),
            ((y.astype(np.uint16), c, c), 0, "Y plane dtype uint16 does not match bit depth 8"),
            ((y, c, c), -1, "negative frame index -1"),
        ]:
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                FrameBuffer(make_info(8, 8), planes, index)

    def test_plane_shape_checked(self):
        info = make_info(8, 8)
        bad = np.zeros((8, 8), np.uint8)
        message = r"U plane shape \(8, 8\) does not match expected \(4, 4\)"
        with pytest.raises(InputError, match=message):
            FrameBuffer(info=info, planes=(bad, bad, bad), frame_index=0)

    def test_sample_range_checked(self):
        info = make_info(8, 8, bit_depth=10)
        y = np.full((8, 8), 2000, np.uint16)
        c = np.zeros((4, 4), np.uint16)
        message = "frame 0: Y plane sample 2000 exceeds 10-bit maximum 1023"
        with pytest.raises(DataFormatError, match=message):
            FrameBuffer(info=info, planes=(y, c, c), frame_index=0)


class TestCheckCompatible:
    def test_frame_rate_is_not_compared(self):
        make_info(16, 16, fps=(50, 1)).check_compatible(make_info(16, 16, fps=(25, 1)))

    @pytest.mark.parametrize("other,message", [
        (make_info(16, 32, bit_depth=10), "geometry mismatch: reference 16x16 vs test 16x32"),
        (make_info(16, 16, bit_depth=10, chroma=CHROMA_444),
         "bit depth mismatch: reference 8 vs test 10"),
        (make_info(16, 16, chroma=CHROMA_444), "chroma mismatch: reference C420 vs test C444"),
    ])
    def test_first_difference_named_with_default_roles(self, other, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            make_info(16, 16).check_compatible(other)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "bit_depth,chroma",
        [(8, CHROMA_420), (10, CHROMA_420), (8, CHROMA_444), (10, CHROMA_444)],
    )
    def test_write_then_read_bit_identical(self, tmp_path, rng, bit_depth, chroma):
        info = make_info(32, 16, fps=(30000, 1001), bit_depth=bit_depth, chroma=chroma)
        frames = [random_frame(info, rng, i) for i in range(3)]
        path = tmp_path / "clip.y4m"
        write_y4m(path, frames)
        with Y4MReader(path) as reader:
            assert reader.info == info
            got = list(reader)
        assert len(got) == 3
        for a, b in zip(frames, got):
            for pa, pb in zip(a.planes, b.planes):
                assert pa.dtype == pb.dtype
                assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_write_with_info_then_read(self, rng, count):
        # The reader takes a binary stream as it takes a file, with or
        # without frames after the header.
        info = make_info(32, 16, fps=(25, 1), bit_depth=10)
        frames = [random_frame(info, rng, i) for i in range(count)]
        stream = io.BytesIO()
        write_y4m(stream, frames, info)
        stream.seek(0)
        with Y4MReader(stream) as reader:
            assert reader.info == info
            got = list(reader)
        assert len(got) == count
        for a, b in zip(frames, got):
            assert all(np.array_equal(pa, pb) for pa, pb in zip(a.planes, b.planes))

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


class TestReaderIteration:
    @pytest.mark.parametrize("container", ["y4m", "raw"])
    @pytest.mark.parametrize("on_path", [True, False], ids=["path", "stream"])
    def test_iterating_keeps_no_frame(self, tmp_path, rng, container, on_path):
        # A frame handed out by iteration dies with the caller's last
        # reference, so a consumer can hold one frame while reading the next.
        info = make_info(16, 16)
        frames = [random_frame(info, rng, i) for i in range(2)]
        path = tmp_path / "clip"
        if container == "y4m":
            write_y4m(path, frames)
        else:
            path.write_bytes(b"".join(plane.tobytes() for f in frames for plane in f.planes))
        with open(path, "rb") as fp:
            source = path if on_path else fp
            reader = Y4MReader(source) if container == "y4m" else RawReader(source, info)
            with reader:
                it = iter(reader)
                frame = next(it)
                alive = weakref.ref(frame)
                del frame
                assert alive() is None
                assert next(it).frame_index == 1
                assert next(it, None) is None


class TestReaderErrors:
    def test_reader_on_a_path_names_it(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(bytes(100))
        with RawReader(path, make_info(8, 8)) as reader:
            assert reader.read_frame() is not None
            message = f"{path}: truncated frame 1: expected 96 bytes, got 4"
            with pytest.raises(DataFormatError, match=re.escape(message)):
                reader.read_frame()
        path.write_bytes(b"JUNK\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: missing")):
            Y4MReader(path)

    def test_reader_on_a_bytes_path_decodes_it(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(bytes(10))
        with RawReader(os.fsencode(path), make_info(8, 8)) as reader:
            message = f"{path}: truncated frame 0: expected 96 bytes, got 10"
            with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
                reader.read_frame()
        path.write_bytes(b"JUNK\n")
        message = f"{path}: missing YUV4MPEG2 magic"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            Y4MReader(os.fsencode(path))

    def test_reader_on_a_named_stream_names_it(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(bytes(10))
        with open(path, "rb") as fp:
            message = f"{path}: truncated frame 0: expected 96 bytes, got 10"
            with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
                RawReader(fp, make_info(8, 8)).read_frame()
        path.write_bytes(b"JUNK\n")
        with open(path, "rb") as fp:
            message = f"{path}: missing YUV4MPEG2 magic"
            with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
                Y4MReader(fp)
            assert not fp.closed

    def test_reader_on_a_stream_keeps_the_message(self):
        with pytest.raises(DataFormatError, match="^missing YUV4MPEG2 magic$"):
            Y4MReader(io.BytesIO(b"JUNK\n"))
        reader = RawReader(io.BytesIO(bytes(10)), make_info(8, 8))
        with pytest.raises(DataFormatError, match="^truncated frame 0: expected 96"):
            reader.read_frame()
