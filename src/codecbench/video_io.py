"""Y4M and raw planar YUV frame I/O for 8- and 10-bit 4:2:0 / 4:4:4 content.

10-bit samples are stored as two bytes per sample, little-endian,
LSB-aligned (legal values 0..1023), the de-facto convention of reference
codec I/O. The C420 chroma-siting variants (C420jpeg, C420mpeg2,
C420paldv) collapse to plain C420: pixelwise metrics are siting-agnostic.
Interlaced streams are rejected rather than deinterlaced.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    HeaderError,
    SampleRangeError,
    TruncationError,
    UnsupportedFormatError,
)

Y4M_MAGIC = b"YUV4MPEG2"
FRAME_MAGIC = b"FRAME"

CHROMA_420 = "C420"
CHROMA_444 = "C444"

# Y4M colourspace tag -> (chroma layout, bit depth).
_COLORSPACE_TAGS = {
    "420": (CHROMA_420, 8),
    "420jpeg": (CHROMA_420, 8),
    "420mpeg2": (CHROMA_420, 8),
    "420paldv": (CHROMA_420, 8),
    "420p10": (CHROMA_420, 10),
    "444": (CHROMA_444, 8),
    "444p10": (CHROMA_444, 10),
}

# (chroma layout, bit depth) -> the tag written for it: the first listed
# above, which the reversed walk stores last.
_WRITE_TAGS = {fmt: tag for tag, fmt in reversed(_COLORSPACE_TAGS.items())}


@dataclass(frozen=True)
class SequenceInfo:
    """Geometry, frame rate and sample format of one video sequence."""

    width: int
    height: int
    fps_num: int
    fps_den: int
    bit_depth: int
    chroma: str = CHROMA_420

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise HeaderError(f"non-positive geometry {self.width}x{self.height}")
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise HeaderError(f"non-positive frame rate {self.fps_num}:{self.fps_den}")
        if self.bit_depth not in (8, 10):
            raise UnsupportedFormatError(f"unsupported bit depth {self.bit_depth}")
        if self.chroma not in (CHROMA_420, CHROMA_444):
            raise UnsupportedFormatError(f"unsupported chroma layout {self.chroma!r}")
        if self.chroma == CHROMA_420 and (self.width % 2 or self.height % 2):
            raise HeaderError(
                f"C420 requires even dimensions, got {self.width}x{self.height}"
            )

    @property
    def sample_max(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def dtype(self):
        return np.dtype(np.uint8) if self.bit_depth == 8 else np.dtype(np.uint16)

    @property
    def plane_shapes(self) -> tuple[tuple[int, int], ...]:
        if self.chroma == CHROMA_420:
            c = (self.height // 2, self.width // 2)
        else:
            c = (self.height, self.width)
        return ((self.height, self.width), c, c)

    @property
    def frame_bytes(self) -> int:
        """Payload bytes of one frame (excluding any FRAME prefix line)."""
        samples = sum(h * w for h, w in self.plane_shapes)
        return samples * (1 if self.bit_depth == 8 else 2)


@dataclass(frozen=True, eq=False)
class FrameBuffer:
    """One decoded picture: immutable Y, U, V sample planes."""

    info: SequenceInfo
    planes: tuple[np.ndarray, np.ndarray, np.ndarray]
    frame_index: int = 0

    def __post_init__(self):
        if len(self.planes) != 3:
            raise DimensionError(f"expected 3 planes, got {len(self.planes)}")
        for plane, shape, name in zip(self.planes, self.info.plane_shapes, "YUV"):
            if plane.shape != shape:
                raise DimensionError(
                    f"{name} plane shape {plane.shape} does not match "
                    f"expected {shape}"
                )
            if plane.dtype != self.info.dtype:
                raise DimensionError(
                    f"{name} plane dtype {plane.dtype} does not match "
                    f"bit depth {self.info.bit_depth}"
                )
        # uint8 cannot exceed an 8-bit range; only wider dtypes need a scan.
        if self.info.bit_depth != 8:
            limit = self.info.sample_max
            for plane, name in zip(self.planes, "YUV"):
                if plane.size and int(plane.max()) > limit:
                    raise SampleRangeError(
                        f"frame {self.frame_index}: {name} plane sample "
                        f"{int(plane.max())} exceeds {self.info.bit_depth}-bit "
                        f"maximum {limit}"
                    )
        if self.frame_index < 0:
            raise DimensionError(f"negative frame index {self.frame_index}")

    @property
    def y(self) -> np.ndarray:
        return self.planes[0]


def _read_line(stream, limit: int = 8192) -> tuple[bytes, bool]:
    """Read bytes up to (excluding) 0x0A. Returns (data, saw_newline)."""
    line = stream.readline(limit)
    if line.endswith(b"\n"):
        return line[:-1], True
    if len(line) >= limit:
        raise HeaderError(f"header line exceeds {limit} bytes")
    return line, False


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_y4m_header(stream) -> SequenceInfo:
    """Parse the YUV4MPEG2 signature line, consuming exactly that line.

    W, H, F and C tags are interpreted; I and A are parsed and otherwise
    ignored (interlaced content is rejected); X extensions are skipped.
    """
    line, terminated = _read_line(stream)
    if not line.startswith(Y4M_MAGIC):
        raise HeaderError("missing YUV4MPEG2 magic")
    if not terminated:
        raise HeaderError("unterminated Y4M header line")
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderError(f"non-ASCII Y4M header: {exc}") from None

    width = height = None
    fps = None
    chroma, bit_depth = CHROMA_420, 8  # Y4M default colourspace is 4:2:0
    for tag in text.split(" ")[1:]:
        if not tag:
            continue
        key, value = tag[0], tag[1:]
        if key == "W":
            width = _positive_int(value, "W")
        elif key == "H":
            height = _positive_int(value, "H")
        elif key == "F":
            fps = _parse_ratio(value, "F")
        elif key == "C":
            if value not in _COLORSPACE_TAGS:
                raise UnsupportedFormatError(f"unsupported colourspace tag C{value}")
            chroma, bit_depth = _COLORSPACE_TAGS[value]
        elif key == "I":
            if value != "p":
                raise UnsupportedFormatError(
                    f"interlaced stream (I{value}) is not supported"
                )
        elif key == "A":
            _parse_ratio(value, "A", allow_zero=True)
        # X extensions and unknown tags are ignored.

    if width is None or height is None or fps is None:
        raise HeaderError("Y4M header must carry W, H and F tags")
    return SequenceInfo(width, height, fps[0], fps[1], bit_depth, chroma)


def _positive_int(value: str, tag: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise HeaderError(f"malformed {tag} tag value {value!r}") from None
    if n <= 0:
        raise HeaderError(f"non-positive {tag} tag value {n}")
    return n


def _parse_ratio(value: str, tag: str, allow_zero: bool = False) -> tuple[int, int]:
    num, sep, den = value.partition(":")
    if not sep:
        raise HeaderError(f"malformed {tag} tag value {value!r} (expected N:D)")
    try:
        n, d = int(num), int(den)
    except ValueError:
        raise HeaderError(f"malformed {tag} tag value {value!r}") from None
    if n < 0 or d < 0 or (not allow_zero and (n == 0 or d == 0)):
        raise HeaderError(f"non-positive {tag} tag value {value!r}")
    return n, d


def read_frame(
    stream, info: SequenceInfo, frame_index: int = 0, container: str = "y4m"
) -> FrameBuffer | None:
    """Read the next frame, or None at a clean end of stream.

    Y4M frames are prefixed by a FRAME line; raw mode reads bare planes.
    """
    if container == "y4m":
        line, terminated = _read_line(stream)
        if not line and not terminated:
            return None
        if not terminated:
            raise TruncationError(f"unterminated FRAME line at frame {frame_index}")
        if line != FRAME_MAGIC and not line.startswith(FRAME_MAGIC + b" "):
            raise HeaderError(
                f"expected FRAME prefix at frame {frame_index}, got {line[:32]!r}"
            )
    elif container != "raw":
        raise ValueError(f"unknown container {container!r}")

    expected = info.frame_bytes
    payload = _read_exact(stream, expected)
    if not payload and container == "raw":
        return None
    if len(payload) != expected:
        raise TruncationError(
            f"truncated frame {frame_index}: expected {expected} bytes, "
            f"got {len(payload)}"
        )

    dtype = np.dtype("u1") if info.bit_depth == 8 else np.dtype("<u2")
    samples = np.frombuffer(payload, dtype=dtype)
    planes = []
    offset = 0
    for shape in info.plane_shapes:
        count = shape[0] * shape[1]
        planes.append(samples[offset : offset + count].reshape(shape))
        offset += count
    return FrameBuffer(info=info, planes=tuple(planes), frame_index=frame_index)


class _ReaderBase:
    _container: str

    def __init__(self, source):
        self._owns = isinstance(source, (str, bytes, os.PathLike))
        self._fp = open(source, "rb") if self._owns else source
        self._index = 0

    def close(self):
        if self._owns:
            self._fp.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def read_frame(self) -> FrameBuffer | None:
        frame = read_frame(self._fp, self.info, self._index, self._container)
        if frame is not None:
            self._index += 1
        return frame

    def __iter__(self):
        while True:
            frame = self.read_frame()
            if frame is None:
                return
            yield frame


class Y4MReader(_ReaderBase):
    """Sequential frame reader over a Y4M file or binary stream."""

    _container = "y4m"

    def __init__(self, source):
        super().__init__(source)
        try:
            self.info = parse_y4m_header(self._fp)
        except Exception:
            self.close()
            raise


class RawReader(_ReaderBase):
    """Sequential reader over headerless planar YUV; geometry must be given."""

    _container = "raw"

    def __init__(self, source, info: SequenceInfo):
        super().__init__(source)
        self.info = info


def write_y4m(dest, frames, info: SequenceInfo | None = None) -> int:
    """Write frames as a Y4M stream; returns the number of frames written."""
    owns = isinstance(dest, (str, bytes, os.PathLike))
    fp = open(dest, "wb") if owns else dest
    written = 0
    try:
        for frame in frames:
            if info is None:
                info = frame.info
                fp.write(_format_header(info))
            if (frame.info.width, frame.info.height, frame.info.bit_depth,
                    frame.info.chroma) != (info.width, info.height,
                                           info.bit_depth, info.chroma):
                raise DimensionError(
                    f"frame {frame.frame_index} format differs from stream format"
                )
            fp.write(FRAME_MAGIC + b"\n")
            for plane in frame.planes:
                if info.bit_depth == 8:
                    fp.write(plane.tobytes())
                else:
                    fp.write(np.ascontiguousarray(plane, dtype="<u2").tobytes())
            written += 1
        if info is not None and written == 0:
            fp.write(_format_header(info))
    finally:
        if owns:
            fp.close()
    return written


def _format_header(info: SequenceInfo) -> bytes:
    tag = _WRITE_TAGS[(info.chroma, info.bit_depth)]
    return (
        f"YUV4MPEG2 W{info.width} H{info.height} "
        f"F{info.fps_num}:{info.fps_den} Ip A1:1 C{tag}\n"
    ).encode("ascii")
