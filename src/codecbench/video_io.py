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

from .errors import DataFormatError, InputError
from .report import named_errors, parse_number

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

# Largest single read: stream.read(n) allocates n bytes before it reads, and
# a header may claim any frame size. A 2160p 10-bit 4:4:4 frame is one read.
_READ_CHUNK = 64 << 20
_LINE_LIMIT = 8192  # longest Y4M header or FRAME line, newline included


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
            raise DataFormatError(f"non-positive geometry {self.width}x{self.height}")
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise DataFormatError(
                f"non-positive frame rate {self.fps_num}:{self.fps_den}"
            )
        if self.bit_depth not in (8, 10):
            raise DataFormatError(f"unsupported bit depth {self.bit_depth}")
        if self.chroma not in (CHROMA_420, CHROMA_444):
            raise DataFormatError(f"unsupported chroma layout {self.chroma!r}")
        if self.chroma == CHROMA_420 and (self.width % 2 or self.height % 2):
            raise DataFormatError(
                f"C420 requires even dimensions, got {self.width}x{self.height}"
            )

    def check_compatible(self, other: SequenceInfo):
        """Raise InputError when other, the test side, differs from this
        reference sequence in geometry, bit depth or chroma layout."""
        for what, a, b in (
            ("geometry", f"{self.width}x{self.height}", f"{other.width}x{other.height}"),
            ("bit depth", self.bit_depth, other.bit_depth),
            ("chroma", self.chroma, other.chroma),
        ):
            if a != b:
                raise InputError(f"{what} mismatch: reference {a} vs test {b}")

    @property
    def sample_max(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def dtype(self) -> np.dtype:
        """The sample type in the file: u1, or <u2 (little-endian) for 10-bit."""
        return np.dtype("u1") if self.bit_depth == 8 else np.dtype("<u2")

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
        return sum(h * w for h, w in self.plane_shapes) * self.dtype.itemsize


@dataclass(frozen=True, eq=False)
class FrameBuffer:
    """One decoded picture: immutable Y, U, V sample planes."""

    info: SequenceInfo
    planes: tuple[np.ndarray, np.ndarray, np.ndarray]
    frame_index: int = 0

    def __post_init__(self):
        if len(self.planes) != 3:
            raise InputError(f"expected 3 planes, got {len(self.planes)}")
        for plane, shape, name in zip(self.planes, self.info.plane_shapes, "YUV"):
            if plane.shape != shape:
                raise InputError(
                    f"{name} plane shape {plane.shape} does not match "
                    f"expected {shape}"
                )
            if plane.dtype != self.info.dtype:
                raise InputError(
                    f"{name} plane dtype {plane.dtype} does not match "
                    f"bit depth {self.info.bit_depth}"
                )
        # uint8 cannot exceed an 8-bit range; only wider dtypes need a scan.
        if self.info.bit_depth != 8:
            limit = self.info.sample_max
            for plane, name in zip(self.planes, "YUV"):
                if plane.size and int(plane.max()) > limit:
                    raise DataFormatError(
                        f"frame {self.frame_index}: {name} plane sample "
                        f"{int(plane.max())} exceeds {self.info.bit_depth}-bit "
                        f"maximum {limit}"
                    )
        if self.frame_index < 0:
            raise InputError(f"negative frame index {self.frame_index}")

    @property
    def y(self) -> np.ndarray:
        return self.planes[0]


def _read_line(stream, what: str) -> tuple[bytes, bool]:
    """Bytes up to (excluding) 0x0A as (data, saw_newline); `what` names a long line."""
    line = stream.readline(_LINE_LIMIT)
    if line.endswith(b"\n"):
        return line[:-1], True
    if len(line) >= _LINE_LIMIT:
        raise DataFormatError(f"{what} exceeds {_LINE_LIMIT} bytes")
    return line, False


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(min(remaining, _READ_CHUNK))
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
    line, terminated = _read_line(stream, "header line")
    if not line.startswith(Y4M_MAGIC):
        raise DataFormatError("missing YUV4MPEG2 magic")
    if not terminated:
        raise DataFormatError("unterminated Y4M header line")
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"non-ASCII Y4M header: {exc}") from None

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
                raise DataFormatError(f"unsupported colourspace tag C{value}")
            chroma, bit_depth = _COLORSPACE_TAGS[value]
        elif key == "I":
            if value != "p":
                raise DataFormatError(
                    f"interlaced stream (I{value}) is not supported"
                )
        elif key == "A":
            _parse_ratio(value, "A", allow_zero=True)
        # X extensions and unknown tags are ignored.

    if width is None or height is None or fps is None:
        raise DataFormatError("Y4M header must carry W, H and F tags")
    return SequenceInfo(width, height, fps[0], fps[1], bit_depth, chroma)


def _positive_int(value: str, tag: str) -> int:
    n = parse_number(value, int)
    if n is None:
        raise DataFormatError(f"malformed {tag} tag value {value!r}")
    if n <= 0:
        raise DataFormatError(f"non-positive {tag} tag value {n}")
    return n


def _parse_ratio(value: str, tag: str, allow_zero: bool = False) -> tuple[int, int]:
    num, sep, den = value.partition(":")
    if not sep:
        raise DataFormatError(f"malformed {tag} tag value {value!r} (expected N:D)")
    n, d = parse_number(num, int), parse_number(den, int)
    if n is None or d is None:
        raise DataFormatError(f"malformed {tag} tag value {value!r}")
    if n < 0 or d < 0 or (not allow_zero and (n == 0 or d == 0)):
        raise DataFormatError(f"non-positive {tag} tag value {value!r}")
    return n, d


class _ReaderBase:
    def __init__(self, source):
        self._owns = isinstance(source, (str, bytes, os.PathLike))
        self._fp = open(source, "rb") if self._owns else source
        # Faults name the file: a stream's own name where it has one.
        self._source = getattr(self._fp, "name", source)
        self._index = 0

    def close(self):
        if self._owns:
            self._fp.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def read_frame(self) -> FrameBuffer | None:
        """Read the next frame, or None at a clean end of stream."""
        info = self.info
        with named_errors(self._source):
            payload = self._next_payload()
            if payload is None:
                return None
            if len(payload) != info.frame_bytes:
                raise DataFormatError(
                    f"truncated frame {self._index}: expected {info.frame_bytes} "
                    f"bytes, got {len(payload)}"
                )
            samples = np.frombuffer(payload, dtype=info.dtype)
            planes = []
            offset = 0
            for shape in info.plane_shapes:
                count = shape[0] * shape[1]
                planes.append(samples[offset : offset + count].reshape(shape))
                offset += count
            frame = FrameBuffer(info, tuple(planes), self._index)
        self._index += 1
        return frame

    def __iter__(self):
        # Not a generator: one would hold the last frame while the next is read.
        return iter(self.read_frame, None)


class Y4MReader(_ReaderBase):
    """Sequential frame reader over a Y4M file or binary stream."""

    def __init__(self, source):
        super().__init__(source)
        try:
            with named_errors(self._source):
                self.info = parse_y4m_header(self._fp)
        except Exception:
            self.close()
            raise

    def _next_payload(self) -> bytes | None:
        """The frame after a FRAME line, or None at a clean end of stream."""
        line, terminated = _read_line(self._fp, f"FRAME line at frame {self._index}")
        if not line and not terminated:
            return None
        if not terminated:
            raise DataFormatError(f"unterminated FRAME line at frame {self._index}")
        if line != FRAME_MAGIC and not line.startswith(FRAME_MAGIC + b" "):
            raise DataFormatError(
                f"expected FRAME prefix at frame {self._index}, got {line[:32]!r}"
            )
        return _read_exact(self._fp, self.info.frame_bytes)


class RawReader(_ReaderBase):
    """Sequential reader over headerless planar YUV; geometry must be given."""

    def __init__(self, source, info: SequenceInfo):
        super().__init__(source)
        self.info = info

    def _next_payload(self) -> bytes | None:
        """The next frame's bytes, or None when no byte is left."""
        return _read_exact(self._fp, self.info.frame_bytes) or None
