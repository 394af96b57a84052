from pathlib import Path

import numpy as np
import pytest

from codecbench.video_io import CHROMA_420, FrameBuffer, SequenceInfo


def make_info(width=64, height=64, fps=(50, 1), bit_depth=8, chroma=CHROMA_420):
    return SequenceInfo(
        width=width,
        height=height,
        fps_num=fps[0],
        fps_den=fps[1],
        bit_depth=bit_depth,
        chroma=chroma,
    )


def make_frame(info, y, u=None, v=None, frame_index=0):
    """Build a FrameBuffer from arrays; chroma defaults to zero planes."""
    shapes = info.plane_shapes
    dtype = info.dtype
    y = np.asarray(y, dtype=dtype).reshape(shapes[0])
    u = np.zeros(shapes[1], dtype) if u is None else np.asarray(u, dtype).reshape(shapes[1])
    v = np.zeros(shapes[2], dtype) if v is None else np.asarray(v, dtype).reshape(shapes[2])
    return FrameBuffer(info=info, planes=(y, u, v), frame_index=frame_index)


def random_frame(info, rng, frame_index=0):
    hi = info.sample_max + 1
    shapes = info.plane_shapes
    planes = tuple(
        rng.integers(0, hi, size=shape).astype(info.dtype) for shape in shapes
    )
    return FrameBuffer(info=info, planes=planes, frame_index=frame_index)


def offset_frame(frame, delta):
    """Add a constant to every sample; caller keeps values in range."""
    planes = tuple(
        (p.astype(np.int64) + delta).astype(p.dtype) for p in frame.planes
    )
    return FrameBuffer(info=frame.info, planes=planes, frame_index=frame.frame_index)


def write_y4m(dest, frames, info=None):
    """Write frames as a Y4M file (dest a path) or into a binary stream: the
    one writer of the tests' videos. The header is info's when given, so a
    stream may hold no frames, else the first frame's."""
    frames = list(frames)
    info = info or frames[0].info
    tag = info.chroma[1:] + ("p10" if info.bit_depth == 10 else "")
    chunks = [f"YUV4MPEG2 W{info.width} H{info.height} "
              f"F{info.fps_num}:{info.fps_den} Ip A1:1 C{tag}\n".encode("ascii")]
    for frame in frames:
        chunks += [b"FRAME\n", *(plane.tobytes() for plane in frame.planes)]
    if hasattr(dest, "write"):
        dest.write(b"".join(chunks))
    else:
        Path(dest).write_bytes(b"".join(chunks))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
