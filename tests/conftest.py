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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
