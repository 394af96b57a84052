"""codecbench: codec evaluation toolkit.

Objective video quality metrics (PSNR, weighted PSNR, SSIM, SI/TI),
Bjøntegaard rate-distortion deltas, subjective score statistics with
outlier screening and one-way ANOVA, and encoder/decoder complexity
analysis from timing data and Callgrind profiles.
"""

__version__ = "0.1.0"

from .errors import CodecBenchError, DataFormatError, InputError
from .metrics import (
    ContentFeatures,
    SequenceQuality,
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
from .profiling import (
    FunctionCost,
    StageMapping,
    StageProfile,
    TimingRecord,
    aggregate_stages,
    parse_callgrind,
    speedup,
    time_factor,
)
from .rd import BDResult, RDCurve, RDPoint, bd_quality, bd_rate, validate_curve
from .subjective import (
    AnovaResult,
    MosPoint,
    ScoreMatrix,
    ScreeningResult,
    StimulusInfo,
    anova_oneway,
    ci95,
    mos,
    pearson,
    screen_subjects,
    spearman,
)
from .video_io import (
    FrameBuffer,
    RawReader,
    SequenceInfo,
    Y4MReader,
    parse_y4m_header,
    read_frame,
    write_y4m,
)

__all__ = [
    "__version__",
    "CodecBenchError",
    "DataFormatError",
    "InputError",
    "SequenceInfo",
    "FrameBuffer",
    "Y4MReader",
    "RawReader",
    "parse_y4m_header",
    "read_frame",
    "write_y4m",
    "mse",
    "psnr_from_mse",
    "wpsnr",
    "ssim_frame",
    "sequence_quality",
    "spatial_info",
    "temporal_info",
    "content_features",
    "ingest_external_scores",
    "SequenceQuality",
    "ContentFeatures",
    "RDPoint",
    "RDCurve",
    "BDResult",
    "validate_curve",
    "bd_rate",
    "bd_quality",
    "ScoreMatrix",
    "StimulusInfo",
    "MosPoint",
    "ScreeningResult",
    "AnovaResult",
    "mos",
    "ci95",
    "pearson",
    "spearman",
    "screen_subjects",
    "anova_oneway",
    "TimingRecord",
    "FunctionCost",
    "StageMapping",
    "StageProfile",
    "time_factor",
    "speedup",
    "parse_callgrind",
    "aggregate_stages",
]
