"""codecbench: codec evaluation toolkit.

Objective video quality metrics (PSNR, weighted PSNR, SSIM, SI/TI),
Bjøntegaard rate-distortion deltas, subjective score statistics with
outlier screening and one-way ANOVA, and encoder/decoder complexity
analysis from timing data and Callgrind profiles.

Names are re-exported lazily (PEP 562): a submodule is imported on the
first access to one of its names, so `import codecbench` loads neither
numpy nor scipy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it; each submodule maps to itself.
_LAZY = {
    **{m: m for m in (
        "errors", "metrics", "profiling", "rd", "report", "subjective", "video_io",
    )},
    **dict.fromkeys(("CodecBenchError", "DataFormatError", "InputError"), "errors"),
    **dict.fromkeys(
        (
            "ContentFeatures", "SequenceQuality", "content_features",
            "ingest_external_scores", "mse", "psnr_from_mse", "sequence_quality",
            "spatial_info", "ssim_frame", "temporal_info", "wpsnr",
        ),
        "metrics",
    ),
    **dict.fromkeys(
        (
            "FunctionCost", "StageMapping", "StageProfile", "TimingRecord",
            "aggregate_stages", "parse_callgrind", "speedup", "time_factor",
        ),
        "profiling",
    ),
    **dict.fromkeys(
        ("BDResult", "RDCurve", "RDPoint", "bd_quality", "bd_rate", "validate_curve"),
        "rd",
    ),
    **dict.fromkeys(
        (
            "AnovaResult", "MosPoint", "ScoreMatrix", "ScreeningResult",
            "StimulusInfo", "anova_oneway", "ci95", "mos", "pearson",
            "screen_subjects", "spearman",
        ),
        "subjective",
    ),
    **dict.fromkeys(
        (
            "FrameBuffer", "RawReader", "SequenceInfo", "Y4MReader",
            "parse_y4m_header", "read_frame", "write_y4m",
        ),
        "video_io",
    ),
}

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


def __getattr__(name):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{owner}")
    if name == owner:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
