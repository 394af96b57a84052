"""codecbench: codec evaluation toolkit.

Objective video quality metrics (PSNR, weighted PSNR, SSIM),
Bjøntegaard rate-distortion deltas, subjective score statistics with
outlier screening and one-way ANOVA, and encoder/decoder complexity
analysis from timing data and Callgrind profiles.

Names are re-exported lazily (PEP 562): a submodule is imported on the
first access to one of its names, so `import codecbench` loads neither
numpy nor scipy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines, in `__all__` order.
_EXPORTS = {
    "errors": ("CodecBenchError", "DataFormatError", "InputError"),
    "video_io": (
        "SequenceInfo", "FrameBuffer", "Y4MReader", "RawReader",
        "parse_y4m_header", "read_frame",
    ),
    "metrics": (
        "mse", "psnr_from_mse", "wpsnr", "ssim_frame", "sequence_quality",
        "ingest_external_scores", "SequenceQuality",
    ),
    "rd": (
        "RDPoint", "RDCurve", "BDResult", "bd_rate", "bd_quality",
        "interpolate_log_rate",
    ),
    "subjective": (
        "ScoreMatrix", "StimulusInfo", "MosPoint", "ScreeningResult", "AnovaResult",
        "mos", "ci95", "pearson", "spearman", "screen_subjects", "anova_oneway",
    ),
    "profiling": (
        "TimingRecord", "StageMapping", "StageProfile",
        "time_factor", "speedup", "parse_callgrind", "aggregate_stages",
    ),
    "report": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{owner}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNER})
