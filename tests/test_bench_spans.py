"""The benchmark's traced run (bench/spans.py) measures each layer by
replacing module attributes of codecbench with wrappers. These tests keep
the CLI calling through those attributes, so a refactor cannot route
around them unnoticed."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from codecbench.cli import main
from codecbench.video_io import CHROMA_444, RawReader, Y4MReader

from conftest import make_info, random_frame, write_y4m

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclass resolves annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def wrapped_calls(spans):
    """Each LAYER_CALLS entry mapped to whether it is currently wrapped."""
    out = {}
    for module_name, calls in spans.LAYER_CALLS.items():
        module = importlib.import_module(f"codecbench.{module_name}")
        for call in calls:
            owner, _, attr = call.rpartition(".")
            target = getattr(module, owner) if owner else module
            out[f"{module_name}.{call}"] = hasattr(getattr(target, attr), "__wrapped__")
    return out


def test_cli_report_writes_are_traced(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    points = tmp_path / "points.csv"
    rows = ["codec,sequence,metric,label,bitrate_kbps,quality\n"]
    for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]:
        rows.append(f"HM,s1,PSNR,,{rate},{quality}\n")
        rows.append(f"VTM,s1,PSNR,,{rate * 0.8},{quality}\n")
    points.write_text("".join(rows))
    common = ["bdrate", str(points), "--anchor", "HM", "--test", "VTM", "-q"]
    tracer = spans.Tracer()
    with spans.traced_layers(tracer):
        assert all(wrapped_calls(spans).values())
        assert main(common + ["--plot-data", str(tmp_path / "plot.csv"),
                              "-o", str(tmp_path / "bd.json")]) == 0
        assert main(common + ["--format", "csv", "-o", str(tmp_path / "bd.csv")]) == 0
    assert not any(wrapped_calls(spans).values())

    csv_rows = [s.attrs["rows"] for s in tracer.spans if s.name == "report.render_csv"]
    # Two curves of 3 input points and 100 dense samples, then the one delta
    # row and its average row.
    assert csv_rows == [2 * 103, 2]
    assert [s.name for s in tracer.spans].count("report.render_json") == 1
    assert json.loads((tmp_path / "bd.json").read_text())["results"]["deltas"]
    assert len((tmp_path / "plot.csv").read_text().splitlines()) == 1 + 2 * 103


def test_mos_layers_are_traced(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    scores = tmp_path / "scores.csv"
    stimuli = ["p1", "p2", "p3", "p4"]
    scores.write_text("subject," + ",".join(stimuli) + "\n" + "".join(
        f"s{i}," + ",".join(str(20 * j + i) for j in range(1, 5)) + "\n"
        for i in range(5)
    ))
    meta = tmp_path / "meta.csv"
    meta.write_text(
        "pvs,codec,resolution,bitrate_kbps,content\n"
        "p1,HM,HD,1000,CrowdRun\np2,VTM,HD,1000,CrowdRun\n"
        "p3,HM,HD,3000,Drums\np4,VTM,HD,3000,Drums\n"
    )
    tracer = spans.Tracer()
    with spans.traced_layers(tracer):
        assert main(["mos", str(scores), "--pvs-meta", str(meta), "-q",
                     "-o", str(tmp_path / "mos.json")]) == 0
    names = [s.name for s in tracer.spans]
    # The resolution ANOVA fails (one level), but its call is still traced.
    for name, count in [("subjective.load_scores_csv", 1),
                        ("subjective.load_pvs_csv", 1),
                        ("subjective.screen_subjects", 1),
                        ("subjective.mos_point", len(stimuli)),
                        ("subjective.anova_oneway", 4)]:
        assert names.count(name) == count, name


def test_bd_layers_are_traced(tmp_path, monkeypatch):
    # rd.compare and rd.plot_rows call the BD functions through the module,
    # so every pair and every plotted curve shows as a span.
    spans = load_spans(monkeypatch)
    points = tmp_path / "points.csv"
    points.write_text("codec,sequence,metric,label,bitrate_kbps,quality\n" + "".join(
        f"{codec},{seq},{metric},,{rate * scale},{quality}\n"
        for codec, scale in (("HM", 1.0), ("AV1", 0.9), ("VTM", 0.8))
        for seq in ("s2", "s1")
        for metric in ("PSNR", "SSIM")
        for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]
    ))
    tracer = spans.Tracer()
    with spans.traced_layers(tracer):
        assert main(["bdrate", str(points), "--anchor", "HM", "--test", "VTM", "-q",
                     "--plot-data", str(tmp_path / "plot.csv"),
                     "-o", str(tmp_path / "bd.json")]) == 0
    names = [s.name for s in tracer.spans]
    for name, count in [("rd.load_rd_csv", 1), ("rd.bd_rate", 4), ("rd.bd_quality", 4),
                        ("rd.interpolate_log_rate", 8)]:
        assert names.count(name) == count, name


@pytest.mark.parametrize("container", ["y4m", "raw"])
def test_video_layers_are_traced(tmp_path, monkeypatch, rng, container):
    # Every read, the end-of-stream read of each side included, is one
    # read_frame span carrying the bytes it returned; each pair is one SSIM.
    spans = load_spans(monkeypatch)
    frames = 3
    if container == "y4m":
        info = make_info(16, 16)
        flags = []
    else:
        info = make_info(16, 16, bit_depth=10, chroma=CHROMA_444)
        flags = ["--width", "16", "--height", "16", "--bit-depth", "10",
                 "--fps", "50", "--chroma", "444"]
    paths = []
    for name in ("ref", "test"):
        clip = [random_frame(info, rng, i) for i in range(frames)]
        path = tmp_path / f"{name}.{container}"
        if container == "y4m":
            write_y4m(path, clip)
        else:
            path.write_bytes(b"".join(p.tobytes() for f in clip for p in f.planes))
        paths.append(str(path))
    originals = (Y4MReader.read_frame, RawReader.read_frame)
    tracer = spans.Tracer()
    with spans.traced_layers(tracer):
        assert all(wrapped_calls(spans).values())
        assert main(["metrics", *paths, *flags, "-q", "-o", str(tmp_path / "r.json")]) == 0
    assert (Y4MReader.read_frame, RawReader.read_frame) == originals
    assert not any(wrapped_calls(spans).values())

    reads = [s.attrs["bytes"] for s in tracer.spans if s.name == "video_io.read_frame"]
    # Reference and test are read in turn, one frame each, then each ends.
    assert reads == [info.frame_bytes] * (2 * frames) + [0, 0]
    names = [s.name for s in tracer.spans]
    assert names.count("metrics.ssim_frame") == frames
    assert names.count("metrics.sequence_quality") == 1
