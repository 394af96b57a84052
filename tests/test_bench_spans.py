"""The benchmark's traced run (bench/spans.py) measures each layer by
replacing module attributes of codecbench with wrappers. These tests keep
the CLI calling through those attributes, so a refactor cannot route
around them unnoticed."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from codecbench.cli import main

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
