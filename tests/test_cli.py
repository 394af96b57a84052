import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import codecbench
from codecbench import metrics
from codecbench.cli import build_parser, main
from codecbench.rd import RD_CSV_COLUMNS
from codecbench.report import normalize_floats
from codecbench.video_io import CHROMA_444, Y4MReader

from conftest import make_info, offset_frame, random_frame, write_y4m

RD_HEADER = "codec,sequence,metric,label,bitrate_kbps,quality\n"
TIMING_HEADER = "codec,sequence,qp,wall_seconds,frame_count,fps_num,fps_den\n"


def write_pair(tmp_path, rng, frames=3, width=32, height=32, bit_depth=8, delta=0):
    info = make_info(width, height, bit_depth=bit_depth)
    limit = info.sample_max - delta if delta else info.sample_max + 1
    ref = []
    for i in range(frames):
        frame = random_frame(info, rng, i)
        if delta:
            clipped = tuple(np.minimum(p, limit).astype(p.dtype) for p in frame.planes)
            frame = type(frame)(info=info, planes=clipped, frame_index=i)
        ref.append(frame)
    test = [offset_frame(f, delta) for f in ref] if delta else ref
    ref_path, test_path = tmp_path / "ref.y4m", tmp_path / "test.y4m"
    write_y4m(ref_path, ref)
    write_y4m(test_path, test)
    return ref_path, test_path


def main_with_fifo(argv, fifo, data):
    """main(argv) while a writer thread feeds data through a FIFO made at
    fifo. A reader still waiting to open the FIFO after 10 s is given end of
    file, so a reader that opens the FIFO twice fails instead of hanging."""
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fp:
            fp.write(data)

    def release():
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))

    writer = threading.Thread(target=write, daemon=True)
    watchdog = threading.Timer(10, release)
    writer.start()
    watchdog.start()
    try:
        rc = main(argv)
    finally:
        watchdog.cancel()
    writer.join(10)
    assert not writer.is_alive()
    return rc


class TestMetricsCommand:
    def test_identical_pair(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng)
        out = tmp_path / "report.json"
        rc = main(["metrics", str(ref), str(test), "--output", str(out), "--quiet"])
        assert rc == 0
        doc = json.loads(out.read_text())
        psnr_y = next(
            m for m in doc["results"]["metrics"] if m["metric"] == "PSNR_Y"
        )
        assert psnr_y["mean"] == 100.0
        assert psnr_y["clamp_applied"] is True
        assert doc["results"]["frame_count"] == 3
        assert doc["schema_version"] == 1

    def test_geometry_mismatch_exit_2(self, tmp_path, rng, capsys):
        ref, _ = write_pair(tmp_path, rng, width=32, height=32)
        info = make_info(16, 16)
        other = tmp_path / "other.y4m"
        write_y4m(other, [random_frame(info, rng)])
        rc = main(["metrics", str(ref), str(other), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "32x32" in err and "16x16" in err
        # Same size and bit depth, other chroma layout: caught at the first frame pair.
        write_y4m(other, [random_frame(make_info(32, 32, chroma=CHROMA_444), rng)])
        assert main(["metrics", str(ref), str(other), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "chroma mismatch" in err and len(err.splitlines()) == 1
        # Same size and chroma layout, other bit depth.
        write_y4m(other, [random_frame(make_info(32, 32, bit_depth=10), rng)])
        assert main(["metrics", str(ref), str(other), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "codecbench: error: bit depth mismatch: reference 8 vs test 10\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_clamp_exit_2(self, tmp_path, rng, capsys, value):
        ref, test = write_pair(tmp_path, rng)
        rc = main(["metrics", str(ref), str(test), f"--clamp-db={value}", "--quiet"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"codecbench: error: --clamp-db must be a finite number, got {value!r}\n"
        )

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, rng, capsys, value):
        ref, test = write_pair(tmp_path, rng)
        rc = main(["metrics", str(ref), str(test), "--jobs", value, "--quiet"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = f"codecbench: error: --jobs must be at least 1, got {value}\n"
        assert captured.err == expected

    def test_jobs_handed_on_as_given(self, tmp_path, rng, monkeypatch):
        # sequence_quality applies the CPU cap, so the CLI passes --jobs on
        # unchanged, as the jobs= keyword.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        ref, test = write_pair(tmp_path, rng, frames=1)
        seen = []

        def record(ref_source, test_source, metric_ids, **kwargs):
            seen.append(kwargs["jobs"])
            return {m: metrics.SequenceQuality(metric_id=m, frame_values=(1.0,))
                    for m in metric_ids}

        monkeypatch.setattr(metrics, "sequence_quality", record)
        rc = main([
            "metrics", str(ref), str(test), "--jobs", "4",
            "--output", str(tmp_path / "report.json"), "--quiet",
        ])
        assert (rc, seen) == (0, [4])

    @pytest.mark.parametrize("requested,expected", [(1, 1), (3, 3), (4, 3), (10**6, 3)])
    def test_jobs_capped_at_cpu_count(
        self, tmp_path, rng, monkeypatch, requested, expected
    ):
        # End to end: --jobs reaches sequence_quality, which runs one pool of
        # at most the three usable CPUs, one worker included. The spy records
        # the pool size asked for but starts at most 4 threads itself.
        import concurrent.futures

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        sizes = []

        class Spy(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(min(max_workers, 4), *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        ref, test = write_pair(tmp_path, rng, frames=3)
        rc = main([
            "metrics", str(ref), str(test), "--jobs", str(requested),
            "--output", str(tmp_path / "report.json"), "--quiet",
        ])
        assert (rc, sizes) == (0, [expected])

    def test_raw_without_geometry_flags_exit_2(self, tmp_path, rng, capsys):
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(bytes(64 * 64 * 3 // 2))
        rc = main(["metrics", str(raw), str(raw), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        for flag in ("--width", "--height", "--bit-depth", "--fps"):
            assert flag in err

    def test_raw_with_flags(self, tmp_path):
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(bytes(64 * 64 * 3 // 2 * 2))
        out = tmp_path / "report.json"
        rc = main([
            "metrics", str(raw), str(raw),
            "--width", "64", "--height", "64", "--bit-depth", "8", "--fps", "50",
            "--metrics", "psnr_y", "--output", str(out), "--quiet",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["frame_count"] == 2

    def test_header_tags_split_by_two_spaces(self, tmp_path):
        header = b"YUV4MPEG2 W2  H2 F1:1\n"
        ref, test = tmp_path / "ref.y4m", tmp_path / "test.y4m"
        ref.write_bytes(header + b"FRAME\n" + bytes(6))
        test.write_bytes(header + b"FRAME\n" + bytes([1, 1, 1, 1, 0, 0]))
        out = tmp_path / "r.json"
        assert main(["metrics", str(ref), str(test), "--metrics", "psnr_y",
                     "-q", "-o", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["frame_count"] == 1
        assert results["metrics"][0]["mean"] == pytest.approx(10 * math.log10(255**2))

    def test_malformed_header_exit_3(self, tmp_path, rng):
        bad = tmp_path / "bad.y4m"
        bad.write_bytes(b"YUV4MPEG2 W0 H64 F25:1 C420\n")
        ref, _ = write_pair(tmp_path, rng)
        assert main(["metrics", str(bad), str(ref), "--quiet"]) == 3

    def test_missing_file_exit_2(self, tmp_path, rng):
        ref, _ = write_pair(tmp_path, rng)
        assert main(["metrics", str(ref), str(tmp_path / "nope.y4m"), "--quiet"]) == 2

    def test_per_frame_csv(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng, delta=1)
        per_frame = tmp_path / "frames.csv"
        rc = main([
            "metrics", str(ref), str(test), "--metrics", "psnr_y",
            "--per-frame", str(per_frame), "--output", str(tmp_path / "r.json"),
            "--quiet",
        ])
        assert rc == 0
        lines = per_frame.read_text().strip().splitlines()
        assert lines[0] == "frame,PSNR_Y"
        assert len(lines) == 4

    def test_per_frame_csv_full_precision(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng, delta=2)
        per_frame, out = tmp_path / "frames.csv", tmp_path / "r.json"
        rc = main([
            "metrics", str(ref), str(test), "--metrics", "ssim",
            "--per-frame", str(per_frame), "--output", str(out), "--quiet",
            "--full-precision",
        ])
        assert rc == 0
        values = [float(line.split(",")[1])
                  for line in per_frame.read_text().splitlines()[1:]]
        assert any(normalize_floats(v) != v for v in values)
        mean = json.loads(out.read_text())["results"]["metrics"][0]["mean"]
        assert mean == sum(values) / len(values)

    def test_non_utf8_external_exit_3(self, tmp_path, rng, capsys):
        ref, test = write_pair(tmp_path, rng)
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"frame,score\n0,9\xff\n")
        rc = main(["metrics", str(ref), str(test), "--external", str(scores), "-q"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("codecbench: format error:")
        assert len(err.splitlines()) == 1

    def test_empty_external_fails_before_any_frame(self, tmp_path, rng, monkeypatch,
                                                   capsys):
        # The score file is read before the videos: an empty one is a format
        # error named by its file, and no frame is computed, even when the
        # test video is missing too.
        ref, _ = write_pair(tmp_path, rng)
        scores = tmp_path / "empty.csv"
        scores.write_text("frame,score\n")
        computed = []
        monkeypatch.setattr(metrics, "_frame_pair_metrics",
                            lambda *args: computed.append(args))
        for test in (ref, tmp_path / "missing.y4m"):
            rc = main(["metrics", str(ref), str(test), "--metrics", "psnr_y",
                       "--external", str(scores), "-o", str(tmp_path / "r.json")])
            assert (rc, computed) == (3, [])
            assert capsys.readouterr().err == (
                f"codecbench: format error: {scores}: no scores present\n")

    def test_external_scores_attached(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng)
        vmaf = tmp_path / "vmaf.json"
        vmaf.write_text(json.dumps({
            "frames": [{"metrics": {"vmaf": v}} for v in (90.0, 92.0, 94.0)]
        }))
        out = tmp_path / "report.json"
        rc = main([
            "metrics", str(ref), str(test), "--metrics", "psnr_y",
            "--external", str(vmaf), "--output", str(out), "--quiet",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        ext = next(
            m for m in doc["results"]["metrics"] if m["metric"] == "EXTERNAL:vmaf"
        )
        assert ext["mean"] == 92.0

    def test_external_count_mismatch_warns(self, tmp_path, rng):
        # One rule for every series: a count other than the video's 3 frames
        # is warned of, the mean is over the present scores, and --per-frame
        # leaves the column out, whatever the worker count.
        ref, test = write_pair(tmp_path, rng, delta=1)
        scores, per_frame = tmp_path / "scores.csv", tmp_path / "frames.csv"
        argv = ["metrics", str(ref), str(test), "--metrics", "psnr_y",
                "--external", str(scores), "--quiet"]
        for values in [(90.0, 92.0), (90.0, 92.0, 94.0, 100.0)]:
            scores.write_text("frame,score\n"
                              + "".join(f"{i},{v}\n" for i, v in enumerate(values)))
            outputs = []
            for jobs in ("1", "2"):
                out = tmp_path / f"report{jobs}.json"
                assert main(argv + ["--per-frame", str(per_frame), "--output", str(out),
                                    "--jobs", jobs]) == 0
                doc = json.loads(out.read_text())
                del doc["command"]
                outputs.append((doc, per_frame.read_text()))
            assert outputs[0] == outputs[1]
            doc, frames_csv = outputs[0]
            message = (f"EXTERNAL:score: {len(values)} values for 3 frames; "
                       "mean taken over present values")
            assert doc["warnings"] == [message + "; column left out of --per-frame"]
            ext = doc["results"]["metrics"][1]
            assert ext["metric"] == "EXTERNAL:score"
            assert (ext["mean"], ext["frames"]) == (sum(values) / len(values), len(values))
            assert frames_csv.splitlines()[0] == "frame,PSNR_Y"
            assert len(frames_csv.splitlines()) == 4
            out = tmp_path / "bare.json"
            assert main(argv + ["--output", str(out)]) == 0
            assert json.loads(out.read_text())["warnings"] == [message]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    @pytest.mark.parametrize("container", ["y4m", "raw"])
    @pytest.mark.parametrize("side", [0, 1], ids=["reference", "test"])
    def test_input_through_a_fifo(self, tmp_path, rng, container, side):
        # Each input is opened once, so a pipe's first bytes are read by the
        # reader that peeked them. The FIFO's name has no extension: a Y4M
        # stream is known by its magic alone.
        paths = list(write_pair(tmp_path, rng, delta=2))
        flags = []
        if container == "raw":
            for i, path in enumerate(paths):
                with Y4MReader(path) as reader:
                    data = b"".join(p.tobytes() for f in reader for p in f.planes)
                paths[i] = path.with_suffix(".yuv")
                paths[i].write_bytes(data)
            flags = ["--width", "32", "--height", "32", "--bit-depth", "8", "--fps", "25"]

        def run(inputs, name, feed=None):
            out, frames = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            argv = (["metrics", *map(str, inputs), *flags, "--metrics", "psnr,ssim",
                     "--per-frame", str(frames), "--output", str(out), "--quiet"])
            rc = main_with_fifo(argv, inputs[side], feed) if feed else main(argv)
            assert rc == 0
            doc = json.loads(out.read_text())
            del doc["command"]
            # Only the input names may differ, and a FIFO has no size to give.
            names = [doc["results"].pop(role) for role in ("reference", "test")]
            assert names == list(map(str, inputs))
            assert doc.pop("inputs") == [
                {"name": str(p), "bytes": None if p == fifo else p.stat().st_size}
                for p in inputs
            ]
            return doc, frames.read_text()

        fifo = tmp_path / "pipe"
        inputs = [fifo if i == side else p for i, p in enumerate(paths)]
        assert run(inputs, "fifo", paths[side].read_bytes()) == run(paths, "regular")

    def test_deterministic_outputs(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng, delta=2)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["metrics", str(ref), str(test), "--quiet"]
        assert main(argv + ["--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b)]) == 0
        a = out_a.read_text().replace("a.json", "X")
        b = out_b.read_text().replace("b.json", "X")
        assert a == b

    def test_csv_format(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng)
        out = tmp_path / "report.csv"
        rc = main([
            "metrics", str(ref), str(test), "--metrics", "psnr_y",
            "--format", "csv", "--output", str(out), "--quiet",
        ])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "metric,mean,frames,clamp_applied"

    def test_ten_bit_pair(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng, bit_depth=10, delta=1)
        out = tmp_path / "report.json"
        rc = main([
            "metrics", str(ref), str(test), "--output", str(out), "--quiet",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["geometry"]["bit_depth"] == 10
        psnr_y = next(
            m for m in doc["results"]["metrics"] if m["metric"] == "PSNR_Y"
        )
        assert psnr_y["mean"] == pytest.approx(60.1975, abs=1e-3)

    def test_report_to_stdout(self, tmp_path, rng, capsys):
        ref, test = write_pair(tmp_path, rng)
        rc = main(["metrics", str(ref), str(test), "--metrics", "psnr_y"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["frame_count"] == 3

    def test_report_embeds_decision_notes(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng)
        out = tmp_path / "report.json"
        main(["metrics", str(ref), str(test), "--output", str(out), "--quiet"])
        notes = " ".join(json.loads(out.read_text())["notes"])
        assert "100" in notes and "SSIM" in notes


def write_rd_csv(path, rows):
    path.write_text(RD_HEADER + "".join(rows))


class TestBdrateCommand:
    def test_identical_pair_zero(self, tmp_path):
        points = tmp_path / "points.csv"
        rows = []
        for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]:
            rows.append(f"HM,s1,PSNR,,{rate},{quality}\n")
            rows.append(f"VTM,s1,PSNR,,{rate},{quality}\n")
        write_rd_csv(points, rows)
        out = tmp_path / "bd.json"
        rc = main([
            "bdrate", str(points), "--anchor", "HM", "--test", "VTM",
            "--output", str(out), "--quiet",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["deltas"][0]["bd_rate_percent"] == 0.0
        assert doc["results"]["averages"][0]["bd_rate_percent"] == 0.0

    def test_average_row_is_mean(self, tmp_path):
        points = tmp_path / "points.csv"
        rows = []
        for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]:
            rows.append(f"HM,s1,PSNR,,{rate},{quality}\n")
            rows.append(f"VTM,s1,PSNR,,{rate * 0.9},{quality}\n")
            rows.append(f"HM,s2,PSNR,,{rate},{quality}\n")
            rows.append(f"VTM,s2,PSNR,,{rate * 0.7},{quality}\n")
        write_rd_csv(points, rows)
        out = tmp_path / "bd.json"
        rc = main([
            "bdrate", str(points), "--anchor", "HM", "--test", "VTM",
            "--output", str(out), "--quiet", "--full-precision",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        deltas = {d["sequence"]: d["bd_rate_percent"] for d in doc["results"]["deltas"]}
        assert deltas["s1"] == pytest.approx(-10.0, abs=1e-9)
        assert deltas["s2"] == pytest.approx(-30.0, abs=1e-9)
        assert doc["results"]["averages"][0]["bd_rate_percent"] == pytest.approx(
            -20.0, abs=1e-9
        )

    def test_average_of_huge_deltas_stays_finite(self, tmp_path):
        # Each sequence's BD-rate is about +1e308%: their sum overflows, their mean does not.
        points = tmp_path / "points.csv"
        write_rd_csv(points, [
            f"{codec},{seq},PSNR,,{rate},{quality + shift}\n"
            for seq in ("s1", "s2")
            for codec, shift in (("A", 0.0), ("B", -10.2))
            for rate, quality in (("1e-300", 10), ("1", 20), ("1e300", 30))
        ])
        out = tmp_path / "bd.json"
        rc = main(["bdrate", str(points), "--anchor", "A", "--test", "B",
                   "--output", str(out), "--quiet"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [d["bd_rate_percent"] for d in doc["results"]["deltas"]] == [1e308] * 2
        assert doc["results"]["averages"][0]["bd_rate_percent"] == 1e308

    def test_ssim_scale_curves(self, tmp_path):
        # SSIM spans 0.06 here: the overlap floor is a share of that span,
        # not a width in dB.
        points = tmp_path / "points.csv"
        write_rd_csv(points, [
            f"{codec},s1,SSIM,,{rate * scale},{quality}\n"
            for codec, scale in (("HM", 1.0), ("VTM", 0.7))
            for rate, quality in [(1000, 0.92), (2000, 0.95), (4000, 0.97), (8000, 0.98)]
        ])
        out = tmp_path / "bd.json"
        rc = main(["bdrate", str(points), "--anchor", "HM", "--test", "VTM",
                   "--output", str(out), "--quiet", "--full-precision"])
        assert rc == 0
        [delta] = json.loads(out.read_text())["results"]["deltas"]
        assert delta["bd_rate_percent"] == pytest.approx(-30.0, abs=1e-9)

    @pytest.mark.parametrize(("test_curve", "message"), [
        (lambda rate, quality: (rate, quality + 100),
         "s2/PSNR: BD-rate: curves do not overlap (gap of 90) on the quality axis; "
         "BD needs more than 1, 10% of the narrower span"),
        (lambda rate, quality: (rate * 9, quality),
         "s2/PSNR: BD-quality: curves do not overlap (gap of 0.352183) on the "
         "log-rate axis; BD needs more than 0.060206, 10% of the narrower span"),
    ], ids=["bd_rate", "bd_quality"])
    def test_failing_pair_is_named(self, tmp_path, capsys, test_curve, message):
        points = tmp_path / "points.csv"
        write_rd_csv(points, [
            f"{codec},{seq},PSNR,,{rate},{quality}\n"
            for seq in ("s1", "s2", "s3")
            for codec in ("HM", "VTM")
            for rate, quality in [
                test_curve(r, q) if (codec, seq) == ("VTM", "s2") else (r, q)
                for r, q in [(1000, 30), (2000, 35), (4000, 40)]]
        ])
        rc = main(["bdrate", str(points), "--anchor", "HM", "--test", "VTM", "-q"])
        assert rc == 2
        assert capsys.readouterr().err == f"codecbench: error: {message}\n"

    @pytest.mark.parametrize(
        "content",
        [(RD_HEADER + "HM,s1,PSNR,,1000,30\nHM,s1,PSNR,,2000,nan\n").encode(),
         RD_HEADER.encode() + b"HM,s1,PSNR,\xe9,1000,30\n"],
        ids=["nan_quality", "non_utf8"],
    )
    def test_bad_points_exit_3(self, tmp_path, capsys, content):
        points = tmp_path / "points.csv"
        points.write_bytes(content)
        rc = main(["bdrate", str(points), "--anchor", "HM", "--test", "VTM", "-q"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("codecbench: format error:")
        assert len(err.splitlines()) == 1

    def test_repeated_quality_column_exit_3(self, tmp_path, capsys):
        """A second `quality` column is refused, not read past: both curves
        would give a BD-rate from either column."""
        points = tmp_path / "points.csv"
        points.write_text(RD_HEADER.replace("quality", "quality,quality") + "".join(
            f"{codec},s1,PSNR,,{rate * scale},{quality},{quality + 1}\n"
            for codec, scale in (("HM", 1), ("VTM", 0.8))
            for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]
        ))
        rc = main(["bdrate", str(points), "--anchor", "HM", "--test", "VTM", "-q"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"codecbench: format error: {points}: repeated column 'quality'\n"
        )

    def test_orphan_curves_exit_2(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        write_rd_csv(points, [
            f"{codec},{seq},PSNR,,{rate},{quality}\n"
            for codec, seq in (("HM", "s1"), ("HM", "s2"), ("VTM", "s1"))
            for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]
        ])
        rc = main(["bdrate", str(points), "--anchor", "HM", "--test", "VTM", "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "codecbench: error: curves without a counterpart: s2/PSNR\n"
        )

    @pytest.mark.parametrize(
        ("anchor", "test", "message"),
        [("HM", "HM", "--anchor and --test name the same codec 'HM'"),
         ("HM", "VTM", "no curves for test codec 'VTM' (codecs in file: HM, JM)"),
         ("AV1", "HM", "no curves for anchor codec 'AV1' (codecs in file: HM, JM)")],
        ids=["same_codec", "no_test_rows", "no_anchor_rows"],
    )
    def test_codec_names_exit_2(self, tmp_path, capsys, anchor, test, message):
        points = tmp_path / "points.csv"
        write_rd_csv(points, [
            f"{codec},s1,PSNR,,{rate},{quality}\n"
            for codec in ("HM", "JM")
            for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]
        ])
        rc = main(["bdrate", str(points), "--anchor", anchor, "--test", test, "-q"])
        assert rc == 2
        assert capsys.readouterr().err == f"codecbench: error: {message}\n"

    def test_empty_points_file_exit_2(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        write_rd_csv(points, [])
        rc = main(["bdrate", str(points), "--anchor", "HM", "--test", "VTM", "-q"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "codecbench: error: no curves for anchor codec 'HM' (codecs in file: none)\n"
        )

    def test_plot_data(self, tmp_path):
        points = tmp_path / "points.csv"
        rows = []
        for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]:
            rows.append(f"HM,s1,PSNR,,{rate},{quality}\n")
            rows.append(f"VTM,s1,PSNR,,{rate * 0.8},{quality}\n")
        write_rd_csv(points, rows)
        plot = tmp_path / "plot.csv"
        rc = main([
            "bdrate", str(points), "--anchor", "HM", "--test", "VTM",
            "--plot-data", str(plot), "--output", str(tmp_path / "bd.json"),
            "--quiet",
        ])
        assert rc == 0
        lines = plot.read_text().strip().splitlines()
        assert lines[0] == "codec,sequence,metric,quality,log10_rate_kbps,interpolated"
        flags = {line.split(",")[-1] for line in lines[1:]}
        assert flags == {"0", "1"}

    def test_both_axes_warnings_reported(self, tmp_path):
        # Rates x 0.8 shift the test curve out of part of the log-rate range:
        # bd_quality's warnings follow bd_rate's for each pair.
        points = tmp_path / "points.csv"
        write_rd_csv(points, [
            f"{codec},s1,PSNR,,{rate * scale},{quality}\n"
            for codec, scale in (("HM", 1.0), ("VTM", 0.8))
            for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]
        ])
        out = tmp_path / "bd.json"
        rc = main(["bdrate", str(points), "--anchor", "HM", "--test", "VTM",
                   "--output", str(out), "--quiet"])
        assert rc == 0
        warnings = json.loads(out.read_text())["warnings"]
        assert warnings == [
            "s1/PSNR: anchor point (bitrate=4000, quality=40) lies outside the "
            "log-rate overlap [3, 3.50515]",
            "s1/PSNR: test point (bitrate=800, quality=30) lies outside the "
            "log-rate overlap [3, 3.50515]",
        ]

    def test_plot_data_reuses_the_bd_rate_fits(self, tmp_path, monkeypatch):
        # Each curve fits quality -> log-rate once for bd_rate and the plot,
        # and log-rate -> quality once for bd_quality.
        from codecbench import rd

        built = []

        class CountedPchip(rd._Pchip):
            def __init__(self, x, y):
                built.append(x)
                super().__init__(x, y)

        monkeypatch.setattr(rd, "_Pchip", CountedPchip)
        points = tmp_path / "points.csv"
        write_rd_csv(points, [
            f"{codec},{seq},{metric},,{rate * scale},{q + offset}\n"
            for codec, scale in (("HM", 1.0), ("VTM", 0.8), ("AV1", 0.9))
            for seq, offset in (("s1", 0), ("s2", 3))
            for metric in ("PSNR", "SSIM")
            for rate, q in ((1000, 30), (2000, 35), (4000, 40), (8000, 45))
        ])
        rc = main([
            "bdrate", str(points), "--anchor", "HM", "--test", "VTM",
            "--plot-data", str(tmp_path / "plot.csv"),
            "--output", str(tmp_path / "bd.json"), "--quiet",
        ])
        assert rc == 0
        assert len(built) == 2 * 8


def write_panel(tmp_path, reversed_subject=False):
    scores = tmp_path / "scores.csv"
    stimuli = ["p1", "p2", "p3", "p4"]
    lines = ["subject," + ",".join(stimuli) + "\n"]
    base = [20.0, 40.0, 60.0, 80.0]
    for i in range(9):
        lines.append(f"s{i}," + ",".join(str(v + i) for v in base) + "\n")
    if reversed_subject:
        lines.append("s9," + ",".join(str(100 - v) for v in base) + "\n")
    else:
        lines.append("s9," + ",".join(str(v + 9) for v in base) + "\n")
    scores.write_text("".join(lines))

    meta = tmp_path / "meta.csv"
    meta.write_text(
        "pvs,codec,resolution,bitrate_kbps,content\n"
        "p1,HM,HD,1000,CrowdRun\n"
        "p2,VTM,HD,1000,CrowdRun\n"
        "p3,HM,HD,3000,Drums\n"
        "p4,VTM,HD,3000,Drums\n"
    )
    return scores, meta


class TestMosCommand:
    def test_consistent_panel(self, tmp_path):
        scores, meta = write_panel(tmp_path)
        out = tmp_path / "mos.json"
        rc = main([
            "mos", str(scores), "--pvs-meta", str(meta),
            "--output", str(out), "--quiet",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["screening"]["discarded"] == []
        factors = {row["factor"] for row in doc["results"]["anova"]}
        assert {"codec", "bitrate", "content"} <= factors
        assert len(doc["results"]["mos"]) == 4

    def test_reversed_subject_listed(self, tmp_path):
        scores, meta = write_panel(tmp_path, reversed_subject=True)
        out = tmp_path / "mos.json"
        rc = main([
            "mos", str(scores), "--pvs-meta", str(meta),
            "--output", str(out), "--quiet",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["screening"]["discarded"] == ["s9"]
        assert all(p["n"] == 9 for p in doc["results"]["mos"])

    def test_report_key_order(self, tmp_path):
        scores, meta = write_panel(tmp_path, reversed_subject=True)
        out = tmp_path / "mos.json"
        assert main(["mos", str(scores), "--pvs-meta", str(meta),
                     "--output", str(out), "--quiet"]) == 0
        results = json.loads(out.read_text())["results"]
        screening = results["screening"]
        assert list(screening) == ["threshold", "subjects", "discarded"]
        assert screening["discarded"] == ["s9"]
        for subject in screening["subjects"]:
            assert list(subject) == ["subject", "pearson", "spearman", "retained", "note"]
        assert [row["factor"] for row in results["anova"]] == ["codec", "bitrate", "content"]
        for row in results["mos"]:
            assert list(row) == ["pvs", "mos", "ci95", "n", *RD_CSV_COLUMNS]
        for row in results["anova"]:
            assert list(row) == ["factor", "df_between", "df_within", "f_stat", "p_value"]

    def test_missing_metadata_exit_2(self, tmp_path, capsys):
        scores, meta = write_panel(tmp_path)
        meta.write_text(
            "pvs,codec,resolution,bitrate_kbps,content\n"
            "p1,HM,HD,1000,CrowdRun\n"
        )
        rc = main(["mos", str(scores), "--pvs-meta", str(meta), "--quiet"])
        assert rc == 2
        assert "p2" in capsys.readouterr().err

    def test_screening_that_discards_everyone_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("subject,p1,p2,p3\na,10,50,90\nb,20,40,95\nc,90,50,10\n")
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "pvs,codec,resolution,bitrate_kbps,content\n"
            "p1,HM,HD,1000,a\np2,HM,UHD,2000,b\np3,VTM,HD,1000,a\n"
        )
        rc = main(["mos", str(scores), "--pvs-meta", str(meta), "--threshold=1", "-q"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            "codecbench: error: no subject reached the screening threshold 1; "
            "all 3 subjects would be discarded\n"
        )

    def test_non_utf8_scores_exit_3(self, tmp_path, capsys):
        scores, meta = write_panel(tmp_path)
        scores.write_bytes(scores.read_bytes().replace(b"s9", b"s\xe9"))
        rc = main(["mos", str(scores), "--pvs-meta", str(meta), "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("codecbench: format error:")
        assert len(err.splitlines()) == 1

    def test_too_few_subjects_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("subject,p1,p2,p3\ns0,10,20,30\ns1,11,21,31\n")
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "pvs,codec,resolution,bitrate_kbps,content\n"
            "p1,HM,HD,1000,c\np2,VTM,HD,1000,c\np3,HM,HD,2000,c\n"
        )
        assert main(["mos", str(scores), "--pvs-meta", str(meta), "--quiet"]) == 2

    def test_mos_constant_within_each_level(self, tmp_path):
        # Codec levels hold MOS 20 and 60 without spread: F is infinite. The
        # other factors' levels share the mean 40: F is 0.
        scores = tmp_path / "scores.csv"
        scores.write_text("subject,p1,p2,p3,p4\n" + "".join(
            f"{s},20,20,60,60\n" for s in "abc"))
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "pvs,codec,resolution,bitrate_kbps,content\n"
            "p1,HM,HD,1000,A\np2,HM,UHD,2000,B\np3,VTM,HD,1000,A\np4,VTM,UHD,2000,B\n"
        )
        out = tmp_path / "mos.json"
        assert main(["mos", str(scores), "--pvs-meta", str(meta), "-q", "-o", str(out)]) == 0
        anova = json.loads(out.read_text())["results"]["anova"]
        assert [(r["factor"], r["f_stat"], r["p_value"]) for r in anova] == [
            ("codec", "inf", 0.0), ("resolution", 0.0, 1.0),
            ("bitrate", 0.0, 1.0), ("content", 0.0, 1.0),
        ]

    def test_screening_against_a_constant_mos(self, tmp_path):
        # Every stimulus's MOS is 20: a and b cannot be correlated with it,
        # and c's own scores are constant. At threshold -1 all are kept.
        scores = tmp_path / "scores.csv"
        scores.write_text("subject,p1,p2,p3\na,10,20,30\nb,30,20,10\nc,20,20,20\n")
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "pvs,codec,resolution,bitrate_kbps,content\n"
            "p1,HM,HD,1000,A\np2,VTM,UHD,2000,B\np3,VTM,HD,1000,A\n"
        )
        out = tmp_path / "mos.json"
        assert main(["mos", str(scores), "--pvs-meta", str(meta), "--threshold", "-1",
                     "-q", "-o", str(out)]) == 0
        screening = json.loads(out.read_text())["results"]["screening"]
        assert [(s["subject"], s["pearson"], s["spearman"], s["retained"], s["note"])
                for s in screening["subjects"]] == [
            ("a", -1.0, -1.0, True, "constant MOS reference"),
            ("b", -1.0, -1.0, True, "constant MOS reference"),
            ("c", -1.0, -1.0, True, "constant scores"),
        ]
        assert screening["discarded"] == []

    def test_exclude_stimulus(self, tmp_path):
        scores, meta = write_panel(tmp_path)
        out = tmp_path / "mos.json"
        rc = main([
            "mos", str(scores), "--pvs-meta", str(meta), "--exclude", "p4",
            "--output", str(out), "--quiet",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [p["pvs"] for p in doc["results"]["mos"]] == ["p1", "p2", "p3"]


CALLGRIND = """\
# profile
version: 1
events: Ir
fl=(1) enc.cpp
fn=(1) InterSearch::xTZSearch
10 700
11 50
cfn=(2) TrQuant::transformNxN
calls=2 20
12 900
fn=(2) TrQuant::transformNxN
20 250
"""


class TestProfileCommand:
    def test_non_utf8_profile_exit_3(self, tmp_path, capsys):
        # A byte that is not UTF-8 in a function name must not turn into
        # U+FFFD and send the function's cost to Other.
        prof = tmp_path / "callgrind.out"
        prof.write_bytes(b"events: Ir\nfn=(1) Inter\xffSearch::x\n1 5\n")
        rc = main(["profile", str(prof), "-o", str(tmp_path / "p.json"), "-q"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"codecbench: format error: {prof}: not UTF-8")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "p.json").exists()

    def test_stage_percentages(self, tmp_path):
        prof = tmp_path / "callgrind.out"
        prof.write_text(CALLGRIND)
        out = tmp_path / "profile.json"
        rc = main(["profile", str(prof), "--output", str(out), "--quiet"])
        assert rc == 0
        doc = json.loads(out.read_text())
        stages = {s["stage"]: s["percent"] for s in doc["results"]["profiles"][0]["stages"]}
        assert stages == {"ME": 75.0, "Tr/Inv.Tr": 25.0}
        assert sum(stages.values()) == pytest.approx(100.0, abs=0.01)

    def test_speedup_rows_from_timing(self, tmp_path):
        prof = tmp_path / "callgrind.out"
        prof.write_text(CALLGRIND)
        timing = tmp_path / "timing.csv"
        timing.write_text(
            TIMING_HEADER
            + "HM,CrowdRun,32,123,500,50,1\n"
            + "VTM,CrowdRun,32,414,500,50,1\n"
        )
        out = tmp_path / "profile.json"
        rc = main([
            "profile", str(prof), "--timing", str(timing),
            "--output", str(out), "--quiet", "--full-precision",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        speedups = doc["results"]["timing"]["speedups"]
        assert len(speedups) == 1
        assert speedups[0]["speedup_a_over_b"] == pytest.approx(12.3 / 41.4)

    def test_speedup_rows_for_three_codecs(self, tmp_path):
        prof = tmp_path / "callgrind.out"
        prof.write_text(CALLGRIND)
        timing = tmp_path / "timing.csv"
        timing.write_text(
            TIMING_HEADER
            + "C,CrowdRun,32,400,500,50,1\n"
            + "A,CrowdRun,32,100,500,50,1\n"
            + "B,CrowdRun,32,200,500,50,1\n"
        )
        out = tmp_path / "profile.json"
        rc = main([
            "profile", str(prof), "--timing", str(timing),
            "--output", str(out), "--quiet", "--full-precision",
        ])
        assert rc == 0
        speedups = json.loads(out.read_text())["results"]["timing"]["speedups"]
        assert [(s["codec_a"], s["codec_b"]) for s in speedups] == [
            ("A", "B"), ("A", "C"), ("B", "C")
        ]
        assert [s["speedup_a_over_b"] for s in speedups] == pytest.approx([0.5, 0.25, 0.5])
        assert {(s["sequence"], s["qp"]) for s in speedups} == {("CrowdRun", 32)}

    def test_speedup_rows_across_groups_of_a_shuffled_file(self, tmp_path, capsys):
        prof = tmp_path / "callgrind.out"
        prof.write_text(CALLGRIND)
        timing = tmp_path / "timing.csv"
        timing.write_text(
            TIMING_HEADER
            + "VTM,seqB,27,800,500,50,1\n"
            + "HM,seqA,37,100,500,50,1\n"
            + "VTM,seqA,22,1000,500,50,1\n"
            + "HM,seqB,27,200,500,50,1\n"
            + "AV1,seqA,22,250,500,50,1\n"
            + "VTM,seqA,37,400,500,50,1\n"
            + "HM,seqA,22,125,500,50,1\n"
        )
        out = tmp_path / "profile.json"
        rc = main(["profile", str(prof), "--timing", str(timing), "--output", str(out)])
        assert rc == 0
        speedups = json.loads(out.read_text())["results"]["timing"]["speedups"]
        assert [(s["sequence"], s["qp"], s["codec_a"], s["codec_b"], s["speedup_a_over_b"])
                for s in speedups] == [
            ("seqA", 22, "AV1", "HM", 2.0), ("seqA", 22, "AV1", "VTM", 0.25),
            ("seqA", 22, "HM", "VTM", 0.125), ("seqA", 37, "HM", "VTM", 0.25),
            ("seqB", 27, "HM", "VTM", 0.25),
        ]
        assert capsys.readouterr().out.splitlines()[-5:] == [
            "seqA qp22: AV1 / HM = 2.00x", "seqA qp22: AV1 / VTM = 0.25x",
            "seqA qp22: HM / VTM = 0.12x", "seqA qp37: HM / VTM = 0.25x",
            "seqB qp27: HM / VTM = 0.25x",
        ]

    def test_pie_data(self, tmp_path):
        prof = tmp_path / "callgrind.out"
        prof.write_text(CALLGRIND)
        pie = tmp_path / "pie.csv"
        rc = main([
            "profile", str(prof), "--pie-data", str(pie),
            "--output", str(tmp_path / "p.json"), "--quiet",
        ])
        assert rc == 0
        lines = pie.read_text().strip().splitlines()
        assert lines[0] == "stage,percent"
        assert len(lines) == 3

    def test_custom_mapping(self, tmp_path):
        prof = tmp_path / "callgrind.out"
        prof.write_text(CALLGRIND)
        mapping = tmp_path / "map.txt"
        mapping.write_text("TZSearch -> Search\n")
        out = tmp_path / "profile.json"
        rc = main([
            "profile", str(prof), "--mapping", str(mapping),
            "--output", str(out), "--quiet",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        stages = {s["stage"] for s in doc["results"]["profiles"][0]["stages"]}
        assert stages == {"Search", "Other"}

    def test_bad_mapping_exit_3(self, tmp_path):
        prof = tmp_path / "callgrind.out"
        prof.write_text(CALLGRIND)
        mapping = tmp_path / "map.txt"
        mapping.write_text("this line has no arrow\n")
        assert main(["profile", str(prof), "--mapping", str(mapping), "--quiet"]) == 3

    def test_environment_does_not_choose_the_mapping(self, tmp_path, monkeypatch):
        prof = tmp_path / "callgrind.out"
        prof.write_text(CALLGRIND)
        mapping = tmp_path / "map.txt"
        mapping.write_text("TZSearch -> EnvSearch\n")
        monkeypatch.setenv("CODECBENCH_STAGE_MAP", str(mapping))
        out = tmp_path / "profile.json"
        rc = main(["profile", str(prof), "--output", str(out), "--quiet"])
        assert rc == 0
        doc = json.loads(out.read_text())
        stages = {s["stage"] for s in doc["results"]["profiles"][0]["stages"]}
        assert "EnvSearch" not in stages
        assert doc["results"]["mapping"] == "built-in"

    def test_malformed_callgrind_exit_3(self, tmp_path, capsys):
        prof = tmp_path / "callgrind.out"
        prof.write_text("events: Ir\nfl=a.c\nfn=foo\n1 banana\n")
        assert main(["profile", str(prof), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            f"codecbench: format error: {prof}:4: non-numeric cost 'banana'\n"
        )

    def test_equal_stages_are_listed_in_name_order(self, tmp_path):
        # Beta's function comes first in the file and in the mapping; the
        # tie with Alpha still goes by name, in every output.
        prof = tmp_path / "callgrind.out"
        prof.write_text("events: Ir\nfn=b1\n1 300\nfn=a1\n2 300\nfn=g1\n3 400\n")
        mapping = tmp_path / "map.txt"
        mapping.write_text("b -> Beta\na -> Alpha\ng -> Gamma\n")
        order = ["Gamma", "Alpha", "Beta"]
        common = ["profile", str(prof), "--mapping", str(mapping), "-q"]
        json_out, csv_out, pie = (tmp_path / n for n in ("p.json", "p.csv", "pie.csv"))
        assert main([*common, "--pie-data", str(pie), "-o", str(json_out)]) == 0
        assert main([*common, "--format", "csv", "-o", str(csv_out)]) == 0
        doc = json.loads(json_out.read_text())
        assert [s["stage"] for s in doc["results"]["profiles"][0]["stages"]] == order
        pie_rows = list(csv.reader(pie.read_text().splitlines()))
        csv_rows = list(csv.reader(csv_out.read_text().splitlines()))
        assert [row[0] for row in pie_rows[1:]] == order
        assert [row[1] for row in csv_rows[1:]] == order

    def test_failed_run_writes_no_pie(self, tmp_path, capsys):
        # The pie is written once every input has been read, so a bad
        # --timing row leaves no --pie-data file behind.
        prof, timing = tmp_path / "hm.out", tmp_path / "bad.csv"
        prof.write_text(CALLGRIND)
        timing.write_text(TIMING_HEADER + "HM,s,22,-1,50,50,1\n")
        pie = tmp_path / "pie.csv"
        assert main(["profile", str(prof), "--pie-data", str(pie), "--timing", str(timing),
                     "-q", "-o", str(tmp_path / "p.json")]) == 3
        assert capsys.readouterr().err == (
            f"codecbench: format error: {timing}:2: wall_seconds must be positive, got -1.0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "hm.out"]


def stage_profile(*functions):
    """A Callgrind profile of (function, self cost) pairs."""
    return "events: Ir\n" + "".join(f"fn={fn}\n{i} {cost}\n"
                                    for i, (fn, cost) in enumerate(functions, start=1))


# HM- and VTM-shaped profiles under the built-in stage map: ALF is 0.8% of
# the first (below the 1% threshold) and 6.0% of the second.
HM_PROFILE = stage_profile(("TComTrQuant::transformNxN", 3000),
                           ("TEncSearch::xTZSearch", 6920), ("TComAdaptiveLoopFilter::filter", 80))
VTM_PROFILE = stage_profile(("TrQuant::transformNxN", 3000),
                            ("InterSearch::xTZSearch", 6400), ("AdaptiveLoopFilter::filter", 600))


class TestOneStageSetPerRun:
    def run(self, tmp_path, texts, *flags):
        """The JSON profiles and CSV report rows of one run over the texts."""
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"{i}.out")
            paths[-1].write_text(text)
        argv = ["profile", *map(str, paths), *flags, "-q"]
        assert main([*argv, "-o", str(tmp_path / "p.json")]) == 0
        assert main([*argv, "--format", "csv", "-o", str(tmp_path / "p.csv")]) == 0
        with open(tmp_path / "p.csv", newline="") as fp:
            rows = list(csv.reader(fp))
        return json.loads((tmp_path / "p.json").read_text())["results"]["profiles"], rows

    def test_a_stage_above_the_threshold_in_one_input_is_listed_in_all(self, tmp_path):
        profiles, rows = self.run(tmp_path, [HM_PROFILE, VTM_PROFILE])
        alf = [[s for s in p["stages"] if s["stage"] == "ALF"] for p in profiles]
        assert alf == [[{"stage": "ALF", "cost": 80, "percent": 0.8}],
                       [{"stage": "ALF", "cost": 600, "percent": 6.0}]]
        assert [p["other_bucket"] for p in profiles] == [[], []]
        assert rows[0] == ["file", "stage", "cost", "percent"]
        assert [r[1:] for r in rows if r[1] == "ALF"] == [["ALF", "80", "0.8"],
                                                           ["ALF", "600", "6.0"]]

    def test_stage_costs_sum_to_each_total(self, tmp_path):
        profiles, _ = self.run(tmp_path, [HM_PROFILE, VTM_PROFILE, CALLGRIND],
                               "--threshold", "5")
        for p in profiles:
            assert sum(s["cost"] for s in p["stages"]) == p["total_cost"]
        assert len({tuple(sorted(s["stage"] for s in p["stages"])) for p in profiles}) == 1

    def test_a_stage_below_the_threshold_everywhere_folds_everywhere(self, tmp_path):
        # At 7%, ALF (0.8% and 6.0%) is below the threshold in both inputs.
        profiles, _ = self.run(tmp_path, [HM_PROFILE, VTM_PROFILE], "--threshold", "7")
        assert [p["other_bucket"] for p in profiles] == [["ALF"], ["ALF"]]
        assert [{s["stage"]: s["cost"] for s in p["stages"]} for p in profiles] == [
            {"ME": 6920, "Tr/Inv.Tr": 3000, "Other": 80},
            {"ME": 6400, "Tr/Inv.Tr": 3000, "Other": 600},
        ]

    def test_a_missing_stage_reads_zero(self, tmp_path):
        # The second input has no ME: it reads 0 there. ALF, 0.8% of the
        # first input and absent from the second, folds in both.
        profiles, _ = self.run(tmp_path, [HM_PROFILE, stage_profile(("TrQuant::x", 1))])
        assert profiles[1]["stages"] == [
            {"stage": "Tr/Inv.Tr", "cost": 1, "percent": 100.0},
            {"stage": "ME", "cost": 0, "percent": 0.0},
            {"stage": "Other", "cost": 0, "percent": 0.0},
        ]
        assert [p["other_bucket"] for p in profiles] == [["ALF"], ["ALF"]]


PIE_CALLGRIND = """\
events: Ir
fl=enc.cpp
fn=InterSearch::xTZSearch
10 200
fn=TrQuant::transformNxN
20 100
"""


NON_UTF8_MAPPING = b"Inter\xffSearch -> ME\n"


@pytest.mark.parametrize("kind", [
    "mapping", "rd", "scores", "pvs", "timing", "external_csv",
    "external_json",
])
def test_non_utf8_input_names_the_file(tmp_path, rng, capsys, kind):
    bad = tmp_path / f"{kind}.in"
    prof = tmp_path / "callgrind.out"
    prof.write_text(CALLGRIND)
    scores, meta = write_panel(tmp_path)
    ref, test = write_pair(tmp_path, rng)
    metrics_argv = ["metrics", str(ref), str(test), "--external", str(bad)]
    argv, content = {
        "mapping": (["profile", str(prof), "--mapping", str(bad)], NON_UTF8_MAPPING),
        "rd": (["bdrate", str(bad), "--anchor", "HM", "--test", "VTM"],
               RD_HEADER.encode() + b"HM,s1,PSNR,\xff,1000,30\n"),
        "scores": (["mos", str(bad), "--pvs-meta", str(meta)],
                   scores.read_bytes().replace(b"s9", b"s\xff")),
        "pvs": (["mos", str(scores), "--pvs-meta", str(bad)],
                meta.read_bytes().replace(b"Drums", b"Dr\xffms")),
        "timing": (["profile", str(prof), "--timing", str(bad)],
                   TIMING_HEADER.encode() + b"HM,Crowd\xffRun,32,123,500,50,1\n"),
        "external_csv": (metrics_argv, b"frame,score\n0,9\xff\n"),
        "external_json": (metrics_argv, b'{"frames": [{"metrics": {"vmaf": 9\xff}}]}'),
    }[kind]
    bad.write_bytes(content)
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        f"codecbench: format error: {bad}: not UTF-8 text (invalid start byte)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("kind", [
    "points", "timing", "scores", "pvs", "external_csv", "external_json",
    "mapping", "callgrind",
])
def test_byte_order_mark_is_skipped(tmp_path, rng, kind):
    # Spreadsheet exports often start with a UTF-8 byte-order mark.
    prof = tmp_path / "callgrind.out"
    prof.write_text(CALLGRIND)
    scores, meta = write_panel(tmp_path)
    ref, test = write_pair(tmp_path, rng)
    source = tmp_path / f"{kind}.in"
    metrics_argv = ["metrics", str(ref), str(test), "--external", str(source)]
    argv, text = {
        "points": (["bdrate", str(source), "--anchor", "HM", "--test", "VTM"],
                   RD_HEADER + "".join(f"{codec},s1,PSNR,,{rate},{q}\n"
                                       for codec in ("HM", "VTM")
                                       for rate, q in ((1e3, 30), (2e3, 35), (4e3, 40)))),
        "timing": (["profile", str(prof), "--timing", str(source)],
                   TIMING_HEADER + "HM,s1,32,123,500,50,1\nVTM,s1,32,414,500,50,1\n"),
        "scores": (["mos", str(source), "--pvs-meta", str(meta)], scores.read_text()),
        "pvs": (["mos", str(scores), "--pvs-meta", str(source)], meta.read_text()),
        "external_csv": (metrics_argv, "frame,score\n0,90\n1,92\n2,94\n"),
        "external_json": (metrics_argv, '{"frames": [{"metrics": {"vmaf": 90}}]}'),
        "mapping": (["profile", str(prof), "--mapping", str(source)],
                    "TZSearch -> Search\n"),
        # Without its first line, a comment, the mark precedes a header line.
        "callgrind": (["profile", str(source)], CALLGRIND.split("\n", 1)[1]),
    }[kind]
    results = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        source.write_bytes(prefix + text.encode())
        out = tmp_path / "out.json"
        assert main([*argv, "--output", str(out), "--quiet"]) == 0
        results.append(json.loads(out.read_text())["results"])
    assert results[1] == results[0]


# Claims a 6e12-byte frame, which a read must not try to allocate at once.
HUGE_Y4M = b"YUV4MPEG2 W2000000 H2000000 F25:1 C420\nFRAME\nabc"
HUGE_RAW_FLAGS = ["--width", "2000000", "--height", "2000000", "--bit-depth", "8",
                  "--fps", "25"]
METRICS_EXTERNAL = ["metrics", "{ref}", "{test}", "--external", "{bad}"]
POINTS = (RD_HEADER + "HM,s,PSNR,,1000,30\nHM,s,PSNR,,2000,35\nHM,s,PSNR,,4000,40\n"
          "VTM,s,PSNR,,800,30\nVTM,s,PSNR,,1600,35\nVTM,s,PSNR,,3200,40\n").encode()
TIMING = (TIMING_HEADER + "HM,s,22,1,50,50,1\nVTM,s,22,2,50,50,1\n").encode()


@pytest.mark.parametrize("argv,content,code,message", [
    (["metrics", "{ref}", "{test}", "--metrics", "psnr,vmaf"], None, 2,
     "unknown metric 'vmaf'; choose from psnr, psnr_u, psnr_v, psnr_y, ssim, wpsnr"),
    (["metrics", "{ref}", "{test}", "--metrics", ","], None, 2, "empty metric selection"),
    (["mos", "{scores}", "--pvs-meta", "{meta}", "--exclude", "p9"], None, 2,
     "unknown stimulus 'p9'"),
    (METRICS_EXTERNAL, b"idx,score\n0,90\n", 3, "{bad}: missing CSV columns: frame"),
    (METRICS_EXTERNAL, b"Frame,Score\n0,90\n", 3,
     "{bad}: missing CSV columns: frame, score"),
    (METRICS_EXTERNAL, b"frame,score\n3,90\n1,10\n1,50\n", 3,
     "{bad}:2: expected frame 0, got 3"),
    (METRICS_EXTERNAL, b'{"frames": [', 3,
     "{bad}: invalid JSON: Expecting value: line 1 column 13 (char 12)"),
    (METRICS_EXTERNAL, b"[" * 100_000 + b"]" * 100_000, 3,
     "{bad}: invalid JSON: maximum recursion depth exceeded while decoding a JSON "
     "array from a unicode string"),
    (METRICS_EXTERNAL, b'{"scores": []}', 3, '{bad}: missing "frames" array'),
    (METRICS_EXTERNAL, b'{"frames": 5}', 3, '{bad}: missing "frames" array'),
    (METRICS_EXTERNAL, b'{"frames": [{"metrics": {"psnr": 30}}]}', 3,
     "{bad}: frame 0 lacks metric 'vmaf'"),
    (["metrics", "{ref}", "{bad}"], b"YUV4MPEG2 W32 H32 F25:1 X\xe9\n", 3,
     "{bad}: non-ASCII Y4M header: 'ascii' codec can't decode byte 0xe9 in "
     "position 25: ordinal not in range(128)"),
    (["metrics", "{bad}", "{test}"], b"YUV4MPEG2 W32 H32 F25:1 Ib C420\n", 3,
     "{bad}: interlaced stream (Ib) is not supported"),
    (["metrics", "{ref}", "{bad}"],
     b"YUV4MPEG2 W32 H32 F25:1 C420\nFRAME\n" + bytes(1536 - 100), 3,
     "{bad}: truncated frame 0: expected 1536 bytes, got 1436"),
    (["metrics", "{bad}", "{bad}"], HUGE_Y4M, 3,
     "{bad}: truncated frame 0: expected 6000000000000 bytes, got 3"),
    (["metrics", "{bad}", "{bad}", *HUGE_RAW_FLAGS], bytes(100), 3,
     "{bad}: truncated frame 0: expected 6000000000000 bytes, got 100"),
    (["profile", "{bad}"], b"events:\nfn=f\n1 5\n", 3, "{bad}:1: empty events header"),
    (["profile", "{prof}", "{bad}"], b"events: Ir\nfn=f\n1 x\n", 3,
     "{bad}:3: non-numeric cost 'x'"),
    (["profile", "{prof}", "{bad}"], b"events: Ir\nfn=f\n1 0\n", 3,
     "{bad}: total cost is zero"),
    (["profile", "{prof}", "{bad}"], b"events: Ir\n", 3, "{bad}: empty cost list"),
    (["mos", "{scores}", "--pvs-meta", "{bad}"],
     b"pvs,codec,resolution,bitrate_kbps,content\n"
     b"p1,HM,HD,1000,CrowdRun\np1,VTM,HD,1000,CrowdRun\n", 3,
     "{bad}:3: duplicate PVS id 'p1'"),
    (["mos", "{scores}", "--pvs-meta", "{bad}"],
     b"pvs,codec,resolution,bitrate_kbps,content\n"
     b"p1,HM,HD,1000,CrowdRun\np2,VTM,HD,0,CrowdRun\n", 3,
     "{bad}:3: bitrate_kbps must be positive, got 0"),
    (["mos", "{bad}", "--pvs-meta", "{meta}"], b"subject,p1,p2,p1\ns0,10,20,30\n", 3,
     "{bad}: repeated column 'p1'"),
    (["mos", "{bad}", "--pvs-meta", "{meta}"], b"subject,p1,p2\ns0,10,20\ns0,30,40\n", 3,
     "{bad}:3: duplicate subject id 's0'"),
    (["mos", "{bad}", "--pvs-meta", "{meta}"], b"subject,p1,p2\ns0,10,20\ns1,4_0,20\n", 3,
     "{bad}:3: p1 must be a finite number, got '4_0'"),
    (["metrics", "{ref}", "{bad}"], b"YUV4MPEG2 W3_2 H32 F25:1 C420\n", 3,
     "{bad}: malformed W tag value '3_2'"),
    (["profile", "{prof}", "--timing", "{bad}"],
     TIMING_HEADER.encode() + b"HM,CrowdRun,32,123,500,0,1\n", 3,
     "{bad}:2: degenerate duration: fps 0:1"),
    (["profile", "{prof}", "--timing", "{bad}"],
     TIMING_HEADER.encode()
     + b"A,s,22,1,50,50,1\nB,s,22,2,50,50,1\nA,s,022,2,50,50,1\n", 3,
     "{bad}:4: duplicate timing record A/s/qp22"),
    (["profile", "{prof}", "--mapping", ""], None, 2,
     "[Errno 2] No such file or directory: ''"),
    (["profile", "{prof}", "--timing", "{bad}"],
     TIMING_HEADER.encode() + b"VTM,s,22,2,1000,50,1\nHM,s,22,1,500,50,1\n", 2,
     "s qp22: HM and VTM content durations differ: 10s vs 20s"),
    (["metrics", "{ref}", "{test}", "-o", "{ref}"], None, 2,
     "--output {ref} is the same file as reference {ref}"),
    (["metrics", "{ref}", "{test}", "--per-frame", "{test}"], None, 2,
     "--per-frame {test} is the same file as test {test}"),
    (["metrics", "{ref}", "{test}", "--per-frame", "{out}"], None, 2,
     "--per-frame {out} is the same file as --output {out}"),
    (["bdrate", "{bad}", "--anchor", "HM", "--test", "VTM", "--plot-data", "{bad}"],
     POINTS, 2, "--plot-data {bad} is the same file as points {bad}"),
    (["profile", "{prof}", "--pie-data", "{prof}"], None, 2,
     "--pie-data {prof} is the same file as callgrind {prof}"),
    (["profile", "{prof}", "--timing", "{bad}", "--pie-data", "{bad}"], TIMING, 2,
     "--pie-data {bad} is the same file as --timing {bad}"),
    (["profile", "{prof}", "--timing", "{bad}", "-o", "{bad}"], TIMING, 2,
     "--output {bad} is the same file as --timing {bad}"),
    (["mos", "{scores}", "--pvs-meta", "{meta}", "--ci-constant", "1e308"], None, 2,
     "stimulus 'p1': CI half-width overflows at constant 1e+308"),
    (["profile", "{prof}", "--timing", "{bad}"],
     TIMING_HEADER.encode() + b"HM,s,22,1e300,50,50,1\nVTM,s,22,1e-300,50,50,1\n", 2,
     "s qp22: HM / VTM speedup is not a positive finite float"),
    (["profile", "{prof}", "--timing", "{bad}"],
     TIMING_HEADER.encode() + b"HM,s,22,10,10,1" + b"0" * 400 + b",1\n", 3,
     "{bad}:2: duration or time factor is not a positive finite float"),
    (["profile", "{prof}", "--timing", "{bad}"],
     TIMING_HEADER.encode() + b"HM,s,22,10,1" + b"0" * 400 + b",1,1\n", 3,
     "{bad}:2: duration or time factor is not a positive finite float"),
], ids=[
    "unknown_metric", "empty_metric_selection", "exclude_unknown_stimulus",
    "external_csv_header", "external_csv_header_case", "external_csv_frame_order",
    "external_json_invalid", "external_json_too_deep", "external_json_no_frames",
    "external_json_frames_not_array", "external_json_metric_missing", "y4m_header_non_ascii",
    "reference_format_error_names_reference", "test_format_error_names_test",
    "oversized_y4m_frame", "oversized_raw_frame", "callgrind_empty_events",
    "second_callgrind_names_its_file", "zero_cost_callgrind_names_its_file",
    "callgrind_without_functions_names_its_file", "duplicate_pvs_id", "pvs_bitrate_zero",
    "duplicate_stimulus_column",
    "duplicate_subject_id", "score_grouped_digits", "y4m_header_grouped_digits",
    "timing_fps_num_0", "duplicate_timing_record", "empty_mapping_path",
    "timing_duration_mismatch", "output_over_reference", "per_frame_over_test",
    "per_frame_over_output", "plot_data_over_points", "pie_data_over_callgrind",
    "pie_data_over_timing", "output_over_timing", "ci_half_width_overflow",
    "speedup_overflow", "timing_fps_num_beyond_float", "timing_frame_count_beyond_float",
])
def test_bad_input_exits_with_one_line(tmp_path, rng, capsys, argv, content, code,
                                       message):
    prof = tmp_path / "callgrind.out"
    prof.write_text(CALLGRIND)
    scores, meta = write_panel(tmp_path)
    ref, test = write_pair(tmp_path, rng)
    bad = tmp_path / "bad.in"
    if content is not None:
        bad.write_bytes(content)
    out = tmp_path / "out.json"
    paths = {"ref": ref, "test": test, "bad": bad, "prof": prof,
             "scores": scores, "meta": meta, "out": out}
    argv = [arg.format(**paths) for arg in argv]
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    # The report flags go first, so an -o of the row's own wins.
    assert main([argv[0], "--output", str(out), "--quiet", *argv[1:]]) == code
    label = "error" if code == 2 else "format error"
    assert capsys.readouterr().err == f"codecbench: {label}: {message.format(**paths)}\n"
    # Nothing is written, and every input is left byte-identical.
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files

def plot_floats(tmp_path, *flags):
    """The quality and log10-rate cells of a --plot-data CSV."""
    points = tmp_path / "points.csv"
    rows = []
    for rate, quality in [(1000, 30.123456789), (2000, 35.987654321), (4000, 40.5555555)]:
        rows.append(f"HM,s1,PSNR,,{rate},{quality}\n")
        rows.append(f"VTM,s1,PSNR,,{rate * 0.8},{quality}\n")
    write_rd_csv(points, rows)
    plot = tmp_path / "plot.csv"
    rc = main([
        "bdrate", str(points), "--anchor", "HM", "--test", "VTM",
        "--plot-data", str(plot), "-o", str(tmp_path / "bd.json"), "-q", *flags,
    ])
    assert rc == 0
    lines = plot.read_text().splitlines()[1:]
    return [float(cell) for line in lines for cell in line.split(",")[3:5]]


def pie_floats(tmp_path, *flags):
    """The percent cells of a --pie-data CSV (stages at 2/3 and 1/3)."""
    prof = tmp_path / "callgrind.out"
    prof.write_text(PIE_CALLGRIND)
    pie = tmp_path / "pie.csv"
    rc = main([
        "profile", str(prof), "--pie-data", str(pie),
        "-o", str(tmp_path / "p.json"), "-q", *flags,
    ])
    assert rc == 0
    return [float(line.split(",")[1]) for line in pie.read_text().splitlines()[1:]]


class TestSideFilePrecision:
    @pytest.mark.parametrize("write", [plot_floats, pie_floats], ids=["plot", "pie"])
    def test_full_precision_reaches_side_file(self, tmp_path, write):
        (tmp_path / "six").mkdir()
        (tmp_path / "full").mkdir()
        six = write(tmp_path / "six")
        full = write(tmp_path / "full", "--full-precision")
        assert len(six) == len(full) > 0
        assert all(float(f"{v:.6g}") == v for v in six)
        assert [float(f"{v:.6g}") for v in full] == six
        assert any(a != b for a, b in zip(six, full))

    def test_plot_data_keeps_input_quality(self, tmp_path):
        assert 30.123456789 in plot_floats(tmp_path, "--full-precision")
        assert 30.1235 in plot_floats(tmp_path)


def flag_argv(tmp_path, command):
    """A valid metrics, mos or profile command line to append a flag to."""
    if command == "metrics":
        ref, test = write_pair(tmp_path, np.random.default_rng(0), frames=1)
        return ["metrics", str(ref), str(test)]
    if command == "mos":
        scores, meta = write_panel(tmp_path)
        return ["mos", str(scores), "--pvs-meta", str(meta)]
    prof = tmp_path / "callgrind.out"
    prof.write_text(CALLGRIND)
    return ["profile", str(prof)]


class TestFlagErrors:
    @pytest.mark.parametrize(
        "flag,value,message",
        [("--width", "0", "invalid raw-input flags"),
         ("--height", "0", "invalid raw-input flags"),
         ("--fps", "0", "invalid raw-input flags"),
         ("--fps", "25:0", "invalid raw-input flags"),
         ("--width", "33", "invalid raw-input flags"),
         ("--fps", "25x", "malformed --fps value '25x'\n"),
         ("--fps", "25:x", "malformed --fps value '25:x'\n"),
         ("--fps", "2_5", "malformed --fps value '2_5'\n"),
         ("--width", "6_4", "--width must be an integer, got '6_4'\n"),
         ("--width", "x", "--width must be an integer, got 'x'\n"),
         ("--height", "6_4", "--height must be an integer, got '6_4'\n"),
         ("--height", "x", "--height must be an integer, got 'x'\n"),
         ("--bit-depth", "8_0", "--bit-depth must be an integer, got '8_0'\n"),
         ("--bit-depth", "x", "--bit-depth must be an integer, got 'x'\n")],
        ids=["width_0", "height_0", "fps_0", "fps_den_0", "odd_width_420",
             "fps_not_a_number", "fps_den_not_a_number", "fps_grouped_digits",
             "width_grouped_digits", "width_not_a_number", "height_grouped_digits",
             "height_not_a_number", "bit_depth_grouped_digits", "bit_depth_not_a_number"],
    )
    def test_bad_raw_geometry_exit_2(self, tmp_path, capsys, flag, value, message):
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(bytes(64 * 64 * 3 // 2))
        flags = {"--width": "64", "--height": "64", "--bit-depth": "8", "--fps": "50"}
        flags[flag] = value
        argv = ["metrics", str(raw), str(raw), "-q"]
        for item in flags.items():
            argv.extend(item)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"codecbench: error: {message}")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command,flag",
        [("mos", "--ci-constant"), ("mos", "--threshold"), ("profile", "--threshold")],
    )
    def test_non_finite_float_flag_exit_2(self, tmp_path, capsys, command, flag, value):
        # Every non-finite spelling fails the number rule, as 1e999 does.
        out = tmp_path / "report.json"
        argv = flag_argv(tmp_path, command)
        assert main(argv + [f"{flag}={value}", "-q", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"codecbench: error: {flag} must be a finite number, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value,rule",
        [("mos", "--ci-constant", "0", "be finite and above 0"),
         ("mos", "--ci-constant", "-1", "be finite and above 0"),
         ("mos", "--threshold", "2", "be finite and lie in [-1, 1]"),
         ("mos", "--threshold", "-1.5", "be finite and lie in [-1, 1]"),
         ("profile", "--threshold", "150", "be finite and lie in [0, 100]"),
         ("profile", "--threshold", "-5", "be finite and lie in [0, 100]")],
    )
    def test_out_of_range_float_flag_exit_2(
        self, tmp_path, capsys, command, flag, value, rule
    ):
        out = tmp_path / "report.json"
        argv = flag_argv(tmp_path, command)
        assert main(argv + [f"{flag}={value}", "-q", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"codecbench: error: {flag} must {rule}, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["6_4", "x"])
    @pytest.mark.parametrize(
        "command,flag",
        [("metrics", "--jobs"), ("metrics", "--clamp-db"), ("mos", "--threshold"),
         ("mos", "--ci-constant"), ("profile", "--threshold")],
    )
    def test_not_a_number_flag_exit_2(self, tmp_path, capsys, command, flag, value):
        # The number rule of input text holds for flags: no `_` grouping.
        what = "an integer" if flag == "--jobs" else "a finite number"
        out = tmp_path / "report.json"
        argv = flag_argv(tmp_path, command)
        assert main(argv + [flag, value, "-q", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"codecbench: error: {flag} must be {what}, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fps,code", [("25x", 2), ("50", 0)])
    def test_fps_parsed_with_y4m_inputs(self, tmp_path, rng, capsys, fps, code):
        # Y4M inputs carry their own frame rate, but --fps is still checked.
        ref, test = write_pair(tmp_path, rng, frames=1)
        out = tmp_path / "r.json"
        argv = ["metrics", str(ref), str(test), "--fps", fps, "-q", "-o", str(out)]
        assert main(argv) == code
        message = f"codecbench: error: malformed --fps value '{fps}'\n"
        assert capsys.readouterr().err == ("" if code == 0 else message)

    @pytest.mark.parametrize(
        "command,flag,value",
        [("mos", "--threshold", "-1"), ("mos", "--ci-constant", "1e-9"),
         ("profile", "--threshold", "0"), ("profile", "--threshold", "100"),
         ("metrics", "--jobs", "1"), ("metrics", "--clamp-db", "-1.7976931348623157e308"),
         ("metrics", "--clamp-db", "1.7976931348623157e308")],
    )
    def test_float_flag_bounds_accepted(self, tmp_path, command, flag, value):
        argv = flag_argv(tmp_path, command)
        assert main(argv + [f"{flag}={value}", "-q", "-o", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("clamp", [sys.float_info.max, -sys.float_info.max])
    def test_extreme_clamp_keeps_every_metric_finite(self, tmp_path, rng, clamp):
        # Every frame of a lossless pair is clamped, so each mean, and WPSNR's
        # weighted sum, is the clamp itself, not an overflow to infinity.
        ref, test = write_pair(tmp_path, rng, frames=2)
        out = tmp_path / "r.json"
        argv = ["metrics", str(ref), str(test), "--metrics", "psnr",
                f"--clamp-db={clamp!r}", "--full-precision", "-q", "-o", str(out)]
        assert main(argv) == 0
        rows = json.loads(out.read_text())["results"]["metrics"]
        assert [r["metric"] for r in rows] == ["PSNR_Y", "PSNR_U", "PSNR_V", "WPSNR"]
        for row in rows:
            assert isinstance(row["mean"], float)
            assert row["mean"] == pytest.approx(clamp, rel=1e-12)

    def test_pie_data_with_several_inputs_exit_2(self, tmp_path, capsys):
        # One pie per run: with several inputs the CSV report holds them all,
        # so --pie-data is refused before any file is opened.
        inputs = []
        for name in ("enc.out", "dec.out"):
            (tmp_path / name).write_text(CALLGRIND)
            inputs.append(str(tmp_path / name))
        pie, out = tmp_path / "pie.csv", tmp_path / "p.json"
        assert main(["profile", *inputs, "--pie-data", str(pie), "-q", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "codecbench: error: --pie-data takes one input; use --format csv for several\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dec.out", "enc.out"]

    def test_output_rule_compares_files(self, tmp_path, rng, capsys):
        # A hard link or another spelling of an input is that input; a
        # device named twice, such as /dev/null, is no file to overwrite.
        ref, test = write_pair(tmp_path, rng, frames=1)
        link = tmp_path / "link.y4m"
        os.link(test, link)
        spelled = f"{tmp_path}/./{ref.name}"
        for argv, message in [
            (["--per-frame", str(link)], f"--per-frame {link} is the same file as test {test}"),
            (["-o", spelled], f"--output {spelled} is the same file as reference {ref}"),
        ]:
            assert main(["metrics", str(ref), str(test), "-q", *argv]) == 2
            assert capsys.readouterr().err == f"codecbench: error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.y4m", "ref.y4m", "test.y4m"]
        argv = ["metrics", str(ref), str(test), "-q", "-o", os.devnull, "--per-frame", os.devnull]
        assert main(argv) == 0


def stdout_case(tmp_path, rng, command):
    """The argv of `command` over inputs written to tmp_path, up to its
    side-output flag: the flag that takes a path."""
    prof = tmp_path / "a.out"
    prof.write_text(CALLGRIND)
    points = tmp_path / "points.csv"
    points.write_bytes(POINTS)
    ref, test = write_pair(tmp_path, rng, frames=2, delta=2)
    return {
        "metrics": ["metrics", str(ref), str(test), "--per-frame"],
        "bdrate": ["bdrate", str(points), "--anchor", "HM", "--test", "VTM", "--plot-data"],
        "profile": ["profile", str(prof), "--pie-data"],
    }[command]


class TestOneWriterOnStdout:
    @pytest.mark.parametrize("command", ["metrics", "bdrate", "profile"])
    def test_side_output_alone_on_stdout(self, tmp_path, rng, capsys, command):
        # The side CSV on stdout is byte for byte the file it would write, and
        # the summary lines, which would follow it, are left out.
        argv = stdout_case(tmp_path, rng, command)
        side, report = tmp_path / "side.csv", tmp_path / "r.json"
        assert main([*argv, str(side), "-q", "-o", str(report)]) == 0
        expected = json.loads(report.read_text())["results"]
        assert main([*argv, "-", "-o", str(report)]) == 0
        assert capsys.readouterr().out == side.read_text()
        assert json.loads(report.read_text())["results"] == expected

    @pytest.mark.parametrize("command", ["metrics", "bdrate", "profile"])
    def test_second_stdout_output_exit_2(self, tmp_path, rng, capsys, command):
        argv = stdout_case(tmp_path, rng, command)
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert main([*argv, "-"]) == 2
        flag = argv[-1]
        assert capsys.readouterr() == (
            "", f"codecbench: error: --output - and {flag} - both write to stdout\n")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files

    def test_pie_data_stdout_with_several_inputs_exit_2(self, tmp_path, capsys,
                                                        monkeypatch):
        # --pie-data takes one input, on stdout too: refused, and nothing
        # is written.
        for name in ("a.out", "b.out"):
            (tmp_path / name).write_text(CALLGRIND)
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "a.out", "b.out", "--pie-data", "-", "-o", "r.json"]) == 2
        assert capsys.readouterr() == (
            "", "codecbench: error: --pie-data takes one input; use --format csv for several\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.out", "b.out"]


def run_with_stdout_file(argv, stdout):
    """Run the CLI in a subprocess whose stdout is the file stdout; returns
    (exit status, what it wrote to stdout, what it wrote to stderr)."""
    src = os.path.dirname(os.path.dirname(codecbench.__file__))
    with open(stdout, "wb") as fp:
        proc = subprocess.run(
            [sys.executable, "-m", "codecbench.cli", *argv], stdout=fp,
            stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
    return proc.returncode, stdout.read_text(), proc.stderr


class TestStdoutSpelledAsAPath:
    # An output path that names the file open as stdout writes to stdout,
    # as '-' does, so the one-writer rule counts it as '-'.
    SPELLINGS = ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1", "redirected"]

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_second_stdout_output_exit_2(self, tmp_path, spelling):
        prof = tmp_path / "a.out"
        prof.write_text(CALLGRIND)
        out = tmp_path / "stdout.txt"
        path = str(out) if spelling == "redirected" else spelling
        status, stdout, stderr = run_with_stdout_file(
            ["profile", str(prof), "--pie-data", "-", "-o", path], out)
        assert (status, stdout) == (2, "")
        assert stderr == (
            f"codecbench: error: --output {path} and --pie-data - both write to stdout\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.out", "stdout.txt"]

    def test_two_paths_naming_stdout_exit_2(self, tmp_path, rng):
        ref, test = write_pair(tmp_path, rng, frames=1)
        out = tmp_path / "stdout.txt"
        status, stdout, stderr = run_with_stdout_file(
            ["metrics", str(ref), str(test), "-o", "/dev/stdout", "--per-frame", str(out)],
            out)
        assert (status, stdout) == (2, "")
        assert stderr == (f"codecbench: error: --output /dev/stdout and --per-frame {out} "
                          "both write to stdout\n")

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_report_alone_on_stdout_leaves_out_the_summary(self, tmp_path, spelling):
        prof = tmp_path / "a.out"
        prof.write_text(CALLGRIND)
        out = tmp_path / "stdout.txt"
        path = str(out) if spelling == "redirected" else spelling
        status, stdout, stderr = run_with_stdout_file(["profile", str(prof), "-o", path], out)
        assert (status, stderr) == (0, "")
        assert json.loads(stdout)["results"]["profiles"]


def every_input(tmp_path, rng, command):
    """The argv of `command` with every input flag given, and the paths of
    its inputs in the order given."""
    if command == "metrics":
        ref, test = write_pair(tmp_path, rng, frames=3)
        vmaf = tmp_path / "vmaf.json"
        vmaf.write_text(json.dumps({"frames": [{"metrics": {"vmaf": 90.0}}] * 3}))
        inputs = [ref, test, vmaf]
        argv = ["metrics", str(ref), str(test), "--external", str(vmaf)]
    elif command == "bdrate":
        points = tmp_path / "points.csv"
        points.write_bytes(POINTS)
        inputs = [points]
        argv = ["bdrate", str(points), "--anchor", "HM", "--test", "VTM"]
    elif command == "mos":
        scores, meta = write_panel(tmp_path)
        inputs = [scores, meta]
        argv = ["mos", str(scores), "--pvs-meta", str(meta)]
    else:
        prof_a, prof_b = tmp_path / "a.out", tmp_path / "b.out"
        prof_a.write_text(CALLGRIND)
        prof_b.write_text(CALLGRIND)
        mapping, timing = tmp_path / "map.txt", tmp_path / "timing.csv"
        mapping.write_text("TZSearch -> Search\n")
        timing.write_bytes(TIMING)
        inputs = [prof_a, prof_b, mapping, timing]
        argv = ["profile", str(prof_a), str(prof_b), "--mapping", str(mapping),
                "--timing", str(timing)]
    return argv, [str(path) for path in inputs]


@pytest.mark.parametrize("command", ["metrics", "bdrate", "mos", "profile"])
def test_report_names_every_input(tmp_path, rng, command):
    # The report's inputs are the files the output rule was given, so
    # profile's --mapping is digested with the rest.
    argv, inputs = every_input(tmp_path, rng, command)
    out = tmp_path / "report.json"
    assert main(argv + ["--output", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert [entry["name"] for entry in doc["inputs"]] == inputs
    assert all(entry["bytes"] == os.path.getsize(entry["name"]) for entry in doc["inputs"])


def test_each_help_reads_its_own_default():
    # A help text names its flag's default as %(default)s, never as a
    # literal that a changed default would leave stale.
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    stale = [f"{command} {action.dest}: {action.help}"
             for command, parser in sub.choices.items() for action in parser._actions
             if action.default not in (None, argparse.SUPPRESS)
             and re.search(r"\(default:? (?!%\(default\))", action.help or "")]
    assert stale == []


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["metrics", "a.y4m", "b.y4m", "--clamp-db", "-inf"],
             "argument --clamp-db: expected one argument"),
            (["encode", "a.y4m"], "argument COMMAND: invalid choice: 'encode'"),
            (["mos", "--pvs-meta", "meta.csv"],
             "the following arguments are required: scores"),
        ],
        ids=["split_clamp_db", "unknown_subcommand", "missing_positional"],
    )
    def test_one_line_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"codecbench: error: {message}")
        assert len(captured.err.splitlines()) == 1

    def test_help_and_version_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"codecbench {codecbench.__version__}\n"
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: codecbench metrics [-h]")
        assert "--jobs JOBS" in captured.out and captured.err == ""


class TestRounding:
    def test_six_significant_digits(self):
        doc = normalize_floats({"x": 48.13080360867913, "nested": [1.23456789e-7]})
        assert doc["x"] == 48.1308
        assert doc["nested"][0] == 1.23457e-7

    def test_ints_and_bools_untouched(self):
        doc = normalize_floats({"n": 12345678, "flag": True})
        assert doc["n"] == 12345678
        assert doc["flag"] is True

    def test_non_finite_floats_serialize_as_strings(self):
        import math

        from codecbench.report import render_json

        text = render_json({"f": math.inf, "list": [math.nan]})
        doc = json.loads(text)
        assert doc["f"] == "inf"
        assert doc["list"][0] == "nan"

    def test_render_json_rounds_and_stringifies_in_one_walk(self):
        import math

        from codecbench.report import render_json

        doc = {"x": 48.13080360867913, "pair": (1.23456789e-7, -math.inf), "n": 7}
        assert json.loads(render_json(doc)) == {
            "x": 48.1308, "pair": [1.23457e-7, "-inf"], "n": 7,
        }
        assert json.loads(render_json(doc, full_precision=True)) == {
            "x": 48.13080360867913, "pair": [1.23456789e-7, "-inf"], "n": 7,
        }

    @pytest.mark.parametrize("full_precision", [False, True])
    def test_render_csv_non_finite_cells(self, full_precision):
        import math

        from codecbench.report import render_csv

        row = [math.inf, math.nan, -math.inf, 0.1 + 0.2]
        out = io.StringIO()
        render_csv(["a", "b", "c", "d"], [row], out, full_precision=full_precision)
        last = "0.30000000000000004" if full_precision else "0.3"
        assert out.getvalue() == f"a,b,c,d\ninf,nan,-inf,{last}\n"


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs ~0.4 s of start-up on top of what the CLI imports.
    import codecbench

    src = os.path.dirname(os.path.dirname(codecbench.__file__))
    probe = "import sys, codecbench.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_full_precision_reports_do_not_depend_on_the_blas_kernel(tmp_path, rng):
    """`mos` and PSNR reports carry the same bits under two OpenBLAS kernels,
    picked by OPENBLAS_CORETYPE in a child process: no value they report goes
    through a BLAS call. Where numpy does not use OpenBLAS the variable does
    nothing, and this test proves nothing."""
    src = os.path.dirname(os.path.dirname(codecbench.__file__))
    # 40 subjects by 600 stimuli: at least one Pearson value of the screening
    # changes under Prescott when it is taken with BLAS dot products.
    panel = np.random.default_rng(31)
    stimuli = [f"p{j}" for j in range(600)]
    quality = panel.uniform(10, 90, len(stimuli))
    lines = ["subject," + ",".join(stimuli)]
    for i in range(40):
        row = np.clip(np.rint(quality + panel.normal(0, 8, len(stimuli))), 0, 100)
        lines.append(f"s{i}," + ",".join(str(int(v)) for v in row))
    scores, meta = tmp_path / "scores.csv", tmp_path / "meta.csv"
    scores.write_text("\n".join(lines) + "\n")
    meta.write_text("pvs,codec,resolution,bitrate_kbps,content\n" + "".join(
        f"{pvs},c{j % 3},HD,{1000 * (j % 4 + 1)},src{j % 5}\n"
        for j, pvs in enumerate(stimuli)
    ))
    ref, test = write_pair(tmp_path, rng, delta=2)
    for argv in (["mos", str(scores), "--pvs-meta", str(meta)],
                 ["metrics", str(ref), str(test), "--metrics", "psnr"]):
        results = [
            json.loads(subprocess.run(
                [sys.executable, "-m", "codecbench.cli", *argv, "--full-precision"],
                env={**{k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"},
                     "PYTHONPATH": src, **core},
                capture_output=True, text=True, check=True,
            ).stdout)["results"]
            for core in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
        ]
        assert results[0] == results[1], argv[0]


def test_bd_functions_leave_out_scipy():
    # The PCHIP fit is numpy only; importing scipy would cost ~0.8 s.
    src = os.path.dirname(os.path.dirname(codecbench.__file__))
    probe = (
        "import sys\n"
        "from codecbench.rd import RDCurve, RDPoint, bd_rate, interpolate_log_rate\n"
        "c = RDCurve('', '', '', [RDPoint(r, q) for r, q in ((1e3, 30), (2e3, 35), (4e3, 40))])\n"
        "bd_rate(c, c), interpolate_log_rate(c, [32.0])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # Lazy imports inside functions count too: scipy is a test dependency only.
    package = Path(codecbench.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.split(".")[0] == "scipy"]
    assert found == []


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    # A module's underscore names are its own: no other codecbench module reads
    # them, as module._name or through from .module import _name.
    package = Path(codecbench.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif node.module is None and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
        found += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and is_private(node.attr)]
    assert found == []


def test_every_module_level_name_is_used_in_src():
    # The package keeps only code that a command runs: each module-level
    # function and class is read somewhere in src/ outside its own
    # definition.
    package = Path(codecbench.__file__).parent
    statements = [(path.name, stmt) for path in sorted(package.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    names = [{node.id if isinstance(node, ast.Name) else node.attr
              for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
             for _, stmt in statements]
    unused = [
        f"{module}:{stmt.name}" for i, (module, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and not any(stmt.name in used for j, used in enumerate(names) if j != i)
    ]
    assert unused == []


def test_cli_renders_what_the_library_computes():
    # The CLI turns library results into reports: it imports no numpy, even
    # inside a function, and takes no Bjøntegaard delta itself.
    path = Path(codecbench.__file__).parent / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        found += [f"cli.py:{node.lineno} imports {m}" for m in modules
                  if m.split(".")[0] == "numpy"]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("bd_rate", "bd_quality"):
                found.append(f"cli.py:{node.lineno} calls {name}")
    assert found == []


def test_cli_leaves_the_worker_cap_to_the_library():
    # sequence_quality caps the worker count at the usable CPUs; cli.py
    # neither reads the CPU count nor the affinity mask.
    path = Path(codecbench.__file__).parent / "cli.py"
    found = [f"cli.py:{node.lineno} reads {name}"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for name in [node.attr if isinstance(node, ast.Attribute)
                          else getattr(node, "id", None)]
             if name in ("sched_getaffinity", "cpu_count")]
    assert found == []


def call_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_one_report_call_site():
    # cli._emit is the one report rule: only it builds and renders the JSON
    # report, and each command ends by handing it its results and one table.
    package = Path(codecbench.__file__).parent
    found, commands = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and call_name(node) in ("make_report", "render_json")}
        if path.stem == "cli":
            fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
            emit = calls & set(own_nodes(fns["_emit"]))
            assert sorted(map(call_name, emit)) == ["make_report", "render_json"]
            calls -= emit
            for name, fn in fns.items():
                if not name.startswith("cmd_"):
                    continue
                commands.append(name)
                emits = [node for node in own_nodes(fn)
                         if isinstance(node, ast.Call) and call_name(node) == "_emit"]
                last = fn.body[-1]
                if not (len(emits) == 1 and isinstance(last, ast.Return)
                        and last.value is emits[0]):
                    found.append(f"cli.{name} does not end in one _emit call")
        found += [f"{path.name}:{node.lineno} calls {call_name(node)}" for node in calls]
    assert sorted(commands) == ["cmd_bdrate", "cmd_metrics", "cmd_mos", "cmd_profile"]
    assert found == []


# The one number rule of input text is report.parse_number. _score_row keeps
# a bulk float() pass over a row, and parse_callgrind the int() of its hot
# cost-line loop.
NUMBER_PARSERS = {"report.parse_number", "subjective._score_row",
                  "profiling.parse_callgrind"}


def catches_value_error(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(n is None or (isinstance(n, ast.Name) and n.id in
                             ("ValueError", "Exception", "BaseException"))
               for n in names)


def own_nodes(fn):
    """The nodes of a function's body, without those of functions defined
    in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_function_parses_numbers_its_own_way():
    # int(), float() or a `kind` standing for one, called in a try that
    # catches ValueError, is a number parser.
    package = Path(codecbench.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in own_nodes(fn):
                if not (isinstance(node, ast.Try)
                        and any(map(catches_value_error, node.handlers))):
                    continue
                called = {call.func.id for stmt in node.body for call in ast.walk(stmt)
                          if isinstance(call, ast.Call)
                          and isinstance(call.func, ast.Name)}
                if called & {"int", "float", "kind"}:
                    found.append(f"{path.stem}.{fn.name}:{node.lineno}")
    assert [f for f in found if f.split(":")[0] not in NUMBER_PARSERS] == []


def test_fixed_column_tables_read_numbers_through_a_schema():
    # A table of fixed columns declares a {column: kind} schema and leaves its
    # cells to report.parse_csv; the scores grid, whose columns are its
    # stimuli, reads each cell in subjective._score_row. No other function
    # refers to report.read_number.
    package = Path(codecbench.__file__).parent
    found = sorted({f"{path.stem}.{fn.name}"
                    for path in sorted(package.glob("*.py"))
                    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in own_nodes(fn)
                    if "read_number" in (getattr(node, "id", None),
                                         getattr(node, "attr", None))})
    assert found == ["report.parse_csv", "subjective._score_row"]


def names_a_file(message):
    """Whether an f-string message starts with a `{value}:` prefix, such
    as `{path}:{lineno}: ` or `{os.fsdecode(path)}: `."""
    parts = message.values if isinstance(message, ast.JoinedStr) else []
    return (len(parts) > 1 and isinstance(parts[0], ast.FormattedValue)
            and isinstance(parts[1], ast.Constant) and parts[1].value.startswith(":"))


def names_a_line(message):
    """Whether an f-string message starts with a `line {value}` prefix,
    such as `line {lineno}: `."""
    parts = message.values if isinstance(message, ast.JoinedStr) else []
    return (len(parts) > 1 and isinstance(parts[0], ast.Constant)
            and parts[0].value.lower().startswith("line ")
            and isinstance(parts[1], ast.FormattedValue))


def data_format_messages():
    """(site, message node) of every DataFormatError raised with a message
    in the package's functions."""
    package = Path(codecbench.__file__).parent
    return [(f"{path.stem}.{fn.name}:{node.lineno}", node.args[0])
            for path in sorted(package.glob("*.py"))
            for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in own_nodes(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "DataFormatError" and node.args]


def test_only_named_errors_names_a_file():
    # report.named_errors is the one rule that puts the file (and line) in
    # front of an input fault; elsewhere a DataFormatError message is bare.
    found = [site for site, message in data_format_messages() if names_a_file(message)]
    assert [f for f in found if not f.startswith("report.named_errors:")] == []


def test_only_named_errors_decodes_a_path():
    # A path turns into message text in one place, whatever error class the
    # message goes into: os.fsdecode is called by report.named_errors alone.
    package = Path(codecbench.__file__).parent
    found = [f"{path.stem}.{fn.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in own_nodes(fn)
             if isinstance(node, ast.Call) and "fsdecode" in (
                 getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    assert [f for f in found if not f.startswith("report.named_errors:")] == []


def test_no_message_names_its_own_line():
    # A parser sets the line of its named_errors cursor instead of writing
    # `line N:` into the message, so every fault reads `file:N: ...`.
    assert [site for site, message in data_format_messages() if names_a_line(message)] == []


def test_no_flag_is_converted_by_int_or_float():
    # A numeric flag's argparse type is built on report.parse_number, so its
    # value follows the number rule of input text; int and float do not.
    package = Path(codecbench.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"
             for kw in node.keywords
             if kw.arg == "type" and isinstance(kw.value, ast.Name)
             and kw.value.id in ("int", "float")]
    assert found == []


HEAVY_MODULES = ("numpy", "scipy", "scipy.ndimage", "scipy.interpolate", "scipy.special")


def modules_loaded_by(argv, cwd):
    """Run main(argv) in a fresh interpreter; return its exit code and which
    of HEAVY_MODULES it loaded."""
    src = os.path.dirname(os.path.dirname(codecbench.__file__))
    probe = (
        "import json, sys\n"
        "from codecbench.cli import main\n"
        "try:\n"
        f"    rc = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        f"print(json.dumps([rc, [m for m in {HEAVY_MODULES!r} if m in sys.modules]]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    rc, loaded = json.loads(out.stdout.splitlines()[-1])
    return rc, set(loaded)


def import_contract_argv(tmp_path, command):
    if command == "--version":
        return ["--version"]
    if command == "profile":
        (tmp_path / "callgrind.out").write_text(CALLGRIND)
        argv = ["profile", "callgrind.out", "--pie-data", "pie.csv"]
    elif command == "mos":
        scores, meta = write_panel(tmp_path)
        argv = ["mos", scores.name, "--pvs-meta", meta.name]
    elif command == "metrics":
        ref, test = write_pair(tmp_path, np.random.default_rng(0), frames=2)
        argv = ["metrics", ref.name, test.name, "--metrics", "psnr,ssim,wpsnr"]
    else:
        rows = []
        for rate, quality in [(1000, 30), (2000, 35), (4000, 40)]:
            rows.append(f"HM,s1,PSNR,,{rate},{quality}\n")
            rows.append(f"VTM,s1,PSNR,,{rate * 0.8},{quality}\n")
        write_rd_csv(tmp_path / "points.csv", rows)
        argv = ["bdrate", "points.csv", "--anchor", "HM", "--test", "VTM",
                "--plot-data", "plot.csv"]
    return argv + ["-o", "report.json", "-q"]


@pytest.mark.parametrize(
    ("command", "not_loaded"),
    [
        ("--version", set(HEAVY_MODULES)),
        ("profile", set(HEAVY_MODULES)),
        ("mos", {"scipy", "scipy.ndimage", "scipy.interpolate", "scipy.special"}),
        ("metrics", {"scipy", "scipy.ndimage", "scipy.interpolate", "scipy.special"}),
        ("bdrate", {"scipy", "scipy.ndimage", "scipy.interpolate", "scipy.special"}),
    ],
)
def test_subcommand_imports_only_what_it_needs(tmp_path, command, not_loaded):
    rc, loaded = modules_loaded_by(import_contract_argv(tmp_path, command), tmp_path)
    assert rc == 0
    assert not loaded & not_loaded


# The rows of each command's JSON results that its CSV report holds.
CSV_TABLES = {
    "metrics": (["metric", "mean", "frames", "clamp_applied"],
                lambda results: results["metrics"]),
    "bdrate": (["sequence", "metric", "bd_rate_percent", "bd_quality"],
               lambda results: results["deltas"] + results["averages"]),
    "mos": ([*RD_CSV_COLUMNS, "ci95", "n"], lambda results: results["mos"]),
    "profile": (["file", "stage", "cost", "percent"],
                lambda results: [{"file": p["file"], **s}
                                 for p in results["profiles"] for s in p["stages"]]),
}


@pytest.mark.parametrize("precision", [[], ["--full-precision"]], ids=["6-digits", "full"])
@pytest.mark.parametrize("command", sorted(CSV_TABLES))
def test_csv_report_is_the_json_tables_projection(tmp_path, monkeypatch, command, precision):
    # A CSV report is the table of the JSON results projected on its header,
    # a flag written 0/1, at the same precision.
    monkeypatch.chdir(tmp_path)
    # The planted command without its trailing `-o report.json -q`.
    argv = import_contract_argv(tmp_path, command)[:-3] + precision + ["-q"]
    assert main(argv + ["-o", "report.json"]) == 0
    assert main(argv + ["--format", "csv", "-o", "report.csv"]) == 0
    columns, table = CSV_TABLES[command]
    rows = table(json.loads((tmp_path / "report.json").read_text())["results"])
    with open(tmp_path / "report.csv", newline="") as fp:
        header, *cells = csv.reader(fp)
    assert header == columns
    assert len(rows) > 1
    assert cells == [[str(int(row[c]) if isinstance(row[c], bool) else row[c]) for c in columns]
                     for row in rows]


def test_package_import_is_lazy():
    # `import codecbench` loads no submodule, so neither numpy nor scipy.
    src = os.path.dirname(os.path.dirname(codecbench.__file__))
    probe = (
        "import sys, codecbench\n"
        "print([m for m in sys.modules if m in ('numpy', 'scipy') or m.startswith('codecbench.')])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_readme_library_imports_resolve(tmp_path, rng, monkeypatch):
    # The Library block runs as written, over a pair in the working directory:
    # an import from the package itself or a renamed function fails here.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    write_pair(tmp_path, rng, frames=2, delta=2)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert set(namespace["quality"]) == {"PSNR_Y", "SSIM"}
    assert namespace["saving"] == pytest.approx(-20.0)


def test_parser_defaults_match_library_constants():
    from codecbench import profiling, subjective
    from codecbench.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["metrics", "a.y4m", "b.y4m"])
    assert args.clamp_db == metrics.DEFAULT_CLAMP_DB
    args = parser.parse_args(["mos", "s.csv", "--pvs-meta", "m.csv"])
    assert args.threshold == subjective.SCREENING_THRESHOLD
    assert args.ci_constant == subjective.CI_CONSTANT
    args = parser.parse_args(["profile", "c.out"])
    assert args.threshold == profiling.BUCKET_THRESHOLD
