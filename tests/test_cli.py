import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codecbench
from codecbench import metrics
from codecbench.cli import main
from codecbench.report import normalize_floats
from codecbench.video_io import CHROMA_444, write_y4m

from conftest import make_info, offset_frame, random_frame

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
        # Same size and bit depth, other chroma layout: caught before streaming.
        write_y4m(other, [random_frame(make_info(32, 32, chroma=CHROMA_444), rng)])
        assert main(["metrics", str(ref), str(other), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "chroma mismatch" in err and len(err.splitlines()) == 1
        # Same size and chroma layout, other bit depth.
        write_y4m(other, [random_frame(make_info(32, 32, bit_depth=10), rng)])
        assert main(["metrics", str(ref), str(other), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "codecbench: error: bit depth mismatch: reference 8 vs test 10\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_clamp_exit_2(self, tmp_path, rng, capsys, value):
        ref, test = write_pair(tmp_path, rng)
        rc = main(["metrics", str(ref), str(test), f"--clamp-db={value}", "--quiet"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("codecbench: error: --clamp-db")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, rng, capsys, value):
        ref, test = write_pair(tmp_path, rng)
        rc = main(["metrics", str(ref), str(test), "--jobs", value, "--quiet"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = f"codecbench: error: --jobs must be at least 1, got {value}\n"
        assert captured.err == expected

    @staticmethod
    def jobs_passed_on(tmp_path, rng, monkeypatch, requested):
        """The jobs value cmd_metrics hands to sequence_quality."""
        ref, test = write_pair(tmp_path, rng, frames=1)
        seen = []

        def record(ref_source, test_source, metric_ids, clamp_db, jobs):
            seen.append(jobs)
            return {m: metrics.SequenceQuality(m, (1.0,), 1.0) for m in metric_ids}

        monkeypatch.setattr(metrics, "sequence_quality", record)
        rc = main([
            "metrics", str(ref), str(test), "--jobs", str(requested),
            "--output", str(tmp_path / "report.json"), "--quiet",
        ])
        assert rc == 0
        assert len(seen) == 1
        return seen[0]

    @pytest.mark.parametrize("requested,expected", [(1, 1), (3, 3), (4, 3), (10**6, 3)])
    def test_jobs_capped_at_cpu_count(
        self, tmp_path, rng, monkeypatch, requested, expected
    ):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert self.jobs_passed_on(tmp_path, rng, monkeypatch, requested) == expected

    @pytest.mark.parametrize("has_affinity", [True, False])
    def test_jobs_capped_at_usable_cpus(self, tmp_path, rng, monkeypatch, has_affinity):
        # The affinity mask, not the host's CPU count, bounds the threads;
        # without one the CPU count does.
        if has_affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert self.jobs_passed_on(tmp_path, rng, monkeypatch, 4) == 1

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

    def test_mapping_from_environment(self, tmp_path, monkeypatch):
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
        assert "EnvSearch" in stages
        assert doc["results"]["mapping"] == str(mapping)

    def test_malformed_callgrind_exit_3(self, tmp_path, capsys):
        prof = tmp_path / "callgrind.out"
        prof.write_text("events: Ir\nfl=a.c\nfn=foo\n1 banana\n")
        assert main(["profile", str(prof), "--quiet"]) == 3
        assert "line 4" in capsys.readouterr().err


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
    "mapping", "env_mapping", "rd", "scores", "pvs", "timing", "external_csv",
    "external_json",
])
def test_non_utf8_input_names_the_file(tmp_path, rng, monkeypatch, capsys, kind):
    bad = tmp_path / f"{kind}.in"
    prof = tmp_path / "callgrind.out"
    prof.write_text(CALLGRIND)
    scores, meta = write_panel(tmp_path)
    ref, test = write_pair(tmp_path, rng)
    metrics_argv = ["metrics", str(ref), str(test), "--external", str(bad)]
    argv, content = {
        "mapping": (["profile", str(prof), "--mapping", str(bad)], NON_UTF8_MAPPING),
        "env_mapping": (["profile", str(prof)], NON_UTF8_MAPPING),
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
    if kind == "env_mapping":
        monkeypatch.setenv("CODECBENCH_STAGE_MAP", str(bad))
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        f"codecbench: format error: {bad}: not UTF-8 text (invalid start byte)\n"
    )
    assert not out.exists()


# Claims a 6e12-byte frame, which a read must not try to allocate at once.
HUGE_Y4M = b"YUV4MPEG2 W2000000 H2000000 F25:1 C420\nFRAME\nabc"
HUGE_RAW_FLAGS = ["--width", "2000000", "--height", "2000000", "--bit-depth", "8",
                  "--fps", "25"]
METRICS_EXTERNAL = ["metrics", "{ref}", "{test}", "--external", "{bad}"]


@pytest.mark.parametrize("argv,content,code,message", [
    (["metrics", "{ref}", "{test}", "--metrics", "psnr,vmaf"], None, 2,
     "unknown metric 'vmaf'; choose from psnr, psnr_u, psnr_v, psnr_y, ssim, wpsnr"),
    (["metrics", "{ref}", "{test}", "--metrics", ","], None, 2, "empty metric selection"),
    (["mos", "{scores}", "--pvs-meta", "{meta}", "--exclude", "p9"], None, 2,
     "--exclude names unknown stimuli: p9"),
    (METRICS_EXTERNAL, b"idx,score\n0,90\n", 3,
     "{bad}: expected header 'frame,score', got 'idx,score'"),
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
    (["profile", "{bad}"], b"events:\nfn=f\n1 5\n", 3, "{bad}: line 1: empty events header"),
    (["profile", "{prof}", "{bad}"], b"events: Ir\nfn=f\n1 x\n", 3,
     "{bad}: line 3: non-numeric cost 'x'"),
    (["mos", "{scores}", "--pvs-meta", "{bad}"],
     b"pvs,codec,resolution,bitrate_kbps,content\n"
     b"p1,HM,HD,1000,CrowdRun\np1,VTM,HD,1000,CrowdRun\n", 3,
     "{bad}:3: duplicate PVS id 'p1'"),
    (["mos", "{bad}", "--pvs-meta", "{meta}"], b"subject,p1,p2,p1\ns0,10,20,30\n", 3,
     "{bad}: duplicate stimulus columns"),
    (["profile", "{prof}", "--timing", "{bad}"],
     TIMING_HEADER.encode() + b"HM,CrowdRun,32,123,500,0,1\n", 3,
     "{bad}:2: degenerate duration: fps 0:1"),
], ids=[
    "unknown_metric", "empty_metric_selection", "exclude_unknown_stimulus",
    "external_csv_header", "external_json_invalid", "external_json_too_deep",
    "external_json_no_frames", "external_json_frames_not_array",
    "external_json_metric_missing", "y4m_header_non_ascii",
    "reference_format_error_names_reference", "test_format_error_names_test",
    "oversized_y4m_frame", "oversized_raw_frame", "callgrind_empty_events",
    "second_callgrind_names_its_file", "duplicate_pvs_id", "duplicate_stimulus_column",
    "timing_fps_num_0",
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
    paths = {"ref": ref, "test": test, "bad": bad, "prof": prof,
             "scores": scores, "meta": meta}
    out = tmp_path / "out.json"
    argv = [arg.format(**paths) for arg in argv]
    assert main([*argv, "--output", str(out), "--quiet"]) == code
    label = "error" if code == 2 else "format error"
    assert capsys.readouterr().err == f"codecbench: {label}: {message.format(bad=bad)}\n"
    assert not out.exists()

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


def float_flag_argv(tmp_path, command):
    """A valid mos or profile command line to append a float flag to."""
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
         ("--fps", "25:x", "malformed --fps value '25:x'\n")],
        ids=["width_0", "height_0", "fps_0", "fps_den_0", "odd_width_420",
             "fps_not_a_number", "fps_den_not_a_number"],
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
        out = tmp_path / "report.json"
        argv = float_flag_argv(tmp_path, command)
        assert main(argv + [f"{flag}={value}", "-q", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"codecbench: error: {flag} must be finite")
        assert len(captured.err.splitlines()) == 1
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
        argv = float_flag_argv(tmp_path, command)
        assert main(argv + [f"{flag}={value}", "-q", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"codecbench: error: {flag} must {rule}, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value",
        [("mos", "--threshold", "-1"), ("mos", "--ci-constant", "1e-9"),
         ("profile", "--threshold", "0"), ("profile", "--threshold", "100")],
    )
    def test_float_flag_bounds_accepted(self, tmp_path, command, flag, value):
        argv = float_flag_argv(tmp_path, command)
        assert main(argv + [f"{flag}={value}", "-q", "-o", str(tmp_path / "r.json")]) == 0

    def test_pie_data_stem_collision_exit_2(self, tmp_path, capsys):
        inputs = []
        for name in ("a/enc.out", "b/enc.out", "b/dec.out"):
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(CALLGRIND)
            inputs.append(str(path))
        pie, out = tmp_path / "pie.csv", tmp_path / "p.json"
        tail = ["--pie-data", str(pie), "-q", "-o", str(out)]
        assert main(["profile", *inputs, *tail]) == 2
        err = capsys.readouterr().err
        assert err.startswith("codecbench: error: --pie-data")
        assert inputs[0] in err and inputs[1] in err
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]
        # Distinct stems still get one pie each.
        assert main(["profile", inputs[0], inputs[2], *tail]) == 0
        assert (tmp_path / "pie-enc.csv").exists() and (tmp_path / "pie-dec.csv").exists()


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


def test_bd_functions_leave_out_scipy():
    # The PCHIP fit is numpy only; importing scipy would cost ~0.8 s.
    src = os.path.dirname(os.path.dirname(codecbench.__file__))
    probe = (
        "import sys\n"
        "from codecbench import RDPoint, bd_rate, interpolate_log_rate, validate_curve\n"
        "c = validate_curve([RDPoint(r, q) for r, q in ((1e3, 30), (2e3, 35), (4e3, 40))])\n"
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


def test_package_import_is_lazy(tmp_path):
    # `import codecbench` loads no submodule until one of its names is used.
    src = os.path.dirname(os.path.dirname(codecbench.__file__))
    probe = (
        "import sys, codecbench\n"
        "before = [m for m in ('numpy', 'codecbench.metrics') if m in sys.modules]\n"
        "print(before, codecbench.metrics.__name__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["[]", "codecbench.metrics"]


@pytest.mark.parametrize("name", codecbench.__all__)
def test_package_exports_resolve(name):
    namespace = {}
    exec(f"from codecbench import {name}", namespace)
    assert namespace[name] is getattr(codecbench, name)


def test_package_dir_and_unknown_names():
    assert set(codecbench.__all__) <= set(dir(codecbench))
    assert {"metrics", "rd", "subjective", "video_io"} <= set(dir(codecbench))
    with pytest.raises(AttributeError, match="no_such_name"):
        codecbench.no_such_name
    with pytest.raises(ImportError):
        exec("from codecbench import no_such_name", {})


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
