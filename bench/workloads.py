"""The three workloads: inputs, CLI commands, output checks and the extra
in-process work of the traced run.

- ssim_1080p8: ``metrics`` on an 8-bit 4:2:0 1080p Y4M pair with the default
  metric set and ``--jobs``; SSIM does almost all the work, so an SSIM
  kernel or default-worker change shows here.
- psnr_raw10_444: ``metrics --metrics psnr --jobs <nproc> --per-frame`` on a
  headerless 10-bit 4:4:4 pair; no SSIM runs, so an SSIM change predicts no
  change here while a reader, MSE or pool change does. It is not listed in
  BENCHMARK.json: on a shared 2-vCPU host its wall time, half of it start-up
  and all of it on both CPUs, spread 9-58% from run to run, and each seed
  writes a 1 GB input pair. It still runs by hand with ``--workload``.
- tables: ``profile``, ``bdrate`` and ``mos`` in sequence; no video is read,
  so every video_io and metrics change predicts no change here.
"""

from __future__ import annotations

import json
import os

import numpy as np

import checks
import gen

NPROC = len(os.sched_getaffinity(0))
VIDEO_METRICS = ("PSNR_Y", "PSNR_U", "PSNR_V", "WPSNR", "SSIM")
PSNR_METRICS = VIDEO_METRICS[:4]


class Command:
    """One CLI invocation: arguments after the program name and the files
    it writes (relative to the checkout root)."""

    def __init__(self, label, args, outputs):
        self.label = label
        self.args = [str(a) for a in args]
        self.outputs = [str(p) for p in outputs]


def _json(outputs, path):
    return json.loads(outputs[path])


def _replace(outputs, cmd, doc):
    bad = dict(outputs)
    bad[cmd.outputs[0]] = json.dumps(doc).encode()
    return bad


class Workload:
    name: str
    frames: int | None  # frame pairs per metrics command, for frames_per_s

    def verify_commands(self, inp, out):
        """Extra untimed invocations, each with a comparison against the
        first command's outputs."""
        return []

    def trace_extra(self, codecbench, inp, outputs, cmd):
        """Extra in-process work of the traced run; returns failures."""
        return []


class VideoWorkload(Workload):
    frames: int
    jobs: int
    metric_ids: tuple

    def check(self, truth, outputs, cmd):
        doc = _json(outputs, cmd.outputs[0])
        return checks.check_metrics_report(doc, truth, self.metric_ids)

    def perturb(self, outputs, cmd):
        """The outputs with one report value changed, which the checks
        must catch."""
        doc = _json(outputs, cmd.outputs[0])
        row = doc["results"]["metrics"][-1]
        row["mean"] *= 1.0 + 1e-7
        return f"{row['metric']} mean * (1 + 1e-7)", _replace(outputs, cmd, doc)

    def open_pair(self, video_io, inp):
        raise NotImplementedError

    def other_jobs(self):
        """Worker count of the traced run's second sequence_quality call."""
        return NPROC if self.jobs == 1 else 1

    def trace_extra(self, codecbench, inp, outputs, cmd):
        """Run sequence_quality at the other worker count in-process; its
        results must equal the CLI report's (same values, any --jobs)."""
        ref, test = self.open_pair(codecbench.video_io, inp)
        with ref, test:
            results = codecbench.metrics.sequence_quality(
                ref, test, self.metric_ids, jobs=self.other_jobs()
            )
        doc = _json(outputs, cmd.outputs[0])
        fails = []
        for row in doc["results"]["metrics"]:
            sq = results[row["metric"]]
            if (sq.value, sq.clamp_applied) != (row["mean"], row["clamp_applied"]):
                fails.append(f"{row['metric']} at jobs={self.other_jobs()} differs "
                             f"from the CLI report")
        return fails


class Ssim1080p8(VideoWorkload):
    name = "ssim_1080p8"
    frames = 16
    jobs = 1  # the CLI default; the command does not pass --jobs
    metric_ids = VIDEO_METRICS

    def prepare(self, directory, seed):
        lossless = int(np.random.default_rng([seed, 1]).integers(self.frames))
        return gen.video_pair(
            directory, seed, frames=self.frames, bit_depth=8, chroma444=False,
            y4m=True, lossless_frame=lossless, max_noise=8, with_ssim=True,
        )

    def commands(self, inp, out):
        report = out / "report.json"
        return [Command("metrics", ["metrics", inp / "ref.y4m", inp / "test.y4m",
                                    "--full-precision", "-q", "-o", report], [report])]

    def open_pair(self, video_io, inp):
        return video_io.Y4MReader(inp / "ref.y4m"), video_io.Y4MReader(inp / "test.y4m")


class PsnrRaw10444(VideoWorkload):
    name = "psnr_raw10_444"
    frames = 40
    jobs = NPROC
    metric_ids = PSNR_METRICS

    def prepare(self, directory, seed):
        return gen.video_pair(
            directory, seed, frames=self.frames, bit_depth=10, chroma444=True,
            y4m=False, lossless_frame=None, max_noise=16, with_ssim=False,
        )

    def commands(self, inp, out):
        return [self._command(inp, out, self.jobs)]

    @staticmethod
    def _command(inp, out, jobs, tag=""):
        report, frames = out / f"report{tag}.json", out / f"frames{tag}.csv"
        return Command("metrics", [
            "metrics", inp / "ref.yuv", inp / "test.yuv", "--width", gen.WIDTH,
            "--height", gen.HEIGHT, "--bit-depth", 10, "--fps", "%d:%d" % gen.FPS,
            "--chroma", "444", "--metrics", "psnr", "--jobs", jobs,
            "--per-frame", frames, "--full-precision", "-q", "-o", report,
        ], [report, frames])

    def check(self, truth, outputs, cmd):
        text = outputs[cmd.outputs[1]].decode()
        return super().check(truth, outputs, cmd) + checks.check_per_frame_csv(
            text, truth, self.metric_ids
        )

    def verify_commands(self, inp, out):
        """The --jobs 1 report must match the --jobs <nproc> one except for
        the command echo."""
        return [(self._command(inp, out, 1, tag="_jobs1"), self._same_results)]

    @staticmethod
    def _same_results(outputs, cmd, reference_outputs, reference_cmd):
        fails = []
        a = _json(outputs, cmd.outputs[0])
        b = _json(reference_outputs, reference_cmd.outputs[0])
        if a["results"] != b["results"]:
            fails.append("--jobs 1 results differ from --jobs %d results" % NPROC)
        if outputs[cmd.outputs[1]] != reference_outputs[reference_cmd.outputs[1]]:
            fails.append("--jobs 1 per-frame CSV differs from --jobs %d" % NPROC)
        return fails

    def open_pair(self, video_io, inp):
        info = video_io.SequenceInfo(gen.WIDTH, gen.HEIGHT, gen.FPS[0], gen.FPS[1],
                                     10, video_io.CHROMA_444)
        return (video_io.RawReader(inp / "ref.yuv", info),
                video_io.RawReader(inp / "test.yuv", info))


class Tables(Workload):
    name = "tables"
    frames = None

    def prepare(self, directory, seed):
        outliers = int(np.random.default_rng([seed, 2]).integers(4, 9))
        return {
            "callgrind": gen.callgrind(directory, seed, target_lines=1_000_000),
            "rd": gen.rd_points(directory, seed, sequences=250, points_per_curve=6),
            "mos": gen.score_panel(directory, seed, subjects=150, stimuli=2000,
                                   missing=0.02, outliers=outliers),
        }

    def commands(self, inp, out):
        common = ["--full-precision", "-q", "-o"]
        return [
            Command("profile", ["profile", inp / "callgrind.out", "--pie-data",
                                out / "pie.csv", *common, out / "profile.json"],
                    [out / "profile.json", out / "pie.csv"]),
            Command("bdrate", ["bdrate", inp / "points.csv", "--anchor", "anchor",
                               "--test", "test", "--plot-data", out / "plot.csv",
                               *common, out / "bdrate.json"],
                    [out / "bdrate.json", out / "plot.csv"]),
            Command("mos", ["mos", inp / "scores.csv", "--pvs-meta", inp / "pvs.csv",
                            *common, out / "mos.json"],
                    [out / "mos.json"]),
        ]

    def check(self, truth, outputs, cmd):
        doc = _json(outputs, cmd.outputs[0])
        if cmd.label == "profile":
            return checks.check_profile(doc, outputs[cmd.outputs[1]].decode(),
                                        truth["callgrind"])
        if cmd.label == "bdrate":
            return checks.check_bdrate(doc, outputs[cmd.outputs[1]].decode(), truth["rd"])
        return checks.check_mos(doc, truth["mos"])

    def perturb(self, outputs, cmd):
        doc = _json(outputs, cmd.outputs[0])
        res = doc["results"]
        if cmd.label == "profile":
            res["profiles"][0]["total_cost"] += 1
            what = "total_cost + 1"
        elif cmd.label == "bdrate":
            res["deltas"][0]["bd_rate_percent"] += 1e-7
            what = "first BD-rate + 1e-7"
        else:
            res["mos"][0]["mos"] *= 1.0 + 1e-8
            what = "first MOS * (1 + 1e-8)"
        return what, _replace(outputs, cmd, doc)


WORKLOADS = {w.name: w for w in (Ssim1080p8(), PsnrRaw10444(), Tables())}
