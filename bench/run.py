#!/usr/bin/env python3
"""codecbench benchmark: end-to-end CLI timings and per-layer traced timings.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {ssim_1080p8,psnr_raw10_444,tables} \\
        --seed N --seconds S --trace {0,1}

Inputs are generated from the seed (see gen.py) in a child process,
cached by seed under ``.bench_work/cache`` and read once before timing, so
they are served warm from the page cache; caches are never dropped, since
that would change the machine's state. The tool runs from ``src/`` of the
checkout; the benchmark uses only the stdlib, numpy and scipy.

``--trace 0`` is a closed loop: one client runs CLI commands as child
processes, one at a time; the only concurrency is the tool's own ``--jobs``.
After one untimed ``codecbench --version`` (bytecode and page-cache
warm-up), each iteration runs ``codecbench --version`` once and then the
workload's commands; the loop stops at the iteration boundary nearest to
``--seconds``, after at least MIN_ITERATIONS iterations. Spreading
the start-up samples over the whole run, instead of taking them in a burst
at its start, lets setup_s and wall_s average over the same stretch of the
host's speed. It reports the end-to-end metrics:

- setup_s: median wall time of the ``--version`` runs (interpreter start,
  imports, parser build), which every command pays;
- wall_s: median over iterations of the summed wall time of the commands;
- peak_rss_mb: median over iterations of the largest child ru_maxrss.

Before the result line it also prints frames_per_s (frame pairs per
second of the ``metrics`` command), the median time of each ``tables``
command (profile_s, bdrate_s, mos_s) and error_rate (failed over attempted
CLI invocations, also given as ``failed`` and ``attempted``).

``--trace 1`` runs the workload's commands once untraced, then once
in-process through ``codecbench.cli.main`` with spans around the public
calls listed in spans.py, and reports the per-layer metrics; a layer that
does not run on the workload reports 0. Per-frame figures are per frame
pair and come from the ``sequence_quality(jobs=1)`` call: the CLI's on
ssim_1080p8, an extra in-process call on psnr_raw10_444.

Every invocation is checked (checks.py): the first iteration's outputs
against the planted truth, later iterations for byte-identical outputs,
and on psnr_raw10_444 a ``--jobs 1`` run against the ``--jobs <nproc>``
report. A self-test perturbs one value of each checked report and requires
the checks to catch it. The last line of standard output is the JSON
result; a full record (environment, samples, failures) and the spans go
under ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import spans
from workloads import NPROC, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, the working directory
CACHE_VERSION = "v1"
MIN_ITERATIONS = 3
RUN_BUDGET_S = 170  # every child is killed by then, so a run ends within 180 s


# -------------------------------------------------------------- child runs

class Child(NamedTuple):
    """Wall time, CPU time, peak RSS and exit code of one child process."""

    wall: float
    cpu: float
    rss_mb: float
    rc: int


class Runner:
    """Starts children one at a time and counts operations: an operation is
    one CLI invocation, failed on a non-zero exit or a failed check."""

    def __init__(self, log, deadline):
        self.log = log
        self.deadline = deadline
        extra = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([extra] if extra else [])))
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def spawn(self, argv) -> Child:
        with open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode)

    def cli(self, args) -> Child:
        return self.spawn([sys.executable, "-m", "codecbench.cli", *args])

    def run(self, cmd):
        clear_outputs(cmd)
        child = self.cli(cmd.args)
        return child, read_outputs(cmd)

    def record(self, what, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(f"{what}: {m}" for m in fails)

    def version(self) -> float:
        """Wall time of one ``codecbench --version``: the start-up cost."""
        child = self.cli(["--version"])
        self.record("--version", [f"exit code {child.rc}"] if child.rc else [])
        return child.wall


def read_outputs(cmd):
    return {p: Path(p).read_bytes() if Path(p).is_file() else None for p in cmd.outputs}


def clear_outputs(cmd):
    for p in cmd.outputs:
        Path(p).unlink(missing_ok=True)


def check_outputs(wl, truth, cmd, outputs) -> list[str]:
    missing = [p for p, data in outputs.items() if data is None]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    try:
        return wl.check(truth, outputs, cmd)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def verdict(wl, truth, cmd, child, outputs):
    if child.rc != 0:
        return [f"exit code {child.rc}"]
    return check_outputs(wl, truth, cmd, outputs)


def self_test(wl, truth, cmds, outputs):
    """Perturb one value per report; the checks must count it a failure."""
    lines, ok = [], True
    for cmd in cmds:
        what, bad = wl.perturb(outputs[cmd.label], cmd)
        caught = len(check_outputs(wl, truth, cmd, bad))
        ok = ok and caught > 0
        lines.append(f"self-test {cmd.label}: report with {what} -> "
                     f"{'caught' if caught else 'NOT caught'} ({caught} failure(s))")
    return ok, lines


# ------------------------------------------------------------------ inputs

def prepare(wl, seed, deadline):
    """Inputs and truth for (workload, seed), generated once and cached.

    Only one seed is kept per workload: the psnr_raw10_444 pair is ~1 GB.
    """
    base = WORK / "cache" / wl.name
    directory = base / f"{CACHE_VERSION}-seed{seed}"
    truth_file = directory / "truth.json"
    if truth_file.is_file():
        return directory, json.loads(truth_file.read_text()), 0.0
    shutil.rmtree(base, ignore_errors=True)
    tmp = base / f"tmp-seed{seed}"
    tmp.mkdir(parents=True)
    start = time.perf_counter()
    # A child process generates, so this process stays small: a child's
    # ru_maxrss starts from the RSS of the process that started it.
    subprocess.run([sys.executable, str(BENCH / "gen.py"), wl.name, str(tmp), str(seed)],
                   check=True, timeout=max(1.0, deadline - time.monotonic()))
    tmp.rename(directory)
    return directory, json.loads(truth_file.read_text()), time.perf_counter() - start


def warm(directory):
    """Read every input once so timed runs find it in the page cache."""
    sizes = {}
    for path in sorted(directory.iterdir()):
        if path.name == "truth.json":
            continue
        with open(path, "rb") as fp:
            while fp.read(1 << 24):
                pass
        sizes[path.name] = path.stat().st_size
    return sizes


def environment(seed, input_bytes):
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fp:
        for line in fp:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches, l3 = [], None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
        if level == "3" and size.endswith("K"):
            l3 = int(size[:-1]) * 1024
    total = sum(input_bytes.values())
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "caches": caches,
        "seed": seed,
        "input_bytes": input_bytes,
        "input_bytes_total": total,
        "input_over_l3": total / l3 if l3 else None,
        "page_cache": "inputs are read once before timing and served warm from "
                      "the page cache; caches are not dropped, since that "
                      "would change the machine's state",
    }


# ---------------------------------------------------------------- untraced

def run_untraced(wl, inp, out, truth, seconds, runner):
    cmds = wl.commands(inp, out)
    runner.version()  # warm-up, not a sample
    setups, iterations = [], []
    start = time.perf_counter()
    while True:
        setups.append(runner.version())
        iterations.append([runner.run(cmd) for cmd in cmds])
        elapsed = time.perf_counter() - start
        if (len(iterations) >= MIN_ITERATIONS
                and elapsed + 0.5 * elapsed / len(iterations) > seconds):
            break

    # Untimed verification: iteration 0 against the truth, later iterations
    # for byte-identical outputs.
    first = {cmd.label: outs for cmd, (_, outs) in zip(cmds, iterations[0])}
    verdicts = {cmd.label: verdict(wl, truth, cmd, child, outs)
                for cmd, (child, outs) in zip(cmds, iterations[0])}
    for i, iteration in enumerate(iterations):
        for cmd, (child, outs) in zip(cmds, iteration):
            if child.rc != 0:
                fails = [f"exit code {child.rc}"]
            elif outs != first[cmd.label]:
                fails = ["outputs differ from iteration 0"]
            else:
                fails = verdicts[cmd.label]
            runner.record(f"iteration {i} {cmd.label}", fails)
    for vcmd, compare in wl.verify_commands(inp, out):
        child, outs = runner.run(vcmd)
        fails = verdict(wl, truth, vcmd, child, outs) or compare(
            outs, vcmd, first[cmds[0].label], cmds[0])
        runner.record(f"verify {vcmd.label} {vcmd.outputs[0]}", fails)
    selftest_ok, selftest = True, []
    if not any(verdicts.values()):
        selftest_ok, selftest = self_test(wl, truth, cmds, first)

    walls = [sum(child.wall for child, _ in it) for it in iterations]
    per_cmd = {cmd.label: [it[k][0].wall for it in iterations] for k, cmd in enumerate(cmds)}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c, _ in it) for it in iterations),
    }
    if wl.frames:
        extra = {"frames_per_s": (wl.frames / statistics.median(per_cmd["metrics"]),
                                  "frames/s")}
    else:
        extra = {f"{label}_s": (statistics.median(t), "s") for label, t in per_cmd.items()}
    samples = {"iterations": len(iterations), "setup_s": setups, "wall_s": walls,
               "per_command_s": per_cmd}
    return metrics, extra, samples, selftest_ok, selftest


# ------------------------------------------------------------------ traced

def run_traced(wl, inp, out, truth, runner, spans_file):
    runner.version()  # warm-up, not a sample
    setup = statistics.median(runner.version() for _ in range(3))
    interp = statistics.median(
        runner.spawn([sys.executable, "-c", "pass"]).wall for _ in range(3))
    imported = statistics.median(
        runner.spawn([sys.executable, "-c", "import codecbench.cli"]).wall for _ in range(3))

    cmds = wl.commands(inp, out)
    untraced = [runner.run(cmd) for cmd in cmds]
    for cmd, (child, outs) in zip(cmds, untraced):
        runner.record(f"untraced {cmd.label}", verdict(wl, truth, cmd, child, outs))

    sys.path.insert(0, str(SRC))
    import codecbench
    import codecbench.cli

    if Path(codecbench.__file__).resolve().parent != (SRC / "codecbench").resolve():
        raise RuntimeError(f"imported codecbench from {codecbench.__file__}, not {SRC}")
    tracer = spans.Tracer()
    with spans.traced_layers(tracer):
        for cmd, (_, expected) in zip(cmds, untraced):
            clear_outputs(cmd)
            with tracer.span("cli.main", command=cmd.label):
                try:
                    rc = codecbench.cli.main(cmd.args)
                except Exception as exc:  # one failed operation, not a crash
                    rc = repr(exc)
            outs = read_outputs(cmd)
            fails = [] if rc == 0 else [f"in-process exit {rc}"]
            if not fails and outs != expected:
                fails.append("traced outputs differ from the untraced CLI's")
            if not fails:
                fails = wl.trace_extra(codecbench, inp, outs, cmd)
            runner.record(f"traced {cmd.label}", fails)
    spans_file.write_text(json.dumps(tracer.to_json()))

    children = [child for child, _ in untraced]
    return layer_metrics(wl, truth, tracer.spans, setup, interp, imported, children)


def layer_metrics(wl, truth, all_spans, setup, interp, imported, children):
    self_s = spans.self_seconds(all_spans)

    def named(name, pool=all_spans):
        return [s for s in pool if s.name == name]

    def seconds(name, pool=all_spans):
        return sum(s.seconds for s in named(name, pool))

    m, notes = {}, []
    cli_spans = named("cli.main")
    in_cli = [d for c in cli_spans for d in spans.descendants(all_spans, c.id)]

    sq = named("metrics.sequence_quality")
    if sq:
        frames = wl.frames
        cli_ids = {s.id for s in in_cli}
        serial = next(s for s in sq if s.attrs["jobs"] == 1)
        pool = next((s for s in sq if s.attrs["jobs"] == NPROC), serial)
        at_jobs = next(s for s in sq if s.id in cli_ids)
        under = spans.descendants(all_spans, serial.id)
        read = named("video_io.read_frame", under)
        read_s = sum(s.seconds for s in read)
        read_bytes = sum(s.attrs["bytes"] for s in read)
        psnr_s = seconds("metrics.mse", under) + seconds("metrics.psnr_from_mse", under)
        m.update({
            "video_io.read_ms_per_frame": 1e3 * read_s / frames,
            "video_io.read_MB_per_s": read_bytes / 1e6 / read_s,
            "video_io.bytes_read": read_bytes,
            "metrics.ssim_ms_per_frame": 1e3 * seconds("metrics.ssim_frame", under) / frames,
            "metrics.psnr_ms_per_frame": 1e3 * psnr_s / frames,
            "metrics.sequence_quality_s": at_jobs.seconds,
            "metrics.sequence_overhead_ms_per_frame": 1e3 * self_s[serial.id] / frames,
            "metrics.pool_speedup": serial.seconds / pool.seconds,
            "metrics.frames": frames,
        })
        notes.append(f"metrics.pool_speedup = sequence_quality jobs=1 {serial.seconds:.3f} s "
                     f"/ jobs={pool.attrs['jobs']} {pool.seconds:.3f} s; "
                     f"sequence_quality_s is at the workload's jobs={at_jobs.attrs['jobs']}")

    parse = named("profiling.parse_callgrind")
    if parse:
        parse_s = sum(s.seconds for s in parse)
        lines = truth["callgrind"]["lines"]
        m.update({
            "profiling.parse_s": parse_s,
            "profiling.lines_per_s": lines / parse_s,
            "profiling.aggregate_ms": 1e3 * seconds("profiling.aggregate_stages"),
            "profiling.lines": lines,
            "profiling.functions": parse[0].attrs["functions"],
        })

    pairs = len(named("rd.bd_rate"))
    if pairs:
        curves = len(named("rd.interpolate_log_rate"))
        bd_s = seconds("rd.bd_rate") + seconds("rd.bd_quality")
        m.update({
            "rd.load_csv_ms": 1e3 * seconds("rd.load_rd_csv"),
            "rd.bd_ms_per_pair": 1e3 * bd_s / pairs,
            "rd.interpolate_ms_per_curve": 1e3 * seconds("rd.interpolate_log_rate") / curves,
            "rd.pairs": pairs,
        })

    if named("subjective.screen_subjects"):
        load_s = seconds("subjective.load_scores_csv") + seconds("subjective.load_pvs_csv")
        m.update({
            "subjective.load_csv_ms": 1e3 * load_s,
            "subjective.screen_ms": 1e3 * seconds("subjective.screen_subjects"),
            "subjective.mos_points_ms": 1e3 * seconds("subjective.mos_point"),
            "subjective.anova_ms": 1e3 * seconds("subjective.anova_oneway"),
            "subjective.cells": truth["mos"]["cells"],
        })

    m.update({
        "report.render_json_ms": 1e3 * seconds("report.render_json", in_cli),
        "report.render_csv_ms": 1e3 * seconds("report.render_csv", in_cli),
        "report.csv_rows": sum(s.attrs["rows"] for s in named("report.render_csv", in_cli)),
    })

    # Untraced command time net of start-up, against what the layers cover.
    net = sum(c.wall for c in children) - len(children) * setup
    traced_total = sum(s.seconds for s in cli_spans)
    covered = sum(s.seconds - self_s[s.id] for s in cli_spans)
    m.update({
        "cli.interpreter_s": interp,
        "cli.import_s": imported - interp,
        "cli.cpu_util": sum(c.cpu for c in children) / sum(c.wall for c in children),
        "cli.glue_s": net - covered,
        "trace.overhead_frac": (traced_total - net) / net,
    })
    return m, notes


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # On SIGTERM, unwind through Runner.spawn, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "codecbench" / "cli.py").is_file():
        print(f"run.py: no codecbench sources at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    wl = WORKLOADS[args.workload]
    seed = args.seed % (1 << 63)  # numpy seeds must be non-negative
    results, out = WORK / "results", WORK / "out" / wl.name
    results.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{args.trace}"
    log = results / f"{stem}.stderr.log"
    log.unlink(missing_ok=True)

    inp, truth, gen_s = prepare(wl, seed, deadline)
    env = environment(seed, warm(inp))
    env["generate_s"] = gen_s
    runner = Runner(log, deadline)
    notes, extra, samples = [], {}, {}
    selftest_ok, selftest = True, []
    if args.trace:
        metrics, notes = run_traced(wl, inp, out, truth, runner,
                                    results / f"{wl.name}-seed{seed}-spans.json")
        declared = spec["per_layer"]
        metrics = {d["name"]: metrics.get(d["name"], 0.0) for d in declared}
    else:
        metrics, extra, samples, selftest_ok, selftest = run_untraced(
            wl, inp, out, truth, args.seconds, runner)
        declared = spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} != declared {sorted(units)}")
    extra["error_rate"] = (runner.failed / runner.attempted, "ratio")

    origin = f"generated in {gen_s:.1f} s" if gen_s else "from the seed cache"
    print(f"workload={wl.name} seed={seed} trace={args.trace} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"cpu={env['cpu_model']!r}")
    print(f"caches: {', '.join(env['caches'])}")
    print(f"inputs: {env['input_bytes_total']} bytes ({env['input_over_l3']:.2f} x L3), "
          f"warm in the page cache; {origin}")
    if samples:
        print(f"iterations: {samples['iterations']} in a closed loop of one client")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for line in notes + selftest + runner.messages[:20]:
        print(line)

    record = {"workload": wl.name, "trace": args.trace, "environment": env,
              "metrics": metrics, "extra": {k: v[0] for k, v in extra.items()},
              "samples": samples, "notes": notes, "self_test": selftest,
              "attempted": runner.attempted, "failed": runner.failed,
              "failures": runner.messages}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": runner.failed == 0 and selftest_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
