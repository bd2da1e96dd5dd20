#!/usr/bin/env python3
"""nrv2xsim benchmark: campaign throughput end to end, and time per layer.

Run from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload dense_drop --seed 0 --seconds 30 --trace 0

Each workload is a sweep campaign that this script generates from
``--seed`` and hands to ``nrv2xsim.cli.main(["sweep", ...])`` in a fresh
interpreter, the way a user runs the CLI: a closed-loop batch job from one
process with ``--jobs`` at most the core count.  The program receives only
the campaign JSON.

For ``--seconds`` the script alternates a set-up probe (a sweep of four
tiny runs, timed from interpreter start to exit) with an untraced sweep of
the workload.  ``--trace 0`` reports the end-to-end metrics, medians over
those repetitions.  ``--trace 1`` then adds an untraced and a traced sweep
at ``--jobs 1`` and reports the per-layer metrics of the traced one.

Every CSV is checked.  The probe's and, on the default seeds
(``--seed 0``), the sweep's must match a stored sha256; on other seeds the
repetitions, the ``--jobs 1`` sweep and the traced sweep must agree byte
for byte.  The last line of standard output is one JSON object; the
command exits 1 when any check fails and 2 when the checkout holds no
``src/nrv2xsim``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import child

CHILD = Path(child.__file__).resolve()
# Every invocation must end within this many seconds.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    campaign: dict            # campaign document without "seeds"
    seeds_per_list: int
    jobs: int
    digest: str               # sha256 of the sweep CSV on the default seeds
    probe_digest: str         # sha256 of the set-up probe's sweep CSV

    def seeds(self, seed: int) -> list[int]:
        """Seed list number ``seed``; lists for different seeds are disjoint."""
        return [seed * self.seeds_per_list + i for i in range(1, self.seeds_per_list + 1)]

    def document(self, seeds: list[int]) -> dict:
        return {**self.campaign, "seeds": seeds}

    def probe_document(self) -> dict:
        """Set-up probe: four runs of a few milliseconds each on the
        workload's base config, so the sweep's time is its fixed cost."""
        return {"base": {**self.campaign["base"], **PROBE_OVERRIDES}, "seeds": [1, 2, 3, 4]}

    def runs(self, seeds: list[int]) -> int:
        axes = [v for k, v in self.campaign.items() if k.startswith("sweep_")]
        return math.prod(len(v) for v in axes) * len(seeds)


WORKLOADS = {
    w.name: w for w in (
        # One dense drop per run, no pool: about 1.03M links and 1314
        # vehicles dropped by the overload ceiling per drop.  The per-link
        # hot path (neighbour search, pathloss, interference/SINR, L2SM)
        # does almost all the work, so this is the single-process baseline
        # for the kernels.
        Workload(
            name="dense_drop",
            campaign={"base": {"mu": 2, "bandwidth_mhz": 20, "ivd_m": 10,
                               "retx_scheme": "equal", "l2sm_delta_db": 5}},
            seeds_per_list=8,
            jobs=1,
            probe_digest="0d790a8ee574ccbe78842f3f6b9b257270852b7552f4b31a0f157a696538b101",
            digest="f25328aa186dd22ef8110ffeaeb15aa506234db1c54b3de6aaaa549a9eed2d93",
        ),
        # A reduced retx_mapping_shift campaign.  Two thirds of its runs
        # repeat an SINR pass that the run of the same point and seed with
        # another delta already made, and no cell is overloaded: the one
        # workload on which sharing work across deltas can show.
        Workload(
            name="delta_sweep",
            campaign={"base": {"mu": 2, "bandwidth_mhz": 20},
                      "sweep_ivd_m": [20, 40, 80, 100],
                      "sweep_retx": ["none", "equal"],
                      "sweep_l2sm_delta_db": [3, 5, 7]},
            seeds_per_list=5,
            jobs=2,
            probe_digest="6a4cab737d006845e938b37bbfca5b6a1c4773167e76b74874bbf5bd3d2487b9",
            digest="e502b95b8a9d0de6069417186679399821232691780062ccf54ae2af256bac24",
        ),
        # Every run needs its own SINR pass.  Two-phase lookups (nonequal),
        # three numerologies, overloaded ivd=20 cells and many small runs
        # load the layers the other two barely touch: L2SM, finalize, the
        # per-run overhead and the pool.
        Workload(
            name="retx_mix",
            campaign={"base": {"bandwidth_mhz": 10, "l2sm_delta_db": 5},
                      "sweep_ivd_m": [20, 40, 100],
                      "sweep_mu": [0, 1, 2],
                      "sweep_retx": ["none", "equal", "nonequal:1", "nonequal:4"]},
            seeds_per_list=5,
            jobs=2,
            probe_digest="66831fc73eb5d632869e11e34bd56a7eea2331ea314e673847600e4886eafadc",
            digest="73dff9ecebc547a53a489273479f64ecd089c08122167f58a4c612ebeb01c892",
        ),
    )
}

# 48 vehicles in two cells: every stage runs, inter-cell interference too.
PROBE_OVERRIDES = {"highway_length_m": 2000, "ivd_m": 250}

SPANS = (*child.SPANS, child.ROOT_SPAN)
# Per-drop count metric -> (counter in the traced run, span it comes from).
COUNTS = {
    "engine.links_per_drop": ("engine.links", "engine.links"),
    "channel.pathloss_evals_per_drop": ("channel.pathloss_evals", "channel.pathloss"),
    "l2sm.lookups_per_drop": ("l2sm.lookups", "l2sm.lookup"),
    "engine.schedule.dropped_per_drop": ("engine.schedule.dropped", "engine.schedule"),
    "phy.plan_calls_per_drop": ("phy.plan_calls", "phy.plan_calls"),
}
# The traced run's span self times must add up to its wall time this closely.
SELF_SUM_TOLERANCE = 0.01


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def sweep(self, runs: int, problem: str | None) -> None:
        self.attempted += runs
        if problem:
            self.failed += runs
            self.problems.append(problem)


class Bench:
    def __init__(self, root: Path, workload: Workload, jobs: int, work: Path):
        self.root = root
        self.workload = workload
        self.jobs = jobs
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.tally = Tally()
        self._files = 0

    def _write_campaign(self, document: dict) -> Path:
        self._files += 1
        path = self.work / f"campaign{self._files}.json"
        path.write_text(json.dumps(document))
        return path

    def _child(self, mode: str, campaign: Path,
               *extra: str) -> tuple[dict | None, str | None, float]:
        """Run child.py; return (result, problem, seconds from start to exit)."""
        self._files += 1
        out = self.work / f"sweep{self._files}.csv"
        argv = [sys.executable, str(CHILD), mode, str(campaign), str(out), *extra]
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=self.root, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            # The child's pool workers share its process group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, f"{mode} timed out", time.monotonic() - t0
        elapsed = time.monotonic() - t0
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = "\n".join(stderr.strip().splitlines()[-5:])
            return None, f"{mode} exited {proc.returncode}: {tail}", elapsed
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            return None, f"{mode} printed no result: {lines[-1][:200]}", elapsed
        if result["exit_code"] != 0:
            return None, f"{mode}: nrv2xsim exited {result['exit_code']}", elapsed
        return result, None, elapsed

    def sweep(self, seeds: list[int], jobs: int, expect: str | None) -> dict | None:
        """One untraced sweep; its CSV must hash to ``expect`` when given."""
        campaign = self._write_campaign(self.workload.document(seeds))
        result, problem, _ = self._child("sweep", campaign, str(jobs))
        if result and expect and result["sha256"] != expect:
            problem = f"sweep CSV sha256 {result['sha256']} != {expect}"
        self.tally.sweep(self.workload.runs(seeds), problem)
        return None if problem else result

    def setup_probe(self) -> float | None:
        """Seconds from interpreter start to exit for the set-up probe's sweep."""
        document = self.workload.probe_document()
        campaign = self._write_campaign(document)
        result, problem, elapsed = self._child("sweep", campaign, str(self.jobs))
        if result and result["sha256"] != self.workload.probe_digest:
            problem = (f"probe CSV sha256 {result['sha256']} "
                       f"!= {self.workload.probe_digest}")
        self.tally.sweep(len(document["seeds"]), problem)
        return None if problem else elapsed

    def trace(self, seeds: list[int], expect: str | None) -> dict | None:
        campaign = self._write_campaign(self.workload.document(seeds))
        result, problem, _ = self._child("trace", campaign)
        if result:
            problems = []
            if expect and result["sha256"] != expect:
                problems.append(f"traced sweep CSV sha256 {result['sha256']} != {expect}")
            if not result["restored"]:
                problems.append("traced run left a wrapped function in nrv2xsim")
            self_sum = sum(result["self_s"].values())
            if abs(self_sum - result["wall_s"]) > SELF_SUM_TOLERANCE * result["wall_s"]:
                problems.append(f"span self times sum to {self_sum:.4f} s, "
                                f"traced wall is {result['wall_s']:.4f} s")
            problem = "; ".join(problems) or None
        self.tally.sweep(self.workload.runs(seeds), problem)
        return None if problem else result

    def repeat(self, seconds: float, seeds: list[int],
               expect: str | None) -> tuple[list[dict], list[float]]:
        """Probe set-up, then sweep, until ``seconds`` have passed."""
        reps: list[dict] = []
        probes: list[float] = []
        t0 = time.monotonic()
        while not reps or time.monotonic() - t0 < seconds:
            elapsed = self.setup_probe()
            if elapsed is not None:
                probes.append(elapsed)
            rep = self.sweep(seeds, self.jobs, expect)
            if rep is None:
                break
            reps.append(rep)
            expect = expect or rep["sha256"]
        return reps, probes


def machine(root: Path, workload: Workload, jobs: int, seeds: list[int]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seeds": seeds,
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def end_to_end(tally: Tally, reps: list[dict], probes: list[float], runs: int) -> dict:
    out = {
        "wall_s": _metric(_median(reps, "wall_s"), "s"),
        "runs_per_s": _metric(statistics.median(runs / r["wall_s"] for r in reps), "1/s"),
        "cpu_s": _metric(_median(reps, "cpu_s"), "s"),
        "peak_rss_mb": _metric(_median(reps, "peak_rss_mb"), "MB"),
        "ok_frac": _metric(1.0 - tally.failed / tally.attempted, "ratio"),
    }
    if probes:
        out["setup_s"] = _metric(statistics.median(probes), "s")
    return out


def per_layer(jobs: int, reps: list[dict], untraced_wall: float, traced: dict) -> dict:
    wall = traced["wall_s"]
    drops = traced["drops"]
    self_s = traced["self_s"]
    counts = traced["counts"]
    absent = set(traced["absent_spans"]) | set(traced["broken_counters"])
    out: dict[str, dict] = {}
    for span in SPANS:
        if span in absent:
            continue
        out[f"{span}.self_ms_per_drop"] = _metric(1e3 * self_s.get(span, 0.0) / drops, "ms")
        out[f"{span}.share"] = _metric(self_s.get(span, 0.0) / wall, "ratio")
    for name, (counter, source) in COUNTS.items():
        if source not in absent:
            out[name] = _metric(counts.get(counter, 0) / drops, "count")
    if "engine.links_per_drop" in out and "channel.pathloss_evals_per_drop" in out:
        out["engine.interferer_evals_per_drop"] = _metric(
            out["channel.pathloss_evals_per_drop"]["value"]
            - out["engine.links_per_drop"]["value"], "count")
    # Links through the SINR stage per second of its own (self) time.
    if "engine.links" not in absent and self_s.get("engine.sinr"):
        out["engine.sinr.links_per_s"] = _metric(
            counts.get("engine.links", 0) / self_s["engine.sinr"], "1/s")
    # CPU of the processes that simulate over the cores they were given;
    # at --jobs 1 that is the sweep's own process.
    out["cli.pool_util"] = _metric(statistics.median(
        r["sim_cpu_s"] / (jobs * r["wall_s"]) for r in reps), "ratio")
    out["engine.sinr_useful_frac"] = _metric(traced["distinct_sinr_passes"] / traced["runs"],
                                             "ratio")
    out["engine.sinr_distinct_passes"] = _metric(traced["distinct_sinr_passes"], "count")
    out["config.runs"] = _metric(traced["runs"], "count")
    out["engine.drops"] = _metric(drops, "count")
    out["trace_overhead_frac"] = _metric(wall / untraced_wall - 1.0, "ratio")
    return out


def _describe(name: str, values: list[float]) -> str:
    if not values:
        return f"# {name}: no samples"
    return (f"# {name}: median {statistics.median(values):.4f}, "
            f"min {min(values):.4f}, max {max(values):.4f}, n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed list number; 0 is the list with stored digests")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the untraced repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "nrv2xsim" / "__init__.py").is_file():
        print(f"error: {root} holds no src/nrv2xsim; run from a source checkout",
              file=sys.stderr)
        return 2
    # Pool workers must not each start a BLAS thread pool on a small machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    workload = WORKLOADS[args.workload]
    jobs = min(workload.jobs, os.cpu_count() or 1)
    seeds = workload.seeds(args.seed)
    info = machine(root, workload, jobs, seeds)
    print("# machine " + json.dumps(info))

    work_parent = root / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_parent))
    bench = Bench(root, workload, jobs, work)
    try:
        # The stored digest covers the default seeds only; on other seeds
        # the repetitions and the traced run must agree with the first one.
        expect = workload.digest if args.seed == 0 else None
        reps, probes = bench.repeat(args.seconds, seeds, expect)
        metrics: dict = {}
        if reps:
            print(_describe("sweep wall_s", [r["wall_s"] for r in reps]))
            print(_describe("setup_s", probes))
            expect = expect or reps[0]["sha256"]
            if not args.trace:
                metrics = end_to_end(bench.tally, reps, probes, workload.runs(seeds))
            else:
                # Baseline for the tracing overhead: the same sweep untraced
                # at --jobs 1, which is also the --jobs determinism check.
                if jobs == 1:
                    untraced_wall = _median(reps, "wall_s")
                else:
                    single = bench.sweep(seeds, 1, expect)
                    untraced_wall = single["wall_s"] if single else None
                traced = bench.trace(seeds, expect)
                if traced and untraced_wall:
                    metrics = per_layer(jobs, reps, untraced_wall, traced)
                    print(f"# engine.sinr_useful_frac = {traced['distinct_sinr_passes']}"
                          f"/{traced['runs']} distinct SINR passes / runs")
                    for name in traced["absent_spans"] + traced["broken_counters"]:
                        print(f"# absent: {name} (its target was renamed or removed)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass

    for problem in bench.tally.problems:
        print(f"# FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = not bench.tally.problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.tally.attempted),
        "failed": bench.tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
