"""One benchmark measurement in a fresh interpreter.

``bench/run.py`` starts this script once per measurement, from the root of
a source checkout, so every sweep pays the import and pool start-up a user
pays and every peak-RSS figure belongs to that sweep alone.  The last line
of standard output is one JSON object with the measurement.

    python3 bench/child.py sweep CAMPAIGN.json OUT.csv JOBS
    python3 bench/child.py trace CAMPAIGN.json OUT.csv

``sweep`` times ``nrv2xsim.cli.main(["sweep", ...])`` with the program
unmodified.  ``trace`` runs the same sweep at ``--jobs 1`` with timers and
counters wrapped around the module functions at each layer boundary, then
removes them again and checks that it did.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

SRC = Path.cwd() / "src"


def _import_program():
    """Import nrv2xsim from this checkout's ``src/``, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import nrv2xsim

    origin = Path(nrv2xsim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"nrv2xsim imported from {origin}, not from {SRC}")
    from nrv2xsim import cli

    return cli


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def sweep(campaign: str, out: str, jobs: int) -> dict:
    cli = _import_program()
    argv = ["sweep", "--config", campaign, "--out", out, "--jobs", str(jobs)]
    self0 = _cpu_s(resource.RUSAGE_SELF)
    children0 = _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    self_cpu = _cpu_s(resource.RUSAGE_SELF) - self0
    children_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - children0
    # The processes that simulate: the pool's workers (ru_maxrss is then
    # the largest one's), or this process when the sweep ran without a pool.
    pooled = jobs > 1 and _peak_rss_mb(resource.RUSAGE_CHILDREN) > 0
    return {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": self_cpu + children_cpu,
        "sim_cpu_s": children_cpu if pooled else self_cpu,
        "peak_rss_mb": _peak_rss_mb(
            resource.RUSAGE_CHILDREN if pooled else resource.RUSAGE_SELF),
        "sha256": _sha256(out) if code == 0 else None,
    }


# Span name -> (module, function).  A span's self time is its time minus
# the time of the spans it encloses.  The engine has no public per-stage
# entry point, so its stages are the module-level functions that run them:
# _build_links is the neighbour search, _evaluate_links the shadowing,
# interference gather and dB/mW conversions around it, and _drop_counts
# the per-drop reduction once its stages are subtracted.
SPANS = {
    "config.expand": ("config", "expand_campaign"),
    "scenario.deploy": ("scenario", "generate_deployment"),
    "engine.schedule": ("engine", "schedule_slots"),
    "engine.links": ("engine", "_build_links"),
    "channel.pathloss": ("channel", "pathloss_db"),
    "engine.sinr": ("engine", "_evaluate_links"),
    "l2sm.lookup": ("l2sm", "bler_lookup"),
    "l2sm.draw": ("l2sm", "reception_draw"),
    "engine.counts": ("engine", "_drop_counts"),
    "metrics.finalize": ("engine", "_finalize"),
    "engine.run": ("engine", "execute_run"),
    "metrics.aggregate": ("metrics", "aggregate"),
    "metrics.csv": ("metrics", "write_sweep_csv"),
}
ROOT_SPAN = "cli.main"
# Functions whose calls are counted but not timed.
CALL_COUNTS = {"phy.plan_calls": ("phy", "build_resource_plan")}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _size(value) -> int:
    return int(np.size(value))


def _count_links(tracer, args, kwargs, result):
    tracer.counts["engine.links"] += _size(result.tx)


def _count_pathloss(tracer, args, kwargs, result):
    tracer.counts["channel.pathloss_evals"] += _size(_arg(args, kwargs, 0, "distance_m"))


def _count_lookups(tracer, args, kwargs, result):
    tracer.counts["l2sm.lookups"] += _size(_arg(args, kwargs, 2, "sinr_db"))


def _count_dropped(tracer, args, kwargs, result):
    tracer.counts["engine.schedule.dropped"] += _size(result.dropped)


# Counts taken from a span's arguments or return value.  A counter whose
# field a refactor renamed is reported absent, like a missing span.
SPAN_COUNTERS = {
    "engine.links": _count_links,
    "channel.pathloss": _count_pathloss,
    "l2sm.lookup": _count_lookups,
    "engine.schedule": _count_dropped,
}


def _program_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "nrv2xsim" or n.startswith("nrv2xsim."))]


class Tracer:
    """Timers and counters wrapped around module functions for one sweep."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.broken_counters: set[str] = set()
        self._stack: list[float] = []     # time of enclosed spans, per open span
        self._patched: list[tuple] = []   # (module, attribute, original)

    def span(self, name: str, fn, counter=None):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
            if counter is not None and name not in self.broken_counters:
                try:
                    counter(self, args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    self.broken_counters.add(name)
            return result

        wrapper.bench_wrapped = fn
        return wrapper

    def counting(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.bench_wrapped = fn
        return wrapper

    def _patch(self, module: str, attr: str, make_wrapper) -> bool:
        try:
            original = getattr(importlib.import_module(f"nrv2xsim.{module}"), attr)
        except (ImportError, AttributeError):
            return False
        wrapper = make_wrapper(original)
        # Replace every module-level reference, including names imported
        # with ``from .module import name``.
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return True

    def install(self) -> list[str]:
        """Wrap every span target; return the spans whose target is missing."""
        absent = []
        for name, (module, attr) in SPANS.items():
            counter = SPAN_COUNTERS.get(name)
            if not self._patch(module, attr, lambda f, n=name, c=counter: self.span(n, f, c)):
                absent.append(name)
        for name, (module, attr) in CALL_COUNTS.items():
            if not self._patch(module, attr, lambda f, n=name: self.counting(n, f)):
                absent.append(name)
        return absent

    def uninstall(self) -> bool:
        """Put every original back; True if no wrapper is left anywhere."""
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        restored = all(getattr(mod, key) is original for mod, key, original in self._patched)
        leftover = any(hasattr(value, "bench_wrapped")
                       for mod in _program_modules() for value in vars(mod).values())
        return restored and not leftover


def _distinct_sinr_passes(runs) -> int:
    """(config without l2sm_delta_db, seed) pairs: the SINR passes a run list needs."""
    def key(cfg, seed):
        fields = tuple((f.name, getattr(cfg, f.name)) for f in dataclasses.fields(cfg)
                       if f.name != "l2sm_delta_db")
        return fields, seed

    return len({key(cfg, seed) for cfg, seed in runs})


def trace(campaign: str, out: str) -> dict:
    cli = _import_program()
    from nrv2xsim.config import expand_campaign, parse_campaign

    runs = expand_campaign(parse_campaign(Path(campaign).read_text()))
    tracer = Tracer()
    try:
        absent = tracer.install()
        root = tracer.span(ROOT_SPAN, cli.main)
        argv = ["sweep", "--config", campaign, "--out", out, "--jobs", "1"]
        t0 = time.perf_counter()
        code = root(argv)
        wall = time.perf_counter() - t0
    finally:
        restored = tracer.uninstall()
    return {
        "exit_code": code,
        "wall_s": wall,
        "sha256": _sha256(out) if code == 0 else None,
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "absent_spans": absent,
        "broken_counters": sorted(tracer.broken_counters),
        "restored": restored,
        "runs": len(runs),
        "drops": sum(cfg.drops for cfg, _ in runs),
        "distinct_sinr_passes": _distinct_sinr_passes(runs),
    }


def main(argv: list[str]) -> int:
    mode, campaign, out, *rest = argv
    if mode == "sweep":
        result = sweep(campaign, out, int(rest[0]))
    elif mode == "trace":
        result = trace(campaign, out)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
