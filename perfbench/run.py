"""End-to-end benchmark of the delayed-timestamp reproduction.

    python3 perfbench/run.py --workload star-validate --seed 0 \\
        --seconds 35 --trace 0

Runs one workload (see ``README.md`` in this directory) from the root of a
checkout.  Each iteration is a fresh, single-threaded process
(``pipeline.py``) that sets up, runs the timed pipeline and checks every
output against the benchmark's own reference.  Iteration ``i`` runs the
execution drawn from sub-seed ``seed * 1000 + i``, so a run's medians
describe several executions rather than one.  Iterations repeat until
``--seconds`` of pipeline time have been measured, at least
``MIN_ITERATIONS`` of them.  Set-up-only processes bring the set-up samples
up to ``SETUP_SAMPLES``.  A fixed memory-bound task, timed by a helper
process (``probe.py``) right before and after each iteration, scales the
iteration's throughput and set-up time to a reference host speed
(``norm_events_per_s``, ``setup_s``); the wall-clock values are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
sub-seed twice, untraced then traced, and reports the per-layer metrics of
the traced iterations, the update-check latencies of the untraced ones and
``trace.overhead_ratio``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exit status: 0 when every check passed, 1 when a check failed or an
iteration crashed (the result line is still printed), 2 when the program
under test is missing (nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PIPELINE = os.path.join(HERE, "pipeline.py")
PROBE = os.path.join(HERE, "probe.py")
GOLDEN = os.path.join(HERE, "fingerprints.json")
#: per-checkout record of fingerprints seen, so reruns of a seed must agree
SEEN = os.path.join(".perfbench", "fingerprints.json")
SPANS_DIR = ".perfbench"

WORKLOADS = ("star-validate", "star-simulate", "online-conflicts")
MIN_ITERATIONS = 3
SETUP_SAMPLES = 7
#: no iteration starts once the run has used this much time; a run must
#: end within 180 s
RUN_DEADLINE_S = 150.0
#: the program's defaults are measured: these selectors are cleared
CLEARED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_EVENT_STORE", "REPRO_BENCH_JOBS")
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("norm_events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("rss_bytes_per_event", "B"),
)
UPDATE_CHECK = ("update_check_p50_us", "update_check_p99_us", "update_check_samples")


#: the probe's median time on the tuning host; norm_events_per_s and setup_s
#: read as measured on a host whose probe takes this long
PROBE_REF_S = 0.50


class HostProbe:
    """A ``probe.py`` process beside the run, timing a fixed memory-bound task.

    The benchmark runs on shared hosts whose speed drifts by up to 2x over
    minutes.  Dividing an iteration's time by the probe times taken just
    before and after it cancels most of that drift.
    """

    def __enter__(self) -> "HostProbe":
        self.proc = subprocess.Popen(
            [sys.executable, PROBE], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        return self

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def unit_of(name: str) -> str:
    if name in dict(END_TO_END):
        return dict(END_TO_END)[name]
    for suffix, unit in (
        ("_per_s", "1/s"), ("_s", "s"), ("_us", "us"), ("_mb", "MiB"), ("_ratio", "ratio")
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(SINGLE_THREAD_ENV)
    return env


def spawn(args: List[str], timeout: float) -> Tuple[Optional[dict], str]:
    """Run one ``pipeline.py`` process; return (its record, error text)."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, PIPELINE, *args, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"iteration exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return None, f"exit {proc.returncode}: " + " | ".join(tail)
    return json.loads(lines[-1]), ""


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def remember(path: str, key: List[str], fp: dict) -> Optional[dict]:
    """Store *fp* under *key* in *path*; return what was there before."""
    data = load_json(path)
    node = data
    for k in key[:-1]:
        node = node.setdefault(k, {})
    before = node.get(key[-1])
    if before is None:
        node[key[-1]] = fp
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return before


class Run:
    """Iterations of one workload and the checks across them."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale
        self.start = time.monotonic()
        self.records: List[dict] = []
        self.traced: List[dict] = []
        #: (wall seconds, host probe seconds around it) per set-up
        self.setup_samples: List[Tuple[float, float]] = []
        self.fingerprints: Dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def subseed(self, i: int) -> int:
        return self.seed * 1000 + i

    def _spawn(self, subseed: int, extra: List[str]) -> Tuple[Optional[dict], str]:
        args = ["--workload", self.workload, "--seed", str(subseed),
                "--scale", self.scale, *extra]
        return spawn(args, max(10.0, 175.0 - self.elapsed()))

    def iterate(self, i: int, trace: int, spans_out: Optional[str] = None) -> Optional[dict]:
        extra = ["--trace", str(trace)]
        if spans_out:
            extra += ["--spans-out", spans_out]
        rec, err = self._spawn(self.subseed(i), extra)
        if rec is None:
            # a run that raises counts as all failed: as many checks as a
            # good iteration makes, at least one
            lost = max([r["attempted"] for r in self.records + self.traced] or [1])
            self.attempted += lost
            self.failed += lost
            self.errors.append(err)
            return None
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.errors.extend(rec["failures"])
        (self.traced if trace else self.records).append(rec)
        self.check_fingerprint(i, rec["fingerprint"])
        return rec

    def setup_only(self) -> Optional[float]:
        """Set up once more in a fresh process; return its set-up time."""
        rec, err = self._spawn(self.subseed(0), ["--setup-only"])
        if rec is None:
            self._check(False, err)
            return None
        return rec["setup_s"]

    def check_fingerprint(self, i: int, fp: dict) -> None:
        """A sub-seed's statistics must match its other iterations, the
        committed reference file and earlier runs in this checkout."""
        subseed = self.subseed(i)
        if subseed in self.fingerprints:
            self._check(self.fingerprints[subseed] == fp,
                        f"sub-seed {subseed}: traced run changed the fingerprint")
            return
        self.fingerprints[subseed] = fp
        key = [self.scale, self.workload, str(subseed)]
        node = load_json(GOLDEN)
        for k in key:
            node = node.get(k, {})
        if node:
            self._check(node == fp, f"sub-seed {subseed}: {fp} != committed {node}")
        before = remember(SEEN, key, fp)
        if before is not None:
            self._check(before == fp, f"sub-seed {subseed}: {fp} != earlier run {before}")

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def measure(self, seconds: float, trace: bool) -> None:
        """Iterate until *seconds* of pipeline time have been measured.

        Untraced runs make at least ``MIN_ITERATIONS``; traced runs make
        untraced/traced pairs, at least one.  The host probe runs right
        before and after every untraced iteration and set-up-only process.
        """
        measured, i = 0.0, 0
        spans_out = os.path.join(SPANS_DIR, f"spans-{self.workload}.bin")
        with HostProbe() as probe:
            before = probe.time()
            while measured < seconds or (not trace and i < MIN_ITERATIONS):
                if i and self.elapsed() > RUN_DEADLINE_S:
                    break
                rec = self.iterate(i, 0)
                if rec is None:
                    break
                after = probe.time()
                rec["probe_s"] = (before + after) / 2
                rec["norm_events_per_s"] = (
                    rec["events_per_s"] * rec["probe_s"] / PROBE_REF_S
                )
                self.setup_samples.append((rec["setup_s"], rec["probe_s"]))
                measured += rec["pipeline_s"]
                if trace:
                    if self.iterate(i, 1, spans_out) is None:
                        break
                    measured += self.traced[-1]["pipeline_s"]
                    after = probe.time()
                before = after
                i += 1
            while self.records and len(self.setup_samples) < SETUP_SAMPLES:
                wall = self.setup_only()
                if wall is None:
                    break
                after = probe.time()
                self.setup_samples.append((wall, (before + after) / 2))
                before = after


def median_of(records: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long smoke size for tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.scale)
    run.measure(args.seconds, bool(args.trace))
    recs = run.records
    metrics: Dict[str, dict] = {}
    if recs:
        first = recs[0]
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"scale={args.scale} trace={args.trace} iterations={len(recs)} "
              f"traced={len(run.traced)} wall={run.elapsed():.1f}s")
        print(f"program: kernel backend={first['backend']} event store="
              f"{first['store']} vertex cover={first['cover_size']}")
        for i, rec in enumerate(recs):
            print(f"iteration {i} sub-seed {run.subseed(i)}: "
                  f"pipeline {rec['pipeline_s']:.3f} s, "
                  f"{rec['events_per_s']:.1f} events/s, probe "
                  f"{rec['probe_s']:.3f} s, {rec['norm_events_per_s']:.1f} "
                  f"normalised events/s, "
                  f"peak {rec['peak_rss_mb']:.1f} MiB, setup {rec['setup_s']:.3f} s")
        for subseed, fp in run.fingerprints.items():
            print(f"fingerprint {subseed}: {json.dumps(fp, sort_keys=True)}")
        norm_setup = [w * PROBE_REF_S / p for w, p in run.setup_samples]
        values = {
            name: statistics.median(norm_setup) if name == "setup_s"
            else median_of(recs, name)
            for name, _unit in END_TO_END
        }
        values["wall_setup_s"] = statistics.median(w for w, _ in run.setup_samples)
        values["events_per_s"] = median_of(recs, "events_per_s")
        values["probe_s"] = median_of(recs, "probe_s")
        if "update_check_samples" in first:
            values.update({k: median_of(recs, k) for k in UPDATE_CHECK})
        for name, value in values.items():
            print(f"{name} {value:.6g} {unit_of(name)}")
        print(f"  medians of {len(recs)} iterations; setup samples: "
              f"{len(run.setup_samples)}")
        if not args.trace:
            for name, unit in END_TO_END:
                metrics[name] = {"value": values[name], "unit": unit}
    if run.traced:
        layers = {
            k: statistics.median(r["layers"][k] for r in run.traced)
            for k in run.traced[0]["layers"]
        }
        for k in UPDATE_CHECK:
            layers[k] = median_of(recs, k) if k in recs[0] else 0
        layers["trace.overhead_ratio"] = median_of(
            run.traced, "pipeline_s"
        ) / median_of(recs[: len(run.traced)], "pipeline_s")
        print("per-layer (traced iterations):")
        for name in sorted(layers):
            metrics[name] = {"value": layers[name], "unit": unit_of(name)}
            print(f"  {name} {layers[name]:.6g} {unit_of(name)}")
        print(f"  spans written to {run.traced[-1].get('spans_out')}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"fail_ratio {ratio:.6g} ({run.failed} of {run.attempted} checks failed)")
    for err in run.errors[:10]:
        print(f"  FAILED: {err}")
    correct = run.failed == 0 and bool(recs)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
