"""qideal benchmark: closed-loop workloads, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/qideal`.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the line before it holds the environment, the sample counts, the
unscaled median pass time and the calibration time.  With --trace 0 the
metrics are the end-to-end ones, measured without tracing.  With
--trace 1 they are the per-layer ones, from passes that alternate
untraced and traced, so the tracing overhead is measured in the same run.

Every pass of a workload runs in a fresh worker process (see worker.py)
under a wall-clock ceiling, so the program's per-process caches start
cold on every pass, as they do for a user.  Operations that do not finish
count as failed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
from spans import LAYERS, summarize  # noqa: E402
from worker import calibrate  # noqa: E402

WORKLOADS = ("suites-cold", "enum-sparse", "enum-dense", "census")
DEFAULT_SEED = 20260819
SETUP_PER_PASS = 2
SETUP_MIN_SAMPLES = 7
IMPORT_REPEATS = 7
HARD_LIMIT_S = 165     # the whole run, set-up included, ends before this
# Every reported time is scaled to a machine on which worker.calibrate()
# takes this long (measured: 0.028 s on a 2-core x86-64 VM, Python 3.11).
REFERENCE_CAL_S = 0.025


class Run:
    def __init__(self, workload, seed, seconds, workdir):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = workdir
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.plan_path = os.path.join(workdir, "plan.json")
        self.passes = []     # dicts: traced, ops, secs, done, wall_s, scale, rss_mb, spans_dir
        self.planned = 0

    def remaining(self):
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, args):
        """Run a child in its own session under the remaining time; kill the
        whole session when it runs past.  Returns (returncode, stdout, secs);
        returncode is None after a kill."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=self.env,
                                cwd=self.workdir, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            code = None
        secs = time.perf_counter() - start
        if code:
            sys.stderr.write(err[-2000:])
        return code, out, secs

    def make_plan(self):
        code, _, _ = self.spawn([WORKER, "plan", self.workload, str(self.seed),
                                 self.plan_path])
        if code != 0:
            raise SystemExit(f"could not build the {self.workload} inputs")
        with open(self.plan_path, encoding="utf-8") as fh:
            self.planned = len(json.load(fh)["ops"])

    def timed_child(self, args):
        """Scaled wall time of one fresh process that must succeed."""
        scale = REFERENCE_CAL_S / calibrate()
        code, _, secs = self.spawn(args)
        if code != 0:
            raise SystemExit(f"set-up process failed: {args}")
        return secs * scale

    def timed_children(self, args, repeats):
        """Median scaled wall time of fresh processes, after a warm-up."""
        self.timed_child(args)
        return statistics.median(self.timed_child(args) for _ in range(repeats))

    def one_pass(self, traced):
        args = [WORKER, "run", self.plan_path]
        spans_dir = None
        if traced:
            spans_dir = os.path.join(self.workdir, f"spans{len(self.passes)}")
            os.mkdir(spans_dir)
            args += ["--spans", spans_dir]
        code, out, secs = self.spawn(args)
        ops, tail = [], None
        for line in out.splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if "op" in rec:
                ops.append(rec)
                if not rec["ok"]:
                    sys.stderr.write(f"op {rec['op']} failed: {rec['error']}\n")
            else:
                tail = rec
        self.passes.append({"traced": traced, "ops": ops, "secs": secs,
                            "done": code == 0 and tail is not None,
                            "wall_s": tail and tail["wall_s"],
                            "scale": tail and REFERENCE_CAL_S / tail["cal_s"],
                            "rss_mb": tail and tail["rss_mb"],
                            "spans_dir": spans_dir})
        return self.passes[-1]["done"]

    def measure(self, trace):
        """Passes until --seconds have gone by.  A pass starts only if the
        passes so far suggest it ends in time; with tracing, passes
        alternate untraced and traced and at least one of each runs.
        Set-up samples are taken between passes, so that they see the same
        machine as the passes do."""
        setup = [WORKER, "setup", self.plan_path]
        setup_times = []
        self.timed_child(setup)   # warm-up: bytecode caches, page cache
        start = time.monotonic()
        while True:
            done = self.passes
            if done:
                typical = statistics.median(p["secs"] for p in done)
                elapsed = time.monotonic() - start
                enough = len(done) >= (2 if trace else 1)
                if enough and elapsed + typical > self.seconds:
                    break
                if typical > self.remaining():
                    break
            for _ in range(SETUP_PER_PASS):
                setup_times.append(self.timed_child(setup))
            if not self.one_pass(traced=trace and len(done) % 2 == 1):
                break
        while len(setup_times) < SETUP_MIN_SAMPLES:
            setup_times.append(self.timed_child(setup))
        return statistics.median(setup_times)

    def counts(self):
        ok = sum(o["ok"] for p in self.passes for o in p["ops"])
        attempted = self.planned * len(self.passes)
        return attempted, attempted - ok


def end_to_end(run, setup_s):
    passes = [p for p in run.passes if p["done"] and not p["traced"]]
    if not passes:
        return {}
    ops = [o["s"] * p["scale"] for p in passes for o in p["ops"] if o["ok"]]
    items = sum(o["items"] for p in passes for o in p["ops"] if o["ok"])
    walls = [p["wall_s"] * p["scale"] for p in passes]
    attempted, failed = run.counts()
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "items_per_s": (items / sum(walls), "1/s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "ok_share": (1 - failed / attempted, "share"),
    }


def per_layer(run, import_s, bare_s):
    traced = [p for p in run.passes if p["done"] and p["traced"]]
    plain = [p for p in run.passes if p["done"] and not p["traced"]]
    if not traced or not plain:
        return {}
    k = len(traced)
    self_s, calls, counters = Counter(), Counter(), Counter()
    for p in traced:
        busy, n, counted = summarize(
            glob.glob(os.path.join(p["spans_dir"], "spans-*.json")))
        self_s.update({layer: secs * p["scale"] for layer, secs in busy.items()})
        calls.update(n)
        counters.update(counted)
    plain_wall = statistics.median(p["wall_s"] * p["scale"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] * p["scale"] for p in traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / k, "s")
        metrics[f"{layer}.calls"] = (calls[layer] / k, "count")
    metrics["fuzzy.sets_emitted"] = (counters["fuzzy.sets_emitted"] / k, "count")
    metrics["fuzzy.yield"] = (counters["fuzzy.sets_emitted"]
                              / max(counters["fuzzy.candidates"], 1), "share")
    metrics["ideals.decided"] = (counters["ideals.decided"] / k, "count")
    metrics["ideals.accept_ratio"] = (counters["ideals.accepted"]
                                      / max(counters["ideals.decided"], 1), "share")
    metrics["scott.members"] = (counters["scott.members"] / k, "count")
    for layer in ("fuzzy", "ideals"):
        name = f"{layer}.budget_refusals"
        metrics[name] = (counters[name] / k, "count")
    metrics["cli.import_s"] = (import_s - bare_s if import_s else 0.0, "s")
    metrics["cli.startup_share"] = (run.planned * import_s / plain_wall
                                    if import_s else 0.0, "share")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "share")
    return metrics


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0], "src_lines": src_lines()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="qideal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qideal", "__init__.py")):
        print(f"error: no qideal sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    env = environment()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        run.make_plan()
        import_s = bare_s = 0.0
        if args.trace and args.workload == "suites-cold":
            import_s = run.timed_children(["-c", "import qideal.cli"], IMPORT_REPEATS)
            bare_s = run.timed_children(["-c", "pass"], IMPORT_REPEATS)
        setup_s = run.measure(trace=bool(args.trace))
        metrics = (per_layer(run, import_s, bare_s) if args.trace
                   else end_to_end(run, setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if not metrics:
        print("error: no pass finished", file=sys.stderr)
        return 1

    attempted, failed = run.counts()
    finished = [p for p in run.passes if p["done"]]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": env,
        "passes": len(run.passes), "ops_per_pass": run.planned,
        "op_samples": sum(o["ok"] for p in finished if not p["traced"]
                          for o in p["ops"]),
        "unscaled_wall_s": statistics.median(p["wall_s"] for p in finished),
        "calibration_s": statistics.median(REFERENCE_CAL_S / p["scale"]
                                           for p in finished)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
