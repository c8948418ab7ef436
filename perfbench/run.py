"""trcycles benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout.  A closed loop with one client: the
operations ``trcycles localize``, ``compute`` and ``verify`` of the workload
run one at a time, each in a fresh interpreter exactly as the console script
runs them, and every output passes a correctness gate
(workloads.check_output).  A failed gate, a nonzero exit or a timeout counts
the operation as failed; nothing is skipped.

--trace 0 reports the end-to-end metrics: setup_s (a fresh interpreter that
imports trcycles and parses the curve file), localize_s, compute_s and
verify_s (medians of the operations' wall times) and peak_rss_mb (largest
peak resident set of one operation's process).  Operations run in whole
cycles while the next cycle, as long as the last, ends within --seconds of
the start (at least one cycle).

--trace 1 runs one untraced cycle, one traced cycle (tracer.py) and untraced
level probes of the residue recursion, and reports the per-layer metrics.
Spans are written to .perfbench_work/trace-<workload>-<seed>.json.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    OPS,
    WORKLOADS,
    check_output,
    curve_document,
)

SETUP_SAMPLES = 11
RUN_LIMIT_S = 170       # every child is killed after this, from run start
WORK_DIR = ".perfbench_work"

# serialize functions whose result the CLI writes out
OUTPUT_DUMPS = ("serialize.dump_results", "serialize.dump_curve_spec",
                "serialize.canonical_json", "serialize.format_table")


class Runner:
    """Runs the operations of one workload, each in a fresh interpreter."""

    def __init__(self, workload: str, seed: int, root: str):
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.work = os.path.join(root, WORK_DIR,
                                 f"{workload}-{seed}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        self.curve = os.path.join(self.work, "curve.json")
        self.localized = os.path.join(self.work, "localized.json")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures = []

    def prepare(self):
        os.makedirs(self.work, exist_ok=True)
        with open(self.curve, "w", encoding="utf-8") as fh:
            json.dump(curve_document(self.workload, self.seed), fh,
                      indent=1, sort_keys=True)

    def child(self, args):
        """Run ``op.py ARGS`` to completion.

        Returns (exit code or None if killed, wall s, peak RSS MB, stdout,
        stderr)."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        cmd = [sys.executable, os.path.join(HERE, "op.py")] + args
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=out,
                                    stderr=err)
            killed = []

            def kill(*_):
                killed.append(True)
                proc.kill()
            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL,
                             max(0.5, self.deadline - time.monotonic()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        code = None if killed else proc.returncode
        return code, wall, usage.ru_maxrss / 1024.0, stdout, stderr

    def operation(self, op: str, trace_out: str | None = None):
        """One CLI operation and its gate; (wall s, RSS MB), or None."""
        src = self.curve if op == "localize" else self.localized
        target = self.localized if op == "localize" else \
            os.path.join(self.work, f"{op}.json")
        args = ["cli"] + (["--trace", trace_out] if trace_out else []) + \
            [op, "--curve", src, "--out", target] + self.spec[op]
        self.attempted += 1
        code, wall, rss, _, stderr = self.child(args)
        if code != 0:
            reason = "timeout" if code is None else \
                f"exit {code}: {stderr.strip()[-300:]}"
        else:
            reason = check_output(self.workload, self.seed, op, target,
                                  self.localized)
        if reason is not None:
            self.failures.append(f"{op}: {reason}")
            return None
        return wall, rss

    def cycle(self, trace_dir: str | None = None):
        """localize, compute, verify (each repeated as the workload says);
        returns {op: [(wall, rss), ...]}, or None after a failure."""
        done = {}
        for op in OPS:
            for i in range(self.spec[f"{op}_repeat"]):
                trace = None if trace_dir is None else \
                    os.path.join(trace_dir, f"{op}-{i}.json")
                res = self.operation(op, trace)
                if res is None:
                    return None
                done.setdefault(op, []).append(res)
        return done

    def setup_sample(self) -> float:
        code, wall, _, _, stderr = self.child(["setup", self.curve])
        if code != 0:
            raise RuntimeError(f"setup failed: {stderr.strip()[-300:]}")
        return wall

    def level_probe(self) -> list:
        code, _, _, stdout, stderr = self.child(
            ["levels", self.localized, str(self.spec["chi_max"])])
        if code != 0:
            raise RuntimeError(f"level probe failed: {stderr.strip()[-300:]}")
        return json.loads(stdout)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def host_record(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()),
            "machine": platform.machine(),
            "commit": commit}


def summary(values: list) -> dict:
    """Sample count, median and, when some percentile above the median has
    at least ten samples beyond it, the highest such percentile."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n > 20:
        p = int(100 * (1 - 10 / n))
        out[f"p{p}"] = statistics.quantiles(values, n=100,
                                            method="inclusive")[p - 1]
    return out


def measure(runner: Runner, seconds: float) -> tuple:
    """Untraced run: setup samples, then whole cycles while the next one,
    taking as long as the last, still ends within ``seconds``."""
    start = time.monotonic()
    runner.setup_sample()                      # fills bytecode caches
    setups = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    samples = {op: [] for op in OPS}
    cycles = 0
    while True:
        t0 = time.monotonic()
        done = runner.cycle()
        if done is None:
            break
        for op, res in done.items():
            samples[op].extend(res)
        cycles += 1
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    report = {"cycles": cycles, "setup_s": summary(setups)}
    for op in OPS:
        if samples[op]:
            report[f"{op}_s"] = summary([w for w, _ in samples[op]])
    rss = [r for res in samples.values() for _, r in res]
    metrics = {"setup_s": (report["setup_s"]["median"], "s")}
    if rss:
        report["peak_rss_mb"] = max(rss)
        metrics["peak_rss_mb"] = (max(rss), "MB")
    for op in OPS:
        if f"{op}_s" in report:
            metrics[f"{op}_s"] = (report[f"{op}_s"]["median"], "s")
    return report, metrics


def layer_metrics(stats: dict, walls: dict, untraced: dict,
                  levels: list) -> dict:
    """Per-layer metrics from the merged tracer stats of a traced cycle."""
    def incl(*names):
        return sum(stats.get(n, {}).get("incl_s", 0.0) for n in names)

    def calls(*names):
        return sum(stats.get(n, {}).get("calls", 0) for n in names)

    def items(*names):
        return sum(stats.get(n, {}).get("items", 0) for n in names)

    self_s = {}
    for name, s in stats.items():
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + s["self_s"]
    traced_wall = sum(walls.values())
    m = {
        "recursion.omega_table_s": (incl("recursion.compute_omega_table"),
                                    "s"),
        "recursion.omega_table_calls": (
            calls("recursion.compute_omega_table"), "count"),
        "recursion.entries_nonzero": (items("recursion.compute_omega_table"),
                                      "count"),
        "recursion.fg_s": (incl("recursion.compute_Fg"), "s"),
        "tensors.airy_s": (incl("tensors.compute_airy_tensors"), "s"),
        "tensors.airy_entries": (items("tensors.compute_airy_tensors"),
                                 "count"),
        "tensors.tensor_recursion_s": (incl("tensors.tensor_recursion"), "s"),
        "tensors.quadratic_pde_s": (incl("tensors.verify_quadratic_pde"),
                                    "s"),
        "tensors.higher_pde_s": (incl("tensors.verify_higher_pde"), "s"),
        "curves.localize_s": (incl("curves.localize_global_curve"), "s"),
        "curves.phi_entries": (items("curves.localize_global_curve"),
                               "count"),
        "series.mul_calls": (calls("series.LaurentSeries.__mul__",
                                   "series.series_mul"), "count"),
        "series.inverse_calls": (calls("series.LaurentSeries.inverse"),
                                 "count"),
        "series.compose_calls": (calls("series.LaurentSeries.compose"),
                                 "count"),
        "scalars.cyclo_mul_calls": (calls("scalars.Cyclo.__mul__"), "count"),
        "scalars.cyclo_inverse_calls": (calls("scalars.Cyclo.inverse"),
                                        "count"),
        "wavefunction.logz_s": (incl("wavefunction.assemble_logZ",
                                     "wavefunction.assemble_logZprime"), "s"),
        "wavefunction.hirota_s": (incl("wavefunction.hirota_insertion_check"),
                                  "s"),
        "serialize.parse_s": (incl("serialize.parse_curve_spec"), "s"),
        "serialize.dump_s": (incl(*OUTPUT_DUMPS), "s"),
        "serialize.output_bytes": (items(*OUTPUT_DUMPS), "count"),
        "harness_s": (traced_wall - sum(self_s.values()), "s"),
        "trace_overhead_ratio": (traced_wall / sum(untraced.values()),
                                 "ratio"),
    }
    for layer in ("recursion", "tensors", "curves", "series", "scalars",
                  "wavefunction", "cycles", "serialize", "cli"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    previous = 0.0
    for chi, total in enumerate(levels, start=1):
        m[f"recursion.omega_table_s.chi{chi}"] = (total - previous, "s")
        previous = total
    m["recursion.omega_table_top_s"] = (levels[-1] - levels[-2]
                                        if len(levels) > 1 else levels[-1],
                                        "s")
    return m


def trace(runner: Runner, root: str) -> tuple:
    """Traced run: untraced reference cycle, traced cycle, level probes."""
    runner.setup_sample()                      # fills bytecode caches
    reference = runner.cycle()
    trace_dir = os.path.join(runner.work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    traced = runner.cycle(trace_dir) if reference is not None else None
    if traced is None:
        return {}, {}
    levels = runner.level_probe()
    stats, ops, walls, untraced = {}, [], {}, {}
    for op in OPS:
        for i, ((wall, _), (ref, _)) in enumerate(zip(traced[op],
                                                      reference[op])):
            op_id = f"{op}-{i}"
            with open(os.path.join(trace_dir, f"{op_id}.json"),
                      encoding="utf-8") as fh:
                doc = json.load(fh)
            walls[op_id], untraced[op_id] = wall, ref
            ops.append({"op_id": op_id, "wall_s": wall, "untraced_s": ref,
                        "stats": doc["stats"],
                        "spans": [[op_id] + s for s in doc["spans"]]})
            for name, s in doc["stats"].items():
                acc = stats.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                              "self_s": 0.0, "items": 0})
                for key in acc:
                    acc[key] += s[key]
    metrics = layer_metrics(stats, walls, untraced, levels)
    path = os.path.join(root, WORK_DIR,
                        f"trace-{runner.workload}-{runner.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": runner.workload, "seed": runner.seed,
                   "span_fields": ["op_id", "id", "name", "start", "end",
                                   "parent"],
                   "level_probe_s": levels, "ops": ops}, fh)
    report = {"trace_file": os.path.relpath(path, root),
              "ops": {op_id: {"traced_s": walls[op_id],
                              "untraced_s": untraced[op_id]}
                      for op_id in walls}}
    return report, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "trcycles", "cli.py")):
        print("perfbench: run from the root of a trcycles source checkout "
              "(src/trcycles not found)", file=sys.stderr)
        return 2

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]
    runner = Runner(args.workload, args.seed, root)
    host = host_record(root)
    try:
        runner.prepare()
        if args.trace:
            report, metrics = trace(runner, root)
        else:
            report, metrics = measure(runner, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("report " + json.dumps(report, sort_keys=True))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:40s} {value:>16.6f} {unit}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    failed = len(runner.failures)
    print(f"ops attempted {runner.attempted}  failed {failed}  "
          f"ops_failed_ratio {failed / max(runner.attempted, 1):.6f}")
    correct = failed == 0 and all(name in metrics for name in wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
