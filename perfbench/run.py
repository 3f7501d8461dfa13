"""Benchmark entry point: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload parse-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from the root of a source checkout; the parser is imported from its
``src`` directory. A run prints a report (machine, each metric with its unit,
sample counts) and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. It exits 1 when any output check
failed and 2 when it cannot run at all. Details of each run, and the spans of
a traced run, are written under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

# single-threaded BLAS, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("parse-long", "parse-char", "train")
CHILD_TIMEOUT_S = 600


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(ROOT),
    }


def run_one(args) -> int:
    from perfbench import spans, workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        run = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    metrics = workloads.metrics(run)
    units = spans.per_layer_units() if args.trace else workloads.END_TO_END
    cycle = run.cycles[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "cycles": len(run.cycles),
        "cycle_seconds": [c.seconds for c in run.cycles],
        "cycle_peak_rss_mb": [c.peak_rss_mb for c in run.cycles],
        "cycle_parts_s": [c.parts for c in run.cycles],
        "cycle_latencies_s": [c.latencies for c in run.cycles],
        "tokens_per_cycle": cycle.tokens,
        "latency_samples": sum(lat is not None for c in run.cycles for lat in c.latencies),
        "setup_samples_s": run.setup,
        "learned_uas_las": run.learned,
        "updates_per_cycle": run.updates,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if run.tracer is not None:
        record["spans"] = len(run.tracer.start)
        run.tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for key, value in record["machine"].items():
        print(f"# {key}: {value}")
    print(f"# {args.workload} seed {args.seed}: {len(run.cycles)} cycles of {cycle.tokens} timed tokens, "
          f"{record['latency_samples']} latency samples, {len(run.setup)} set-ups, "
          f"{run.attempted} sentences attempted, {run.failed} failed")
    if run.learned is not None:
        print("# training check on the grammar corpus: held-out uas {:.2f} %, las {:.2f} % "
              "(las floor {:g} %)".format(*run.learned, workloads.LAS_FLOOR))
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a child process of its own, so peak RSS is per run.

    Exits 1 when a workload failed a check and 2 when one ended without a
    result: a crash, a signal or a timeout.
    """
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: {name} did not end within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            results[name] = None
            status = 2
            continue
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
            status = max(status, proc.returncode)
        else:
            print(f"error: {name} ended with code {proc.returncode} and no result", file=sys.stderr)
            results[name] = None
            status = 2
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "efdp", "__init__.py")):
        print(f"error: no parser sources at {os.path.join(ROOT, 'src', 'efdp')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
