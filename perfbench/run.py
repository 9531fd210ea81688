"""dalg benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload elim --seed 1 --seconds 40 --trace 0

Workloads (``cases.py``): ``elim`` (criteria 1-6 and finishing elimination
variants), ``ansatz`` (criterion 7, Riccati variants, one exhausting search)
and ``cli-mix`` (a seeded draw of small problems over all subcommands
through ``dalg.cli.main``, then the hard set, which times out at the seed
commit).

``--trace 0`` prints the end-to-end metrics ``setup_s``, ``wall_s``,
``case_p50_ms``, ``solved_frac`` and ``peak_rss_mb``; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics of the
traced one.  README.md defines every metric.

The workload runs in a fresh worker process (``worker.py``); every output is
certified after the timed passes (``certify.py``).  The last line of stdout
is the result object.  A wrong output makes the command exit 1 after naming
the case.  Per-case rows, with each case's argv, go to stderr and to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from cases import WORKLOADS  # noqa: E402

UNITS = {"setup_s": "s", "wall_s": "s", "case_p50_ms": "ms",
         "solved_frac": "ratio", "peak_rss_mb": "MB"}


def _env():
    # a fixed hash seed keeps the iteration order of sets of variables the
    # same in every worker, so two runs of one seed do the same work
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _start(args, extra=()):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker did not start: {line.strip() or 'no output'}")
    return proc, setup


def _children_cpu():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def measure_setup(args):
    """Median set-up time over fresh interpreters, after one warm-up that
    fills the bytecode cache.  A probe's set-up time is all the CPU time it
    uses: interpreter start, ``import dalg``, parsing the inputs, and exit
    right after.  Cases are timed in CPU seconds too (see worker.py)."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = _children_cpu()
        proc, _ = _start(args, ["--setup-only"])
        proc.stdout.read()
        if proc.wait(timeout=60) != 0:
            raise SystemExit("set-up probe failed")
        setup = _children_cpu() - before
        if i:
            samples.append(setup)
    return statistics.median(samples), samples


def run_worker(args, spans_path):
    extra = ["--spans", str(spans_path)] if args.trace else []
    proc, setup = _start(args, extra)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker exceeded its time limit")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup


def print_rows(result):
    print(f"# {result['workload']} seed={result['seed']} passes={result['passes']} "
          f"deadline={result['deadline_s']}s", file=sys.stderr)
    for row in result["rows"]:
        ms = f"{statistics.median(row['ms']):.1f} ms x{len(row['ms'])}"
        print(f"{row['id']:28s} {row['status']:9s} {ms:>16s}  "
              f"{json.dumps(row['argv'])}"
              + (f"  # {row['reason']}" if row["reason"] else ""), file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dalg" / "__init__.py").is_file():
        print(f"no dalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_samples = []
    if not args.trace:
        setup_s, setup_samples = measure_setup(args)
    result, worker_setup = run_worker(args, OUT / f"{stem}-spans.tsv")
    result.update(setup_samples_s=setup_samples, worker_setup_s=worker_setup)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_rows(result)

    if args.trace:
        print(f"# traced pass {result['traced_wall_s']:.3f}s, untraced "
              f"{result['untraced_wall_s']:.3f}s, layer self sum "
              f"{result['layer_self_sum_s']:.3f}s, outside layers "
              f"{result['unattributed_s']:.3f}s, {result['spans']} spans",
              file=sys.stderr)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["per_layer"].items()}
    else:
        result["setup_s"] = setup_s
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in UNITS.items()}
    wrong = result["wrong"]
    for case_id in wrong:
        print(f"WRONG output: {case_id}", file=sys.stderr)
    failed = sum(1 for row in result["rows"] if row["status"] == "wrong")
    print(json.dumps({"correct": not wrong, "attempted": result["attempted"],
                      "failed": failed * result["passes"], "metrics": metrics}))
    return 1 if wrong else 0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio") or name.endswith("_per_op"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
