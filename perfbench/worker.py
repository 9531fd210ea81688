"""One workload in one fresh single-threaded process.

Started by ``run.py``.  It imports dalg from the checkout's ``src``,
builds the workload's inputs, prints ``READY`` (the parent's set-up clock
stops there), then runs the cases one after another, each under its
deadline, and prints one JSON line with the per-case rows and the derived
figures.  Certification runs after the timed passes.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import dalg  # noqa: E402
import dalg.cli  # noqa: E402
from dalg.errors import (AnsatzNotFoundError, EliminationFailedError,  # noqa: E402
                         ResourceCapError)

import certify  # noqa: E402
import tracing  # noqa: E402
from cases import DEADLINE_S, REPEAT_S, workload_cases  # noqa: E402
from problem import parse_problem, solve  # noqa: E402

MAX_PASSES = 20
MAX_REPEATS = 10


class CaseDeadline(BaseException):
    """Raised by SIGALRM inside the running case."""


_armed = [False]


def cpu_clock():
    """CPU seconds used by this process and the children it has waited for.

    Every case is timed on this clock, not on the wall clock: the worker is
    single-threaded and CPU-bound, so the two agree on an idle core, but on
    a shared virtual machine the wall clock also counts the time the host
    gave the core to other guests (steal), which comes and goes for minutes.
    Threads and waited-for child processes are counted, so work moved off
    the main thread is not hidden."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _on_alarm(signum, frame):
    if _armed[0]:
        _armed[0] = False
        raise CaseDeadline


def run_case(workload, case, problem, deadline):
    """(status, seconds, output, reason); seconds are CPU seconds of the call
    only.  The deadline is on the wall clock, so that a case that blocks is
    stopped too."""
    out, err = io.StringIO(), io.StringIO()
    status, output, reason = "ok", None, ""
    signal.setitimer(signal.ITIMER_REAL, deadline)
    _armed[0] = True
    t0 = cpu_clock()
    try:
        if workload == "cli-mix":
            with redirect_stdout(out), redirect_stderr(err):
                code = dalg.cli.main(case.argv + ["--format", "json"])
            _armed[0] = False
            output = out.getvalue()
            status = {0: "ok", 3: "exhausted", 4: "cap"}.get(code, "wrong")
            if status == "wrong":
                reason = f"exit {code}: {err.getvalue().strip()}"
        else:
            output = solve(problem)
            _armed[0] = False
    except CaseDeadline:
        status = "timeout"
    except (AnsatzNotFoundError, EliminationFailedError) as exc:
        status, reason = "exhausted", str(exc)
    except ResourceCapError as exc:
        status, reason = "cap", str(exc)
    except SystemExit as exc:
        status, reason = "wrong", f"exit {exc.code}: {err.getvalue().strip()}"
    finally:
        _armed[0] = False
        t1 = cpu_clock()
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = deadline if status == "timeout" else t1 - t0
    return status, seconds, output, reason


def parse_all(workload, cases):
    if workload == "cli-mix":
        return [None] * len(cases)
    return [parse_problem(c.argv) for c in cases]


def run_pass(workload, cases, problems, deadline, tracer=None, skip=(), keep=True,
             repeat=False):
    """One run of every case; rows are (status, [seconds], output, reason).

    A case in skip timed out in an earlier pass and is charged the deadline
    again without running.  With repeat, a short case runs again, on freshly
    parsed inputs, until it has taken REPEAT_S[workload] or run MAX_REPEATS
    times, so that small cases get as many samples as a run can afford.  Unless keep
    is set, outputs are kept only as JSON text, so later passes do not hold
    on to memory."""
    rows = []
    for i, (case, problem) in enumerate(zip(cases, problems)):
        if i in skip:
            rows.append(("timeout", [deadline], None, ""))
            continue
        if tracer is not None:
            tracer.begin_case(i)
            tracer.on = True
        try:
            status, seconds, output, reason = run_case(workload, case, problem, deadline)
        finally:
            if tracer is not None:
                tracer.on = False
                tracer.end_case()
        times = [seconds]
        while repeat and sum(times) < REPEAT_S[workload] and len(times) < MAX_REPEATS:
            again = None if workload == "cli-mix" else parse_problem(case.argv)
            st, seconds, _, _ = run_case(workload, case, again, deadline)
            if st != status:
                break
            times.append(seconds)
        if not keep and workload != "cli-mix" and output is not None:
            output = dalg.render(output, "json")
        rows.append((status, times, output, reason))
    return rows


def check(workload, case, problem, status, output):
    """(status, reason) after checking an output."""
    if status != "ok":
        return status, ""
    try:
        if workload == "cli-mix":
            reason = certify.check_json(case, output)
        else:
            reason = certify.check(case, problem, output)
    except Exception as exc:  # a malformed output must not stop the report
        reason = f"certifier raised {type(exc).__name__}: {exc}"
    return ("wrong", reason) if reason else ("ok", "")


def solved(case, status):
    return status == ("exhausted" if case.expect == "exhausted" else "ok")


def report_rows(workload, cases, problems, passes):
    """Certify the first pass's outputs and check that every later pass
    gave the same outcome; one row per case."""
    rows = []
    for i, case in enumerate(cases):
        status, _, output, reason = passes[0][i]
        status, why = check(workload, case, problems[i], status, output)
        reason = why or reason
        if status == "ok" and workload != "cli-mix":
            output = dalg.render(output, "json")
        for later in passes[1:]:
            st_k, _, out_k, _ = later[i]
            if st_k != status and "timeout" not in (st_k, status):
                status, reason = "wrong", f"passes disagree: {status} vs {st_k}"
            elif status == st_k == "ok" and out_k != output:
                status, reason = "wrong", "passes disagree on the output"
        rows.append({
            "id": case.id, "argv": case.argv, "hard": case.hard, "status": status,
            "solved": all(solved(case, p[i][0]) for p in passes) and status != "wrong",
            "ms": [t * 1000.0 for p in passes for t in p[i][1]], "reason": reason,
        })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where the traced run writes spans")
    args = ap.parse_args(argv)

    if not Path(dalg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"dalg was imported from {dalg.__file__}, not from {SRC}")
    cases = workload_cases(args.workload, args.seed)
    problems = parse_all(args.workload, cases)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = DEADLINE_S[args.workload]
    t_begin = perf_counter()
    passes = [run_pass(args.workload, cases, problems, deadline, repeat=not args.trace)]
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        passes.append(run_pass(args.workload, cases, parse_all(args.workload, cases),
                               deadline, tracer, keep=False))
    else:
        # Passes repeat while the next one fits in the run; a case that
        # timed out is not run again.
        skip = {i for i, row in enumerate(passes[0]) if row[0] == "timeout"}
        while len(passes) < MAX_PASSES:
            next_pass = sum(sum(r[1]) for i, r in enumerate(passes[-1]) if i not in skip)
            if perf_counter() - t_begin + next_pass > args.seconds:
                break
            passes.append(run_pass(args.workload, cases, parse_all(args.workload, cases),
                                   deadline, skip=skip, keep=False, repeat=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # certification, outside the timed region
    rows = report_rows(args.workload, cases, problems, passes)
    timed = passes[1:] if args.trace else passes
    per_case_s = [statistics.median(t for p in timed for t in p[i][1])
                  for i in range(len(cases))]
    per_case_ms = [t * 1000.0 if row["solved"] else float("inf")
                   for t, row in zip(per_case_s, rows)]
    attempted = len(cases) * len(timed)
    unsolved = sum(1 for p in timed for case, r in zip(cases, p)
                   if not solved(case, r[0]))
    result = {
        "workload": args.workload, "seed": args.seed, "passes": len(timed),
        "deadline_s": deadline, "rows": rows,
        "wrong": [row["id"] for row in rows if row["status"] == "wrong"],
        "attempted": attempted, "unsolved": unsolved,
        "wall_s": sum(per_case_s),
        # unsolved cases count as infinite; a solved one never exceeds the
        # deadline, so an infinite median reads as the deadline
        "case_p50_ms": min(statistics.median(per_case_ms), deadline * 1000.0),
        "solved_frac": 1.0 - unsolved / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        both = [i for i, row in enumerate(rows) if row["solved"]]
        untraced = sum(passes[0][i][1][0] for i in both)
        traced = sum(passes[1][i][1][0] for i in both)
        metrics, unattributed = tracer.metrics(traced, untraced)
        result.update(
            per_layer=metrics, traced_wall_s=sum(r[1][0] for r in passes[1]),
            untraced_wall_s=sum(r[1][0] for r in passes[0]),
            layer_self_sum_s=sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS),
            unattributed_s=unattributed, spans=len(tracer.spans))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
