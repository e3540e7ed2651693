"""zflim benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload bracket --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`.  The
run measures set-up time in fresh interpreters, then repeats rounds over
the workload's operations (the same inputs every round) and checks every
output.  It times a fixed calibration computation after every operation
and scales each operation's time by the machine's speed in its round (see
calibration.py); an operation's time is the median over the rounds.  It
prints each metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
rounds alternate untraced and traced and the metrics are the per-layer
ones.  The exit code is 0 only when every output is correct; a missing
`src/zflim` exits 2 before anything is measured.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread (<= nproc everywhere), set before numpy loads, so counts
# and timings do not depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import calibration
import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
SETUP_CODE = "import zflim; from zflim.plants import BUILTIN; [r.tf() for r in BUILTIN.values()]"
# no further round starts once this much time is used, so a run ends within 180 s
BUDGET_S = 120.0
# an operation time at the highest rank with this many samples beyond it is the tail
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ok_frac", "frac"),
    ("gap_pct", "%"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> list:
    """Pairs of (set-up seconds, calibration seconds right after it).

    Set-up is the time from spawning a fresh interpreter to its exit after
    `import zflim` and building the bundled plants.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    pairs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        pairs.append((time.perf_counter() - t0, calibration.timed()))
    return pairs


class Ledger:
    """Every operation's outcome, against the number attempted."""

    def __init__(self):
        self.outcomes = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def record(self, label: str, outcome: str, mismatches: list):
        self.attempted += 1
        if mismatches:
            self.failed += 1
            outcome += ", wrong output"
            self.mismatches += [f"{label}: {m}" for m in mismatches]
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def record_error(self, label: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        name = f"raised {type(exc).__name__}"
        self.outcomes[name] = self.outcomes.get(name, 0) + 1
        self.mismatches.append(f"{label}: {name}: {exc}")


def run_pass(workload, inputs):
    """One round over the inputs, timing the calibration after each operation.

    Returns (op seconds, (output, error) pairs, calibration seconds).
    """
    clock = time.perf_counter
    times, results, cal = [], [], []
    for inp in inputs:
        t0 = clock()
        try:
            results.append((workload.run(inp), None))
        except Exception as exc:  # an operation's failure is recorded, not fatal
            results.append((None, exc))
        times.append(clock() - t0)
        cal.append(calibration.timed())
    return times, results, cal


def check_pass(workload, inputs, results, ledger: Ledger, deep: bool) -> list:
    """Record each operation's outcome and checks; return the outputs of those that ran."""
    outputs = []
    for inp, (out, exc) in zip(inputs, results):
        label = f"{workload.name}[{workload.label(inp)}]"
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)
            ledger.record_error(label, exc)
            continue
        try:
            bad = workload.check(inp, out, deep)
        except Exception as check_exc:  # a check that cannot run is a wrong output
            bad = [f"check raised {type(check_exc).__name__}: {check_exc}"]
        ledger.record(label, workload.outcome(inp, out), bad)
        outputs.append(out)
    return outputs


def tail(times: list) -> float:
    """The op time with TAIL_BEYOND samples beyond it.

    When that rank is not above the median (fewer than 2 * TAIL_BEYOND + 1
    samples), the slowest operation instead.
    """
    ordered = sorted(times, reverse=True)
    return ordered[TAIL_BEYOND] if len(ordered) > 2 * TAIL_BEYOND else ordered[0]


def scaled_times(rounds: list, timed: list) -> list:
    """Each timed operation's median, over the rounds, of its scaled time.

    `rounds` holds, per round, (op seconds, (output, error) pairs,
    calibration seconds); `timed[j]` says whether operation j counts in the
    timings.  A time is scaled by REFERENCE_S over the median calibration
    time of its round.  Rounds in which the operation raised are left out,
    and so is an operation that raised in every round.
    """
    scaled = {}
    for times, results, cal in rounds:
        factor = calibration.REFERENCE_S / statistics.median(cal)
        for j, (t, (_, exc)) in enumerate(zip(times, results)):
            if timed[j] and exc is None:
                scaled.setdefault(j, []).append(t * factor)
    return [statistics.median(scaled[j]) for j in sorted(scaled)]


def run_rounds(workload, seconds: float, trace: bool, t_run: float, ledger: Ledger):
    """Repeat the workload's pass over the same inputs and check every round.

    Rounds go on until the rounds would pass `seconds` (or the run would
    pass BUDGET_S); there is always one.  With `trace`, every second round
    is traced and the last round is a traced one.  Returns, for the
    untraced and the traced rounds, their (op seconds, results, calibration
    seconds), every output, and per traced round (spans, operations' time,
    the `analyze` reports' stage times).
    """
    inputs = workload.batch()
    plain, traced, all_outputs, layer = [], [], [], []
    spent = 0.0
    i = 0
    while True:
        is_traced = trace and i % 2 == 1
        tracer = tracing.Tracer() if is_traced else None
        if tracer:
            tracer.install()
        try:
            times, results, cal = run_pass(workload, inputs)
        finally:
            if tracer:
                tracer.uninstall()
        outputs = check_pass(workload, inputs, results, ledger, deep=(i == 0))
        all_outputs += outputs
        if is_traced:
            traced.append((times, results, cal))
            layer.append((tracer.spans, sum(times), workload.analyze_wall_times(outputs)))
        else:
            plain.append((times, results, cal))
        wall = sum(times) + sum(cal)
        spent += wall
        i += 1
        if trace and not is_traced:
            continue
        if spent + wall > seconds or time.perf_counter() - t_run + wall > BUDGET_S:
            break
    return plain, traced, all_outputs, layer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zflim", "__init__.py")):
        print(f"error: no zflim package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    setup = [] if args.trace else measure_setup()
    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        plain, traced, outputs, layer = run_rounds(
            workload, args.seconds, args.trace == 1, t_run, ledger)
        # every operation counts in the timings unless the workload says otherwise
        timed = [getattr(workload, "timed", lambda inp: True)(inp) for inp in workload.batch()]

    print(f"workload {workload.name}  seed {args.seed}  rounds {len(plain) + len(traced)}"
          f"  operations {ledger.attempted}  trace {args.trace}")
    for outcome, count in sorted(ledger.outcomes.items()):
        print(f"  outcome  {outcome}: {count}")
    for m in ledger.mismatches:
        print(f"  FAILED   {m}")
    print("  round seconds " + " ".join(f"{sum(r[0]):.3f}" for r in plain)
          + ("  traced " + " ".join(f"{sum(r[0]):.3f}" for r in traced) if traced else ""))
    print("  round calibration medians " + " ".join(
        f"{statistics.median(r[2]):.4f}" for r in plain + traced))
    error_frac = ledger.failed / ledger.attempted
    print(f"  error_frac {error_frac:.6g} ({ledger.failed} of {ledger.attempted} operations)")
    op_s = scaled_times(plain, timed) or [0.0]

    if args.trace:
        metrics = tracing.median_metrics([tracing.layer_metrics(*x) for x in layer])
        traced_s = sum(scaled_times(traced, timed))
        metrics["trace.overhead_frac"] = traced_s / sum(op_s) - 1.0 if sum(op_s) else 0.0
        units = dict(tracing.PER_LAYER)
        shares = tracing.busy_share([x[0] for x in layer], [x[1] for x in layer])
        print("  layer share of the traced rounds: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    else:
        try:
            gap = workload.gap_pct(outputs)
        except Exception:  # wrong outputs may leave no gap to compute
            traceback.print_exc()
            gap = 0.0
        metrics = {
            "setup_s": calibration.REFERENCE_S * statistics.median(s / c for s, c in setup),
            "wall_s": sum(op_s),
            "op_p50_s": statistics.median(op_s),
            "op_tail_s": tail(op_s),
            "ok_frac": 1.0 - error_frac,
            "gap_pct": gap if math.isfinite(gap) else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        rank = "the 11th slowest" if len(op_s) > 2 * TAIL_BEYOND else "the slowest"
        print(f"  each of {len(op_s)} timed operations: median of {len(plain)} rounds, scaled; "
              f"op_tail_s is {rank}; setup_s is the median of {len(setup)} fresh interpreters, "
              f"each scaled by the calibration right after it; unscaled median "
              f"{statistics.median(s for s, _ in setup):.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
