#!/usr/bin/env python3
"""Outside-in benchmark for pvga.

Run from the root of a checkout (the package is imported from ``src/``,
never from an installed copy):

    python3 perfbench/run.py --workload em_phillips100 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # one child per workload

``--trace 0`` measures the end-to-end metrics with tracing off: ``wall_s``
(wall time of the workload's operation over several data draws), ``setup_s``
(median time to build its inputs), ``peak_rss_mb`` (``ru_maxrss`` of this
process, which runs only this workload) and the failure count.  ``--trace 1`` measures the
per-layer metrics: the operation untraced, then traced, then traced again
with one BLAS thread, all on the seed's own inputs.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, every sample, the spans of one
traced operation) is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("em_phillips100", "deblur_40", "validate_phillips100")

DEFAULT_SEED = 0  # the seed at which the pinned reference checks apply


def _load_pvga():
    """Import pvga from this checkout's src/ or exit 2 without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pvga", "__init__.py")):
        print(f"perfbench: no pvga sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import pvga

    if not os.path.abspath(pvga.__file__).startswith(src + os.sep):
        print(f"perfbench: pvga imported from {pvga.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return pvga


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []


def _rep_seed(seed: int, k: int) -> int:
    """Seed of repetition k: the run's own seed first, then derived ones, so
    a run averages its timing over several data draws."""
    from pvga import substream_seed

    return seed if k == 0 else substream_seed(seed, f"rep{k}")


def _attempt(w, seed: int, pinned: bool, tally: Tally, tracer=None):
    """Build fresh inputs, run and check one operation.

    Returns (setup seconds, operation seconds, root span or None).  A
    PvgaError or a failed check marks the operation failed; the run goes on.
    """
    from pvga import PvgaError

    clock = time.perf_counter
    t0 = clock()
    inp = w.setup(seed)
    setup_s = clock() - t0
    gc.collect()
    tally.attempted += 1
    t0 = clock()
    try:
        with tracer.root() if tracer else contextlib.nullcontext() as span:
            result = w.operation(inp)
        wall = clock() - t0
        problems, notes = w.check(inp, result, pinned)
        tally.notes += [f"seed {seed}: {note}" for note in notes]
    except PvgaError as exc:
        wall = clock() - t0
        problems = [f"{type(exc).__name__}: {exc}"]
    except Exception as exc:  # keep measuring; the failure is counted and shown
        wall = clock() - t0
        traceback.print_exc(file=sys.stderr)
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        tally.failed += 1
        tally.problems.append(f"seed {seed}: " + "; ".join(problems))
    return setup_s, wall, span


def _loop(budget: float, body) -> None:
    """Call body(k) for k = 0, 1, ... for about ``budget`` seconds: at least
    once, and again only while the next call, at the mean duration so far,
    would end less than half a call past the budget."""
    t_start = time.perf_counter()
    k = 0
    while True:
        body(k)
        k += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / k >= budget:
            return


def hodges_lehmann(xs: list[float]) -> float:
    """Median of the pairwise means (x_i + x_j)/2, i <= j: a location estimate
    that, unlike the plain median, does not jump between the modes of a
    sample drawn over different inputs, and that one outlier cannot move far."""
    return statistics.median((a + b) / 2 for a, b in itertools.combinations_with_replacement(xs, 2))


def _spread_text(xs: list[float], unit: str) -> str:
    """Median with its sample count, and the highest percentile that has at
    least ten samples beyond it when there are enough samples for one."""
    n = len(xs)
    text = f"median of n={n} (min {min(xs):.6g}, max {max(xs):.6g})"
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        text += f", p{pct} {sorted(xs)[n - 11]:.6g} {unit}"
    return text


def run_end_to_end(w, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    # One set-up per operation, timed between operations as users build
    # inputs: set-ups repeated back to back run warm and read ~2x faster,
    # by an amount that varies from run to run.
    setups: list[float] = []
    walls: list[float] = []

    def body(k):
        setup_s, wall, _ = _attempt(w, _rep_seed(seed, k), seed == DEFAULT_SEED and k == 0, tally)
        setups.append(setup_s)
        walls.append(wall)

    _loop(seconds, body)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (hodges_lehmann(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"wall_s       {metrics['wall_s'][0]:.6g} s   Hodges-Lehmann over data draws; {_spread_text(walls, 's')}")
    print(f"setup_s      {metrics['setup_s'][0]:.6g} s   {_spread_text(setups, 's')}")
    print(f"peak_rss_mb  {rss_mb:.6g} MB  ru_maxrss of this process")
    return metrics, {"wall_s": walls, "setup_s": setups}


def _traced_phase(w, seed, budget, tally, tracer):
    """Traced operations on the seed's inputs; per-rep summaries and the
    spans of the first one."""
    from tracer import summarize

    reps, first_spans = [], None

    def body(k):
        nonlocal first_spans
        tracer.reset()
        _, _, span = _attempt(w, seed, seed == DEFAULT_SEED, tally, tracer)
        if span is not None:
            summary = summarize(tracer.spans, span)
            summary["wall_s"] = span.end - span.start
            reps.append(summary)
            if first_spans is None:
                first_spans = tracer.spans

    _loop(budget, body)
    return reps, first_spans


def run_traced(w, seed: int, seconds: float, tally: Tally, blas) -> tuple[dict, dict]:
    from tracer import LAYER_METRICS, LAYERS, Tracer, spans_table

    budget = seconds / 3.0
    untraced: list[float] = []

    def body(k):
        untraced.append(_attempt(w, seed, seed == DEFAULT_SEED, tally)[1])

    _loop(budget, body)
    default_threads = blas.threads()
    with Tracer() as tracer:
        reps, spans = _traced_phase(w, seed, budget, tally, tracer)
        with blas.limit(1):
            single_threads = blas.threads()
            single, _ = _traced_phase(w, seed, budget, tally, tracer)
    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    metrics = {}
    for name, (unit, _fam, _field) in LAYER_METRICS.items():
        if unit == "s":
            metrics[name] = (med(reps, name), unit)
        else:
            metrics[name] = (reps[0][name], unit)
            if any(r[name] != reps[0][name] for r in reps):
                print(f"note: {name} differs between traced repetitions")
    metrics["validate.mh_acceptance"] = (reps[0]["validate.mh_acceptance"], "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med(reps, f"{layer}.self_s"), "s")
    traced_wall = med(reps, "wall_s")
    untraced_wall = statistics.median(untraced)
    metrics["trace.root_self_s"] = (med(reps, "root_self_s"), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["single_thread.wall_s"] = (med(single, "wall_s"), "s")
    for layer in LAYERS:
        metrics[f"single_thread.{layer}.self_s"] = (med(single, f"{layer}.self_s"), "s")
    metrics["single_thread.root_self_s"] = (med(single, "root_self_s"), "s")

    print(f"BLAS threads: {default_threads} in the default phases, {single_threads} in the "
          f"single-thread phase")
    print(f"traced wall {traced_wall:.6g} s vs untraced {untraced_wall:.6g} s "
          f"(overhead {traced_wall - untraced_wall:+.4g} s); "
          f"n={len(reps)} traced, {len(untraced)} untraced, {len(single)} single-thread")
    print(f"{'layer':10s} {'self_s':>10s} {'1-thread':>10s}")
    for layer in LAYERS + ("(root)",):
        key = "root_self_s" if layer == "(root)" else f"{layer}.self_s"
        print(f"{layer:10s} {med(reps, key):10.4f} {med(single, key):10.4f}")
    print(f"{'sum':10s} {traced_wall:10.4f} {metrics['single_thread.wall_s'][0]:10.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    samples = {"untraced_wall_s": untraced, "traced": reps, "single_thread": single}
    samples["spans"] = spans_table(spans)
    return metrics, samples


def _write_record(name: str, record: dict) -> None:
    try:
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, name), "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
    except OSError as exc:
        print(f"perfbench: could not write {name}: {exc}", file=sys.stderr)


def run_one(args) -> int:
    _load_pvga()
    from environment import BlasThreads, describe
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    blas = BlasThreads()
    env = describe(ROOT, blas)
    print(f"# perfbench {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace and not blas.controllable:
        print("note: no OpenBLAS thread control found; the single-thread run uses "
              "the default thread count")

    tally = Tally()
    if args.trace:
        metrics, samples = run_traced(w, args.seed, args.seconds, tally, blas)
    else:
        metrics, samples = run_end_to_end(w, args.seed, args.seconds, tally)
    failed_frac = tally.failed / tally.attempted
    print(f"failed_frac  {failed_frac:.6g}      {tally.failed} of {tally.attempted} operations")
    if args.trace:
        print("unconverged (counts, not failures): " + ", ".join(
            f"{k} {metrics[k][0]}" for k in
            ("linalg.pcg_unconverged", "vga.unconverged", "hyper.estep_unconverged")))
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    if tally.notes:
        print(f"notes on {len(tally.notes)} operation(s), not counted as failures:")
        for note in tally.notes[:20]:
            print(f"  {note}")

    out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    _write_record(
        f"{w.name}-seed{args.seed}-trace{args.trace}.json",
        {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "env": env, "attempted": tally.attempted, "failed": tally.failed,
         "failed_frac": failed_frac, "problems": tally.problems, "notes": tally.notes,
         "metrics": out_metrics, "samples": samples},
    )
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out_metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process (so peak RSS is its own), then
    one table of the end-to-end metrics."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        rows[name] = json.loads(lines[-1])
    print()
    header = f"{'workload':22s} {'wall_s [s]':>12s} {'setup_s [s]':>12s} {'peak_rss_mb [MB]':>17s} {'failed_frac':>12s}"
    if not args.trace:
        print(header)
        for name, res in rows.items():
            m = res["metrics"]
            print(f"{name:22s} {m['wall_s']['value']:12.4f} {m['setup_s']['value']:12.6f} "
                  f"{m['peak_rss_mb']['value']:17.1f} {res['failed'] / res['attempted']:12.4g}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
