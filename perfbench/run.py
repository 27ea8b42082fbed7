"""Benchmark of symquad's command-line workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fold --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

One run is a closed loop with a single client: each request is one
in-process ``symquad.cli.main(argv)`` call that writes ``--out`` into a
scratch directory, and the next request starts when the previous one and
its output check are done.  The checker's time is excluded from the timed
phase.  The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A fuller report (environment, percentiles, absent layers) is written to
``.bench_out/<workload>-trace<0|1>.json`` and the spans of a traced run to
``.bench_out/spans-<workload>-{setup,cycles}.npz``.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS pools to the usable cores before anything imports numpy.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import CALL_COUNTS, ITEM_COUNTS, TRACED, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: Set-ups per run; ``setup_s`` is their median.  ``integrate`` writes
#: 2^15-node rules in each set-up (about 3 s), so it repeats fewer times.
SETUP_REPEATS = {"fold": 9, "certify": 9, "integrate": 5}

#: Percentile tail: the highest order statistic with this many samples above it.
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Work counts computed from arguments and results, not timed.
COMPUTED = tuple(f"{n}.items" for n in ITEM_COUNTS) + tuple(f"{n}.calls" for n in CALL_COUNTS) + (
    "fourier.evaluate_at_points.exp_count",
    "fourier.FourierPolynomial.terms",
    "korobov.korobov_norm.terms",
    "fooling.constraint_matrix.entries",
    "fooling.nullspace_solution.rows",
    "fooling.assembly.pairs",
)


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports, in output order."""
    names = [f"{m}.{a}" for m, a in TRACED] + ["bench.inputs", "bench.check"]
    out = [(f"{n}.self_s", "s") for n in names]
    out += [(n, "count") for n in COMPUTED]
    out += [
        ("fourier.evaluate_at_points.exp_per_s", "1/s"),
        ("fooling.nullspace_solution.residual_max_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_s", "s"),
        ("trace.wall_s", "s"),
    ]
    return out


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(1)


def import_symquad():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "symquad" / "cli.py").is_file():
        fail(f"no symquad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symquad.cli

    if SRC not in Path(symquad.__file__).resolve().parents:
        fail(f"symquad was imported from {symquad.__file__}, not from {SRC}")
    return symquad


def child_import_seconds():
    """Time of ``import symquad.cli`` in a fresh interpreter (waited for)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import symquad.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def environment(seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "machine": platform.machine(),
        "seed": seed,
    }


# -- one request -----------------------------------------------------------


def run_request(symquad, request):
    """(wall seconds, exit code or None, error text) of one CLI call."""
    out = request.argv[request.argv.index("--out") + 1]
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    gc.collect()  # start every request from the same heap state
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = symquad.cli.main(list(request.argv))
    except Exception as exc:  # an uncaught error is a failed request, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, err.getvalue().strip()


def check_request(request, rc, err, digests):
    """None when the request did what it must, else the reason it failed."""
    if rc != request.expect_rc:
        return f"exit code {rc}, expected {request.expect_rc}: {err[:200]}"
    out = request.argv[request.argv.index("--out") + 1]
    if request.check == "refusal":
        return "a refused request wrote output" if os.path.exists(out) else None
    spec = request.spec
    try:
        if request.check == "rule":
            reason = checks.check_rule(out, spec["dim"], spec["groups"])
        elif request.check == "nabla":
            reason = checks.check_nabla(out, spec["dim"], spec["groups"])
        elif request.check == "weights":
            reason = checks.check_weights(out, spec["dim"], spec["group"], spec["gammas"], spec["kappa"])
        elif request.check == "certificate":
            reason = checks.check_certificate(out, spec["nodes"], spec["weights"], spec["dim"],
                                              spec["group"], spec["gammas"])
        else:
            reason = checks.check_integrate(out, spec["n_nodes"], spec["weight_abs_sum"],
                                            spec["keys"], spec["coeffs"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is None and request.digest_key is not None:
        expected = digests.get(request.digest_key)
        actual = checks.sha256_file(out)
        if actual != expected:
            reason = f"SHA-256 {actual[:16]}... differs from the reference {str(expected)[:16]}..."
    return reason


class Tally:
    """Latencies and failures of the requests of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.check_s = 0.0  # time spent in the output checks
        self.wall_s = 0.0  # wall time of the phase, checks included

    def add(self, request, elapsed, reason):
        self.latencies.append(elapsed)
        if reason is not None:
            self.failures.append(f"{request.template}: {reason}")


def serve(symquad, request, digests, tally, tracer=None):
    elapsed, rc, err = run_request(symquad, request)
    t0 = time.perf_counter()
    if tracer is None:
        reason = check_request(request, rc, err, digests)
    else:
        with tracer.span("bench.check"):
            reason = check_request(request, rc, err, digests)
    tally.check_s += time.perf_counter() - t0
    tally.add(request, elapsed, reason)


# -- set-up ----------------------------------------------------------------


def setup_once(symquad, workload, seed, workdir, digests, tally, tracer=None):
    """Write the inputs and run the warm-ups; returns (requests, seconds).

    The seconds are the import time of a fresh interpreter plus input
    generation plus the warm-up requests, which are recorded in ``tally``;
    checking the warm-ups is not counted.
    """
    workdir.mkdir(parents=True)
    gc.collect()  # garbage of an earlier set-up must not raise this one's peak
    import_s = child_import_seconds()
    t0 = time.perf_counter()
    if tracer is None:
        requests, warmups = workloads.build(workload, seed, str(workdir), symquad)
    else:
        with tracer.span("bench.inputs"):
            requests, warmups = workloads.build(workload, seed, str(workdir), symquad)
    spent = time.perf_counter() - t0
    before = len(tally.latencies)
    for request in warmups:
        serve(symquad, request, digests, tally, tracer)
    return requests, import_s + spent + sum(tally.latencies[before:])


def setup(symquad, workload, seed, digests, tally):
    samples = []
    for rep in range(SETUP_REPEATS[workload]):
        workdir = WORK / f"{workload}-{os.getpid()}" / f"setup{rep}"
        requests, seconds = setup_once(symquad, workload, seed, workdir, digests, tally)
        samples.append(seconds)
    return requests, samples


# -- timed and traced phases -------------------------------------------------


def more_cycles(t0, last_cycle, seconds):
    """Whether another cycle ends nearer to ``seconds`` than stopping now.

    Runs stop only between cycles, which keeps the request mix of every
    run the same whatever the seed's order, and last ``seconds`` on average.
    """
    return time.perf_counter() - t0 + last_cycle / 2 < seconds


def timed_phase(symquad, requests, seconds, digests):
    tally = Tally()
    t0 = time.perf_counter()
    last_cycle = 0.0
    while more_cycles(t0, last_cycle, seconds):
        start = time.perf_counter()
        for request in requests:
            serve(symquad, request, digests, tally)
        last_cycle = time.perf_counter() - start
    tally.wall_s = time.perf_counter() - t0
    return tally


def tail(latencies):
    """(value, percentile) of the highest order statistic with 10 samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(symquad, workload, seed, seconds, digests):
    tally_setup = Tally()
    requests, setup_samples = setup(symquad, workload, seed, digests, tally_setup)
    tally = timed_phase(symquad, requests, seconds, digests)
    n = len(tally.latencies)
    ok = n - len(tally.failures)
    tail_value, tail_pct = tail(tally.latencies)
    metrics = {
        "ops_per_s": ok / (tally.wall_s - tally.check_s),
        "latency_p50_s": statistics.median(tally.latencies),
        "latency_tail_s": tail_value,
        "ok_ratio": ok / n,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "requests_per_cycle": len(requests),
        "timed_requests": n,
        "failed_ratio": len(tally.failures) / n,
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples": n,
        "setup_samples_s": setup_samples,
        "failures": tally_setup.failures + tally.failures,
    }
    return metrics, detail, tally_setup.failures + tally.failures, n + len(tally_setup.latencies)


def traced(symquad, workload, seed, seconds, digests):
    """One traced set-up, a warm cycle, then (untraced, traced) cycle pairs.

    Per-layer figures are for the traced set-up plus one traced cycle;
    the cycle part is averaged over the cycles run, and since every cycle
    is the same request list the computed counts repeat exactly.
    """
    tally_setup = Tally()
    setup_tracer = Tracer()
    setup_tracer.install(symquad)
    t0 = time.perf_counter()
    try:
        requests, _ = setup_once(symquad, workload, seed,
                                 WORK / f"{workload}-{os.getpid()}" / "setup", digests,
                                 tally_setup, setup_tracer)
    finally:
        setup_tracer.uninstall()
    setup_wall = time.perf_counter() - t0

    # One warm cycle first, so the untraced cycles are not the colder ones.
    untraced_tally, traced_tally = Tally(), Tally()
    for request in requests:
        serve(symquad, request, digests, untraced_tally)

    tracer = Tracer()
    cycle_wall = 0.0
    cycles = 0
    loop_t0 = time.perf_counter()
    last_pair = 0.0
    while cycles == 0 or more_cycles(loop_t0, last_pair, seconds):
        start = time.perf_counter()
        for request in requests:
            serve(symquad, request, digests, untraced_tally)
        tracer.install(symquad)
        t0 = time.perf_counter()
        try:
            for request in requests:
                tracer.request_id += 1
                serve(symquad, request, digests, traced_tally, tracer)
        finally:
            cycle_wall += time.perf_counter() - t0
            tracer.uninstall()
        cycles += 1
        last_pair = time.perf_counter() - start

    setup_self, cycle_self = setup_tracer.self_times(), tracer.self_times()
    setup_calls, cycle_calls = setup_tracer.call_counts(), tracer.call_counts()
    layer = {}
    for name, _ in per_layer_metrics():
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            layer[name] = setup_self.get(span, 0.0) + cycle_self.get(span, 0.0) / cycles
    for span in CALL_COUNTS:
        layer[f"{span}.calls"] = setup_calls.get(span, 0) + cycle_calls.get(span, 0) / cycles
    for key in COMPUTED:
        if key not in layer and key != "fooling.assembly.pairs":
            layer[key] = setup_tracer.counts.get(key, 0) + tracer.counts.get(key, 0) / cycles
    layer["fooling.assembly.pairs"] = setup_tracer.assembly_pairs() + tracer.assembly_pairs() / cycles
    eval_self = layer["fourier.evaluate_at_points.self_s"]
    layer["fourier.evaluate_at_points.exp_per_s"] = (
        layer["fourier.evaluate_at_points.exp_count"] / eval_self if eval_self > 0 else 0.0
    )
    ratio_key = "fooling.nullspace_solution.residual_max_ratio"
    layer[ratio_key] = max(setup_tracer.maxima.get(ratio_key, 0.0), tracer.maxima.get(ratio_key, 0.0))
    untraced_s = sum(untraced_tally.latencies[len(requests):])
    layer["trace.overhead_ratio"] = sum(traced_tally.latencies) / untraced_s
    wall = setup_wall + cycle_wall / cycles
    attributed = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    layer["trace.wall_s"] = wall
    layer["trace.unattributed_s"] = wall - attributed

    OUT.mkdir(exist_ok=True)
    setup_tracer.save(OUT / f"spans-{workload}-setup.npz")
    tracer.save(OUT / f"spans-{workload}-cycles.npz")
    failures = tally_setup.failures + untraced_tally.failures + traced_tally.failures
    n = len(tally_setup.latencies) + len(untraced_tally.latencies) + len(traced_tally.latencies)
    detail = {
        "requests_per_cycle": len(requests),
        "cycles": cycles,
        "failures": failures,
        "absent": sorted(set(setup_tracer.absent) | set(tracer.absent)),
        "computed": list(COMPUTED),
        "spans": len(setup_tracer.busy) + len(tracer.busy),
    }
    return layer, detail, failures, n


# -- command line --------------------------------------------------------------


def run_seconds():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def load_digests():
    with open(HERE / "digests.json", "r", encoding="utf-8") as handle:
        return json.load(handle)["fold"]


def run_workload(args):
    symquad = import_symquad()
    digests = load_digests()
    env = environment(args.seed)
    try:
        if args.trace:
            values, detail, failures, attempted = traced(symquad, args.workload, args.seed,
                                                         args.seconds, digests)
            units = dict(per_layer_metrics())
        else:
            values, detail, failures, attempted = end_to_end(symquad, args.workload, args.seed,
                                                             args.seconds, digests)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{os.getpid()}", ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    env["requests"] = attempted
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    report = {"workload": args.workload, "trace": args.trace, "environment": env,
              "detail": detail, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key in ("requests_per_cycle", "cycles", "latency_tail_percentile", "latency_tail_samples",
                "failed_ratio", "absent"):
        if key in detail:
            print(f"{key} {detail[key]}")
    for name, entry in metrics.items():
        label = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<52} {entry['value']:>16.6g} {entry['unit']}{label}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Every workload, each in its own process; one summary line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            fail(f"workload {workload} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    # Defaults to BENCHMARK.json's run_seconds, the run length to compare at.
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
