#!/usr/bin/env python3
"""etclosure benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One run: set up (package import, inputs from the seed, one untimed warm-up
pass) three times, each in a fresh interpreter, and report the median; then
run whole rounds of the workload's operations, one at a time from this
process, while another round still fits in S seconds; then check every output.
The end-to-end times are scaled to a reference machine speed by a probe loop
run every PROBE_EVERY_S while they are measured (see `probe`).
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 half the time goes to untraced rounds and half to
traced rounds, and the line carries the per-layer metrics, while the spans go to
perfbench/out/<workload>-seed<N>.spans.jsonl. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("exact-closure", "series-symmetry", "thermo-kinetic")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
# A shared machine's speed moves by a fifth within a second and between runs, so
# each time is scaled by PROBE_REF_S over the median of the probes taken in and
# right around it.
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.1  # gap between probes during set-up and untraced rounds

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("accuracy_digits", "digits"),
)

# the worst of a dozen or so FD symmetry residuals spread over three decades moves by
# about a digit between seeds; their median is repeatable
MEDIAN_ACCURACY = ("series-symmetry",)

CLI_COMMANDS = ("closure", "verify", "equilibrium", "moments")
VERIFY_SUITES = ("characteristic", "cross_route", "compatibility", "oracle", "roundtrip",
                 "symmetry", "equilibrium", "kinetic")
# per-layer metrics read from spans: (metric, span name, statistic)
SPAN_METRICS = (
    ("closure.build_closure_tensor.calls", "closure.build_closure_tensor", "calls"),
    ("closure.build_closure_tensor.self_ms", "closure.build_closure_tensor", "self"),
    ("closure.derive_C_from_E.self_ms", "closure.derive_C_from_E", "self"),
    ("closure.verify_compatibility.self_ms", "closure.verify_compatibility", "self"),
    ("closure.ClosureTensorSet.build.self_ms", "closure.ClosureTensorSet.build", "self"),
    ("family.realize.calls", "family.realize", "calls"),
    ("family.realize.self_ms", "family.realize", "self"),
    ("family.check_characteristic.self_ms", "family.check_characteristic", "self"),
    ("family.mu_derivative.self_ms", "family.mu_derivative", "self"),
    ("family.trace.self_ms", "family.trace", "self"),
    ("tensors.gmu_basis.calls", "tensors.gmu_basis", "calls"),
    ("tensors.gmu_basis.self_ms", "tensors.gmu_basis", "self"),
    ("tensors.transform.calls", "tensors.transform", "calls"),
    ("tensors.transform.self_ms", "tensors.transform", "self"),
    ("tensors.trace_pair.self_ms", "tensors.trace_pair", "self"),
    ("scalar.evaluate.calls", "scalar.evaluate", "calls"),
    ("scalar.evaluate.self_ms", "scalar.evaluate", "self"),
    ("equilibrium.H_derivatives.calls", "equilibrium.H_derivatives", "calls"),
    ("equilibrium.gibbs_residual.self_ms", "equilibrium.gibbs_residual", "self"),
    ("equilibrium.integrability_residual.self_ms", "equilibrium.integrability_residual", "self"),
    ("equilibrium.project_equilibrium.calls", "equilibrium.project_equilibrium", "calls"),
    ("equilibrium.project_equilibrium.self_ms", "equilibrium.project_equilibrium", "self"),
    ("equilibrium.equilibrium_multipliers.self_ms", "equilibrium.equilibrium_multipliers", "self"),
    ("moments.delta_hprime.calls", "moments.delta_hprime", "calls"),
    ("moments.delta_hprime.self_ms", "moments.delta_hprime", "self"),
    ("moments.symmetry_residual.self_ms", "moments.symmetry_residual", "self"),
    ("moments.kinetic_moment.calls", "moments.kinetic_moment", "calls"),
    ("moments.kinetic_moment.self_ms", "moments.kinetic_moment", "self"),
)
COUNTER_METRICS = ("equilibrium.quad.calls", "equilibrium.integrand.evals",
                   "moments.quad.calls", "moments.integrand.evals")


def per_layer_names():
    names = [(f"cli.{c}.ms", "ms") for c in CLI_COMMANDS] + [("cli.self_ms", "ms")]
    names += [(f"verify.{s}.ms", "ms") for s in VERIFY_SUITES] + [("verify.pool_busy_ratio", "ratio")]
    names += [(m, "count" if m.endswith(".calls") else "ms") for m, _, _ in SPAN_METRICS]
    names += [(m, "count") for m in COUNTER_METRICS]
    names += [("tensors.gmu_structure.misses", "count"), ("oracle.self_ms", "ms"),
              ("setup.import_ms", "ms"), ("trace.overhead_ratio", "ratio")]
    return names


# ---------------------------------------------------------------------------
# machine speed


def probe() -> float:
    """Seconds a fixed mix of Fraction, float, tuple and dict work takes now.

    It runs only benchmark code with the garbage collector off, so neither a
    change to etclosure nor the size of its heap moves it; its time follows
    the machine's speed, which moves the workloads' times with it.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    for _ in range(4):
        acc = Fraction(0)
        for i in range(1, 160):
            acc += Fraction(i % 5 + 1, i)
    x, table = 0.0, {}
    for i in range(5000):
        key = (i % 31, i % 7)
        x = table.get(key, 0.5) * 0.999 + i * 1e-6
        table[key] = x
    seconds = time.perf_counter() - t
    if gc_was_on:
        gc.enable()
    return seconds


class SpeedSampler:
    """Runs `probe` every PROBE_EVERY_S while started, in the middle of whatever runs.

    A SIGALRM handler runs the probe on the main thread between two bytecodes,
    so it times the CPU the measured code runs on, at the time it runs.
    """

    def __init__(self):
        self.probes = []  # (perf_counter at its end, seconds), in order
        self.clock = 0.0  # seconds spent in probes so far

    def _probe(self) -> None:
        seconds = probe()
        self.probes.append((time.perf_counter(), seconds))
        self.clock += seconds

    def _on_timer(self, signum, frame) -> None:
        # a probe next to the program's own threads would time their contention
        # for the interpreter lock, not the machine
        if threading.active_count() == 1:
            self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)  # re-armed here, so never nested

    def start(self) -> None:
        self._probe()  # so that even a short stretch has one
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # first: a late handler re-arms
        signal.setitimer(signal.ITIMER_REAL, 0)


def speed(probes) -> float:
    """Reference-speed seconds per measured second, from `probes`."""
    return PROBE_REF_S / statistics.median(seconds for _, seconds in probes)


def at_reference(rounds, probes):
    """[(wall, latencies)] of untraced rounds at reference speed.

    Each latency is scaled by the probes that ran inside the operation and the
    last one before it and the first one after it; the wall is their sum.
    """
    ends = [end for end, _ in probes]
    out = []
    for _, records in rounds:
        latencies = []
        for latency, ok, _, t0, t1 in records:
            first, last = bisect.bisect_left(ends, t0), bisect.bisect_right(ends, t1)
            latencies.append((latency * speed(probes[max(0, first - 1):last + 1]), ok))
        out.append((sum(lat for lat, _ in latencies), latencies))
    return out


# ---------------------------------------------------------------------------
# set-up


def import_package(sampler: SpeedSampler) -> float:
    """Import etclosure from this checkout's src/; return the time it took (ms), probes left out."""
    sys.path.insert(0, SRC)
    probed = sampler.clock
    t = time.perf_counter()
    import etclosure.cli

    import_ms = 1e3 * (time.perf_counter() - t - (sampler.clock - probed))
    if not os.path.abspath(etclosure.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"etclosure imported from {etclosure.cli.__file__}, not from {SRC}")
    return import_ms


def set_up(workload: str, seed: int):
    """(ops, setup_s at reference speed, import_ms as measured), probes left out."""
    sampler = SpeedSampler()
    sampler.start()
    try:
        import_ms = import_package(sampler)
        import workloads

        ops, warm = workloads.WORKLOADS[workload](seed)
        for call in warm:
            call()
        setup_s = time.perf_counter() - T_START - sampler.clock
    finally:
        sampler.stop()
    return ops, setup_s * speed(sampler.probes), import_ms


def child_setup(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["import_ms"]


# ---------------------------------------------------------------------------
# rounds


def run_round(ops, sampler, first=None, tracer=None):
    """Run every op once; return (wall s, [(latency s, ok, output, start, end)]).

    A latency leaves out the probes that ran inside it, and the wall is the
    sum of the latencies. After the first round an output is kept only as
    whether it equals the first round's, so memory does not grow with the
    number of rounds.
    """
    records = []
    for i, op in enumerate(ops):
        span = tracer.open(f"op.{op.kind}") if tracer else None
        probed = sampler.clock
        t = time.perf_counter()
        try:
            out, ok = op.call(), True
        except Exception:  # a failed operation is counted, and the run goes on
            out, ok = traceback.format_exc(), False
        end = time.perf_counter()
        latency = end - t - (sampler.clock - probed)
        if span:
            tracer.close(span)
        if first is not None and ok:
            out = first[i][1] and out == first[i][2]
        records.append((latency, ok, out, t, end))
    return sum(rec[0] for rec in records), records


def run_rounds(ops, seconds: float, sampler, tracer=None, first=None):
    """Whole rounds, at least one, while another round still fits in `seconds`."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(ops, sampler, first, tracer))
        first = first or rounds[0][1]
        if time.perf_counter() - t0 + rounds[-1][0] > seconds:
            return rounds


def check(ops, first, later):
    """(errors, relative errors, failed) over the first round's outputs and the rest."""
    errors, rels, failed = [], [], 0
    for i, op in enumerate(ops):
        for rec in [first[i]] + [recs[i] for recs in later]:
            if not rec[1]:
                failed += 1
                print(f"{op.label} raised\n{rec[2]}", file=sys.stderr)
        if not first[i][1]:
            continue
        try:
            problems, rel = op.check(first[i][2])
        except Exception:  # a malformed output is a wrong output
            problems, rel = [f"checker raised\n{traceback.format_exc()}"], None
        if any(recs[i][1] and not recs[i][2] for recs in later):
            problems.append("output changed between rounds")
        errors += [f"{op.label}: {p}" for p in problems]
        if rel is not None:
            rels.append(rel)
    return errors, rels, failed


def digits(rel) -> float:
    """-log10 of a relative error, capped at 16 (an exact match reads 16)."""
    return 16.0 if not rel else min(16.0, -math.log10(rel))


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_s, rounds, peak_rss_mb, accuracy):
    """`rounds` at reference speed, as at_reference gives them."""
    latencies = [1e3 * lat for _, lats in rounds for lat, ok in lats if ok]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for wall, _ in rounds),
        "op_p50_ms": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
        "accuracy_digits": accuracy,
    }


def per_layer(tracer, n_rounds, untraced_wall, traced_walls, import_ms):
    from etclosure import tensors

    self_ns = tracer.self_times()
    durations, self_total = {}, {}
    for span in tracer.spans:
        durations.setdefault(span.name, []).append(span.end - span.start)
        self_total[span.name] = self_total.get(span.name, 0) + self_ns[span.id]

    def median_ms(name):
        vals = durations.get(name)
        return statistics.median(vals) / 1e6 if vals else 0.0

    def self_ms(prefix):
        return sum(v for k, v in self_total.items() if k.startswith(prefix)) / 1e6 / n_rounds

    out = {f"cli.{c}.ms": median_ms(f"cli.{c}") for c in CLI_COMMANDS}
    out["cli.self_ms"] = self_ms("cli.")
    out.update({f"verify.{s}.ms": median_ms(f"verify.{s}") for s in VERIFY_SUITES})
    suite_ns = sum(sum(durations.get(f"verify.{s}", ())) for s in VERIFY_SUITES)
    verify_ns = sum(durations.get("cli.verify", ()))
    out["verify.pool_busy_ratio"] = suite_ns / verify_ns if verify_ns else 0.0
    for metric, name, stat in SPAN_METRICS:
        if stat == "calls":
            out[metric] = len(durations.get(name, ())) / n_rounds
        else:
            out[metric] = self_total.get(name, 0) / 1e6 / n_rounds
    out.update({k: v / n_rounds for k, v in tracer.counts().items()})
    out["tensors.gmu_structure.misses"] = tensors._gmu_structure.cache_info().misses
    out["oracle.self_ms"] = self_ms("oracle.")
    out["setup.import_ms"] = import_ms
    out["trace.overhead_ratio"] = statistics.median(traced_walls) / untraced_wall
    return out


def emit(result):
    for name, value in result["metrics"].items():
        print(f"{name:48s} {value['value']:>16.6g} {value['unit']}")
    print(f"{'attempted':48s} {result['attempted']:>16d}")
    print(f"{'failed':48s} {result['failed']:>16d}")
    print(f"{'correct':48s} {str(result['correct']):>16s}")
    print(json.dumps(result))


def result_doc(correct, attempted, failed, metrics, units):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


# ---------------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    ops, setup_main, import_main = set_up(args.workload, args.seed)
    samples = [(setup_main, import_main)]
    samples += [child_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(s for s, _ in samples)
    import_ms = statistics.median(i for _, i in samples)

    sampler = SpeedSampler()
    sampler.start()
    try:
        untraced = run_rounds(ops, args.seconds / 2 if args.trace else args.seconds, sampler)
    finally:
        sampler.stop()
    first = untraced[0][1]
    if not args.trace:
        rounds = untraced
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(ops, args.seconds / 2, sampler, tracer, first)
        finally:
            tracer.uninstall()
        rounds = untraced + rounds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("set-ups (s, at reference speed): " + " ".join(f"{s:.3f}" for s, _ in samples),
          file=sys.stderr)
    print("round walls (s, as measured): " + " ".join(f"{wall:.3f}" for wall, _ in rounds),
          file=sys.stderr)
    print(f"untraced rounds: {len(sampler.probes)} probes, "
          f"median speed factor {speed(sampler.probes):.4f}", file=sys.stderr)

    later = [recs for _, recs in rounds[1:]]
    errors, rels, failed = check(ops, first, later)
    attempted = len(ops) * (1 + len(later))
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    if args.trace:
        traced = rounds[len(untraced):]
        metrics = per_layer(tracer, len(traced), statistics.median(w for w, _ in untraced),
                            [w for w, _ in traced], import_ms)
        units = per_layer_names()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write_jsonl(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.jsonl"))
    else:
        aggregate = statistics.median if args.workload in MEDIAN_ACCURACY else max
        metrics = end_to_end(setup_s, at_reference(rounds, sampler.probes), peak_rss_mb,
                             digits(aggregate(rels)) if rels else 16.0)
        units = END_TO_END
    emit(result_doc(not errors, attempted, failed, metrics, units))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print {setup_s, import_ms} and exit")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _, setup_s, import_ms = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "import_ms": import_ms}))
        return 0
    return run_one(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: cannot import etclosure from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
