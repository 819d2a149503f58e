"""Benchmark of gcnmt: training, greedy and beam translation, preprocessing.

Run from the repository root:

    python3 perfbench/run.py --workload train-gcn --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One run sets the program up SETUP_REPEATS times, then repeats units of
work for ``--seconds`` and checks the outputs. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json: the median unit
throughput, the median set-up time and the process's peak RSS. With
``--trace 1`` it alternates untraced and traced units and reports the
per-layer metrics from the traced ones, plus the tracing overhead (traced
minus untraced end-to-end value). The last line of standard output is
the result object; the line before it holds the run's record (machine,
inputs, per-unit values, loss trajectory, absent wrap targets, failures).

``--workload all`` runs every workload in its own process and prints each
metric with its unit.
"""

from __future__ import annotations

import os

# BLAS may use one thread and nothing else may start threads; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_program():
    """Import the program from ``src/`` of this checkout; exit non-zero if it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gcnmt", "__init__.py")):
        sys.exit(f"perfbench: no program at {src}/gcnmt")
    sys.path.insert(0, src)
    import layertrace
    import workloads
    return workloads, layertrace


def machine() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


class Calibration:
    """Scales measured times to a reference machine speed.

    Shared vCPUs change speed by up to 1.6x for minutes at a time, for
    interpreter and BLAS code alike, which no number of units in one run
    averages out. So every timed section is bracketed by a fixed kernel of
    equal parts interpreter work (building and sorting tuples, as beam
    search does), BLAS (matmul and tanh into preallocated arrays) and
    memory streaming (in-place adds over 16 MB), best of two, and the
    section's seconds are multiplied by ``REFERENCE_S`` over the mean
    kernel time around it: times are reported at the speed at which the
    kernel takes ``REFERENCE_S``. The raw values are kept in the run's
    record.
    """

    REFERENCE_S = 0.030

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.linspace(-1.0, 1.0, 256 * 512).reshape(256, 512)
        self.b = np.linspace(1.0, -1.0, 512 * 512).reshape(512, 512) / 512
        self.h = (np.empty_like(self.a), np.empty_like(self.a))  # matmul outputs
        self.big = np.zeros(2_000_000)
        self.samples = []
        # Resident from the first kernel run, before any set-up, to the end.
        arrays = (self.a, self.b, *self.h, self.big)
        self.resident_mb = sum(x.nbytes for x in arrays) / 2**20

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        cands = [(float(k % 97) * 0.5, k) for k in range(18000)]
        cands.sort(key=lambda c: (-c[0], c[1]))
        h = self.a
        for k in range(3):
            out = self.h[k % 2]
            h = self.np.tanh(self.np.matmul(h, self.b, out=out), out=out)
        for _ in range(6):
            self.big += 1.0
        return time.perf_counter() - t0

    def kernel_s(self) -> float:
        """Kernel seconds now, best of two."""
        best = min(self._kernel() for _ in range(2))
        self.samples.append(best)
        return best

    def timed(self, fn, *args):
        """``fn(*args)``, its raw seconds and its seconds at reference speed.

        ``fn`` returns (result, seconds); the kernel runs after it, and its
        previous sample is the one before it.
        """
        before = self.samples[-1] if self.samples else self.kernel_s()
        result, seconds = fn(*args)
        after = self.kernel_s()
        return result, seconds, seconds * self.REFERENCE_S * 2 / (before + after)


def peak_rss_mb(cal: Calibration) -> float:
    """The process's peak RSS less the calibration arrays, which it held throughout."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - cal.resident_mb


def measure(workload_cls, seed: int, seconds: float, traced: bool, workloads, trace):
    """Set up, run units for ``seconds``, check; returns (result, record)."""
    ops = workloads.Ops()
    cal = Calibration()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    tracer = trace.Tracer()
    try:
        workload = workload_cls(seed, workdir)
        setup_raw, setup_times = [], []
        for _ in range(workloads.SETUP_REPEATS):
            state = done = None  # one set-up's state at a time, as in one program run
            done = ops.run("setup", cal.timed, workload.setup)
            if done is not None:
                state, raw, scaled = done
                setup_raw.append(raw)
                setup_times.append(scaled)
        if not setup_times:
            return None, {"failures": ops.failures}
        workload.check_setup(state, ops)

        def unit():
            work, secs, outputs = workload.unit(state)
            return (work, outputs), secs

        setup_snap, memory_snap, traced_setup = {}, {}, None
        if traced:
            with tracer.installed():
                done = ops.run("traced setup", cal.timed, workload.setup)
            if done is not None:
                traced_setup = done[2]
            setup_snap = tracer.snapshot()
            if workload.uses_tape:
                tracer.memory = True
                tracer.reset()
                with tracer.installed():
                    ops.run("memory probe", unit)
                memory_snap = tracer.snapshot()
                tracer.memory = False

        # The warm-up unit pays for first-touch memory and fills caches; its
        # outputs are the reference the timed units must reproduce.
        done = ops.run("warm-up", unit)
        first = done[0][1] if done is not None else None

        values = {False: [], True: []}
        raw_values, snaps, spans, durations = [], [], [], []
        cal.kernel_s()
        start = time.perf_counter()
        while True:
            traced_unit = traced and len(durations) % 2 == 1
            tracer.reset()
            t0 = time.perf_counter()
            if traced_unit:
                with tracer.installed():
                    done = ops.run(workload.name, cal.timed, unit)
                snaps.append(tracer.snapshot())
                spans = tracer.spans
            else:
                done = ops.run(workload.name, cal.timed, unit)
            durations.append(time.perf_counter() - t0)
            if done is not None:
                (work, outputs), raw, scaled = done
                values[traced_unit].append(work / scaled)
                if not traced_unit:
                    raw_values.append(work / raw)
                if first is None:
                    first = outputs
                else:
                    ops.check("same outputs as the first unit", workload.same,
                              outputs, first)
            # Hold only the reference outputs while the next unit runs, so
            # that peak RSS does not depend on how many units fit in a run.
            done = outputs = None
            elapsed = time.perf_counter() - start
            if elapsed + median(durations) > seconds and len(durations) >= 1 + traced:
                break
        if first is not None:
            workload.check_outputs(state, first, ops)

        record = {
            "workload": workload.name,
            "metric": workload.metric,
            "seed": seed,
            "seconds": seconds,
            "inputs": workload.record(state),
            "units": len(durations),
            "unit_values": values[False],
            "raw_unit_values": raw_values,
            "setup_times": setup_times,
            "raw_setup_times": setup_raw,
            "kernel_s": cal.samples,
            "calibration_mb": cal.resident_mb,
            "failures": ops.failures,
        }
        if workload.name == "train-gcn" and first is not None:
            record["loss_trajectory"] = first[0]
        result = {"attempted": ops.attempted, "failed": ops.failed}
        if traced:
            layer = trace.combine(setup_snap, snaps, memory_snap)
            untraced, traced_values = values[False], values[True]
            layer["trace_overhead.setup_s"] = (
                traced_setup - median(setup_times) if traced_setup is not None else 0.0)
            layer["trace_overhead.throughput"] = (
                median(traced_values) - median(untraced)
                if untraced and traced_values else 0.0)
            record.update(traced_unit_values=traced_values, layer=layer,
                          absent=sorted(tracer.absent),
                          spans_per_unit=len(spans),
                          span_parents=span_parents(spans))
            result["layer"] = layer
        elif values[False]:
            result["throughput"] = median(values[False])
            record[workload.metric] = result["throughput"]
            record["raw_" + workload.metric] = median(raw_values)
        result["setup_s"] = median(setup_times)
        result["peak_rss_mb"] = peak_rss_mb(cal)
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def span_parents(spans) -> dict:
    """Span name -> names of the spans that called it (the call structure)."""
    out = {}
    for name, _, _, parent in spans:
        out.setdefault(name, set()).add(spans[parent][0] if parent is not None else None)
    return {k: sorted(v, key=str) for k, v in sorted(out.items())}


def run_one(args, spec) -> int:
    workloads, trace = load_program()
    cls = workloads.WORKLOADS[args.workload]
    result, record = measure(cls, args.seed, args.seconds, bool(args.trace),
                             workloads, trace)
    record = dict(record, machine=machine())
    print(json.dumps(record, default=str))
    if result is None:
        print("perfbench: set-up failed: " + "; ".join(record["failures"]),
              file=sys.stderr)
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    source = result.get("layer", result)
    metrics, missing = {}, []
    for m in spec[section]:
        if m["name"] in source:
            metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
        elif args.trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}  # not exercised
        else:
            missing.append(m["name"])
    print(json.dumps({"correct": result["failed"] == 0 and not missing,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 1 if missing else 0


def run_all(args, spec) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            ok = False
            print(f"{w['name']}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            continue
        *_, record, last = done.stdout.strip().splitlines()
        res, named = json.loads(last), json.loads(record)["metric"]
        print(f"{w['name']}: attempted {res['attempted']}, failed {res['failed']}")
        for name, m in res["metrics"].items():
            label = f"{name} ({named})" if name == "throughput" else name
            print(f"  {label:44s} {m['value']:14.4f} {m['unit']}")
            combined["metrics"][f"{w['name']}/{name}"] = m
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None) -> int:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
