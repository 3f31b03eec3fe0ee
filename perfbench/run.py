"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload {train,infer} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``aulang`` from that
checkout's ``src/`` and writes only under ``.perfbench_work/`` there.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, and the
run's spans are written to ``.perfbench_work/traces/``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the checkout
holds no ``src/aulang`` to measure.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

# one BLAS thread: on two cores the beam-3 latency spread doubles with two
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _since_process_start() -> float:
    """Seconds from this process's start to now, at the kernel's clock-tick
    resolution; 0 where /proc cannot tell."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_STARTUP_S = _since_process_start()


def parse_args(argv):
    import argparse
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "infer"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aulang", "__init__.py")):
        print(f"no aulang sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import json
    import resource
    import shutil

    import aulang
    if os.path.dirname(os.path.dirname(os.path.abspath(aulang.__file__))) != SRC:
        print(f"imported aulang from {aulang.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import checks
    import workloads
    from probe import OTHER_UNITS, PER_LAYER, Probe
    from tracer import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed, tracer)
        wl.setup()
        setup_s = _STARTUP_S + time.perf_counter() - _T0

        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(wl.round())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = workloads.summarize(rounds)
        ops = [op for ops_of_round in rounds for op in ops_of_round]
        failed = sum(not op.ok for op in ops)
        for message in wl.errors:
            print(f"operation failed: {message}", file=sys.stderr)

        correct = True
        try:
            wl.check()
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)

        calls = ", ".join(f"{kind} x{n} p10 {summary['ms_p10'][kind]:.1f} ms "
                          f"p50 {summary['ms_p50'][kind]:.1f} ms"
                          for kind, n in summary["calls"].items())
        print(f"{args.workload} seed {args.seed}: set-up {setup_s:.2f} s; {calls}; "
              f"{summary['samples_per_s']:.2f} samples/s; peak RSS {peak_rss_mb:.1f} MB")
        if args.trace:
            metrics = Probe(tracer, wl, *wl.probe_inputs()).run()
            metrics["trace.samples_per_s"] = summary["samples_per_s"]
            metrics["data.synth_ms"] = tracer.durations_ms("data.synth")[0]
            metrics = {name: {"value": metrics[name], "unit": OTHER_UNITS.get(name, "ms")}
                       for name in PER_LAYER}
            os.makedirs(os.path.join(base, "traces"), exist_ok=True)
            trace_path = os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      **summary})
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "samples_per_s": {"value": summary["samples_per_s"], "unit": "samples/s"},
                "call_ms_p10": {"value": summary["ms_p10"][wl.primary], "unit": "ms"},
            }
        print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
