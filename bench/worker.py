"""One benchmark process: set-up, then an optional measured loop.

Run by `run.py` in a fresh interpreter so that the library's caches start
cold, as they do for a user:

    python3 bench/worker.py MODE WORKLOAD SEED ARG

MODE is `setup` (set-up only), `timed` (run operations until ARG reference
seconds have passed), `fixed` (run ARG blocks) or `traced` (run ARG blocks with
spans recorded). The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the path set-up above)
from calibrate import REFERENCE_NS, Clock, kernel, kernel_ns  # noqa: E402

MAX_FAILURES_SHOWN = 5


def setup(workload, seed):
    """Import the library from this checkout and generate the first block.

    Returns the set-up time in reference seconds, calibrated before and after.
    """
    kernel()
    before = kernel_ns()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    lib = workloads.load_library()
    first = workloads.block(lib, workload, seed, 0)
    setup_s = (time.perf_counter() - t0) * REFERENCE_NS * 2 / (before + kernel_ns())
    origin = Path(lib.package.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"bidiforms was imported from {origin}, not from {ROOT / 'src'}")
    return lib, first, setup_s


class Loop:
    """Runs blocks of operations and records per-operation results.

    A record is (block, kind, size, wall ns, reference ns, ok); reference
    time is wall time scaled by the calibration marks around the operation.
    Blocks after the first are generated between operations, untimed.
    """

    def __init__(self, lib, workload, seed, first, tracer=None):
        self.lib, self.workload, self.seed = lib, workload, seed
        self.first = first
        self.tracer = tracer
        self.clock = Clock()
        self.raw = []  # (block, kind, size, ns, ok, index of the mark before)
        self.failures = []

    def blocks(self):
        yield 0, self.first
        b = 1
        while True:
            yield b, workloads.block(self.lib, self.workload, self.seed, b)
            b += 1

    def run_op(self, b, op):
        tracer = self.tracer
        error = None
        t0 = time.perf_counter_ns()
        sid = tracer.open(0) if tracer is not None else None
        try:
            out = op.run(self.lib)
        except Exception as exc:  # every library exception is a failed operation
            error = exc
        finally:
            if sid is not None:
                tracer.close(sid)
        ns = time.perf_counter_ns() - t0
        if error is None:
            try:
                op.check(out)
            except Exception as exc:  # a failed check, or a malformed output
                error = exc
        self.raw.append((b, op.kind, op.size, ns, error is None, len(self.clock.marks) - 1))
        if error is not None and len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(f"block {b} {op.kind} size {op.size}: {type(error).__name__}: {error}")
        if self.clock.due():
            self.clock.mark()

    def timed(self, seconds):
        """Run until `seconds` reference seconds have passed; returns the last block index."""
        for b, ops in self.blocks():
            for op in ops:
                self.run_op(b, op)
                if self.clock.reference_s >= seconds:
                    return b

    def fixed(self, nblocks):
        """Run blocks 0 .. nblocks - 1; returns nblocks."""
        for b, ops in self.blocks():
            if b == nblocks:
                return b
            for op in ops:
                self.run_op(b, op)

    def records(self):
        if self.raw[-1][5] == len(self.clock.marks) - 1:
            self.clock.mark()
        scale = self.clock.scale
        return [(b, kind, size, ns, ns * scale(i), ok) for b, kind, size, ns, ok, i in self.raw]


def main(argv):
    mode, workload, seed, arg = argv[1], argv[2], int(argv[3]), argv[4]
    lib, first, setup_s = setup(workload, seed)
    result = {"setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        loop = Loop(lib, workload, seed, first, tracer)
        if mode == "timed":
            result["last_block"] = loop.timed(float(arg))
        else:
            result["last_block"] = loop.fixed(int(arg))
        records = loop.records()
        result["records"] = records
        result["failures"] = loop.failures
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            analyze_info = lib.qform.analyze.cache_info()
            tracer.uninstall()
            # self times in reference seconds, like the operation times
            scale = sum(r[4] for r in records) / sum(r[3] for r in records)
            result["layers"] = tracer.metrics(scale, analyze_info)
            out_dir = ROOT / ".bench_traces"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"{workload}-seed{seed}.spans.tsv.gz")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    os._exit(0)  # skip interpreter teardown of large caches


if __name__ == "__main__":
    main(sys.argv)
