"""One benchmark sample in a fresh interpreter.

    python3 bench/sample.py --workload hall --seed 0 --trace 0

Imports balmat from `src/`, builds the workload's inputs, runs the timed
region once, checks every item and prints one JSON line: set-up time
(interpreter start, `import balmat` and input generation), per-item times,
per-item verdicts and output hashes, peak RSS and, with `--trace 1`, the
per-layer counts and self times.  The module-global `psi` memo makes a
second run in the same process a different program, so `run.py` starts a
new interpreter for every sample.

Times are CPU time scaled by the host's speed, which a
`reference.Gauge` measures all through the timed region; set-up time is
scaled by the speed measured just after it.  The unscaled CPU and
wall-clock times of the timed region are printed as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import reference
    import tracing
    import workloads  # imports balmat, which set-up time covers

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    items = workloads.build(args.workload, args.seed)
    ready = time.thread_time()

    gauge = reference.Gauge()
    clock = gauge.work_clock
    tracer = tracing.Tracer(clock)
    if args.trace:
        tracer.install()
    results = []
    spans = []  # (start, end) of each item on the work clock
    wall = 0.0  # wall-clock time of the items, less the slices run inside them
    gauge.start()
    tracer.active = bool(args.trace)
    for item in items:
        w0, spent0 = time.perf_counter(), gauge.spent
        t0 = clock()
        try:
            results.append((True, item.run()))
        except Exception:
            results.append((False, traceback.format_exc()))
        spans.append((t0, clock()))
        wall += time.perf_counter() - w0 - (gauge.spent - spent0)
    tracer.active = False
    gauge.stop()
    item_s = [gauge.scaled(a, b) for a, b in spans]
    cpu = sum(b - a for a, b in spans)
    scale = sum(item_s) / cpu if cpu > 0 else gauge.speed(0)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = []
    hashes = []
    for item, (ran, result) in zip(items, results):
        if ran:
            try:
                ok, out = item.check(result)
            except Exception:
                ok, out = False, traceback.format_exc()
        else:
            ok, out = False, result
        if not ok:
            print(f"{args.workload} item {len(verdicts)} ({item.kind}) failed: {out}",
                  file=sys.stderr)
        verdicts.append(bool(ok))
        hashes.append(hashlib.sha256(out.encode()).hexdigest()[:16])

    print(json.dumps({
        "setup_s": ready * gauge.speed(0),
        "item_s": item_s,
        "scale": scale,
        "cpu_s": cpu,
        "wall_s": wall,
        "kinds": [item.kind for item in items],
        "ok": verdicts,
        "hashes": hashes,
        "digest": hashlib.sha256("\n".join(hashes).encode()).hexdigest()[:16],
        "rss_mib": rss_mib,
        "layers": {k: v * scale if k.endswith("_s") else v
                   for k, v in tracer.report().items()},
        "missing": tracer.missing,
    }))


if __name__ == "__main__":
    main()
