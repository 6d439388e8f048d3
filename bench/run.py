"""balmat benchmark: seeded workloads, each sample in a fresh interpreter.

    python3 bench/run.py --workload hall --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from any directory; balmat is imported from `src/` next to this
directory.  One process starts one sample at a time (`sample.py`) and waits
for it, until `--seconds` have passed and at least three samples (two per
kind when tracing) have run.  Every sample of a run gets the same inputs,
so every item must give the same output in each; an item fails if it
raised, broke its claim or oracle, or changed its output.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics.  Times are CPU time scaled by the host's measured speed
(see `sample.py`).  `wall_s` is the timed region's time summed from each
item's median over the samples; the item percentiles are taken over those
per-item medians; set-up time and peak RSS are medians over the samples.
With `--trace 1` untraced and traced samples alternate, and the JSON holds
the per-layer metrics (medians over traced samples) plus
`trace.overhead_s`, traced minus untraced wall_s.  Lines before it are for
people: they add the unscaled times and the same-seed repeat spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (stdlib-only; does not import balmat)

WORKLOADS = ["hall", "game", "search", "homology-nonzero"]
MIN_ROUNDS = {0: 3, 1: 2}
SAMPLE_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)

END_TO_END = [("wall_s", "s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB")]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for _, _, layer in tracing.LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        for stat in tracing.EXTRAS.get(layer, ((), None))[0]:
            out.append((f"{layer}.{stat}", "s" if stat.endswith("_s") else "count"))
    return out + [("trace.overhead_s", "s"), ("trace.wall_s", "s"),
                  ("trace.missing_layers", "count")]


class SampleError(RuntimeError):
    pass


def run_sample(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SampleError(f"{workload} sample exceeded {SAMPLE_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SampleError(f"{workload} sample exited with code {proc.returncode}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["trace"] = trace
    return sample


def tail_percentile(n):
    """Highest listed percentile with at least ten of n items beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, -(-len(ordered) * p // 100) - 1)
    return ordered[int(k)]


def measure(workload, seed, seconds, trace):
    kinds = [0, 1] if trace else [0]
    samples = []
    start = time.monotonic()
    while True:
        for kind in kinds:
            samples.append(run_sample(workload, seed, kind))
        rounds = len(samples) // len(kinds)
        elapsed = time.monotonic() - start
        if rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > seconds:
            return samples


def failures(samples):
    """Per sample, items that failed a check or differ from the first sample."""
    reference = samples[0]["hashes"]
    attempted = failed = 0
    for s in samples:
        if len(s["hashes"]) != len(reference):
            raise SampleError("samples of one seed ran different item counts")
        for ok, h, ref in zip(s["ok"], s["hashes"], reference):
            attempted += 1
            failed += (not ok) or h != ref
    return attempted, failed


def item_medians(samples):
    """Each item's median time over the samples.  Slow phases of a shared
    machine last seconds and hit different items in different samples, so
    per-item medians are steadier than the median of whole-sample times."""
    return [statistics.median(times) for times in zip(*(s["item_s"] for s in samples))]


def spread(values):
    """Interquartile range over the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(samples):
    items = item_medians(samples)
    p = tail_percentile(len(items))
    values = {
        "wall_s": sum(items),
        "item_p50_ms": percentile(items, 50) * 1e3,
        "item_tail_ms": percentile(items, p) * 1e3,
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mib"] for s in samples),
    }
    return values, p, len(items)


def layer_values(samples):
    plain = [s for s in samples if not s["trace"]]
    traced = [s for s in samples if s["trace"]]
    med = statistics.median
    values = {}
    for name, _ in per_layer_metrics():
        if not name.startswith("trace."):
            values[name] = med(s["layers"].get(name, 0) for s in traced)
    traced_wall = sum(item_medians(traced))
    values["trace.overhead_s"] = traced_wall - sum(item_medians(plain))
    values["trace.wall_s"] = traced_wall
    values["trace.missing_layers"] = len(traced[0]["missing"])
    return values, traced[0]["missing"]


def report(workload, seed, seconds, trace):
    samples = measure(workload, seed, seconds, trace)
    attempted, failed = failures(samples)
    e2e, p, n = end_to_end([s for s in samples if not s["trace"]])
    print(f"{workload} seed {seed}: {len(samples)} samples of {n} items, "
          f"digest {samples[0]['digest']}")
    for name, unit in END_TO_END:
        extra = f"  (p{p:g}, {n} items per sample)" if name == "item_tail_ms" else ""
        print(f"  {name:<14} {e2e[name]:12.6g} {unit}{extra}")
    print(f"  {'failed_frac':<14} {failed / attempted:12.6g} ratio  ({failed} of {attempted})")
    plain = [s for s in samples if not s["trace"]]
    med = statistics.median
    print(f"  unscaled timed region: CPU {med(s['cpu_s'] for s in plain):.4g} s, "
          f"wall clock {med(s['wall_s'] for s in plain):.4g} s; "
          f"host speed scale {med(s['scale'] for s in plain):.3f}")
    print(f"  same-seed repeat spread (IQR/median over {len(plain)} samples): "
          f"scaled {spread(sum(s['item_s']) for s in plain):.3f}, "
          f"CPU {spread(s['cpu_s'] for s in plain):.3f}, "
          f"wall clock {spread(s['wall_s'] for s in plain):.3f}")
    if trace:
        values, missing = layer_values(samples)
        wall = values["trace.wall_s"]
        for name, unit in per_layer_metrics():
            share = f"  {100 * values[name] / wall:5.1f} % of traced wall_s" \
                if name.endswith(".self_s") and wall > 0 else ""
            print(f"  {name:<44} {values[name]:12.6g} {unit}{share}")
        if missing:
            print(f"  missing layers: {', '.join(missing)}")
        units = dict(per_layer_metrics())
    else:
        values, units = e2e, dict(END_TO_END)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "balmat" / "__init__.py").is_file():
        print(f"balmat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            results = [report(w, args.seed, args.seconds, args.trace) for w in WORKLOADS]
            result = {"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": {f"{w}.{k}": v for w, r in zip(WORKLOADS, results)
                                  for k, v in r["metrics"].items()}}
        else:
            result = report(args.workload, args.seed, args.seconds, args.trace)
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
