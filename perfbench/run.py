"""proctomo benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload pair_exact --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the last stdout line is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics from a
run whose ops alternate between traced and untraced. Human-readable lines
before it give every figure with its unit and sample count. Full results, and
spans in a traced run, go to `.perfbench_out/` in the checkout.

The BLAS pool is capped at the number of CPUs this process may run on. No
machine setting is touched: no cache dropping, CPU pinning or frequency
control.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("pair_exact", "qudit_shots", "pair_functionals")
# Set-up runs at least MIN_SETUP_REPS times, and more while the repetitions
# so far took under SETUP_BUDGET_S of wall time, so that a set-up of a few
# tens of milliseconds still gives a steady median.
MIN_SETUP_REPS, MAX_SETUP_REPS, SETUP_BUDGET_S = 5, 80, 8.0
# The files the serialize layer encodes; cli.py writes the other JSON files.
SERIALIZE_FILES = ("family.jsonl", "records.json", "records.csv")
COMPUTED = ("process_sim.born_evals", "probe_factory.dense_mb", "tomography.frame_flops")


def load_metrics():
    """End-to-end and per-layer metric names with their units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cap_blas_threads():
    """Cap the BLAS pool at this process's CPU count; call before importing numpy."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    # the package's Born-rule thread pool stays at its single-thread default
    os.environ.pop("PROCTOMO_THREADS", None)


def tail(values):
    """(percentile, value) of the highest order statistic with at least ten
    samples beyond it, or None for ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def git_commit(root: Path):
    """Commit of the checkout, read from .git without running git; None
    outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(np) -> dict:
    """What the result was measured on, recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "proctomo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(ROOT) or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine_settings": "none changed: no cache dropping, CPU pinning or "
                            "frequency control",
    }


def figure(values, unit, scale=1.0):
    """Median of `values` times `scale`, with its unit, sample count and, for
    more than ten samples, the tail percentile."""
    fig = {"value": statistics.median(values) * scale, "unit": unit, "n": len(values)}
    top = tail(values)
    if top:
        pct, v = top
        fig["tail"] = f"p{pct:.3g}={v * scale:.6g}"
    return fig


def figure_of(groups, key, unit, scale=1.0):
    """`figure` of `key` over the first group of records that has it: ops
    first, then set-up repetitions."""
    for group in groups:
        values = [r[key] for r in group if key in r]
        if values:
            return figure(values, unit, scale)
    return None


def measure(args, wl, tracer):
    """Set-up repetitions, then closed-loop ops for `args.seconds`."""
    def traced(unit, on):
        return tracer.installed(unit) if on else contextlib.nullcontext()

    setup_s, setup_figs = [], []
    start = time.perf_counter()
    while len(setup_s) < MIN_SETUP_REPS or (time.perf_counter() - start < SETUP_BUDGET_S
                                            and len(setup_s) < MAX_SETUP_REPS):
        rep = len(setup_s)
        with traced(f"setup{rep}", tracer is not None):
            figs = wl.setup(rep)
        setup_s.append(figs.pop("setup_s"))
        setup_figs.append(figs)
    wl.prepare_checks()

    ops, problems = [], []
    # at least one op, and in a traced run at least one traced op
    min_ops = 2 if tracer is not None else 1
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or i < min_ops:
        on = tracer is not None and i % 2 == 1
        record = {"unit": i, "traced": on}
        try:
            with traced(i, on):
                t0 = time.perf_counter()
                record.update(wl.op(i))
                record["wall_s"] = time.perf_counter() - t0
            found, figs = wl.check(i)
            record.update(figs)
        except Exception:  # an op that raises counts as failed; keep measuring
            found = [traceback.format_exc()]
        record["ok"] = not found
        if found and len(problems) < 5:
            problems.append(f"op {i}: {'; '.join(found)}")
        ops.append(record)
        i += 1
    for r in ops + setup_figs:
        if "artifact_bytes" in r:
            r["artifact_total"] = sum(r["artifact_bytes"].values())
            r["serialize_bytes"] = sum(r["artifact_bytes"][n] for n in SERIALIZE_FILES)
    return setup_s, setup_figs, ops, problems


def summarise(args, setup_s, setup_figs, ops, tracer, per_layer) -> dict:
    """Every figure of the run by name: end to end, and per layer when traced."""
    groups = (ops, setup_figs)
    untraced = [r for r in ops if "wall_s" in r and not r["traced"]]
    failed = sum(not r["ok"] for r in ops)
    figures = {
        "op_ms": figure_of((untraced,), "wall_s", "ms", 1e3),
        "setup_s": figure(setup_s, "s"),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "unit": "MB", "n": 1},
        "simulate_s": figure_of(groups, "simulate_s", "s"),
        "reconstruct_s": figure_of(groups, "reconstruct_s", "s"),
        "artifact_mb": figure_of(groups, "artifact_total", "MB", 1e-6),
        "recon_error": figure_of(groups, "recon_error", "frobenius"),
        "functional_error": figure_of(groups, "functional_error", "abs"),
        "functional_z": figure_of(groups, "functional_z", "sigma"),
        "error_rate": {"value": failed / len(ops), "unit": "ratio", "n": len(ops)},
    }
    if args.workload == "pair_functionals" and untraced:
        walls = [r["wall_s"] for r in untraced]
        figures["functionals_per_s"] = {"value": len(walls) / sum(walls), "unit": "1/s",
                                        "n": len(walls)}
    if tracer is None:
        return figures

    units = tracer.figures_by_unit()
    traced = [r for r in ops if r["traced"] and "wall_s" in r]
    layer_groups = ([units.get(r["unit"], {}) for r in traced],
                    [units.get(f"setup{k}", {}) for k in range(len(setup_s))])
    for name in list(per_layer) + ["tomography.estimate_functional_s"]:
        figures[name] = figure_of(layer_groups, name, per_layer.get(name, "s"))
    figures["serialize.bytes_written"] = figure_of(groups, "serialize_bytes", "bytes")
    # Ops alternate untraced (even) and traced (odd); pairing neighbours keeps
    # slow drift in machine speed out of the difference.
    pairs = [(u["wall_s"], t["wall_s"]) for u, t in zip(ops[0::2], ops[1::2])
             if "wall_s" in u and "wall_s" in t]
    if pairs:
        figures["trace.overhead_ms"] = figure([t - u for u, t in pairs], "ms", 1e3)
    coverage = [units[r["unit"]]["top_s"] / r["wall_s"] for r in traced if r["unit"] in units]
    if coverage:
        figures["trace.coverage"] = figure(coverage, "ratio")
    return figures


def report(result, reported):
    """Print every figure with its unit, then the JSON result line."""
    figures = result["figures"]
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, fig in figures.items():
        line = f"  {name:34s} {fig['value']:<14.6g} {fig['unit']:9s} n={fig['n']}"
        if "tail" in fig:
            line += "  " + fig["tail"]
        if name in COMPUTED:
            line += "  (computed)"
        print(line)
    print("  artifact bytes " + json.dumps(result["artifact_bytes"]))
    print("  env " + json.dumps(result["env"]))
    for p in result["problems"]:
        print("  problem: " + p.strip().replace("\n", "\n    "))
    metrics = {}
    for name, unit in reported.items():
        if name not in figures:
            raise RuntimeError(f"metric {name} was not measured")
        metrics[name] = {"value": figures[name]["value"], "unit": unit}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cap_blas_threads()
    end_to_end, per_layer = load_metrics()
    src = ROOT / "src"
    if not (src / "proctomo" / "__init__.py").is_file():
        print(f"perfbench: no proctomo sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import proctomo
    if Path(proctomo.__file__).resolve().parent != (src / "proctomo").resolve():
        print(f"perfbench: imported proctomo from {proctomo.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    tracer = tracing.Tracer(proctomo) if args.trace else None
    try:
        setup_s, setup_figs, ops, problems = measure(
            args, workloads.make(args.workload, args.seed, str(work)), tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    figures = summarise(args, setup_s, setup_figs, ops, tracer, per_layer)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(np),
              "attempted": len(ops), "failed": sum(not r["ok"] for r in ops),
              "problems": problems,
              "figures": {k: v for k, v in figures.items() if v is not None},
              "artifact_bytes": next((r["artifact_bytes"] for r in ops + setup_figs
                                      if "artifact_bytes" in r), {}),
              "setup_s": setup_s, "op_wall_s": [r.get("wall_s") for r in ops]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
        result["spans_file"] = f".perfbench_out/spans-{stem}.jsonl"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result, per_layer if args.trace else end_to_end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
