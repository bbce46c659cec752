#!/usr/bin/env python3
"""The mvtc benchmark: one workload per process, closed loop, BLAS on 1 thread.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload anchor-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A named workload runs in this process.  It pins the BLAS pools to one
thread before numpy is imported, generates its inputs from ``--seed``,
runs one warm-up operation and then operations back to back through the
public API (``mvtc.data.load_dataset`` for the on-disk workload, then
``mvtc.pipeline.run_pipeline`` with a JSON report written) until the next
one would end after ``--seconds``.  It checks every operation's output,
writes everything it measured to ``perfbench/results/`` and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer ones with ``--trace 1`` (spans from perfbench/spans.py).

``--workload all`` runs every workload twice, untraced and traced, each in
its own process, and prints the end-to-end table, the per-module table,
the tracing overhead and the design checks.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # stands in for process start in setup_s

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"

# Each run prepares this many inputs from its seed (generation, plus the CSV
# write on the disk workload) and cycles over them, so one run's figures
# average over several draws of the data.  setup_s counts the median
# preparation once, as if the run had set up a single input.
INPUTS_PER_RUN = 3
CHILD_TIMEOUT_S = 175


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def result_path(workload: str, seed: int, trace: int, tiny: bool) -> Path:
    """Where a run writes everything it measured (spans included when traced)."""
    return RESULTS / f"{workload}{'-tiny' if tiny else ''}-seed{seed}-trace{trace}.json"


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value): the highest percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def import_mvtc():
    """Import mvtc from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import mvtc

    where = Path(mvtc.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"mvtc imported from {where}, not from {ROOT / 'src'}")


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, warm up and time one workload; return everything measured."""
    from mvtc.data import load_dataset, save_dataset
    from mvtc.pipeline import run_pipeline

    import checks
    import machine
    import spans as sp

    tracer = sp.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())

    seeds = [seed * INPUTS_PER_RUN + j for j in range(INPUTS_PER_RUN)]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        prep_s, sources = [], []
        for j, s in enumerate(seeds):
            t0 = time.perf_counter()
            with span(sp.GENERATE):
                dataset = workload.generate(s)
            with span(sp.SAVE):
                sources.append(
                    save_dataset(dataset, tmp / f"input{j}") if workload.on_disk else dataset
                )
            prep_s.append(time.perf_counter() - t0)
        del dataset
        input_mb = [
            sum(f.stat().st_size for f in src.parent.iterdir()) / 1e6
            if workload.on_disk else 0.0
            for src in sources
        ]
        rss_before_pipeline = peak_rss_mb()
        out_path = tmp / "report.json"
        references: dict[int, str] = {}

        def attempt(j: int) -> dict:
            """One operation on input j, timed and checked."""
            out_path.unlink(missing_ok=True)
            root = len(tracer.spans) if tracer is not None else None
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with span(sp.OP):
                    with span(sp.LOAD):
                        dataset = load_dataset(sources[j]) if workload.on_disk else sources[j]
                    with span(sp.PIPELINE):
                        report = run_pipeline(dataset, workload.config(seeds[j]), out_path=out_path)
                elapsed = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            except Exception as exc:  # a raising operation is a failed one; the run goes on
                return {"input": j, "seconds": time.perf_counter() - t0, "root": root,
                        "problems": [f"raised {exc!r}"]}
            problems = checks.check_report(
                report, out_path.read_text() if out_path.exists() else "",
                workload.n_samples, workload.n_clusters, workload.acc_floor,
                references.get(j),
            )
            digest = checks.label_digest(report.labels_pred)
            if not problems:
                references.setdefault(j, digest)
            scores = report.metrics or {}
            return {"input": j, "seconds": elapsed, "cpu_s": cpu, "root": root,
                    "problems": problems, "digest": digest,
                    "acc": scores.get("acc"), "nmi": scores.get("nmi")}

        t0 = time.perf_counter()
        warmup = attempt(0)
        warmup_s = time.perf_counter() - t0

        t_first = time.perf_counter()
        deadline = t_first + seconds
        ops = []
        while True:
            ops.append(attempt((len(ops) + 1) % len(seeds)))  # the warm-up used input 0
            typical = statistics.median(op["seconds"] for op in ops)
            if time.perf_counter() + typical > deadline:
                break

    env = machine.stamp()  # after the operations, in case mvtc changed the thread count
    durations = [op["seconds"] for op in ops]
    failed = sum(bool(op["problems"]) for op in ops)
    threads_ok = machine.threads_pinned(env)
    if not threads_ok:
        failed = len(ops)
    last = {op["input"]: op for op in ops if not op["problems"]}
    record = {
        "workload": workload.name,
        "params": dataclasses.asdict(workload),
        "seed": seed,
        "input_seeds": seeds,
        "seconds": seconds,
        "trace": traced,
        "env": env,
        "threads_pinned": threads_ok,
        "setup": {
            "setup_s": t_first - T_START - sum(prep_s) + statistics.median(prep_s),
            "prep_s": prep_s,
            "warmup_s": warmup_s,
            "to_first_op_s": t_first - T_START,
        },
        "warmup": warmup,
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0 and threads_ok and not warmup["problems"],
        "rss_before_pipeline_mb": rss_before_pipeline,
        "end_to_end": {
            "run_s": statistics.median(durations),
            "peak_rss_mb": peak_rss_mb(),
            "acc": statistics.fmean(op["acc"] for op in last.values()) if last else 0.0,
            "nmi": statistics.fmean(op["nmi"] for op in last.values()) if last else 0.0,
        },
        "failed_frac": failed / len(ops),
        "run_s_high_percentile": high_percentile(durations),
    }
    record["end_to_end"]["setup_s"] = record["setup"]["setup_s"]
    if tracer is not None:
        tracer.uninstall()
        record.update(traced_figures(tracer, workload, ops, input_mb))
    return record


def traced_figures(tracer, workload, ops: list[dict], input_mb: list[float]) -> dict:
    """Per-layer medians over the timed operations, plus the trace's own checks."""
    import spans as sp

    profiles, gaps, self_by_op = [], [], []
    own = sp.self_times(tracer.spans)
    for op in ops:
        sizes = {"n": workload.n_samples, "m": workload.n_anchors, "v": len(workload.dims),
                 "dsum": sum(workload.dims), "input_mb": input_mb[op["input"]]}
        profiles.append(sp.operation_profile(tracer, op["root"], sizes))
        inside = sp.subtree(tracer.spans, op["root"])
        gaps.append(abs(sum(own[i] for i in inside) - op["seconds"]))
        by_name: dict[str, float] = {}
        for i in inside:
            by_name[tracer.spans[i].name] = by_name.get(tracer.spans[i].name, 0.0) + own[i]
        self_by_op.append(by_name)
    per_layer = {
        name: statistics.median(p[name] for p in profiles) for name in profiles[0]
    }
    self_s = {
        name: statistics.median(d.get(name, 0.0) for d in self_by_op)
        for name in sorted({n for d in self_by_op for n in d})
    }

    def median_span(name: str) -> float:
        values = [s.end - s.start for s in tracer.spans if s.name == name]
        return statistics.median(values) if values else 0.0

    per_layer["data.generate_s"] = median_span(sp.GENERATE)
    per_layer["data.save_s"] = median_span(sp.SAVE)
    return {
        "per_layer": per_layer,
        "self_s_by_span": self_s,
        "self_sum_gap_s": max(gaps),
        "nesting_errors": sp.nesting_errors(tracer.spans),
        "tracer": tracer.to_dict(),
    }


def result_line(record: dict, names_units: list[tuple[str, str]], values: dict) -> str:
    missing = [name for name, _ in names_units if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names_units},
    })


def describe(record: dict) -> list[str]:
    env = record["env"]
    blas = ", ".join(
        f"{c['package']} copy {c['version'] or 'not found'} threads {c['threads']}"
        for c in env["openblas"]
    )
    high = record["run_s_high_percentile"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']} (inputs {record['input_seeds']})"
        f"  trace {int(record['trace'])}",
        f"env: {env['cpu_count']} cpus ({env['cpus_usable']} usable), LLC {env['llc']}, "
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; OpenBLAS: {blas}",
        f"operations: {record['attempted']} timed after 1 warm-up, "
        f"{record['failed']} failed (failed_frac {record['failed_frac']:.3f})",
        "run_s p-high: " + (f"p{high[0]:.0f} = {high[1]:.4f} s" if high else
                            f"n/a ({record['attempted']} samples; needs >= 11)"),
        f"rss before the first pipeline call: {record['rss_before_pipeline_mb']:.1f} MB",
    ]
    for op in [record["warmup"]] + record["ops"]:
        for problem in op["problems"]:
            lines.append(f"FAILED op on input {op['input']}: {problem}")
    if not record["threads_pinned"]:
        lines.append("FAILED: an OpenBLAS copy does not run on exactly 1 thread")
    if record["trace"]:
        absent = [h["target"] for h in record["tracer"]["hooks"] if not h["installed"]]
        lines.append("hooks absent: " + (", ".join(absent) if absent else "none"))
        lines.append(f"self times vs op wall time: max gap {record['self_sum_gap_s']:.2e} s, "
                     f"nesting errors {record['nesting_errors']}")
        lines.append("self time by span, median over operations:")
        by_time = sorted(record["self_s_by_span"].items(), key=lambda kv: -kv[1])
        lines += [f"  {name:<30} {value:>14.6g} s" for name, value in by_time]
    return lines


def run_one(args) -> int:
    import machine
    from workloads import WORKLOADS

    machine.pin_threads()
    try:
        import_mvtc()
    except ImportError as exc:
        print(f"cannot import mvtc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    bench = spec()
    if args.trace:
        names_units = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        values = record["per_layer"]
        record["correct"] = (record["correct"] and record["nesting_errors"] == 0
                             and record["self_sum_gap_s"] <= 1e-3)
    else:
        names_units = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        values = record["end_to_end"]
    RESULTS.mkdir(exist_ok=True)
    result_path(args.workload, args.seed, args.trace, args.tiny).write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in describe(record):
        print(line)
    for metric, unit in names_units:
        print(f"  {metric:<30} {values[metric]:>14.6g} {unit}")
    print(result_line(record, names_units, values))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, one process each; print the tables."""
    from workloads import WORKLOADS

    bench = spec()
    records: dict[tuple[str, int], dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            path = result_path(name, args.seed, trace, args.tiny)
            records[name, trace] = json.loads(path.read_text())
    names = list(WORKLOADS)
    print(describe(records[names[0], 0])[1])

    def row(label: str, unit: str, values: list[str]) -> str:
        return f"{label:<30} {unit:<17}" + "".join(f"{v:>20}" for v in values)

    print("\nEnd to end (untraced; median of the timed operations)")
    print(row("metric", "unit", names))
    for m in bench["end_to_end"]:
        print(row(m["name"], m["unit"],
                  [f"{records[n, 0]['end_to_end'][m['name']]:.4f}" for n in names]))
    print(row("failed_frac", "fraction", [f"{records[n, 0]['failed_frac']:.3f}" for n in names]))
    print(row("operations", "count", [str(records[n, 0]["attempted"]) for n in names]))
    print(row("run_s p-high", "s", [
        f"p{h[0]:.0f} {h[1]:.4f}" if (h := records[n, 0]["run_s_high_percentile"]) else "n/a"
        for n in names]))
    print(row("rss_before_pipeline_mb", "MB",
              [f"{records[n, 0]['rss_before_pipeline_mb']:.1f}" for n in names]))

    print("\nPer module (traced run; median over operations; *_computed are derived counts)")
    print(row("metric", "unit", names))
    for m in bench["per_layer"]:
        print(row(m["name"], m["unit"],
                  [f"{records[n, 1]['per_layer'][m['name']]:.4g}" for n in names]))
    print(row("tracing overhead", "s", [
        f"{records[n, 1]['per_layer']['trace.run_s'] - records[n, 0]['end_to_end']['run_s']:+.4f}"
        for n in names]))

    print("\nSelf time by span (traced run; median over operations)")
    print(row("span", "unit", names))
    for span in sorted({k for n in names for k in records[n, 1]["self_s_by_span"]}):
        print(row(span, "s", [f"{records[n, 1]['self_s_by_span'].get(span, 0.0):.4g}"
                              for n in names]))
    absent = sorted({h["target"] for n in names for h in records[n, 1]["tracer"]["hooks"]
                     if not h["installed"]})
    print("hooks absent:", ", ".join(absent) if absent else "none")

    print("\nDesign checks (traced run)")
    for line in design_checks({n: records[n, 1]["per_layer"] for n in names}):
        print(line)
    ok = all(r["correct"] for r in records.values())
    print("\nall runs correct" if ok else "\nSOME RUNS FAILED: see the lines above")
    return 0 if ok else 1


def design_checks(layers: dict[str, dict]) -> list[str]:
    """The shares the workload design predicts, evaluated on the traced runs."""
    out = []
    if "anchor-dense" in layers:
        p = layers["anchor-dense"]
        share = (p["anchors.graph_s"] + p["anchors.kernel_width_s"] + p["anchors.select_self_s"]
                 + p["solver.preloop_s"] + p["solver.cholesky_s"]) / p["trace.run_s"]
        out.append(f"anchor-dense: anchors + solver preloop + cholesky = {share:.0%} of run_s "
                   f"(expected > 50%): {'ok' if share > 0.5 else 'NOT MET'}")
    if "long-thin" in layers:
        p = layers["long-thin"]
        solver_spans = ("solver.projection_s", "solver.cholesky_s", "solver.embedding_s",
                        "solver.consensus_s", "solver.objective_s")
        largest = p["tensor_ops.lowfreq_s"] >= max(p[k] for k in solver_spans)
        chol = p["solver.cholesky_s"] / p["trace.run_s"]
        out.append(f"long-thin: lowfreq is the largest solver span: "
                   f"{'ok' if largest else 'NOT MET'}; cholesky = {chol:.2%} of run_s "
                   f"(expected < 1%): {'ok' if chol < 0.01 else 'NOT MET'}")
    if "csv-many-clusters" in layers:
        p = layers["csv-many-clusters"]
        share = (p["data.load_s"] + p["clustering.kmeans_s"]) / p["trace.run_s"]
        out.append(f"csv-many-clusters: load + kmeans = {share:.0%} of run_s "
                   f"(expected > 33%): {'ok' if share > 1 / 3 else 'NOT MET'}")
    return out


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to N=600 (for the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
