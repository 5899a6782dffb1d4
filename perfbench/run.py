"""Run one benchmark workload on the checkout this file sits in.

    python3 perfbench/run.py --workload train_paper --seed 0 --seconds 20 --trace 0

The run writes its inputs from ``--seed`` (see gen.py), sets the program up
several times, then drives it in a closed loop with one client until
``--seconds`` have passed, checking its outputs as it goes.  It prints a
readable report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced units, so the
gap between their rates is the tracing overhead.  ``--toy`` shrinks inputs
and model so that a run takes seconds; the self-test uses it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import ALL_TRACED, CLOCK, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOADS = ("train_paper", "eval_paper", "finetune_cnn")

# Per-layer seconds and calls are per timed batch (per training step when
# training, validation included), except for these set-up calls (per set-up)
# and checkpoint calls (per call).
PER_SETUP = ("train.encode_split", "textprep.assemble_input", "textprep.build_vocab",
             "dataio.load_dataset", "dataio.load_word_vectors",
             "dataio.load_sentence_vectors", "dataio.build_embedding_matrix",
             "finetune.encode_corpus")
PER_CALL = ("dataio.save_checkpoint", "dataio.load_checkpoint")


def pin_threads() -> dict[str, str]:
    """One BLAS/OpenMP thread; must run before numpy loads.

    The program's products are small and it runs one batch at a time, so a
    second OpenBLAS thread gains nothing; its worker spins between calls,
    doubling the CPU a run takes (measured: 6-7 CPU s per 4.6-5.7 s eval
    batch with two threads on 2 vCPUs) and exposing runs to steal time on a
    shared host.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: "1" for var in THREAD_VARS}


def import_program() -> None:
    """Import ``emoconv`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "emoconv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no emoconv package under {src}")
    sys.path.insert(0, str(src))
    import emoconv
    if Path(emoconv.__file__).resolve().parent != (src / "emoconv").resolve():
        raise SystemExit(f"perfbench: imported emoconv from {emoconv.__file__}, "
                         f"not from {src}")


def machine(threads: dict[str, str]) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "threads": threads}


def closed_loop(workload, state, seconds, tracers, checks):
    """Units back to back, each after the previous one finished, until
    ``seconds`` of wall time per tracer are up and every tracer has had a
    unit.  Units take turns among ``tracers``,
    each installed for its unit only, so a slow patch of the host hits both
    sides of a traced/untraced comparison alike.  Returns the units of each
    tracer and the loop's CPU seconds over its wall seconds."""
    for tracer in tracers:
        tracer.phase = "timed"
    units = [[] for _ in tracers]
    start, cpu = time.perf_counter(), CLOCK()
    index = 0
    while not all(units) or time.perf_counter() - start < seconds * len(tracers):
        k = index % len(tracers)
        with tracers[k]:
            units[k].append(workload.unit(state, index, tracers[k], checks))
        index += 1
    for tracer in tracers:
        tracer.phase = "other"
    return units, (CLOCK() - cpu) / (time.perf_counter() - start)


def run_phases(workload, setup_tracer, loop_tracers, seconds, repeats, checks):
    """Set-up ``repeats`` times under ``setup_tracer`` (the last state is
    kept), then the loop."""
    setup_s = []
    state = None
    setup_tracer.phase = "setup"
    with setup_tracer:
        for _ in range(repeats):
            state = None  # each set-up starts from a heap without the last one
            gc.collect()
            start = CLOCK()
            state = workload.setup()
            setup_s.append(CLOCK() - start)
    setup_tracer.phase = "other"
    workload.prepare(state)
    units, cpu_share = closed_loop(workload, state, seconds, loop_tracers, checks)
    workload.finish(state, checks)
    return setup_s, units, cpu_share


def rate(units) -> float:
    """Median over units of examples per second."""
    return statistics.median(u.examples / u.busy_s for u in units)


def end_to_end(workload, units, setup_s) -> tuple[dict, dict]:
    """Metric values, and the sample behind each."""
    per_batch = [u.busy_s / u.batches for u in units]
    values = {
        "examples_per_s": rate(units),
        "batch_s_p50": statistics.median(per_batch),
        "epoch_s_projected": workload.epoch_s(units),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    examples = sum(u.examples for u in units)
    batches = sum(u.batches for u in units)
    samples = {
        "examples_per_s": f"median of {len(units)} units, {examples} examples "
                          f"in {sum(u.busy_s for u in units):.3f} s",
        "batch_s_p50": f"median of {len(units)} units, {batches} batches",
        "epoch_s_projected": f"from the median rates of {len(units)} units",
        "setup_s": f"median of {len(setup_s)} set-ups",
        "peak_rss_mb": "one process",
    }
    return values, samples


def per_layer(tracer, workload, units, untraced_rate) -> dict:
    """Per-layer values of a traced run that set up once."""
    timed, setup = tracer.totals("timed"), tracer.totals("setup")
    batches = sum(u.batches for u in units)
    out = {}
    for name in ALL_TRACED:
        if name in PER_CALL:
            rows = [t[name] for t in (timed, setup) if name in t]
            calls = sum(r[2] for r in rows)
            out[f"{name}.s"] = sum(r[0] for r in rows) / calls if calls else 0.0
            out[f"{name}.calls"] = calls
            continue
        table, per = (setup, 1) if name in PER_SETUP else (timed, batches)
        total, own, calls = table.get(name, (0.0, 0.0, 0))
        out[f"{name}.s"] = total / per
        out[f"{name}.self_s"] = own / per
        out[f"{name}.calls"] = calls / per
    valid, cells = tracer.batch_tokens["timed"]
    out["train.pad_ratio"] = valid / cells if cells else 1.0
    out["tensor.graph_nodes"] = tracer.graph_nodes["timed"] / batches
    out["tensor.graph_mb"] = tracer.graph_bytes["timed"] / batches / 2**20
    out["dataio.checkpoint_mb"] = workload.checkpoint_bytes / 2**20
    coverage = [inside / wall for wall, inside in tracer.batches("timed") if wall > 0]
    out["trace.batch_coverage_min"] = min(coverage) if coverage else 1.0
    out["trace.examples_per_s"] = rate(units)
    out["trace.overhead_pct"] = 100.0 * (untraced_rate / rate(units) - 1.0)
    return out


def make_workload(name, inputs, manifest, sizes, work, seed):
    import workloads as W

    if name == "train_paper":
        return W.TrainPaper(inputs, manifest, sizes, work)
    if name == "eval_paper":
        return W.EvalPaper(inputs, manifest, sizes, W.load_digests(sizes, seed))
    return W.FinetuneCnn(inputs, manifest, sizes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs and model (self-test)")
    args = parser.parse_args(argv)

    threads = pin_threads()
    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import gen
    import workloads as W

    sizes = gen.TOY if args.toy else gen.PAPER
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"run-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}{'-toy' if args.toy else ''}"
    try:
        manifest = gen.generate(work / "inputs", args.seed, sizes)
        workload = make_workload(args.workload, work / "inputs", manifest, sizes,
                                 work, args.seed)
        checks = W.Checks()
        probe = Tracer(workload.probe)
        if args.trace:
            tracer = Tracer(ALL_TRACED, count_graph=True)
            _, (plain, units), cpu_share = run_phases(
                workload, tracer, [probe, tracer], args.seconds, 1, checks)
            tracer.write(out_dir / f"trace-{tag}.jsonl")
            values = per_layer(tracer, workload, units, rate(plain))
            samples, wanted = {}, spec["per_layer"]
        else:
            setup_s, (units,), cpu_share = run_phases(
                workload, probe, [probe], args.seconds, SETUP_REPEATS, checks)
            values, samples = end_to_end(workload, units, setup_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "machine": machine(threads),
              "inputs": manifest["properties"][args.workload],
              "units": len(units), "loop_cpu_share": cpu_share,
              "checks": checks.attempted,
              "failures": checks.failures, "all_metrics": values}
    (out_dir / f"report-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  toy' if args.toy else ''}")
    print("machine " + json.dumps(record["machine"]))
    print(f"times are CPU seconds of this process; the timed loop got "
          f"{100 * cpu_share:.1f}% of its wall time on the CPU")
    print("inputs " + json.dumps(record["inputs"]))
    for name, m in metrics.items():
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'error_rate':<32} {len(checks.failures) / checks.attempted:.6g}  "
          f"({len(checks.failures)} of {checks.attempted} checks failed)")
    if args.trace:
        ok = values["trace.batch_coverage_min"] >= 0.95
        print(f"  span coverage of every batch >= 95%: {'yes' if ok else 'NO'}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
