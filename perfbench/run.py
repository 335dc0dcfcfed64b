"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-strong --seed 1 --seconds 20 --trace 0

Closed loop, one client: operations run back to back in this process until
``--seconds`` have passed and the workload's ``min_ops`` have run.  The last
line of standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it stamps the
environment.  Per-operation records (and, when traced, the spans) are
written under ``perfbench/out/``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, so an operation occupies one core and its time depends
# less on what else the machine runs.  Fixed before numpy loads, since the
# thread count also changes the last bits of results.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

WORKLOAD_NAMES = ("mc-strong", "spatial-scale", "cli-roundtrip")
SETUP_SAMPLES = 3

# per-layer metric -> (source, key): span total or self time, or a counter;
# all are per timed operation
PER_LAYER = {
    "fdnn.train_s": ("total", "fdnn.train"),
    "fdnn.train_self_s": ("self", "fdnn.train"),
    "fdnn.forward_calls": ("count", "fdnn.forward_calls"),
    "fdnn.forward_rows": ("count", "fdnn.forward_rows"),
    "fdnn.epochs": ("count", "fdnn.epochs"),
    "spatial.solve_s": ("total", "spatial.solve"),
    "spatial.solve_calls": ("count", "spatial.solve_calls"),
    "spatial.solve_rhs_cols": ("count", "spatial.solve_rhs_cols"),
    "spatial.factor_s": ("total", "spatial.factor"),
    "spatial.factor_calls": ("count", "spatial.factor_calls"),
    "spatial.eig_s": ("total", "spatial.eig"),
    "spatial.rho_profile_s": ("total", "spatial.rho_profile"),
    "spatial.logdet_lu_calls": ("count", "spatial.logdet_lu_calls"),
    "spatial.knn_build_s": ("total", "spatial.knn_build"),
    "spatial.weights_io_s": ("total", "spatial.weights_io"),
    "simgen.generate_s": ("total", "simgen.generate"),
    "basis.inner_products_s": ("total", "basis.inner_products"),
    "fpca.fit_s": ("total", "fpca.fit"),
    "fpca.project_s": ("total", "fpca.project"),
    "pipeline.fit_ml_s": ("total", "pipeline.fit_ml"),
    "pipeline.fit_fdnn_s": ("total", "pipeline.fit_fdnn"),
    "pipeline.fit_sfdnn_s": ("total", "pipeline.fit_sfdnn"),
    "pipeline.predict_s": ("total", "pipeline.predict"),
    "pipeline.save_model_s": ("total", "pipeline.save_model"),
    "pipeline.load_model_s": ("total", "pipeline.load_model"),
    "evaluation.study_self_s": ("self", "evaluation.study"),
    "cli.import_s": ("total", "cli.import"),
    "cli.simulate_s": ("total", "cli.simulate"),
    "cli.fit_s": ("total", "cli.fit"),
    "cli.predict_s": ("total", "cli.predict"),
    "cli.csv_read_s": ("total", "cli.csv_read"),
    "cli.csv_write_s": ("total", "cli.csv_write"),
    "cli.bytes_read": ("count", "cli.bytes_read"),
    "cli.bytes_written": ("count", "cli.bytes_written"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once, print the set-up time and exit (used to sample set-up)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _set_up(name, seed):
    """Import the package, build the workload's inputs and warm up."""
    start = time.perf_counter()
    import sfdnn.cli  # noqa: F401  (every traced module must be loaded)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(seed)
    workload.warmup()
    return workload, time.perf_counter() - start


def _sample_setup(args):
    """Set-up time of fresh processes, each importing from scratch."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _run_safely(operation, arg):
    try:
        return operation(arg)
    except Exception:  # one failed operation must not stop the run
        return {"seed": None, "mspe": {}, "rho_hat": [], "failures": [traceback.format_exc()]}


def _stamp():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "sfdnn")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _per_layer(tracer, ops):
    from tracing import span_times

    total, own = span_times(tracer.spans)
    sources = {"total": total, "self": own, "count": tracer.counts}
    metrics = {}
    for name, (source, key) in PER_LAYER.items():
        unit = "count" if source == "count" else "s"
        metrics[name] = {"value": sources[source].get(key, 0) / ops, "unit": unit}
    forward_rows = tracer.counts.get("fdnn.train_forward_rows", 0)
    useful = tracer.counts.get("fdnn.useful_rows", 0)
    metrics["fdnn.useful_row_ratio"] = {
        "value": useful / forward_rows if forward_rows else 0.0, "unit": "ratio",
    }
    metrics["ops"] = {"value": ops, "unit": "count"}
    metrics["trace.spans"] = {"value": len(tracer.spans) / ops, "unit": "count"}
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sfdnn", "__init__.py")):
        sys.stderr.write("run.py: the sfdnn package source (src/sfdnn) is not in this checkout\n")
        return 2
    if args.setup_only:
        workload, seconds = _set_up(args.workload, args.seed)
        workload.close()
        print(seconds)
        return 0

    workload, own_setup = _set_up(args.workload, args.seed)
    from workloads import REF_SEED, RHO, mc_replication

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer

    records = []
    start = time.perf_counter()
    while True:
        index = len(records)
        before = dict(tracer.counts) if tracer else {}
        if tracer:
            tracer.op_id = index
        t0 = time.perf_counter()
        record = _run_safely(workload.op, index)
        record["wall_s"] = time.perf_counter() - t0
        if tracer:
            record["counts"] = {
                k: v - before.get(k, 0) for k, v in tracer.counts.items() if v != before.get(k, 0)
            }
        records.append(record)
        if len(records) >= workload.min_ops and time.perf_counter() - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
        workload.tracer = None
    workload.close()
    peak_rss_mb = _peak_rss_mb()

    # accuracy is reported on the reference replication, which every
    # workload runs: mc-strong as its first operation, the others after timing
    checked = list(records)
    if workload.replays_reference:
        reference = records[0]
    else:
        reference = _run_safely(mc_replication, REF_SEED)
        checked.append(reference)
    # set-up is reported only by the untraced run
    setup_samples = [own_setup]
    if not tracer:
        setup_samples += [_sample_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    attempted = len(checked)
    failed = sum(bool(r["failures"]) for r in checked)
    ops = len(records)

    if tracer:
        metrics = _per_layer(tracer, ops)
    else:
        rho = reference["rho_hat"][0] if reference["rho_hat"] else None
        metrics = {
            "run_s": {"value": statistics.median(r["wall_s"] for r in records), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "rho_abs_err": {"value": None if rho is None else abs(rho - RHO), "unit": "1"},
        }
        for kind in ("ml", "fdnn", "sfdnn"):
            metrics[f"mspe_{kind}"] = {"value": reference["mspe"].get(kind), "unit": "y2"}

    stamp = _stamp()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "stamp": stamp, "seconds": args.seconds, "setup_samples": setup_samples,
                "records": records, "reference": reference, "metrics": metrics,
            },
            fh, indent=1,
        )
    if tracer:
        with open(os.path.join(out_dir, tag + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    for record in checked:
        for failure in record["failures"]:
            sys.stderr.write(f"check failed (seed {record['seed']}): {failure}\n")

    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
