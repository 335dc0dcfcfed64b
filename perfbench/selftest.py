"""Self-test of the benchmark: tracing changes no result and its counts repeat.

    python3 perfbench/selftest.py

For each workload it makes one untraced and two traced runs of seed SEED,
SECONDS long, and checks that

- every run passes its correctness checks;
- the untraced and traced runs give bit-equal MSPEs and dependence
  estimates, operation by operation, and on the reference replication;
- the two traced runs count exactly the same work, operation by operation;
- every span the workload should reach fired at least once.

It prints the tracing overhead, the traced median operation time against
the untraced ``run_s``, and exits nonzero if a check fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
SECONDS = 7

EXPECTED_SPANS = {
    "mc-strong": (
        "evaluation.study", "simgen.generate", "basis.inner_products", "fpca.fit",
        "fpca.project", "spatial.factor", "spatial.solve", "spatial.eig", "spatial.rho_profile",
        "fdnn.train", "fdnn.forward", "pipeline.fit_ml", "pipeline.fit_fdnn",
        "pipeline.fit_sfdnn", "pipeline.predict",
    ),
    "spatial-scale": (
        "simgen.generate", "fpca.fit", "fpca.project", "spatial.factor", "spatial.solve",
        "spatial.eig", "spatial.rho_profile", "spatial.logdet_lu", "spatial.knn_build",
        "pipeline.fit_ml", "pipeline.predict",
    ),
    "cli-roundtrip": (
        "cli.import", "cli.simulate", "cli.fit", "cli.predict", "cli.config_read",
        "cli.csv_read", "cli.csv_write", "spatial.weights_io", "simgen.generate",
        "basis.inner_products", "fpca.fit", "fpca.project", "spatial.factor", "spatial.solve",
        "spatial.eig", "spatial.rho_profile", "fdnn.train", "fdnn.forward", "pipeline.fit_ml",
        "pipeline.fit_sfdnn", "pipeline.predict", "pipeline.save_model", "pipeline.load_model",
    ),
}


def _run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        details = json.load(fh)
    if trace:
        with open(path[: -len(".json")] + ".spans.jsonl", encoding="utf-8") as fh:
            details["span_names"] = {json.loads(line)[0] for line in fh}
    return result, details


def _outcome(record):
    return record["mspe"], record["rho_hat"]


def check_workload(workload, seed, seconds):
    problems = []
    plain, plain_details = _run(workload, seed, seconds, 0)
    traced, first = _run(workload, seed, seconds, 1)
    _, second = _run(workload, seed, seconds, 1)
    for label, result in (("untraced", plain), ("traced", traced)):
        if not result["correct"]:
            problems.append(f"{label} run failed {result['failed']} of {result['attempted']}")

    pairs = list(zip(plain_details["records"], first["records"]))
    pairs.append((plain_details["reference"], first["reference"]))
    for a, b in pairs:
        if _outcome(a) != _outcome(b):
            problems.append(f"seed {a['seed']}: tracing changed {_outcome(a)} to {_outcome(b)}")

    for a, b in zip(first["records"], second["records"]):
        if a["counts"] != b["counts"]:
            diff = {k for k in a["counts"].keys() | b["counts"].keys()
                    if a["counts"].get(k) != b["counts"].get(k)}
            problems.append(f"seed {a['seed']}: counters differ between traced runs: {sorted(diff)}")

    missing = [s for s in EXPECTED_SPANS[workload] if s not in first["span_names"]]
    if missing:
        problems.append(f"spans never fired: {missing}")

    untraced_s = plain["metrics"]["run_s"]["value"]
    traced_s = statistics.median(r["wall_s"] for r in first["records"])
    print(
        f"{workload}: run_s untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, "
        f"overhead {traced_s / untraced_s - 1.0:+.2%}; "
        f"{len(pairs)} outcomes compared, {len(first['span_names'])} span names"
    )
    return problems


def main() -> int:
    failed = False
    for workload in EXPECTED_SPANS:
        for problem in check_workload(workload, SEED, SECONDS):
            failed = True
            print(f"{workload}: FAIL {problem}")
    print("self-test", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
