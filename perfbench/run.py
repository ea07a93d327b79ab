"""gmt-lab benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is taken from ``src``.  Workloads:
flatness, lp-small, scans, cli (see README.md in this directory).

The run starts SETUP_SAMPLES fresh set-up processes, then one fresh worker
process that repeats the workload's batch for ``--seconds`` (at least once)
and checks every output.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it restate each number with its unit and sample count.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flatness", "lp-small", "scans", "cli")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

# Gated end-to-end metrics (BENCHMARK.json).  op_p50_ms, op_p90_ms,
# fail_frac and wrong_frac are printed as well; README.md says why they are
# not gated.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("transport.solves", "count"), ("transport.cells", "count"),
    ("transport.busy_s", "s"), ("transport.busy_share", "ratio"),
    ("lipmetric.assemble.calls", "count"), ("lipmetric.assemble.busy_s", "s"),
    ("lipmetric.sites", "count"), ("lipmetric.lp_frac", "ratio"),
    ("lipmetric.potential.busy_s", "s"), ("simplex.solves", "count"),
    ("simplex.busy_s", "s"), ("cones.d_cone.calls", "count"),
    ("cones.d_cone.busy_s", "s"), ("cones.evals", "count/call"),
    ("cones.self_s", "s"), ("measures.mass_in.busy_s", "s"),
    ("measures.lambda_rescale.busy_s", "s"),
    ("kernels.truncated_pv.busy_s", "s"), ("moduli.omega_profile.busy_s", "s"),
    ("moduli.dini.busy_s", "s"), ("blowup.density_scan.busy_s", "s"),
    ("blowup.sandwich.busy_s", "s"), ("corpus.gen_s", "s"),
    ("cli.startup_s", "s"), ("cli.work_s", "s"),
    ("cli.blowup_t2_over_t1", "ratio"), ("trace.overhead_s", "s"),
)


class ChildError(RuntimeError):
    pass


def child(cmd, env, deadline):
    """Run one worker process to completion; return its last JSON line."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildError(f"{cmd[2:4]} did not finish before the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile_line(lat_ms):
    n = len(lat_ms)
    if n < 10 * TAIL_SAMPLES:
        return (f"op_p90_ms = n/a: {n} samples, a p90 with {TAIL_SAMPLES} "
                f"samples beyond it needs {10 * TAIL_SAMPLES}")
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    return f"op_p90_ms = {p90:.4f} ms (n={n})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gmtlab" / "__init__.py").is_file():
        print("perfbench: src/gmtlab not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    deadline = time.monotonic() + DEADLINE_S
    base = [sys.executable, str(HERE / "worker.py"), "--workload",
            args.workload, "--seed", str(args.seed)]
    try:
        setups = [child(base + ["--setup-only"], env, deadline)["setup"]
                  for _ in range(SETUP_SAMPLES)]
        res = child(base + ["--seconds", str(args.seconds),
                            "--trace", str(args.trace)], env, deadline)
    except (ChildError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup"])
    report(args, setups, res)
    return 0


def report(args, setups, res):
    attempted, failed, wrong = res["attempted"], res["failed"], res["wrong"]
    correct = wrong == 0 and failed == 0 and res["outputs_repeat"]
    lat = res["lat_ms"]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)
    traced = " and with tracing" if args.trace else ""
    lines = [
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"batches={res['batches']} ops/batch={res['ops_per_batch']}",
        f"wall_s = {res['wall_s']:.4f} s "
        f"(median of {res['batches']} untraced batches)",
        f"op_p50_ms = {statistics.median(lat):.4f} ms (n={len(lat)})",
        percentile_line(lat),
        f"setup_s = {setup_s:.4f} s (median of {len(setups)} fresh "
        f"processes; import {import_s:.4f} s)",
        f"peak_rss_mb = {res['peak_rss_mb']:.2f} MB",
        f"fail_frac = {failed / attempted:.4g} ({failed}/{attempted})",
        f"wrong_frac = {wrong / attempted:.4g} ({wrong}/{attempted})",
        f"outputs identical across batches{traced}: "
        f"{'yes' if res['outputs_repeat'] else 'NO'} "
        f"(sha256 {res['digest'][:16]})",
    ]
    lines += [f"label miss tally (not counted as wrong): {key} x{count} "
              f"per batch" for key, count in res["tallies"].items()]
    if "cli_blowup_t2_over_t1" in res:
        lines.append(f"cli blowup --threads 2 / --threads 1 = "
                     f"{res['cli_blowup_t2_over_t1']:.4f}")
    for note in res["notes"]:
        print(note, file=sys.stderr)

    if args.trace:
        layers = res["layers"]
        values = dict(layers["metrics"])
        values["corpus.gen_s"] = statistics.median(s["gen_s"] for s in setups)
        values["cli.blowup_t2_over_t1"] = res.get("cli_blowup_t2_over_t1", 0.0)
        lines.append(f"trace: counts repeat across traced batches: "
                     f"{'yes' if layers['counts_repeat'] else 'NO'} "
                     f"(counts sha {layers['counts_sha']}); spans in "
                     f"{layers['spans_file']}")
        if res["ops_per_batch"] <= 10:
            lines += [f"trace op {label}: transport solves {op['solves']}, "
                      f"largest LP {op['max_rows']}x{op['max_cols']}"
                      for label, op in sorted(layers["counts"]["per_op"].items())]
        declared = PER_LAYER
    else:
        values = {"wall_s": res["wall_s"], "setup_s": setup_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
        declared = END_TO_END
    metrics = {}
    for name, unit in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        if args.trace:
            lines.append(f"{name} = {values[name]:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
