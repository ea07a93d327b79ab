"""One benchmark process: set-up, timed batches, checks, optional trace.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only]

Started by ``run.py`` with ``src`` on PYTHONPATH, always as a fresh
process, so its set-up time and peak memory are those a user pays.  It
prints one JSON object as its last line of standard output.

Untraced batches repeat until ``--seconds`` have passed (at least one).  With
``--trace 1`` the same number of batches then runs again with every public
gmtlab function wrapped by ``tracer.Tracer``; their outputs must hash the
same as the untraced ones.
"""

import time

_START = time.perf_counter()

import gmtlab  # noqa: E402

_IMPORT_S = time.perf_counter() - _START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def canon(obj, h):
    """Feed a canonical byte form of an operation's output into hash ``h``."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode() + b"\0")
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            canon(item, h)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            canon(str(key), h)
            canon(obj[key], h)
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        canon(type(obj).__name__, h)
        canon({f.name: getattr(obj, f.name)
               for f in dataclasses.fields(obj)}, h)
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


class Runner:
    """Runs batches of one workload and records what each batch did."""

    def __init__(self, workload, inputs, out_dir):
        self.wl = workload
        self.inp = inputs
        self.out_dir = out_dir
        self.tracers = []

    def batch(self, traced=False):
        trace_dir, rec = None, None
        if traced and self.wl.name == "cli":
            trace_dir = self.out_dir / f"children-{len(self.tracers)}"
            trace_dir.mkdir(parents=True, exist_ok=True)
            self.inp["children"] = []
            self.tracers.append(trace_dir)
        elif traced:
            rec = tracer.Tracer()
            self.tracers.append(rec)
        clock = time.perf_counter
        ctx = rec.installed() if rec is not None else contextlib.nullcontext()
        with ctx:
            begin = clock()
            ops = self.wl.ops(self.inp, trace_dir)
            done = []
            for op in ops:
                root = rec.span("op", {"label": op.label}) if rec is not None \
                    else contextlib.nullcontext()
                t = clock()
                try:
                    with root:
                        out, err = op.run(), None
                except Exception as exc:  # counted as a failed operation
                    out, err = None, f"{type(exc).__name__}: {exc}"
                done.append((op, out, err, clock() - t))
            wall = clock() - begin
        return self._record(done, wall, rec, trace_dir)

    def _record(self, done, wall, rec, trace_dir):
        h = hashlib.sha256()
        failed, wrong, tallies, notes = 0, 0, Counter(), []
        for op, out, err, _ in done:
            canon(op.label, h)
            if err is not None:
                failed += 1
                notes.append(f"failed: {op.label}: {err}")
                canon("error", h)
                continue
            problem = op.check(out)
            if problem is not None:
                wrong += 1
                notes.append(f"wrong: {op.label}: {problem}")
            if op.tally is not None:
                tallies[op.tally(out)] += 1
            canon(out, h)
        rec_out = {"wall_s": wall, "ops": len(done), "failed": failed,
                   "wrong": wrong, "digest": h.hexdigest(),
                   "tallies": dict(sorted(tallies.items())),
                   "lat": [(op.label, lat) for op, _, _, lat in done],
                   "notes": notes}
        if rec is not None:
            rec_out["summary"] = rec.summary()
        elif trace_dir is not None:
            children = self.inp.pop("children")
            rec_out["summary"] = tracer.merge(c["summary"] for c in children)
            rec_out["children"] = [{k: v for k, v in c.items()
                                    if k != "summary"} for c in children]
        return rec_out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for k, item in enumerate(self.tracers):
                if isinstance(item, Path):
                    for spans in sorted(item.glob("*.spans.jsonl")):
                        with open(spans) as src:
                            for line in src:
                                rec = json.loads(line)
                                rec["tag"] = f"batch{k} {rec['tag']}"
                                fh.write(json.dumps(rec) + "\n")
                else:
                    item.dump(fh, tag=f"batch{k}")


def layer_metrics(summary, wall):
    """Per-layer metrics of one traced batch."""
    calls, busy, extra = summary["calls"], summary["busy_ns"], summary["extra"]
    solves = calls.get("transport.transport_simplex", 0)
    assembled = calls.get("lipmetric.assemble_ball_lp", 0)
    cone_calls = calls.get("cones.d_cone_flat", 0)
    out = {
        "transport.solves": solves,
        "transport.cells": extra["cells"],
        "lipmetric.assemble.calls": assembled,
        "lipmetric.sites": extra["sites"],
        "lipmetric.lp_frac": solves / assembled if assembled else 0.0,
        "simplex.solves": calls.get("simplex.simplex_max_bounded", 0),
        "cones.d_cone.calls": cone_calls,
        "cones.evals": extra["cone_evals"] / cone_calls if cone_calls else 0.0,
        "cones.self_s": extra["cone_self_ns"] / 1e9,
    }
    for key in tracer.BUSY:
        out[key] = busy[key] / 1e9
    out["transport.busy_share"] = out["transport.busy_s"] / wall
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    gen_start = time.perf_counter()
    inp = wl.inputs(args.seed)
    now = time.perf_counter()
    setup = {"import_s": _IMPORT_S, "gen_s": now - gen_start,
             "setup_s": now - _START}
    try:
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0
        return run(args, wl, inp, setup)
    finally:
        if wl.name == "cli":
            shutil.rmtree(inp["work"], ignore_errors=True)


def run(args, wl, inp, setup):
    warnings.simplefilter("ignore", gmtlab.errors.DiniDivergenceWarning)
    out_dir = workloads.OUT_ROOT / f"run-{os.getpid()}"
    wl.prepare(inp)
    runner = Runner(wl, inp, out_dir)

    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(runner.batch())
    rss_who = resource.RUSAGE_CHILDREN if wl.name == "cli" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024.0
    traced = [runner.batch(traced=True) for _ in untraced] if args.trace else []

    batches = untraced + traced
    digests = {b["digest"] for b in batches}
    lat = [t for b in untraced for _, t in b["lat"]]
    result = {
        "setup": setup,
        "batches": len(untraced),
        "ops_per_batch": untraced[0]["ops"],
        "attempted": sum(b["ops"] for b in batches),
        "failed": sum(b["failed"] for b in batches),
        "wrong": sum(b["wrong"] for b in batches),
        "outputs_repeat": len(digests) == 1,
        "digest": untraced[0]["digest"],
        "tallies": untraced[0]["tallies"],
        "notes": [n for b in batches for n in b["notes"]][:20],
        "wall_s": statistics.median(b["wall_s"] for b in untraced),
        "lat_ms": [t * 1e3 for t in lat],
        "peak_rss_mb": peak_rss_mb,
    }
    if wl.name == "cli":
        by_label = {}
        for b in untraced:
            for label, t in b["lat"]:
                by_label.setdefault(label, []).append(t)
        result["cli_blowup_t2_over_t1"] = (
            statistics.median(by_label["blowup --threads 2"])
            / statistics.median(by_label["blowup --threads 1"]))
    if traced:
        result["layers"] = trace_report(args, wl, runner, untraced, traced)
    print(json.dumps(result))
    return 0


def trace_report(args, wl, runner, untraced, traced):
    per_batch = [layer_metrics(b["summary"], b["wall_s"]) for b in traced]
    # Counts are integers and identical across batches when they repeat;
    # times are medians over the traced batches.
    layers = {key: value if isinstance(value, int)
              else statistics.median(m[key] for m in per_batch)
              for key, value in per_batch[0].items()}
    counts = [tracer.counts_of(b["summary"]) for b in traced]
    startup, work = [], []
    for b in traced:
        for child in b.get("children", []):
            work.append(child["work_s"])
            startup.append(child["wall_s"] - child["work_s"])
    layers["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    layers["cli.work_s"] = statistics.median(work) if work else 0.0
    layers["trace.overhead_s"] = (
        statistics.median(b["wall_s"] for b in traced)
        - statistics.median(b["wall_s"] for b in untraced))
    path = workloads.OUT_ROOT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    runner.write_spans(path)
    shutil.rmtree(runner.out_dir, ignore_errors=True)
    blob = json.dumps(counts[0], sort_keys=True).encode()
    return {"metrics": layers,
            "counts_repeat": all(c == counts[0] for c in counts),
            "counts_sha": hashlib.sha256(blob).hexdigest()[:16],
            "counts": counts[0], "spans_file": str(path)}


if __name__ == "__main__":
    sys.exit(main())
