#!/usr/bin/env python3
"""Runs one benchmark workload against libqosrm and prints its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 2020 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds
perfbench_main (and libqosrm, from this checkout's sources) under
.bench_build/perfbench; later runs only re-check the build.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced variant and prints the per-layer metrics. Either way the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every output
check passed.
"""

import argparse
import array
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

BUILD_DIR = Path(".bench_build") / "perfbench"
PROGRAM = BUILD_DIR / "perfbench_main"
WORKLOADS = ("paper-grid", "cbp-grid", "service-knee64")
POLICIES = ("rm1", "rm2", "rm3", "ucp", "fcp", "classpart")
# Wall-clock limits of one run: 180 s, or 900 s when this run builds.
RUN_LIMIT_S = 180
BUILD_RUN_LIMIT_S = 900


def die(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def check_layout(root):
    """The benchmark builds the library from this checkout: refuse to run
    anywhere that does not hold its sources and goldens."""
    needed = ["CMakeLists.txt", "src/CMakeLists.txt", "tests/data", "BENCHMARK.json"]
    missing = [n for n in needed if not (root / n).exists()]
    if missing:
        die(2, "not a qosrm checkout (missing: " + ", ".join(missing) + "); "
               "run from the repository root")


def self_check():
    """The benchmark's own arithmetic must pass its unit checks first."""
    import test_metrics

    suite = unittest.TestLoader().loadTestsFromModule(test_metrics)
    stream = io.StringIO()
    result = unittest.TextTestRunner(stream=stream, verbosity=0).run(suite)
    if not result.wasSuccessful():
        sys.stderr.write(stream.getvalue())
        die(3, "benchmark self-checks failed")


def build(root):
    """Configures (once) and builds perfbench_main; True when anything was
    compiled, which allows this run the longer first-build limit."""
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = root / BUILD_DIR / "build.log"
    (root / BUILD_DIR).mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log:
        if not (root / BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, cwd=root, stdout=log, stderr=log).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                die(4, "cmake configure failed")
        before = PROGRAM.stat().st_mtime if (root / PROGRAM).exists() else None
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_main",
               "-j", jobs]
        if subprocess.run(cmd, cwd=root, stdout=log, stderr=log).returncode:
            log.close()
            sys.stderr.write(log_path.read_text()[-4000:])
            die(4, "build failed")
    return before is None or (root / PROGRAM).stat().st_mtime != before


def source_identity(root):
    """Commit when the checkout is a git repository, plus a digest of every
    file the benchmark builds, which identifies the code either way."""
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += [p for p in (root / sub).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        digest.update(str(p.relative_to(root)).encode())
        digest.update(p.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_program(root, args, deadline):
    out_dir = BUILD_DIR / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    cmd = [str(PROGRAM), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={out_dir}", "--golden-dir=tests/data"]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(5, "perfbench_main exceeded the run's time limit")
    result_path = root / out_dir / "result.json"
    if not result_path.exists():
        die(5, f"perfbench_main exited with code {rc} without a result")
    result = json.loads(result_path.read_text())
    samples = array.array("I")
    samples.frombytes((root / out_dir / "samples.bin").read_bytes())
    return rc, result, samples


# ---------------------------------------------------------------------------
# End-to-end metrics (--trace 0).
# ---------------------------------------------------------------------------

def end_to_end(res, samples):
    """Returns ({name: value}, [info lines]).

    Host times come from repeated deterministic work: every sweep row runs
    once per pass, every service step once per replica and pass. Each unit
    keeps its best time, and a pass is the sum of its units' best times
    plus its fastest remainder (report, construction); see README.md,
    "Host noise"."""
    service = res["workload"] == "service-knee64"
    reps = res["repetitions"]
    units = res["units"]
    best = M.best_per_unit(samples, len(reps), units)
    other_ns = [r["other_ns"] for r in reps]
    best_pass_s = (sum(best) + min(other_ns)) * 1e-9
    if service:
        intervals = sum(r["intervals"] for r in res["service_rows"])
        steps = sorted(best)
        step_kind = "ServiceEngine::step() calls, one sample per replica and pass"
        share, p_tail = M.tail_percentile(steps, 0.99)
        tail_rule = ""
    else:
        intervals = M.sweep_simulated_intervals(res["rows"])
        steps = sorted(M.sweep_decision_steps(best, res["rows"]))
        median = M.median_per_unit(samples, len(reps), units)
        share, p_tail = M.scaled_tail(
            steps, sorted(M.sweep_decision_steps(median, res["rows"])), 0.99)
        step_kind = ("rm1/rm2/rm3 grid rows (row time / its RM invocations), "
                     "one sample per pass")
        tail_rule = (f"; p99 = p50 x p{100 * share:.4g}/p50 of the rows' median "
                     f"times (the bests' own p{100 * share:.4g}: "
                     f"{M.percentile(steps, share) / 1e3:.6g} us)")
    out = {
        "setup_s": statistics.median(res["setup_s"]),
        "intervals_per_s": M.intervals_per_s(intervals, best, other_ns),
        "step_us_p50": M.percentile(steps, 0.5) / 1e3,
        "step_us_p99": p_tail / 1e3,
        "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
    }
    median_pass_s = statistics.median(r["wall_ns"] for r in reps) * 1e-9
    info = [
        f"setup_s: median of {len(res['setup_s'])} cold SimDb builds "
        f"({', '.join(f'{s:.3f}' for s in res['setup_s'])} s)",
        f"intervals_per_s: {intervals} simulated intervals per pass over a "
        f"best-of-{len(reps)} pass of {best_pass_s:.4f} s (median measured "
        f"pass: {median_pass_s:.4f} s, {intervals / median_pass_s:.6g}/s)",
        f"step_us_p50/p99: best of {len(reps)} samples for each of "
        f"{len(steps)} {step_kind}; tail percentile used: p{100 * share:.4g}"
        + tail_rule,
        "peak_rss_mb: resident high-water mark of the timed phase",
    ]
    if service:
        rows, idle = res["service_rows"], res["idle_rows"]
        out["energy_savings_pct"] = 100.0 * (
            1.0 - M.service_energy_per_app(rows) / M.service_energy_per_app(idle))
        out["violation_rate"] = M.service_violation_rate(rows)
        out["energy_per_app_j"] = M.service_energy_per_app(rows)
        info += [
            "energy_savings_pct: rm3 vs the idle-policy engine on the same "
            "points, per served app",
            f"p99_violation: {max(r['p99_violation'] for r in rows):.6g} "
            "(Eq. 6 magnitude; largest per-point p99; printed, not gated)",
            f"reject_rate: {M.reject_rate(rows):.6g} ratio "
            f"({sum(r['rejected'] for r in rows)} of "
            f"{sum(r['arrivals'] for r in rows)} arrivals; printed, not gated)",
            "model_gap_pct: not applicable (the service grid has no perfect-"
            "oracle model)",
            "occupancy per point: " +
            ", ".join(f"{r['occupancy']:.3f}" for r in rows),
        ]
    else:
        ref, seeded = res["modelled"], res["seeded_modelled"]
        out["energy_savings_pct"] = 100.0 * ref["energy_savings"]
        out["violation_rate"] = ref["violation_rate"]
        out["energy_per_app_j"] = ref["energy_per_app_j"]
        info.append("modelled metrics: RM3/model3 at alpha=1 on the grid at "
                    "the reference seed 2020")
        if "model_gap" in ref:
            info.append(f"model_gap_pct: {100.0 * ref['model_gap']:.6g} % "
                        "(|model3 - perfect| RM3 weighted saving, Fig. 9; "
                        "printed, not gated)")
        else:
            info.append("model_gap_pct: not applicable (no perfect-oracle "
                        "model on this grid)")
        info.append("p99_violation, reject_rate: not applicable (service "
                    "metrics)")
        info.append(
            f"seed {res['seed']} grid (printed, not gated): energy_savings_pct "
            f"{100.0 * seeded['energy_savings']:.6g}, violation_rate "
            f"{seeded['violation_rate']:.6g}, energy_per_app_j "
            f"{seeded['energy_per_app_j']:.6g}" +
            (f", model_gap_pct {100.0 * seeded['model_gap']:.6g}"
             if "model_gap" in seeded else ""))
    return out, info


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1).
# ---------------------------------------------------------------------------

class Trace:
    """Index over the recorded spans and call series."""

    def __init__(self, res, samples):
        td = res["trace_data"]
        self.spans = td["spans"]  # [name, start_ns, end_ns, parent, row]
        self.series = td["series"]
        self.samples = samples
        self.children = {}
        for i, s in enumerate(self.spans):
            self.children.setdefault(s[3], []).append(i)

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def dur_ns(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_ns(self, i):
        s = self.spans[i]
        kids = [(self.spans[c][1], self.spans[c][2])
                for c in self.children.get(i, [])]
        # A series' calls run one at a time, between the child spans, so
        # they cover exactly their summed duration.
        series_ns = sum(x["busy_ns"] for x in self.series if x["parent"] == i)
        return M.self_time((s[1], s[2]), kids) - series_ns

    def series_named(self, name):
        return [s for s in self.series if s["name"] == name]

    def durations(self, series_list):
        out = []
        for s in series_list:
            out.extend(self.samples[s["offset"]:s["offset"] + s["count"]])
        out.sort()
        return out


def totals(series_list):
    calls = sum(s["calls"] for s in series_list)
    busy = sum(s["busy_ns"] for s in series_list)
    ops = sum(s["ops"] for s in series_list)
    return calls, busy, ops


def per_layer(res, samples):
    service = res["workload"] == "service-knee64"
    t = Trace(res, samples)
    passes = t.named("rmsim.pass")
    n_pass = len(passes)
    out = {}
    info = []

    out["workload.db_build_s"] = res["db_build_s"]
    out["workload.db_load_s"] = res["db_load_s"]
    out["workload.arrivals.busy_s"] = sum(
        t.dur_ns(i) for i in t.named("workload.arrivals")) * 1e-9

    rows = [i for i in t.named("rmsim.row") if t.spans[i][3] in passes]
    row_ns = sorted(t.dur_ns(i) for i in rows)
    share, p_tail = M.tail_percentile(row_ns, 0.99)
    out["rmsim.row.calls"] = len(rows) / n_pass
    out["rmsim.row.busy_s"] = sum(row_ns) * 1e-9 / n_pass
    out["rmsim.row.p50_ms"] = M.percentile(row_ns, 0.5) / 1e6
    out["rmsim.row.p99_ms"] = p_tail / 1e6
    info.append(f"rmsim.row: {len(row_ns)} row spans over {n_pass} traced "
                f"passes; tail percentile used: p{100 * share:.4g}")
    out["rmsim.report.busy_s"] = sum(
        t.dur_ns(i) for i in t.named("rmsim.report")) * 1e-9 / n_pass
    out["rmsim.pass.self_s"] = sum(t.self_ns(i) for i in passes) * 1e-9 / n_pass

    # Service layers (not applicable on the sweeps: 0).
    init = [i for i in t.named("rmsim.service.init")
            if t.spans[t.spans[i][3]][3] in passes]
    out["rmsim.service.init.busy_s"] = sum(t.dur_ns(i) for i in init) * 1e-9 / n_pass
    steps = t.series_named("rmsim.service.step")
    calls, busy, _ = totals(steps)
    step_ns = t.durations(steps)
    out["rmsim.service.step.calls"] = calls / n_pass
    out["rmsim.service.step.busy_s"] = busy * 1e-9 / n_pass
    out["rmsim.service.step.p50_us"] = M.percentile(step_ns, 0.5) / 1e3 if step_ns else 0.0
    out["rmsim.service.step.p99_us"] = (
        M.tail_percentile(step_ns, 0.99)[1] / 1e3 if step_ns else 0.0)
    idle_calls, idle_busy, _ = totals(t.series_named("rmsim.idle.service.step"))
    out["rmsim.service.idle_step_ns"] = idle_busy / idle_calls if idle_calls else 0.0

    if service:
        out["rmsim.row.intervals"] = sum(r["intervals"] for r in res["service_rows"])
        idle_intervals = sum(r["intervals"] for r in res["idle_rows"])
        out["rmsim.idle_row.ns_per_interval"] = idle_busy / idle_intervals
        info.append("rmsim.idle_row: the idle-policy companion engine's step "
                    "time per interval")
    else:
        table = res["rows"]
        out["rmsim.row.intervals"] = M.sweep_simulated_intervals(table)
        # Idle rows of the first model simulate the idle reference; the rest
        # reuse it from the runner's cache.
        idle_rows = [i for i in rows if table[t.spans[i][4]]["policy"] == "Idle"
                     and table[t.spans[i][4]]["model"] == 0]
        idle_intervals = sum(table[t.spans[i][4]]["intervals"] for i in idle_rows)
        out["rmsim.idle_row.ns_per_interval"] = (
            sum(t.dur_ns(i) for i in idle_rows) / idle_intervals)

    # RM layers, from the replays (sweeps only: 0 on the service).
    snap_calls, snap_busy, _ = totals(t.series_named("rmsim.snapshot"))
    out["rmsim.snapshot.calls"] = snap_calls
    out["rmsim.snapshot.busy_s"] = snap_busy * 1e-9
    out["rmsim.snapshot.ns_per_call"] = snap_busy / snap_calls if snap_calls else 0.0
    invoke_calls = invoke_busy = infeasible = repeats = 0
    for p in POLICIES:
        ser = t.series_named(f"rm.invoke.{p}")
        calls, busy, ops = totals(ser)
        ns = t.durations(ser)
        out[f"rm.invoke.{p}.calls"] = calls
        out[f"rm.invoke.{p}.busy_s"] = busy * 1e-9
        out[f"rm.invoke.{p}.p50_ns"] = M.percentile(ns, 0.5) if ns else 0.0
        out[f"rm.invoke.{p}.p99_ns"] = M.tail_percentile(ns, 0.99)[1] if ns else 0.0
        out[f"rm.invoke.{p}.ops_per_call"] = ops / calls if calls else 0.0
        invoke_calls += calls
        invoke_busy += busy
        infeasible += sum(s["infeasible"] for s in ser)
        repeats += sum(s["memo_repeats"] for s in ser)
    out["rm.invoke.infeasible_ratio"] = infeasible / invoke_calls if invoke_calls else 0.0
    out["rm.memo_repeat_ratio"] = repeats / invoke_calls if invoke_calls else 0.0
    calls, busy, _ = totals(t.series_named("rm.local_opt"))
    out["rm.local_opt.calls"] = calls
    out["rm.local_opt.busy_s"] = busy * 1e-9
    out["rm.local_opt.ns_per_call"] = busy / calls if calls else 0.0
    calls, busy, ops = totals(t.series_named("rm.global_dp"))
    out["rm.global_dp.calls"] = calls
    out["rm.global_dp.busy_s"] = busy * 1e-9
    out["rm.global_dp.ns_per_call"] = busy / calls if calls else 0.0
    out["rm.global_dp.ops_per_call"] = ops / calls if calls else 0.0
    if service:
        out["rmsim.interval_sim.self_s"] = 0.0
    else:
        managed_ns = sum(t.dur_ns(i) for i in rows
                         if res["rows"][t.spans[i][4]]["policy"] != "Idle") / n_pass
        # Each timed call also holds about one clock read, which the calls
        # inside the simulator do not pay.
        timer_ns = res["context"]["timer_ns"] * (snap_calls + invoke_calls)
        out["rmsim.interval_sim.self_s"] = (
            managed_ns - (snap_busy + invoke_busy - timer_ns)) * 1e-9
        info.append("rmsim.interval_sim.self_s is derived: managed-row time "
                    "minus the replayed snapshot and invoke time (less one "
                    f"{res['context']['timer_ns']} ns clock read per call)")

    out["rmsim.shard.roundtrip_s"] = sum(
        t.dur_ns(i) for i in t.named("rmsim.shard")) * 1e-9
    out["rmsim.shard.bytes"] = res["shard_bytes"]

    untraced = statistics.median(res["untraced_pass_ns"])
    traced = statistics.median(res["traced_pass_ns"])
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    info.append(f"tracing overhead: median traced pass {traced * 1e-9:.4f} s vs "
                f"untraced {untraced * 1e-9:.4f} s over {n_pass} pairs")
    return out, info


# ---------------------------------------------------------------------------

def main():
    args = parse_args()
    start = time.monotonic()
    root = Path.cwd()
    check_layout(root)
    bench = json.loads((root / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    if set(layers) != {m["name"] for m in bench["per_layer"]}:
        die(2, "perfbench/layers.json and BENCHMARK.json per_layer disagree")
    self_check()
    built = build(root)
    limit = BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S
    rc, res, samples = run_program(root, args, start + limit - 10)

    ctx = res["context"]
    commit, digest = source_identity(root)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"host: nproc {ctx['nproc']}, cpu '{ctx['cpu_model']}', simd "
          f"{ctx['simd_level']}, build {ctx['build_type']}, compiler "
          f"{ctx['compiler']}, commit {commit}, sources {digest}, threads: "
          f"timed {res.get('timed_threads', 1)}, setup {ctx['setup_threads']}")
    if not ctx["optimized"]:
        print("WARNING: not an optimized build - timings are not comparable "
              "with optimized runs", flush=True)

    if args.trace:
        values, info = per_layer(res, samples)
        specs = bench["per_layer"]
    else:
        values, info = end_to_end(res, samples)
        specs = bench["end_to_end"]
    metrics = {}
    missing = []
    for spec in specs:
        name = spec["name"]
        if name not in values:
            missing.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        note = ""
        if args.trace and args.workload not in layers[name]["workloads"]:
            note = "  (not applicable on this workload)"
        print(f"  {name} = {values[name]:.6g} {spec['unit']}{note}")
    for line in info:
        print(f"  note: {line}")
    for m in res["messages"]:
        print(f"  check failed: {m}")
    if missing:
        print(f"perfbench: metrics not produced: {', '.join(missing)}",
              file=sys.stderr)

    correct = rc == 0 and res["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
