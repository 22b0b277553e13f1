#!/usr/bin/env python3
"""Benchmark of the trace -> train -> replay pipeline.

Run from the root of the repository:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It builds perfbench/lpperf.exe with dune, generates the workload's input
traces from the seed (cached under perfbench/_work/), and runs the workload
as a closed loop with one client: one fresh single-domain lpperf process at
a time, the next started only after the previous one exits, for about S
seconds.  Every process's output is checked byte for byte against the
pinned output in pins.json.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end list (medians over the loop's processes);
with --trace 1 they are its per_layer list, from one traced process.
README.md describes the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
WORK = os.path.join(BENCH, "_work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "lpperf.exe")

# Each workload's trace files, as (program, input), and the scale they are
# generated at.  tune-perl and stream-gawk-online run scaled-down traces so
# that one run holds at least five fresh processes: a run of one process
# spreads 14-25% from seed to seed on a 2-core box.  The audit reads the
# sharded v3 form of its traces.
INPUTS = {
    "simulate-perl": ([("perl", "train"), ("perl", "test")], 1.0),
    "stream-gawk-online": ([("gawk", "test")], 0.4),
    "tune-perl": ([("perl", "train"), ("perl", "test")], 0.2),
    "audit-perl": ([("perl", "train"), ("perl", "test")], 1.0),
}

# A seed picks one of VARIANTS input sets: the workload's scale times a
# factor in a narrow band (1.0 down to 0.9825) and a Tune.search seed.
# Seed 0 is the workload's base scale and lpalloc tune's default seed 42.
# The set is finite so that every variant's outputs can be pinned.
VARIANTS = 8
SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 170


def variant(seed):
    return seed % VARIANTS


def scale_of(workload, v):
    return round(INPUTS[workload][1] * (1.0 - 0.0025 * v), 6)


def tune_seed_of(v):
    return 42 + v


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin", "perfbench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the repository root: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/lpperf.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("dune build failed")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def prepare_inputs(workload, v, regenerate):
    """Make sure the variant's input traces exist; returns the directory and
    the seconds the workload programs ran (0 when every file was cached).
    With regenerate, the traces are made again and must equal the cached
    ones byte for byte."""
    scale = scale_of(workload, v)
    d = os.path.join(WORK, "inputs", "scale-%s" % scale)
    os.makedirs(d, exist_ok=True)
    generate_s = 0.0
    for program, inp in INPUTS[workload][0]:
        base = "%s-%s" % (program, inp)
        # perl traces serve the audit too, so they always get the v3 form
        produced = [base + ".lpt"] + ([base + ".v3.lpt"] if program == "perl" else [])
        if not regenerate and all(os.path.exists(os.path.join(d, f)) for f in produced):
            continue
        tmp = tempfile.mkdtemp(dir=WORK)
        try:
            cmd = [EXE, "gen", "--program", program, "--input", inp,
                   "--scale", repr(scale), "--dir", tmp]
            if program == "perl":
                cmd.append("--v3")
            r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S)
            if r.returncode != 0:
                fail("generating %s failed" % base)
            generate_s += json.loads(r.stdout.decode().strip().splitlines()[-1])["generate_s"]
            for f in produced:
                cached = os.path.join(d, f)
                if os.path.exists(cached) and sha256(cached) != sha256(os.path.join(tmp, f)):
                    fail("regenerated %s differs from the cached copy" % f)
                os.replace(os.path.join(tmp, f), cached)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return d, generate_s


class Run:
    """One finished lpperf process."""

    def __init__(self, ok, wall, rss_mb, line):
        self.ok = ok
        self.wall = wall
        self.rss_mb = rss_mb
        self.line = line


def output_path():
    return os.path.join(WORK, "out-%d" % os.getpid())


def run_process(workload, inputs, v, pin, setup_only=False, trace=None, run_id=None):
    out = output_path()
    cmd = [EXE, "run", "--workload", workload, "--dir", inputs,
           "--tune-seed", str(tune_seed_of(v)), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", trace, "--run-id", run_id]
    env = dict(os.environ, LPALLOC_DOMAINS="1")
    if os.path.exists(out):
        os.remove(out)
    t0 = time.time()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    killer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
    killer.start()
    stdout = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.time() - t0
    killer.cancel()
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    line = None
    ok = p.returncode == 0
    if ok:
        try:
            line = json.loads(stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            ok = False
    if ok and not setup_only:
        ok = os.path.exists(out) and sha256(out) == pin
        if not ok:
            print("perfbench: %s output differs from its pin (%s)" % (workload, out),
                  file=sys.stderr)
    if ok and line.get("setup_end") is not None:
        line["setup_s"] = line["setup_end"] - t0
    return Run(ok, wall, usage.ru_maxrss / 1024.0, line)


def closed_loop(workload, inputs, v, pin, seconds):
    """Full runs back to back while the next is expected to end within
    `seconds`, then set-up-only runs until SETUP_SAMPLES set-ups are timed."""
    runs = []
    start = time.time()
    while True:
        runs.append(run_process(workload, inputs, v, pin))
        typical = statistics.median(r.wall for r in runs)
        if time.time() - start + typical > seconds:
            break
    setups = [r.line["setup_s"] for r in runs if r.ok]
    extra = []
    while len(setups) < SETUP_SAMPLES and len(extra) < 2 * SETUP_SAMPLES:
        r = run_process(workload, inputs, v, pin, setup_only=True)
        extra.append(r)
        if r.ok:
            setups.append(r.line["setup_s"])
    return runs, extra, setups


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(attempted, failed, values, listed):
    units = {m["name"]: m["unit"] for m in listed}
    if set(values) != set(units):
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(values), sorted(units)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in sorted(values)},
    }))


def untraced(args, pin, inputs, v):
    runs, extra, setups = closed_loop(args.workload, inputs, v, pin, args.seconds)
    good = [r for r in runs if r.ok]
    attempted = len(runs) + len(extra)
    failed = attempted - len(good) - sum(1 for r in extra if r.ok)
    if not good or not setups:
        fail("no %s run succeeded" % args.workload)
    med = statistics.median
    values = {
        "wall_s": med(r.wall for r in good),
        "setup_s": med(setups),
        "sim_mev_per_s": med(r.line["events"] / (r.wall - r.line["setup_s"]) / 1e6
                             for r in good),
        "candidates_per_s": med(r.line["configs"] / r.wall for r in good),
        "peak_rss_mb": med(r.rss_mb for r in good),
        "ok_ratio": (attempted - failed) / attempted,
    }
    walls = sorted(r.wall for r in good)
    print("perfbench: %s seed %d: %d full processes, wall_s %s; %d set-ups"
          % (args.workload, args.seed, len(good), " ".join("%.3f" % w for w in walls),
             len(setups)), file=sys.stderr)
    report(attempted, failed, values, spec()["end_to_end"])


def traced(args, pin, inputs, v, generate_s):
    plain = run_process(args.workload, inputs, v, pin)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_file = os.path.join(WORK, "traces", "%s-seed%d.json" % (args.workload, args.seed))
    run_id = "%s/seed%d" % (args.workload, args.seed)
    t = run_process(args.workload, inputs, v, pin, trace=trace_file, run_id=run_id)
    if not t.ok:
        fail("the traced %s run failed" % args.workload)
    values = dict(t.line["metrics"])
    values["obs.overhead_ratio"] = (t.wall - t.line["probes_s"]) / plain.wall
    values["workloads.generate_s"] = generate_s
    print("perfbench: spans written to %s" % trace_file, file=sys.stderr)
    report(2, 0 if plain.ok else 1, values, spec()["per_layer"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    with open(os.path.join(BENCH, "pins.json")) as f:
        pins = json.load(f)
    v = variant(args.seed)
    pin = pins[args.workload][str(v)]
    os.makedirs(WORK, exist_ok=True)
    inputs, generate_s = prepare_inputs(args.workload, v, regenerate=args.trace == 1)
    try:
        if args.trace:
            traced(args, pin, inputs, v, generate_s)
        else:
            untraced(args, pin, inputs, v)
    finally:
        out = output_path()
        if os.path.exists(out):
            os.remove(out)


if __name__ == "__main__":
    main()
