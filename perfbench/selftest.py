#!/usr/bin/env python3
"""Self-tests of the benchmark, and the tool that writes its pins.

Run from the root of the repository:

    python3 perfbench/selftest.py          # the self-tests (a few minutes)
    python3 perfbench/selftest.py --pin    # rewrite pins.json from lpalloc

pins.json holds, per workload and input variant, the SHA-256 of what the
matching lpalloc command sequence prints.  run.py compares every lpperf
output with it, so a change that moves any simulated statistic fails the
benchmark, and an lpperf output that passes is byte-identical to lpalloc's.

The self-tests check that
  1. every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and is
     used once, and pins.json covers every workload and variant;
  2. on the default seed, lpalloc's outputs on the benchmark's input files
     equal the pins, so lpperf provably runs the user's program;
  3. run.py prints exactly BENCHMARK.json's end_to_end metrics, with their
     units, on every workload at a held-out seed, and that seed runs clean
     (correct, no failed run, ok_ratio 1);
  4. run.py --trace 1 prints exactly the per_layer metrics, with their
     units, on every workload, and its outputs match the pins.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
import run  # noqa: E402  (run.py, the benchmark itself)

LPALLOC = os.path.join(run.ROOT, "_build", "default", "bin", "lpalloc.exe")
ALLOCATORS = "first-fit,best-fit,bsd,segfit,arena"
HELD_OUT_SEED = 1013


def lpalloc_output(workload, d, v):
    """stdout of the lpalloc commands the workload stands for."""
    env = dict(os.environ, LPALLOC_DOMAINS="1")

    # audit exits 1 when it finds an error-severity diagnostic in
    # well-formed input; its JSON is the output either way
    def lp(*args, allowed=(0,)):
        r = subprocess.run([LPALLOC] + list(args), stdout=subprocess.PIPE, env=env)
        if r.returncode not in allowed:
            raise SystemExit("lpalloc %s exited %d" % (args[0], r.returncode))
        return r.stdout

    f = lambda name: os.path.join(d, name)  # noqa: E731
    if workload == "simulate-perl":
        return lp("simulate", "--train", f("perl-train.lpt"), "--test", f("perl-test.lpt"),
                  "--allocators", ALLOCATORS, "--json")
    if workload == "stream-gawk-online":
        return lp("simulate", "--stream", "--oracle", "online", "--test", f("gawk-test.lpt"),
                  "--allocators", ALLOCATORS, "--json")
    if workload == "tune-perl":
        return lp("tune", "--train", f("perl-train.lpt"), "--test", f("perl-test.lpt"),
                  "--seed", str(run.tune_seed_of(v)),
                  "--generations", "1", "--population", "4", "--format", "json")
    model = tempfile.NamedTemporaryFile(dir=run.WORK, suffix=".lpmodel", delete=False).name
    try:
        lp("train", "--sharded", f("perl-train.v3.lpt"), "--save", model)
        return lp("audit", "--sharded", "--model", model, f("perl-test.v3.lpt"), "--json",
                  allowed=(0, 1))
    finally:
        os.remove(model)


def pin_of(workload, v):
    d, _ = run.prepare_inputs(workload, v, regenerate=False)
    return hashlib.sha256(lpalloc_output(workload, d, v)).hexdigest()


def build_lpalloc():
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(["dune", "build", "--root", ".", "./perfbench/lpperf.exe",
                    "./bin/lpalloc.exe"], check=True, env=env)


def write_pins():
    pins = {w: {str(v): pin_of(w, v) for v in range(run.VARIANTS)} for w in sorted(run.INPUTS)}
    with open(os.path.join(run.BENCH, "pins.json"), "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")


def bench(workload, seed, trace):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    assert r.returncode == 0, "run.py %s --trace %d exited %d" % (workload, trace, r.returncode)
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def check_metrics(result, listed, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    units = {m["name"]: m["unit"] for m in listed}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == units, "%s: metrics/units %s != BENCHMARK.json %s" % (what, got, units)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), what


def main():
    os.makedirs(run.WORK, exist_ok=True)
    build_lpalloc()
    if sys.argv[1:] == ["--pin"]:
        write_pins()
        return
    spec = run.spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names), names
    assert len(names) == len(set(names)), "a metric name is used twice"
    with open(os.path.join(run.BENCH, "pins.json")) as f:
        pins = json.load(f)
    assert set(pins) == set(run.INPUTS), sorted(pins)
    assert all(set(p) == {str(v) for v in range(run.VARIANTS)} for p in pins.values())
    print("ok  metric names and pin coverage")
    for w in sorted(run.INPUTS):
        assert pin_of(w, 0) == pins[w]["0"], "%s: lpalloc output differs from the pin" % w
    print("ok  lpalloc outputs on the default seed equal the pins")
    for w in sorted(run.INPUTS):
        r = bench(w, HELD_OUT_SEED, 0)
        check_metrics(r, spec["end_to_end"], w)
        assert r["correct"] and r["failed"] == 0, (w, r)
        assert r["metrics"]["ok_ratio"]["value"] == 1.0, (w, r)
        print("ok  %s: end-to-end metrics, held-out seed %d clean" % (w, HELD_OUT_SEED))
    for w in sorted(run.INPUTS):
        r = bench(w, 0, 1)
        check_metrics(r, spec["per_layer"], w + " --trace 1")
        assert r["correct"] and r["failed"] == 0, (w, r)
        print("ok  %s: per-layer metrics from the traced run" % w)


if __name__ == "__main__":
    main()
