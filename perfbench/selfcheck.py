#!/usr/bin/env python3
"""Self-check of the repository benchmark.  Run from the repository root:

    python3 perfbench/selfcheck.py [--static]

Checks that BENCHMARK.json is well formed, that every per-layer ->
end-to-end mapping in perfbench/layers.json names metrics and workloads
that exist, then (unless --static) runs every workload briefly, traced and
untraced, and checks that each run emits every metric named in
BENCHMARK.json with its unit and better direction, and that a directory
holding only BENCHMARK.json and the benchmark's files makes it fail
without printing a result.  Exits non-zero on the first problem.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("selfcheck: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys: %s" % sorted(spec))
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail("workload entry %r" % w)
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail("end_to_end entry %r" % m)
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per_layer entry %r" % m)
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail("metric %r" % m)
    for n in names:
        if not NAME.match(n):
            fail("bad name %r" % n)
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")


def check_mappings(spec, layers):
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    covered = set(layers["diagnostic"])
    for mp in layers["mappings"]:
        for m in mp["metrics"]:
            if m not in per_layer:
                fail("layers.json maps unknown per-layer metric %s" % m)
            covered.add(m)
        for m in mp["moves"]:
            if m not in e2e:
                fail("layers.json names unknown end-to-end metric %s" % m)
        for w in mp["workloads"]:
            if w not in workloads:
                fail("layers.json names unknown workload %s" % w)
    if covered != per_layer:
        fail("per-layer metrics without a mapping: %s" % sorted(per_layer - covered))


def run(args, cwd="."):
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines(), p.stderr


def check_run(spec, workload, trace):
    rc, out, err = run(["--workload", workload, "--seed", "1", "--seconds", "2",
                        "--trace", str(trace)])
    where = "%s --trace %d" % (workload, trace)
    if rc != 0 or len(out) < 2:
        fail("%s exited %d\n%s" % (where, rc, err[-2000:]))
    result = json.loads(out[-1])
    detail = json.loads(out[-2])["detail"]
    if set(result) != RESULT_KEYS or not result["correct"]:
        fail("%s result %s" % (where, out[-1][:500]))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and result["failed"] >= 0):
        fail("%s attempted/failed" % where)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        fail("%s emits %s" % (where, list(got)))
    for m in wanted:
        v = got[m["name"]]
        if set(v) != {"value", "unit"} or v["unit"] != m["unit"]:
            fail("%s metric %s: %r" % (where, m["name"], v))
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail("%s metric %s is not a number" % (where, m["name"]))
        if not trace and v["value"] == 0:
            fail("%s end-to-end metric %s reads 0" % (where, m["name"]))
        if detail["better"].get(m["name"]) != m["better"]:
            fail("%s metric %s: better is %r" % (where, m["name"], detail["better"].get(m["name"])))
    for key in ("inputs_digest", "env"):
        if key not in detail:
            fail("%s detail lacks %s" % (where, key))
    print("selfcheck: ok %s (%d ops)" % (where, result["attempted"]))


def check_isolated(spec):
    root = os.path.join(".bench_run", "isolated-%d" % os.getpid())
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    try:
        shutil.copy("BENCHMARK.json", root)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(root, path))
        rc, out, _ = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=root)
        if rc == 0 or (out and out[-1].startswith("{") and "metrics" in out[-1]):
            fail("the benchmark ran without the solver sources")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selfcheck: ok, fails without the solver sources")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join("perfbench", "layers.json")) as f:
        layers = json.load(f)
    check_spec(spec)
    check_mappings(spec, layers)
    print("selfcheck: ok, BENCHMARK.json and layers.json")
    if "--static" in sys.argv[1:]:
        return
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_isolated(spec)


if __name__ == "__main__":
    main()
