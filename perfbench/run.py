#!/usr/bin/env python3
"""PortLand simulator benchmark: boot, traffic and chaos workloads.

    python3 perfbench/run.py --workload boot|traffic|chaos --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. It builds perfbench/bench.exe
with dune (into $CARGO_TARGET_DIR when set, else _build), then runs the
workload in fresh single-threaded processes, one after another, for about
S seconds, and reports medians over those repetitions. Repetition i
simulates input set i mod 4, drawn from the seed.

--trace 0 prints the end-to-end metrics (setup_s, work_s, peak_heap_mb).
--trace 1 alternates a plain and a traced process on the same inputs and
prints the per-layer metrics: counts from the plain run, layer times from
the traced run, and the tracing overhead between the two.

Every repetition is checked: the workload's own correctness checks must
pass, and every repetition of one input set, traced or not, must reach
the same Fabric.control_digest (and verifier digest, for chaos). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("boot", "traffic", "chaos")
END_TO_END = (("setup_s", "s"), ("work_s", "s"), ("peak_heap_mb", "MB"))
# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("fabric_manager.neighbor_report_us", "us"),
    ("fabric_manager.propose_position_us", "us"),
    ("fabric_manager.ctrl_s", "s"),
    ("fabric_manager.ctrl_msgs", "count"),
    ("fabric_manager.mcast_recomputes", "count"),
    ("fabric_manager.fault_broadcasts", "count"),
    ("fabric_manager.reports", "count"),
    ("ldp.ldm_frames", "count"),
    ("ldp.ldm_s", "s"),
    ("switch_agent.ctrl_msgs", "count"),
    ("switch_agent.ctrl_s", "s"),
    ("switch_agent.fault_update_us", "us"),
    ("switch_agent.table_recomputes", "count"),
    ("switchfab.switch_frames", "count"),
    ("switchfab.switch_frame_us", "us"),
    ("switchfab.lookups", "count"),
    ("switchfab.punts", "count"),
    ("switchfab.drops", "count"),
    ("host_agent.frames", "count"),
    ("host_agent.frame_us", "us"),
    ("eventsim.events", "count"),
    ("eventsim.ns_per_event", "ns"),
    ("eventsim.timer_s", "s"),
    ("ctrl.to_fm_bytes", "bytes"),
    ("ctrl.to_switch_bytes", "bytes"),
    ("verify.full_runs", "count"),
    ("verify.full_run_ms", "ms"),
    ("verify.refreshes", "count"),
    ("verify.refresh_ms", "ms"),
    ("gc.alloc_mb", "MB"),
    ("gc.major_collections", "count"),
    ("fabric.create_s", "s"),
    ("fabric.failure_api_s", "s"),
    ("fabric.probe_s", "s"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_s", "s"),
)
# A run must end within 180 s of its start (the build aside).
RUN_DEADLINE_S = 175
INPUT_SETS = 4


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", build_dir,
           "./perfbench/bench.exe"]
    proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed: " + " ".join(cmd))
    return os.path.join(root, build_dir, "default", "perfbench", "bench.exe")


def source_digest(root):
    """Identifies the code under test where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def output_of(cmd, root):
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def host_block(root, args):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        commit = output_of(["git", "rev-parse", "HEAD"], root)
    return {
        "cores": len(os.sched_getaffinity(0)),
        "ocaml": output_of(["ocamlfind", "ocamlopt", "-version"], root)
        or output_of(["ocamlopt", "-version"], root),
        "commit": commit or source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
    }


def run_once(exe, root, workload, seed, mode, deadline):
    cmd = [exe, workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s %s timed out" % (workload, mode))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s %s exited with %d" % (workload, mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(rep):
    line = "%-6s seed=%d setup_s=%.4f work_s=%.4f probe_s=%.4f attempted=%d failed=%d digest=%s" % (
        rep["mode"], rep["seed"], rep["setup_s"], rep["work_s"], rep["host_probe_s"],
        rep["attempted"], rep["failed"], rep["control_digest"])
    return line + (" verify_digest=" + rep["verify_digest"] if rep["verify_digest"] else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a PortLand source checkout (%s is missing)" % need)
    exe = build(root)

    modes = ("plain", "traced") if args.trace else ("plain",)
    reps = {m: [] for m in modes}
    problems = []
    start = time.monotonic()
    rounds = 0
    # Stop when another round would end nearer past the budget than this
    # one ends before it, so a run lasts --seconds on average.
    while not rounds or (time.monotonic() - start) * (1 + 0.5 / rounds) < args.seconds:
        # Round i simulates input set i mod INPUT_SETS, all drawn from the
        # seed: medians then average over several inputs (chaos campaigns
        # differ in length by seed), and every input set that recurs must
        # reproduce its simulation exactly.
        input_seed = args.seed * INPUT_SETS + rounds % INPUT_SETS
        rounds += 1
        for mode in modes:
            rep = run_once(exe, root, args.workload, input_seed, mode,
                           start + RUN_DEADLINE_S)
            reps[mode].append(rep)
            print(describe(rep), flush=True)
            problems += ["%s: %s" % (mode, p) for p in rep["problems"]]
            if mode == "traced" and rep["unclaimed_tags"]:
                problems.append("traced: tags no layer claims: %s" % rep["unclaimed_tags"])

    # One input, one simulation: every repetition of an input set, traced
    # or not, must reach the same control state (and verifier verdict).
    first = {}
    for mode in modes:
        for rep in reps[mode]:
            ref = first.setdefault(rep["seed"], rep)
            for key in ("control_digest", "verify_digest"):
                if rep[key] != ref[key]:
                    problems.append("seed %d: %s run reached %s %s, first run %s"
                                    % (rep["seed"], mode, key, rep[key], ref[key]))

    def med(mode, key, sub=None):
        return statistics.median((r[sub] if sub else r)[key] for r in reps[mode])

    if args.trace:
        traced_total = statistics.median(r["setup_s"] + r["work_s"] for r in reps["traced"])
        plain_total = statistics.median(r["setup_s"] + r["work_s"] for r in reps["plain"])
        # Counts are exact, so they come from input set 0, which every run
        # has; times are medians over all traced repetitions.
        counts = dict(reps["plain"][0]["counts"], **reps["traced"][0]["counts"])
        values = {"trace.overhead_s": traced_total - plain_total}
        for name, _ in PER_LAYER:
            if name in counts:
                values[name] = counts[name]
            elif name in reps["traced"][0]["layers"]:
                values[name] = med("traced", name, "layers")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": med("plain", name), "unit": unit} for name, unit in END_TO_END}

    host = host_block(root, args)
    host["host_probe_s"] = [r["host_probe_s"] for m in modes for r in reps[m]]
    host["repetitions"] = {m: len(reps[m]) for m in modes}
    print("host " + json.dumps(host))
    for p in problems:
        print("problem: " + p)
    all_reps = [r for m in modes for r in reps[m]]
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
