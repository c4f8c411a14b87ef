#!/usr/bin/env python3
"""Host-performance benchmark of the SwapRAM reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exec-suite --seed 1 --seconds 15 --trace 0

It builds the benchmark program (perfbench/perfbench.ml) with dune, runs one
workload and checks its outputs, prints a human-readable report, and prints
as its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1. Every workload runs serially in one process;
setup_s, wall_s and ops_per_s are adjusted to a reference host speed by a
fixed probe kernel timed around every operation (see perfbench.ml), and raw
times are printed next to them. The full report, with host provenance, is written
to .perfbench/result-<workload>-seed<seed>-trace<t>.json, and a traced run's
spans to .perfbench/spans-<workload>-seed<seed>.json (Chrome trace format).

Other modes:

    python3 perfbench/run.py --self-test          # tiny runs; every check must be able to fail
    python3 perfbench/run.py --regen-expected 1-32  # recompute the committed digests
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORK = ".perfbench"
EXPECTED = os.path.join("perfbench", "expected.json")
LAYERS = os.path.join(HERE, "layers.json")
RUN_TIMEOUT_S = 170

WORKLOADS = ["exec-suite", "record-load", "dse-grid", "campaign"]

# End-to-end metrics of the final JSON line; every workload reports each.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
]

# Further end-to-end figures, printed in the report: raw host times next to
# the speed-adjusted ones above, and the workload-specific rates (from raw
# wall time) for the workloads they apply to.
REPORTED = {
    "raw_setup_s": ("s", WORKLOADS),
    "raw_wall_s": ("s", WORKLOADS),
    "op_fail_ratio": ("ratio", WORKLOADS),
    "sim_minstr_per_s": ("Minstr/s", ["exec-suite", "record-load"]),
    "record_mevents_per_s": ("Mevents/s", ["record-load"]),
    "trace_bytes_per_event": ("B/event", ["record-load"]),
    "dse_points_per_s": ("1/s", ["dse-grid"]),
    "campaign_trials_per_s": ("1/s", ["campaign"]),
}

OPS = {
    "exec-suite": "fresh Toolchain.run cells",
    "record-load": "record + load + exact cells",
    "dse-grid": "DSE grid points",
    "campaign": "fault-injection trials",
}

# Self-test perturbations: each names an expected value perfbench.exe can
# perturb; a run with it perturbed must report failed operations.
PERTURBATIONS = {
    "exec-suite": ["oracle", "baseline", "fit"],
    "record-load": ["oracle", "exact"],
    "dse-grid": ["digest", "sample"],
    "campaign": ["digest", "tally"],
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    for path in ["dune-project", "lib", os.path.join("bench", "baseline.json"),
                 os.path.join("perfbench", "perfbench.ml")]:
        if not os.path.exists(path):
            fail("run from the root of a source checkout (missing %s)" % path)


def build():
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/perfbench.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def source_revision():
    """Git revision when the checkout is a repository, plus a digest of the
    sources the benchmark builds, which identifies a checkout without .git."""
    rev = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    h = hashlib.sha1()
    for top in ["lib", "perfbench", "dune-project"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return rev, h.hexdigest()


def run_exe(args):
    """Run perfbench.exe; returns (its JSON result, its peak RSS in MB)."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out = []
    try:
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError
            if sel.select(timeout=min(left, 1.0)):
                line = proc.stdout.readline()
                if not line:
                    break
                out.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except (TimeoutError, KeyboardInterrupt):
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        fail("perfbench.exe stopped: interrupted or over %d s" % RUN_TIMEOUT_S)
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or not out:
        fail("perfbench.exe exited with code %d" % proc.returncode)
    return json.loads(out[-1]), usage.ru_maxrss / 1024.0


def exe_args(workload, seed, seconds, trace, work, tiny=False, perturb="",
                setups=3, passes=3, expected=EXPECTED, spans=""):
    a = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--setups", str(setups), "--passes", str(passes),
         "--work", work, "--expected", expected]
    if tiny:
        a.append("--tiny")
    if perturb:
        a += ["--perturb", perturb]
    if spans:
        a += ["--spans", spans]
    return a


def load_layers():
    with open(LAYERS) as fh:
        return json.load(fh)["metrics"]


def measure(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, "work-%s-%d" % (workload, os.getpid()))
    spans = os.path.join(WORK, "spans-%s-seed%d.json" % (workload, seed)) if trace else ""
    os.makedirs(work, exist_ok=True)
    try:
        res, rss_mb = run_exe(exe_args(workload, seed, seconds, trace, work, spans=spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rev, src = source_revision()
    res["provenance"] = {
        "nproc": os.cpu_count(),
        "ocaml": res["ocaml"],
        "git_revision": rev,
        "source_sha1": src,
        "jobs": res["jobs"],
        "host": os.uname().nodename,
    }
    res["end_to_end"]["peak_rss_mb"] = rss_mb
    correct = res["failed"] == 0 and res["attempted"] > 0
    if trace:
        units = {m["name"]: m["unit"] for m in load_layers()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
    else:
        e2e = res["end_to_end"]
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    report(res, trace)
    with open(os.path.join(WORK, "result-%s-seed%d-trace%d.json" % (workload, seed, trace)), "w") as fh:
        json.dump(res, fh, indent=1)
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def report(res, trace):
    w = res["workload"]
    p = res["provenance"]
    print("perfbench %s  seed %d  %s" % (w, res["seed"], "traced run" if trace else "untraced run"))
    print("  host: nproc %s, OCaml %s, jobs %s, git %s, sources %s" % (
        p["nproc"], p["ocaml"], p["jobs"], p["git_revision"] or "n/a", p["source_sha1"][:12]))
    passes = res["passes"]
    print("  passes: %d (%s), operations: %d %s, failed %d" % (
        len(passes), ", ".join("%s%.2fs" % ("T " if q["traced"] else "", q["total_s"]) for q in passes),
        res["attempted"], OPS[w], res["failed"]))
    print("  digests: %s (%s)" % (", ".join(res["digests"]) or "none",
                                  "committed" if res["digest_committed"] else "no committed value"))
    e2e = res["end_to_end"]
    units = dict(END_TO_END)
    for k, _ in END_TO_END:
        adjusted = k != "peak_rss_mb"
        print("  %-24s %14.6g %s%s" % (k, e2e[k], units[k], "  (speed-adjusted)" if adjusted else ""))
    for k, (unit, ws) in REPORTED.items():
        if w in ws:
            print("  %-24s %14.6g %s" % (k, e2e[k], unit))
    if trace:
        for m in load_layers():
            print("  %-34s %14.6g %s" % (m["name"], res["per_layer"][m["name"]], m["unit"]))
    for f in res["failures"]:
        print("  FAILED: " + f)


def self_test():
    """Tiny runs of every workload: unperturbed they must pass every check
    (untraced and traced), and each perturbed expected value must make
    op_fail_ratio > 0."""
    build()
    ok = True
    os.makedirs(WORK, exist_ok=True)

    def tiny_run(workload, perturb="", trace=0):
        work = os.path.join(WORK, "selftest-%s-%d" % (workload, os.getpid()))
        os.makedirs(work, exist_ok=True)
        try:
            res, _ = run_exe(exe_args(workload, 1, 0, trace, work, tiny=True, perturb=perturb,
                                            setups=1, passes=1))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return res

    layer_names = [m["name"] for m in load_layers()]
    for w in WORKLOADS:
        for trace in (0, 1):
            res = tiny_run(w, trace=trace)
            good = res["failed"] == 0 and res["attempted"] > 0 and res["digest_committed"] == (
                w in ("dse-grid", "campaign"))
            if trace:
                good = good and sorted(res["per_layer"]) == sorted(layer_names)
            ok = ok and good
            print("%s %-12s %s: %d/%d failed%s" % ("ok  " if good else "FAIL", w,
                  "traced" if trace else "untraced", res["failed"], res["attempted"],
                  "" if not res["failures"] else " (%s)" % res["failures"][0]))
        for perturb in PERTURBATIONS[w]:
            res = tiny_run(w, perturb=perturb)
            ratio = res["failed"] / res["attempted"]
            good = ratio > 0
            ok = ok and good
            print("%s %-12s perturbed %-8s: op_fail_ratio %.3f" % ("ok  " if good else "FAIL", w, perturb, ratio))
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as fh:
            bench = json.load(fh)
        good = ([m["name"] for m in bench["per_layer"]] == layer_names
                and [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
                and [x["name"] for x in bench["workloads"]] == WORKLOADS)
        ok = ok and good
        print("%s BENCHMARK.json agrees with perfbench/layers.json and run.py" % ("ok  " if good else "FAIL"))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def regen_expected(seeds):
    """Recompute the committed digests: the DSE frontier digest and the
    campaign report digest at the given seeds (full size), and at seed 1 for
    the self-test's tiny size."""
    build()
    os.makedirs(WORK, exist_ok=True)
    out = {"about": "Committed output digests, keyed by size, workload and seed. "
                    "Regenerate with: python3 perfbench/run.py --regen-expected 1-32",
           "full": {}, "tiny": {}}
    jobs = [("tiny", w, 1) for w in ("dse-grid", "campaign")]
    jobs += [("full", w, s) for w in ("dse-grid", "campaign") for s in seeds]
    key = {"dse-grid": "frontier", "campaign": "campaign"}
    for size, w, s in jobs:
        work = os.path.join(WORK, "regen-%d" % os.getpid())
        os.makedirs(work, exist_ok=True)
        try:
            res, _ = run_exe(exe_args(w, s, 0, 0, work, tiny=size == "tiny", setups=1,
                                            passes=1, expected=""))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if res["failed"] or len(res["digests"]) != 1:
            fail("%s %s seed %d: %s" % (size, w, s, res["failures"][:1] or res["digests"]))
        out[size].setdefault(w, {})[str(s)] = {key[w]: res["digests"][0]}
        print("%s %s seed %d: %s" % (size, w, s, res["digests"][0]), flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def on_sigterm(_signum, _frame):
    raise KeyboardInterrupt


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--regen-expected", metavar="LO-HI")
    a = ap.parse_args()
    check_checkout()
    if a.self_test:
        sys.exit(self_test())
    if a.regen_expected:
        lo, hi = (int(x) for x in a.regen_expected.split("-"))
        regen_expected(range(lo, hi + 1))
        return
    if not a.workload:
        fail("--workload is required")
    build()
    result = measure(a.workload, a.seed, a.seconds, a.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
