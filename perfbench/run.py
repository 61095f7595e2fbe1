#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds perfbench/ (a Go module of
its own that imports the repository's packages), simulates the workload's
input captures from the seed in a separate process, measures the workload
in a third process, and prints a readable report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones.
--workload all runs every workload and prints one table. Everything it
writes goes under .bench_build/, except that --record-answers rewrites
perfbench/answers.json. README.md explains the workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin", "perfbench")
ANSWERS = os.path.join(HERE, "answers.json")
WORKLOADS = ["paper_cold", "batch_warm"]

# A workload's inputs are one of INPUT_SETS simulated sets: --seed picks
# set seed % INPUT_SETS. answers.json holds every set's recorded answers,
# so every op's answer is checked bit for bit, whatever the seed.
INPUT_SETS = 16

# Every run must end within this many seconds, build excluded.
RUN_LIMIT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_per_op"):
        return "MB"
    if name.endswith(("_ratio", "_share", "_over_p50", "overhead")):
        return "ratio"
    if name == "dist_geomean":
        return "dtw"
    if name in ("label_accuracy", "fit_vs_fine_tuned"):
        return "fraction"
    return "count"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    return env


def check_tree():
    """The benchmark builds the program from source: it needs the
    repository around it and a Go toolchain."""
    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a checkout of the repository root" % need)
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")


def build(env):
    p = subprocess.run(["go", "build", "-buildvcs=false", "-o", BIN, "."],
                       cwd=HERE, env=env, capture_output=True, text=True, timeout=880)
    if p.returncode != 0:
        fail("build failed:\n" + p.stderr)


def revision():
    """The git commit when there is one, plus a digest of the program's
    sources, so runs outside git still name what they measured."""
    h = hashlib.sha256()
    for top in ("go.mod", "internal", "cmd", "perfbench"):
        base = os.path.join(ROOT, top)
        files = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs if f.endswith((".go", ".py")))
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    rev = "src:" + h.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            p = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
            if p.returncode == 0:
                rev = "git:" + p.stdout.strip() + " " + rev
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def inputs(env, workload, seed, deadline):
    """Generates the workload's captures for this seed, keeping one
    generated set per workload."""
    root = os.path.join(BUILD, "inputs")
    d = os.path.join(root, "%s-seed%d" % (workload, seed))
    if os.path.exists(os.path.join(d, "manifest.json")):
        return d
    os.makedirs(root, exist_ok=True)
    for old in os.listdir(root):
        if old.startswith(workload + "-seed"):
            shutil.rmtree(os.path.join(root, old))
    p = subprocess.run([BIN, "gen", "-workload", workload, "-seed", str(seed), "-dir", d + ".tmp"],
                       cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=max(1, deadline - time.time()))
    if p.returncode != 0:
        fail("input generation failed:\n" + p.stderr)
    os.rename(d + ".tmp", d)
    return d


def record_answers(out):
    """Stores this run's answers (handler and distance bits, or label and
    nearest-distance bits, per input) in answers.json as the ones later
    runs of the input set must give."""
    if out["failed"]:
        fail("not recording answers: %d ops failed" % out["failed"])
    table = {}
    if os.path.exists(ANSWERS):
        with open(ANSWERS) as f:
            table = json.load(f)
    table.setdefault(out["workload"], {})[str(out["seed"])] = out["answers"]
    with open(ANSWERS + ".tmp", "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(ANSWERS + ".tmp", ANSWERS)


def counter_check(out):
    """Compares a traced run's work counters with an earlier traced run of
    the same sources, workload and input set. Returns the differences."""
    fdir = os.path.join(BUILD, "fingerprints")
    os.makedirs(fdir, exist_ok=True)
    src = out["host"]["commit"].split("src:")[-1]
    path = os.path.join(fdir, "%s-set%d-%s.json" % (out["workload"], out["seed"], src))
    diffs = []
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev != out["counters"]:
            diffs.append("counters: %s then %s" % (prev, out["counters"]))
    with open(path, "w") as f:
        json.dump(out["counters"], f, sort_keys=True)
    return diffs


def run_one(env, workload, seed, seconds, traced, rev, record):
    deadline = time.time() + RUN_LIMIT_S
    d = inputs(env, workload, seed % INPUT_SETS, deadline)
    cmd = [BIN, "run", "-dir", d, "-seconds", str(seconds), "-commit", rev]
    if traced:
        cmd.append("-trace")
    if not record:
        cmd += ["-expect", ANSWERS]
    p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=max(1, deadline - time.time()))
    if p.returncode != 0 or not p.stdout.strip():
        fail("%s run failed:\n%s" % (workload, p.stderr))
    out = json.loads(p.stdout.strip().splitlines()[-1])
    out["run_seed"] = seed
    if record:
        record_answers(out)
    diffs = []
    if traced:
        diffs += counter_check(out)
        diffs += ["counters between rounds: " + d for d in out.get("counter_diffs") or []]
    mine = {"answers": out["answers"], "counters": out.get("counters")}
    out["fingerprint"] = hashlib.sha256(json.dumps(mine, sort_keys=True).encode()).hexdigest()[:16]
    out["fingerprint_diffs"] = diffs
    return out


def report(out, traced):
    h = out["host"]
    print("== %s seed=%d (input set %d): %d ops in %d measured rounds, %d attempted, %d failed" % (
        out["workload"], out["run_seed"], out["seed"], out["ops"], out["rounds"], out["attempted"], out["failed"]))
    print("host: GOMAXPROCS=%d nproc=%d cpu=%r %s rev=%s" % (
        h["gomaxprocs"], h["nproc"], h["cpu_model"], h["go_version"], h["commit"]))
    print("host.ref_s before=%.4f after=%.4f (diagnostic, never gated)" % (h["ref_before_s"], h["ref_after_s"]))
    for e in out.get("errors") or []:
        print("error: " + e)
    for e in out["fingerprint_diffs"]:
        print("fingerprint mismatch: " + e)
    print("fingerprint %s counters %s" % (out["fingerprint"], out.get("counters", "(traced runs only)")))
    for name in E2E_UNITS:
        print("  %-34s %14.6g %s" % (name, out["end_to_end"][name], E2E_UNITS[name]))
    if traced:
        layer = out["per_layer"]
        total = layer["profile.cpu_s"]
        print("per-layer CPU per op (profile total %.6g s; dominant layer: %s)" % (total, out["dominant_layer"]))
        for name in sorted(layer):
            if name.startswith("layer."):
                share = layer[name] / total if total else 0
                print("  %-34s %14.6g s  %5.1f%%" % (name, layer[name], 100 * share))
        print("  other (no layer frame): %.6g s per op" % layer["layer.other.cpu_s"])
        for name in sorted(layer):
            if not name.startswith("layer."):
                print("  %-34s %14.6g %s" % (name, layer[name], layer_unit(name)))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-answers", action="store_true",
                    help="store this run's answers in answers.json as the expected ones")
    a = ap.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")

    check_tree()
    env = go_env()
    build(env)
    rev = revision()
    traced = a.trace == 1
    names = WORKLOADS if a.workload == "all" else [a.workload]
    outs = []
    for w in names:
        out = run_one(env, w, a.seed, a.seconds, traced, rev, a.record_answers)
        report(out, traced)
        outs.append(out)
    if len(outs) > 1:
        print("end-to-end metrics by workload:")
        print("  %-16s %-10s" % ("metric", "unit") + "".join("%18s" % w for w in names))
        for m, u in E2E_UNITS.items():
            print("  %-16s %-10s" % (m, u) + "".join("%18.6g" % o["end_to_end"][m] for o in outs))

    metrics = {}
    for o in outs:
        src = o["per_layer"] if traced else o["end_to_end"]
        for name, v in src.items():
            key = name if len(outs) == 1 else o["workload"] + "/" + name
            metrics[key] = {"value": v, "unit": layer_unit(name) if traced else E2E_UNITS[name]}
    failed = sum(o["failed"] for o in outs)
    print(json.dumps({
        "correct": failed == 0 and not any(o["fingerprint_diffs"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
