"""eqdom benchmark: one workload per call, inputs made from the seed.

    python3 bench/run.py --workload cli|certify --seed N --seconds S --trace 0|1

Run from the root of a checkout; eqdom is imported from its src/.  The
inputs are generated here without eqdom, written under bench/out/, and a
fresh worker process (bench/worker.py) sets up and times whole rounds of the
workload, checking every answer outside the timed region.  setup_s is the
median over SETUP_SAMPLES fresh processes.  Every time is scaled by the
worker's reference task (see worker.py), and the line before the result
gives the unscaled figures.  The last stdout line is the result as JSON;
with --trace 1 it carries the per-layer metrics instead of the end-to-end
ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check
import gen
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
WORKER = os.path.join(ROOT, "bench", "worker.py")
SETUP_SAMPLES = 7
DEADLINE_S = 170

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("peak_rss_mb", "MB"), ("exact_results", "count")]

# Generators of 12 isomorphism types of inverse subsemigroups of sim3, of
# orders 13-16, found by closing random partial injections.  Each run draws
# three random conjugates of each (other maps, same type; type 2 has only
# one) in a random element order, so seeds change the inputs but not the
# work, which follows the size of the unary clone (423 to 2,624 tables, noted
# per line).  With the catalog and three Rosenblatt checks a round has 47
# operations, so the median is the 24th and the p75 the 36th fastest: the
# second of the six type 4 and 5 verdicts, and the middle one of the three
# type 6 verdicts, the dearest of types 6-8.  Each figure then sits inside a
# group of near-equal operations, not on the edge between two groups.
CERTIFY_TYPES = [
    [(0, 1, 2), (-1, 2, 1), (2, -1, -1)],  # order 13, 652 tables
    [(0, 1, -1), (-1, 2, 1), (-1, 0, -1)],  # 13, 733
    [(1, 2, 0), (1, -1, -1), (-1, 1, -1)],  # 13, 1273
    [(1, 0, 2), (1, -1, 2), (1, 0, -1)],  # 14, 423
    [(1, -1, 2), (2, -1, -1)],  # 14, 1248
    [(-1, 2, -1), (1, 0, 2), (1, 0, -1)],  # 14, 1277
    [(-1, 2, -1), (1, 2, -1)],  # 14, 2074
    [(1, -1, 2), (2, -1, -1), (0, 1, 2)],  # 15, 1782
    [(-1, -1, 0), (0, 1, -1), (-1, 0, 2)],  # 15, 1797
    [(1, 2, -1), (0, -1, 2)],  # 15, 2557
    [(2, -1, 1), (0, 1, 2)],  # 15, 2624
    [(-1, -1, 0), (-1, 2, 1), (0, 2, -1)],  # 16, 2468
]

# Equations have a fixed shape, x c x^-1 = (x c)^2, so the seed picks the
# variables and constants but not the length.
LHS_SHAPE = ["x", "c", "x^-1"]
RHS_SHAPE = [(["x", "c"], 2)]


def equation(rng, sg, arity):
    n = len(sg["names"])
    lhs, rhs = gen.random_word(rng, arity, n, LHS_SHAPE), gen.random_word(rng, arity, n, RHS_SHAPE)
    return (lhs, rhs), (gen.word_text(lhs, sg["names"]), gen.word_text(rhs, sg["names"]))


def point_text(p) -> str:
    return "(" + ",".join(p) + ")"


def plan_certify(rng, run_dir):
    catalog = [dict(gen.catalog(name), source="catalog") for name in gen.CATALOG]
    seen = set()
    randoms = []
    for t, generators in enumerate(CERTIFY_TYPES):
        for copy in "abc":
            try:
                sg = gen.random_conjugate(rng, generators, seen)
            except ValueError:  # type 2 is its own only conjugate
                continue
            randoms.append(dict(sg, label=f"t{t}{copy}", source="random"))
    return {"semigroups": catalog + randoms,
            # not trivial, chain2 and z2 (0.1-1.5 ms): three more operations
            # would put the p75 on the edge of the type 6 group
            "rosenblatt": ["chain3", "z3", "z2_zero"]}


def write_table(run_dir, name, sg) -> str:
    path = os.path.join(run_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.table_text(sg))
    return path


def plan_cli(rng, run_dir):
    seen = set()
    files = []
    for k in range(3):
        sg = gen.random_subsemigroup(rng, 3, 5, 8, seen)
        label = f"small{k}.tbl"
        files.append(dict(sg, label=label, path=write_table(run_dir, label, sg)))
    catalog = {name: gen.catalog(name) for name in gen.CATALOG}
    by = dict(catalog, **{f["label"]: f for f in files})

    def target(label):
        return ["--catalog", label] if label in catalog else [by[label]["path"]]

    ops = []

    def add(cmd, label, *extra, **fields):
        ops.append(dict(fields, cmd=cmd, label=label, argv=[cmd, *target(label), *extra]))

    names = list(catalog)
    for label in rng.sample(names, 5) + [files[0]["label"]]:
        add("info", label)
    for label in rng.sample(names, 2):
        add("hasse", label)
    for f in files[1:]:
        dot = os.path.join(run_dir, f["label"] + ".dot")
        add("hasse", f["label"], "--dot", dot, dot=dot)
    for label in rng.sample(names, 2) + [files[0]["label"], files[2]["label"]]:
        add("embed", label)
    for label, arity in [("brandt_b2", 2), ("sim2", 2), ("chain3", 3), ("z2_zero", 2),
                         (files[0]["label"], 2), (files[2]["label"], 2)]:
        pairs = [equation(rng, by[label], arity) for _ in range(1 + len(ops) % 2)]
        eqs = [x for _, (lhs, rhs) in pairs for x in ("--eq", f"{lhs} = {rhs}")]
        add("solve", label, "--arity", str(arity), *eqs, arity=arity, equations=[w for w, _ in pairs])
    for cmd, slots in [("closure", [("brandt_b2", 1), ("sim2", 1), ("chain3", 2), (files[1]["label"], 1)]),
                       ("is-algebraic", [("z2_zero", 2), ("brandt_b2", 2), ("sim2", 1), (files[2]["label"], 1)])]:
        for label, arity in slots:
            sgn = by[label]["names"]
            pts = [[sgn[i] for i in p] for p in gen.random_points(rng, len(sgn), arity, rng.choice((2, 3)))]
            add(cmd, label, *map(point_text, pts), arity=arity, points=pts)
    for label in rng.sample([n for n in names if n != "sim3"], 7) + [files[0]["label"], files[1]["label"]]:
        add("verify", label)
    for label in ("chain2", "z2_zero"):
        add("verify", label, "--rosenblatt", rosenblatt=True)
    ops.append({"repeat_of": rng.randrange(len(ops)), "cmd": "repeat", "label": "-"})
    return {"semigroups": [dict(catalog[n]) for n in names] + files, "ops": ops}


PLANS = {"cli": plan_cli, "certify": plan_certify}


def run_worker(plan_path, phase, seconds, trace, deadline):
    cmd = [sys.executable, WORKER, plan_path, "--phase", phase, "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker {phase} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stop(signum, frame):
    """SIGTERM unwinds like an exception, so subprocess.run kills and reaps its child."""
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(PLANS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "eqdom", "__init__.py")):
        print(f"error: no eqdom sources under {SRC}", file=sys.stderr)
        return 2

    accepted = check.selftest()
    for name in accepted:
        print(f"self-test: the {name} checker accepted a planted wrong answer", file=sys.stderr)

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        plan = PLANS[args.workload](random.Random(args.seed), run_dir)
        plan.update(workload=args.workload, seed=args.seed, src=SRC, dir=run_dir, out=OUT)
        plan_path = os.path.join(run_dir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        samples = []
        if not args.trace:
            samples = [run_worker(plan_path, "setup", args.seconds, 0, deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(plan_path, "main", args.seconds, args.trace, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples.append(result["setup_s"])
    for err in result["errors"]:
        print(f"error: {err}", file=sys.stderr)
    ref = result["reference"]
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} operations in "
          f"{result['rounds']} rounds of {result['ops_per_round']}, {result['failed']} failed; "
          f"latency_tail_s is p{result['tail_level'] * 100:g} of {result['ops_per_round']} median-of-round times; "
          f"reference {ref['what']} took {ref['median_s']:.6g} s (median of {ref['samples']}), so times are "
          f"scaled by {ref['nominal_s']:g} / {ref['median_s']:.6g} = {ref['scale']:.4f}; "
          f"unscaled latency_p50_s {result['unscaled_p50_s']:.6g} s, setup_s {statistics.median(samples):.6g} s")
    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in spans.LAYER_METRICS}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(samples) * ref["scale"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": result["correct"] and not accepted, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
