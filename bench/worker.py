"""One benchmark process: set up one workload, then time whole rounds of it.

    python3 bench/worker.py PLAN.json --phase setup|main --seconds S --trace 0|1

run.py writes the plan and starts this with PYTHONPATH pointing at the
checkout's src, so a fresh interpreter imports eqdom and no lru_cache carries
over from another run.  The last stdout line is a JSON result.  With
``--phase setup`` the process only sets up and reports ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import check
import gen
import spans
from check import Own

TAIL_LEVELS = (0.99, 0.95, 0.9, 0.75, 0.5)
MIN_ROUNDS = 3
# The host's speed drifts by up to 2x, in stretches from seconds to minutes,
# and a whole run can fall inside a slow one.  So every round also times a
# fixed reference task of the benchmark's own (no eqdom), before every
# REFERENCE_EVERY-th operation, and every time metric is scaled by
# Reference.nominal_s / (median reference time of the run).  A run whose
# reference task takes exactly nominal_s reports its times unscaled.
REFERENCE_EVERY = 4


@dataclass
class Reference:
    run: Callable  # the fixed task; its return value is ignored
    nominal_s: float  # its time at the reference speed
    what: str  # named on the report line


@dataclass
class Op:
    name: str
    run: Callable  # timed; returns eqdom's raw answer
    summary: Callable  # raw answer -> plain data, compared across rounds
    check: Callable  # plain data -> exact?, raises CheckError when wrong
    before: Callable | None = None  # untimed, before each call


def own_of(sg: dict) -> Own:
    maps = [tuple(m) for m in sg["maps"]] if sg.get("maps") else None
    return Own(sg["names"], sg["table"], maps)


def names_of(sg, p) -> tuple:
    return tuple(sg.names[i] for i in p)


def cert_data(sg, cert) -> dict:
    return {
        "kind": cert.kind,
        "idempotents": [sg.names[e] for e in cert.idempotents],
        "union": None if cert.union is None else [names_of(sg, p) for p in cert.union.sorted_members()],
        "witness": None if cert.witness is None else names_of(sg, cert.witness),
        "closure_size": cert.closure_size,
        "exact": cert.exact,
    }


def table_data(sg) -> dict:
    return {
        "names": list(sg.names), "table": [list(r) for r in sg.table],
        "inv": [sg.names[i] for i in sg.inv], "idempotents": [sg.names[e] for e in sg.idempotents],
        "zero": None if sg.zero is None else sg.names[sg.zero],
        "identity": None if sg.identity is None else sg.names[sg.identity],
    }


def load(eqdom, entry):
    """A catalog entry by name, any other semigroup through validate()."""
    if entry["source"] == "catalog":
        return eqdom.by_name(entry["label"])
    return eqdom.validate(entry["names"], entry["table"], entry["label"])


def clear_clone_cache(eqdom) -> None:
    """Every verdict starts cache-cold, as in a fresh `eqdom verify` process."""
    clear = getattr(eqdom.terms.clone_closure, "cache_clear", None)
    if clear is not None:
        clear()


def unary_clone_size(table, inv) -> int:
    """Number of unary term functions of a table, by the same kind of orbit
    as eqdom's clone_closure (right products with x, x^-1 and the
    constants), in the benchmark's own code."""
    n = len(table)
    gens = [tuple(range(n)), tuple(inv)] + [(c,) * n for c in range(n)]
    seen = set(gens)
    queue = list(gens)
    for v in queue:
        for g in gens:
            w = tuple(table[a][b] for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(queue)


def clone_reference() -> Reference:
    """The certify reference: the unary clone (423 tables) of a fixed
    order-14 inverse subsemigroup of sim3."""
    sg = gen.semigroup(gen.close([(1, 0, 2), (1, -1, 2), (1, 0, -1)]), "reference")
    index = {m: k for k, m in enumerate(sg["maps"])}
    inv = [index[gen.inverse(m)] for m in sg["maps"]]
    return Reference(lambda: unary_clone_size(sg["table"], inv), 0.015,
                     "the unary clone of an order-14 semigroup, in Python")


class Certify:
    """ed_verdict + validate_verdict per semigroup, and catalog Rosenblatt checks."""

    def __init__(self, plan):
        self.plan = plan
        self.reference = clone_reference()

    def setup(self):
        import eqdom
        self.eqdom = eqdom
        self.sgs = [load(eqdom, entry) for entry in self.plan["semigroups"]]
        warm = eqdom.by_name("chain2")
        eqdom.validate_verdict(warm, eqdom.ed_verdict(warm))
        clear_clone_cache(eqdom)

    def verify_setup(self):
        for entry, sg in zip(self.plan["semigroups"], self.sgs):
            check.check_table(own_of(entry), table_data(sg))

    def ops(self):
        eqdom = self.eqdom
        ops = []
        before = lambda: clear_clone_cache(eqdom)
        for entry, sg in zip(self.plan["semigroups"], self.sgs):
            own = own_of(entry)

            def verdict(sg=sg):
                v = eqdom.ed_verdict(sg)
                eqdom.validate_verdict(sg, v)
                return v

            def summary(v, sg=sg):
                return {"status": v.status, "truncated": list(v.truncated),
                        "certificates": [cert_data(sg, c) for c in v.certificates]}

            def verdict_check(s, own=own):
                check.check_verdict(own, s)
                return not s["truncated"]

            ops.append(Op("verdict:" + entry["label"], verdict, summary, verdict_check, before))
        by_label = {e["label"]: (e, sg) for e, sg in zip(self.plan["semigroups"], self.sgs)}
        for label in self.plan["rosenblatt"]:
            entry, sg = by_label[label]

            def rosenblatt(sg=sg):
                result = eqdom.rosenblatt_check(sg)
                if isinstance(result, eqdom.Certificate):
                    eqdom.validate_certificate(sg, result)
                return result

            def summary(r, sg=sg):
                if isinstance(r, eqdom.Unknown):
                    return "unknown"
                return None if r is None else cert_data(sg, r)

            ops.append(Op("rosenblatt:" + label, rosenblatt, summary,
                          lambda s, own=own_of(entry): check.check_rosenblatt(own, s), before))
        return ops


class Cli:
    """Cold `python -m eqdom` processes, one at a time."""

    def __init__(self, plan, tracer_dir=None):
        self.plan = plan
        self.tracer_dir = tracer_dir
        self.env = dict(os.environ, PYTHONPATH=plan["src"])
        self.traces = []
        # a cold interpreter that imports numpy: the fixed part of a call
        # that is not eqdom
        numpy_only = [sys.executable, "-c", "import numpy"]
        self.reference = Reference(
            lambda: subprocess.run(numpy_only, capture_output=True, env=self.env, timeout=120, check=True),
            0.100, "`python -c 'import numpy'`")

    def call(self, argv, traced=True):
        if self.tracer_dir is None or not traced:
            cmd = [sys.executable, "-m", "eqdom", *argv]
        else:
            out = os.path.join(self.tracer_dir, f"cli-{len(self.traces)}.json")
            self.traces.append(out)
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_traced.py"), out, *argv]
        done = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=120)
        return done.returncode, done.stdout

    def setup(self):
        code, _ = self.call(["info", "--catalog", "chain2"], traced=False)
        if code != 0:
            raise RuntimeError("eqdom did not start")

    def verify_setup(self):
        pass

    def ops(self):
        owns = {e["label"]: own_of(e) for e in self.plan["semigroups"]}
        ops = []
        for k, op in enumerate(self.plan["ops"]):
            def summary(r, op=op):
                code, out = r
                dot = None
                if op.get("dot"):
                    with open(op["dot"], encoding="utf-8") as fh:
                        dot = fh.read()
                return {"code": code, "out": out, "dot": dot}

            if "repeat_of" in op:
                first = self.plan["ops"][op["repeat_of"]]
                ops.append(Op(f"cli{k}:repeat", lambda first=first: self.call(first["argv"]), summary,
                              lambda s, j=op["repeat_of"]: check.check_repeat(self.firsts[j], s["out"]) or True))
                continue
            ops.append(Op(f"cli{k}:{op['cmd']}:{op['label']}", lambda op=op: self.call(op["argv"]), summary,
                          lambda s, op=op, own=owns[op["label"]], k=k: self.check(k, op, own, s)))
        self.firsts = {}
        return ops

    def check(self, k, op, own, s):
        self.firsts[k] = s["out"]
        return check.check_cli(own, op, s["code"], s["out"], s["dot"])


WORKLOADS = {"certify": Certify, "cli": Cli}


def tail(values):
    """Highest level with at least ten of the round's operations beyond it."""
    level = next(q for q in TAIL_LEVELS if len(values) * (1 - q) >= 10)
    ordered = sorted(values)
    return ordered[math.ceil(level * len(ordered)) - 1], level


def timed_rounds(ops, reference, seconds):
    """Whole rounds, at least MIN_ROUNDS, as many as fit in seconds: no round
    starts that a round of average length would carry past them.  Answers
    are checked in round one and must repeat exactly in later rounds."""
    times = [[] for _ in ops]
    ref_times = []
    first, errors = {}, []
    failed = exact = rounds = wrong = 0
    start = now = time.perf_counter()
    lengths = []
    while rounds < MIN_ROUNDS or now - start + statistics.mean(lengths) <= seconds:
        round_start = time.perf_counter()
        for k, (op, op_times) in enumerate(zip(ops, times)):
            if k % REFERENCE_EVERY == 0:
                t0 = time.perf_counter()
                reference.run()
                ref_times.append(time.perf_counter() - t0)
            if op.before:
                op.before()
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # an operation that raises is a failed operation
                op_times.append(time.perf_counter() - t0)
                failed += 1
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            op_times.append(time.perf_counter() - t0)
            data = op.summary(raw)
            if rounds == 0:
                try:
                    exact += bool(op.check(data))
                except (check.CheckError, KeyError, ValueError, IndexError) as exc:
                    wrong += 1
                    errors.append(f"{op.name}: wrong answer: {exc!r}")
                first[op.name] = data
            elif data != first.get(op.name):
                wrong += 1
                errors.append(f"{op.name}: answer differs from round 1")
        rounds += 1
        now = time.perf_counter()
        if rounds > 1:  # round one also runs the checkers
            lengths.append(now - round_start)
    return times, ref_times, rounds, failed, exact, wrong, errors


def stop(signum, frame):
    """SIGTERM unwinds like an exception, so subprocess.run kills and reaps its child."""
    raise SystemExit(128 + signum)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--phase", choices=("setup", "main"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    name = plan["workload"]
    tracer = None
    if name == "cli":
        workload = Cli(plan, tracer_dir=plan["dir"] if args.trace else None)
    else:
        workload = WORKLOADS[name](plan)
        if args.trace:
            tracer = spans.Tracer()
            workload.setup = with_tracer(workload.setup, tracer)

    t0 = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - t0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    errors = []
    try:
        workload.verify_setup()
    except check.CheckError as exc:
        errors.append(f"set-up: {exc}")
    ops = workload.ops()
    if tracer:
        tracer.phase = "run"
    times, ref_times, rounds, failed, exact, wrong, op_errors = timed_rounds(ops, workload.reference, args.seconds)
    errors += op_errors
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    # an operation's time is the median of its rounds
    medians = [statistics.median(t) for t in times]
    reference_s = statistics.median(ref_times)
    scale = workload.reference.nominal_s / reference_s
    tail_s, level = tail(medians)
    result = {
        "setup_s": setup_s, "attempted": rounds * len(ops), "failed": failed, "rounds": rounds,
        "ops_per_round": len(ops), "tail_level": level, "errors": errors,
        "correct": wrong == 0 and not any(e.startswith("set-up") for e in errors),
        "reference": {"what": workload.reference.what, "samples": len(ref_times), "median_s": reference_s,
                      "nominal_s": workload.reference.nominal_s, "scale": scale},
        "unscaled_p50_s": statistics.median(medians),
        "metrics": {
            "ops_per_s": len(medians) / (sum(medians) * scale),
            "latency_p50_s": statistics.median(medians) * scale,
            "latency_tail_s": tail_s * scale,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "exact_results": exact,
        },
    }
    if args.trace:
        layers = layer_totals(workload, tracer, rounds, plan)
        layers["traced.ops_per_s"] = result["metrics"]["ops_per_s"]
        layers["traced.latency_p50_s"] = result["metrics"]["latency_p50_s"]
        calls = sum(v for k, v in layers.items() if k.endswith("_calls"))
        layers["traced.overhead_s"] = calls * spans.wrapper_cost()
        result["layers"] = layers
    print(json.dumps(result))


def with_tracer(setup, tracer):
    def traced_setup():
        import eqdom  # noqa: F401  (the tracer wraps what this import binds)
        tracer.install()
        setup()
    return traced_setup


def layer_totals(workload, tracer, rounds, plan) -> dict:
    trace_path = os.path.join(plan["out"], f"trace-{plan['workload']}-seed{plan['seed']}.json")
    if tracer is not None:
        tracer.dump(trace_path)
        layers = spans.per_round([tracer.totals()], rounds)
        layers.update(import_probe(plan))
        return layers
    children = []
    for path in workload.traces:
        with open(path, encoding="utf-8") as fh:
            children.append(json.load(fh))
    layers = spans.per_round([c["layers"] for c in children], rounds)
    for key in ("import_s", "numpy_import_s", "main_s"):
        layers["cli." + key] = statistics.median(c[key] for c in children)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(children, fh)
    return layers


def import_probe(plan) -> dict:
    """Import times of numpy and eqdom.cli in fresh interpreters (median of 3)."""
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import eqdom.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)")
    env = dict(os.environ, PYTHONPATH=plan["src"])
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                           timeout=60, check=True).stdout.split() for _ in range(3)]
    return {"cli.numpy_import_s": statistics.median(float(r[0]) for r in runs),
            "cli.import_s": statistics.median(float(r[1]) for r in runs)}


if __name__ == "__main__":
    main()
