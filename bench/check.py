"""Independent checkers: every answer eqdom gives is recomputed here without eqdom.

Answers arrive as plain data with elements named, not indexed, so a checker
never trusts eqdom's element order.  Each checker raises CheckError on a
mismatch.  selftest() plants a wrong answer for every checker and confirms it
is rejected.
"""

from __future__ import annotations

import itertools
import random

import gen


class CheckError(AssertionError):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Own:
    """Facts about a Cayley table, computed from the table (or its maps) alone."""

    def __init__(self, names, table, maps=None):
        self.names = list(names)
        self.t = table
        self.n = n = len(names)
        self.at = {nm: i for i, nm in enumerate(names)}
        t = table
        if maps is not None:
            pos = {m: i for i, m in enumerate(maps)}
            self.inv = [pos[gen.inverse(m)] for m in maps]
            self.idem = [i for i, m in enumerate(maps) if gen.compose(m, m) == m]
            absorbing = [z for z in range(n) if all(
                gen.compose(maps[z], m) == maps[z] == gen.compose(m, maps[z]) for m in maps)]
            neutral = [e for e in range(n) if all(
                gen.compose(maps[e], m) == m == gen.compose(m, maps[e]) for m in maps)]
            domain = [frozenset(i for i, j in enumerate(m) if j >= 0) for m in maps]
            self._leq = {(e, f) for e in self.idem for f in self.idem if domain[e] <= domain[f]}
        else:
            self.inv = []
            for s in range(n):
                cands = [x for x in range(n) if t[t[s][x]][s] == s and t[t[x][s]][x] == x]
                expect(len(cands) == 1, f"{names[s]} has {len(cands)} inverses")
                self.inv.append(cands[0])
            self.idem = [e for e in range(n) if t[e][e] == e]
            absorbing = [z for z in range(n) if all(t[z][s] == z == t[s][z] for s in range(n))]
            neutral = [e for e in range(n) if all(t[e][s] == s == t[s][e] for s in range(n))]
            self._leq = {(e, f) for e in self.idem for f in self.idem if t[e][f] == e}
        self.zero = absorbing[0] if absorbing else None
        self.identity = neutral[0] if neutral else None

    def leq(self, e, f) -> bool:
        return (e, f) in self._leq

    def covers(self) -> set:
        return {(lo, hi) for (lo, hi) in self._leq if lo != hi and not any(
            m not in (lo, hi) and self.leq(lo, m) and self.leq(m, hi) for m in self.idem)}

    def least_incomparable(self):
        for e in sorted(self.idem):
            for f in sorted(self.idem):
                if f > e and not self.leq(e, f) and not self.leq(f, e):
                    return (e, f)
        return None

    def point(self, names) -> tuple:
        return tuple(self.at[nm] for nm in names)

    def label(self, p) -> tuple:
        return tuple(self.names[i] for i in p)

    def points(self, arity):
        return itertools.product(range(self.n), repeat=arity)


# -- terms ------------------------------------------------------------------

def eval_word(own: Own, word, p) -> int:
    t = own.t
    acc = None
    for kind, value, exp in word:
        v = p[value] if kind == "x" else value if kind == "c" else eval_word(own, value, p)
        if exp < 0:
            v = own.inv[v]
        for _ in range(abs(exp)):
            acc = v if acc is None else t[acc][v]
    return acc


def solutions(own: Own, equations, arity: int) -> set:
    return {p for p in own.points(arity)
            if all(eval_word(own, l, p) == eval_word(own, r, p) for l, r in equations)}


def var_equals(own: Own, var: int, element: int, arity: int) -> set:
    return {p for p in own.points(arity) if p[var] == element}


def rosenblatt_union(own: Own) -> set:
    return {p for p in own.points(4) if p[0] == p[1] or p[2] == p[3]}


# -- closure membership by subalgebra generation ----------------------------

def in_closure(own: Own, arity: int, Y, p, cap: int = 400_000, seed: int = 0) -> bool:
    """p lies in the algebraic closure of Y iff projecting the subalgebra of
    S^(Y + [p]) generated by the literal and constant columns onto Y is
    injective (two term functions agreeing on Y agree at p).  Past cap vectors
    the generation stops and seeded random words, which give equations that
    hold on Y, are tried instead."""
    t, inv = own.t, own.inv
    coords = sorted(Y) + [p]
    gens = []
    for i in range(arity):
        gens.append(tuple(q[i] for q in coords))
        gens.append(tuple(inv[q[i]] for q in coords))
    gens += [(c,) * len(coords) for c in range(own.n)]
    at_p = {}
    queue = []

    def add(v) -> bool:
        key = v[:-1]
        seen = at_p.get(key)
        if seen is None:
            at_p[key] = v[-1]
            queue.append(v)
            return True
        return seen == v[-1]

    for g in gens:
        if not add(g):
            return False
    for v in queue:
        if len(at_p) > cap:
            break
        for g in gens:
            if not add(tuple(t[a][b] for a, b in zip(v, g))):
                return False
    else:
        return True
    rng = random.Random(seed)
    for _ in range(20_000):
        v = rng.choice(gens)
        for _ in range(rng.randrange(1, 40)):
            v = tuple(t[a][b] for a, b in zip(v, rng.choice(gens)))
        if at_p.setdefault(v[:-1], v[-1]) != v[-1]:
            return False
    return True


def closure(own: Own, arity: int, Y) -> set:
    Y = set(Y)
    return {p for p in own.points(arity) if p in Y or in_closure(own, arity, Y, p)}


# -- answers ----------------------------------------------------------------

def check_certificate(own: Own, cert: dict) -> bool:
    """Certificates as plain data: kind, idempotents, union, witness (names),
    closure_size, exact.  Returns True for a computed (exact) witness."""
    kind = cert["kind"]
    idem = [own.at[nm] for nm in cert["idempotents"]]
    if kind == "GroupOutOfScope":
        expect(len(own.idem) == 1 and idem == own.idem, "GroupOutOfScope on a non-group")
        return False
    if kind == "ZeroPresent":
        expect(own.zero is not None and idem == [own.zero], "ZeroPresent does not name the zero")
        z = own.zero
        expect(all(own.t[z][s] == z == own.t[s][z] for s in range(own.n)), "zero law fails")
        return False
    if kind == "IncomparableWitness":
        e, f = idem
        expect(e in own.idem and f in own.idem, "named elements are not idempotent")
        expect(not own.leq(e, f) and not own.leq(f, e), "idempotents are comparable")
        arity, union = 1, var_equals(own, 0, e, 1) | var_equals(own, 0, f, 1)
    elif kind == "ChainWitness":
        top, bottom = idem
        expect(all(own.leq(x, top) and own.leq(bottom, x) for x in own.idem),
               "named idempotents are not the chain extremes")
        expect(own.least_incomparable() is None, "idempotents are not a chain")
        arity, union = 2, var_equals(own, 0, top, 2) | var_equals(own, 1, top, 2)
    elif kind == "RosenblattWitness":
        arity, union = 4, rosenblatt_union(own)
    else:
        raise CheckError(f"unknown certificate kind {kind}")
    expect({own.point(q) for q in cert["union"]} == union, f"{kind}: union is wrong")
    w = own.point(cert["witness"])
    expect(w not in union, f"{kind}: witness lies in the union")
    expect(in_closure(own, arity, union, w), f"{kind}: witness is outside the closure")
    if cert["closure_size"] is not None and own.n ** arity <= 100:
        expect(len(closure(own, arity, union)) == cert["closure_size"], f"{kind}: closure size is wrong")
    expect(cert["exact"] is True, f"{kind}: not exact")
    return True


def check_verdict(own: Own, verdict: dict) -> int:
    """Returns the number of computed witness certificates."""
    group = len(own.idem) == 1
    expect(verdict["status"] == ("GroupOutOfScope" if group else "NotED"), "wrong verdict status")
    kinds = [c["kind"] for c in verdict["certificates"]]
    expect(("ZeroPresent" in kinds) == (own.zero is not None and not group),
           "ZeroPresent missing or spurious")
    computed = sum(check_certificate(own, c) for c in verdict["certificates"])
    if not group:
        expect(computed == 1 or verdict["truncated"], "no witness and no truncation reason")
    return computed


def check_rosenblatt(own: Own, result) -> bool:
    """result: a RosenblattWitness certificate, None (algebraic) or "unknown"."""
    union = rosenblatt_union(own)
    if result is None:
        expect(not any(in_closure(own, 4, union, p) for p in own.points(4) if p not in union),
               "rosenblatt union reported algebraic but is not")
        return True
    if result == "unknown":
        return False
    expect(result["kind"] == "RosenblattWitness", "wrong certificate kind")
    if own.n ** 4 <= 100:
        least = min(closure(own, 4, union) - union)
        expect(own.point(result["witness"]) == least, "rosenblatt witness is not the least extra point")
    return check_certificate(own, result)


def check_solutions(own: Own, equations, arity: int, answer) -> None:
    expect({own.point(q) for q in answer} == solutions(own, equations, arity), "solution set is wrong")


def check_closure(own: Own, arity: int, Y, answer: dict) -> None:
    """answer: members (names), exact, status (yes/no), witness (names or None)."""
    Y = {own.point(q) for q in Y}
    cl = closure(own, arity, Y)
    expect(answer["exact"] is True, "closure not exact on a complete clone")
    if answer.get("members") is not None:
        expect({own.point(q) for q in answer["members"]} == cl, "closure members are wrong")
    if answer.get("size") is not None:
        expect(answer["size"] == len(cl), "closure size is wrong")
    if "status" in answer:
        expect(answer["status"] == ("yes" if cl == Y else "no"), "is-algebraic status is wrong")
        expected = None if cl == Y else own.label(min(cl - Y))
        expect(answer["witness"] == expected, "is-algebraic witness is wrong")


def check_table(own: Own, sg: dict) -> None:
    """sg: names, table, inv, idempotents, zero, identity as eqdom reported them."""
    expect(sg["names"] == own.names, "element names or order differ")
    expect(sg["table"] == [list(r) for r in own.t], "Cayley table differs")
    expect(sg["inv"] == [own.names[i] for i in own.inv], "inverses are wrong")
    expect(sorted(sg["idempotents"]) == sorted(own.names[e] for e in own.idem), "idempotents are wrong")
    expect(sg["zero"] == (None if own.zero is None else own.names[own.zero]), "zero is wrong")
    expect(sg["identity"] == (None if own.identity is None else own.names[own.identity]), "identity is wrong")


def check_hasse(own: Own, dot: str) -> None:
    edges, nodes = set(), set()
    for line in dot.splitlines():
        line = line.strip().rstrip(";")
        if "->" in line:
            lo, hi = (s.strip().strip('"') for s in line.split("->"))
            edges.add((own.at[lo], own.at[hi]))
        elif line.startswith('"'):
            nodes.add(own.at[line.strip('"')])
    expect(dot.startswith("digraph") and nodes == set(own.idem), "hasse nodes are wrong")
    expect(edges == own.covers(), "hasse edges are wrong")


def wp_map(own: Own, s: int) -> tuple:
    """Wagner-Preston image of s: x -> x s on {x : x s s^-1 = x}, -1 elsewhere."""
    t = own.t
    d = t[s][own.inv[s]]
    return tuple(t[x][s] if t[x][d] == x else -1 for x in range(own.n))


# -- CLI output -------------------------------------------------------------

def fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def parse_point(text: str) -> tuple:
    return tuple(text.strip()[1:-1].split(","))


def parse_points(text: str) -> list:
    return [] if text.strip() in ("", "-") else [parse_point("(" + p) for p in text.strip()[1:].split(", (")]


def blocks(text: str) -> list:
    """Certificate blocks of verify output as certificate dicts."""
    certs = []
    for chunk in text.split("\n\n")[1:]:
        f = fields(chunk)
        if "kind" not in f:
            continue
        certs.append({
            "kind": f["kind"],
            "idempotents": [] if f["idempotents"] == "-" else f["idempotents"].split(", "),
            "union": parse_points(f["union"]),
            "witness": None if f["witness"] == "-" else parse_point(f["witness"]),
            "closure_size": None if f["closure-size"] == "-" else int(f["closure-size"]),
            "exact": {"true": True, "false": False, "-": None}[f["exact"]],
        })
    return certs


def check_repeat(first: str, again: str) -> None:
    expect(first == again, "repeated call printed different bytes")


def check_cli(own: Own, op: dict, code: int, out: str, dot_text: str | None = None) -> bool:
    """Checks one CLI call; returns True when the answer is exact."""
    cmd = op["cmd"]
    f = fields(out)
    exact = code in (0, 1) and "unknown" not in out and "truncated:" not in out
    expect(f.get("semigroup") == op["label"], f"{cmd}: semigroup line is wrong")
    if cmd == "info":
        expect(code == 0, "info: exit code")
        expect(int(f["order"]) == own.n and f["elements"].split() == own.names, "info: elements")
        expect(f["group"] == ("yes" if len(own.idem) == 1 else "no"), "info: group")
        idem = " ".join(own.names[e] for e in sorted(own.idem))
        expect(f["idempotents"] == f"{len(own.idem)} ({idem})", "info: idempotents")
        expect(f["zero"] == ("none" if own.zero is None else own.names[own.zero]), "info: zero")
        expect(f["identity"] == ("none" if own.identity is None else own.names[own.identity]), "info: identity")
        pair = own.least_incomparable()
        shape = "chain" if pair is None else f"incomparable ({own.names[pair[0]]}, {own.names[pair[1]]})"
        expect(f["idempotent-order"] == shape, "info: idempotent-order")
    elif cmd == "hasse":
        expect(code == 0, "hasse: exit code")
        if dot_text is not None:
            expect(f"wrote {op['dot']}\n" in out, "hasse: no wrote line")
            check_hasse(own, dot_text)
        else:
            check_hasse(own, out[out.index("digraph"):])
    elif cmd == "embed":
        expect(code == 0, "embed: exit code")
        lines = [ln for ln in out.splitlines() if " -> " in ln]
        expect(len(lines) == own.n, "embed: line count")
        for s, line in enumerate(lines):
            m = wp_map(own, s)
            dom = " ".join(own.names[x] for x in range(own.n) if m[x] >= 0)
            render = " ".join("-" if j < 0 else own.names[j] for j in m)
            expect(line == f"{own.names[s]}: {{{dom}}} -> {render}", f"embed: line for {own.names[s]}")
    elif cmd == "solve":
        expect(code == 0 and int(f["arity"]) == op["arity"], "solve: exit code or arity")
        pts = [parse_point(ln) for ln in out.splitlines() if ln.startswith("(")]
        expect(int(f["solutions"]) == len(pts), "solve: count line")
        check_solutions(own, op["equations"], op["arity"], pts)
    elif cmd in ("closure", "is-algebraic"):
        status = f["verdict"]
        expect(code == {"yes": 0, "no": 1}.get(status), f"{cmd}: exit code")
        members = None
        if cmd == "closure":
            after = out.split("members:\n", 1)[1]
            members = [parse_point(ln) for ln in after.splitlines() if ln.startswith("(")]
        witness = parse_point(f["witness"]) if "witness" in f else None
        check_closure(own, op["arity"], op["points"], {
            "exact": f["exact"] == "true", "size": int(f["closure-size"]), "members": members,
            "status": status, "witness": witness})
    elif cmd == "verify":
        certs = blocks(out)
        expect(code == 0 and f.get("revalidation") == "ok", "verify: exit code or revalidation")
        if op.get("rosenblatt"):
            expect(f["check"] == "rosenblatt-union", "verify: check line")
            if f["result"].startswith("algebraic"):
                check_rosenblatt(own, None)
            else:
                expect(f["result"] == "not-algebraic" and len(certs) == 1, "verify: rosenblatt result")
                check_rosenblatt(own, certs[0])
        else:
            status = f["verdict"].split()[0]
            truncated = [ln for ln in out.splitlines() if ln.startswith("truncated:")]
            check_verdict(own, {"status": status, "certificates": certs, "truncated": truncated})
    else:
        raise CheckError(f"unknown command {cmd}")
    return exact


# -- self-test --------------------------------------------------------------

def selftest() -> list:
    """Plant one wrong answer per checker; returns the checkers that accepted theirs."""
    b2 = Own(*[gen.catalog("brandt_b2")[k] for k in ("names", "table")])
    c2 = Own(*[gen.catalog("chain2")[k] for k in ("names", "table")])
    sim = gen.semigroup(gen.partial_injections(2), "sim2")
    s2 = Own(sim["names"], sim["table"], sim["maps"])
    good_cert = {"kind": "IncomparableWitness", "idempotents": ["e11", "e22"],
                 "union": [("e11",), ("e22",)], "witness": ("0",), "closure_size": 3, "exact": True}
    good_verdict = {"status": "NotED", "truncated": [], "certificates": [
        {"kind": "ZeroPresent", "idempotents": ["0"], "union": [], "witness": None,
         "closure_size": None, "exact": None}, good_cert]}
    eq = [([("x", 0, 1), ("x", 0, 1)], [("x", 0, 1)])]
    planted = {
        "verdict status": lambda: check_verdict(b2, {**good_verdict, "status": "GroupOutOfScope"}),
        "zero law": lambda: check_verdict(b2, {**good_verdict, "certificates": [
            {**good_verdict["certificates"][0], "idempotents": ["e11"]}, good_cert]}),
        "witness in union": lambda: check_certificate(b2, {**good_cert, "witness": ("e11",)}),
        "witness outside closure": lambda: check_certificate(b2, {**good_cert, "witness": ("e12",)}),
        "solution set": lambda: check_solutions(b2, eq, 1, [("e11",), ("e22",)]),
        "closure": lambda: check_closure(b2, 1, [("e11",), ("e22",)], {
            "exact": True, "members": [("e11",), ("e22",)], "status": "yes", "witness": None}),
        "inverses": lambda: check_table(s2, {
            "names": s2.names, "table": s2.t, "inv": s2.names, "idempotents": [s2.names[e] for e in s2.idem],
            "zero": s2.names[s2.zero], "identity": s2.names[s2.identity]}),
        "cli field": lambda: check_cli(c2, {"cmd": "info", "label": "chain2"}, 0,
                                       "semigroup: chain2\norder: 2\nelements: e f\ngroup: no\n"
                                       "idempotents: 2 (e f)\nzero: e\nidentity: e\n"
                                       "idempotent-order: chain\n"),
        "cli repeat": lambda: check_repeat("verdict: yes\n", "verdict: no\n"),
    }
    accepted = []
    for name, plant in planted.items():
        try:
            plant()
        except (CheckError, KeyError, IndexError, ValueError):
            continue
        accepted.append(name)
    return accepted
