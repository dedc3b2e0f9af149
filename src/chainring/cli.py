"""Command-line front door: JSON instances in, machine-readable JSON out.

Every result is wrapped in an envelope {"command", "input", "result"} whose
serialization is byte-stable (sorted keys, fixed separators), and can be fed
back to the `verify` subcommand for an independent re-check.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import localring as localring_mod
from .errors import ChainRingError, NotChainRing, ParseError
from .extension import extension_from_json
from .groebner import buchberger, verify_groebner
from .linalg import RingMatrix, rank, rank_profile, smith_normal_form
from .minrank import MinRankInstance, solve_minrank, transpose_instance
from .oracles import (
    DEFAULT_BUDGET,
    OracleBudget,
    brute_decode_set,
    brute_minrank,
    brute_rank,
    brute_solve,
)
from .polys import MonomialOrder, PolyRing
from .rankdecode import (
    ROUTES,
    RankDecodingInstance,
    decode,
    generator_from_json,
    word_from_json,
)
from .rings import _as_list, parse_ring_spec, ring_from_json
from .solve import (
    ALL_OF_RING,
    DEFAULT_SOLUTION_CAP,
    SolutionSet,
    solve_system,
    solve_system_lifting,
)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class _Fields(dict):
    """A JSON object; reading a field it lacks is malformed input."""

    def __missing__(self, key):
        raise ParseError(f"missing field '{key}'")


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin, object_hook=_Fields)
        with open(path) as fh:
            return json.load(fh, object_hook=_Fields)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def _names(value, key: str) -> list[str]:
    """A field that must be a JSON list of variable names; a name that is
    not a string is malformed input."""
    names = _as_list(value, key)
    for name in names:
        if not isinstance(name, str):
            raise ParseError(f"field '{key}' must hold variable names, got {name!r}")
    return names


def _solution_lists(res) -> list[list]:
    """A verify envelope's result.solutions: a list of coordinate lists."""
    sols = _as_list(res["solutions"], "solutions")
    for s in sols:
        if not isinstance(s, list):
            raise ParseError(f"field 'solutions' must hold lists, got {s!r}")
    return sols


def _system_from_json(
    obj,
    ring_spec: str | None,
    order_spec: str | None,
    allow_text: bool,
    vars_spec: str | None = None,
):
    if not isinstance(obj, dict) or "polys" not in obj:
        raise ParseError("system file needs a 'polys' list")
    if ring_spec:
        ring = parse_ring_spec(ring_spec)
    elif "ring" in obj:
        ring = ring_from_json(obj["ring"])
    else:
        raise ParseError("no ring given (use --ring or a 'ring' field)")
    if isinstance(ring, localring_mod.LocalRingPresentation):
        raise NotChainRing(f"{ring} is a local ring, not a chain ring or product of them: use solve-local")
    variables = vars_spec.split(",") if vars_spec else _names(obj.get("vars", []), "vars")
    if not variables:
        raise ParseError("system file needs a 'vars' list (or pass --vars)")
    if order_spec:
        kind, _, prio = order_spec.partition(":")
        if prio:
            names = prio.split(",")
            if sorted(names) != sorted(variables):
                raise ParseError("order priority must name every variable once")
            priority = [variables.index(n) for n in names]
        else:
            priority = range(len(variables))
        order = MonomialOrder(kind, priority)
    elif "order" in obj:
        order = _order_from_json(obj["order"], len(variables))
    else:
        order = "lex"
    pring = PolyRing(ring, variables, order)
    polys = []
    for entry in _as_list(obj["polys"], "polys"):
        if isinstance(entry, str):
            if not allow_text:
                raise ParseError("text polynomials need the --text flag")
            polys.append(pring.parse(entry))
        else:
            polys.append(pring.poly_from_json(entry))
    if not polys:
        raise ParseError("empty system")
    return pring, polys


def _order_from_json(value, nvars: int) -> MonomialOrder:
    """A system file's "order" object, as _system_to_json writes it: a kind
    and a priority listing each variable index once, highest first."""
    if not isinstance(value, dict):
        raise ParseError(f"field 'order' must be an object, got {value!r}")
    kind = value.get("kind")
    if kind not in ("lex", "degrevlex"):
        raise ParseError(f"field 'order.kind' must be 'lex' or 'degrevlex', got {kind!r}")
    priority = value.get("priority")
    if not (
        isinstance(priority, list)
        and all(type(i) is int for i in priority)  # bool is a subclass of int
        and sorted(priority) == list(range(nvars))
    ):
        raise ParseError(f"field 'order.priority' must list each variable index once, got {priority!r}")
    return MonomialOrder(kind, priority)


def _system_to_json(pring: PolyRing, polys) -> dict:
    return {
        "ring": pring.ring.to_json(),
        "vars": list(pring.variables),
        "order": {"kind": pring.order.kind, "priority": list(pring.order.priority)},
        "polys": [pring.poly_to_json(p) for p in polys],
    }


def _emit(command: str, input_obj, result) -> int:
    sys.stdout.write(_dump({"command": command, "input": input_obj, "result": result}))
    return 0


# -- subcommands --------------------------------------------------------------------


def _cmd_gb(args) -> int:
    obj = _load_json(args.system)
    pring, polys = _system_from_json(obj, args.ring, args.order, args.text, args.vars)
    work = list(polys)
    if args.field_equations:
        from .solve import ring_vanishing_polynomial

        for i in range(pring.nvars):
            work.append(ring_vanishing_polynomial(pring.ring, pring, i))
    G = buchberger(work, pring)
    result = {
        "basis": [pring.poly_to_json(g) for g in G.generators],
        "basis_text": [str(g) for g in G.generators],
        "minimal": G.minimal,
    }
    return _emit("gb", _system_to_json(pring, work), result)


def _cmd_solve(args) -> int:
    obj = _load_json(args.system)
    pring, polys = _system_from_json(obj, args.ring, args.order, args.text, args.vars)
    if args.method == "lifting":
        sol = solve_system_lifting(polys, max_solutions=args.max_solutions)
    else:
        sol = solve_system(polys, max_solutions=args.max_solutions)
    return _emit("solve", _system_to_json(pring, polys), sol.to_json())


def _local_system_from_json(obj):
    """A solve-local system's polynomial ring and polynomials."""
    if "ring" not in obj:
        raise ParseError("solve-local needs a local-ring descriptor in the system file")
    pres = localring_mod.presentation_from_json(obj["ring"])
    variables = _names(obj.get("vars", []), "vars")
    if not variables:
        raise ParseError("system file needs a 'vars' list")
    pring = PolyRing(pres, variables, "lex")
    return pring, [pring.poly_from_json(e) for e in _as_list(obj["polys"], "polys")]


def _cmd_solve_local(args) -> int:
    obj = _load_json(args.system)
    pring, polys = _local_system_from_json(obj)
    roots = localring_mod.solve_local_system(polys)
    sols = sorted(
        [[pring.ring.element_to_json(v) for v in sol] for sol in roots]
    )
    return _emit(
        "solve-local",
        {"ring": pring.ring.to_json(), "vars": list(pring.variables), "polys": obj["polys"]},
        {"solutions": sols, "count": len(sols)},
    )


def _cmd_rank(args) -> int:
    obj = _load_json(args.matrix)
    ring = parse_ring_spec(args.ring) if args.ring else None
    A = RingMatrix.from_json(obj, ring)
    dec = smith_normal_form(A)
    result = {
        "rank": rank(A),
        "rank_profile": list(rank_profile(A)),
        "smith_diagonal": [A.ring.element_to_json(x) for x in dec.diagonal()],
    }
    return _emit("rank", A.to_json(), result)


def _cmd_minrank(args) -> int:
    inst = MinRankInstance.from_json(_load_json(args.instance))
    if args.transpose:
        inst = transpose_instance(inst)
    if args.strategy == "brute":
        sols = brute_minrank(inst)
    else:
        sols = solve_minrank(inst, strategy=args.strategy)
    result = {
        "solutions": [[inst.ring.element_to_json(v) for v in x] for x in sols],
        "strategy": args.strategy,
    }
    return _emit("minrank", inst.to_json(), result)


def _cmd_rank_decode(args) -> int:
    S = extension_from_json(_load_json(args.extension))
    rd = RankDecodingInstance(
        S,
        generator_from_json(S, _load_json(args.generator)),
        word_from_json(S, _load_json(args.received), "received"),
        args.radius,
    )
    res = decode(rd, strategy=args.strategy)
    sols = [
        {
            "x": [S.element_to_json(v) for v in x],
            "c": [S.element_to_json(v) for v in c],
            "e": [S.element_to_json(v) for v in e],
        }
        for (x, c, e) in res.solutions
    ]
    result = {
        "strategy_used": res.strategy_used,
        "verified": True,
        "unique": res.unique,
        "solutions": sols,
    }
    if res.unique:
        result.update(sols[0])
    return _emit("rank-decode", rd.to_json(), result)


def _cmd_verify(args) -> int:
    envelope = _load_json(args.result)
    if not isinstance(envelope, dict) or "command" not in envelope:
        raise ParseError("verify expects a result envelope with a 'command' field")
    command = envelope["command"]
    inp, res = envelope["input"], envelope["result"]
    for key, value in (("input", inp), ("result", res)):
        if not isinstance(value, dict):
            raise ParseError(f"field '{key}' must be an object, got {value!r}")
    budget = OracleBudget(args.budget) if args.budget else DEFAULT_BUDGET
    checks = _verify_dispatch(command, inp, res, budget)
    sys.stdout.write(_dump({"command": "verify", "verified": True, "checks": checks}))
    return 0


def _verify_dispatch(command: str, inp, res, budget: OracleBudget) -> list[str]:
    checks = []
    if command == "gb":
        pring, polys = _system_from_json(inp, None, None, allow_text=False)
        basis = [pring.poly_from_json(b) for b in _as_list(res["basis"], "basis")]
        from .groebner import GroebnerBasis

        G = GroebnerBasis(tuple(basis), pring)
        if not verify_groebner(G):
            raise ChainRingError("basis fails the S/A-polynomial conditions")
        checks.append("groebner-conditions")
        for f in polys:
            if not G.contains(f):
                raise ChainRingError("an input polynomial is not in the basis ideal")
        G2 = buchberger(polys, pring)
        for b in basis:
            if not G2.contains(b):
                raise ChainRingError("a basis member is not in the input ideal")
        checks.append("ideal-equality")
    elif command == "solve":
        pring, polys = _system_from_json(inp, None, None, allow_text=False)
        R = pring.ring
        sols = _solution_lists(res)
        explicit = [s for s in sols if "*" not in s]
        for s in explicit:
            point = [R.element_from_json(v) for v in s]
            if not all(p.evaluate(point).is_zero() for p in polys):
                raise ChainRingError(f"listed tuple {s} does not solve the system")
        checks.append("solutions-satisfy-system")
        if R.size**pring.nvars <= budget.max_enumeration:
            reference = brute_solve(polys, budget)
            got = _solutions_from_json(R, pring, sols)
            if got != reference.explicit():
                raise ChainRingError("solution set differs from brute-force enumeration")
            checks.append("brute-force-equality")
    elif command == "rank":
        A = RingMatrix.from_json(inp)
        if rank(A) != res["rank"]:
            raise ChainRingError("rank mismatch on recomputation")
        checks.append("rank-recomputed")
        if A.ring.size ** max(A.m, A.n) <= budget.max_enumeration:
            if brute_rank(A, budget) != res["rank"]:
                raise ChainRingError("rank differs from the generating-subset search")
            checks.append("brute-rank")
    elif command == "minrank":
        inst = MinRankInstance.from_json(inp)
        xs = [tuple(inst.ring.element_from_json(v) for v in x) for x in _solution_lists(res)]
        for x in xs:
            if not inst.is_solution(x):
                raise ChainRingError("reported x exceeds the rank bound")
        checks.append("solutions-rank-verified")
        if inst.ring.size**inst.k <= budget.max_enumeration:
            if set(xs) != set(brute_minrank(inst, budget)):
                raise ChainRingError("solution set differs from brute force")
            checks.append("brute-force-equality")
    elif command == "rank-decode":
        rd = RankDecodingInstance.from_json(inp)
        S = rd.ext
        xs = []
        for sol in _as_list(res["solutions"], "solutions"):
            if not isinstance(sol, dict):
                raise ParseError(f"field 'solutions' must hold objects, got {sol!r}")
            x = word_from_json(S, sol["x"], "x")
            c = word_from_json(S, sol["c"], "c")
            if rd.codeword(x) != c:
                raise ChainRingError("c is not x*G")
            if not rd.check(x):
                raise ChainRingError("error word exceeds the radius")
            xs.append(x)
        checks.append("codewords-verified")
        if S.size**rd.k <= budget.max_enumeration:
            reference = brute_decode_set(rd, budget)
            if set(xs) != set(reference):
                raise ChainRingError("solution set differs from brute force")
            if res["unique"] != (len(reference) == 1):
                raise ChainRingError("the unique flag disagrees with brute force")
            checks.append("brute-force-equality")
    elif command == "solve-local":
        pring, polys = _local_system_from_json(inp)
        pres = pring.ring
        sols = _solution_lists(res)
        for s in sols:
            point = [pres.element_from_json(v) for v in s]
            for p in polys:
                if not pres.is_zero(p.evaluate(point)):
                    raise ChainRingError(f"listed root {s} does not solve the system")
        checks.append("solutions-satisfy-system")
        if pres.size ** pring.nvars <= budget.max_enumeration:
            got = {tuple(pres.element_from_json(v) for v in s) for s in sols}
            if got != brute_solve(polys, budget).explicit():
                raise ChainRingError("solution set differs from brute-force enumeration")
            checks.append("brute-force-equality")
    else:
        raise ParseError(f"verify does not understand command {command!r}")
    return checks


def _solutions_from_json(R, pring, sols) -> frozenset:
    entries = set()
    for s in sols:
        entry = tuple(
            ALL_OF_RING if v == "*" else R.element_from_json(v) for v in s
        )
        entries.add(entry)
    return SolutionSet(R, pring.variables, frozenset(entries)).explicit()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chainring",
        description="Polynomial systems, MinRank, and rank decoding over finite chain rings",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gb = sub.add_parser("gb", help="Gröbner basis of a polynomial system")
    gb.add_argument("system", help="system JSON file (or - for stdin)")
    gb.add_argument("--ring", help="ring spec (zpk:p:k, gr:p:k:r, zn:n, or JSON)")
    gb.add_argument("--order", help="monomial order, e.g. lex:x,y or degrevlex")
    gb.add_argument("--vars", help="comma-separated variable names (overrides the file)")
    gb.add_argument("--field-equations", action="store_true")
    gb.add_argument("--text", action="store_true", help="allow text polynomials")
    gb.set_defaults(func=_cmd_gb)

    so = sub.add_parser("solve", help="solve a polynomial system")
    so.add_argument("system", help="system JSON file (or - for stdin)")
    so.add_argument("--ring")
    so.add_argument("--order")
    so.add_argument("--vars")
    so.add_argument("--method", choices=["elimination", "lifting"], default="elimination")
    so.add_argument("--max-solutions", type=int, default=DEFAULT_SOLUTION_CAP)
    so.add_argument("--text", action="store_true")
    so.set_defaults(func=_cmd_solve)

    sl = sub.add_parser("solve-local", help="solve over a finite local ring")
    sl.add_argument("system")
    sl.set_defaults(func=_cmd_solve_local)

    rk = sub.add_parser("rank", help="rank and Smith diagonal of a matrix")
    rk.add_argument("matrix")
    rk.add_argument("--ring")
    rk.set_defaults(func=_cmd_rank)

    mr = sub.add_parser("minrank", help="solve a MinRank instance")
    mr.add_argument("--instance", required=True)
    mr.add_argument(
        "--strategy",
        choices=["ks", "sm-groebner", "sm-linearization", "brute"],
        default="ks",
    )
    mr.add_argument("--transpose", action="store_true")
    mr.set_defaults(func=_cmd_minrank)

    rd = sub.add_parser("rank-decode", help="rank-metric decoding")
    rd.add_argument("--extension", required=True)
    rd.add_argument("--generator", required=True)
    rd.add_argument("--received", required=True)
    rd.add_argument("--radius", type=int, required=True)
    rd.add_argument(
        "--strategy",
        choices=["auto", *ROUTES],
        default="auto",
    )
    rd.set_defaults(func=_cmd_rank_decode)

    ve = sub.add_parser("verify", help="re-verify a result envelope")
    ve.add_argument("result", help="envelope JSON produced by another subcommand")
    ve.add_argument("--budget", type=int, default=None)
    ve.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stdout.write(
            _dump({"error": {"type": "ParseError", "message": str(exc)}})
        )
        return 2
    except ChainRingError as exc:
        sys.stdout.write(
            _dump({"error": {"type": type(exc).__name__, "message": str(exc)}})
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
