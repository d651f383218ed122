"""Command-line front end: evaluation, enumeration, and verification sweeps.

Exit codes: 0 when everything checked passes (warnings allowed), 1 when any
verification fails, 2 for usage or parse errors.  JSON output is rendered
with sorted keys and two-space indentation, so reports are byte-stable and
round-trip through json.loads/dumps unchanged.  verify writes its reports
record by record once every suite has run, byte-identical to
json.dumps(indent=2, sort_keys=True) of them, so it holds no copy of its
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Sequence

from . import bm
from .bm import BmChain, BmObject, count_edges, enumerate_edges, enumerate_objects
from .compare import f_chain, gamma_chain, xi_component
from .errors import BmQuiverError, ParseError, ValidationError
from .quiverf import j_cardinality_audit, pairing_set
from .sweeps import EXTRA_SUITE_NAMES, SUITE_NAMES, SweepConfig, reads_edges, run_suites
from .wfib import g_chain

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Most items that an `enumerate` listing lists.
LISTING_MAX_ITEMS = 100_000
#: Most edges that an exhaustive `verify` builds, and most draws of a sampled one.
VERIFY_MAX_ITEMS = 10_000_000


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _eval_payload(entity: str, instance: str) -> dict:
    at, size_text = "", ""
    if entity == "xi":
        instance, at, size_text = instance.partition("@")
    chain = BmChain.parse(instance)
    if entity in ("pairs", "audit") and chain.length != 1:
        raise ValidationError(f"{entity} needs a single edge encoding")
    if entity == "F":
        fq = f_chain(chain)
        return {
            "entity": "F",
            "key": chain.encode(),
            "size": len(fq),
            "blocks": [[str(label) for label in block] for block in fq.blocks],
        }
    if entity == "G":
        g = g_chain(chain)
        return {
            "entity": "G",
            "key": chain.encode(),
            "size": len(g),
            "blocks": [
                [f"({t},{j})" for t, j in block] for block in g.classes.blocks
            ],
            "vertexMaps": [
                [f"({t},{j})" for t, j in vm] for vm in g.vertex_maps
            ],
        }
    if entity == "gamma":
        gamma = gamma_chain(chain)
        return {
            "entity": "gamma",
            "key": chain.encode(),
            "assignment": {
                str(rep): f"({image[0]},{image[1]})"
                for rep, image in sorted(gamma.assignment.items())
            },
        }
    if entity == "pairs":
        pairing = pairing_set(chain.edges[0])
        return {
            "entity": "pairs",
            "key": chain.encode(),
            "count": pairing.raw_count,
            "pairs": [
                {"left": str(a), "right": str(b), "note": note}
                for (a, b), note in zip(pairing.pairs, pairing.notes)
            ],
        }
    if entity == "audit":
        return {"entity": "audit", **j_cardinality_audit(chain.edges[0]).to_dict()}
    if entity == "xi":
        # ASCII digits only, as in DeltaMap.parse: int() would also take "+2" or "٢".
        digits = size_text.strip()
        if at and not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"bad target size {size_text!r}")
        size = int(digits) if at else 2
        table = xi_component(chain, size)
        return {
            "entity": "xi",
            "key": f"{chain.encode()}@{size}",
            "gRepresentatives": [f"({t},{j})" for t, j in table.g_representatives],
            "fRepresentatives": [str(r) for r in table.f_representatives],
            "table": [
                {"on_g": list(h), "on_f": list(induced)}
                for h, induced in table.entries
            ],
        }
    raise ValidationError(f"unknown entity {entity!r}")


def _render_eval(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(payload)
    lines = [f"{payload['entity']} {payload['key']}"]
    if "size" in payload:
        lines.append(f"size: {payload['size']}")
    if "blocks" in payload:
        for block in payload["blocks"]:
            lines.append("  {" + ", ".join(block) + "}")
    if "vertexMaps" in payload:
        for t, vm in enumerate(payload["vertexMaps"]):
            lines.append(f"  vertex {t}: [" + ", ".join(vm) + "]")
    if "assignment" in payload:
        for rep, image in payload["assignment"].items():
            lines.append(f"  {rep} -> {image}")
    if "pairs" in payload:
        lines.append(f"count: {payload['count']}")
        for pair in payload["pairs"]:
            lines.append(f"  ({pair['left']}, {pair['right']})  {pair['note']}")
    if payload["entity"] == "audit":
        for field in (
            "rawCount",
            "selfPairCount",
            "effectiveCount",
            "formulaCount",
            "rawMatches",
            "effectiveMatches",
            "degenerate",
            "midImageTight",
        ):
            lines.append(f"{field}: {payload[field]}")
    if "table" in payload:
        lines.append(f"hom-set size: {len(payload['table'])}")
        for entry in payload["table"]:
            lines.append(f"  {entry['on_g']} -> {entry['on_f']}")
    return "\n".join(lines) + "\n"


def _enumerate_payload(args: argparse.Namespace) -> dict:
    objects = bm.count_objects(args.max_k)
    if args.kind == "objects":
        _check_count("objects", objects)
        objs = enumerate_objects(args.max_k)
        return {
            "kind": "objects",
            "count": len(objs),
            "items": [phi.encode() for phi in objs],
        }
    if args.kind == "edges":
        if args.phi is None or args.phi_prime is None:
            raise ValidationError("enumerate edges needs --phi and --phi-prime")
        phi = BmObject.parse(args.phi)
        phi_prime = BmObject.parse(args.phi_prime)
        _check_count("edges", count_edges(phi, phi_prime))
        edges = enumerate_edges(phi, phi_prime)
        return {
            "kind": "edges",
            "count": len(edges),
            "items": [e.encode() for e in edges],
        }
    # chains: breadth bounded by --max-k, length exactly --max-len
    if args.max_len < 0:
        raise ValidationError(f"--max-len must be >= 0, got {args.max_len}")
    # Every object has its identity edge, so each chain extends to a distinct
    # longer one: the objects and then the edges, one source at a time, bound
    # the count from below before anything is built.
    _check_count("chains", objects, not args.max_len)
    if not args.max_len:
        objs = enumerate_objects(args.max_k)
        return {"kind": "chains", "count": len(objs), "items": [phi.encode() for phi in objs]}
    for edges, last in _leaving_sums(args.max_k, args.max_k):
        _check_count("chains", edges, args.max_len == 1 and last)
    tops = range(args.max_k + 1)
    # ends[k']: the chains of this length that end on [k'] (at length 0, its k' + 2 objects).
    ends, length = [k + 2 for k in tops], 0
    # Far past the bound, a lower bound will do and keeps the numbers small.
    while length < args.max_len and sum(ends) <= LISTING_MAX_ITEMS**2:
        previous = ends
        ends = [sum(bm.count_ordinal_edges(k, kp) * ends[k] for k in tops) for kp in tops]
        # At a fixed point every longer length has the same counts.
        length = args.max_len if ends == previous else length + 1
    chains = sum(ends)
    _check_count("chains", chains, length == args.max_len)
    # Few chains can still be long: --max-len edge keys each, bounded too.
    if chains * args.max_len > 10 * LISTING_MAX_ITEMS:
        raise ValidationError(
            f"enumerate chains would list {chains} chains of {args.max_len} edges, "
            f"{chains * args.max_len} edges, more than {10 * LISTING_MAX_ITEMS}"
        )
    objs = enumerate_objects(args.max_k)
    # leaving[s]: (target index, key) of each edge from objs[s], in edge order.
    leaving = [
        [(t, e.encode()) for t, target in enumerate(objs) for e in enumerate_edges(phi, target)]
        for phi in objs
    ]
    # levels[n]: (object index, position of the prefix in levels[n - 1], key of
    # the last edge) of each chain of length n, so no prefix is copied.
    levels = [[(s, 0, "") for s in range(len(objs))]]
    for _ in range(args.max_len):
        levels.append(
            [(t, i, key) for i, (s, _, _) in enumerate(levels[-1]) for t, key in leaving[s]]
        )
    items = []
    for _, parent, key in levels[-1]:
        keys = [key]
        for level in reversed(levels[1:-1]):
            _, parent, key = level[parent]
            keys.append(key)
        items.append("|".join(reversed(keys)))
    return {"kind": "chains", "count": len(items), "items": items}


def _leaving_sums(max_k: int, max_k_prime: int) -> Iterator[tuple[int, bool]]:
    """Running sums of the edges, none built, from each object on [k <= max_k] into those
    on [k' <= max_k_prime], in enumerate_objects order, each with whether it is the last."""
    objects, tops = bm.count_objects(max_k), range(max_k + 1)
    counts = (bm.count_leaving_edges(k, max_k_prime) for k in tops for _ in range(k + 2))
    for counted, total in enumerate(accumulate(counts), 1):
        yield total, counted == objects


def _check_count(kind: str, count: int, exact: bool = True) -> None:
    """Exit 2, naming the count, when enumerate <kind> would list too many."""
    if count > LISTING_MAX_ITEMS:
        least = "" if exact else "at least "
        raise ValidationError(
            f"enumerate {kind} would list {least}{count} {kind}, "
            f"more than {LISTING_MAX_ITEMS}"
        )


def _check_verify_count(config: SweepConfig, names: Sequence[str]) -> None:
    """Exit 2, naming the count, when verify would build too many objects or
    edges, keep too many draws, or draw too many chain edges."""
    # Every suite builds the objects on [k <= max_k], and an edge suite the
    # targets on [k <= max_k_prime]: count them before any is built.
    edges = reads_edges(config, names)
    bounds = [("--max-k", config.max_k)]
    if edges:
        bounds.append(("--max-kprime", config.max_k_prime))
    for flag, bound in bounds:
        objects = bm.count_objects(bound)
        if objects > LISTING_MAX_ITEMS:
            raise ValidationError(
                f"verify would build {objects} objects for {flag} {bound}, "
                f"more than {LISTING_MAX_ITEMS}"
            )
    if (config.samples or 0) > VERIFY_MAX_ITEMS:
        raise ValidationError(
            f"verify would draw {config.samples} samples, more than {VERIFY_MAX_ITEMS}"
        )
    drawn = (config.samples or 0) * config.max_chain_len
    if "gluing" in names and drawn > VERIFY_MAX_ITEMS:
        raise ValidationError(
            f"verify would draw up to {drawn} chain edges, more than {VERIFY_MAX_ITEMS}"
        )
    if config.samples is None and edges:
        # Exhaustive naturality walks every edge, and a signed suite walks them to
        # list them where every signature warns or fails.
        for total, last in _leaving_sums(config.max_k, config.max_k_prime):
            if total > VERIFY_MAX_ITEMS:
                least = "" if last else "at least "
                raise ValidationError(
                    f"verify would build {least}{total} edges, more than {VERIFY_MAX_ITEMS}"
                )


def _render_listing(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(payload)
    lines = [f"{payload['kind']}: {payload['count']}"]
    lines.extend(f"  {item}" for item in payload["items"])
    return "\n".join(lines) + "\n"


def _write_verify(reports, fmt: str, write) -> None:
    """Write the reports through write a record at a time, holding no copy of the
    output: JSON byte-identical to _dump_json([r.to_dict() for r in reports]),
    text to its lines joined by newlines, each listed instance one string."""
    if fmt == "text":
        if not reports:
            write("\n")
        for r in reports:
            flag = "PASS" if r.passed else "FAIL"
            write(f"{flag} {r.suite}: {r.total} checked, {r.failed} failed, {r.warned} warned\n")
            for inst in r.instances:
                lines = [f"  [{inst['status']}] {inst['key']}", *inst["witnesses"]]
                write("\n      ".join(lines) + "\n")
        return
    if not reports:
        write("[]\n")
        return
    before_report = "[\n"
    for r in reports:
        report = r.to_dict()
        write(f'{before_report}  {{\n    "bounds": {_nested(report["bounds"])},\n    "instances": ')
        before_report, before_instance = ",\n", "[\n"
        for inst in report["instances"]:
            witnesses = ",\n          ".join(map(_quote, inst["witnesses"]))
            write(
                f'{before_instance}      {{\n        "key": {_quote(inst["key"])},\n'
                f'        "status": {_quote(inst["status"])},\n        "witnesses": '
                + (f"[\n          {witnesses}\n        ]\n      }}" if witnesses else "[]\n      }")
            )
            before_instance = ",\n"
        write("\n    ],\n" if report["instances"] else "[],\n")
        summary = _nested(report["summary"])
        write(f'    "suite": {_quote(report["suite"])},\n    "summary": {summary}\n  }}')
    write("\n]\n")


def _nested(value) -> str:
    """value as json.dumps(indent=2, sort_keys=True) renders a field of a report in a
    list: every line after the first four spaces further in."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n    ")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmquiver",
        description="Evaluate and verify the two quiver constructions at finite level.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one instance")
    p_eval.add_argument(
        "entity", choices=["F", "G", "gamma", "pairs", "audit", "xi"]
    )
    p_eval.add_argument("instance", help="object, edge, or chain encoding")
    p_eval.add_argument("--format", choices=["text", "json"], default="text")

    p_enum = sub.add_parser("enumerate", help="list objects, edges, or chains")
    p_enum.add_argument("kind", choices=["objects", "edges", "chains"])
    p_enum.add_argument("--max-k", type=int, default=2)
    p_enum.add_argument("--max-len", type=int, default=1)
    p_enum.add_argument("--phi")
    p_enum.add_argument("--phi-prime", "--phiPrime", dest="phi_prime")
    p_enum.add_argument("--format", choices=["text", "json"], default="text")

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("--max-k", type=int, default=3)
    p_verify.add_argument("--max-kprime", type=int, default=None)
    p_verify.add_argument("--max-chain-len", type=int, default=2)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--suites", nargs="+", choices=list(SUITE_NAMES + EXTRA_SUITE_NAMES)
    )
    p_verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and has no effect: every suite runs in one process",
    )
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS

    try:
        if args.command == "eval":
            payload = _eval_payload(args.entity, args.instance)
            sys.stdout.write(_render_eval(payload, args.format))
            return EXIT_PASS
        if args.command == "enumerate":
            payload = _enumerate_payload(args)
            sys.stdout.write(_render_listing(payload, args.format))
            return EXIT_PASS
        # verify
        config = SweepConfig(
            max_k=args.max_k,
            max_k_prime=args.max_kprime if args.max_kprime is not None else args.max_k,
            max_chain_len=args.max_chain_len,
            samples=args.samples,
            seed=args.seed,
        )
        if args.jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {args.jobs}")
        names = args.suites or SUITE_NAMES
        if args.max_kprime is not None and not reads_edges(config, names):
            raise ValidationError(f"--max-kprime is not read: no edge in suites {' '.join(names)}")
        _check_verify_count(config, names)
        reports = run_suites(config, args.suites)
        _write_verify(reports, args.format, sys.stdout.write)
        return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BmQuiverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
