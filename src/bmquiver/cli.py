"""Command-line front end: evaluation, enumeration, and verification sweeps.

Exit codes: 0 when everything checked passes (warnings allowed), 1 when any
verification fails, 2 for usage or parse errors.  JSON output is rendered
with sorted keys and two-space indentation, so reports are byte-stable and
round-trip through json.loads/dumps unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .bm import BmChain, BmObject, edge_pool, enumerate_edges, enumerate_objects
from .compare import gamma_chain, xi_component
from .errors import BmQuiverError, ParseError, ValidationError
from .quiverf import f_chain, j_cardinality_audit, pairing_set
from .sweeps import SUITE_NAMES, SweepConfig, run_suites
from .wfib import g_chain

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _parse_chain(text: str) -> BmChain:
    return BmChain.parse(text)


def _eval_payload(entity: str, instance: str) -> dict:
    if entity == "F":
        chain = _parse_chain(instance)
        fq = f_chain(chain)
        return {
            "entity": "F",
            "key": chain.encode(),
            "size": len(fq),
            "blocks": [[str(label) for label in block] for block in fq.blocks],
        }
    if entity == "G":
        chain = _parse_chain(instance)
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
        chain = _parse_chain(instance)
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
        chain = _parse_chain(instance)
        if chain.length != 1:
            raise ValidationError("pairs needs a single edge encoding")
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
        chain = _parse_chain(instance)
        if chain.length != 1:
            raise ValidationError("audit needs a single edge encoding")
        return {"entity": "audit", **j_cardinality_audit(chain.edges[0]).to_dict()}
    if entity == "xi":
        chain_text, _, size_text = instance.partition("@")
        chain = _parse_chain(chain_text)
        try:
            size = int(size_text) if size_text else 2
        except ValueError:
            raise ParseError(f"bad target size {size_text!r}") from None
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
    if args.kind == "objects":
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
        edges = enumerate_edges(phi, phi_prime)
        return {
            "kind": "edges",
            "count": len(edges),
            "items": [e.encode() for e in edges],
        }
    # chains: breadth bounded by --max-k, length exactly --max-len
    if args.max_len < 0:
        raise ValidationError(f"--max-len must be >= 0, got {args.max_len}")
    pool = edge_pool(args.max_k)
    chains: list[str] = []

    def extend(prefix, tail, remaining):
        if remaining == 0:
            chain = (
                BmChain.from_edges(list(prefix)) if prefix else BmChain.vertex(tail)
            )
            chains.append(chain.encode())
            return
        for edge in pool[tail]:
            extend(prefix + (edge,), edge.phi_prime, remaining - 1)

    for phi in pool:
        extend((), phi, args.max_len)
    return {"kind": "chains", "count": len(chains), "items": chains}


def _render_listing(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(payload)
    lines = [f"{payload['kind']}: {payload['count']}"]
    lines.extend(f"  {item}" for item in payload["items"])
    return "\n".join(lines) + "\n"


def _render_verify(reports, fmt: str) -> str:
    if fmt == "json":
        return _dump_json([r.to_dict() for r in reports])
    lines = []
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{flag} {r.suite}: {r.total} checked, {r.failed} failed, {r.warned} warned"
        )
        for inst in r.instances:
            lines.append(f"  [{inst['status']}] {inst['key']}")
            for witness in inst["witnesses"]:
                lines.append(f"      {witness}")
    return "\n".join(lines) + "\n"


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
    p_verify.add_argument("--suites", nargs="+", choices=list(SUITE_NAMES))
    p_verify.add_argument("--jobs", type=int, default=1)
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
            mode="sampled" if args.samples is not None else "exhaustive",
            samples=args.samples or 0,
            seed=args.seed,
        )
        reports = run_suites(config, args.suites, jobs=args.jobs)
        sys.stdout.write(_render_verify(reports, args.format))
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
