"""Command-line front end.

One subcommand per pipeline stage plus format utilities.  Exit codes:
0 = success, 1 = domain failure (a check failed or a precondition does not
hold), 2 = malformed input, usage, or a file that cannot be read or written.  Human-readable summaries go to
stdout, artifacts to files, and diagnostics (including one-line
machine-parsable error reasons) to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats
from .colour import (
    DEFAULT_BUDGET,
    SolverLog,
    chromatic_number,
    edge_chromatic_number_complex,
    heawood_colour_12,
    pair_chromatic_number,
)
from .construct import (
    inverse_link,
    make_degree_faithful,
    run_pipeline,
    seal,
    verify_witness,
)
from .errors import DomainError, SchemaError
from .search import search_witness


def _eprint(text: str) -> None:
    print(text, file=sys.stderr)


def _write_doc(path: str, doc: dict) -> None:
    formats.save(path, doc)
    _eprint(f"wrote {path}")


def _colouring_doc(c) -> dict:
    return formats.colouring_to_doc(c.palette_size, c.assignment)


def cmd_link(args) -> int:
    from .core import link_graph

    c = formats.complex_from_doc(formats.load(args.input))
    L = link_graph(c)
    if args.out:
        _write_doc(args.out, formats.paired_graph_to_doc(L))
    print(
        f"link graph: {len(L.graph.vertices)} vertices, "
        f"{len(L.graph.edge_ids())} edges, {len(L.pairing.pairs)} pairs"
    )
    return 0


def cmd_quotient(args) -> int:
    from .core import paired_quotient, simple_quotient

    pg = formats.paired_graph_from_doc(formats.load(args.input))
    q = simple_quotient(pg) if args.simple else paired_quotient(pg)
    if args.out:
        _write_doc(args.out, formats.graph_to_doc(q))
    label = "simple quotient" if args.simple else "paired quotient"
    print(f"{label}: {len(q.vertices)} vertices, {len(q.edge_ids())} edges")
    return 0


def _exact(read, solve):
    """The handler of an exact-solver command: ``solve`` on the ``--in``
    document as ``read``, the solver log to stderr, the colouring to ``--out``
    if given and ``k`` to stdout; exit 1 if ``k`` exceeds ``--palette``."""

    def handler(args) -> int:
        log = SolverLog([], 0, 0)
        k, witness = solve(read(formats.load(args.input)), log, budget=args.budget)
        _eprint(json.dumps({"solver": log.as_dict()}))
        if args.out:
            # chromatic_number's witness is a plain mapping, the others' a Colouring
            _write_doc(args.out, formats.colouring_to_doc(k, getattr(witness, "assignment", witness)))
        print(k)
        if args.palette is not None and k > args.palette:
            _eprint(f"error:domain: needs {k} colours, exceeding the requested palette of {args.palette}")
            return 1
        return 0

    return handler


def cmd_heawood12(args) -> int:
    from .colour import heawood_degeneracy_order

    pg = formats.paired_graph_from_doc(formats.load(args.input))
    order = heawood_degeneracy_order(pg)
    _eprint(
        json.dumps(
            {
                "elimination_order": [
                    {"pair": formats.id_text(pair), "degree": degree} for pair, degree in order
                ]
            }
        )
    )
    colouring = heawood_colour_12(pg)
    if args.out:
        _write_doc(args.out, _colouring_doc(colouring))
    print(colouring.colours_used())
    return 0


def cmd_augment(args) -> int:
    pg = formats.paired_graph_from_doc(formats.load(args.input))
    out = make_degree_faithful(pg)
    _write_doc(args.out, formats.paired_graph_to_doc(out))
    print(f"augmented: {len(out.graph.edge_ids())} edges (from {len(pg.graph.edge_ids())})")
    return 0


def cmd_inverse_link(args) -> int:
    pg = formats.paired_graph_from_doc(formats.load(args.input))
    c = inverse_link(pg)
    _write_doc(args.out, formats.complex_to_doc(c))
    print(f"punctured complex: {len(c.skeleton.edge_ids())} loops, {len(c.cells)} cells")
    return 0


def cmd_seal(args) -> int:
    c = formats.complex_from_doc(formats.load(args.input))
    s = seal(c)
    _write_doc(args.out, formats.complex_to_doc(s))
    print(f"sealed complex: {len(s.cells)} genuine cells")
    return 0


def cmd_pipeline(args) -> int:
    witness = None
    if args.input:
        witness = formats.witness_from_doc(formats.load(args.input))
    stages = run_pipeline(witness)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each document is made just before it is written, so a writer that
    # raises leaves only the files before it
    for name, to_doc, stage in (
        ("witness.json", formats.witness_to_doc, stages.witness),
        ("augmented.json", formats.paired_graph_to_doc, stages.augmented),
        ("punctured.json", formats.complex_to_doc, stages.punctured),
        ("sealed.json", formats.complex_to_doc, stages.sealed),
        ("colouring-exact.json", _colouring_doc, stages.exact_colouring),
        ("colouring-degeneracy.json", _colouring_doc, stages.degeneracy_colouring),
    ):
        _write_doc(out_dir / name, to_doc(stage))
    print(f"edge-chromatic number: {stages.edge_chromatic}")
    return 0


def cmd_verify_witness(args) -> int:
    witness = formats.witness_from_doc(formats.load(args.input))
    report = verify_witness(witness)
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


def cmd_search_witness(args) -> int:
    witness = search_witness(args.seed, args.budget)
    if args.out:
        _write_doc(args.out, formats.witness_to_doc(witness))
    steps = witness.provenance.get("steps_used")
    print(f"witness found after {steps} proposals")
    return 0


def cmd_genus(args) -> int:
    pg = formats.paired_graph_from_doc(formats.load(args.input))
    if pg.rotation is None:
        raise DomainError("the paired-graph file carries no rotation system")
    components = pg._embedding
    for comp in components:
        print(f"component {formats.id_text(comp.vertices[0])}: genus {comp.genus} ({comp.face_count} faces)")
    planar = all(c.genus == 0 for c in components)
    print(f"planar embedding: {'yes' if planar else 'no'}")
    return 0


def cmd_dot(args) -> int:
    doc = formats.load(args.input)
    kind = formats.sniff_kind(doc)
    if kind == "witness":
        w = formats.witness_from_doc(doc)
        dot = formats.to_dot(w.graph, w.pairing)
    elif kind == "complex":
        dot = formats.to_dot(formats.complex_from_doc(doc).skeleton)
    elif kind == "paired":
        pg = formats.paired_graph_from_doc(doc)
        dot = formats.to_dot(pg.graph, pg.pairing)
    else:
        dot = formats.to_dot(formats.graph_from_doc(doc))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dot)
    _eprint(f"wrote {args.out}")
    return 0


def cmd_corpus(args) -> int:
    from .corpus import run_all_checks

    results = run_all_checks()
    for r in results:
        print(r.line())
    return 1 if any(r.status == "fail" for r in results) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkchroma",
        description="Edge-colourings of 2-complexes via link graphs and paired quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, inp=None, out=None, extra=None):
        p = sub.add_parser(name, help=help_text)
        if inp:
            required = inp == "required"
            p.add_argument("--in", dest="input", required=required, help="input file")
        if out:
            p.add_argument("--out", dest="out", required=(out == "required"), help="output file")
        if extra:
            extra(p)
        p.set_defaults(handler=handler)
        return p

    def solver_options(p):
        p.add_argument("--palette", type=int, help="fail (exit 1) if more colours are needed")
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help="branch-node budget; fail (exit 1) with the proven bounds when it runs out",
        )

    add("link", cmd_link, "link graph of a 2-complex", inp="required", out="optional")
    add(
        "quotient",
        cmd_quotient,
        "paired quotient of a paired graph",
        inp="required",
        out="optional",
        extra=lambda p: p.add_argument(
            "--simple", action="store_true", help="drop loops and collapse parallels"
        ),
    )
    for name, read, solve, help_text in (
        ("chroma", formats.graph_from_doc, chromatic_number, "exact chromatic number of a graph"),
        ("pair-chroma", formats.paired_graph_from_doc, pair_chromatic_number, "exact pair-chromatic number"),
        (
            "colour-complex",
            formats.complex_from_doc,
            edge_chromatic_number_complex,
            "exact edge-chromatic number of a 2-complex",
        ),
    ):
        add(name, _exact(read, solve), help_text, inp="required", out="optional", extra=solver_options)
    add("heawood12", cmd_heawood12, "12-colour a certified-planar paired graph", inp="required", out="optional")
    add("augment", cmd_augment, "make a paired graph degree-faithful", inp="required", out="required")
    add("inverse-link", cmd_inverse_link, "complex with a prescribed link graph", inp="required", out="required")
    add("seal", cmd_seal, "seal punctured cells into genuine ones", inp="required", out="required")
    add(
        "pipeline",
        cmd_pipeline,
        "build the 12-chromatic complex, writing all stages",
        inp="optional",
        out="required",
    )
    add("verify-witness", cmd_verify_witness, "verify a witness file", inp="required")
    add(
        "search-witness",
        cmd_search_witness,
        "search for a 12-chromatic planar paired graph",
        out="optional",
        extra=lambda p: (
            p.add_argument("--seed", type=int, required=True, help="RNG seed"),
            p.add_argument("--budget", type=int, default=2_000_000, help="proposal budget"),
        ),
    )
    add("genus", cmd_genus, "per-component genus of an embedded paired graph", inp="required")
    add("dot", cmd_dot, "DOT export of any graph-bearing file", inp="required", out="required")
    add("corpus", cmd_corpus, "run the acceptance corpus checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, OSError) as exc:
        _eprint(f"error:schema: {exc}")
        return 2
    except DomainError as exc:
        _eprint(f"error:domain: {exc}")
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
