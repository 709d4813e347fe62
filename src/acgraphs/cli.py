"""Command-line front end: seeded, reproducible experiment runs with
machine-readable reports.

Subcommands: ``analyze`` (graph analytics), ``walk`` (samplers plus
diagnostics), ``stats`` (reference distributions and tests), ``scan``
(word-pair pipelines), ``verify`` (the theorem-check suite).  A command
form refuses each option it does not read, once set away from its default.

Every report embeds its manifest, the package version and all resolved
defaults; identical manifests produce byte-identical reports (there are
no timestamps, and all randomness is seeded).  Exact quantities are
emitted as numerator/denominator pairs.  Exit codes: 0 success, 1 usage
error, 2 failed verification, 3 resource cap, 4 internal error (any other
exception; stderr names its type and message).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from functools import partial
from typing import Sequence

import numpy as np

from . import __version__
from .conjecture import (
    AK_PAIR,
    WordPair,
    distance_series,
    parse_pair,
    scan_quotient,
    transvection_base,
)
from .elements import (
    GroupElement,
    MatrixGF,
    Permutation,
    parse_cycles,
    parse_matrix,
    parse_residues,
)
from .errors import (
    GroupSpecError,
    PreconditionError,
    ResourceCapError,
    VerificationError,
)
from .graphs import GraphHandle, GraphMode, components, diameter, distance
from .groups import FiniteGroup, SymmetricAmbient, parse_group
from .stats import (
    census,
    chi2_json,
    chi_squared_test,
    cycle_counts,
    cycle_distribution,
    histogram,
    point_action_uniformity,
    stirling_first,
)
from .subgroups import Subgroup, derived_subgroup, normal_closure
from .walkers import (
    WalkConfig,
    acr_sample_many,
    cayley_class_walk,
    default_step_budget,
    mixing_diagnostic,
    pra_sample_many,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_WALKER_CHUNK = 4096  # fixed, so reports do not depend on --threads
# samples x max(budget, 1) steps of one walk, at most, each step counting
# its conjugator-word letters too: about 2 minutes at the 10^7 steps/s of an
# alt:5 walk on one core.  A constant, like stats.STIRLING_CAP
MAX_WALKER_STEPS = 2**30


def emit_report(args, group_spec, parameters: dict, report: dict, out, rows=None) -> None:
    """Write a run's output, the one writer of reports and tables: the
    JSON document of its manifest, the package version and ``report``, or,
    when ``rows`` is given, the CSV table of those rows instead.  The
    manifest takes ``command``, ``seed`` and ``outputPath`` from ``args``.
    ``--output -`` writes to ``out``; an unwritable path is a usage error."""
    if rows is None:
        manifest = {
            "command": args.command,
            "groupSpec": group_spec,
            "parameters": parameters,
            "seed": args.seed,
            "outputPath": args.output,
        }
        doc = {"manifest": manifest, "version": __version__, "report": report}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        import csv

        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if args.output == "-":
        out.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise GroupSpecError(f"cannot write --output {args.output!r}: {exc.strerror}") from exc


def _refuse_unread(args, form: str, *dests: str) -> None:
    """The option contract: a command form refuses each option it does not
    read once that option is set away from its parser default."""
    for dest in dests:
        if getattr(args, dest) != args.parser.get_default(dest):
            option = "--" + dest.replace("_", "-")
            raise GroupSpecError(f"{option} does not apply to {form}")


# -- element / tuple parsing ------------------------------------------------------


def parse_element(group: FiniteGroup | SymmetricAmbient, text: str) -> GroupElement:
    """An element literal of the group; GroupSpecError if it is not one."""
    text = text.strip()
    if isinstance(group, SymmetricAmbient):
        return parse_cycles(text, group.degree)
    sample = group.elements[0]
    if isinstance(sample, Permutation):
        el = parse_cycles(text, sample.degree)
    elif isinstance(sample, MatrixGF):
        el = parse_matrix(text, sample.modulus)
    else:
        el = parse_residues(text, sample.moduli)
    if el not in group:
        raise GroupSpecError(f"element {text!r} is not in {group.name}")
    return el


def parse_tuple(
    group: FiniteGroup | SymmetricAmbient, text: str, k: int
) -> tuple[GroupElement, ...]:
    """Semicolon-separated element literals, identity-padded up to k."""
    parts = [p for p in text.split(";") if p.strip()]
    if len(parts) > k:
        raise GroupSpecError(f"tuple literal has {len(parts)} components, k={k}")
    els = [parse_element(group, p) for p in parts]
    iden = group.identity_element
    els += [iden] * (k - len(els))
    return tuple(els)


def _resolve_normal(group: FiniteGroup, spec: str) -> Subgroup:
    spec = spec.strip()
    if spec in ("whole", "group", "all"):
        return Subgroup(group, tuple(range(group.order)), True)
    if spec == "derived":
        return derived_subgroup(group)
    if spec.startswith("ncl:"):
        seeds = [
            group.index_of(parse_element(group, part))
            for part in spec[4:].split(";")
            if part.strip()
        ]
        return normal_closure(group, seeds)
    raise GroupSpecError(f"unknown normal-subgroup spec {spec!r}")


# -- analyze ------------------------------------------------------------------------


def cmd_analyze(args, out) -> int:
    if args.format == "csv":
        _refuse_unread(args, "analyze --format csv", "diameter", "distance")
    if args.distance is not None and args.distance.count("|") != 1:
        raise GroupSpecError(f"--distance {args.distance!r} is not of the form 'TUPLE|TUPLE'")
    group = parse_group(args.group)
    mode = GraphMode(args.mode.strip().lower(), args.directed_conjugators)
    handle = GraphHandle(group, args.k, mode, _resolve_normal(group, args.normal))
    parts = components(handle)
    report = {
        "graph": handle.describe(),
        "vertexCount": handle.vertex_count,
        **parts.to_json(),
    }
    if args.diameter:
        report["diameter"] = [
            {
                "component": lab,
                "value": diameter(
                    handle, parts.labels == lab, exact=args.diameter == "exact"
                ),
                "method": args.diameter,
            }
            for lab in range(parts.count)
        ]
    if args.distance:
        u_text, _, v_text = args.distance.partition("|")
        u = tuple(group.index_of(e) for e in parse_tuple(group, u_text, args.k))
        v = tuple(group.index_of(e) for e in parse_tuple(group, v_text, args.k))
        report["distances"] = [
            {
                "from": handle.format_tuple(u),
                "to": handle.format_tuple(v),
                "value": distance(handle, u, v),
            }
        ]
    rows = None
    if args.format == "csv":
        rows = [
            {
                "vertexCode": int(code),
                "vertex": handle.format_tuple(handle.decode(int(code))),
                "component": int(parts.labels[code]),
            }
            for code in np.flatnonzero(handle.vertex_mask)
        ]
    parameters = {
        "k": args.k,
        "mode": mode.describe(),
        "normal": args.normal,
        "diameter": args.diameter,
        "distance": args.distance,
        "format": args.format,
    }
    emit_report(args, args.group, parameters, report, out, rows)
    return EXIT_OK


# -- walk ---------------------------------------------------------------------------


_SYM_RE = re.compile(r"^sym:(\d+)$")


def _resolve_walk_group(spec: str):
    """Enumerated group, or a Sym_n ambient for large degrees.

    Walks over Sym_n with the Alt_n target never benefit from element
    enumeration (the vertex predicate is a parity check and conjugators
    are drawn by shuffle), so degrees beyond 6 go straight to the ambient
    arithmetic-only context."""
    m = _SYM_RE.match(spec.strip().lower())
    if m and int(m.group(1)) >= 7:
        return SymmetricAmbient(int(m.group(1)))
    return parse_group(spec)


def _run_walkers(kind, group, normal, init, cfg, seed, samples, threads):
    """Deterministic fan-out: fixed-size chunks with per-chunk spawned
    seeds, so the result is independent of the thread count."""
    chunks = [
        min(_WALKER_CHUNK, samples - start)
        for start in range(0, samples, _WALKER_CHUNK)
    ]
    seeds = np.random.SeedSequence(seed).spawn(len(chunks))

    def run_chunk(i: int):
        rng = np.random.default_rng(seeds[i])
        if kind == "acr":
            return acr_sample_many(group, normal, init, cfg, rng, chunks[i])
        return pra_sample_many(group, init, cfg, rng, chunks[i])

    # an executor starts a thread per submit while none is idle: at most
    # one worker per chunk and per CPU
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, range(len(chunks))))
    else:
        results = [run_chunk(i) for i in range(len(chunks))]
    return np.concatenate(results)


def cmd_walk(args, out) -> int:
    # PRA makes Nielsen moves only, with no conjugators; the Cayley walk
    # takes no walker config and runs in one thread
    pra_unread = ("conjugator_words", "plain_prob", "full_move_set")
    unread = {"acr": (), "pra": pra_unread, "cayley": (*pra_unread, "no_cumulative", "threads")}
    _refuse_unread(args, f"walk --algorithm {args.algorithm}", *unread[args.algorithm])
    if args.full_move_set:  # its four moves are equally likely
        _refuse_unread(args, "walk --full-move-set", "plain_prob")
    if args.samples < 1:
        raise GroupSpecError(f"--samples must be at least 1, got {args.samples}")
    if args.threads < 1:
        raise GroupSpecError(f"--threads must be at least 1, got {args.threads}")
    group = _resolve_walk_group(args.group)
    ambient = isinstance(group, SymmetricAmbient)
    if ambient and args.algorithm != "acr":
        label = {"pra": "PRA", "cayley": "Cayley"}[args.algorithm]
        raise GroupSpecError(f"the {label} walk needs an enumerated group")
    if ambient and args.normal != "derived":
        raise GroupSpecError("ambient symmetric walks support --normal derived only")
    # PRA samples the whole group: its default --normal means that group
    target = "whole" if args.algorithm == "pra" and args.normal == "derived" else args.normal
    normal = None if ambient else _resolve_normal(group, target)
    if args.algorithm == "pra" and not normal.is_whole_group():
        raise GroupSpecError(
            f"--normal {args.normal} is not the whole group, which walk --algorithm pra samples"
        )
    init = parse_tuple(group, args.init, args.k)

    degree = group.degree if ambient else None
    if not ambient and isinstance(group.elements[0], Permutation):
        degree = group.elements[0].degree
    if args.budget == "auto":
        order = None if ambient else normal.order
        budget = default_step_budget(args.k, degree=degree, subgroup_order=order)
    else:
        try:
            budget = int(args.budget)
        except ValueError:
            raise GroupSpecError(f"--budget {args.budget!r} is not 'auto' or an integer") from None
    letters = args.conjugator_words or 0
    steps = args.samples * max(budget, 1) * (1 + letters)
    if steps > MAX_WALKER_STEPS:
        raise ResourceCapError("walker_steps", steps, MAX_WALKER_STEPS)

    if args.algorithm == "cayley":
        seeds_idx = [group.index_of(e) for e in init]
        rng = np.random.default_rng(args.seed)
        samples = cayley_class_walk(group, normal, seeds_idx, budget, rng, args.samples)
        config_json: dict = {"k": args.k, "stepBudget": budget}
    else:
        cfg = WalkConfig(
            k=args.k,
            step_budget=budget,
            use_cumulative=not args.no_cumulative,
            plain_move_probability=args.plain_prob,
            conjugator_word_length=args.conjugator_words,
            full_move_set=args.full_move_set,
        )
        samples = _run_walkers(
            args.algorithm, group, normal, init, cfg, args.seed, args.samples,
            args.threads,
        )
        config_json = cfg.to_json()
        if args.algorithm == "pra":  # Nielsen moves only: the settings PRA reads
            read = ("k", "stepBudget", "useCumulative")
            config_json = {key: config_json[key] for key in read}

    report: dict = {
        "algorithm": args.algorithm,
        "config": config_json,
        "resolvedBudget": budget,
        "samples": args.samples,
    }
    if degree is not None:
        # references: the laws of a uniform member of N, from its members;
        # the ambient's target is Alt_n, transitive on the n points
        if ambient:
            images = samples
            cycle_law = cycle_distribution(degree, "even")
            point_test = partial(point_action_uniformity, images, degree)
        else:
            rows = np.array([e.images for e in group.elements])
            images, members = rows[samples], rows[list(normal.members)]
            cycle_law = census(cycle_counts(members))
            point_test = partial(
                chi_squared_test, histogram(images[:, 0]), census(members[:, 0])
            )
        hist = histogram(cycle_counts(images))
        report["cycleHistogram"] = {str(c): v for c, v in hist.items()}
        report["cycleChiSquared"] = chi2_json(lambda: chi_squared_test(hist, cycle_law))
        report["pointActionChiSquared"] = chi2_json(point_test)
    if not ambient and normal.order <= 10_000:
        report["mixing"] = mixing_diagnostic(samples, normal).to_json()

    parameters = {
        "algorithm": args.algorithm,
        "normal": args.normal,
        "k": args.k,
        "init": args.init,
        "budget": args.budget,
        "samples": args.samples,
        "threads": args.threads,
        "config": config_json,
    }
    emit_report(args, args.group, parameters, report, out)
    return EXIT_OK


# -- stats --------------------------------------------------------------------------


def cmd_stats(args, out) -> int:
    report: dict = {}
    rows: list[dict] = []
    if args.stirling is not None:
        _refuse_unread(args, "stats --stirling", "parity", "n")
        n = args.stirling
        if n < 0:
            raise GroupSpecError(f"--stirling must be at least 0, got {n}")
        rows = [
            {"n": n, "cycles": c, "value": stirling_first(n, c)}
            for c in range(0, n + 1)
        ]
        report["stirling"] = rows
    elif args.cycle_distribution is not None:
        _refuse_unread(args, "stats --cycle-distribution", "n")
        dist = cycle_distribution(args.cycle_distribution, args.parity)
        report["distribution"] = dist.to_json()
        rows = report["distribution"]["support"]
    else:
        _refuse_unread(args, "stats --observed", "format")
        if args.n is None:
            raise GroupSpecError("--observed needs --n, the degree of the reference law")
        try:
            with open(args.observed) as fh:
                text = fh.read()
        except OSError as exc:
            raise GroupSpecError(
                f"cannot read --observed {args.observed!r}: {exc.strerror}"
            ) from exc
        try:
            observed = {int(k): v for k, v in dict(json.loads(text)).items()}
        except (TypeError, ValueError) as exc:
            raise GroupSpecError(
                f"--observed {args.observed!r} is not a JSON histogram: {exc}"
            ) from None
        bad = [v for v in observed.values() if type(v) is not int or v < 0]
        if bad:
            raise GroupSpecError(
                f"--observed {args.observed!r} holds a negative or non-integer count: {bad[0]!r}"
            )
        dist = cycle_distribution(args.n, args.parity)
        report["chiSquared"] = chi_squared_test(observed, dist).to_json()
    parameters = {
        "stirling": args.stirling,
        "cycleDistribution": args.cycle_distribution,
        "parity": args.parity,
        "observed": args.observed,
        "n": args.n,
        "format": args.format,
    }
    emit_report(args, None, parameters, report, out, rows if args.format == "csv" else None)
    return EXIT_OK


# -- scan ---------------------------------------------------------------------------


def _resolve_pair(text: str) -> WordPair:
    if text.strip().lower() == "ak":
        return AK_PAIR
    u, sep, v = text.partition(";")
    if not sep:
        raise GroupSpecError("word pair must be 'ak' or 'U;V'")
    return parse_pair(u, v)


def cmd_scan(args, out) -> int:
    pair = _resolve_pair(args.pair)
    mode = GraphMode(args.mode.strip().lower(), args.directed_conjugators)
    if args.series is not None:
        _refuse_unread(args, "scan --series", "base", "no_geodesic")
        rows = distance_series(
            [s.strip() for s in args.series.split(",") if s.strip()], pair, mode
        )
        report = {"series": [r.to_json() for r in rows], "pair": pair.to_json()}
    else:
        group = parse_group(args.group)
        if args.base:
            base = tuple(
                group.index_of(e) for e in parse_tuple(group, args.base, 2)
            )
        else:
            base = transvection_base(group)
        report = scan_quotient(group, base, pair, mode).to_json()
        if args.no_geodesic:
            report.pop("geodesic", None)
    parameters = {
        "pair": args.pair,
        "mode": mode.describe(),
        "base": args.base,
        "series": args.series,
        "geodesic": not args.no_geodesic,
    }
    emit_report(args, args.group, parameters, report, out)
    return EXIT_OK


# -- verify -------------------------------------------------------------------------


def cmd_verify(args, out) -> int:
    from .verify import run_all

    results = run_all(args.corpus, args.seed)
    failed = [r for r in results if r.passed is False]
    report = {
        "corpus": args.corpus,
        "checks": [
            {"name": r.name, "status": r.status, "detail": r.detail} for r in results
        ],
        "failed": len(failed),
    }
    emit_report(args, None, {"corpus": args.corpus}, report, out)
    for r in results:
        print(f"{r.status:4s} {r.name}", file=sys.stderr)
    return EXIT_VERIFICATION if failed else EXIT_OK


# -- parser -------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise GroupSpecError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="acgraphs", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=1, help="rng seed (recorded)")
        p.add_argument("--output", default="-", help="report path ('-' = stdout)")

    p = sub.add_parser("analyze", help="graph analytics")
    p.add_argument("--group", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", default="full-ac")
    p.add_argument("--normal", default="whole")
    p.add_argument("--directed-conjugators", action="store_true")
    p.add_argument("--diameter", choices=["exact", "estimate"], default=None, help="json only")
    p.add_argument("--distance", default=None, help="'TUPLE|TUPLE' literals; json only")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(func=cmd_analyze, parser=p)

    p = sub.add_parser("walk", help="sampler run + diagnostics")
    p.add_argument("--group", required=True)
    p.add_argument("--normal", default="derived",
                   help="target subgroup of ACR and Cayley walks; PRA samples the whole group")
    p.add_argument("--algorithm", choices=["acr", "pra", "cayley"], default="acr")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--init", default="", help="semicolon-separated element literals")
    p.add_argument("--budget", default="auto")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--no-cumulative", action="store_true", help="ACR and PRA only")
    p.add_argument("--plain-prob", type=float, default=0.5, help="ACR without --full-move-set")
    p.add_argument("--conjugator-words", type=int, default=None, help="ACR only")
    p.add_argument("--full-move-set", action="store_true", help="ACR only")
    p.add_argument("--threads", type=int, default=1, help="worker pool of ACR and PRA walkers")
    common(p)
    p.set_defaults(func=cmd_walk, parser=p)

    p = sub.add_parser("stats", help="reference distributions and tests")
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--stirling", type=int, default=None)
    form.add_argument("--cycle-distribution", type=int, default=None)
    form.add_argument("--observed", default=None, help="JSON histogram file")
    p.add_argument("--parity", choices=["all", "even"], default="all",
                   help="--cycle-distribution and --observed only")
    p.add_argument("--n", type=int, default=None,
                   help="degree of the reference law; --observed only")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="--stirling and --cycle-distribution only")
    common(p)
    p.set_defaults(func=cmd_stats, parser=p)

    p = sub.add_parser("scan", help="word-pair scans")
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--group", default=None)
    form.add_argument("--series", default=None, help="comma-separated group specs")
    p.add_argument("--pair", default="ak")
    p.add_argument("--mode", default="full-ac")
    p.add_argument("--base", default=None, help="--group only")
    p.add_argument("--no-geodesic", action="store_true", help="--group only")
    p.add_argument("--directed-conjugators", action="store_true")
    common(p)
    p.set_defaults(func=cmd_scan, parser=p)

    p = sub.add_parser("verify", help="run the theorem-check suite")
    p.add_argument("--corpus", choices=["small", "full"], default="small")
    common(p)
    p.set_defaults(func=cmd_verify, parser=p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # numpy seeds only non-negative integers
            raise GroupSpecError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args, sys.stdout)
    except (GroupSpecError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except Exception as exc:  # a bug, not bad input: say what was raised
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
