"""Command-line front end.

Subcommands::

    construct  build a design and print its parameters / JSON
    analyze    metrics of a design at one z, next to both baselines
    schedule   emit the coded delivery schedule
    simulate   run the byte-exact broadcast and decode every user
    table      reproduce one of the built-in comparison tables
    sweep      CSV series over a construction family, for plotting

A design is a spec ``family:key=int,...`` with the families ``affine:n``,
``ag:q,m``, ``hadamard:m`` and ``example:id`` (``example:4`` is short for
``example:id=4``; family names ignore case), or else a design JSON path.
Table parameters, ``--values`` / ``--demands`` lists and the env var
``CRD_CACHE_CAPS=points=8192,intersections=20000000`` (which the flags
``--cap-points`` / ``--cap-intersections`` override) use the same integer
grammar: a missing, unknown or repeated key or a non-integer is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .baselines import (
    FAMILY_TABLES,
    ComparisonTable,
    analyze_table,
    family_comparison,
    man_example_table,
    spe_example_table,
    sweep_family,
    z_sweep_table,
)
from .caps import SizeCaps
from .constructions import FAMILIES, from_spec, parse_ints, parse_params
from .designs import Resolution, crd_profile, design_to_json, resolution_from_json
from .errors import BadSpec, CrdCacheError
from .render import cell_text, sweep_csv, table_csv, table_text
from .scheme import build_delivery_schedule, build_scheme, schedule_to_json
from .simulator import encode_payloads, make_file_store, payload_hex_dump, report_to_json, verify_all


def _caps_from(args: argparse.Namespace) -> SizeCaps:
    text = os.environ.get("CRD_CACHE_CAPS", "")
    limits = parse_params(f"CRD_CACHE_CAPS {text!r}", text, ("points", "intersections"), required=False)
    flags = {"points": args.cap_points, "intersections": args.cap_intersections}
    limits.update((key, value) for key, value in flags.items() if value is not None)
    # each key names a SizeCaps field without its max_ prefix; absent keys keep the default
    return SizeCaps(**{f"max_{key}": value for key, value in limits.items()})


def _load_design(text: str, caps: SizeCaps) -> Resolution:
    if text.split(":", 1)[0].lower() in FAMILIES:
        return from_spec(text, caps)
    with open(text, encoding="utf-8") as fh:
        return resolution_from_json(json.load(fh))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_demands(spec: str, n_users: int) -> tuple[int, ...] | None:
    if spec == "distinct":
        return None  # build_delivery_schedule fills in 1..K after the N >= K check
    if spec == "equal":
        return (1,) * n_users
    return tuple(parse_ints(f"--demands {spec!r}", spec))


def cmd_construct(args: argparse.Namespace, caps: SizeCaps) -> int:
    res = _load_design(args.design, caps)
    if args.format == "json":
        _emit(json.dumps(design_to_json(res), indent=2) + "\n", args.out)
        return 0
    profile = crd_profile(res, caps)
    d = res.design
    mu_text = " ".join(f"mu{i}={profile.mu[i]}" for i in sorted(profile.mu)) or "none"
    lines = [
        f"v={d.v} b={d.b} r={res.r} k={d.k} b_r={res.b_r}",
        f"mu profile: {mu_text}",
        f"cross resolvable: {'yes' if profile.is_crd else 'no'}"
        f" (crn={profile.crn if profile.crn is not None else '-'})",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _table_json(table: ComparisonTable) -> dict:
    return {
        "title": table.title,
        "rows": list(table.row_labels),
        "columns": {
            name: {label: cell_text(cell) for label, cell in zip(table.row_labels, cells)}
            for name, cells in table.columns
        },
        "notes": list(table.notes),
    }


def _emit_table(table: ComparisonTable, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        _emit(table_csv(table), out)
    elif fmt == "json":
        _emit(json.dumps(_table_json(table), indent=2) + "\n", out)
    else:
        _emit(table_text(table), out)


def cmd_analyze(args: argparse.Namespace, caps: SizeCaps) -> int:
    res = _load_design(args.design, caps)
    _emit_table(analyze_table(res, args.z, caps), args.format, args.out)
    return 0


def cmd_schedule(args: argparse.Namespace, caps: SizeCaps) -> int:
    res = _load_design(args.design, caps)
    scheme = build_scheme(res, args.z, args.files, caps)
    schedule = build_delivery_schedule(scheme, _parse_demands(args.demands, scheme.n_users))
    if args.format == "text":
        lines = [
            f"K={scheme.n_users} transmissions={len(schedule.transmissions)} "
            f"rate={len(schedule.transmissions)}/{res.design.v}"
        ]
        for idx, t in enumerate(schedule.transmissions):
            terms = " ".join(f"u{uid + 1}:{y}" for uid, y in t.terms)
            lines.append(f"{idx + 1}: {t.label()} {terms}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(schedule_to_json(schedule), indent=2) + "\n", args.out)
    return 0


def cmd_simulate(args: argparse.Namespace, caps: SizeCaps) -> int:
    res = _load_design(args.design, caps)
    scheme = build_scheme(res, args.z, args.files, caps)
    demands = _parse_demands(args.demands, scheme.n_users)
    report = verify_all(res, args.z, args.files, args.len, args.seed, demands, caps)
    if args.dump_payloads:
        schedule = build_delivery_schedule(scheme, demands)
        store = make_file_store(args.files, args.len, args.seed)
        payloads = encode_payloads(schedule, store)
        sys.stdout.write("\n".join(payload_hex_dump(schedule, payloads)) + "\n")
    if args.format == "json":
        _emit(json.dumps(report_to_json(report), indent=2) + "\n", args.out)
    else:
        lines = []
        for u in report.users:
            status = "PASS" if (u.recovered and u.byte_equal) else "FAIL"
            lines.append(
                f"user {u.user + 1:4d} demand {u.demand:4d}: {status} "
                f"(cache {u.subfiles_from_cache}, air {u.subfiles_from_air})"
            )
        lines.append(
            f"transmissions={report.transmissions_sent} "
            f"measured_rate={report.measured_rate} theoretical_rate={report.theoretical_rate}"
        )
        lines.append("all users recovered" if report.all_recovered else "RECOVERY FAILED")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.all_recovered else 1


def cmd_table(args: argparse.Namespace, caps: SizeCaps) -> int:
    name, _, rest = args.name.partition(":")
    if name == "examples-man":
        table = man_example_table(caps)
    elif name == "examples-spe":
        table = spe_example_table(caps)
    elif name == "zsweep":
        table = z_sweep_table(_load_design(rest, caps), rest, caps)
    elif name in FAMILY_TABLES:
        keys, cells, z, title = FAMILY_TABLES[name]
        params = parse_params(f"table {args.name!r}", rest, keys)
        table = family_comparison(cells(*params.values()), z, title.format(**params))
    else:
        formulas = [
            f"{n}:" + ",".join(f"{k}=.." for k in keys) for n, (keys, *_) in FAMILY_TABLES.items()
        ]
        raise BadSpec(
            f"unknown table {args.name!r}; available: examples-man, examples-spe, "
            f"{', '.join(formulas)}, zsweep:<design>"
        )
    _emit_table(table, args.format, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace, caps: SizeCaps) -> int:
    values = parse_ints(f"--values {args.values!r}", args.values)
    rows = sweep_family(args.family, values, z=args.z, m=args.m, caps=caps)
    _emit(sweep_csv(rows), args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser, *formats: str) -> None:
    """The shared options; ``--format`` offers ``formats``, the first by default."""
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--cap-points", type=int, default=None)
    sub.add_argument("--cap-intersections", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crdcache",
        description="Cross resolvable designs and the multi-access coded caching scheme built on them.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="build a design and show its parameters")
    p.add_argument("--design", required=True, help="spec string or design JSON path")
    _add_common(p, "text", "json")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("analyze", help="metrics at one z next to the baselines")
    p.add_argument("--design", required=True)
    p.add_argument("--z", type=int, required=True)
    _add_common(p, "text", "json", "csv")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("schedule", help="emit the coded delivery schedule")
    p.add_argument("--design", required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--files", type=int, required=True, help="number of files N")
    p.add_argument("--demands", default="distinct", help="distinct | equal | comma list")
    _add_common(p, "json", "text")
    p.set_defaults(func=cmd_schedule)

    p = subs.add_parser("simulate", help="run the byte-exact broadcast end to end")
    p.add_argument("--design", required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--files", type=int, required=True)
    p.add_argument("--len", type=int, required=True, help="file length in bytes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demands", default="distinct")
    p.add_argument("--dump-payloads", action="store_true", help="print each payload as hex")
    _add_common(p, "text", "json")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("table", help="reproduce a built-in comparison table")
    p.add_argument("--name", required=True)
    _add_common(p, "text", "json", "csv")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("sweep", help="CSV series over a construction family")
    p.add_argument("--family", choices=("affine", "ag", "hadamard"), required=True)
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--z", type=int, default=2)
    p.add_argument("--m", type=int, default=None, help="fixed dimension for the ag family")
    _add_common(p, "csv")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        caps = _caps_from(args)
        return args.func(args, caps)
    # design files fail with OSError or ValueError (NUL byte, non-UTF-8, bad JSON)
    except (CrdCacheError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
