"""Command-line front end: bounds, construction, codec, simulation, demos.

Node indices on the command line are 0-based.  Codeword files hold one
column per line, each symbol a fixed-width 4-digit hex integer.  Machine
output is available behind --json; exit status is 0 on success, 1 on a
verification failure, 2 on a usage error.  The UBCODE_SEED environment
variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import string
import sys

from .finite_field import GF
from .code_model import (
    InvalidParamsError,
    SpecSchemaError,
    bounds,
    code_from_json,
    code_to_json,
    feasible,
    redundancy,
    spec_value,
    update_bandwidth,
    update_complexity,
    validate_dimensions,
    verify_mds,
)
from .construct import build_mrmub, build_mub, fig1b, fig3
from .transform import TransformedCode, iterate_transform
from .cluster import Cluster, ClusterStateError, RepairMismatchError, random_data
from .linalg import InconsistentSystemError

SYMBOL_WIDTH = 4  # hex digits, enough for any element of a q <= 2^16 field


class CodewordMismatchError(Exception):
    """A well-formed codeword file that is not a codeword of its spec."""


def default_seed() -> int:
    env = os.environ.get("UBCODE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"UBCODE_SEED must be an integer, got {env!r}") from None


# -- codeword files ------------------------------------------------------------


def dump_columns(columns: list[list[int]]) -> str:
    return "\n".join(
        "".join(format(v, f"0{SYMBOL_WIDTH}x") for v in col) for col in columns
    ) + "\n"


def parse_columns(text: str, col_lens, field) -> list[list[int]]:
    """Parse one line per column: ``col_lens[j]`` hex symbols of ``field``
    on line j, so an empty column is an empty line."""
    lines = text.splitlines()
    if len(lines) != len(col_lens):
        raise ValueError(f"expected {len(col_lens)} columns, found {len(lines)}")
    columns = []
    for j, (ln, want) in enumerate(zip(lines, col_lens)):
        if len(ln) != want * SYMBOL_WIDTH:
            raise ValueError(
                f"column {j} line has {len(ln)} chars, expected {want * SYMBOL_WIDTH}"
            )
        if not all(c in string.hexdigits for c in ln):
            raise ValueError(f"column {j} line is not hex digits")
        columns.append([
            field.validate(int(ln[i : i + SYMBOL_WIDTH], 16))
            for i in range(0, len(ln), SYMBOL_WIDTH)
        ])
    return columns


def read_columns(path: str, col_lens, field) -> list[list[int]]:
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_columns(text, col_lens, field)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_columns(path: str, columns: list[list[int]]) -> None:
    with open(path, "w") as fh:
        fh.write(dump_columns(columns))


# -- spec files -----------------------------------------------------------------


def save_spec(code, path: str) -> None:
    root, mixers = code, set()
    while isinstance(root, TransformedCode):
        root, mixers = root.base, mixers | {root.g}
    if len(mixers) > 1:
        raise InvalidParamsError(f"a spec holds one mixer g, the rounds use {sorted(mixers)}")
    doc = code_to_json(root)
    if root is not code:
        doc["transform"] = {"pairs": [list(p) for p in code.pairs], "g": code.g}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_spec(path: str):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise SpecSchemaError("spec nests too deeply to parse") from None
    code = code_from_json(doc)
    if "transform" in doc:
        g = spec_value(doc, ("transform", "g"), int)
        pairs = spec_value(doc, ("transform", "pairs"), list)
        for t in range(len(pairs)):
            pair = spec_value(doc, ("transform", "pairs", t), list, int)
            if len(pair) != 2:
                raise SpecSchemaError(f"spec key transform.pairs[{t}] must hold two nodes")
            code = TransformedCode(code, tuple(pair), g)
    return code


# -- subcommands -----------------------------------------------------------------


def parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def cmd_bounds(args) -> int:
    rep = bounds(args.n, args.k, parse_int_list(args.m))
    if args.json:
        print(json.dumps(dataclasses.asdict(rep), indent=1, default=str))
        return 0
    print(f"water level          mu      = {rep.water_level}")
    print(f"min redundancy       R_min   = {rep.min_redundancy}")
    print(f"min update bandwidth         = {rep.min_update_bandwidth}")
    if rep.min_redundancy_at_min_bandwidth is not None:
        print(f"min redundancy at min bw     = {rep.min_redundancy_at_min_bandwidth}")
    else:
        print("min redundancy at min bw     = open (k does not divide every m_i)")
    if rep.update_complexity_bound is not None:
        print(f"update complexity bound      = {rep.update_complexity_bound}")
    else:
        print("update complexity bound      = not applicable (k = n-1)")
    print(f"redundancy profile           = {list(rep.redundancy_profile)}")
    if rep.bandwidth_profile is not None:
        print(f"bandwidth-optimal profile    = {list(rep.bandwidth_profile)}")
    print("bandwidth assignment:")
    for row in rep.bandwidth_assignment:
        print("  " + " ".join(str(v) for v in row))
    return 0


def cmd_construct(args) -> int:
    m_list = parse_int_list(args.m)
    validate_dimensions(args.n, args.k, m_list)
    field = None if args.q is None else GF(args.q)
    if args.kind == "mrmub":
        if any(v != m_list[0] for v in m_list):
            print("mrmub construction needs a uniform data profile", file=sys.stderr)
            return 2
        code = build_mrmub(args.n, args.k, m_list[0], field=field)
    else:
        code = build_mub(args.n, args.k, m_list, field=field)
    if args.transform_rounds:
        code = iterate_transform(code, args.transform_rounds)
    save_spec(code, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_encode(args) -> int:
    code = load_spec(args.spec)
    if args.data:
        data = read_columns(args.data, code.m, code.field)
    else:
        data = random_data(code, args.seed)
    write_columns(args.out, code.encode(data))
    print(f"wrote {args.out}")
    return 0


def cmd_decode(args) -> int:
    code = load_spec(args.spec)
    columns = read_columns(args.infile, code.col_lens, code.field)
    erased = set(parse_int_list(args.erased))
    for j in sorted(erased):
        code.check_node(j)
    known = {j: columns[j] for j in range(code.n) if j not in erased}
    try:
        restored = code.decode_columns(known)
    except InconsistentSystemError:
        raise CodewordMismatchError(
            "codeword file is not a valid codeword of this spec: surviving columns disagree"
        ) from None
    write_columns(args.out, restored)
    print(f"recovered {sorted(erased)} -> {args.out}")
    return 0


def _cluster_from_files(args):
    code = load_spec(args.spec)
    columns = read_columns(args.infile, code.col_lens, code.field)
    data = [[columns[j][r] for r in code.data_rows(j)] for j in range(code.n)]
    cluster = Cluster(code, data=data)
    if cluster.columns != columns:
        raise CodewordMismatchError("codeword file is not a valid codeword of this spec")
    return cluster


def print_log(log) -> None:
    """One ``op,src,dst,count`` line per transfer, then ``total,<symbols>``."""
    for line in log.lines():
        print(line)
    print(f"total,{log.total()}")


def cmd_update(args) -> int:
    cluster = _cluster_from_files(args)
    cluster.code.check_node(args.node)
    if args.data:
        new_data = parse_int_list(args.data)
    else:
        rng = random.Random(args.seed)
        new_data = [
            rng.randrange(cluster.field.q) for _ in range(cluster.code.m[args.node])
        ]
    print_log(cluster.apply_update(args.node, new_data))
    write_columns(args.out, cluster.columns)
    return 0


def cmd_repair(args) -> int:
    cluster = _cluster_from_files(args)
    print_log(cluster.fail_and_repair(args.node))
    if args.out:
        write_columns(args.out, cluster.columns)
    return 0


def cmd_verify(args) -> int:
    code = load_spec(args.spec)
    checks: list[tuple[str, bool, str]] = []

    # A loaded code's construction is B @ A: from_factors (which fails when
    # cols(B) != rows(A)) or the full-rank decomposition.  rank(BA) == rows(A)
    # exactly when A has full row rank and B full column rank.
    grid, average = update_bandwidth(code)
    detail = ""
    for i in range(code.n):
        for j in range(code.n):
            if i != j and code.A[i][j].rows != grid[i][j]:
                detail = f"factor pair at [{i}][{j}] is not a minimal full-rank pair"
    checks.append(("factor-grids", not detail, detail))

    mds = verify_mds(code)
    checks.append(
        (
            "mds",
            mds.is_mds,
            mds.detail if not mds.is_mds else f"insufficient {mds.insufficient_subset}",
        )
    )

    feas = feasible(code.n, code.k, code.m, code.p, grid)
    checks.append(("feasibility", feas.feasible, feas.detail))

    try:
        cluster = Cluster(code, seed=default_seed())
        result = cluster.run_workload(updates=2 * code.n, repairs=1, seed=default_seed())
        checks.append(("workload-audit", result["audit_ok"], ""))
    except (RepairMismatchError, ClusterStateError) as exc:
        checks.append(("workload-audit", False, str(exc)))

    bound = bounds(code.n, code.k, code.m).update_complexity_bound
    payload = {
        "update_bandwidth": str(average),
        "redundancy": redundancy(code),
        "update_complexity": str(update_complexity(code)),
        "update_complexity_bound": None if bound is None else str(bound),
        "checks": [
            {"name": name, "ok": ok, "detail": det} for name, ok, det in checks
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for name, ok, det in checks:
            mark = "ok" if ok else "FAIL"
            print(f"{name:16s} {mark}" + (f"  {det}" if det else ""))
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_simulate(args) -> int:
    if args.spec:
        code = load_spec(args.spec)
    else:
        code = fig1b()
    cluster = Cluster(code, seed=args.seed)
    result = cluster.run_workload(args.updates, args.repairs, seed=args.seed)
    theory = bounds(code.n, code.k, code.m)
    payload = {
        "updates": result["updates"],
        "repairs": result["repairs"],
        "mean_update_symbols": str(result["mean_update_symbols"]),
        "min_update_bandwidth": str(theory.min_update_bandwidth),
        "update_complexity": str(update_complexity(code)),
        "per_node_update_symbols": result["per_node_update_symbols"],
        "repair_downloads": result["repair_downloads"],
        "audit_ok": result["audit_ok"],
    }
    if args.json:
        print(json.dumps(payload, indent=1))
        return 0 if result["audit_ok"] else 1
    print(f"updates              = {payload['updates']}")
    print(f"repairs              = {payload['repairs']}")
    print(f"measured mean update = {payload['mean_update_symbols']}")
    print(f"optimal bandwidth    = {payload['min_update_bandwidth']}")
    print(f"update complexity    = {payload['update_complexity']}")
    print(f"per-node update sym  = {payload['per_node_update_symbols']}")
    for node, count in payload["repair_downloads"]:
        print(f"repair node {node}: {count} symbols")
    print(f"audit                = {'pass' if payload['audit_ok'] else 'FAIL'}")
    return 0 if result["audit_ok"] else 1


def symbol_names(code) -> list[str]:
    names = []
    for i, mi in enumerate(code.m):
        for l in range(mi):
            names.append(f"x{i + 1},{l + 1}")
    return names


def linear_form(names: list[str], row: list[int]) -> str:
    """``row`` as a sum of the named symbols it weighs, "0" when it weighs none."""
    terms = [name if v == 1 else f"{v}*{name}" for name, v in zip(names, row) if v]
    return "+".join(terms) or "0"


def render_cells(code) -> list[list[str]]:
    names = symbol_names(code)
    return [[linear_form(names, row) for row in s.data] for s in code.column_maps()]


def render_intermediates(built) -> list[str]:
    names = symbol_names(built)
    offs = built.data_offsets()
    lines = []
    for i in range(built.n):
        own = names[offs[i] : offs[i + 1]]
        for d in range(1, built.n):
            j = (i + d) % built.n
            comps = [linear_form(own, row) for row in built.A[i][j].data]
            lines.append(f"p[{i}->{j}] = (" + "; ".join(comps) + ")")
    return lines


def cmd_demo(args) -> int:
    built = fig1b() if args.which == "fig1b" else fig3()
    grid, average = update_bandwidth(built)
    cells = render_cells(built)
    height = max(built.col_lens)
    print(f"demo {args.which}: (n={built.n}, k={built.k}, m={list(built.m)}) "
          f"over GF({built.field.q})")
    print("stored grid (column j of the array is node j):")
    widths = [max(len(cells[j][r]) for r in range(len(cells[j]))) for j in range(built.n)]
    for r in range(height):
        row = []
        for j in range(built.n):
            cell = cells[j][r] if r < len(cells[j]) else ""
            row.append(cell.ljust(widths[j]))
        print("  | " + " | ".join(row) + " |")
    print("intermediate vectors:")
    for line in render_intermediates(built):
        print("  " + line)
    print(f"update bandwidth     = {average}")
    print(f"redundancy           = {redundancy(built)}")
    print(f"update complexity    = {update_complexity(built)}")
    cluster = Cluster(built, seed=default_seed())
    repair_counts = []
    for node in range(built.n):
        repair_counts.append(cluster.fail_and_repair(node).total())
    print(f"repair downloads     = {repair_counts}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ubcode",
        description="irregular array codes with minimum update bandwidth",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form optima for (n, k, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", required=True, help="comma-separated data profile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="build a code and write its spec file")
    p.add_argument("--kind", choices=["mrmub", "mub"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", required=True, help="comma-separated data profile")
    p.add_argument("--q", type=int, help="field size override")
    p.add_argument("--transform-rounds", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("encode", help="encode data into a codeword file")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", help="data file (one node per line, hex symbols)")
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover erased columns of a codeword file")
    p.add_argument("--spec", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--erased", required=True, help="comma-separated node indices")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("update", help="update one node's data vector")
    p.add_argument("--spec", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--data", help="comma-separated new data vector")
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("repair", help="fail one node and rebuild it")
    p.add_argument("--spec", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("verify", help="run all checks against a spec file")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="seeded workload with symbol accounting")
    p.add_argument("--spec")
    p.add_argument("--updates", type=int, default=8)
    p.add_argument("--repairs", type=int, default=1)
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demo", help="rebuild a worked-example code and print it")
    p.add_argument("which", choices=["fig1b", "fig3"])
    p.set_defaults(func=cmd_demo)

    return ap


def run(argv=None) -> int:
    try:
        # build_parser reads UBCODE_SEED for the --seed defaults, so it runs here.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (CodewordMismatchError, RepairMismatchError, ClusterStateError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
