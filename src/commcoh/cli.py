"""Command-line interface producing JSON or CSV reports.

Exit codes: 0 when every internal invariant check passes, 1 on input
errors (argument usage errors and tables failing a command's axioms
included), 2 on an internal invariant violation, 3 when the computation
runs out of memory.  Comparisons against published closed-form tables are
informational flags and never change the exit code; the computed output
is the arbiter.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__

# CPython's own sha256, as random.py takes its sha512: hashlib would load
# OpenSSL's libcrypto, several MB of every command's RSS, for one digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# Each command imports the modules it runs inside its handler, and the
# report's json, csv and datetime are imported where it is built and
# written, so that --version, --help and refused arguments start without
# numpy or them.

# command-line name -> cochain.InclusionPair value
COMPARISON_NAMES = {
    "lie-leibniz": "ext-in-tensor",
    "lie-comm": "ext-in-sym",
    "comm-leibniz": "sym-in-tensor",
}


# The arguments each command's payload depends on; --format and --output
# change only how a report is written, and survey's --jobs changes nothing:
# the survey runs in one process, and the option is still accepted.
PAYLOAD_ARGS = {
    "check": ("algebra",),
    "cohomology": ("algebra", "module", "max_degree", "flavor"),
    "hs-ss": ("algebra", "module", "max_degree", "ideal", "subalgebra"),
    "compare": ("algebra", "module", "max_degree", "comparison"),
    "les": ("algebra", "module", "max_degree"),
    "survey": ("dim", "up_to_iso", "betti_degree"),
}


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 like every input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_algebra(spec: str):
    from .catalog import AlgebraFileError, CatalogEntry, load_catalog, parse_algebra_file
    from .gf2 import GF2Error

    if spec.startswith("catalog:"):
        try:
            return load_catalog(spec.split(":", 1)[1])
        except GF2Error as exc:
            raise InputError(str(exc)) from exc
    try:
        with open(spec) as fh:
            fa = parse_algebra_file(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {spec}: {exc}") from exc
    except AlgebraFileError as exc:
        raise InputError(f"{spec}: {exc}") from exc
    # file modules stay raw here so `check` can report axiom verdicts;
    # they are validated when a command actually uses them
    return CatalogEntry(fa.name, fa.labels, fa.table, dict(fa.modules), fa.subspaces, ())


def _resolve_module(entry, spec: str):
    from .algebra import _validated, make_module
    from .gf2 import GF2Error

    if spec in entry.modules:
        return _validated(entry.table, entry.modules[spec])
    try:
        return make_module(entry.table, spec)
    except GF2Error as exc:
        raise InputError(f"module {spec!r}: {exc}") from exc


def _resolve_subspace(entry, spec: str):
    import numpy as np

    from .gf2 import Subspace

    if spec in entry.subspaces:
        return entry.subspaces[spec]
    d = entry.table.dim
    rows = []
    for tok in spec.split(","):
        tok = tok.strip()
        if len(tok) != d or any(ch not in "01" for ch in tok):
            raise InputError(f"subspace {spec!r}: want named span or {d}-bit vectors")
        rows.append([int(ch) for ch in tok])
    return Subspace.from_rows(d, np.array(rows, dtype=np.uint8))


def _digest(*parts) -> str:
    h = sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


def _inclusion(name: str):
    """The InclusionPair a comparison name stands for, and whether its
    subcomplex is the exterior one, which needs a Lie algebra."""
    from .cochain import INCLUSION_FLAVORS, Flavor, InclusionPair

    pair = InclusionPair(COMPARISON_NAMES[name])
    return pair, INCLUSION_FLAVORS[pair][0] is Flavor.EXT


def _closed_form_flags(dims):
    """Agreement flags against the published closed-form table for the
    two-dimensional worked examples (dimension n+1 when 4 divides n)."""
    out = []
    for n, dim in enumerate(dims):
        expected = n + 1 if n % 4 == 0 else 0
        out.append({"degree": n, "computed": dim, "table": expected, "agree": dim == expected})
    return out


def cmd_check(entry, args, checks, info):
    from .algebra import check_module_axioms, classify_algebra, is_ideal, leibniz_kernel

    cls = classify_algebra(entry.table)
    leib = leibniz_kernel(entry.table)
    payload = {
        "algebra": entry.name,
        "dim": entry.table.dim,
        "classification": {
            "commutative": cls.commutative,
            "alternating": cls.alternating,
            "jacobi": cls.jacobi,
            "left_leibniz": cls.left_leibniz,
        },
        "leibniz_kernel": {
            "dim": leib.dim,
            "basis": [row.tolist() for row in leib.basis.to_dense()],
        },
        "subspaces": {},
        "modules": {},
    }
    for name, sub in entry.subspaces.items():
        payload["subspaces"][name] = {
            "dim": sub.dim,
            "verdict": is_ideal(entry.table, sub).value,
        }
    for name, mod in entry.modules.items():
        res = check_module_axioms(entry.table, mod)
        payload["modules"][name] = {"dim": mod.dim, "axioms_ok": res.ok}
        checks.append((f"module-axioms[{name}]", res.ok, str(res.pair)))
    return payload


def cmd_cohomology(entry, args, checks, info):
    from .algebra import classify_algebra
    from .cochain import Flavor, build_tower
    from .cohomology import betti_table

    flavors = []
    for f in args.flavor.split(","):
        try:
            flavor = Flavor(f)
        except ValueError:
            raise InputError(f"unknown flavor {f!r}")
        if flavor in flavors:
            raise InputError(f"--flavor must be distinct flavors ({f!r} repeats)")
        flavors.append(flavor)
    mod = _resolve_module(entry, args.module)
    cls = classify_algebra(entry.table)
    payload = {"algebra": entry.name, "module": args.module, "tables": {}}
    for flavor in flavors:
        if flavor is Flavor.EXT and not cls.is_lie:
            info.append({"flavor": flavor.value, "skipped": "needs a Lie algebra"})
            continue
        # raises unless d o d = 0
        bt = betti_table(build_tower(flavor, entry.table, mod, args.max_degree + 1))
        payload["tables"][flavor.value] = list(bt.dims)
        checks.append((f"dd-zero[{flavor.value}]", True, ""))
        if flavor is Flavor.SYM and entry.ideals:
            # second route: the stable page of a marked-ideal filtration
            # must reproduce the direct table
            from .spectral import convergence_check, subalgebra_filtration

            h = entry.subspaces[entry.ideals[0]]
            ft = subalgebra_filtration(entry.table, h, mod, args.max_degree + 1)
            conv = convergence_check(ft)
            ok = all(
                conv.per_degree[n][0] == bt[n] for n in sorted(conv.per_degree)
            )
            checks.append(("two-route[sym]", ok and conv.ok, ""))
    return payload


def cmd_hs_ss(entry, args, checks, info):
    from .algebra import is_ideal
    from .cochain import Flavor, build_tower
    from .cohomology import betti_table
    from .spectral import compute_pages, convergence_check, e2_closed_form_check, subalgebra_filtration

    mod = _resolve_module(entry, args.module)
    sub_spec = args.subalgebra if args.ideal is None else args.ideal
    h = _resolve_subspace(entry, sub_spec)
    verdict = is_ideal(entry.table, h)
    flag = "--subalgebra" if args.ideal is None else "--ideal"
    if verdict.value == "not-subalgebra" or (flag == "--ideal" and verdict.value != "ideal"):
        raise InputError(f"{flag} names a {verdict.value}")
    n_max = args.max_degree + 2
    ft = subalgebra_filtration(entry.table, h, mod, n_max)
    pages = compute_pages(ft)
    conv = convergence_check(ft, pages)
    checks.append(("convergence", conv.ok, ""))
    payload = {
        "algebra": entry.name,
        "module": args.module,
        "subspace": sub_spec,
        "verdict": verdict.value,
        "adapted_basis": [
            row.tolist() for row in ft.meta["split"].adapted.to_dense()
        ],
        "pages": {
            str(p.r): {f"{pq[0]},{pq[1]}": dim for pq, dim in sorted(p.entries.items())}
            for p in pages[:4]
        },
        "stable": {
            f"{n}": list(conv.per_degree[n][:2]) for n in sorted(conv.per_degree)
        },
    }
    if verdict.value == "ideal":
        rep = e2_closed_form_check(ft, pages)
        checks.append(("page-closed-forms", rep.ok, str(rep.mismatches()[:4])))
        payload["subalgebra_cohomology"] = list(rep.hs_sub)
    if args.algebra in ("catalog:N", "catalog:a") and args.module == "trivial":
        bt = betti_table(build_tower(Flavor.SYM, entry.table, mod, n_max))
        info.append({"closed_form_table": _closed_form_flags(bt.dims)})
    return payload


def cmd_compare(entry, args, checks, info):
    from .algebra import classify_algebra
    from .comparison import flavor_tables, require_pair, vanishing_propagation_report, verify_e2_product

    mod = _resolve_module(entry, args.module)
    cls = classify_algebra(entry.table)
    n_max = args.max_degree + 2
    which = list(COMPARISON_NAMES) if args.comparison == "all" else [args.comparison]
    pairs = []  # every selected pair is checked before any table is ranked
    for name in which:
        if name not in COMPARISON_NAMES:
            raise InputError(f"unknown comparison {name!r}")
        pair, needs_lie = _inclusion(name)
        if needs_lie and not cls.is_lie:
            info.append({"comparison": name, "skipped": "needs a Lie algebra"})
            continue
        require_pair(pair, entry.table)
        pairs.append((name, pair))
    tables = flavor_tables(entry.table, mod, n_max)
    payload = {"algebra": entry.name, "module": args.module, "comparisons": {}}
    for name, pair in pairs:
        rep = verify_e2_product(pair, entry.table, mod, n_max, tables)
        checks.append((f"convergence[{name}]", rep.convergence_ok, ""))
        mism = rep.mismatches()
        if mism:
            info.append({"comparison": name, "product_mismatches": mism})
        payload["comparisons"][name] = {
            "hr": list(rep.hr),
            "partner": list(rep.partner),
            "entries": [list(e) for e in rep.entries],
            "index_offset": rep.index_offset,
            "product_ok": not mism,
        }
    payload["cohomology"] = {k: list(bt.dims) for k, bt in tables.items()}
    payload["propagation"] = []
    for rep in vanishing_propagation_report(tables):
        payload["propagation"].append(
            {
                "hypothesis": rep.hypothesis,
                "conclusion": rep.conclusion,
                "window": rep.window,
                "ok": rep.ok,
            }
        )
        if not rep.vacuous:
            checks.append(
                (f"propagation[{rep.hypothesis}->{rep.conclusion}]", rep.ok, "")
            )
    return payload


def cmd_les(entry, args, checks, info):
    from .algebra import classify_algebra
    from .comparison import build_relative_complex, long_exact_sequence_check

    mod = _resolve_module(entry, args.module)
    cls = classify_algebra(entry.table)
    payload = {"algebra": entry.name, "module": args.module, "sequences": {}}
    for name in COMPARISON_NAMES:
        pair, needs_lie = _inclusion(name)
        if needs_lie and not cls.is_lie:
            continue
        rel = build_relative_complex(pair, entry.table, mod, args.max_degree)
        les = long_exact_sequence_check(rel)
        checks.append((f"les[{name}]", les.ok, str(les.failures()[:3])))
        payload["sequences"][name] = {
            "nodes": [[desc, ok] for desc, ok in les.nodes],
            "ok": les.ok,
        }
    return payload


def cmd_survey(args, checks, info):
    from .catalog import survey_enumerate

    res = survey_enumerate(args.dim, up_to_iso=args.up_to_iso)
    payload = {
        "dim": args.dim,
        "candidates": res.candidate_count,
        "valid": res.valid_count,
    }
    if args.up_to_iso:
        from .algebra import classify_algebra, make_module
        from .catalog import line_module_instances
        from .cochain import Flavor, build_tower
        from .cohomology import betti_table

        payload["orbits"] = res.orbit_count
        summaries = []
        for table in res.rep_tables():
            cls = classify_algebra(table)
            checks.append(
                ("survey-classification", cls.commutative and cls.jacobi, "")
            )
            triv = make_module(table, "trivial")
            bt = betti_table(build_tower(Flavor.SYM, table, triv, args.betti_degree + 1))
            summaries.append(
                {
                    "table": table.c.reshape(-1).tolist(),
                    "alternating": cls.alternating,
                    "betti_sym_trivial": list(bt.dims),
                    "line_instances": len(line_module_instances(table)),
                }
            )
        payload["orbit_summaries"] = summaries
    return payload


def _flatten_csv(command, payload):
    import csv
    import io
    import json

    buf = io.StringIO()
    w = csv.writer(buf)
    if command == "cohomology":
        w.writerow(["flavor", "degree", "dim"])
        for flavor, dims in sorted(payload["tables"].items()):
            for n, dim in enumerate(dims):
                w.writerow([flavor, n, dim])
    elif command == "hs-ss":
        w.writerow(["page", "p", "q", "dim"])
        for r, entries in sorted(payload["pages"].items()):
            for pq, dim in sorted(entries.items()):
                p, q = pq.split(",")
                w.writerow([r, p, q, dim])
    elif command == "compare":
        w.writerow(["comparison", "p", "q", "computed", "predicted", "match"])
        for name, rep in sorted(payload["comparisons"].items()):
            for p, q, c, pr, m in rep["entries"]:
                w.writerow([name, p, q, c, pr, m])
    elif command == "les":
        w.writerow(["comparison", "node", "ok"])
        for name, rep in sorted(payload["sequences"].items()):
            for desc, ok in rep["nodes"]:
                w.writerow([name, desc, ok])
    elif command == "survey":
        w.writerow(["dim", "candidates", "valid", "orbits"])
        w.writerow(
            [payload["dim"], payload["candidates"], payload["valid"], payload.get("orbits", "")]
        )
    else:
        w.writerow(["key", "value"])
        for k, v in sorted(payload.items()):
            w.writerow([k, json.dumps(v, sort_keys=True)])
    return buf.getvalue()


def build_parser():
    ap = _Parser(
        prog="commcoh",
        description="Exact GF(2) cohomology of commutative Lie and Leibniz algebras",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, module=True):
        p.add_argument("--algebra", required=True, help="catalog:NAME or a file path")
        if module:
            p.add_argument("--module", default="trivial")
        p.add_argument("--max-degree", type=int, default=6)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None)

    common(sub.add_parser("check", help="classification and axiom verdicts"))
    p = sub.add_parser("cohomology", help="Betti tables per flavor")
    common(p)
    p.add_argument("--flavor", default="sym")
    p = sub.add_parser("hs-ss", help="subalgebra filtration pages and checks")
    common(p)
    span = p.add_mutually_exclusive_group(required=True)
    span.add_argument("--ideal", default=None)
    span.add_argument("--subalgebra", default=None)
    p = sub.add_parser("compare", help="relative complexes and product checks")
    common(p)
    p.add_argument("--comparison", default="all", help="all, " + ", ".join(COMPARISON_NAMES))
    common(sub.add_parser("les", help="long exact sequence exactness"))
    p = sub.add_parser("survey", help="enumerate small commutative Lie algebras")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--betti-degree", type=int, default=4)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    return ap


def _check_ranges(args):
    """Refuse out-of-range numeric arguments before any work starts."""
    if args.command == "survey":
        from .catalog import SURVEY_MAX_DIM

        if not 1 <= args.dim <= SURVEY_MAX_DIM:
            raise InputError(f"--dim must be from 1 to {SURVEY_MAX_DIM}")
        if args.betti_degree < 0:
            raise InputError("--betti-degree must be at least 0")
    elif args.max_degree < 0:
        raise InputError("--max-degree must be at least 0")


def _payload_args(args) -> dict:
    names = PAYLOAD_ARGS[args.command]
    if args.command == "survey" and not args.up_to_iso:
        names = names[:-1]  # --betti-degree only shapes the orbit summaries
    return {name: getattr(args, name) for name in names}


def _file_parts(entry, args) -> tuple:
    """What an algebra file defines that its table does not, as far as the
    payload reads it; a catalog name already fixes its modules and spans."""
    if args.algebra.startswith("catalog:"):
        return ()
    if args.command == "check":  # reports every module and subspace
        mods = [(k, m.dim, m.rho.tobytes()) for k, m in sorted(entry.modules.items())]
        subs = [(k, h.basis.words.tobytes()) for k, h in sorted(entry.subspaces.items())]
        return mods, subs
    mod = _resolve_module(entry, args.module)
    # rho twice, where the digest once hashed a left and a right action
    parts = (mod.dim, mod.rho.tobytes(), mod.rho.tobytes())
    if args.command == "hs-ss":
        h = _resolve_subspace(entry, args.subalgebra if args.ideal is None else args.ideal)
        parts += (h.basis.words.tobytes(),)
    return parts


def run(argv=None):
    """Run one command; returns (report dict, exit code)."""
    return _run(build_parser().parse_args(argv))


def _run(args):
    checks: list = []
    info: list = []
    try:
        _check_ranges(args)
        if args.command == "survey":
            payload = cmd_survey(args, checks, info)
            digest = _digest("survey", _payload_args(args))
        else:
            entry = _load_algebra(args.algebra)
            if args.algebra.startswith("catalog:"):  # one digest however the name is spelled
                args.algebra = f"catalog:{entry.name}"
            digest = _digest(
                args.command,
                entry.table.c.tobytes(),
                _payload_args(args),
                *_file_parts(entry, args),
            )
            handler = {
                "check": cmd_check,
                "cohomology": cmd_cohomology,
                "hs-ss": cmd_hs_ss,
                "compare": cmd_compare,
                "les": cmd_les,
            }[args.command]
            payload = handler(entry, args, checks, info)
    except InputError as exc:
        return {"error": str(exc)}, 1
    except ValueError as exc:  # gf2.GF2Error among them
        from .algebra import ModuleAxiomError
        from .cochain import PreconditionError  # a table or module failing an axiom is bad input
        if isinstance(exc, (PreconditionError, ModuleAxiomError)):
            return {"error": str(exc)}, 1
        return {"error": f"internal check failed: {exc}"}, 2
    except MemoryError as exc:  # numpy's failed allocations among them
        return {"error": f"out of memory: {exc}"}, 3

    from datetime import datetime, timezone

    all_ok = all(ok for _, ok, _ in checks)
    report = {
        "schema_version": 1,
        "tool": {"name": "commcoh", "version": __version__},
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "command": args.command,
        "input_digest": digest,
        "payload": payload,
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in checks
        ],
        "informational": info,
    }
    return report, 0 if all_ok else 2


def main(argv=None):
    # No command calls BLAS, so numpy's OpenBLAS worker thread would only
    # spin; set before any handler imports numpy, and a caller's value is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    created = False
    try:
        if args.output:  # refused before any work; appending leaves an existing file as it is
            existed = os.path.exists(args.output)
            open(args.output, "a").close()
            created = not existed
    except OSError as exc:
        report, code = {"error": f"cannot write {args.output}: {exc}"}, 1
    else:
        report, code = _run(args)
    import json

    if code in (1, 3):
        if created:  # the probe's empty file is no report
            os.remove(args.output)
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return code
    if args.format == "csv" and "payload" in report:
        text = _flatten_csv(report["command"], report["payload"])
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
