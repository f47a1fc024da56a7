"""Command-line interface.

Subcommands: check, dim, orbit, span, graph-validate, smallcover, milnor,
milnor-search, reproduce-paper.  Exit codes: 0 success/accepted, 1
rejected or failed checkpoint, 2 usage or input error (one 'error:' line
on stderr, nothing on stdout), 141 when the reader of stdout closed it
before the output ended (as in `| head -n 1`; the shell's code for a
process ended by SIGPIPE): the rest of the output is dropped and nothing
is printed on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from z2bord.gf2 import InputError, ResourceLimitError, parse_vec, rank_of, vec_str
from z2bord.membership import build_constraint_system, check_membership, require_faithful
from z2bord.repalg import content_lines, parse_polynomial, render_monomial, render_polynomial


EXIT_BROKEN_PIPE = 141  # see the module docstring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _read(path, parse, *args):
    """parse(text of the file, *args), with every failure as an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read(), *args)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from e
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _read_faithful(path):
    """The polynomial in the file, refused unless every monomial is faithful."""
    return _read(path, lambda text: require_faithful(parse_polynomial(text)))


def _parse_subgroup(text: str, k: int) -> list[int]:
    rows = [ln for _, ln in content_lines(text)]
    if any(len(ln) != k for ln in rows):
        raise InputError(f"each row must be a bit-string of width {k}")
    basis = [parse_vec(ln)[0] for ln in rows]
    if rank_of(basis) != len(basis):
        raise InputError("rows are not independent")
    return basis


def cmd_check(args) -> int:
    p = _read_faithful(args.polynomial)
    if p.is_zero:
        print("accepted")
        print("zero polynomial")
        return 0
    cert = check_membership(p)
    if cert.accepted:
        print("accepted")
        for rho, groups in cert.decompositions:
            print(f"rho {vec_str(rho, p.k)}:")
            for g in groups:
                members = " / ".join(render_monomial(m, p.k) for m in sorted(g.members))
                print(f"  multiplicity {g.multiplicity}"
                      f"  size {len(g.members)}  members {members}")
        return 0
    v = cert.violation
    print("rejected")
    print(f"rho {vec_str(v.rho, p.k)}")
    print(f"multiplicity {v.multiplicity}")
    print("witness " + (" / ".join(vec_str(g, p.k) for g in v.witness) or "(empty)"))
    return 1


def cmd_dim(args) -> int:
    n, k = args.n, args.k
    cs = build_constraint_system(n, k)
    d = cs.nullspace_dimension()
    print(f"n={n} k={k} faithful={len(cs.monomials)}"
          f" constraints={cs.row_count()} dimension={d}")
    print(d)
    return 0


def cmd_orbit(args) -> int:
    from z2bord.orbits import orbit

    p = _read_faithful(args.polynomial)
    if p.is_zero:
        raise InputError("orbit of the zero polynomial is trivial; give a nonzero input")
    o = orbit(p)
    print(f"orbit_size={len(o)}")
    print(f"stabilizer_size={len(o.stabilizer)}")
    if args.elements:
        for q in sorted(o.elements, key=render_polynomial):
            print("--")
            print(render_polynomial(q), end="")
    return 0


def cmd_span(args) -> int:
    from z2bord.orbits import require_common_shape, span_dimension

    ps = [_read_faithful(path) for path in args.polynomials]
    ps = [p for p in ps if not p.is_zero]
    require_common_shape(ps)  # before any orbit is expanded
    if args.expand_orbits:
        from z2bord.orbits import orbit

        ps = [q for p in ps for q in orbit(p).elements]
    rank = span_dimension(ps)
    print(f"span_dimension={rank}")
    print(f"basis_size={rank}")
    return 0


def cmd_graph_validate(args) -> int:
    from z2bord.graphs import parse_graph, validate_graph

    violations = validate_graph(_read(args.graph, parse_graph))
    if not violations:
        print("valid")
        return 0
    print("invalid")
    for v in violations:
        print(v)
    return 1


def cmd_smallcover(args) -> int:
    from z2bord.smallcover import (
        NonIsolatedError,
        ProductOfSimplices,
        fixed_polynomial,
        parse_characteristic,
        restricted_polynomial,
    )

    polytope = ProductOfSimplices.parse(args.polytope)
    cf = _read(getattr(args, "lambda"), parse_characteristic, polytope.factor_dims)
    if not cf.is_valid():
        print("invalid characteristic function")
        return 1
    if args.subgroup is None:
        p = fixed_polynomial(cf)
    else:
        basis = _read(args.subgroup, _parse_subgroup, polytope.dim)
        try:
            p = restricted_polynomial(cf, basis)
        except NonIsolatedError as e:
            print(f"non-isolated: {e}")
            return 1
    print(render_polynomial(p), end="")
    return 0


def cmd_milnor(args) -> int:
    from z2bord.milnor import SubsetFamily, milnor_fixed_polynomial

    family = SubsetFamily.parse(args.r, args.sets)
    p = milnor_fixed_polynomial(args.m, args.n, family)
    print(render_polynomial(p), end="")
    return 0


def cmd_milnor_search(args) -> int:
    from z2bord.catalog import GENERATORS
    from z2bord.milnor import family_label, search_orbit_hits
    from z2bord.orbits import orbit

    targets = [orbit(g) for g in GENERATORS]
    report = search_orbit_hits(args.m, args.n, args.r, targets)
    print(f"families_tried={report.families_tried}")
    print(f"skipped_non_isolated={report.skipped_non_isolated}")
    print(f"distinct_polynomials={report.distinct_polynomials()}")
    for i, fams in enumerate(report.hits, 1):
        first = f" first={family_label(fams[0])}" if fams else ""
        print(f"orbit_{i}_hits={len(fams)}{first}")
    print("unreached_orbits="
          + (",".join(str(i + 1) for i in report.unreached) or "none"))
    return 0


def cmd_reproduce(args) -> int:
    from z2bord.report import emit_data, run_reproduction

    if args.emit_data:
        try:
            names = emit_data(args.emit_data)
        except OSError as e:
            raise InputError(f"{args.emit_data}: {e.strerror}") from e
    report = run_reproduction()
    for line in report.lines():
        print(line)
    if args.emit_data:
        print(f"emitted {len(names)} files to {args.emit_data}")
    if report.ok:
        print("all checkpoints passed")
        return 0
    first = next(c for c in report.checkpoints if not c.passed)
    print(f"first failure: {first.name}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="z2bord",
        description="Exact GF(2) engine for fixed-point data of involutions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide realizability of a polynomial file")
    p.add_argument("polynomial")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("dim", help="dimension of the realizable space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("orbit", help="automorphism orbit of a polynomial file")
    p.add_argument("polynomial")
    p.add_argument("--elements", action="store_true",
                   help="print every orbit element")
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("span", help="GF(2) span of polynomial files")
    p.add_argument("polynomials", nargs="+")
    p.add_argument("--expand-orbits", action="store_true",
                   help="span of the full orbits of the inputs")
    p.set_defaults(fn=cmd_span)

    p = sub.add_parser("graph-validate", help="validate a labeled graph file")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_graph_validate)

    p = sub.add_parser("smallcover",
                       help="fixed-point polynomial of a small cover")
    p.add_argument("--polytope", required=True, metavar="N1xN2x...",
                   help="product of simplices, e.g. 1x4")
    p.add_argument("--lambda", required=True, metavar="FILE",
                   help="characteristic matrix file")
    p.add_argument("--subgroup", metavar="FILE",
                   help="restrict to the subgroup spanned by these rows")
    p.set_defaults(fn=cmd_smallcover)

    p = sub.add_parser("milnor",
                       help="fixed-point polynomial of a Milnor hypersurface action")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sets", required=True,
                   help="semicolon-separated digit strings, e.g. '2;12;23;123'")
    p.set_defaults(fn=cmd_milnor)

    p = sub.add_parser("milnor-search",
                       help="search all subset families for orbit hits")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=cmd_milnor_search)

    p = sub.add_parser("reproduce-paper",
                       help="run every published checkpoint and report")
    p.add_argument("--emit-data", metavar="DIR",
                   help="also export the embedded example data")
    p.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Before Python 3.13, argparse stores [] for an option written --NAME=--.
        for name, value in vars(args).items():
            if value == []:
                raise InputError(f"argument --{name.replace('_', '-')}: expected one argument")
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except SystemExit as e:  # --help
        return 2 if e.code not in (0, None) else 0
    except (InputError, ResourceLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The output still buffered goes to os.devnull, so the flush at
        # exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
