"""Command-line interface.

Commands read a JSON document (``--input``, ``-`` for stdin) or, for the
consensus and spatial analyses, plain numeric flags; every document value
is read by the rules of ``locrel.graphs``.  Results print to stdout as
deterministic JSON (sorted keys) or as flattened ``key,value`` CSV rows.
Exit codes: 0 on success, 2 when the computed verdict is Infeasible, and
1 on any error, with nothing on stdout and one ``error:`` line on stderr
that names the path of a wrong document value, such as ``$.plant.a[0]``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import consensus as cons
from . import sls, spatial
from .errors import LocrelError
from .graphs import array, count, graph_from_json, member, number, pattern_from_json
from .rational import RationalMatrix
from .relative import is_relative, relative_decompose, relative_decompose_rational
from .statespace import StateSpace, tf_of
from .structure import (
    build_structured_realization,
    check_realization_structure,
    is_tf_structured,
)
from .tolerances import MATCH


# ``sls check`` decides the affine constraint exactly and evaluates no
# samples, but its output keeps the key "samples" with the count the
# sampled check used, because recorded outputs of the command compare
# keys and integers exactly.  It goes once those records no longer hold it.
SLS_CHECK_SAMPLES = 7


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _load_input(path):
    if path is None:
        raise LocrelError("this command needs --input")
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _structure_flags(result):
    return {
        "structured": result.structured,
        "networkRealizable": result.network,
        "inputSideDiagonal": result.input_side_diagonal,
        "outputSideDiagonal": result.output_side_diagonal,
    }


def _operator(doc, path, *keys):
    """The first of ``keys`` set in doc: a "static" or "gain" array, a "system", else a matrix."""
    value, where = member(doc, path, *keys)
    if where.endswith((".static", ".gain")):
        return array(value, where, 2)
    if where.endswith(".system"):
        return StateSpace.from_json(value, where)
    return RationalMatrix.from_json(value, where)


def _plant(doc, path):
    """The agents' plant dx = A x + w + B2 u; B2 defaults to the identity."""
    A = np.atleast_2d(array(*member(doc, path, "a"), 2))
    identity = np.eye(A.shape[0])
    return sls.Plant(A, identity, array(*member(doc, path, "b2", default=identity.tolist()), 2))


def cmd_structure(args):
    doc = _load_input(args.input)
    pattern = pattern_from_json(*member(doc, "$", "pattern"))
    if args.action == "check":
        system = StateSpace.from_json(*member(doc, "$", "system"))
        flags = _structure_flags(check_realization_structure(system, pattern))
        flags["tfStructured"] = bool(is_tf_structured(system, pattern))
        return flags, 0
    matrix = RationalMatrix.from_json(*member(doc, "$", "matrix"))
    orientation = member(doc, "$", "orientation", default="rows")[0]
    system = build_structured_realization(matrix, pattern, orientation)
    flags = _structure_flags(check_realization_structure(system, pattern))
    return {"system": system.to_json(), "structure": flags}, 0


def cmd_relative(args):
    doc = _load_input(args.input)
    K = _operator(doc, "$", "matrix", "gain")
    if args.action == "check":
        return {"relative": bool(is_relative(K))}, 0
    graph = graph_from_json(*member(doc, "$", "graph"))
    if isinstance(K, RationalMatrix):
        return relative_decompose_rational(K, graph).to_json(), 0
    M = relative_decompose(K.reshape(-1), graph)
    return {"m": M.tolist(), "rowSums": M.sum(axis=1).tolist()}, 0


def cmd_sls(args):
    doc = _load_input(args.input)
    if args.action in ("closed-loops", "check"):
        plant = _plant(*member(doc, "$", "plant"))
        K = _operator(*member(doc, "$", "controller"), "static", "system", "matrix")
        cl = sls.closed_loops_of(plant, K)
        residual = sls.check_affine_constraint(cl, plant)
        if args.action == "check":
            return {
                "affineResidual": residual,
                "samples": SLS_CHECK_SAMPLES,
                "ok": bool(residual <= args.tolerance),
            }, 0
        return {
            "phiX": tf_of(cl.phi_x).to_json(),
            "phiU": tf_of(cl.phi_u).to_json(),
            "affineResidual": residual,
        }, 0
    loops = member(doc, "$", "closedLoops")
    cl = sls.ClosedLoopPair(_operator(*loops, "phiX"), _operator(*loops, "phiU"))
    if args.action == "recover":
        K = sls.recover_controller_sf(cl)
        return {"controller": {"matrix": tf_of(K).to_json()}}, 0
    value, path = member(doc, "$", "pattern", default=None)
    pattern = None if value is None else pattern_from_json(value, path)
    impl, witness = sls.implementation_realization_sf(cl, pattern)
    out = {"system": impl.to_json()}
    out["structure"] = _structure_flags(witness) if witness is not None else None
    return out, 0


def _measure_for(n, flag, doc):
    """The --measure flag, else the document's "c" or "measure", else ave."""
    value, path = (flag, "--measure") if flag else member(doc, "$", "c", "measure", default="ave")
    if path == "$.c":
        return array(value, path, 2)
    return cons.consensus_measures(n, kinds=(value,))[value]


def _setting(args, doc, name, read, missing=None, default=None):
    """The --name flag, else the document's "name" or ``default``, through ``read``."""
    value, path = getattr(args, name), f"--{name}"
    if value is None:
        value, path = member(doc, "$", name, default=default)
    if value is None:
        raise LocrelError(missing)
    return read(value, path)


def cmd_consensus(args):
    doc = _load_input(args.input) if args.input else {}
    n = _setting(args, doc, "n", count, "consensus commands need n (flag or input document)")
    gamma = _setting(args, doc, "gamma", number, default=0.0)
    if args.action == "h2":
        C = _measure_for(n, args.measure, doc)
        prob = cons.ConsensusProblem(n=n, b=1, gamma=gamma, c=C)
        choice = args.controller or member(doc, "$", "controller", default="ks")[0]
        if choice == "ka":
            a = _setting(args, doc, "a", number, "controller ka needs its pole (--a)")
            K = cons.proper_approximation(n, a)
        elif choice == "ks":
            K = cons.static_consensus_gain(n)
        else:
            K = _operator(choice, "$.controller", "static", "system", "matrix")
        return {"h2Squared": cons.h2_deflated(prob, K)}, 0
    b = _setting(args, doc, "b", count, f"{args.action} needs the locality radius b")
    if args.action == "feasibility":
        C = _measure_for(n, args.measure, doc)
        cert = cons.sls_relative_feasibility(cons.ConsensusProblem(n=n, b=b, gamma=gamma, c=C))
        return cert.to_json(), (2 if cert.infeasible else 0)
    payload = cons.gap_demonstration(n, b, gamma).to_json()
    return payload, (2 if payload["verdict"] == "Infeasible" else 0)


def cmd_spatial(args):
    doc = _load_input(args.input) if args.input else {}
    if args.action == "feasibility":
        d, n, b = (
            _setting(args, doc, name, count, "spatial feasibility needs d, n and b")
            for name in ("d", "n", "b")
        )
        cert = spatial.spatial_feasibility(d, n, b)
        return cert.to_json(), (2 if cert.infeasible else 0)
    kernel = spatial.ConvKernelArray.from_json(*member(doc, "$", "kernel"))
    squared = spatial.si_h2_squared(kernel)
    return {
        "h2Squared": squared,
        "h2": float(np.sqrt(squared)),
        "parsevalH2Squared": spatial.si_h2_squared_parseval(kernel),
    }, 0


def _flatten(value, prefix, out):
    if isinstance(value, dict):
        for key in value:
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value


def _render(payload, fmt):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise LocrelError("the result holds a number that is not finite") from None
    if fmt == "json":
        return text
    flat = {}
    _flatten(payload, "", flat)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for key in sorted(flat):
        writer.writerow([key, flat[key]])
    return buf.getvalue()


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input JSON document (- for stdin)")
    common.add_argument(
        "--output", choices=("json", "csv"), default="json", help="output format"
    )

    parser = _Parser(
        prog="locrel",
        description="Locality and relative-feedback analysis for distributed controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structure", help="realization structure tools", parents=[common])
    p.add_argument("action", choices=("check", "realize"))
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("relative", help="relative feedback tools", parents=[common])
    p.add_argument("action", choices=("check", "decompose"))
    p.set_defaults(func=cmd_relative)

    p = sub.add_parser(
        "sls", help="closed-loop parameterization tools", parents=[common]
    )
    p.add_argument("action", choices=("closed-loops", "check", "recover", "implement"))
    p.add_argument("--tolerance", type=float, default=MATCH)
    p.set_defaults(func=cmd_sls)

    p = sub.add_parser("consensus", help="ring consensus analysis", parents=[common])
    p.add_argument("action", choices=("feasibility", "h2", "gap-demo"))
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--measure", choices=("le", "ave", "lr"), help="default: ave")
    p.add_argument(
        "--controller",
        choices=("ks", "ka"),
        help="static ring gain or its proper approximation",
    )
    p.add_argument("--a", type=float, help="pole of the proper approximation")
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser("spatial", help="spatially invariant analysis", parents=[common])
    p.add_argument("action", choices=("feasibility", "h2"))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int)
    p.set_defaults(func=cmd_spatial)

    return parser


@functools.cache
def _parser():
    """The parser of ``build_parser``, built at the first call in a process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            payload, code = args.func(args)
        text = _render(payload, args.output)
    except (LocrelError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
