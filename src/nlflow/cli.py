"""Batch command-line surface.

Results go to stdout and are byte-identical across runs; diagnostics and
the optional JSON run report (schema 1, carries timing) go to stderr.
Exit codes: 0 success, 1 usage/domain errors, 2 verification mismatch.
A usage error is reported as `error: usage:` and the usage line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial

from .cuts import enumerate_dicuts, is_dijoin
from .digraphs import arc_mask, mask_arcs, read_digraph
from .errors import BudgetExceededError, LatticeSizeError, NLFlowError
from .errors import NonIntegerPolynomialError, WitnessMismatchError
from .groups import parse_group_spec
from .matroids import (
    count_nl_group_flows_matroid,
    count_nl_integer_kflows_matroid,
    fit_integer_flow_polynomial_matroid,
    is_totally_cyclic_matroid,
    read_matrix,
)
from .nl import nl_coflow_polynomial, nl_flow_polynomial
from .oracles import (
    DEFAULT_BUDGET,
    count_acyclic_colorings,
    count_nl_group_flows,
    count_nl_integer_kflows,
    kernel_nullity,
)
from .polynomials import IntPolynomial
from .tournaments import complete_acyclic_nl_poly, complete_digraph_nl_poly


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise NLFlowError(f"cannot read {path}: {exc}") from exc


def _emit_poly(poly: IntPolynomial, args, out) -> dict:
    if args.json:
        text = json.dumps(poly.to_json_dict(), sort_keys=True)
    else:
        text = poly.to_text()
    print(text, file=out)
    return {"text": poly.to_text(), "json": poly.to_json_dict()}


def _int_list(text: str, skip_blank: bool = False) -> list[int]:
    """argparse type of a comma-separated integer list, so that a bad item
    is a usage error, as a bad -k is.  skip_blank drops empty items.
    """
    values = []
    for x in text.split(","):
        if x.strip() or not skip_blank:
            try:
                values.append(int(x))
            except ValueError:
                raise argparse.ArgumentTypeError(f"invalid int value: {x!r}") from None
    return values


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1, as other errors, not its
    own exit 2, which is the verify mismatch.  Subparsers share the class.
    """

    def error(self, message):
        self.exit(1, f"error: usage: {message}\n{self.format_usage()}")

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads "-1,2" as an unknown option, which would leave
        # "--arcs -1,2" without its value.  A comma-list option of this
        # parser takes a value that starts with a negative item joined to
        # it, as it takes "--arcs=-1,2".
        args = sys.argv[1:] if args is None else list(args)
        joined = []
        for i, arg in enumerate(args):
            if arg == "--":
                joined += args[i:]
                break
            action = self._option_string_actions.get(joined[-1]) if joined else None
            is_list = action is not None and getattr(action.type, "func", action.type) is _int_list
            if is_list and arg[:1] == "-" and arg[1:2].isdigit():
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlflow",
        description="Exact NL-flow/coflow polynomials and brute-force oracles",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON polynomials")
    parser.add_argument(
        "--report", action="store_true", help="write a JSON run report to stderr"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="enumeration budget of counts, fits, colorings and verify, and the "
        "prefix steps times terms of complete-acyclic and tournament; "
        "poly, copoly and dicuts are bounded by the fixed 10^6 lattice cap instead",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="NL-flow polynomial of a digraph file")
    p.add_argument("file")
    p = sub.add_parser("copoly", help="NL-coflow polynomial of a digraph file")
    p.add_argument("file")
    p = sub.add_parser("count", help="brute-force NL-G-flow count")
    p.add_argument("file")
    p.add_argument("--group", required=True, help="group spec, e.g. z4 or z2xz2")
    p = sub.add_parser("count-int", help="brute-force integer NL-k-flow count")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p = sub.add_parser("colorings", help="acyclic coloring count by a subset DP")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p = sub.add_parser("dicuts", help="list all dicuts as sorted arc indices")
    p.add_argument("file")
    p = sub.add_parser("dijoin", help="test whether an arc set is a dijoin")
    p.add_argument("file")
    arcs = partial(_int_list, skip_blank=True)
    p.add_argument("--arcs", type=arcs, required=True, help="comma-separated arc indices")
    p = sub.add_parser("complete-acyclic", help="closed-form polynomial, acyclic case")
    p.add_argument("-n", type=int, required=True)
    p = sub.add_parser("tournament", help="closed form from condensation sizes")
    p.add_argument("--sizes", type=_int_list, required=True, help="comma-separated component sizes")
    p = sub.add_parser("matroid", help="regular-matroid operations")
    msub = p.add_subparsers(dest="matroid_command", required=True)
    mc = msub.add_parser("count", help="NL-flow count in a TU-matrix matroid")
    mc.add_argument("--matrix", required=True)
    grp = mc.add_mutually_exclusive_group(required=True)
    grp.add_argument("--group", help="group spec, e.g. z3")
    grp.add_argument("-k", type=int, help="integer flow bound")
    mt = msub.add_parser("tc", help="total cyclicity of a TU-matrix matroid")
    mt.add_argument("--matrix", required=True)
    mp = msub.add_parser("poly-fit", help="interpolate integer NL-k-flow counts")
    mp.add_argument("--matrix", required=True)
    mp.add_argument("--k-range", type=_int_list, help="comma-separated k values")
    p = sub.add_parser("verify", help="oracle-vs-formula sweep; exit 2 on mismatch")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-m", type=int, default=6)
    return parser


def _digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
    return h.hexdigest()[:16]


def _run(args, out) -> tuple[int, dict]:
    cmd = args.command
    if cmd == "poly":
        text = _read_file(args.file)
        poly = nl_flow_polynomial(read_digraph(text))
        return 0, {"input": _digest(text), "outputs": _emit_poly(poly, args, out)}
    if cmd == "copoly":
        text = _read_file(args.file)
        poly = nl_coflow_polynomial(read_digraph(text))
        return 0, {"input": _digest(text), "outputs": _emit_poly(poly, args, out)}
    if cmd == "count":
        text = _read_file(args.file)
        g = parse_group_spec(args.group)
        n = count_nl_group_flows(read_digraph(text), g, args.budget)
        print(n, file=out)
        return 0, {"input": _digest(text, args.group), "outputs": {"count": n}}
    if cmd == "count-int":
        text = _read_file(args.file)
        n = count_nl_integer_kflows(read_digraph(text), args.k, args.budget)
        print(n, file=out)
        return 0, {"input": _digest(text, str(args.k)), "outputs": {"count": n}}
    if cmd == "colorings":
        text = _read_file(args.file)
        n = count_acyclic_colorings(read_digraph(text), args.k, args.budget)
        print(n, file=out)
        return 0, {"input": _digest(text, str(args.k)), "outputs": {"count": n}}
    if cmd == "dicuts":
        text = _read_file(args.file)
        cuts = enumerate_dicuts(read_digraph(text))
        for arcs in sorted(map(mask_arcs, cuts)):
            print(" ".join(map(str, arcs)), file=out)
        return 0, {"input": _digest(text), "outputs": {"dicuts": len(cuts)}}
    if cmd == "dijoin":
        text = _read_file(args.file)
        d = read_digraph(text)
        result = is_dijoin(d, arc_mask(d, args.arcs))
        print("true" if result else "false", file=out)
        digest = _digest(text, ",".join(map(str, args.arcs)))
        return 0, {"input": digest, "outputs": {"dijoin": result}}
    if cmd == "complete-acyclic":
        poly = complete_acyclic_nl_poly(args.n, args.budget)
        return 0, {"input": _digest(str(args.n)), "outputs": _emit_poly(poly, args, out)}
    if cmd == "tournament":
        poly = complete_digraph_nl_poly(args.sizes, args.budget)
        digest = _digest(",".join(map(str, args.sizes)))
        return 0, {"input": digest, "outputs": _emit_poly(poly, args, out)}
    if cmd == "matroid":
        text = _read_file(args.matrix)
        m = read_matrix(text)
        if args.matroid_command == "tc":
            result = is_totally_cyclic_matroid(m)
            print("true" if result else "false", file=out)
            return 0, {"input": _digest(text), "outputs": {"totally_cyclic": result}}
        if args.matroid_command == "count":
            if args.group is not None:
                n = count_nl_group_flows_matroid(m, parse_group_spec(args.group), args.budget)
            else:
                n = count_nl_integer_kflows_matroid(m, args.k, args.budget)
            print(n, file=out)
            return 0, {"input": _digest(text), "outputs": {"count": n}}
        if args.matroid_command == "poly-fit":
            ks = args.k_range or list(range(2, 2 + kernel_nullity(m.rows, m.q) + 2))
            poly = fit_integer_flow_polynomial_matroid(m, ks, args.budget)
            return 0, {"input": _digest(text), "outputs": _emit_poly(poly, args, out)}
    if cmd == "verify":
        from .catalog import verify_coloring_identity, verify_flow_counts

        flow = verify_flow_counts(args.max_n, args.max_k, args.max_m, args.budget)
        color = verify_coloring_identity(args.max_n, args.max_k, args.max_m, args.budget)
        mismatches = flow.mismatches + color.mismatches
        for mm in mismatches:
            print(str(mm), file=out)
        checked = flow.checked + color.checked
        print(f"checked {checked} counts, {len(mismatches)} mismatches", file=out)
        verdict = {"checked": checked, "mismatches": len(mismatches)}
        return (2 if mismatches else 0), {
            "input": _digest(f"max_n={args.max_n},max_k={args.max_k},max_m={args.max_m}"),
            "outputs": verdict,
            "verdicts": verdict,
        }
    raise AssertionError(f"unhandled command {cmd}")


# A budget can admit an array the machine cannot hold; numpy then raises
# MemoryError when it asks for it.
_ERROR_KINDS = [
    (BudgetExceededError, "budget"),
    (MemoryError, "budget"),
    (LatticeSizeError, "lattice-size"),
    (ValueError, "domain"),
    (WitnessMismatchError, "witness"),
    (NonIntegerPolynomialError, "witness"),
    (NLFlowError, "io"),
]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        status, report = _run(args, sys.stdout)
    except tuple(cls for cls, _ in _ERROR_KINDS) as exc:
        kind = next(k for cls, k in _ERROR_KINDS if isinstance(exc, cls))
        # numpy's MemoryError can carry no text.
        reason = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        print(f"error: {kind}: {reason}", file=sys.stderr)
        return 1
    if args.report:
        report = {
            "schema": 1,
            "command": args.command,
            "input_digest": report.get("input", ""),
            "outputs": report.get("outputs", {}),
            "verdicts": report.get("verdicts", {}),
            "timing_ms": round((time.monotonic() - start) * 1000, 3),
        }
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
