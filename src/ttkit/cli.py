"""Batch command-line surface over the library.

Subcommands cover compression, reconstruction, layer compression, kernel
application, the optimization solvers, and their brute-force oracles.  Exit
codes are uniform: 0 success, 1 usage error, 2 malformed input, 3 numerical
or capacity failure.  All flags are validated before any file is read or
written, and outputs are written only after the computation has finished;
reports always go to a separate sidecar file.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from . import io
from .errors import (
    CapacityError,
    DimensionError,
    InfeasibilityError,
    NetworkError,
    NumericalError,
)
from .kernels import SITE_KERNELS, apply_mpo_to_product, product_feature_map
from .layers import ShapePlan, compress_dataset, compress_layer
from .optimize import (
    IteConfig,
    Solution,
    brute_force_qudo,
    brute_force_tsp,
    solve_qudo,
    solve_tsp,
)
from .tt import (
    DENSE_CAP_DEFAULT,
    TensorTrainOperator,
    TruncationPolicy,
    mpo_to_dense,
    tt_to_dense,
)

USAGE_EXIT = 1
INPUT_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; argparse's default of 2 is reserved for
    # malformed input files.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _from_flags(parser: _Parser, cls, **values):
    # The library validates its own settings; a value it rejects is a usage
    # error, raised before any file is read.
    try:
        return cls(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _policy_from_flags(parser: _Parser, args) -> TruncationPolicy:
    return _from_flags(
        parser, TruncationPolicy, max_bond=args.max_bond, sv_tolerance=args.tol
    )


def _check_positive(parser: _Parser, name: str, value: int) -> None:
    if value < 1:
        parser.error(f"{name} must be >= 1, got {value}")


def _parse_factor_dims(parser: _Parser, text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"--factor-dims must be comma-separated integers, got {text!r}")
    if not dims or any(d < 1 for d in dims):
        parser.error(f"--factor-dims entries must be >= 1, got {text!r}")
    return dims


def _write_report(path, report) -> None:
    if path is None:
        return
    lines = [
        f"dense_params = {report.dense_params}",
        f"compressed_params = {report.compressed_params}",
        f"ratio = {report.ratio!r}",
        f"relative_error = {report.relative_error!r}",
        f"error_bound = {report.error_bound!r}",
        "link_discarded_weights = "
        + ", ".join(repr(w) for w in report.link_discarded_weights),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_result(path, result: np.ndarray) -> None:
    # Output files hold finite numbers only: a result that overflowed, or
    # that carried a NaN or an infinity over from its input, is a numerical
    # failure, and no file is written.
    if not np.isfinite(result).all():
        raise NumericalError("the result holds values that are not finite")
    io.write_tensor(path, result)


def _emit_solution(args, sol: Solution) -> None:
    obj = {"configuration": list(sol.configuration), "cost": sol.cost, "method": sol.method}
    if getattr(args, "output", None):
        io.write_json(args.output, obj)
    else:
        json.dump(obj, sys.stdout)
        sys.stdout.write("\n")


def _cmd_compress(parser: _Parser, args) -> int:
    policy = _policy_from_flags(parser, args)
    factor_dims = _parse_factor_dims(parser, args.factor_dims)
    tensor = io.read_tensor(args.input)
    dims = factor_dims if factor_dims is not None else tensor.shape
    if tensor.ndim == 0 and factor_dims is None:
        dims = (1,)
    train, report = compress_dataset(tensor, dims, policy)
    io.write_train(args.output, train)
    _write_report(args.report, report)
    return 0


def _cmd_reconstruct(parser: _Parser, args) -> int:
    _check_positive(parser, "--dense-cap", args.dense_cap)
    train = io.read_train(args.input)
    if isinstance(train, TensorTrainOperator):
        dense = mpo_to_dense(train, args.dense_cap)
    else:
        dense = tt_to_dense(train, args.dense_cap)
    _write_result(args.output, dense)
    return 0


def _cmd_layer_compress(parser: _Parser, args) -> int:
    _check_positive(parser, "--sites", args.sites)
    policy = _policy_from_flags(parser, args)
    matrix = io.read_tensor(args.matrix)
    bias = io.read_tensor(args.bias)
    if matrix.ndim != 2:
        raise DimensionError(f"--matrix must be 2-dimensional, got rank {matrix.ndim}")
    plan = ShapePlan.balanced(matrix.shape[0], matrix.shape[1], args.sites)
    layer, report = compress_layer(matrix, bias, plan, policy)
    io.write_json(
        args.output,
        {
            "kind": "layer",
            "plan": {
                "row_factors": list(plan.row_factors),
                "col_factors": list(plan.col_factors),
            },
            "weights": io.train_to_obj(layer.weights),
            "bias": io.train_to_obj(layer.bias),
        },
    )
    _write_report(args.report, report)
    return 0


def _cmd_kernel_apply(parser: _Parser, args) -> int:
    train = io.read_train(args.mpo)
    if not isinstance(train, TensorTrainOperator):
        raise io.FormatError(f"{args.mpo}: expected an mpo train")
    x = io.read_tensor(args.input_vector)
    kernel = SITE_KERNELS[args.site_kernel]()
    features = product_feature_map(x, [kernel] * x.size)
    result = apply_mpo_to_product(train, features)
    _write_result(args.output, result)
    return 0


def _solver_config(parser: _Parser, args) -> IteConfig:
    return _from_flags(
        parser,
        IteConfig,
        tau=args.tau,
        readout=args.readout,
        dense_cap=args.dense_cap,
    )


def _read_problem(path, kind: str):
    found, problem = io.read_problem(path)
    if found != kind:
        raise io.FormatError(f"{path}: expected a {kind} problem, found {found}")
    return problem


def _cmd_qudo_solve(parser: _Parser, args) -> int:
    cfg = _solver_config(parser, args)
    _emit_solution(args, solve_qudo(_read_problem(args.problem, "qudo"), cfg))
    return 0


def _cmd_tsp_solve(parser: _Parser, args) -> int:
    cfg = _solver_config(parser, args)
    policy = _policy_from_flags(parser, args)
    costs, variant = _read_problem(args.problem, "tsp")
    _emit_solution(args, solve_tsp(costs, variant, cfg, policy=policy))
    return 0


def _cmd_oracle(parser: _Parser, args) -> int:
    problem = _read_problem(args.problem, args.kind)
    if args.kind == "qudo":
        sol = brute_force_qudo(problem)
    else:
        sol = brute_force_tsp(*problem)
    _emit_solution(args, sol)
    return 0


@cache
def build_parser() -> _Parser:
    # Built once per process: parsing leaves no state in the parser, so
    # every call to ``main`` reuses the same tree.  Callers must not modify
    # the returned parser.
    parser = _Parser(prog="ttkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compress", help="compress a tensor file into a train")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report")
    p.add_argument("--max-bond", type=int)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--factor-dims", help="comma-separated site dimensions")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("reconstruct", help="densify a train file back to a tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dense-cap", type=int, default=DENSE_CAP_DEFAULT)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("layer-compress", help="compress a dense layer (matrix + bias)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--bias", required=True)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report")
    p.add_argument("--max-bond", type=int)
    p.add_argument("--tol", type=float, default=0.0)
    p.set_defaults(func=_cmd_layer_compress)

    p = sub.add_parser(
        "kernel-apply", help="apply an mpo to the product feature map of a vector"
    )
    p.add_argument("--mpo", required=True)
    p.add_argument("--input-vector", required=True)
    p.add_argument("--site-kernel", choices=sorted(SITE_KERNELS), default="product")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_kernel_apply)

    for name, func in (("qudo-solve", _cmd_qudo_solve), ("tsp-solve", _cmd_tsp_solve)):
        p = sub.add_parser(name, help=f"solve a {name.split('-')[0]} problem file")
        p.add_argument("--problem", required=True)
        p.add_argument("--output")
        p.add_argument("--tau", type=float)
        p.add_argument("--readout", choices=("exact", "greedy"), default="exact")
        p.add_argument("--dense-cap", type=int, default=DENSE_CAP_DEFAULT)
        if name == "tsp-solve":
            # Only the routing solver rounds (after each counter layer); the
            # chain QUDO state is exact at bond d and never rounded.
            p.add_argument("--max-bond", type=int)
            p.add_argument("--tol", type=float, default=0.0)
        p.set_defaults(func=func)

    p = sub.add_parser("oracle", help="brute-force reference answer for a problem file")
    p.add_argument("kind", choices=("qudo", "tsp"))
    p.add_argument("--problem", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Outputs are checked finite before they are written, so numpy's
        # overflow warnings would only repeat the one error line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(parser, args)
    except (io.FormatError, DimensionError, NetworkError) as exc:
        print(f"ttkit: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except (NumericalError, CapacityError, InfeasibilityError) as exc:
        print(f"ttkit: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
