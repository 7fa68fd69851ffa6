"""Command line interface.

Subcommands::

    femupdate update <config.ini>       run one model update
    femupdate noise-study <config.ini>  sweep target noise levels
    femupdate compare <config.ini>      compare RM / AD / A strategies
    femupdate eigs <config.ini>         print frequencies at the start point
    femupdate mesh <arch|vault> <path>  export a built-in benchmark mesh

Exit codes: 0 on success, 1 when an update fails to converge, 2 on a
configuration or usage error (unknown keys and invalid or non-finite
values included) or a start point where K is not positive definite, 3 on
a numerical failure (clustered eigenvalues, surrogate out of range,
inconsistent model, Lanczos cap, exhausted subspace or overflow). A
trial point where K is not positive definite is a rejected step.
"""

from __future__ import annotations

import argparse
import sys

from . import benchmarks
from .config import load_config
from .errors import ConfigError, NumericalError
from .objective import evaluate_full
from .studies import STRATEGIES, run_noise_study, run_strategy_comparison, run_update


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="femupdate",
        description="Calibrate material parameters of finite element models "
        "against measured natural frequencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (
        ("update", "run one model update"),
        ("noise-study", "repeat the update over a range of target noise levels"),
        ("compare", "run every solver strategy on the same problem"),
        ("eigs", "print the natural frequencies at the start point"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("config", help="path to the INI configuration file")
        p.add_argument("--output-dir", default=None, help="override [run] output_dir")

    p = sub.add_parser("mesh", help="write a built-in benchmark mesh to a text file")
    p.add_argument("benchmark", choices=("arch", "vault"))
    p.add_argument("path", help="output file")
    p.add_argument("--refine", type=_positive_int, default=1)
    return parser


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %s" % text)
    return int(text)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "mesh":
            mesh, materials = benchmarks.benchmark(args.benchmark, args.refine)
            mesh.save(args.path)
            print(
                "wrote %s: %d nodes, %d elements, %d regions, %d free dofs"
                % (
                    args.path,
                    mesh.n_nodes,
                    mesh.n_elements,
                    mesh.n_regions,
                    len(mesh.free_dofs()),
                )
            )
            return 0

        setup = load_config(args.config)
        if args.output_dir is not None:
            setup.output_dir = args.output_dir
        out = setup.output_dir

        if args.command == "eigs":
            ev = evaluate_full(setup.problem, setup.start)
            print("frequencies at start point (Hz):")
            for i, (f, lam) in enumerate(zip(ev.frequencies, ev.lanczos.eigenvalues)):
                print("  f%-2d = %12.6g   (eigenvalue %.6e)" % (i + 1, f, lam))
            return 0

        if args.command == "update":
            result, iterations, _ = run_update(setup)
            print("strategy %s: %s after %d iterations" % (
                setup.strategy,
                "converged" if result.converged else "did not converge",
                iterations,
            ))
            print("objective %.6e, criticality %.3e" % (result.value, result.chi))
            for name, value in zip(setup.problem.pencil.names, result.x):
                print("  %-24s %12.6g" % (name, value))
            print("wrote %s/summary.txt" % out)
            if setup.strategy == "RM":
                print("wrote %s/convergence.csv" % out)
            return 0 if result.converged else 1

        if args.command == "noise-study":
            if setup.true_values is None:  # the study measures error against them
                raise ConfigError("noise-study needs mode = generate (known true values)",
                                  "targets", "mode")
            deltas, medians, slope = run_noise_study(setup)
            print("noise level -> median max relative parameter error")
            for d, m in zip(deltas, medians):
                print("  %8.1e -> %.3e" % (d, m))
            print("log-log slope %.3f" % slope)
            print("wrote %s/noise_study.csv and %s/noise_summary.txt" % (out, out))
            return 0

        if args.command == "compare":
            results = run_strategy_comparison(setup)
            print("strategy  factorizations  objective      criticality")
            for name in STRATEGIES:
                r = results[name]
                print(
                    "%-8s  %14d  %-12.4e  %.3e"
                    % (name, r.counter.factorizations, r.value, r.chi)
                )
            print("wrote %s/comparison.csv" % out)
            return 0 if all(r.converged for r in results.values()) else 1

    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
