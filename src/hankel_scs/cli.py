"""Command-line interface: signal generation, recovery, and benchmark suites.

Subcommands
-----------
gen       draw a ground-truth model, sample it, write observations to disk
recover   run a solver on saved observations and write the result JSON
phase     success-probability grid over (rank, sampling ratio)
timing    SHGD-vs-PGD time-to-target comparison
scaling   per-iteration solver cost versus signal length
noise     reconstruction error versus noise level
selftest  invariant suite with one verdict line per property

The experiment subcommands (phase, timing, scaling, noise) are the kinds in
``bench.EXPERIMENTS``; ``--config`` sets their ``bench.ExperimentSpec`` fields,
and a spec that fails its checks is a usage error.  Trials run serially.

Exit codes: 0 success, 1 usage error, 2 solver failure, 3 selftest failure.
Any other error is a bug and ends the command with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench, pgd, shgd, signal_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_SELFTEST = 3

# What a solve or an experiment may raise on bad data or a hard instance;
# these exit with EXIT_SOLVER.  Any other exception is a bug and propagates.
SOLVER_ERRORS = (ValueError, *bench.TRIAL_ERRORS)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _parse_step(text: str) -> dict:
    """--step grammar: 'backtrack' or 'fixed:<eta_prime>'."""
    if text in ("backtrack", "backtracking"):
        return {"step_policy": "backtracking"}
    if text.startswith("fixed:"):
        try:
            return {"step_policy": "fixed", "eta_prime": float(text[len("fixed:"):])}
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"expected 'backtrack' or 'fixed:<eta_prime>', got {text!r}"
    )


def _load_config(text: str | None) -> dict:
    """--config accepts an inline JSON object or a path to a JSON file."""
    if not text:
        return {}
    try:
        if text.lstrip().startswith("{"):
            cfg = json.loads(text)
        else:
            with open(text) as f:
                cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read --config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("--config must hold a JSON object")
    return cfg


def _add_common(parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", help="output path")
    parser.add_argument(
        "--config", help="JSON object (inline or file path) with extra settings"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="hankel-scs", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate and sample a random signal")
    p_gen.add_argument("--n", type=int, default=127, help="signal length")
    p_gen.add_argument("--rank", type=int, default=4, help="number of modes")
    p_gen.add_argument("--m", type=int, help="observed samples (default 0.6n)")
    p_gen.add_argument("--sigma-e", type=float, default=0.0, help="noise level")
    p_gen.add_argument(
        "--min-sep", type=float, default=None,
        help="wrap-around frequency separation (default: none enforced)",
    )
    p_gen.add_argument("--damped", action="store_true", help="draw damped modes")
    _add_common(p_gen)

    p_rec = sub.add_parser("recover", help="run a solver on saved observations")
    p_rec.add_argument("--input", required=True, help="observations (.ssig.json)")
    p_rec.add_argument("--rank", type=int, required=True, help="target rank")
    p_rec.add_argument(
        "--solver", choices=("shgd", "pgd"), default="shgd", help="solver choice"
    )
    p_rec.add_argument(
        "--step", type=_parse_step, default={"step_policy": "backtracking"},
        help="'backtrack' or 'fixed:<eta_prime>'",
    )
    p_rec.add_argument("--tol", type=float, default=1e-7, help="relative-change stop")
    p_rec.add_argument("--max-iters", type=int, default=1000)
    _add_common(p_rec)

    for kind, experiment in bench.EXPERIMENTS.items():
        _add_common(sub.add_parser(kind, help=experiment.help))

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    _add_common(p_self)

    return parser


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    m = args.m if args.m is not None else max(1, round(0.6 * args.n))
    model = signal_model.random_model(
        args.n, args.rank, rng=rng, min_sep=args.min_sep, damped=args.damped
    )
    x = signal_model.synthesize(model)
    mask = signal_model.uniform_mask(args.n, m, rng=rng)
    observed = signal_model.observe(x, mask, sigma_e=args.sigma_e, rng=rng)
    out = args.out or "signal.ssig.json"
    signal_model.save_ssig(out, observed, mask)
    signal_model.save_smodel(out + ".model.json", model)
    print(
        f"wrote {out} (n={args.n}, r={args.rank}, m={m}, sigma_e={args.sigma_e:g}) "
        f"and {out}.model.json"
    )
    return EXIT_OK


def _cmd_recover(args) -> int:
    try:
        observed, mask = signal_model.load_ssig(args.input)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot load --input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    overrides = _load_config(args.config)
    kwargs = dict(
        r=args.rank, rel_change_tol=args.tol, max_iters=args.max_iters,
        seed=args.seed, **args.step,
    )
    kwargs.update(overrides)
    try:
        config = shgd.SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        print(f"bad solver configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    solve = shgd.recover if args.solver == "shgd" else pgd.pgd_recover
    try:
        result = solve(observed, mask, config)
    except SOLVER_ERRORS as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out = args.out or "result.json"
    shgd.save_result(out, result)
    last = result.history[-1] if result.history else None
    print(
        f"{args.solver}: {result.termination} after {result.iters} iterations"
        f" ({result.single_iters} in complex64)"
        + (f", final loss {last.loss:.3e}, rel_change {last.rel_change:.3e}"
           if last else "")
        + f"; wrote {out}"
    )
    return EXIT_OK if result.termination != "diverged" else EXIT_SOLVER


def _cmd_experiment(args) -> int:
    overrides = _load_config(args.config)
    spec_kwargs = dict(kind=args.command, seed=args.seed)
    spec_kwargs.update(overrides)
    try:
        spec = bench.ExperimentSpec(**spec_kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad experiment spec: {exc}") from exc
    try:
        result = bench.EXPERIMENTS[args.command].run(spec)
    except SOLVER_ERRORS as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out = args.out or f"{args.command}.csv"
    bench.write_csv(out, result)
    print(f"wrote {out} ({len(result.rows)} rows) and {out}.meta.json")
    return EXIT_OK


class _Tee:
    def __init__(self, *streams):
        self.streams = streams

    def write(self, text):
        for s in self.streams:
            s.write(text)

    def flush(self):
        for s in self.streams:
            s.flush()


def _cmd_selftest(args) -> int:
    if args.out:
        with open(args.out, "w") as f:
            ok = bench.run_selftest(stream=_Tee(sys.stdout, f))
    else:
        ok = bench.run_selftest()
    return EXIT_OK if ok else EXIT_SELFTEST


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": _cmd_gen, "recover": _cmd_recover, "selftest": _cmd_selftest}
    try:
        return handlers.get(args.command, _cmd_experiment)(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
