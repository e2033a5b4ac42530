"""Command-line front end: verification workflows, splitting construction,
built-in example reproduction, and report/figure-data emission.

Commands
    verify       monotonicity checks on a point-set file
    split        build chain potentials and certify them
    example      reproduce a built-in worked example end to end
    rockafellar  tabulate a chain antiderivative for a pair set

Reports are JSON with floats written as their shortest round-trip repr and
keys in a fixed order, so identical inputs and seed produce byte-identical
output.  Exit codes: 0 when every requested property holds, 1 when a
property is violated (the report carries the witness), 2 for usage or parse
errors.  :func:`main` builds its argument parser on the first call and
reuses it for every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .antiderivative import rockafellar_potential
from .core import (
    CostSpec,
    GammaSet,
    PairwiseCost,
    classical_cost,
    dumps_json,
    loads_json,
)
from .errors import (
    BudgetExceeded,
    InputValidationError,
    MonosplitError,
    NotCyclicallyMonotone,
    ParseError,
    ProjectionNotMonotone,
)
from .monotone import (
    _bruteforce_verdicts,
    check_projection_condition,
    is_c_monotone,
    sign_criterion_1d,
)
from .onedim import (
    MonotoneBijection,
    curve_potentials,
    emit_curve_figure_data,
    knott_smith_alphas,
    knott_smith_forms,
    knott_smith_potentials,
    young_check,
)
from .quadratic import (
    commuting_spd_gamma,
    counterexample_construct,
    counterexample_verify,
    quadratic_splitting,
    random_commuting_spds,
)
from .splitting import (
    SplittingCertificate,
    SplittingTuple,
    assemble_splitting_tuple,
    certify_splitting,
    projection_product,
    sample_test_points,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

GRID_CAP = 100_000  # most points a lo:hi:step grid may hold


def _config(args: argparse.Namespace, inputs: list[str]) -> dict:
    """The report's config header: the command, its input files, then every
    option its subcommand parsed, in parser order (:func:`_add_options`)."""
    config = {"command": args.command, "inputs": inputs}
    config.update((key, getattr(args, key)) for key in args.options)
    if "tol" in config and not 0.0 < config["tol"] < math.inf:
        raise InputValidationError("tolerance must be finite and positive")
    if "samples" in config and config["samples"] < 0:
        raise InputValidationError("sample count must be nonnegative")
    if "tmax" in config and not 0.0 <= config["tmax"] < math.inf:
        raise InputValidationError(
            f"--tmax must be finite and nonnegative, got {config['tmax']!r}"
        )
    return config


def _read_json_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads_json(text)


def _load_gamma(path: str) -> GammaSet:
    return GammaSet.from_json(_read_json_file(path))


def _resolve_cost(selector: str, g: GammaSet) -> CostSpec:
    """c1/c2/c3 build the classical cost for g's shape; anything else is a
    path to a CostSpec JSON file."""
    if selector in ("c1", "c2", "c3"):
        dims = set(g.dims)
        if len(dims) != 1:
            raise InputValidationError(
                "classical costs need equal marginal dimensions; "
                "supply a cost file instead"
            )
        return classical_cost(selector, g.n_marginals, g.dims[0])
    return CostSpec.from_json(_read_json_file(selector))


def _parse_grid(text: str) -> tuple[float, ...]:
    """Expand "lo:hi:step" into lo, lo+step, ..., up to hi inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad grid numbers in {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ParseError(f"grid numbers must be finite, got {text!r}")
    if step <= 0.0 or hi < lo:
        raise ParseError("grid needs step > 0 and hi >= lo")
    count = (hi - lo) / step
    last = round(count) if math.isfinite(count) else GRID_CAP
    if lo + last * step > hi + 1e-9 * step:  # past hi by more than rounding
        last -= 1
    if last >= GRID_CAP:
        raise ParseError(f"grid {text!r} would hold more than {GRID_CAP} points")
    return tuple(lo + k * step for k in range(last + 1))


def _parse_vec(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad vector {text!r}; use comma-separated floats") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        Path(out).write_text(text)


def _emit_report(doc: dict, out: str | None) -> None:
    _emit(dumps_json(doc), out)


def _certify(args: argparse.Namespace, g: GammaSet, tups, costs) -> list[SplittingCertificate]:
    """certify_splitting of each tuple under its cost at args.tol, all on one
    sample of g drawn with args.samples and args.seed, reported as the seed."""
    pts = sample_test_points(g, n_samples=args.samples, seed=args.seed)
    certs = [certify_splitting(t, g, c, test_points=pts, tol=args.tol) for t, c in zip(tups, costs)]
    return [replace(cert, seed=args.seed) for cert in certs]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_gamma(args.gamma)
    spec = _resolve_cost(args.cost, g)
    config = _config(args, [args.gamma])
    if args.brute is not None and args.brute < 2:
        raise InputValidationError("--brute needs an order N >= 2")
    if args.sign_criterion and args.cost not in ("c1", "c3"):
        raise InputValidationError(
            "--sign-criterion needs --cost c1 or c3: the difference-sign test decides "
            "c-monotonicity, with witnesses summed in c1, for those costs only"
        )

    projection = check_projection_condition(g, spec, tol=args.tol)
    pairwise = is_c_monotone(g, spec, tol=args.tol)
    holds = projection.all_hold and pairwise.holds

    doc: dict = {
        "config": config,
        "n_points": g.size,
        "dims": g.dims,
        "projection_condition": projection,
        "pairwise_monotone": pairwise,
    }
    if args.brute is not None:
        brute: dict = {}
        orders = range(2, args.brute + 1)
        for order, verdict in zip(orders, _bruteforce_verdicts(g, spec, orders, tol=args.tol)):
            brute[str(order)] = verdict
            holds = holds and verdict.holds
        doc["bruteforce"] = brute
    if args.sign_criterion:
        signs = sign_criterion_1d(g, tol=args.tol)
        doc["sign_criterion"] = signs
        holds = holds and signs.holds
    doc["all_hold"] = holds
    _emit_report(doc, args.out)
    return EXIT_OK if holds else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def cmd_split(args: argparse.Namespace) -> int:
    g = _load_gamma(args.gamma)
    spec = _resolve_cost(args.cost, g)
    config = _config(args, [args.gamma])
    if not (0 <= args.base < g.size):
        raise InputValidationError(f"--base must index a point (0..{g.size - 1})")

    eval_grids = None
    if args.grid is not None:
        if any(d != 1 for d in g.dims):
            raise InputValidationError("--grid applies only to scalar marginals")
        grid = _parse_grid(args.grid)
        eval_grids = [[(t,) for t in grid] for _ in range(g.n_marginals)]

    try:
        tup = assemble_splitting_tuple(
            g, spec, s=g.points[args.base], eval_grids=eval_grids, tol=args.tol
        )
    except ProjectionNotMonotone as exc:
        sys.stderr.write(
            f"projection {exc.pair} is not cyclically monotone "
            f"(cycle {list(exc.cycle)}, gain {exc.gain:.6g})\n"
        )
        return EXIT_VIOLATION

    cert = certify_splitting(tup, g, spec, tol=args.tol)
    doc = {
        "config": config,
        "potentials": tup.potentials,
        "certificate": cert,
    }
    if args.out is None:
        _emit_report(doc, None)
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, u in enumerate(tup.potentials, start=1):
            (out_dir / f"potential_{i}.json").write_text(dumps_json(u))
        (out_dir / "certificate.json").write_text(dumps_json(cert))
        (out_dir / "report.json").write_text(dumps_json(doc))
    return EXIT_OK if cert.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def _example_quadratic(args: argparse.Namespace) -> tuple[dict, bool]:
    mats = random_commuting_spds(args.n, args.dim, seed=args.seed)
    qs = quadratic_splitting(mats)
    rng = np.random.default_rng(args.seed + 1)
    vs = rng.uniform(-2.0, 2.0, size=(max(2, args.samples // 50), args.dim))
    g = commuting_spd_gamma(mats, vs)
    costs = [classical_cost(c, args.n, args.dim) for c in ("c1", "c3")]
    cert1, cert3 = _certify(args, g, [qs.potentials(), qs.shifted_potentials()], costs)
    doc = {
        "Q": mats,
        "splitting": qs,
        "certificate_c1": cert1,
        "certificate_c3": cert3,
    }
    return doc, cert1.passed and cert3.passed


def _example_counterexample(args: argparse.Namespace) -> tuple[dict, bool]:
    ce = counterexample_construct()
    rep = counterexample_verify(
        n_span=max(1, args.samples // 50), n_random=args.samples, seed=args.seed
    )
    doc = {
        "kernel_basis": ce.kernel_basis,
        "report": rep,
    }
    return doc, rep.passed


def _curve_points(alphas: tuple[MonotoneBijection, ...], ts: tuple[float, ...]) -> np.ndarray:
    """The curve (a_1(t), ..., a_N(t)) at each grid value t, one row a
    component; refuses the first t whose curve point is not finite."""
    with np.errstate(over="ignore"):
        cols = np.array([a(np.asarray(ts)) for a in alphas])
    off = ~np.isfinite(cols).all(axis=0)
    if off.any():
        raise InputValidationError(
            f"the curve point at grid value {ts[int(off.argmax())]!r} is not finite"
        )
    return cols


def _example_curves(args: argparse.Namespace) -> tuple[dict, bool]:
    alphas = knott_smith_alphas()
    ts = _parse_grid(args.grid)
    cols = _curve_points(alphas, ts)
    if args.format == "csv":
        _emit(emit_curve_figure_data(ts, cols), args.out)
        return {}, True
    cp = curve_potentials(alphas, sorted(set(cols.ravel().tolist())))
    tup = SplittingTuple(cp.potentials, {}, {})
    g = GammaSet((1, 1, 1), cols.T)
    spec = classical_cost("c1", 3, 1)
    quad_tol = max(args.tol, 1e-8)
    cert = certify_splitting(tup, g, spec, test_points=projection_product(g), tol=quad_tol)
    doc = {
        "n_grid": len(ts),
        "quadrature_bounds": cp.error_bounds,
        "certificate": cert,
    }
    return doc, cert.passed


def _example_knott_smith(args: argparse.Namespace) -> tuple[dict, bool]:
    alphas = knott_smith_alphas()
    ts = _parse_grid(f"{-args.tmax}:{args.tmax}:0.1")
    cols = _curve_points(alphas, ts)
    csv = emit_curve_figure_data(ts, cols)
    if args.format == "csv":
        _emit(csv, args.out)
        return {}, True

    forms, starred = knott_smith_forms()
    cp = curve_potentials(alphas, sorted(set(cols.ravel().tolist())))
    max_dev = max(
        float(np.abs(pot.values - form.values(pot.points)).max())
        for pot, form in zip(cp.potentials, forms)
    )

    g = GammaSet((1, 1, 1), cols.T)
    tups = [SplittingTuple.from_closed_forms(f) for f in (forms, starred)]
    cert1, cert3 = _certify(args, g, tups, [classical_cost(c, 3, 1) for c in ("c1", "c3")])
    spot = knott_smith_potentials(1.0, 1.0, 1.0)
    doc = {
        "quadrature_max_deviation": max_dev,
        "certificate_c1": cert1,
        "certificate_c3": cert3,
        "spot_check": spot,
        "figure_csv": csv,
    }
    ok = (
        cert1.passed
        and cert3.passed
        and max_dev <= 1e-6
        and abs(sum(spot.u) - 3.0) <= 1e-12
    )
    return doc, ok


_YOUNG_MAPS = {"identity": 1.0, "cube": 3.0}


def _example_young(args: argparse.Namespace) -> tuple[dict, bool]:
    name = args.g
    if name in _YOUNG_MAPS:
        power = _YOUNG_MAPS[name]
    elif name.startswith("power:"):
        try:
            power = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad power in {name!r}") from exc
        if power <= 0.0:
            raise ParseError("power must be positive")
    else:
        raise ParseError(
            f"unknown map {name!r}; use identity, cube, or power:<p>"
        )
    g = MonotoneBijection.identity() if power == 1.0 else MonotoneBijection.odd_power(power)
    check = young_check(g, args.a, args.b, tol=args.tol)
    doc = {
        "g": name,
        "a": args.a,
        "b": args.b,
        "young": check,
    }
    return doc, check.rhs >= check.lhs - args.tol


def cmd_example(args: argparse.Namespace) -> int:
    config = _config(args, [])
    body, ok = args.run(args)
    if body:
        _emit_report({"config": config, **body}, args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# rockafellar
# ---------------------------------------------------------------------------


def _load_pairs(path: str) -> list[tuple]:
    obj = _read_json_file(path)
    try:
        rows = obj["pairs"]
        return [(tuple(_as_floats(x)), tuple(_as_floats(y))) for x, y in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pairs payload in {path}: {exc}") from exc


def _as_floats(v) -> list[float]:
    if isinstance(v, (int, float)):
        return [float(v)]
    return [float(t) for t in v]


def _pairwise_cost(selector: str) -> PairwiseCost:
    if selector == "c1":
        return PairwiseCost.inner_product()
    if selector == "c2":
        return PairwiseCost.half_sq_dist()
    if selector == "c3":
        raise InputValidationError(
            "the shifted cost has no extra pairwise part; chains use c1"
        )
    return PairwiseCost.from_json(_read_json_file(selector))


def cmd_rockafellar(args: argparse.Namespace) -> int:
    pairs = _load_pairs(args.pairs)
    cost = _pairwise_cost(args.cost)
    if not pairs:  # rockafellar_potential's error, before pairs[0] is read
        raise InputValidationError("the pair list must be nonempty")
    base = _parse_vec(args.base) if args.base is not None else pairs[0][0]
    if args.grid is not None:
        if len(base) != 1:
            raise InputValidationError("--grid applies only to scalar marginals")
        eval_points = [(t,) for t in _parse_grid(args.grid)]
    else:
        eval_points = [p[0] for p in pairs]
    eval_points = list(eval_points) + [tuple(base)]

    config = _config(args, [args.pairs])
    try:
        pot = rockafellar_potential(cost, pairs, base, eval_points, tol=args.tol)
    except NotCyclicallyMonotone as exc:
        sys.stderr.write(
            f"pairs are not cyclically monotone: cycle {list(exc.cycle)} "
            f"has gain {exc.gain:.6g}\n"
        )
        return EXIT_VIOLATION
    doc = {"config": config, "potential": pot}
    _emit_report(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


# Options that several subcommands take, by dest.
_SHARED = {
    "samples": dict(type=int, default=10_000, help="random test-point count"),
    "format": dict(choices=("json", "csv"), default="json", help="output format"),
    "tol": dict(type=float, default=1e-9, help="absolute tolerance"),
    "seed": dict(type=int, default=0, help="RNG seed recorded in reports"),
    "out": dict(default=None, help="output path (default stdout)"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes each option by its full name only, so
    that a prefix of another command's option is no alias, that names the
    parser whose usage refuses an unknown argument, and that can list the
    dests of its options."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        """argparse's parse, which hands back the leftovers of this parser and
        of the subcommand it parsed in one list.  When this parser leaves more
        than its subcommand, it is the outermost parser with a leftover of its
        own, and it becomes the namespace's parser, which refuses them."""
        namespace, extras = super().parse_known_args(args, namespace)
        if len(extras) > getattr(namespace, "leftovers", 0):
            namespace.parser, namespace.leftovers = self, len(extras)
        return namespace, extras

    def option_dests(self) -> list[str]:
        """The dests of this parser's options but --help, in the order added."""
        return [a.dest for a in self._actions if a.option_strings and a.dest != "help"]


def _add_options(p: _Parser, fn, *shared: str, named=(), **defaults) -> None:
    """Add the named shared options, then --out, to p.  Set p's defaults:
    fn, p itself (which reports a usage error in p's terms), the given ones,
    and the options :func:`_config` reports, which are the names in named,
    then the dests of all p's options in parser order."""
    for dest in (*shared, "out"):
        p.add_argument(f"--{dest}", **_SHARED[dest])
    p.set_defaults(fn=fn, parser=p, options=(*named, *p.option_dests()), **defaults)


def _add_example(e: _Parser, run, *shared: str) -> None:
    """The shared options named, then --out, for an example that run
    computes; its report's config opens with the example's name."""
    _add_options(e, cmd_example, *shared, named=("example",), run=run)


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process, built on first use: parsing leaves
    it unchanged, so every :func:`main` call can reuse it."""
    parser = _Parser(
        prog="monosplit",
        description="Verify multi-marginal monotonicity and build splitting potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run monotonicity checks on a point-set file")
    p.add_argument("gamma", help="point-set JSON file")
    p.add_argument("--cost", default="c1",
                   help="c1, c2, c3, or a cost JSON file path")
    p.add_argument("--brute", type=int, default=None, metavar="N",
                   help="also run the permutation oracle for orders 2..N")
    p.add_argument("--sign-criterion", action="store_true",
                   help="also run the 1-D difference-sign test (with --cost c1 or c3)")
    _add_options(p, cmd_verify, "tol")

    p = sub.add_parser("split", help="build chain potentials and certify them")
    p.add_argument("gamma", help="point-set JSON file")
    p.add_argument("--cost", default="c1",
                   help="c1, c2, c3, or a cost JSON file path")
    p.add_argument("--base", type=int, default=0,
                   help="index of the base point inside the set")
    p.add_argument("--grid", default=None, metavar="lo:hi:step",
                   help="extra scalar evaluation grid for every marginal")
    _add_options(p, cmd_split, "tol")

    p = sub.add_parser("example", help="reproduce a built-in example end to end")
    examples = p.add_subparsers(dest="example", required=True, metavar="name")
    e = examples.add_parser("quadratic", help="certify commuting positive-definite splittings")
    e.add_argument("--n", type=int, default=3, help="marginal count")
    e.add_argument("--dim", type=int, default=2, help="marginal dimension")
    _add_example(e, _example_quadratic, "samples", "tol", "seed")
    e = examples.add_parser("counterexample", help="re-derive the plane counterexample")
    _add_example(e, _example_counterexample, "samples", "seed")
    e = examples.add_parser("curves", help="tabulate monotone-curve potentials by quadrature")
    e.add_argument("--grid", default="-1.5:1.5:0.1", metavar="lo:hi:step",
                   help="curve parameter grid")
    _add_example(e, _example_curves, "format", "tol", "seed")
    e = examples.add_parser("knott-smith", help="run the (t, t^3, t^5) curve end to end")
    e.add_argument("--tmax", type=float, default=1.5, help="parameter range half-width")
    _add_example(e, _example_knott_smith, "samples", "format", "tol", "seed")
    e = examples.add_parser("young", help="check Young's inequality for a monotone map")
    e.add_argument("--g", default="cube", help="identity, cube, or power:<p>")
    e.add_argument("--a", type=float, default=2.0, help="first argument")
    e.add_argument("--b", type=float, default=1.0, help="second argument")
    _add_example(e, _example_young, "tol")

    p = sub.add_parser("rockafellar", help="tabulate a chain antiderivative")
    p.add_argument("pairs", help="JSON file with a 'pairs' array of [x, y] rows")
    p.add_argument("--cost", default="c1",
                   help="c1, c2, or a pairwise-cost JSON file path")
    p.add_argument("--base", default=None,
                   help="base point as comma-separated floats (default: first x)")
    p.add_argument("--grid", default=None, metavar="lo:hi:step",
                   help="scalar evaluation grid (default: the pair sources)")
    _add_options(p, cmd_rockafellar, "tol")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:  # refused under the usage of the outermost parser that left one
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ParseError, InputValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_VIOLATION
    except MonosplitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
