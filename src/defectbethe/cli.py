"""Command-line front end.

Four families of subcommands: `verify` runs one-shot residual suites,
`amp` evaluates scattering and transmission amplitudes (with optional
product-vs-integral comparison), `chain` diagonalizes finite chains and
solves their Bethe equations, and `identity` reruns the two gamma
integral identities.  Records stream to stdout as JSON lines.

Each `amp` kind and each `chain` action has its own parser, built from
parent parsers (one per option group), holding only the options its code
reads; options follow the kind or action (`amp kink --lambda 0.3`).  A
record's params echo the parsed options.

Exit codes: 0 when every residual is inside tolerance, 1 when a check
fails numerically, 2 on usage or domain errors.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import amplitudes as amp
from . import lax_operators as lax
from . import physics_checks as checks
from . import special_functions as sf
from . import spin_chain
from .errors import (DefectBetheError, DimensionCapExceeded, NonConvergence,
                     NotRealizable, RootOfUnityError)
from .spin_algebra import (ATTRACTIVE, REPULSIVE, ModelParameters, build_rep)


def _json_default(obj):
    # numpy scalars leak into records from quadrature and linalg results
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return str(obj)


def _record(command, params, lam=None, value=None, err=None, residual=None,
            **extra):
    rec = {
        "command": command,
        "params": params,
        "lambda": lam,
        "re": None if value is None else float(np.real(value)),
        "im": None if value is None else float(np.imag(value)),
        "err": None if err is None else float(err),
        "residual": None if residual is None else float(residual),
    }
    rec.update(extra)
    return rec


class Emitter:
    """Writes each record as one JSON line to sys.stdout, looked up at each
    write.  A class, not a function, so that a tracer can wrap
    Emitter.emit in place and time every record written."""

    def emit(self, rec):
        sys.stdout.write(json.dumps(rec, sort_keys=True,
                                    default=_json_default) + "\n")
        sys.stdout.flush()


def _echo(args, *skip):
    """The parsed options, less fn, parser and those in skip."""
    return {k: v for k, v in vars(args).items()
            if k not in ("fn", "parser", *skip)}


def _tolerance(args, default):
    """--tol if given, else the record's own default."""
    return default if args.tol is None else args.tol


def _model(args):
    if args.model == "xxx":
        if args.regime is not None:
            raise DefectBetheError("the isotropic model has no regime")
        if args.mu is not None:
            raise DefectBetheError("the isotropic model has no --mu")
        return ModelParameters.xxx()
    if args.mu is None:
        raise DefectBetheError("--model xxz requires --mu")
    return ModelParameters.xxz(args.mu, args.regime)


def _parse_sweep(text):
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise DefectBetheError(f"bad --sweep {text!r}, want min:max:steps") \
            from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DefectBetheError(f"--sweep {text!r} needs finite endpoints")
    if steps < 1:
        raise DefectBetheError("--sweep needs at least one step")
    return np.linspace(lo, hi, steps)


def _rep_spin_list(args, params, base):
    """--spin as given, else spins 1/2 to 2 less those whose representation
    degenerates at this anisotropy; the dropped ones are named in base as
    skipped_spins.  An explicit --spin is never dropped."""
    if args.spin:
        return args.spin
    spins, skipped = [], []
    for spin in (0.5, 1.0, 1.5, 2.0):
        try:
            build_rep(spin, params)
        except RootOfUnityError:
            skipped.append(spin)
        else:
            spins.append(spin)
    if skipped:
        base["skipped_spins"] = skipped
    return spins


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, emitter):
    params = _model(args)
    rng = np.random.default_rng(args.seed)
    base = {"check": args.what,
            **_echo(args, "command", "what", "spin", "tol")}
    failed = False

    def report(residual, tol, **extra):
        """Emit one record: base, extra, tol and passed."""
        nonlocal failed
        ok = residual <= tol
        failed = failed or not ok
        p = {**base, **extra, "tol": tol, "passed": ok}
        emitter.emit(_record(f"verify {args.what}", p, residual=residual))

    if args.what == "ybe":
        tol = _tolerance(args, 1e-12)
        pairs = rng.uniform(-2.0, 2.0, size=(args.samples, 2))
        worst = max(lax.ybe_residual(params, l1, l2) for l1, l2 in pairs)
        report(worst, tol)
    elif args.what == "rll":
        tol = _tolerance(args, 1e-12)
        for spin in _rep_spin_list(args, params, base):
            rep = build_rep(spin, params)
            pairs = rng.uniform(-2.0, 2.0, size=(args.samples, 2))
            worst = max(lax.rll_residual(rep, l1, l2)
                        for l1, l2 in pairs)
            report(worst, tol, spin=spin)
    elif args.what == "rtt":
        tol = _tolerance(args, 1e-10)
        default = [1.0, 1.5] if params.is_rational else [1.0]
        for spin in args.spin or default:
            data = amp.DefectRegimeData.from_params(params, spin)
            pairs = rng.uniform(-1.5, 1.5, size=(args.samples, 2))
            worst = max(checks.rtt_residual(data, l1, l2)
                        for l1, l2 in pairs)
            report(worst, tol, spin=spin,
                   shifted_spin=data.shifted_spin)
    elif args.what in ("unitarity", "crossing"):
        tol = _tolerance(args, 1e-9)
        grid = np.linspace(0.15, 2.0, args.samples)
        matrix_fn = checks.matrix_unitarity_residual \
            if args.what == "unitarity" else checks.matrix_crossing_residual
        scalar_fn = checks.scalar_unitarity_residual \
            if args.what == "unitarity" else checks.scalar_crossing_residual
        for spin in args.spin or [0.5, 1.0, 1.5]:
            data = amp.DefectRegimeData.from_params(params, spin)
            worst = max(scalar_fn(data, x) for x in grid)
            realizable = data.shifted_spin >= 0.25
            if realizable:
                try:
                    amp.shifted_spin_rep(data)
                except (NotRealizable, DimensionCapExceeded):
                    realizable = False
            if realizable:
                tfn = functools.partial(amp.transmission_matrix, data)
                worst = max(worst, max(matrix_fn(tfn, x) for x in grid))
            report(worst, tol, spin=spin, matrix_checked=realizable)
    elif args.what == "casimir":
        tol = _tolerance(args, 1e-12)
        grid = np.linspace(0.0, 1.8, args.samples)
        for spin in _rep_spin_list(args, params, base):
            rep = build_rep(spin, params)
            worst = max(checks.m_matrix_casimir_identity(rep, x)
                        for x in grid)
            report(worst, tol, spin=spin)
    elif args.what == "defect-spectrum":
        for spin in _rep_spin_list(args, params, base):
            rep = build_rep(spin, params)
            residual, tol, details = checks.defect_spectrum_report(
                rep, 0.73, args.tol)
            report(residual, tol, **details)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# amp
# ---------------------------------------------------------------------------

def _product_route(args, subject, grid):
    """Product-route AmplitudeValues over the grid, of the model (kink,
    breather-s) or the defect's data (transmission, breather-t).  The Gamma
    ladders go through the engine in one batched pass; the breather
    closed forms are cheap products of hyperbolic ratios."""
    if args.kind == "kink":
        return amp.kink_S_amplitudes(subject, grid)
    if args.kind == "transmission":
        return amp.transmission_amplitudes(subject, grid - args.theta)
    if args.kind == "breather-s":
        vals = [amp.breather_S(subject, args.n1, args.n2, lam)
                for lam in grid]
    else:
        vals = [amp.breather_T(subject, args.n1, lam - args.theta)
                for lam in grid]
    return [sf.AmplitudeValue(val, err=1e-14 * abs(val), terms_used=0)
            for val in vals]


def _integral_point(args, subject, lam):
    """Integral-route AmplitudeValue at one rapidity (one quad call)."""
    if args.kind == "kink":
        return amp.kink_S_by_integral(subject, lam)
    if args.kind == "transmission":
        return amp.transmission_by_integral(subject, lam - args.theta)
    if args.kind == "breather-s":
        if (args.n1, args.n2) != (1, 1):
            raise DefectBetheError(
                "the integral route covers the lightest breather only "
                "(--n1 1 --n2 1)")
        return amp.breather_S_by_integral(subject, lam)
    if args.n1 != 1:
        raise DefectBetheError(
            "the integral route covers the lightest breather only "
            "(--n1 1)")
    return amp.breather_T_by_integral(subject, lam - args.theta)


def _cmd_amp(args, emitter):
    params = _model(args)
    tol = _tolerance(args, 1e-8)
    if args.kind.startswith("breather") and (
            params.is_rational or params.regime != ATTRACTIVE):
        raise DefectBetheError(
            "breathers exist in the attractive trigonometric regime "
            "only; pass --model xxz --regime attractive")
    base = _echo(args, "command", "lam", "sweep", "tol")
    subject = params
    if args.kind in ("transmission", "breather-t"):
        subject = amp.DefectRegimeData.from_params(params, args.spin)
        base["branch_index"] = subject.branch_index

    if args.sweep is not None:
        grid = _parse_sweep(args.sweep)
    else:
        grid = np.array([args.lam])

    prods = integs = [None] * len(grid)
    if args.method in ("product", "both"):
        prods = _product_route(args, subject, grid)
    if args.method in ("integral", "both"):
        integs = [_integral_point(args, subject, lam) for lam in grid]

    failed = False
    for lam, prod, integ in zip(grid, prods, integs):
        gap = None
        if prod is not None and integ is not None:
            gap = abs(prod.value - integ.value)
            failed = failed or gap > tol
        for label, av in (("product", prod), ("integral", integ)):
            if av is None:
                continue
            extra = {"terms_used": av.terms_used}
            if gap is not None:
                extra["product_integral_gap"] = float(gap)
            emitter.emit(_record(
                f"amp {args.kind}", {**base, "method": label},
                lam=float(lam), value=av.value, err=av.err, **extra))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

# random complex starting points _bae_solutions adds to its fixed grid
_SCATTER_SEEDS = 6


def _bae_solutions(chain, M, rng):
    """Scan deterministic and seeded starting points, dedupe solutions.

    Also returns what the solver reported on the seeds that failed: the
    number of seeds tried, failures per exception class and the smallest
    best_residual of a NonConvergence."""
    seeds = []
    for center in np.linspace(-1.2, 1.2, 7):
        seeds.append([center + 0.17 * k for k in range(M)])
        if M > 1:
            seeds.append(spin_chain.string_seed(center, M))
    for _ in range(_SCATTER_SEEDS):
        seeds.append((rng.uniform(-1.5, 1.5, M)
                      + 1j * rng.uniform(-0.6, 0.6, M)).tolist())
    seeds.extend(spin_chain.bethe_number_seeds(chain, M))
    found, failures, residuals = {}, {}, []
    for seed in seeds:
        try:
            state = spin_chain.solve_bae(chain, M, seeds=seed)
        except DefectBetheError as exc:
            name = type(exc).__name__
            failures[name] = failures.get(name, 0) + 1
            if isinstance(exc, NonConvergence) \
                    and exc.best_residual is not None:
                residuals.append(exc.best_residual)
            continue
        key = tuple((round(z.real, 8), round(z.imag, 8))
                    for z in state.roots)
        if key not in found:
            found[key] = state
    diagnostics = {"seeds_tried": len(seeds), "failures": failures,
                   "best_residual": min(residuals, default=None)}
    return [found[k] for k in sorted(found)], diagnostics


def _cmd_chain(args, emitter):
    params = _model(args)
    chain = spin_chain.ChainSpec(N=args.N, defect_spin=args.spin,
                                 params=params, theta=args.theta,
                                 defect_site=args.defect_site)
    base = {**_echo(args, "command", "action", "regime", "seed"),
            "defect_site": chain.defect_site}

    if args.action == "diagonalize":
        # H conserves total S^z (sector_blocks checks it), so its spectrum
        # is the union of the sector spectra; one block is held at a time
        evals, szs, sizes, herm = [], [], [], 0.0
        for sz, block in spin_chain.sector_blocks(chain):
            herm = max(herm, spin_chain.hermiticity_residual(block))
            evals.append(np.linalg.eigvals(block))
            szs.append(np.full(len(block), sz))
            sizes.append(len(block))
        evals, szs = np.concatenate(evals), np.concatenate(szs)
        order = np.argsort(evals.real, kind="stable")
        for idx, k in enumerate(order):
            emitter.emit(_record("chain diagonalize",
                                 {**base, "index": idx, "sz": szs[k]},
                                 value=evals[k]))
        emitter.emit(_record("chain diagonalize",
                             {**base, "part": "hermiticity",
                              "sectors": len(sizes),
                              "largest_sector": max(sizes)},
                             residual=herm))
        return 0

    # bae: solve_bae returns a root set only within its own tolerance
    rng = np.random.default_rng(args.seed)
    states, diagnostics = _bae_solutions(chain, args.magnons, rng)
    if not states:
        _write_error(args, "no Bethe root set found", **diagnostics)
        return 1
    for s_idx, state in enumerate(states):
        res = spin_chain.bae_residual(chain, state)
        for root in state.roots:
            emitter.emit(_record("chain bae", {**base, "solution": s_idx},
                                 value=root, residual=res))
    return 0


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def _cmd_identity(args, emitter):
    use1 = args.kind == "use1"
    tol = _tolerance(args, 1e-8 if use1 else 1e-6)
    residual = sf.identity_use1_residual if use1 \
        else sf.identity_use2_residual
    # each argument, in call order, is drawn uniformly from its range
    ranges = {"mu_param": (0.05, 9.95)} if use1 \
        else {"mu_param": (0.3, 4.5), "beta_param": (0.3, 2.5)}
    rng = np.random.default_rng(args.seed)
    failed = False
    for _ in range(args.samples or (20 if use1 else 10)):
        p = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in ranges.items()}
        res = residual(*p.values())
        failed = failed or res > tol
        emitter.emit(_record(f"identity {args.kind}",
                             {**p, "tol": tol, "passed": res <= tol},
                             residual=res))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _parse_number(kind, text):
    """kind(text), with plain argparse's message for text that is no number
    (argparse would name the type function instead of the type)."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}") from None


def _positive_int(text):
    value = _parse_number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text):
    value = _parse_number(float, text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _finite_nonnegative(text):
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _options(**options):
    """A parent parser with --name for each name=add_argument keywords."""
    parent = argparse.ArgumentParser(add_help=False)
    for name, kwargs in options.items():
        parent.add_argument("--" + name.replace("_", "-"), **kwargs)
    return parent


def build_parser():
    model = _options(model=dict(choices=["xxx", "xxz"], default="xxx"),
                     mu=dict(type=_finite_float,
                             help="anisotropy for --model xxz, in (0, pi)"))
    regime = _options(regime=dict(choices=[REPULSIVE, ATTRACTIVE]))
    defect = _options(spin=dict(type=_finite_float, default=0.5),
                      theta=dict(type=_finite_float, default=0.0))
    n1 = _options(n1=dict(type=int, default=1))
    n2 = _options(n2=dict(type=int, default=1))
    tol = _options(tol=dict(type=_finite_nonnegative, help="override the "
                            "default tolerance of every record"))
    seed = _options(seed=dict(type=int, default=0))

    parser = argparse.ArgumentParser(
        prog="defectbethe",
        description="Integrable spin chains with one transmitting defect: "
                    "verification suites, amplitudes, finite chains.")
    subs = parser.add_subparsers(dest="command", required=True)

    checks = _options()
    checks.add_argument("what", choices=["ybe", "rll", "rtt", "unitarity",
                                         "crossing", "casimir",
                                         "defect-spectrum"])
    checks.add_argument("--spin", type=_finite_float, action="append",
                        help="repeatable; defaults depend on the check")
    checks.add_argument("--samples", type=_positive_int, default=20)
    p_verify = subs.add_parser("verify", help="run a residual suite",
                               parents=[checks, model, regime, tol, seed])
    p_verify.set_defaults(fn=_cmd_verify, parser=p_verify)

    p_amp = subs.add_parser("amp", help="evaluate an amplitude")
    p_amp.set_defaults(fn=_cmd_amp)
    points = _options(method=dict(choices=["product", "integral", "both"],
                                  default="product"))
    where = points.add_mutually_exclusive_group(required=True)
    where.add_argument("--lambda", dest="lam", type=_finite_float)
    where.add_argument("--sweep", metavar="MIN:MAX:STEPS")
    kinds = p_amp.add_subparsers(dest="kind", required=True)
    for kind, own in [("kink", []), ("transmission", [defect]),
                      ("breather-s", [n1, n2]), ("breather-t", [defect, n1])]:
        leaf = kinds.add_parser(kind,
                                parents=[points, model, regime, tol, *own])
        leaf.set_defaults(parser=leaf)

    p_chain = subs.add_parser("chain", help="finite-chain computations")
    p_chain.set_defaults(fn=_cmd_chain, regime=None)  # takes no --regime
    sites = _options(N=dict(type=int, required=True,
                            help="number of bulk spin-1/2 sites"),
                     defect_site=dict(type=int))
    magnons = _options(magnons=dict(type=_positive_int, default=1))
    actions = p_chain.add_subparsers(dest="action", required=True)
    for action, own in [("diagonalize", []), ("bae", [magnons, seed])]:
        leaf = actions.add_parser(action, parents=[sites, defect, model, *own])
        leaf.set_defaults(parser=leaf)

    p_id = subs.add_parser("identity", help="gamma integral identities",
                           parents=[tol, seed])
    p_id.add_argument("kind", choices=["use1", "use2"])
    p_id.add_argument("--samples", type=_positive_int, default=None)
    p_id.set_defaults(fn=_cmd_identity, parser=p_id)

    return parser


def _write_error(args, message, **extra):
    """One JSON line on stderr: the command, the message, the arguments."""
    err = {"command": args.command, "error": message, "params": _echo(args)}
    err.update(extra)
    sys.stderr.write(json.dumps(err, default=str) + "\n")


def main(argv=None):
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # shown with the usage of the command that refused them
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.fn(args, Emitter())
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. piping into head);
        # point stdout at devnull so interpreter shutdown stays quiet
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout not a real fd (test capture); nothing to silence
        return 141
    except (DefectBetheError, ValueError, OSError) as exc:
        _write_error(args, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
