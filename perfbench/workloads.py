"""The benchmark's workloads: lists of `defectbethe` argv, generated from a seed.

Each workload stresses different layers of the package:

amp-sweep     eight long `amp ... --method both` rapidity sweeps.  Nearly all
              compute is in special_functions and amplitudes (product ladder
              and quadrature); no chain work.  The only workload that runs
              the CLI's thread pool and has two-route points.
chain-dense   four `chain diagonalize` runs at N=8-9.  Time goes to the dense
              Hamiltonian build (lax_operators embedding, np.linalg.inv) and
              LAPACK eigvals; sets peak memory; no special_functions calls.
verify-suite  28 short invocations (verify pairs, identities, Bethe roots).
              Startup dominates, so import changes show here most; small
              lax_operators spaces; the only Newton-solver workload.

The seed moves the inputs, never the set of cases: sweep start offsets,
the chain defect rapidity --theta, and the --seed given to verify, identity
and bae runs.  The CLI sees only the generated argv.
"""

import math
import random

DEFAULT_SEED = 0
SWEEP_POINTS = 400

_MU4 = repr(math.pi / 4.0)   # nu = 4
_MU16 = repr(math.pi / 1.6)  # nu = 1.6
_REP4 = ["--model", "xxz", "--mu", _MU4, "--regime", "repulsive"]
_ATT4 = ["--model", "xxz", "--mu", _MU4, "--regime", "attractive"]
_REP16 = ["--model", "xxz", "--mu", _MU16, "--regime", "repulsive"]
_ATT16 = ["--model", "xxz", "--mu", _MU16, "--regime", "attractive"]

AMP_SWEEPS = [
    ["transmission", "--model", "xxx", "--spin", "0.5"],
    ["transmission", *_REP4, "--spin", "1"],
    ["transmission", *_ATT4, "--spin", "1"],
    ["transmission", *_REP16, "--spin", "0.5"],
    ["transmission", *_ATT16, "--spin", "0.5"],
    ["kink", *_REP4],
    ["kink", *_ATT16],
    ["breather-t", *_ATT4, "--spin", "1"],
]

# 1536 + 1024 + 768 + 768 eigenvalues, plus one hermiticity record each
CHAIN_RUNS = [
    ["--N", "9", "--spin", "1"],
    ["--N", "9", "--spin", "0.5", "--model", "xxz", "--mu", "0.7"],
    ["--N", "8", "--spin", "1", "--model", "xxz", "--mu", "0.7"],
    ["--N", "8", "--spin", "1", "--defect-site", "4"],
]

# the (check, model) pairs of scripts/run_verification_suite.py
_VERIFY_MODELS = {
    "rational": ["--model", "xxx"],
    "trig": ["--model", "xxz", "--mu", "0.3"],
    "repulsive": _REP4,
    "attractive": _ATT4,
}
_ALL_CHECKS = ["ybe", "rll", "rtt", "unitarity", "crossing", "casimir",
               "defect-spectrum"]
_VERIFY_CHECKS = {
    "rational": _ALL_CHECKS,
    "trig": ["ybe", "rll", "casimir", "defect-spectrum"],
    "repulsive": _ALL_CHECKS,
    "attractive": ["ybe", "rll", "unitarity"],
}
_VERIFY_SPINS = {
    ("attractive", "rll"): ["1.0"],
    ("attractive", "unitarity"): ["0.5", "1.0"],
    ("repulsive", "rll"): ["0.5", "1.0", "1.5"],
    ("repulsive", "rtt"): ["1.0"],
    ("repulsive", "unitarity"): ["0.5", "1.0", "1.5"],
    ("repulsive", "crossing"): ["0.5", "1.0", "1.5"],
    ("repulsive", "casimir"): ["0.5", "1.0", "1.5"],
    ("repulsive", "defect-spectrum"): ["0.5", "1.0", "1.5"],
}

# Bethe-root cases with M = 2-4.  The N=8, S=1/2, M=4 case finds no root
# set for almost every --seed: a known solver defect that stays visible.
BAE_CASES = [
    ["--N", "6", "--spin", "0.5", "--magnons", "2"],
    ["--N", "8", "--spin", "1", "--magnons", "3"],
    ["--N", "6", "--spin", "1", "--magnons", "2", "--model", "xxz",
     "--mu", "0.7", "--theta", "0.2"],
    ["--N", "7", "--spin", "0.5", "--magnons", "3", "--model", "xxz",
     "--mu", "0.7"],
    ["--N", "8", "--spin", "0.5", "--magnons", "4"],
]


def _amp_sweep(rng):
    out = []
    for spec in AMP_SWEEPS:
        shift = round(rng.uniform(0.0, 0.25), 6)
        sweep = f"--sweep={-3.0 + shift!r}:{3.0 + shift!r}:{SWEEP_POINTS}"
        out.append(["amp", *spec, "--method", "both", sweep])
    return out


def _chain_dense(rng):
    return [["chain", "diagonalize", *spec,
             "--theta", repr(round(rng.uniform(0.05, 0.45), 6))]
            for spec in CHAIN_RUNS]


def _verify_suite(rng):
    def seed():
        return ["--seed", str(rng.randrange(10 ** 6))]

    out = []
    for model, checks in _VERIFY_CHECKS.items():
        for check in checks:
            spins = [a for s in _VERIFY_SPINS.get((model, check), [])
                     for a in ("--spin", s)]
            out.append(["verify", check, *_VERIFY_MODELS[model], *spins,
                        *seed()])
    out.append(["identity", "use1", *seed()])
    out.append(["identity", "use2", *seed()])
    out.extend(["chain", "bae", *case, *seed()] for case in BAE_CASES)
    return out


WORKLOADS = {
    "amp-sweep": _amp_sweep,
    "chain-dense": _chain_dense,
    "verify-suite": _verify_suite,
}


def invocations(workload, seed):
    """The workload's argv lists for this seed; same seed, same argv."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
