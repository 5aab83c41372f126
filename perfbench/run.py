"""End-to-end and per-layer benchmark of the `defectbethe` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload amp-sweep --seed 1 --seconds 30 --trace 0

A closed loop with one client: the workload's invocations
(`python -m defectbethe ...` with src on PYTHONPATH) run one after another,
so at most one CLI process runs at a time.  Passes over the workload repeat
for about --seconds seconds; timings are medians over passes.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  wall_s       wall time of one pass
  cpu_s        user+sys CPU of the pass's child processes
  setup_s      median wall time of a fresh interpreter that imports
               defectbethe.cli, builds the parser and exits
  peak_rss_mb  largest child peak RSS in a pass
  pass_frac    invocations that passed over those attempted

--trace 1 alternates untraced passes with traced ones, where each
invocation runs under perfbench/tracer.py, and reports the per-layer
metrics: self time, calls and work counts per module and function, the
tracing overhead (traced minus untraced pass wall time), fail_frac,
err_miss_frac and the src/ line count.  The line count is informational:
per-layer metrics carry no regression bound.  Self time is a span's
duration minus the part its child spans cover.  Inside the CLI's thread
pool span durations include waiting for the interpreter lock and the
cores, so on amp-sweep the layer times add up to more than the wall time;
amplitudes.parallelism is that ratio for the amplitude routes.

An invocation fails when it exits non-zero, when a record says
`"passed": false`, or when its output fails the benchmark's check:
unparseable records, a crash, or, at the default seed, values that differ
from perfbench/reference/<workload>.json (amp values to 1e-8, sorted
eigenvalues to 1e-9 max|E|, every reference Bethe root set still found).
Only crashes and check failures make the result incorrect; a failure the
CLI reports itself is counted, not hidden.

    python3 perfbench/run.py --workload NAME --capture-reference

rewrites the reference file from the current code at the default seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
AMP_ATOL = 1e-8
EIG_RTOL = 1e-9
ROOT_ATOL = 1e-8

PRODUCT_ROUTE = {"amplitudes.kink_S_amplitude",
                 "amplitudes.transmission_amplitude",
                 "amplitudes.breather_S", "amplitudes.breather_T"}
INTEGRAL_ROUTE = {"amplitudes.kink_S_by_integral",
                  "amplitudes.transmission_by_integral",
                  "amplitudes.breather_S_by_integral",
                  "amplitudes.breather_T_by_integral"}
ROUTES = PRODUCT_ROUTE | INTEGRAL_ROUTE


def child_env():
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


# ---------------------------------------------------------------------------
# running invocations
# ---------------------------------------------------------------------------

def invoke(cmd):
    """Run cmd to completion; returns (wall, rusage, exit code, out, err)."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage, proc.returncode, out_path.read_bytes(),
            err_path.read_bytes())


class Invocation:
    """One finished CLI run and what the benchmark made of its output."""

    def __init__(self, argv, spans_path=None):
        self.argv = argv
        if spans_path is None:
            cmd = [sys.executable, "-m", "defectbethe", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                   *argv]
        (self.wall, usage, self.code, self.stdout,
         self.stderr) = invoke(cmd)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.spans = None
        if spans_path is not None and spans_path.exists():
            self.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        self.records, self.problems = parse_records(self)

    @property
    def failed(self):
        return (self.code != 0 or bool(self.problems) or any(
            r["params"].get("passed") is False for r in self.records))


def parse_records(inv):
    """(records, problems): problems make the output incorrect."""
    problems = []
    if inv.code not in (0, 1) or b"Traceback" in inv.stderr:
        tail = inv.stderr.decode(errors="replace").strip()[-300:]
        problems.append(f"crashed with exit {inv.code}: {tail}")
    records = []
    for line in inv.stdout.decode(errors="replace").splitlines():
        try:
            rec = json.loads(line)
            if not isinstance(rec.get("params"), dict):
                raise ValueError("record without params")
        except ValueError as exc:
            problems.append(f"bad record {line[:80]!r}: {exc}")
            continue
        records.append(rec)
    return records, problems


def run_pass(argvs, traced=False):
    return [Invocation(argv, WORK / "spans.json" if traced else None)
            for argv in argvs]


def timed_python(code, extra=()):
    wall, _, status, _, err = invoke([sys.executable, *extra, "-c", code])
    if status != 0:
        raise RuntimeError(f"python -c {code!r} exited {status}: "
                           f"{err.decode(errors='replace')[-500:]}")
    return wall, err


def measure_setup():
    """Median wall time of importing the CLI and building its parser."""
    code = "import defectbethe.cli as c; c.build_parser()"
    return statistics.median(timed_python(code)[0]
                             for _ in range(SETUP_REPEATS))


def measure_scipy_integrate_import():
    """Median cumulative scipy.integrate import time under the CLI import.

    Zero when importing defectbethe.cli no longer imports scipy.integrate.
    """
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        _, err = timed_python("import defectbethe.cli", ("-X", "importtime"))
        micros = 0
        for line in err.decode(errors="replace").splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.integrate":
                micros = int(parts[1])
        samples.append(micros * 1e-6)
    return statistics.median(samples)


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in SRC.rglob("*.py"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def err_misses(records):
    """(misses, points) over two-route amp points of one invocation.

    A miss is a point whose product_integral_gap exceeds err_product +
    err_integral: the reported error bars do not cover the route gap.
    """
    pending = {}
    misses = points = 0
    for rec in records:
        gap = rec.get("product_integral_gap")
        if gap is None:
            continue
        key = (rec["command"], rec["lambda"])
        if key in pending:
            points += 1
            misses += gap > pending.pop(key) + rec["err"]
        else:
            pending[key] = rec["err"]
    return misses, points


def reference_values(inv):
    """The values of inv that the reference pins, by command."""
    kind = inv.argv[:2]
    if inv.argv[0] == "amp":
        return {"amp": [[r["re"], r["im"]] for r in inv.records]}
    if kind == ["chain", "diagonalize"]:
        eigs = sorted((r["re"], r["im"]) for r in inv.records
                      if "index" in r["params"])
        return {"eigs": [list(e) for e in eigs]}
    if kind == ["chain", "bae"]:
        sets = defaultdict(list)
        for r in inv.records:
            sets[r["params"]["solution"]].append([r["re"], r["im"]])
        return {"roots": [sorted(s) for _, s in sorted(sets.items())]}
    return {}


def _max_gap(a, b):
    return max((abs(complex(*x) - complex(*y)) for x, y in zip(a, b)),
               default=0.0)


def _set_gap(a, b):
    """Hausdorff distance between two root sets, independent of order."""
    za, zb = [complex(*x) for x in a], [complex(*y) for y in b]
    return max([min(abs(x - y) for y in zb) for x in za]
               + [min(abs(x - y) for x in za) for y in zb], default=0.0)


def reference_problems(inv, ref):
    """Mismatches between inv's values and the reference entry."""
    got = reference_values(inv)
    if "amp" in ref:
        if len(got["amp"]) != len(ref["amp"]):
            return [f"{len(got['amp'])} amp records, "
                    f"reference has {len(ref['amp'])}"]
        gap = _max_gap(got["amp"], ref["amp"])
        if gap > AMP_ATOL:
            return [f"amp values differ from the reference by {gap:.3e}"]
    if "eigs" in ref:
        if len(got["eigs"]) != len(ref["eigs"]):
            return [f"{len(got['eigs'])} eigenvalues, "
                    f"reference has {len(ref['eigs'])}"]
        scale = max((abs(complex(*e)) for e in ref["eigs"]), default=1.0)
        gap = _max_gap(got["eigs"], ref["eigs"])
        if gap > EIG_RTOL * scale:
            return [f"eigenvalues differ from the reference by {gap:.3e}"]
    for roots in ref.get("roots", []):
        if not any(len(s) == len(roots) and _set_gap(s, roots) <= ROOT_ATOL
                   for s in got["roots"]):
            return [f"reference root set {roots} not found"]
    return []


def load_reference(workload, argvs):
    path = REFERENCE / f"{workload}.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    if [entry["argv"] for entry in ref] != argvs:
        raise RuntimeError(f"{path} was captured for other inputs")
    return ref


def check_pass(invocations, reference):
    for i, inv in enumerate(invocations):
        if reference is not None and not inv.problems:
            inv.problems.extend(reference_problems(inv, reference[i]))


def selfcheck():
    """The counting rules, on a small record set counted by hand."""
    def rec(method, lam, err, gap):
        return {"command": "amp kink", "params": {"method": method},
                "lambda": lam, "err": err, "product_integral_gap": gap}

    records = [rec("product", 0.0, 1e-12, 5e-12),
               rec("integral", 0.0, 1e-12, 5e-12),   # gap > 2e-12: miss
               rec("product", 0.5, 3e-12, 5e-12),
               rec("integral", 0.5, 3e-12, 5e-12),   # gap < 6e-12: covered
               rec("product", 1.0, 1e-13, 1e-12),
               rec("integral", 1.0, 1e-13, 1e-12)]   # gap > 2e-13: miss
    if err_misses(records) != (2, 3):
        raise RuntimeError(f"err_misses miscounts: {err_misses(records)}")

    class Fake(Invocation):
        def __init__(self, code, stdout, stderr=b""):
            self.code, self.stdout, self.stderr = code, stdout, stderr
            self.records, self.problems = parse_records(self)

    ok = json.dumps({"command": "c", "params": {"passed": True}}).encode()
    bad = json.dumps({"command": "c", "params": {"passed": False}}).encode()
    fakes = [Fake(0, ok + b"\n" + ok), Fake(1, b""), Fake(0, ok + b"\n" + bad),
             Fake(0, b"not json"), Fake(1, b"", b"Traceback (most recent")]
    failed = [f.failed for f in fakes]
    incorrect = [bool(f.problems) for f in fakes]
    if (failed != [False, True, True, True, True]
            or incorrect != [False, False, False, True, True]):
        raise RuntimeError(f"failure counting is off: {failed} {incorrect}")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(invocations):
    """Per-layer metrics of one traced pass, summed over its invocations."""
    m = defaultdict(float)
    for key in [f"{mod}.self_s" for mod in MODULES] + [
            "cli.import_s", "cli.startup_s", "amplitudes.points",
            "amplitudes.product_route_s", "amplitudes.integral_route_s",
            "lax_operators.two_site_operator.bytes"]:
        m[key] = 0.0
    calls, self_s, work, work_max, ok = (defaultdict(float) for _ in range(5))
    wall = 0.0
    for inv in invocations:
        wall += inv.wall
        doc = inv.spans
        if doc is None:
            continue
        m["cli.import_s"] += doc["t_imported"] - doc["t_start"]
        # interpreter start and exit, and writing the spans out
        m["cli.startup_s"] += inv.wall - (doc["t_end"] - doc["t_start"])
        names = {s[0]: s[1] for s in doc["spans"]}
        children = defaultdict(list)
        for sid, _, start, end, parent, *_ in doc["spans"]:
            children[parent].append((start, end))
        for sid, name, start, end, parent, _, good, n in doc["spans"]:
            own = end - start - _covered(children[sid], start, end)
            calls[name] += 1
            self_s[name] += own
            work[name] += n
            work_max[name] = max(work_max[name], n)
            ok[name] += good
            if name != "cli.eigvals":
                m[name.split(".")[0] + ".self_s"] += own
            if name == "lax_operators.two_site_operator":
                # computed, not measured: one dense complex128 D x D result
                m[f"{name}.bytes"] += 16 * n * n
            if name in ROUTES and names.get(parent) not in ROUTES:
                key = "product" if name in PRODUCT_ROUTE else "integral"
                m[f"amplitudes.{key}_route_s"] += end - start
                m["amplitudes.points"] += 1

    for fn, counter in (("special_functions.log_gamma", "points"),
                        ("special_functions.gamma_product", "terms"),
                        ("special_functions.fourier_sine_integral", "neval")):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.{counter}"] = work[fn]
        m[f"{fn}.self_s"] = self_s[fn]
    two_site = "lax_operators.two_site_operator"
    m[f"{two_site}.calls"] = calls[two_site]
    m[f"{two_site}.self_s"] = self_s[two_site]
    m[f"{two_site}.max_dim"] = work_max[two_site]
    for fn in ("spin_chain.hamiltonian", "spin_chain.solve_bae",
               "spin_algebra.build_rep"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = self_s[fn]
    bae = "spin_chain.solve_bae"
    m[f"{bae}.ok_ratio"] = ok[bae] / calls[bae] if calls[bae] else 0.0
    m["cli.eigvals_s"] = self_s["cli.eigvals"]
    m["cli.emit_s"] = self_s["cli.emit"]
    m["cli.records"] = calls["cli.emit"]
    m["amplitudes.parallelism"] = (m["amplitudes.product_route_s"]
                                   + m["amplitudes.integral_route_s"]) / wall
    m["trace.wall_s"] = wall
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def summarize(passes):
    """(attempted, failed, incorrect problems) over all passes."""
    flat = [inv for p in passes for inv in p]
    problems = [f"{' '.join(inv.argv)}: {msg}" for inv in flat
                for msg in inv.problems]
    return len(flat), sum(inv.failed for inv in flat), problems


def repeat(seconds, run_once):
    """Call run_once until the next call would end after `seconds`."""
    start = time.perf_counter()
    results = [run_once()]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results
        results.append(run_once())


def end_to_end(argvs, reference, seconds):
    setup_s = measure_setup()

    def one_pass():
        invs = run_pass(argvs)
        check_pass(invs, reference)
        return invs

    passes = repeat(seconds, one_pass)
    attempted, failed, problems = summarize(passes)
    metrics = {
        "wall_s": statistics.median(sum(i.wall for i in p) for p in passes),
        "cpu_s": statistics.median(sum(i.cpu for i in p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(i.rss_mb for i in p)
                                         for p in passes),
        "pass_frac": (attempted - failed) / attempted,
    }
    return passes, metrics, attempted, failed, problems


def per_layer(argvs, reference, seconds):
    scipy_s = measure_scipy_integrate_import()

    def one_pair():
        plain = run_pass(argvs)
        traced = run_pass(argvs, traced=True)
        check_pass(plain, reference)
        check_pass(traced, reference)
        for a, b in zip(plain, traced):
            if a.stdout != b.stdout:
                b.problems.append("traced records differ from untraced")
        return plain, traced

    pairs = repeat(seconds, one_pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    attempted, failed, problems = summarize(plain + traced)
    layers = [layer_metrics(t) for t in traced]
    metrics = {name: statistics.median(lm[name] for lm in layers)
               for name in layers[0]}
    untraced_wall = statistics.median(sum(i.wall for i in p) for p in plain)
    metrics["trace.overhead_s"] = metrics.pop("trace.wall_s") - untraced_wall
    metrics["cli.import_scipy_integrate_s"] = scipy_s
    return plain, metrics, attempted, failed, problems


def informational(passes):
    """Counts shown with every run; gated nowhere, so fixes can add lines."""
    flat = [inv for p in passes for inv in p]
    misses = [err_misses(inv.records) for inv in flat]
    points = sum(n for _, n in misses)
    return {
        "fail_frac": sum(inv.failed for inv in flat) / len(flat),
        "err_miss_frac": (sum(k for k, _ in misses) / points
                          if points else 0.0),
        "src_lines": src_lines(),
    }


def _round(value):
    """12 significant digits: well inside every reference tolerance."""
    if isinstance(value, list):
        return [_round(v) for v in value]
    return float(f"{value:.12g}")


def capture_reference(workload):
    argvs = workloads.invocations(workload, workloads.DEFAULT_SEED)
    entries = []
    for inv in run_pass(argvs):
        if inv.problems:
            raise RuntimeError(f"{inv.argv}: {inv.problems}")
        values = {key: _round(vals)
                  for key, vals in reference_values(inv).items()}
        entries.append({"argv": inv.argv, **values})
        print(f"exit {inv.code} {len(inv.records):5d} records "
              f"{' '.join(inv.argv)}")
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload}.json"
    path.write_text(json.dumps(entries, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--capture-reference", action="store_true")
    args = ap.parse_args()

    if not (SRC / "defectbethe" / "cli.py").is_file():
        sys.exit(f"no defectbethe sources under {SRC}")
    selfcheck()
    if args.capture_reference:
        capture_reference(args.workload)
        return

    argvs = workloads.invocations(args.workload, args.seed)
    reference = (load_reference(args.workload, argvs)
                 if args.seed == workloads.DEFAULT_SEED else None)
    measure = per_layer if args.trace else end_to_end
    passes, values, attempted, failed, problems = measure(
        argvs, reference, args.seconds)

    for msg in problems:
        print(f"INCORRECT {msg}", file=sys.stderr)
    walls = " ".join(f"{sum(i.wall for i in p):.3f}" for p in passes)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"invocations={len(argvs)} attempted={attempted} failed={failed} "
          f"untraced pass walls [s]: {walls}")
    for inv in passes[0]:
        if inv.failed:
            print(f"  failed (exit {inv.code}): {' '.join(inv.argv)}")
    info = informational(passes)
    if args.trace:
        values.update(info)
    else:
        for name, value in info.items():
            print(f"  {name:<48} {value:14.6g} (informational)")
    metrics = {}
    for spec in declared_metrics(args.trace):
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<48} {value:14.6g} {spec['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
