"""fedsel benchmark: one command, two workloads, end-to-end or layer-traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The package is imported from ``src`` (as the
test suite does), so nothing needs installing. One caller runs units of work
back to back (a closed loop): one untimed warm-up unit, then timed units until
the next one would end past ``--seconds``. Each part of a unit runs right
after the fixed reference kernel of ``reference.py``, and a unit's wall time
is reported as a multiple of the kernel's in the same unit, so that the
host's own speed drift cancels out. Timed metrics are medians over the
units that ran while the host stole under 10% of CPU time (read from
``/proc/stat``), or over all units when fewer than two did. Every unit's
output is checked and must be byte-identical to the warm-up's. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` spends half the time untraced and half traced, and reports the
per-layer metrics (see ``tracing.py``); it also writes the last traced unit's
spans to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference as speed_reference

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 10
# A unit during which the host stole this share of CPU time or more is left
# out of the medians, as long as at least two quieter units remain.
QUIET_STEAL_PERCENT = 10.0

END_TO_END = {"wall_rel": "ratio", "peak_rss_mb": "MiB", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh interpreter that sets up and reports when ready
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_ticks() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_percent(before, after) -> float | None:
    """Host steal time as a share of all CPU time between two /proc/stat reads."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return 100.0 * delta[7] / total if total > 0 else None


class Unit:
    def __init__(self, wall, cpu, ref_wall, steal, digest, failures):
        self.wall = wall
        self.cpu = cpu
        self.ref_wall = ref_wall
        self.steal = steal
        self.digest = digest
        self.failures = failures
        self.layers = None


def quiet(units: list[Unit]) -> list[Unit]:
    """The units that ran with host steal under QUIET_STEAL_PERCENT, or all of
    them when fewer than two did (or /proc/stat is unreadable)."""
    calm = [u for u in units if u.steal is not None and u.steal < QUIET_STEAL_PERCENT]
    return calm if len(calm) >= min(2, len(units)) else units


def run_unit(workload, inputs, expected: str | None, tracer=None) -> Unit:
    """Run, time and check one unit: each of its parts, each right after a
    run of the reference kernel, so that the two sample the same stretch of
    host speed. With a tracer, only the parts record."""
    wall = cpu = ref_wall = 0.0
    output = []
    ticks0 = cpu_ticks()
    try:
        for part in workload.parts(inputs):
            ref_wall += speed_reference.run()
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.recording = True
            try:
                output.append(part())
            finally:
                wall += time.perf_counter() - t0
                cpu += cpu_seconds() - cpu0
                if tracer is not None:
                    tracer.recording = False
    except Exception as exc:  # a unit that raises is counted failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        steal = steal_percent(ticks0, cpu_ticks())
        return Unit(wall, cpu, ref_wall, steal, None, [f"raised {type(exc).__name__}"])
    steal = steal_percent(ticks0, cpu_ticks())
    digest = workload.digest(output)
    failures = workload.check(inputs, output)
    if expected is not None and digest != expected:
        failures.append("byte_identical_repeats")
    return Unit(wall, cpu, ref_wall, steal, digest, failures)


def timed_units(workload, inputs, expected, budget: float) -> list[Unit]:
    """Closed loop: run units back to back until the next one, if it took as
    long as the last, would end past the budget. At least one unit runs."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(workload, inputs, expected))
        last = units[-1]
        if time.perf_counter() - start + last.wall + last.ref_wall > budget:
            return units


def wall_ratio(units: list[Unit]) -> float:
    """Median over units of the unit's wall time over the reference kernel's
    wall time in the same unit."""
    return statistics.median(u.wall / u.ref_wall for u in units)


def traced_units(workload, seed: int, expected, budget: float):
    """Like timed_units, with every wrapper installed. Each unit sets up again
    under the tracer, so dataset generation is traced too. Returns the units
    and the last unit's spans."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    units = []
    start = time.perf_counter()
    try:
        while True:
            tracer.spans = []
            tracer.recording = True
            try:
                inputs = workload.setup(seed)
            finally:
                tracer.recording = False
            unit = run_unit(workload, inputs, expected, tracer)
            unit.layers = layer_metrics(tracer.spans)
            units.append(unit)
            if time.perf_counter() - start + unit.wall + unit.ref_wall > budget:
                return units, tracer.spans
    finally:
        tracer.uninstall()


def setup_seconds(workload_name: str, seed: int) -> list[float]:
    """Interpreter start to ready-for-the-first-unit, in fresh processes:
    imports, config assembly and dataset generation. The first probe warms
    the bytecode and file caches and is not counted."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
        "--seed", str(seed), "--seconds", "1", "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {code}")
        times.append(t1 - t0)
    return times[1:]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedsel" / "__init__.py").is_file():
        print(f"bench: package source not found at {SRC}/fedsel", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    ticks0 = cpu_ticks()
    inputs = workload.setup(args.seed)
    warm = run_unit(workload, inputs, None)
    units = [warm]
    if args.trace == 0:
        timed = timed_units(workload, inputs, warm.digest, args.seconds)
        units += timed
        rss = peak_rss_mb()
        setups = setup_seconds(args.workload, args.seed)
        used = quiet(timed)
        metrics = {
            "wall_rel": wall_ratio(used),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setups),
        }
        units_note = f"{len(timed)} timed units ({len(used)} used), {len(setups)} set-up probes"
        report = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
        raw_note = (
            f"  as measured: unit wall {statistics.median(u.wall for u in used):.4f} s, "
            f"cpu {statistics.median(u.cpu for u in used):.4f} s; reference kernel wall "
            f"{statistics.median(u.ref_wall for u in used):.4f} s (medians)")
    else:
        from tracing import LAYER_METRICS, spans_to_json

        plain = timed_units(workload, inputs, warm.digest, args.seconds / 2)
        traced, spans = traced_units(workload, args.seed, warm.digest, args.seconds / 2)
        units += plain + traced
        plain_used, traced_used = quiet(plain), quiet(traced)
        layers = {
            name: statistics.median(u.layers[name] for u in traced_used)
            for name in LAYER_METRICS if not name.startswith("bench.")
        }
        layers["bench.trace_overhead_s"] = (
            statistics.median(u.wall for u in traced_used)
            - statistics.median(u.wall for u in plain_used)
        )
        layers["bench.wall_s"] = statistics.median(u.wall for u in plain_used)
        layers["bench.cpu_s"] = statistics.median(u.cpu for u in plain_used)
        layers["bench.reference_wall_s"] = statistics.median(u.ref_wall for u in plain_used)
        raw_note = None
        units_note = (f"{len(plain)} untraced ({len(plain_used)} used) and "
                      f"{len(traced)} traced units ({len(traced_used)} used)")
        report = {name: (layers[name], unit) for name, unit in LAYER_METRICS.items()}
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"{args.workload}-seed{args.seed}.spans.json"
        out.write_text(json.dumps(spans_to_json(spans)) + "\n", encoding="utf-8")
    steal = steal_percent(ticks0, cpu_ticks())

    failed = [u for u in units if u.failures]
    for i, u in enumerate(units):
        for f in u.failures:
            print(f"bench: {args.workload} unit {i} failed check: {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: 1 warm-up unit, {units_note}; "
          f"{len(failed)} of {len(units)} units failed")
    for name, (value, unit) in report.items():
        print(f"  {name} = {value:.6g} {unit}")
    if raw_note:
        print(raw_note)
    print("  unit wall times (s): " + " ".join(f"{u.wall:.3f}" for u in units))
    print("  reference kernel wall times (s): " + " ".join(f"{u.ref_wall:.3f}" for u in units))
    print("  unit host steal (%): " + " ".join(
        f"{u.steal:.1f}" if u.steal is not None else "n/a" for u in units))
    print("  host steal = " + (f"{steal:.2f}% of CPU time (/proc/stat)" if steal is not None
                               else "unavailable"))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
