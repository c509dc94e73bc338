"""Benchmark of the posetsi CLI: end-to-end latency of fixed query lists,
and a traced run that splits the time by module.

    python3 bench/run.py --workload {large_dp,sweep,structure} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Each query runs in a fresh interpreter, one at a time, as a CLI user runs
it; a query's in-process caches (``generate._classes``, ``Poset._canon``)
therefore start cold. Every answer is checked. The benchmark and its
queries share one CPU core. With ``--trace 0`` the end-to-end times are
in reference seconds: while a query runs, a thread of the benchmark
(``Probe``) runs a fixed unit of work over and over on the same core, so
the two get slices of the same core at the same moments, and a host that
runs all code slower for a while slows both alike. A query's time is its
time on the core (the wall time of its run less the probe's CPU time, or
its CPU time) scaled by ``PROBE_REF_S`` over the probe's CPU seconds per
unit. The queries are single-threaded and CPU-bound; a wait of theirs is
filled by the probe and so not counted. The workload's query list is
repeated for about S seconds, and each query counts with the median of
its runs (see ``timed``); ``setup_s`` is the median time of ``posetsi
count chain:1``, sampled before the first pass and after every pass.
With ``--trace 1`` no probe runs and times are measured seconds: the list
runs once plainly and once with spans around every call into a posetsi
module (see ``spans.py``), and the per-layer metrics are printed.
``--smoke`` shrinks every query, for a quick check of the benchmark
itself. The last line of standard output is the result as JSON; the line
before it gives the machine, the inputs and the samples behind it.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

from workloads import WORKLOADS, ideal_sizes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
QUERY = os.path.join(HERE, "query.py")

RUN_DEADLINE_S = 165  # a run ends well within 180 s, even if queries hang
QUERY_TIMEOUT_S = 90
SETUP_FIRST = 5  # set-up samples before the first pass; one follows each pass
SETUP_QUERY = ("cli", "count", "chain:1", "--json")
PROBE_N = 11  # a probe unit walks the 2**PROBE_N down-sets of an antichain
PROBE_MIN_UNITS = 3
PROBE_REF_S = 0.004  # a reference second is a second on a core where one unit takes this long
LAYERS = ("poset", "textio", "canon", "generate", "linext", "domino", "h2", "ruskey", "euler", "cli")

DP = ("linext.count_extensions", "linext.signed_count", "linext.count_mod")
SMALL_DP = ("linext.count_extensions", "linext.count_mod")
ENUM = ("linext.enumerate_extensions", "linext.at_least_k", "linext.sign", "linext._extension_orders")
CENSUS = ("h2.count_f", "h2.count_f_q", "h2.odd_e_bounds", "h2.spectrum")


class Outcome(NamedTuple):
    wall: float  # seconds on the core, from spawn to reaping
    cpu: float  # user + system seconds of the child
    scale: float  # reference seconds per second of the core, 1 without a probe
    failure: str | None
    out: str


def probe_unit() -> None:
    """A fixed piece of pure-Python work of the program's kind: a dict of
    bit-mask keys, grown layer by layer as in the down-set DP of ``linext``."""
    layer = {0: 1}
    for _ in range(PROBE_N):
        nxt: dict[int, int] = {}
        for mask, count in layer.items():
            for x in range(PROBE_N):
                bit = 1 << x
                if not mask & bit:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + count
        layer = nxt


class Probe:
    """Runs probe units in a thread until ``finish``, at least
    ``PROBE_MIN_UNITS`` of them, and times them in thread CPU seconds."""

    def __init__(self):
        self.stop = threading.Event()
        self.units = 0
        self.thread = threading.Thread(target=self._spin)
        self.thread.start()

    def _spin(self) -> None:
        start = time.perf_counter()
        first = last = time.thread_time()
        while not self.stop.is_set() or self.units < PROBE_MIN_UNITS:
            probe_unit()
            self.units += 1
            last = time.thread_time()
        self.span = time.perf_counter() - start
        self.cpu = time.thread_time() - first
        self.unit_cpu = (last - first) / self.units

    def finish(self) -> tuple[float, float]:
        """Seconds the core gave to other work while the probe ran, and
        reference seconds per second of the core."""
        self.stop.set()
        self.thread.join()
        return self.span - self.cpu, PROBE_REF_S / self.unit_cpu


def spawn(argv: list[str], timeout: float) -> tuple[float, float, float, int | None, str, str]:
    """Run one child with both pipes drained as it writes, so a large
    output cannot block it. Returns wall s, cpu s, peak RSS MiB, exit code
    (None after a timeout kill), stdout and stderr."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[str, bytes] = {}

    def drain(name, stream):
        chunks[name] = stream.read()

    readers = [threading.Thread(target=drain, args=item) for item in (("out", proc.stdout), ("err", proc.stderr))]
    for reader in readers:
        reader.start()
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    rc = None if killed.is_set() else proc.returncode
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, rc,
            chunks["out"].decode(errors="replace"), chunks["err"].decode(errors="replace"))


class Runner:
    """Runs queries one at a time before a fixed deadline, counting
    failures; with ``probed``, each beside a probe."""

    def __init__(self, deadline: float, probed: bool):
        self.deadline = deadline
        self.probed = probed
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.probe_unit_s: list[float] = []

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, name: str, argv: list[str], check) -> Outcome:
        self.attempted += 1
        timeout = min(QUERY_TIMEOUT_S, max(self.left(), 0.1))
        probe = Probe() if self.probed else None
        wall, cpu, rss, rc, out, err = spawn([sys.executable, *argv], timeout)
        scale = 1.0
        if probe:
            wall, scale = probe.finish()
            self.probe_unit_s.append(PROBE_REF_S / scale)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if rc is None:
            failure = f"timed out after {timeout:.0f} s"
        elif rc != 0:
            failure = f"exit {rc}: {err.strip()[-300:]}"
        else:
            try:
                failure = check(out)
            except Exception as exc:  # unreadable output is a wrong answer
                failure = f"unreadable output ({exc!r}): {out[-200:]!r}"
        if failure:
            self.failures.append(f"{name}: {failure}")
        return Outcome(wall, cpu, scale, failure, out)

    def query(self, q, traced: bool = False) -> Outcome:
        if not traced:
            return self.run(q.name, [QUERY, q.kind, *q.args], q.check)

        def check(out: str) -> str | None:
            report = json.loads(out)
            return (f"exit {report['rc']}" if report["rc"] != 0 else None) or q.check(report["stdout"])

        return self.run(f"{q.name} (traced)", [QUERY, "--trace", q.kind, *q.args], check)

    def time_setup(self, samples: list[Outcome], count: int) -> None:
        """Add ``count`` runs of a query that does no work: the cost of
        interpreter start, import and argument parsing."""
        for _ in range(count):
            samples.append(self.run("setup", [QUERY, *SETUP_QUERY], _is_one))


def _is_one(out: str) -> str | None:
    return None if json.loads(out) == {"e": "1"} else f"output {out!r}"


def run_list(runner: Runner, queries, traced: bool = False) -> tuple[float, list[Outcome]]:
    """One pass over the list; queries left at the deadline count as failed."""
    start = time.perf_counter()
    outcomes = []
    for q in queries:
        if runner.left() > 0:
            outcomes.append(runner.query(q, traced))
        else:
            runner.attempted += 1
            runner.failures.append(f"{q.name}: not started before the deadline")
    return time.perf_counter() - start, outcomes


def _ref(o: Outcome) -> float:
    return o.wall * o.scale


def timed(runner: Runner, queries, seconds: float, setup: list[Outcome]) -> tuple[dict, dict]:
    """Repeat the list while another repetition fits in ``seconds``.

    Each query counts with the median of its runs in reference seconds:
    ``wall_s`` is the sum of those medians, ``cpu_s`` the sum of the
    queries' median CPU times, scaled alike, and ``slowest_query_s`` the
    largest median.
    """
    runs: dict[str, list[Outcome]] = {q.name: [] for q in queries}
    walls = []
    start = time.perf_counter()
    while True:
        wall, outcomes = run_list(runner, queries)
        runner.time_setup(setup, 1)
        for q, o in zip(queries, outcomes):
            runs[q.name].append(o)
        walls.append(wall)
        if len(outcomes) < len(queries) or time.perf_counter() - start + max(walls) > seconds:
            break
    medians = [statistics.median(_ref(o) for o in done) for done in runs.values() if done]
    metrics = {
        "wall_s": (sum(medians), "s"),
        "cpu_s": (sum(statistics.median(o.cpu * o.scale for o in done) for done in runs.values() if done), "s"),
        "slowest_query_s": (max(medians), "s"),
        "setup_s": (statistics.median(_ref(o) for o in setup), "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MiB"),
        "ok_ratio": (1 - len(runner.failures) / runner.attempted, "ratio"),
    }
    return metrics, {
        "repetitions": len(walls),
        "list_wall_s": walls,
        "query_wall_s": {name: [o.wall for o in done] for name, done in runs.items()},
        "query_ref_s": {name: [_ref(o) for o in done] for name, done in runs.items()},
    }


def _sum(totals: dict, keys, field: int) -> float:
    return float(sum(totals[k][field] for k in keys if k in totals))


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def traced(runner: Runner, queries, setup: list[Outcome]) -> tuple[dict, dict]:
    """One plain pass for the baseline, then one traced pass."""
    wall, plain = run_list(runner, queries)
    runner.time_setup(setup, 1)
    _, outcomes = run_list(runner, queries, traced=True)
    reports = [(q, json.loads(o.out)) for q, o in zip(queries, outcomes) if o.failure is None]
    totals: dict[str, list] = {}
    for _, r in reports:
        for key, t in r["spans"].items():
            acc = totals.setdefault(key, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += t[i]

    def layer_self(layer):
        return float(sum(t[2] for k, t in totals.items() if k.partition(".")[0] == layer))

    # down-set lattices are walked here, outside every span
    ideals = dp_s = width = 0
    for q, r in reports:
        if q.order is not None:
            sizes = ideal_sizes(*q.order)
            ideals += sum(sizes)
            width = max(width, max(sizes))
            dp_s += _sum(r["spans"], DP, 2)
    enum_s = _sum(totals, ENUM, 2)
    build_s = _sum(totals, ["ruskey.build_graph"], 2)
    euler_s = _sum(totals, ["euler.primes_never_dividing"], 1)
    canon_forms = sum(r["extra"].get("canon_forms", 0) for _, r in reports)
    canon_s = sum(r["extra"].get("canon_s", 0.0) for _, r in reports)
    traced_total = sum(r["elapsed_s"] for _, r in reports)
    setup_s = statistics.median(o.wall for o in setup)

    metrics = {f"{layer}.s": (layer_self(layer), "s") for layer in LAYERS}
    metrics.update({
        "linext.dp_s": (_sum(totals, DP, 2), "s"),
        "linext.ideals_per_s": (_rate(ideals, dp_s), "1/s"),
        "linext.peak_layer_width": (width, "count"),
        "linext.small_dp_us": (1e6 * _rate(_sum(totals, SMALL_DP, 1), _sum(totals, SMALL_DP, 0)), "us"),
        "linext.enum_s": (enum_s, "s"),
        "linext.extensions_per_s": (_rate(_sum(totals, ENUM, 3), enum_s), "1/s"),
        "generate.classes_per_s": (_rate(_sum(totals, ["generate.enumerate_posets"], 3), layer_self("generate")), "1/s"),
        "canon.forms_per_s": (_rate(canon_forms, canon_s), "1/s"),
        "euler.primes_per_s": (_rate(sum(q.primes for q, _ in reports), euler_s), "1/s"),
        "domino.tableaux_per_s": (_rate(_sum(totals, ["domino.enumerate_tableaux"], 3), layer_self("domino")), "1/s"),
        "h2.decide_s": (_sum(totals, ["h2.h2sb_decide"], 1), "s"),
        "h2.decompose_s": (_sum(totals, ["h2.decompose"], 1), "s"),
        "h2.census_s": (_sum(totals, CENSUS, 1), "s"),
        "ruskey.build_s": (build_s, "s"),
        "ruskey.edges_per_s": (_rate(_sum(totals, ["ruskey.build_graph"], 3), build_s), "1/s"),
        "ruskey.hampath_s": (_sum(totals, ["ruskey.hamiltonian_path"], 1), "s"),
        "textio.read_s": (_sum(totals, ["textio.read_poset", "textio.parse_family"], 1), "s"),
        "poset.closure_s": (_sum(totals, ["poset.from_covers"], 1), "s"),
        "trace.overhead_s": (traced_total - (wall - len(plain) * setup_s), "s"),
    })
    details = {
        "plain_wall_s": wall,
        "traced_s": traced_total,
        "spans": {k: t for k, t in sorted(totals.items(), key=lambda kv: -kv[1][2])},
        "ideals": ideals,
    }
    return metrics, details


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="shrink every query")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "posetsi", "cli.py")):
        print(f"no posetsi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    host = machine()
    if hasattr(os, "sched_setaffinity"):
        # the probe and the queries run on the same core, so a query that
        # starts processes of its own gets no second core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(time.perf_counter() + RUN_DEADLINE_S, probed=not args.trace)
    load_before = os.getloadavg()
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        queries, inputs = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        runner.time_setup([], 1)  # leaves the bytecode cache warm
        setup: list[Outcome] = []
        runner.time_setup(setup, SETUP_FIRST)
        if args.trace:
            metrics, details = traced(runner, queries, setup)
        else:
            metrics, details = timed(runner, queries, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "queries": [q.name for q in queries],
        "inputs": inputs,
        "setup_samples_s": [o.wall for o in setup],
        "setup_samples_ref_s": [_ref(o) for o in setup],
        "probe_unit_s": runner.probe_unit_s,
        **details,
        "failures": runner.failures,
        "machine": host,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    print(json.dumps(info))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
