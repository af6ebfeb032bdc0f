"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload unrank --seed 1 --seconds 16 --trace 0

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run
(see ``tracing.py``).  The line before it is a JSON object of details: the
answer digest, the tail percentile and its sample count, and the checks.

A run is: import, then set-up three times (inputs, advice generation and
verification, one untimed warm-up operation per slice on inputs outside the
timed set), then the timed closed loop for ``--seconds``, then the output
checks and a small sweep against ``necklaces.oracle``, outside the timed
region.  ``setup_s`` is the import time plus the median set-up.

Every reported time is scaled to a nominal host speed.  On a shared 2-vCPU
Linux VM the speed of pure-Python code was seen to change by up to 1.6x for
seconds to minutes at a time, which swamps run-to-run comparisons of raw wall
time (run-to-run spreads of 0.15-0.3 against 0.02-0.08 scaled).  So a fixed
pure-Python kernel that uses nothing from the package is timed before and
after each measured interval, and the interval's wall time is multiplied by
``REFERENCE_S`` over the kernel's mean time around it.  The raw wall-time
figures are printed in the details line under ``wall``.

The digest covers the first ``digest_ops`` answers, which every run reaches,
traced or not.  It is recorded per (workload, seed) under ``.bench_state/``
in the checkout, and a run whose digest differs from the recorded one fails.
"""

import time

# The reference kernel's time on a host running at nominal speed; it only
# sets the scale of every reported time.
REFERENCE_S = 0.006


def reference_seconds():
    """Wall time of a fixed kernel that slows down with the host as the package does.

    It mixes dict updates on tuple keys with big-integer arithmetic, like the
    package's inner loops, and calls nothing from the package.
    """
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(4000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        acc = (acc * 1000003 + i) % (2**127 - 1)
    sorted(table.items())
    return time.perf_counter() - t0


class HostScale:
    """Scales wall times of consecutive intervals to the nominal host speed."""

    def __init__(self):
        self.ref = reference_seconds()
        self.factors = []

    def scale(self, wall):
        """wall: the interval that just ended, which began after the last call."""
        ref = reference_seconds()
        factor = (self.ref + ref) / (2 * REFERENCE_S)
        self.ref = ref
        self.factors.append(factor)
        return wall / factor


_HOST = HostScale()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 3
STATE_DIR = os.path.join(ROOT, ".bench_state")


class Inputs:
    """The seeded input stream of one run: round-robin slices, no repeats."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.seen = set()
        self.count = 0

    def next(self):
        wl = self.workload
        sl = wl.slices[self.count % len(wl.slices)]
        self.count += 1
        while True:
            item = wl.draw(self.rng, sl)
            key = wl.key(item)
            if key is None or key not in self.seen:
                self.seen.add(key)
                return item


class Log:
    """Inputs, results and latencies of the operations of one run.

    With a HostScale, `latencies` are scaled to the nominal host speed and
    `wall` keeps the raw times; without one, both are wall time.
    """

    def __init__(self, host=None):
        self.items, self.results, self.errors = [], [], set()
        self.latencies, self.wall = [], []
        self.host = host

    def run(self, workload, item):
        t0 = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # an operation that raises is counted as failed
            result = exc
            self.errors.add(len(self.items))
        dt = time.perf_counter() - t0
        self.items.append(item)
        self.results.append(result)
        self.wall.append(dt)
        self.latencies.append(self.host.scale(dt) if self.host else dt)


def timed_loop(workload, inputs, log, seconds, min_ops):
    deadline = time.perf_counter() + seconds
    while True:
        log.run(workload, inputs.next())
        if len(log.items) >= min_ops and time.perf_counter() >= deadline:
            return


def tail(latencies):
    """(percentile, value): the highest whole percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    pct = 100 * (n - 10) // n
    index = max(0, -(-pct * n // 100) - 1)  # nearest rank
    return pct, ordered[index]


def slice_medians(workload, log):
    """Median latency per slice; inputs cycle through the slices in order."""
    k = len(workload.slices)
    return {f"{i} {sl}": 1000 * statistics.median(log.latencies[i::k])
            for i, sl in enumerate(workload.slices) if log.latencies[i::k]}


def digest(workload, log, count):
    h = hashlib.sha256()
    for item, result in zip(log.items[:count], log.results[:count]):
        text = (f"error {type(result).__name__}" if isinstance(result, Exception)
                else workload.render(item, result))
        h.update(f"{item!r}\t{text}\n".encode())
    return h.hexdigest()


def record_digest(key, value):
    """Compare with the digest recorded for key; record it if there is none."""
    path = os.path.join(STATE_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    if key in known:
        return known[key] == value
    known[key] = value
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def check(workload, log, seed):
    """Indices of failed operations: raised, or failed an output check."""
    ok = [i for i in range(len(log.items)) if i not in log.errors]
    rng = random.Random(f"check:{workload.name}:{seed}")
    bad = workload.check([log.items[i] for i in ok], [log.results[i] for i in ok], rng)
    return log.errors | {ok[i] for i in bad}


def import_seconds(runs=5):
    """Median wall time of a fresh interpreter that only imports necklaces.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import necklaces.cli"], cwd=ROOT, env=env,
                       stdin=subprocess.DEVNULL, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def round_seconds(workload, log):
    """Time of one round of the slices: the sum of per-slice mean latencies."""
    k = len(workload.slices)
    return sum(statistics.fmean(log.latencies[i::k]) for i in range(k))


def traced_phases(args, wl, inputs, tracer, timed):
    """The first digest_ops operations traced, then untraced ones until the deadline.

    Appends every operation to `timed`; returns the run-level layer metrics.
    """
    if args.workload == "cli":
        wl.in_process = True  # spans can only be seen inside this process
    start = time.perf_counter()
    try:
        for _ in range(wl.digest_ops):
            timed.run(wl, inputs.next())
    finally:
        tracer.uninstall()
    untraced = Log(HostScale())
    left = args.seconds - (time.perf_counter() - start)
    timed_loop(wl, inputs, untraced, max(0.0, left), len(wl.slices))
    extra = {
        "trace.overhead_ratio": round_seconds(wl, timed) / round_seconds(wl, untraced),
        "cli.import_s": import_seconds() if args.workload == "cli" else 0.0,
        "cli.main_s": statistics.median(untraced.latencies) if args.workload == "cli" else 0.0,
    }
    timed.errors |= {i + len(timed.items) for i in untraced.errors}
    for name in ("items", "results", "latencies", "wall"):
        getattr(timed, name).extend(getattr(untraced, name))
    return extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "necklaces", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    import_wall_s = time.perf_counter() - _T0
    import_s = _HOST.scale(import_wall_s)

    os.makedirs(STATE_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR)
    try:
        return measure(args, workloads, tracing, (import_s, import_wall_s), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, tracing, import_times, workdir):
    import_s, import_wall_s = import_times
    wl = workloads.make(args.workload, ROOT, workdir)
    inputs = Inputs(wl, args.seed)
    host = HostScale()
    log = Log(host)  # warm-up failures count as failures too
    tracer = tracing.Tracer()
    reps, reps_wall = [], []
    for rep in range(SETUP_REPS):
        if args.trace and rep == SETUP_REPS - 1:
            tracer.install()
        t0 = time.perf_counter()
        wl.prepare(rep)
        prepare_wall = time.perf_counter() - t0
        reps_wall.append(prepare_wall)
        reps.append(host.scale(prepare_wall))
        for _ in wl.slices:
            log.run(wl, inputs.next())
            reps_wall[-1] += log.wall[-1]
            reps[-1] += log.latencies[-1]
    setup_failed = len(log.errors)

    timed = Log(HostScale())
    if args.trace:
        extra = traced_phases(args, wl, inputs, tracer, timed)
    else:
        timed_loop(wl, inputs, timed, args.seconds, wl.digest_ops)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    bad = check(wl, timed, args.seed)
    sweep_failed = wl.sweep()
    answer_digest = digest(wl, timed, wl.digest_ops)
    digest_ok = record_digest(f"{args.workload} seed={args.seed} ops={wl.digest_ops}",
                              answer_digest)
    failed = len(bad) + setup_failed + len(sweep_failed) + (0 if digest_ok else 1)
    attempted = len(timed.items)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "ops": attempted,
        "failed_ratio": failed / attempted,
        "failed_ops": sorted(bad),
        "setup_failed": setup_failed,
        "sweep_failed": sweep_failed,
        "digest": answer_digest,
        "digest_ops": wl.digest_ops,
        "digest_matches_recorded": digest_ok,
        "latency_samples": attempted,
        "setup_import_s": import_s,
        "setup_reps_s": reps,
        "slice_p50_ms": slice_medians(wl, timed),
        "host_factor_median": statistics.median(timed.host.factors),
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer, extra)
        details["traced_ops"] = wl.digest_ops
    else:
        metrics = {
            "ops_per_s": {"value": attempted / sum(timed.latencies), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(timed.latencies), "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail(timed.latencies)[1], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": import_s + statistics.median(reps), "unit": "s"},
        }
        details["wall"] = {
            "ops_per_s": attempted / sum(timed.wall),
            "latency_p50_ms": 1000 * statistics.median(timed.wall),
            "latency_tail_ms": 1000 * tail(timed.wall)[1],
            "setup_s": import_wall_s + statistics.median(reps_wall),
        }
    details["latency_tail_percentile"] = tail(timed.latencies)[0]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
