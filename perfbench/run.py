"""kmpoly benchmark: one workload, one seed, one closed-loop caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain_1d_large --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  BLAS is pinned to
one thread before numpy loads.  A run repeats a set-up and one pass --
fit, bands, chain CSV round trip, DIC, prediction -- until ``--seconds``
have passed, one call at a time, and reports the median of each timing.
Every output is checked; the last line of standard output is the JSON
result.

With ``--trace 1`` the set-up runs once with every layer wrapped in spans,
then untraced and traced passes alternate; the result holds the per-layer
metrics and the traced-over-untraced pass time.  Spans and provenance go
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# The machine's speed swings by up to 1.7x within fractions of a second,
# so a sample of one call of a few milliseconds would only show which swing
# it fell into.  One set-up sample repeats the set-up until SETUP_SECONDS
# have passed, and at least twice, which gives the 2 s set-up chain of
# summaries_1d two samples of sweeps_per_s in each pass.  A summary step's
# calls in a pass are timed in groups of at least GROUP_SECONDS, and the
# four steps' groups take turns, so that each metric's samples are spread
# over the pass.  A sample is the mean time per call of its group.
SETUP_SECONDS = 0.5
GROUP_SECONDS = 0.15
MIN_PASSES = 3


def _import_program():
    """Import kmpoly from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kmpoly
    import kmpoly.chainio
    import kmpoly.plm
    import kmpoly.sieve

    if not Path(kmpoly.__file__).resolve().is_relative_to(src):
        raise ImportError(f"kmpoly was imported from {kmpoly.__file__}, not {src}")
    return kmpoly


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _blas_threads():
    """Thread count numpy's OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance():
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads": _blas_threads(),
        "loadavg": list(os.getloadavg()),
    }


class Run:
    """Counts operations and failures and collects timing samples."""

    def __init__(self, kmpoly, case_factory, seed):
        self.kmpoly = kmpoly
        self.case_factory = case_factory
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.chain_bytes = 0

    def op(self, metric, fn, check, most=1):
        """Time one group of calls of ``fn`` as a sample, then check every output.

        The group ends after ``most`` calls or once ``GROUP_SECONDS`` have
        passed.  Returns the number of calls used up and the last output,
        which is None if a call raised or an output failed its check; a
        call that raises uses up all ``most``, and all count as failed.
        """
        outs = []
        start = time.perf_counter()
        try:
            while len(outs) < most:
                outs.append(fn())
                elapsed = time.perf_counter() - start
                if elapsed >= GROUP_SECONDS:
                    break
        except Exception:  # the run goes on
            self.attempted += most
            self.failed += most
            traceback.print_exc(file=sys.stderr)
            return most, None
        self.attempted += len(outs)
        self.samples.setdefault(metric, []).append(elapsed / len(outs))
        ok = True
        for out in outs:
            problems = check(out)
            if problems:
                self.failed += 1
                ok = False
                for p in problems:
                    print(f"check failed [{metric}]: {p}", file=sys.stderr)
        return len(outs), (outs[-1] if ok else None)

    def fit(self, case):
        _, out = self.op("fit_s", case.fit, lambda r: case.check_fit(*r))
        if out is None:
            return None
        self.samples.setdefault("sweeps_per_s", []).append(
            case.sweeps / self.samples["fit_s"][-1])
        return out[0]

    def setup(self):
        """Generate the data, and build the chain where set-up owns it.

        Builds repeat until ``SETUP_SECONDS`` have passed, and at least
        twice; the mean time per build is one ``setup_s`` sample.
        """
        builds = 0
        start = time.perf_counter()
        while True:
            case = self.case_factory(self.seed)
            draws = self.fit(case) if case.fit_in_setup else None
            builds += 1
            elapsed = time.perf_counter() - start
            if builds >= 2 and elapsed >= SETUP_SECONDS:
                break
        self.samples.setdefault("setup_s", []).append(elapsed / builds)
        return case, draws

    def one_pass(self, case, draws):
        from workloads import check_bands, check_dic, check_predict, check_round_trip

        sampler, summaries = self.kmpoly.sampler, self.kmpoly.summaries
        start = time.perf_counter()
        if not case.fit_in_setup:
            draws = self.fit(case)
        if draws is None:  # the summary calls cannot be made
            self.attempted += sum(case.calls.values())
            self.failed += sum(case.calls.values())
            return None
        dic_data = case.dic_data(draws)
        csv_path = OUT / f"chain-{os.getpid()}.csv"
        steps = {
            "band_s": (lambda: (summaries.pointwise_band(draws, case.grid),
                                summaries.l2_credible_set(draws, case.grid)),
                       lambda bands: check_bands(case, *bands)),
            "chain_io_s": (lambda: (draws.to_csv(csv_path),
                                    sampler.PosteriorDraws.from_csv(csv_path))[1],
                           lambda back: check_round_trip(draws, back)),
            "dic_s": (lambda: summaries.dic_parts(draws, dic_data), check_dic),
            "predict_s": (lambda: summaries.predict(draws, case.xnew),
                          lambda r: check_predict(*r)),
        }
        left = dict(case.calls)
        while any(left.values()):
            for metric, (fn, check) in steps.items():
                if left[metric]:
                    left[metric] -= self.op(metric, fn, check, left[metric])[0]
        if csv_path.exists():
            self.chain_bytes = (csv_path.stat().st_size
                                + Path(str(csv_path) + ".json").stat().st_size)
        self.samples.setdefault("total_s", []).append(time.perf_counter() - start)
        return draws


def run_untraced(run, seconds):
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        case, draws = run.setup()
        run.one_pass(case, draws)
        passes += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {"setup_s": "s", "total_s": "s", "sweeps_per_s": "1/s", "band_s": "s",
             "predict_s": "s", "dic_s": "s", "chain_io_s": "s"}
    metrics = {name: {"value": statistics.median(run.samples[name]), "unit": unit}
               for name, unit in units.items() if name in run.samples}
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    return metrics, None


def run_traced(run, seconds):
    from spans import Recorder
    from stats import bulk_ess

    rec = Recorder(run.kmpoly)
    ess = []

    def note_ess(draws):
        if draws is None:
            return
        try:
            per = [bulk_ess(draws.sigmas()), bulk_ess(draws.loglik)]
        except ValueError as exc:  # a constant or too-short chain
            print(f"no ESS: {exc}", file=sys.stderr)
            return
        ess.append(min(per) / len(draws))

    rec.install("setup")
    try:
        case, draws = run.setup()
    finally:
        rec.uninstall()
    if case.fit_in_setup:
        note_ess(draws)
    times = {False: [], True: []}
    start = time.perf_counter()
    traced = False
    while (len(times[True]) < 2 or len(times[False]) < 2
           or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        if traced:
            rec.install("pass")
            try:
                out = run.one_pass(case, draws)
            finally:
                rec.uninstall()
            rec.traced_passes += 1
            if not case.fit_in_setup:
                note_ess(out)
        else:
            run.one_pass(case, draws)
        times[traced].append(time.perf_counter() - t0)
        traced = not traced
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in rec.layer_metrics().items()}
    metrics["chainio.bytes"] = {"value": float(run.chain_bytes), "unit": "bytes"}
    metrics["sampler.ess_per_draw"] = {"value": statistics.median(ess) if ess else 0.0,
                                       "unit": "ratio"}
    metrics["trace_overhead_ratio"] = {
        "value": statistics.median(times[True]) / statistics.median(times[False]), "unit": "ratio"}
    spans = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "phase": s[4]}
             for s in rec.spans]
    return metrics, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kmpoly = _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    info = provenance()
    print("provenance " + json.dumps(info), flush=True)

    run = Run(kmpoly, WORKLOADS[args.workload], args.seed)
    mode = run_traced if args.trace else run_untraced
    metrics, spans = mode(run, args.seconds)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": info, "result": result,
              "samples": run.samples, "spans": spans}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")
    for path in OUT.glob(f"chain-{os.getpid()}.csv*"):
        path.unlink()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
