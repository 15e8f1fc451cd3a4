"""Seeded benchmark of the scrambleparse pipeline.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 36 --trace 0

Run from anywhere; it works in the checkout that holds this file, under
``.perfbench_work/``. One process, one client, closed loop: set-up runs
five times, then the workload's chain of CLI stages runs through
``scrambleparse.cli.run`` again and again until ``--seconds`` have passed.
End-to-end timings are medians over the untraced iterations of each
stage call's time, calibrated against a reference timed before every
call (see ``Reference``). With ``--trace 1`` every second iteration is
traced and the per-layer figures, uncalibrated, are medians over the
traced ones. The last line of standard output is the
result object; the full record goes to ``.perfbench_work/results/``.
The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Pinned before numpy is imported. One thread: parsing multiplies single
# rows, where a second BLAS thread only adds hand-off cost and noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
SETUP_REPEATS = 5
DEADLINE_S = 170  # a run must end within three minutes, even when a stage hangs
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

UNITS = {"setup_s": "s", "wall_s": "s", "permute_sents_per_s": "sent/s",
         "train_tokens_per_s": "tok/s", "parse_tokens_per_s": "tok/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.startswith("las_"):
        return "LAS"
    if name.endswith("_s") or name.startswith("cli.stage_s."):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("rows_per_call"):
        return "rows"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("augment", "pipeline", "long"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Reference:
    """A fixed piece of work, timed before every stage call to tell how fast
    the host runs.

    On a shared host the speed of a vCPU swings by up to 2x, for seconds or
    minutes at a time, with load outside this process, and each vCPU swings
    at its own times. So before each call the process pins itself to the
    allowed CPU where the reference runs fastest (only this process's own
    affinity changes) and keeps that time. A run's timings are then scaled
    by ``NOMINAL_S`` over the median of the reference's times in the run.

    The work mixes the program's three kinds, 2-3 ms in all: Python
    dict and string handling (CoNLL-U, permute), a recurrent loop of small
    matrix-vector products (the parser's LSTMs and MLP), and one momentum
    update streaming over a parameter-sized array (the optimizer step).
    """

    # The reference's median time when the host runs fast (2 vCPUs, one
    # BLAS thread): calibrated figures are what the run would take then.
    NOMINAL_S = 2.5e-3

    def __init__(self):
        import numpy as np  # after the BLAS pinning above

        rng = np.random.default_rng(0)
        self.np = np
        self.w = rng.standard_normal((256, 96)) * 0.1
        self.param, self.velocity, self.grad = (rng.standard_normal(400_000) for _ in range(3))
        self.samples: list[float] = []

    def time_s(self) -> float:
        np = self.np
        start = perf_counter()
        counts: dict[str, int] = {}
        for i in range(1500):
            word = f"w{i % 211}"
            counts[word] = counts.get(word, 0) + 1
        " ".join(sorted(counts)).split()
        h, x = np.zeros(64), np.ones(32)
        for _ in range(60):
            z = self.w @ np.concatenate([x, h])
            h = np.tanh(z[:64]) / (1.0 + np.exp(-z[64:128]))
        self.velocity *= 0.9
        self.velocity += self.grad
        self.param -= 1e-3 * self.velocity
        return perf_counter() - start

    def pin_quietest_cpu(self) -> float:
        """Pin to the CPU where the reference runs fastest; record and
        return its time there."""
        times = {}
        for cpu in CPUS if len(CPUS) > 1 else [None]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            times[cpu] = self.time_s()
        best = min(times, key=times.get)
        if best is not None:
            os.sched_setaffinity(0, {best})
        self.samples.append(times[best])
        return times[best]

    def factor(self) -> float:
        """Nominal over this run's median reference time: < 1 when the host
        ran slow, so that times times the factor are calibrated."""
        return self.NOMINAL_S / statistics.median(self.samples)


def run_stage(cli, stage) -> tuple[float, int, str]:
    """Run one CLI stage in-process: (seconds, exit status, captured stdout)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.run(list(stage.argv))
    except Exception:  # a stage that raises is a failed stage, not a crash
        rc = -1
        out.write("\n" + traceback.format_exc())
    return perf_counter() - start, rc, out.getvalue()


def run_chain(cli, stages) -> None:
    """Run set-up stages; any failure aborts the run."""
    for s in stages:
        _, rc, out = run_stage(cli, s)
        if rc != 0:
            raise RuntimeError(f"stage {' '.join(s.argv)} exited {rc}: {out[-500:]}")


def import_program():
    """Make the checkout's sources importable; the import cost is part of set-up."""
    os.chdir(ROOT)
    if not (Path("src") / "scrambleparse" / "cli.py").is_file():
        raise ImportError(f"no scrambleparse sources under {ROOT / 'src'}")
    sys.dont_write_bytecode = True  # same import cost on every run; nothing written to src/
    sys.path.insert(0, str(ROOT / "src"))
    from scrambleparse import cli
    return cli


class Deadline(BaseException):
    """Raised from SIGALRM so that no stage's ``except Exception`` swallows it."""


def _on_alarm(signum, frame):
    raise Deadline


class Bench:
    """One benchmark run: set-up, closed loop, checks, record."""

    def __init__(self, args, cli, workloads, checks, tracing, reference):
        self.args = args
        self.reference = reference
        self.cli, self.wl, self.checks, self.tracing = cli, workloads, checks, tracing
        self.w = workloads.WORKLOADS[args.workload]
        self.files = workloads.Files(WORK / self.w.name)
        self.stages = workloads.chain(self.w, self.files, args.seed)
        self.sizes: dict[str, tuple[int, int]] = {}
        self.failed = 0
        self.extra_attempted = 0  # sentences fed to stages outside the timed loop
        self.messages: list[str] = []
        self.tracer = tracing.Tracer()

    def fail(self, count: int, messages) -> None:
        self.failed += count
        self.messages.extend(messages)

    def setup(self) -> list[float]:
        """Warm-up chain and inputs; repeated, and the inputs must not change."""
        wl, f, seed = self.wl, self.files, self.args.seed
        warm = wl.Files(WORK / f"{self.w.name}-warmup")
        times, seen = [], None
        for _ in range(SETUP_REPEATS):
            for d in (warm.root, f.root):
                shutil.rmtree(d, ignore_errors=True)
            self.reference.pin_quietest_cpu()
            start = perf_counter()
            wl.write_inputs(wl.WARMUP, warm, seed)
            run_chain(self.cli, wl.chain(wl.WARMUP, warm, seed))
            wl.write_inputs(self.w, f, seed)
            times.append(perf_counter() - start)
            digests = {p: wl.digest(p) for p in wl.input_files(self.w, f) if os.path.exists(p)}
            if seen is not None and digests != seen:
                self.fail(1, ["set-up produced different inputs for the same seed"])
            seen = digests
        return times

    def iterate(self, i: int, traced: bool) -> dict:
        self.tracer.run_id = i
        ctx = self.tracing.traced(self.tracer) if traced else contextlib.nullcontext()
        results = []
        start = perf_counter()
        with ctx:
            for s in self.stages:
                ref = self.reference.pin_quietest_cpu()
                results.append((ref,) + run_stage(self.cli, s))
        wall = perf_counter() - start
        it = {"traced": traced, "wall_s": wall, "stages": []}
        for s, (ref, dt, rc, out) in zip(self.stages, results):
            it["stages"].append({"stage": s.name, "seconds": dt, "reference_s": ref, "rc": rc})
            if rc != 0:
                self.fail(sum(self.sizes.get(p, (0, 0))[0] for p in s.inputs) or 1,
                          [f"stage {' '.join(s.argv)} exited {rc}: {out.strip()[-300:]}"])
            elif s.name == "eval":
                it.setdefault("las", []).append(json.loads(out.strip().splitlines()[-1])["las"])
            elif s.name == "permute":
                it["permute_stdout"] = out.strip().splitlines()[-2:]
        return it

    def measure_sizes(self) -> None:
        """(sentences, tokens) of every CoNLL-U file a stage reads."""
        from scrambleparse import conllu

        self.sizes = {}
        for s in self.stages:
            for p in s.inputs:
                if p not in self.sizes and os.path.exists(p):
                    tb = conllu.load_treebank(p)
                    self.sizes[p] = (len(tb), sum(len(t) for t in tb))

    def attempted(self, iterations: int) -> int:
        """Sentences fed to the stages over all iterations and the accuracy run."""
        per_iteration = sum(self.sizes.get(p, (0, 0))[0] for s in self.stages for p in s.inputs)
        return max(1, per_iteration * iterations + self.extra_attempted)

    def stage_rates(self, times, wall) -> dict:
        """Throughputs from the seconds of each stage call of the chain."""
        def stage_time(name):
            return sum(t for s, t in zip(self.stages, times) if s.name == name)

        def work(name, k):
            return sum(self.sizes[p][k] for s in self.stages if s.name == name for p in s.inputs)

        f = self.files
        m = {"wall_s": wall,
             "permute_sents_per_s": self.sizes[f.source][0] / stage_time("permute"),
             "train_tokens_per_s": self.wl.EPOCHS * work("train", 1) / stage_time("train"),
             "parse_tokens_per_s": work("parse", 1) / stage_time("parse")}
        return m

    def calibrated_rates(self, iterations, factor: float) -> dict:
        """Throughputs from each stage call's median time over the
        iterations, times ``factor``; ``wall_s`` is the sum of those."""
        times = [factor * statistics.median(it["stages"][k]["seconds"] for it in iterations)
                 for k in range(len(self.stages))]
        return self.stage_rates(times, sum(times))

    def check_outputs(self, iterations) -> dict:
        """Determinism across iterations, pinned digest, structural checks."""
        wl, f, ck = self.wl, self.files, self.checks
        first = iterations[0]["digests"]
        for k, it in enumerate(iterations[1:], start=1):
            for path, d in it["digests"].items():
                if d != first[path]:
                    self.fail(self.sizes.get(path, (1, 0))[0],
                              [f"iteration {k}: {path} differs from iteration 0"])
            if it.get("las") != iterations[0].get("las"):
                self.fail(1, [f"iteration {k}: LAS differs from iteration 0"])
        pins = json.loads((Path(__file__).parent / "digests.json").read_text())
        pinned = pins.get(self.w.name, {}).get(str(self.args.seed))
        if pinned is not None and pinned != first[f.augmented]:
            self.fail(self.sizes[f.augmented][0],
                      [f"{f.augmented} digest {first[f.augmented][:12]} != pinned {pinned[:12]}"])
        self.fail(*ck.check_augmented(f.source, f.augmented))
        for _, gold, pred in f.evals.values():
            self.fail(*ck.check_predictions(gold, pred))
        for model in (f.baseline_model, f.augmented_model):
            self.fail(*ck.check_checkpoint(model))
        return {"augmented_digest": first[f.augmented], "pinned": pinned is not None,
                "output_digests": first}

    def counts(self, iterations) -> dict:
        """What the pipeline dropped or patched, measured from its inputs and outputs."""
        wl, f = self.wl, self.files
        return {
            "source": wl.input_stats(f.source),
            "variants_built_by_class": wl.variant_pool(self.w, f, self.args.seed),
            "kept_by_class": wl.kept_by_class(f.augmented),
            "permute_stdout": iterations[0].get("permute_stdout"),
            "fallback_roots": {m: self.checks.fallback_roots(pred)
                               for m, (_, _, pred) in f.evals.items()},
        }

    def run(self) -> dict:
        a = self.args
        setup_times = self.setup()
        iterations = []
        start = perf_counter()
        i = 0
        while True:
            traced = bool(a.trace) and i % 2 == 1
            it = self.iterate(i, traced)
            if i == 0:
                self.measure_sizes()
            it["digests"] = {p: self.wl.digest(p) for p in self.files.outputs()
                             if os.path.exists(p)}
            iterations.append(it)
            i += 1
            # Closed loop: stop before an iteration that would end after --seconds.
            elapsed = perf_counter() - start
            if i >= (2 if a.trace else 1) and elapsed + elapsed / i > a.seconds:
                break
        if not self.failed:
            checks = self.check_outputs(iterations)
        else:
            checks = {}
        accuracy = self.accuracy_run() if self.w.accuracy_epochs and not self.failed else {}
        for it in iterations:
            ok = all(st["rc"] == 0 for st in it["stages"])
            it["rates"] = (self.stage_rates([st["seconds"] for st in it["stages"]], it["wall_s"])
                           if ok else {})
        return {"setup_times": setup_times, "iterations": iterations, "checks": checks,
                "accuracy_run": accuracy,
                "counts": self.counts(iterations) if not self.failed else {}}

    def accuracy_run(self) -> dict:
        """Train, parse and evaluate once more with more epochs, untimed;
        its outputs get the same checks as the chain's."""
        acc, stages = self.wl.accuracy_chain(self.w, self.files, self.args.seed)
        start = perf_counter()
        las = []
        for s in stages:
            _, rc, out = run_stage(self.cli, s)
            sentences = sum(self.sizes.get(p, (0, 0))[0] for p in s.inputs)
            self.extra_attempted += sentences
            if rc != 0:
                self.fail(sentences or 1, [f"stage {' '.join(s.argv)} exited {rc}: "
                                           f"{out.strip()[-300:]}"])
                return {}
            if s.name == "eval":
                las.append(json.loads(out.strip().splitlines()[-1])["las"])
        for _, gold, pred in acc.evals.values():
            self.fail(*self.checks.check_predictions(gold, pred))
        for model in (acc.baseline_model, acc.augmented_model):
            self.fail(*self.checks.check_checkpoint(model))
        return {"epochs": self.w.accuracy_epochs, "seconds": perf_counter() - start,
                "las": dict(zip(acc.evals, las))}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config is not a stable API
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None}


def main(argv=None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads
    import_s = perf_counter() - start

    bench = Bench(args, cli, workloads, checks, tracing, Reference())
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        raw = bench.run()
    except RuntimeError as exc:  # set-up failed: nothing to measure
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except Deadline:
        print(f"perfbench: run exceeded {DEADLINE_S} s; a stage hangs or is far too slow",
              file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    iterations = raw["iterations"]
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    factor = bench.reference.factor()
    e2e = {"setup_s": factor * (import_s + median(raw["setup_times"]))}
    timed = ("wall_s", "permute_sents_per_s", "train_tokens_per_s", "parse_tokens_per_s")
    ok = [it for it in plain if it["rates"]]  # every stage of the iteration succeeded
    e2e.update(bench.calibrated_rates(ok, factor) if ok else dict.fromkeys(timed, 0.0))
    uncalibrated = {name: median([it["rates"][name] for it in ok]) for name in timed}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Deterministic per seed and checked equal across iterations.
    accuracy = (raw["accuracy_run"].get("las")
                or dict(zip(bench.files.evals, iterations[0].get("las", []))))
    attempted = bench.attempted(len(iterations))
    fail_ratio = bench.failed / attempted

    layers = {}
    if traced:
        per_run = [tracing.layer_metrics(bench.tracer, iterations.index(it), it["wall_s"])
                   for it in traced]
        layers = {k: median([m[k] for m in per_run]) for k in per_run[0]}
        layers["trace.overhead_s"] = (median([it["wall_s"] for it in traced])
                                      - median([it["wall_s"] for it in plain]))
        layers["parser.fallback_roots"] = sum(raw["counts"].get("fallback_roots", {}).values())
        layers.update(accuracy)
        layers["fail_ratio"] = fail_ratio

    correct = bench.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "workload_params": vars(bench.w),
        "iterations_untraced": len(plain), "iterations_traced": len(traced),
        "reference_nominal_s": Reference.NOMINAL_S, "calibration_factor": factor,
        "reference_times": bench.reference.samples,
        "import_s": import_s, "setup_times": raw["setup_times"],
        "end_to_end": e2e, "uncalibrated_medians": uncalibrated, "accuracy": accuracy,
        "accuracy_run": raw["accuracy_run"], "per_layer": layers,
        "fail_ratio": fail_ratio, "failures": bench.messages[:50],
        "checks": raw["checks"], "counts": raw["counts"],
        "iterations": [{k: v for k, v in it.items() if k != "digests"} for it in iterations],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if traced:
        bench.tracer.write(results / f"{stem}-spans.tsv")

    shown = {name: (v, layer_unit(name)) for name, v in layers.items()} if args.trace else {}
    shown.update({name: (v, UNITS[name]) for name, v in e2e.items()} if not args.trace else {})
    how = {"setup_s": f"median of {len(raw['setup_times'])} set-ups, calibrated",
           "peak_rss_mb": "whole run"}
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced "
          f"iterations; record in {results / stem}.json")
    for name, (value, unit) in shown.items():
        note = (f"median of {len(traced)}" if args.trace
                else how.get(name, f"median of {len(ok)}, calibrated"))
        print(f"{name:32s} {value:14.4f} {unit:6s} ({note})")
    if not args.trace:
        for name, value in list(accuracy.items()) + [("fail_ratio", fail_ratio)]:
            print(f"{name:32s} {value:14.4f} {layer_unit(name)}")
    for msg in bench.messages[:20]:
        print("FAILED:", msg)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": bench.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in shown.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
