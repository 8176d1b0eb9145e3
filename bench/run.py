"""vigor benchmark: end-to-end and per-layer figures for three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload warmup|finetune|eval --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A run repeats one round of units (training steps, or eval items) from the
same starting state while another round fits in `--seconds`, and times each
unit at the mean of its rounds.  Between units a fixed calibration loop
samples the machine's speed, and every time is reported at nominal speed:
scaled by the loop's nominal time over its mean time in the same stretch
of the run (see calibration.py and METRICS.md for why).
`--trace 0` measures the end-to-end metrics with nothing wrapped.
`--trace 1` runs the workload twice from the same inputs, first untraced
and then traced, checks that both runs produced the same losses or
predictions, and reports the per-layer metrics from the traced half.
`--workload all` runs every workload both ways, each in its own process.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it start
with "# " and carry sample counts, `error_rate`, digests of the losses and
predictions, and machine information.  The exit code is 0 when the run
completed, whether or not its checks passed.
"""

import os

# Pinned before numpy loads: without this OpenBLAS starts one thread per
# core, and on a small machine the numbers measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import Calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated at least this often, and until this much time has gone
# into it, and its median is reported.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
# After each set-up, machine speed is sampled for this share of its time.
SETUP_CALIBRATION_SHARE = 0.2

# Ops of `vigor.tensor.__all__` reported one by one; calls to any other op
# (one added later, or one no workload calls today) add to `other`.
REPORTED_OPS = (
    "add", "add_row", "concat_cols", "concat_rows", "constant", "layer_norm", "leaf",
    "log_row_softmax", "matmul", "max_rows_per_block", "mean_all", "mean_rows", "mul",
    "relu", "row_softmax", "scale", "scale_rows", "slice_cols", "slice_rows", "softplus",
    "square", "sub", "take_rows", "transpose",
)
LOSS_SPANS = tuple(
    f"losses.{n}" for n in ("loss_ref", "loss_mask", "loss_text", "loss_crd", "compose")
)


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


# ---------------------------------------------------------------------------
# timing


def timed_rounds(workload, ctx, seconds: float, cal, tracer=None):
    """Repeat the workload's round from the same start while another fits in `seconds`.

    Between units, untimed, `cal` samples the machine's speed.  Returns the
    last round's context and observations, each unit's times (one per
    round), and the count of observations that differed from the first
    round's.
    """
    start = time.perf_counter()
    first, per_unit, differing = None, None, 0
    while True:
        round_start = last = time.perf_counter()
        times: list[float] = []

        def tick():
            nonlocal last
            times.append(time.perf_counter() - last)
            if tracer is not None:
                tracer.end_unit()
            cal.maybe_sample()
            last = time.perf_counter()

        obs = workload.run_round(ctx, tick)
        round_seconds = time.perf_counter() - round_start
        if first is None:
            first, per_unit = obs, [[t] for t in times]
        else:
            differing += sum(a != b for a, b in zip(obs, first))
            for unit, t in zip(per_unit, times):
                unit.append(t)
        if time.perf_counter() + round_seconds > start + seconds:
            return ctx, obs, per_unit, differing
        if tracer is None:
            ctx = workload.restart(ctx)
        else:
            ctx = tracer.outside_units(workload.restart, ctx)


def p90(values) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _failures(checked, rounds: int, units: int, differing: int) -> tuple[int, int]:
    """Operations attempted and failed: every unit of every round, plus the
    workload's extra checks; a unit whose result changed between rounds fails."""
    attempted = rounds * units + checked.extra_attempted
    return attempted, len(checked.failed_units) + checked.extra_failed + differing


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def unit_times(per_unit, scale: float) -> list[float]:
    """Each unit's mean time over its rounds, at nominal speed."""
    return [statistics.fmean(times) * scale for times in per_unit]


def end_to_end(workload, seed: int, seconds: float, workdir: str):
    cal = Calibration()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        ctx = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
        cal.sample_for(SETUP_CALIBRATION_SHARE * setups[-1])
    _say(f"setup {cal.describe()}")
    setup_scale = cal.scale()

    cal = Calibration()
    ctx, obs, per_unit, differing = timed_rounds(workload, ctx, seconds, cal)
    _say(f"timed {cal.describe()}")
    checked = workload.check(ctx, obs)
    rounds = len(per_unit[0])
    attempted, failed = _failures(checked, rounds, len(obs), differing)
    units = unit_times(per_unit, cal.scale())
    step_p90, beyond = p90(units)
    _say(
        f"{workload.name}: {rounds} rounds of {len(obs)} {workload.unit}s "
        f"({workload.batch} samples each); step_ms samples={len(units)}, beyond p90={beyond}"
    )
    raw = unit_times(per_unit, 1.0)
    _say(
        f"measured, before scaling: step_ms.p50={statistics.median(raw) * 1e3:.4f}, "
        f"samples_per_s={len(raw) * workload.batch / sum(raw):.4f}, "
        f"setup_s={statistics.median(setups):.6f} over {len(setups)} repeats"
    )
    _say(f"error_rate={failed / attempted} ({failed}/{attempted})")
    _say(f"digests {json.dumps(checked.digests, sort_keys=True)}")
    metrics = {
        "samples_per_s": (len(units) * workload.batch / sum(units), "1/s"),
        "step_ms.p50": (statistics.median(units) * 1e3, "ms"),
        "step_ms.p90": (step_p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return failed == 0, attempted, failed, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def per_layer(workload, seed: int, seconds: float, workdir: str):
    from layertrace import CHECK, SETUP, Tracer, tensor_ops

    half = seconds / 2.0
    ctx = workload.setup(seed, workdir)
    cal_a = Calibration()
    ctx, obs_a, per_unit_a, differing_a = timed_rounds(workload, ctx, half, cal_a)
    checked_a = workload.check(ctx, obs_a)

    tracer = Tracer()
    tracer.install()
    try:
        ctx = workload.setup(seed, workdir)
        tracer.start_run(workload.units)
        cal_b = Calibration()
        ctx, obs_b, per_unit_b, differing_b = timed_rounds(workload, ctx, half, cal_b, tracer)
        tracer.unit = CHECK
        checked_b = workload.check(ctx, obs_b)
    finally:
        stale = tracer.restore()

    faithful = obs_a == obs_b and checked_a.digests == checked_b.digests
    _say(f"trace faithful={faithful}; not restored={stale}")
    _say(f"digests {json.dumps(checked_b.digests, sort_keys=True)}")

    rounds_a, rounds_b = len(per_unit_a[0]), len(per_unit_b[0])
    scale = cal_b.scale()  # traced times are reported at nominal speed too
    units = len(obs_b)
    runs = range(rounds_b * units)  # every traced unit: times
    first = range(units)  # the first traced round: counts
    samples = rounds_b * units * workload.batch
    first_samples = units * workload.batch
    outside = (SETUP, CHECK)

    def ms(names, field="ms"):
        return tracer.span_sum(names, field, runs) * scale / samples

    def nodes(names, field="nodes"):
        return tracer.span_sum(names, field, first) / first_samples

    def per_call(name, total):
        calls = tracer.span_calls(name, outside)
        return total / calls if calls else 0.0

    def ms_per_call(name):
        return per_call(name, tracer.span_sum(name, "ms", outside) * scale)

    other_ops = [op for op in tensor_ops() if op not in REPORTED_OPS]
    metrics = {
        "synthgen.sample_at.ms": (ms("synthgen.sample_at"), "ms/sample"),
        "model.encode_text.ms": (ms("model.encode_text"), "ms/sample"),
        "model.encode_text.tape_nodes": (nodes("model.encode_text"), "nodes/sample"),
        "model.order_names.distinct_share": (tracer.distinct_share(first), "ratio"),
        "model.encode_objects.ms": (ms("model.encode_objects"), "ms/sample"),
        "model.encode_objects.tape_nodes": (nodes("model.encode_objects"), "nodes/sample"),
        "model.fe_forward.ms": (ms("model.fe_forward"), "ms/sample"),
        "model.fe_forward.tape_nodes": (nodes("model.fe_forward"), "nodes/sample"),
        "model.heads.ms": (ms("model.forward", "self_ms"), "ms/sample"),
        "model.heads.tape_nodes": (nodes("model.forward", "self_nodes"), "nodes/sample"),
        "losses.ms": (ms(LOSS_SPANS), "ms/sample"),
        "losses.tape_nodes": (nodes(LOSS_SPANS), "nodes/sample"),
        "tensor.tape_nodes": (tracer.count_sum("tensor.tape_nodes", first) / first_samples, "nodes/sample"),
        "tensor.backward.ms": (tracer.span_sum("tensor.backward", "ms", runs) * scale / len(runs), "ms/step"),
        "tensor.adam_step.ms": (tracer.span_sum("tensor.adam_step", "ms", runs) * scale / len(runs), "ms/step"),
    }
    for op in REPORTED_OPS:
        metrics[f"tensor.op.{op}.calls"] = (tracer.first_round_ops.get(op, 0) / first_samples, "calls/sample")
    metrics["tensor.op.other.calls"] = (
        sum(tracer.first_round_ops.get(op, 0) for op in other_ops) / first_samples,
        "calls/sample",
    )
    metrics.update(
        {
            "orderparse.parse.calls_per_item": (
                tracer.span_calls("orderparse.parse", first) / first_samples,
                "calls/sample",
            ),
            "orderparse.parse.ms": (ms("orderparse.parse"), "ms/sample"),
            "evaluation.accuracy.self_ms": (ms("evaluation.accuracy", "self_ms"), "ms/sample"),
            "records.read_records.ms": (ms_per_call("records.read_records"), "ms/call"),
            "records.example_from_record.ms": (ms_per_call("records.example_from_record"), "ms/call"),
            "trainer.load_checkpoint.ms": (ms_per_call("trainer.load_checkpoint"), "ms/call"),
            "trainer.save_checkpoint.ms": (ms_per_call("trainer.save_checkpoint"), "ms/call"),
            "trainer.checkpoint_bytes": (
                per_call(
                    "trainer.save_checkpoint",
                    tracer.count_sum("trainer.checkpoint_bytes", outside),
                ),
                "bytes",
            ),
            "trace.overhead_share": (
                sum(unit_times(per_unit_a, cal_a.scale())) / sum(unit_times(per_unit_b, scale)),
                "ratio",
            ),
        }
    )
    attempted_a, failed_a = _failures(checked_a, rounds_a, len(obs_a), differing_a)
    attempted_b, failed_b = _failures(checked_b, rounds_b, len(obs_b), differing_b)
    failed = failed_a + failed_b
    _say(f"error_rate={failed / (attempted_a + attempted_b)} ({failed}/{attempted_a + attempted_b})")
    correct = failed == 0 and faithful and not stale
    return correct, attempted_a + attempted_b, failed, metrics


# ---------------------------------------------------------------------------
# machine information


def _git_commit() -> str:
    # Read the files directly: the benchmark may run in a checkout that is
    # not a git repository, and must not look outside it.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": _threads(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# entry points


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: cannot import vigor from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    measure = per_layer if trace else end_to_end
    with tempfile.TemporaryDirectory(prefix=".vigorbench-", dir=ROOT) as workdir:
        try:
            correct, attempted, failed, metrics = measure(workload, seed, seconds, workdir)
        except Exception:
            # A run that raises is one failed operation and no metrics.
            traceback.print_exc()
            correct, attempted, failed, metrics = False, 1, 1, {}
    _say(f"machine {json.dumps(machine_info(), sort_keys=True)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(names, seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
                print(f"{name:9s} {key:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    names = ("warmup", "finetune", "eval")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
