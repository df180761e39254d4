#!/usr/bin/env python3
"""Benchmark entry point for pivotnmt.

    python3 perfbench/run.py --workload translate-online --seed 3 --seconds 15 --trace 0

Runs one workload (pretrain, translate-batch or translate-online), checks its
outputs and prints every metric by name with its unit, then one JSON object
as the last line of standard output:

    {"correct": true, "attempted": 312, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` the
run repeats one set-up and the measured phase under the span tracer, reports
the per-layer metrics and the tracing overhead (traced minus untraced
end-to-end figures), and writes the spans to perfbench/out/. A failed
correctness gate exits with code 1, a missing source tree with code 2.
"""

import os

# pin the BLAS pool before numpy loads: one caller, one thread, on any host
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_tok_s": "tok/s",
    "val_ppl": "ppl",
    "translate_tok_s": "tok/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "bleu": "BLEU",
}


def percentile(values, q: int) -> float:
    """q-th percentile (1..99), inclusive method; nan without values."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(setup_s: float, setup_rates: list, m) -> dict:
    lat_ms = [x * 1000.0 for x in m.latencies_s]
    train_tok_s = m.train_tok_s if m.train_tok_s is not None else statistics.median(setup_rates)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_tok_s": train_tok_s,
        "val_ppl": m.val_ppl,
        "translate_tok_s": m.translate_tok_s,
        "request_p50_ms": percentile(lat_ms, 50),
        "request_p95_ms": percentile(lat_ms, 95),
        "bleu": m.bleu,
    }


def per_layer(tracer, measure_start: float, traced: dict, untraced: dict) -> dict:
    """Per-layer figures of the traced set-up and measured phase together,
    except where noted."""
    from tracer import layer_totals

    spans = tracer.spans
    totals = layer_totals(spans)

    def total(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    def seconds(keep):
        return sum(s[2] - s[1] for s in spans if keep(s))

    # training encodes sit inside forward_loss/token_logprobs; this counts the decoder's
    decode_encode_s = seconds(
        lambda s: s[0] == "model.encode" and s[3] >= 0 and spans[s[3]][0] == "decoding.beam_search_batch"
    )
    # set-up segments whole corpora; this counts the measured phase only
    measured_bpe_s = seconds(lambda s: s[0] == "bpe.apply_bpe" and s[1] >= measure_start)

    steps = total("model.step_logits", "calls")
    out = {
        "tensor.backward.s": (total("tensor.backward"), "s"),
        "tensor.adam_step.s": (total("tensor.adam_step"), "s"),
        "tensor.primitive_calls": (tracer.primitive_calls, "count"),
        "model.forward_loss.s": (total("model.forward_loss"), "s"),
        "model.token_logprobs.s": (total("model.token_logprobs"), "s"),
        "model.encode.s": (decode_encode_s, "s"),
        "model.step_logits.s": (total("model.step_logits"), "s"),
        "model.step_logits.calls": (steps, "count"),
        "model.step_logits.rows": (tracer.step_rows / steps if steps else 0.0, "rows/call"),
        "model.step_logits.positions": (tracer.step_positions, "count"),
        "decoding.positions_per_token": (
            tracer.step_positions / tracer.emitted_tokens if tracer.emitted_tokens else 0.0,
            "ratio",
        ),
        "decoding.beam_search_batch.self_s": (total("decoding.beam_search_batch", "self_s"), "s"),
        "decoding.translate_tokens.s": (total("decoding.translate_tokens"), "s"),
        "decoding.pivot_translate.calls": (total("decoding.pivot_translate", "calls"), "count"),
        "bpe.Vocabulary.content_hash.s": (total("bpe.Vocabulary.content_hash"), "s"),
        "bpe.Vocabulary.content_hash.calls": (total("bpe.Vocabulary.content_hash", "calls"), "count"),
        "bpe.apply_bpe.s": (measured_bpe_s, "s"),
        "bpe.learn_bpe.s": (total("bpe.learn_bpe"), "s"),
        "data.make_batches.s": (total("data.make_batches"), "s"),
        "data.apply_noise.calls": (total("data.apply_noise", "calls"), "count"),
        "training.validation_perplexity.s": (total("training.validation_perplexity"), "s"),
        "training.validation_perplexity.calls": (
            total("training.validation_perplexity", "calls"),
            "count",
        ),
        "training.updates": (total("tensor.adam_step", "calls"), "count"),
        "training.model_of.s": (total("training.model_of"), "s"),
        "checkpoint.Checkpoint.content_hash.s": (total("checkpoint.Checkpoint.content_hash"), "s"),
    }
    for name in ("setup_s", "train_tok_s", "translate_tok_s", "request_p50_ms", "request_p95_ms"):
        out[f"trace.delta.{name}"] = (traced[name] - untraced[name], END_TO_END[name])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "pivotnmt" / "__init__.py").is_file():
        print(f"error: no pivotnmt source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    probe = tracing.Probe()
    probe.install()
    workload = workloads.WORKLOADS[args.workload](scale, args.seed, probe)
    failures = []
    try:
        setup_s, state, rates, measured = workloads.run(
            workload, scale.setup_repeats[args.workload], args.seconds
        )
        metrics = end_to_end(setup_s, rates, measured)
        if args.trace:
            tracer = tracing.Tracer(probe)
            tracer.install()
            try:
                probe.request = -1
                t0 = time.perf_counter()
                traced_state = workload.setup()
                measure_start = time.perf_counter()
                traced_setup_s = measure_start - t0
                traced = workload.measure(traced_state, args.seconds)
            finally:
                tracer.uninstall()
            if (traced_state.fingerprint, traced.fingerprint) != (state.fingerprint, measured.fingerprint):
                failures.append("the traced run built different models than the untraced run")
            traced_metrics = end_to_end(traced_setup_s, [traced_state.train_tok_s], traced)
            layer = per_layer(tracer, measure_start, traced_metrics, metrics)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    except workloads.GateError as e:
        print(f"gate failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        probe.uninstall()

    if measured.failed > scale.max_failed_frac * measured.attempted:
        failures.append(f"{measured.failed} of {measured.attempted} operations failed")
    if not measured.bleu >= scale.bleu_floor:
        failures.append(f"bleu {measured.bleu:.2f} below the floor {scale.bleu_floor}")
    for name, value in metrics.items():
        if name != "bleu" and not (math.isfinite(value) and value > 0):
            failures.append(f"{name} is {value}, not a positive number")

    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {END_TO_END[name]}")
    print(f"metric failed_frac {measured.failed / measured.attempted:.6g} ratio "
          f"(attempted {measured.attempted}, failed {measured.failed}; "
          f"{len(measured.latencies_s)} latency samples)")
    if args.trace:
        for name, (value, unit) in layer.items():
            print(f"layer {name} {value:.6g} {unit}")
    for f in failures:
        print(f"gate failed: {f}", file=sys.stderr)

    if args.trace:
        reported = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        reported = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": reported,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
