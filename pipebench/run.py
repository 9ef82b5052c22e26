#!/usr/bin/env python3
"""Seeded pipeline benchmark of xpred's production default configuration.

    python3 pipebench/run.py --workload nitf_churn --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds pipebench/ (and the libraries in
src/) in Release under $CARGO_TARGET_DIR or .bench_build, runs one
workload, checks every match set against a reference, prints each
metric with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and checks the workload's shape against shapes.json (exit 5 when a
value is out of its tolerance).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

BINARY = "pipeline_bench"
TIMEOUT_S = 170
# docs_per_s is the median over windows of this much pipeline time.
RATE_WINDOW_S = 1.0


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "pipebench")


def build(out):
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", BINARY, "-j3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def metric(value, unit):
    return {"value": value, "unit": unit}


def batch_s(raw):
    """Per measured batch, its pipeline time in seconds, steal taken out
    per window of RATE_WINDOW_S (see stats.steal_free)."""
    return stats.steal_free([w / 1e3 for w in raw["batch_wall_ms"]],
                            raw["batch_busy_ticks"], raw["batch_steal_ticks"],
                            RATE_WINDOW_S)


def setup_s(raw):
    """Per set-up, its time with that set-up's steal share taken out."""
    return [s * (1.0 - (st / b if b > 0 else 0.0)) for s, b, st in
            zip(raw["setup_s"], raw["setup_busy_ticks"], raw["setup_steal_ticks"])]


def steal_share(raw):
    """The measured stream's steal share: steal over busy ticks."""
    return sum(raw["batch_steal_ticks"]) / max(1, sum(raw["batch_busy_ticks"]))


def doc_latency_ms(raw):
    """Per-document latency: each document gets its batch's time."""
    return [w * 1e3 for w in batch_s(raw) for _ in range(raw["batch_docs"])]


def end_to_end(raw):
    lat = doc_latency_ms(raw)
    vis = raw["writer"]["visible_ms"]
    subs = raw["descriptors"]["subscriptions"]
    return {
        "docs_per_s": metric(stats.windowed_rate(
            batch_s(raw), raw["batch_docs"], RATE_WINDOW_S), "docs/s"),
        "doc_p50_ms": metric(stats.percentile(lat, 0.50), "ms"),
        "doc_p95_ms": metric(stats.percentile(lat, 0.95), "ms"),
        "setup_s": metric(statistics.median(setup_s(raw)), "s"),
        "index_bytes_per_sub": metric(raw["index_bytes"] / subs, "B"),
        "peak_rss_mb": metric(raw["peak_rss_mib"], "MiB"),
        "visible_p50_ms": metric(stats.percentile(vis, 0.50), "ms"),
        "visible_p95_ms": metric(stats.percentile(vis, 0.95), "ms"),
    }


def per_layer(raw):
    s = raw["spans"]
    r = raw["replay"]
    ex = raw["exec"]
    w = raw["writer"]
    docs = r["docs"]
    paths = r["processed_paths"]

    def per(name, count, scale):
        return s[name]["ns"] / count / scale

    filter_ns = s["core.begin"]["ns"] + s["core.path"]["ns"] + s["core.collect"]["ns"]
    expression_ns = stats.self_time(
        s["core.path"]["ns"], [s["core.encode"]["ns"], s["core.predicate"]["ns"]])
    if "epochs_published" in w:  # live: the epoch manager's stats()
        ops_per_publish = w["ops_applied"] / max(1, w["epochs_published"])
        retire_waits, spins = w["retire_waits"], w["retire_wait_spins"]
    else:  # frozen: ops added per probe FilterBatch; nothing to retire
        ops_per_publish = statistics.mean(w["ops_per_publish"])
        retire_waits, spins = 0, 0
    return {
        "xml.parse_us_per_doc": metric(per("xml.parse", s["xml.parse"]["count"], 1e3), "us"),
        "xml.extract_us_per_doc": metric(per("xml.extract", docs, 1e3), "us"),
        "xml.paths_per_doc": metric(r["paths"] / docs, "count"),
        "xpath.parse_us_per_expr": metric(per("xpath.parse", s["xpath.parse"]["count"], 1e3), "us"),
        "core.add_us_per_expr": metric(per("core.add", s["core.add"]["count"], 1e3), "us"),
        "core.encode_ns_per_path": metric(per("core.encode", paths, 1), "ns"),
        "core.predicate_ns_per_path": metric(per("core.predicate", paths, 1), "ns"),
        "core.predicate_hits_per_path": metric(r["predicate_hits"] / paths, "count"),
        "core.expression_ns_per_path": metric(expression_ns / paths, "ns"),
        "core.collect_us_per_doc": metric(per("core.collect", docs, 1e3), "us"),
        "core.filter_us_per_doc": metric(filter_ns / docs / 1e3, "us"),
        "core.expression_frac": metric(expression_ns / filter_ns, "ratio"),
        "core.predicate_frac": metric(s["core.predicate"]["ns"] / filter_ns, "ratio"),
        "core.matches_per_doc": metric(r["matches"] / docs, "count"),
        "core.distinct_predicates": metric(raw["descriptors"]["distinct_predicates"], "count"),
        "core.index_bytes": metric(raw["index_bytes"], "B"),
        "exec.batch_ms": metric(statistics.median(ex["batch_ms"]), "ms"),
        "exec.busy_frac": metric(statistics.mean(ex["busy_frac"]), "ratio"),
        "exec.steals_per_batch": metric(statistics.mean(ex["steals_per_batch"]), "count"),
        "exec.driver_parse_frac": metric(statistics.mean(ex["driver_parse_frac"]), "ratio"),
        "epoch.subscribe_us": metric(statistics.median(w["subscribe_us"]), "us"),
        "epoch.publish_ms": metric(statistics.median(w["publish_ms"]), "ms"),
        "epoch.ops_per_publish": metric(ops_per_publish, "count"),
        "epoch.retire_waits": metric(retire_waits, "count"),
        "epoch.retire_wait_spins": metric(spins, "count"),
        "epoch.writer_lag_ms": metric(stats.percentile(w["lag_ms"], 0.95), "ms"),
        "trace_overhead_frac": metric(raw["trace_overhead_frac"], "ratio"),
    }


def print_registry_cross_check(raw):
    """The engine's own stage totals beside the outside-timed layers,
    both in us per document over the same replayed documents."""
    reg = raw["registry"]
    x = raw["xcheck_spans"]
    n = max(1, reg["docs"])

    def us(name):
        return x[name]["ns"] / n / 1e3

    expression = stats.self_time(
        x["core.path"]["ns"], [x["core.encode"]["ns"], x["core.predicate"]["ns"]])
    rows = [
        ("parse", us("xml.parse"), "not separated (booked under encode by FilterXml only)"),
        ("extract", us("xml.extract"), "not separated (booked under encode)"),
        ("encode", us("core.encode"), reg["encode_us"] / n),
        ("predicate", us("core.predicate"), reg["predicate_us"] / n),
        ("expression", expression / n / 1e3, reg["expression_us"] / n),
        ("collect", us("core.collect"), reg["collect_us"] / n),
    ]
    print(f"# registry cross-check, us/doc over the same {reg['docs']} documents")
    for layer, outside, registry in rows:
        shown = registry if isinstance(registry, str) else f"{registry:.1f}"
        print(f"#   {layer:<10} outside {outside:10.1f}   registry {shown}")


def check_shape(workload, raw, layers):
    """Held-out-seed check: the run reproduces the workload's shape."""
    with open(os.path.join(HERE, "shapes.json")) as f:
        shape = json.load(f)["workloads"][workload]
    got = {
        "match_share": raw["descriptors"]["match_share"],
        "paths_per_doc": raw["descriptors"]["paths_per_doc"],
        "expression_frac": layers["core.expression_frac"]["value"],
    }
    ok = True
    for key, (want, tolerance) in shape.items():
        good = abs(got[key] - want) <= tolerance * want
        ok = ok and good
        print(f"# shape {key}: {got[key]:.4f} vs {want:.4f} "
              f"(+-{tolerance:.0%}) {'ok' if good else 'OUT OF TOLERANCE'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("pipebench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, f"spans-{args.workload}-{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pipebench: {BINARY} exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"pipebench: {BINARY} exited {proc.returncode}", file=sys.stderr)
        return 4
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        metrics = per_layer(raw) if args.trace else end_to_end(raw)
    except stats.TooFewSamples as e:
        print(f"pipebench: {e}; run longer", file=sys.stderr)
        return 6
    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0 and raw["checked_docs"] > 0
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"threads={raw['threads']} batch={raw['batch_docs']} docs={raw['docs']} "
          f"measured_s={raw['measured_s']:.3f} latency_samples={len(doc_latency_ms(raw))} "
          f"visible_samples={len(raw['writer']['visible_ms'])} "
          f"writer_ops_per_s={raw['writer']['ops_per_s']:g}")
    walls_s = [w / 1e3 for w in raw["batch_wall_ms"]]
    print(f"# host steal share {steal_share(raw):.4f}; with steal left in: "
          f"docs_per_s {stats.windowed_rate(walls_s, raw['batch_docs'], RATE_WINDOW_S):.4f}, "
          f"setup_s {statistics.median(raw['setup_s']):.4f}")
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:14.4f} {m['unit']}")
    print(f"{'failed_frac':<30} {failed / attempted:14.4f} ratio "
          f"({failed} of {attempted} ops; {raw['checked_docs']} docs checked)")
    if raw["first_divergence"]:
        print(f"# first divergence: {raw['first_divergence']}")
    print("# descriptors " + json.dumps(raw["descriptors"], sort_keys=True))
    shape_ok = True
    if args.trace:
        print_registry_cross_check(raw)
        shape_ok = check_shape(args.workload, raw, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if shape_ok else 5


if __name__ == "__main__":
    sys.exit(main())
