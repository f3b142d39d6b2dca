"""The repo benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload build|fleet_read|churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that records spans around the
program's public calls and prints the per-layer metrics, a waterfall
of time per layer, and the tracing overhead against the newest
untraced run of the same code. Either way answers are checked, a
human-readable summary goes first, and the last stdout line is the
JSON result. Run records are appended to ``.perfbench/runs.jsonl``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Above this CPU share (1.0 = one core) the driver, not the program,
#: limits the load, and the run is marked invalid.
DRIVER_SATURATED = 0.9
#: Traced runs: span self times must cover the measured wall to within
#: this share, or the run is not correct.
ACCOUNTING_GATE = 0.10


def _overhead(workload: str, traced: dict, src_sha: str) -> dict:
    """Traced minus untraced, per end-to-end metric."""
    base = common.latest_untraced(workload, src_sha)
    if base is None:
        print("tracing overhead: no untraced run of this code recorded in "
              "this checkout yet")
        return {}
    rows, out = [], {}
    for name, value in traced.items():
        ref = base["e2e"].get(name)
        if ref is None:   # recorded before the metric existed
            continue
        out[name] = value - ref
        rows.append([name, f"{ref:.4g}", f"{value:.4g}", f"{value - ref:+.4g}",
                     f"{100 * (value - ref) / ref:+.1f}%" if ref else "-"])
    print(f"tracing overhead (untraced run: seed {base['seed']}):")
    print(common.table(rows, ["metric", "untraced", "traced", "delta", "rel"]))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(common.SIZES), default="full",
                   help="tiny: the self-test's seconds-long variant")
    args = p.parse_args(argv)

    spec = common.load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    common.use_checkout_paths()
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {common.SRC}: {exc}",
              file=sys.stderr)
        return 2
    import build_workload
    import serving

    size = common.SIZES[args.size]
    trace = bool(args.trace)
    if args.workload == "build":
        out = build_workload.run_build(args.seed, args.seconds, trace, size)
    else:
        out = serving.run_serving(args.workload, args.seed, args.seconds,
                                  trace, size)

    valid = out.driver_share < DRIVER_SATURATED
    if not valid:
        print(f"INVALID RUN: the driver used {out.driver_share:.2f} of a core "
              f"(limit {DRIVER_SATURATED}); it measured the load generator")
    correct = valid and out.failed == 0
    record = common.run_record(args.workload, args.seed, args.seconds, trace,
                               args.size, out.params)
    record.update(e2e=out.e2e, samples=out.samples, attempted=out.attempted,
                  failed=out.failed, driver_cpu_share=out.driver_share,
                  valid=valid, correct=correct)

    print(f"{args.workload}: seed {args.seed}, {out.attempted} checked "
          f"operations, {out.failed} failed; samples {out.samples}")
    print(common.table([[d["name"], f"{out.e2e[d['name']]:.6g}", d["unit"]]
                        for d in spec["end_to_end"]],
                       ["end-to-end" + (" (traced)" if trace else ""),
                        "value", "unit"]))
    if trace:
        layers = dict(out.layers)
        layers["failed_frac"] = out.failed / max(out.attempted, 1)
        unattributed = out.wall_s - sum(s for _, s in out.rows)
        rows = [[label, f"{s:.4f}", f"{100 * s / out.wall_s:.1f}%"]
                for label, s in out.rows + [("(unattributed)", unattributed)]]
        print(f"{'waterfall: time per layer' if out.gated else 'CPU per process'}"
              f" against {out.wall_label} = {out.wall_s:.4f} s")
        print(common.table(rows, ["layer" if out.gated else "process",
                                  "seconds", "share"]))
        if out.gated:
            share = out.accounted_share
            accounted = abs(1 - share) <= ACCOUNTING_GATE
            print(f"per-layer time accounts for {100 * share:.1f}% of the "
                  f"measured wall ({'meets' if accounted else 'MISSES'} the "
                  f"{100 * ACCOUNTING_GATE:.0f}% gate)")
            correct = correct and accounted
            record.update(accounted_share=share, correct=correct)
        else:
            print("no per-layer accounting: the workers run outside the "
                  "tracer, so the accounting gate does not apply")
        record.update(layers=layers,
                      overhead=_overhead(args.workload, out.e2e,
                                         record["src_sha256"]))
        declared, values = spec["per_layer"], layers
    else:
        declared, values = spec["end_to_end"], out.e2e
    common.append_record(record)
    print(common.result_line(correct, out.attempted, out.failed, values,
                             declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
