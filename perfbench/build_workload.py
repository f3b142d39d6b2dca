"""The ``build`` workload: cold oracle builds in-process, no service.

Each iteration cold-builds ``build_oracle`` on two seeded graphs of the
same size (n = 32768, m = 98303): a random recursive tree (small D_T)
and a backbone tree with D_T = 2048. The pipeline's cost is
O(log D_T) rounds while its per-row work is the same, so the two
builds separate round cost from row cost. ``main_*`` are the builds of
the random graph, ``side_*`` those of the backbone graph.
"""

from __future__ import annotations

import os
import time

import numpy as np

import common
import tracer as tracing

GRAPHS = ("random", "backbone")


def run_build(seed: int, seconds: float, trace: bool,
              size: common.Size) -> common.Outcome:
    from repro.baselines.seq_sensitivity import sequential_sensitivity
    from repro.oracle import build_oracle

    out = common.Outcome()
    generate_s = []
    for _ in range(size.setups):
        t0 = time.perf_counter()
        graphs = {name: common.make_graph(name, size.build_n, seed, salt=i,
                                          diameter=size.build_diameter)
                  for i, name in enumerate(GRAPHS)}
        generate_s.append(time.perf_counter() - t0)

    tr = tracing.install(tracing.Tracer()) if trace else None
    cpu = common.CpuWindow({"driver": os.getpid()})
    walls = {name: [] for name in GRAPHS}
    iterations, rounds, first = [], set(), None
    start = time.perf_counter()
    # start an iteration only if it should end inside the window
    while not iterations or (time.perf_counter() - start + iterations[-1]
                             <= seconds):
        t0 = time.perf_counter()
        built = {}
        for name in GRAPHS:
            t = time.perf_counter()
            built[name] = build_oracle(graphs[name])
            walls[name].append(time.perf_counter() - t)
        iterations.append(time.perf_counter() - t0)
        rounds.add(tuple(built[name].precompute_rounds for name in GRAPHS))
        # every cold build of a graph must give the same oracle
        if first is None:
            first = built
        else:
            out.count(0, sum(not np.array_equal(built[k].sens, first[k].sens)
                             for k in GRAPHS))
        out.count(len(GRAPHS), 0)
    window = time.perf_counter() - start
    shares = cpu.shares()
    if tr is not None:
        tr.uninstall()

    # correctness gate, outside the window: bit-identical to the
    # independent sequential (Tarjan-style) sensitivity baseline
    for name in GRAPHS:
        seq = sequential_sensitivity(graphs[name])
        out.count(1, not np.array_equal(first[name].sens, seq.sensitivity))
    out.count(1, len(rounds) != 1)

    main, side = walls["random"], walls["backbone"]
    out.e2e = {
        "setup_s": common.median(generate_s),
        "build_s": common.median(iterations),
        "build_rounds": sum(next(iter(rounds))),
        "peak_rss_mb": common.self_peak_rss_kib() / 1024.0,
        "main_rate": len(main) / window,
        "main_p50_ms": 1e3 * common.pct(main, 50),
        "main_mean_ms": 1e3 * sum(main) / len(main),
        "side_rate": len(side) / window,
        "side_p50_ms": 1e3 * common.pct(side, 50),
        "side_mean_ms": 1e3 * sum(side) / len(side),
    }
    # the driver is the program here, not a load generator: a busy core
    # is the workload itself, so no saturation check applies
    # in-process and sequential: no service, no load generator
    out.bypass("batching.", "wire.", "router.", "updates.", "stream.",
               "shards.", "proc.front.", "proc.worker", "driver.encode_s")
    out.layers["graph.generate_s"] = common.median(generate_s)
    out.layers["proc.driver.cpu_share"] = shares["driver"]
    if tr is not None:
        out.layers.update(tracing.program_layers(tr))
        out.waterfall("build iterations (sum of wall times)", sum(iterations),
                      tracing.waterfall_rows(tr))
    out.samples = {"iterations": len(iterations), "setups": size.setups,
                   "rounds": {k: r for k, r in zip(GRAPHS, next(iter(rounds)))}}
    out.params = {"n": size.build_n, "m": graphs["random"].m,
                  "graphs": {"random": "random recursive tree",
                             "backbone": f"backbone, D_T={size.build_diameter}"},
                  "setups": size.setups}
    return out
