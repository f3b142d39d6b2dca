"""The S19 service layer: batching identity, swaps, shedding, updates.

The load-bearing claims:

* micro-batched answers are *bit-identical* to direct oracle point
  queries, under many concurrent clients and across shards;
* a generation swap during a live query storm never tears a read —
  every response matches the oracle of the generation it reports;
* a full shard queue sheds with a structured response instead of
  queueing unboundedly, and recovers afterwards;
* the write path classifies with the oracle's own thresholds:
  oracle-preserving updates run zero pipeline stages, structure-
  changing ones replay the tree-side prefix from the artifact cache,
  splice the per-edge stages and re-run only the sens stages;
* TCP JSON-lines round-trips the same dispatch path;
* mmap-shared shard oracles answer identically to in-memory ones.
"""

import argparse
import asyncio
import json
import time

import numpy as np
import pytest

from repro.baselines.seq_verify import verify_by_recompute
from repro.errors import ValidationError
from repro.graph.generators import known_mst_instance
from repro.oracle import build_oracle
from repro.service import (
    SensitivityService,
    ServiceClient,
    ServiceConfig,
    plan_shards,
    route,
)
from repro.service.loadgen import make_plan, run_inprocess


def run(coro):
    return asyncio.run(coro)


def make_graph(n=240, seed=11, shape="random"):
    g, _ = known_mst_instance(shape, n, extra_m=2 * n, rng=seed)
    return g


async def started_service(graph, name="default", **cfg_kw):
    cfg_kw.setdefault("shards", 3)
    cfg_kw.setdefault("batch_window_s", 0.001)
    svc = SensitivityService(ServiceConfig(**cfg_kw))
    svc.add_instance(name, graph)
    await svc.start()
    return svc


class TestShardPlan:
    def test_ranges_partition_edge_space(self):
        specs = plan_shards(1001, 4)
        assert specs[0].edge_lo == 0 and specs[-1].edge_hi == 1001
        for a, b in zip(specs, specs[1:]):
            assert a.edge_hi == b.edge_lo
        sizes = [len(s) for s in specs]
        assert max(sizes) - min(sizes) <= 1

    def test_route_hits_owner(self):
        specs = plan_shards(997, 5)
        for e in range(997):
            i = route(specs, e)
            assert specs[i].edge_lo <= e < specs[i].edge_hi

    def test_route_rejects_out_of_range(self):
        specs = plan_shards(10, 2)
        with pytest.raises(ValidationError):
            route(specs, 10)

    def test_more_shards_than_edges(self):
        specs = plan_shards(3, 8)
        assert sum(len(s) for s in specs) == 3


class TestBatchedBitIdentity:
    def test_concurrent_clients_match_point_oracle(self):
        g = make_graph()
        oracle = build_oracle(g, oracle_labels=True)
        rng = np.random.default_rng(5)
        q = 600
        edges = rng.integers(0, g.m, q)
        weights = rng.uniform(0.0, 2.0, q)
        ops = []
        for e in edges:
            if g.tree_mask[e]:
                ops.append(rng.choice(
                    ["survives", "sensitivity", "replacement_edge"]))
            else:
                ops.append(rng.choice(
                    ["survives", "sensitivity", "entry_threshold"]))

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)

            async def one(i):
                op = ops[i]
                kw = ({"weight": float(weights[i])}
                      if op == "survives" else {})
                return await client.call(op, edge=int(edges[i]), **kw)

            # 8 concurrent clients interleave their submissions so
            # micro-batches mix queries from different clients
            chunks = [list(range(w, q, 8)) for w in range(8)]

            results = [None] * q

            async def worker(idxs):
                for i in idxs:
                    results[i] = await one(i)

            await asyncio.gather(*(worker(c) for c in chunks))
            await svc.stop()
            return results

        results = run(scenario())
        for i, resp in enumerate(results):
            e = int(edges[i])
            assert resp["ok"], resp
            op = ops[i]
            if op == "survives":
                expect = oracle.survives(e, float(weights[i]))
            elif op == "sensitivity":
                expect = oracle.sensitivity(e)
            elif op == "replacement_edge":
                expect = oracle.replacement_edge(e)
            else:
                expect = oracle.entry_threshold(e)
            assert resp["result"] == expect, (op, e, resp, expect)

    def test_pipelined_loadgen_all_answered(self):
        g = make_graph()

        async def scenario():
            svc = await started_service(g, queue_depth=1 << 14)
            plan = make_plan({"default": g.m}, 5000, seed=3)
            stats = await run_inprocess(svc, plan, clients=8, pipeline=128)
            await svc.stop()
            return stats, svc.metrics()

        stats, metrics = run(scenario())
        assert stats.answered == 5000 and stats.errors == 0
        snaps = metrics["instances"]["default"]["shards"]
        assert sum(s["queries"] for s in snaps) == 5000
        assert any(s["batch_occupancy"] > 1.5 for s in snaps)

    def test_wrong_edge_kind_is_structured_error(self):
        g = make_graph()
        t = int(np.flatnonzero(g.tree_mask)[0])
        nt = int(np.flatnonzero(~g.tree_mask)[0])

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)
            a = await client.call("entry_threshold", edge=t)
            b = await client.call("replacement_edge", edge=nt)
            c = await client.call("sensitivity", edge=g.m + 5)
            await svc.stop()
            return a, b, c

        a, b, c = run(scenario())
        assert not a["ok"] and "not a non-tree edge" in a["error"]
        assert not b["ok"] and "not a tree edge" in b["error"]
        assert not c["ok"] and "out of range" in c["error"]


class TestGenerationSwap:
    def test_no_torn_reads_under_query_storm(self):
        g = make_graph(n=200, seed=21)
        oracle0 = build_oracle(g, oracle_labels=True)
        cover = oracle0.covering_edges()
        # two structure-changing updates (covering minimisers raised)
        movers = np.flatnonzero(~g.tree_mask & cover)[:2]
        rng = np.random.default_rng(9)
        q_edges = rng.integers(0, g.m, 4000)
        q_weights = rng.uniform(0.0, 2.0, 4000)

        async def scenario():
            svc = await started_service(g, shards=2,
                                        batch_window_s=0.0005,
                                        queue_depth=1 << 14)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracles = {0: oracle0}
            responses = []
            storm_done = asyncio.Event()

            async def storm():
                i = 0
                while not storm_done.is_set():
                    e = int(q_edges[i % len(q_edges)])
                    w = float(q_weights[i % len(q_weights)])
                    resp = await client.call("survives", edge=e, weight=w)
                    if resp.get("ok"):
                        responses.append((resp["generation"], e, w,
                                          resp["result"]))
                    i += 1

            storms = [asyncio.ensure_future(storm()) for _ in range(6)]
            await asyncio.sleep(0.05)
            for k, e in enumerate(movers):
                rep = await client.update(int(e), float(g.w[e]) + 3.0 + k)
                assert rep["action"] == "rebuilt", rep
                oracles[rep["generation"]] = inst.updater.oracle
                await asyncio.sleep(0.05)
            storm_done.set()
            await asyncio.gather(*storms)
            await svc.stop()
            return responses

        responses = run(scenario())
        gens = {gen for gen, *_ in responses}
        assert gens >= {0, 2}, f"storm missed the swaps: {gens}"
        # the updates moved at least one observable answer
        changed = any(
            True
            for gen, e, w, _ in responses
            if gen == 0
            for other_gen, other_e, other_w, other_r in responses
            if other_gen == 2 and other_e == e and other_w == w
        )
        assert changed or len(gens) > 1

    def test_every_answer_matches_its_generation(self):
        # replayed deterministically: answers must equal the oracle of
        # the generation each response reports — no mixing
        g = make_graph(n=180, seed=8)

        async def scenario():
            svc = await started_service(g, shards=2)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracles = {0: inst.updater.oracle}
            cover = inst.updater.oracle.covering_edges()
            mover = int(np.flatnonzero(~g.tree_mask & cover)[0])

            rng = np.random.default_rng(2)
            checks = []

            async def ask(e, w):
                resp = await client.call("survives", edge=int(e),
                                         weight=float(w))
                checks.append((resp["generation"], int(e), float(w),
                               resp["result"]))

            edges = rng.integers(0, g.m, 300)
            weights = rng.uniform(0.0, 2.0, 300)
            await asyncio.gather(*(ask(e, w)
                                   for e, w in zip(edges[:150], weights[:150])))
            rep = await client.update(mover, float(g.w[mover]) + 4.0)
            oracles[rep["generation"]] = inst.updater.oracle
            await asyncio.gather(*(ask(e, w)
                                   for e, w in zip(edges[150:], weights[150:])))
            await svc.stop()
            return checks, oracles

        checks, oracles = run(scenario())
        for gen, e, w, got in checks:
            assert got == oracles[gen].survives(e, w), (gen, e, w)


class TestLoadShedding:
    def test_full_queue_sheds_and_recovers(self):
        g = make_graph(n=120, seed=4)

        async def scenario():
            svc = await started_service(
                g, shards=1, queue_depth=8, max_batch=8,
                batch_window_s=0.25,
            )
            client = ServiceClient(svc)
            burst = await asyncio.gather(
                *(client.call("sensitivity", edge=i % g.m)
                  for i in range(64))
            )
            sheds = [r for r in burst if r.get("shed")]
            served = [r for r in burst if r.get("ok")]
            # after the burst drains the service accepts queries again
            again = await client.call("sensitivity", edge=0)
            metrics = await client.metrics()
            await svc.stop()
            return sheds, served, again, metrics

        sheds, served, again, metrics = run(scenario())
        assert sheds, "queue bound never shed"
        assert served, "shedding starved every query"
        assert len(sheds) + len(served) == 64
        assert again["ok"]
        shard0 = metrics["instances"]["default"]["shards"][0]
        assert shard0["shed"] == len(sheds)


class TestClientCancellation:
    def test_cancelled_query_does_not_poison_batch_mates(self):
        """Regression: a client that stops waiting (``asyncio.wait_for``
        timeout) leaves a cancelled future inside a live batch;
        ``set_result`` on it used to raise ``InvalidStateError``, and the
        per-op error handler then failed every co-batched healthy query
        of that op with a spurious ``internal`` error."""
        g = make_graph(n=120, seed=9)

        async def scenario():
            svc = await started_service(
                g, shards=1, max_batch=64, batch_window_s=0.1,
            )
            client = ServiceClient(svc)
            edges = [e for e in range(16)]

            async def impatient(e):
                # cancelled long before the 0.1s batching window closes
                try:
                    return await asyncio.wait_for(
                        client.call("sensitivity", edge=e), timeout=0.01)
                except asyncio.TimeoutError:
                    return {"timed_out": True}

            # the doomed query must enqueue *first*: only batch-mates
            # ordered after the cancelled future were poisoned
            first = asyncio.ensure_future(impatient(edges[0]))
            for _ in range(4):   # let wait_for's inner task reach submit
                await asyncio.sleep(0)
            rest = [asyncio.ensure_future(client.call("sensitivity", edge=e))
                    for e in edges[1:]]
            results = await asyncio.gather(first, *rest)
            metrics = await client.metrics()
            await svc.stop()
            return results, metrics

        results, _ = run(scenario())
        assert results[0] == {"timed_out": True}
        oracle = build_oracle(g)
        for e, resp in zip([e for e in range(16)][1:], results[1:]):
            assert resp.get("ok"), resp  # batch-mates must still succeed
            assert resp.get("error_kind") is None
            assert resp["result"] == pytest.approx(
                float(oracle.sensitivity_bulk(np.array([e]))[0]))


class TestUpdatePath:
    def test_preserving_update_runs_zero_stages(self):
        g = make_graph(n=200, seed=13)

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracle = inst.updater.oracle
            cover = oracle.covering_edges()
            e = int(np.flatnonzero(~g.tree_mask & ~cover)[0])
            old = float(g.w[e])
            rep = await client.update(e, old + 1.5)
            sens = await client.sensitivity(e)
            thr = await client.entry_threshold(e)
            metrics = await client.metrics()
            await svc.stop()
            return e, old, rep, sens, thr, metrics

        e, old, rep, sens, thr, metrics = run(scenario())
        assert rep["action"] == "patched" and rep["ok"]
        assert rep["stages_executed"] == 0 and rep["verification_reruns"] == 0
        assert rep["generation"] == 0  # no swap needed
        assert sens == (old + 1.5) - thr  # slack reflects the new price
        ups = metrics["instances"]["default"]["updates"]
        assert ups["preserving"] == 1 and ups["rebuilds"] == 0
        assert ups["stages_executed"] == 0

    def test_bridge_tree_edge_update_is_preserving(self):
        # a sparse instance: some tree edges are uncovered (bridges)
        g, _ = known_mst_instance("random", 80, extra_m=5, rng=2)

        async def scenario():
            svc = await started_service(g, shards=2)
            client = ServiceClient(svc)
            oracle = svc.instances["default"].updater.oracle
            bridges = np.flatnonzero(
                g.tree_mask & ~np.isfinite(oracle.threshold))
            e = int(bridges[0])
            rep = await client.update(e, float(g.w[e]) + 100.0)
            sens = await client.sensitivity(e)
            await svc.stop()
            return rep, sens

        rep, sens = run(scenario())
        assert rep["action"] == "patched" and rep["stages_executed"] == 0
        assert sens == float("inf")

    def test_structure_changing_update_rebuilds_incrementally(self):
        g = make_graph(n=200, seed=17)

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracle = inst.updater.oracle
            cover = oracle.covering_edges()
            e = int(np.flatnonzero(~g.tree_mask & cover)[0])
            rep = await client.update(e, float(g.w[e]) + 2.0)
            await svc.stop()
            return rep, inst

        rep, inst = run(scenario())
        assert rep["action"] == "rebuilt" and rep["generation"] == 1
        # the update is a one-op reprice batch: the tree-side prefix
        # replays from cache, the five per-edge stages are spliced from
        # the previous run (only the re-priced edge's rows recompute)
        # and just the four sens stages re-run
        assert sorted(rep["cached"]) == sorted(
            ["validate", "rooting", "dfs", "diameter", "clustering"])
        assert inst.updater.last_run.spliced_stages == [
            "lca", "adgraph", "labels", "pathmax", "decide"]
        assert rep["executed"] == [
            "sens-contract", "sens-cluster", "sens-unwind", "sens-finalize"]
        assert rep["stages_executed"] == 4
        assert rep["verification_reruns"] == 0
        # the rebuilt oracle matches a cold build on the new weights
        cold = build_oracle(inst.updater.graph, oracle_labels=True)
        warm = inst.updater.oracle
        np.testing.assert_array_equal(cold.threshold, warm.threshold)
        np.testing.assert_array_equal(cold.sens, warm.sens)

    def test_rejected_update_changes_nothing(self):
        g = make_graph(n=150, seed=19)

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            nt = int(np.flatnonzero(~g.tree_mask)[0])
            before = float(inst.updater.graph.w[nt])
            rep = await client.update(nt, 1e-9)  # below its entry threshold
            after = float(inst.updater.graph.w[nt])
            metrics = await client.metrics()
            await svc.stop()
            return rep, before, after, metrics

        rep, before, after, metrics = run(scenario())
        assert rep["action"] == "rejected" and not rep["ok"]
        assert not rep["survives"]
        assert before == after
        assert metrics["instances"]["default"]["updates"]["rejected"] == 1

    def test_updated_instance_still_serves_a_real_mst(self):
        g = make_graph(n=100, seed=23)

        async def scenario():
            svc = await started_service(g, shards=2)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracle = inst.updater.oracle
            cover = oracle.covering_edges()
            nt = np.flatnonzero(~g.tree_mask)
            for e in (int(np.flatnonzero(~g.tree_mask & ~cover)[0]),
                      int(np.flatnonzero(~g.tree_mask & cover)[0]),
                      int(nt[3])):
                await client.update(e, float(inst.updater.graph.w[e]) + 0.7)
            await svc.stop()
            return inst.updater.graph

        graph = run(scenario())
        assert verify_by_recompute(graph)


class TestTcpFrontDoor:
    def test_json_lines_roundtrip(self):
        g = make_graph(n=150, seed=29)

        async def scenario():
            svc = SensitivityService(ServiceConfig(
                shards=2, batch_window_s=0.001, port=0))
            svc.add_instance("default", g)
            await svc.start(serve_tcp=True)
            host, port = svc.tcp_address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(obj):
                writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            pong = await rpc({"op": "ping", "id": 1})
            desc = await rpc({"op": "instances"})
            t = int(np.flatnonzero(g.tree_mask)[0])
            ans = await rpc({"op": "survives", "edge": t, "weight": 0.1,
                             "id": "q1", "instance": "default"})
            bad = await rpc({"op": "nope"})
            garbled = None
            writer.write(b"{not json}\n")
            await writer.drain()
            garbled = json.loads(await reader.readline())
            bye = await rpc({"op": "shutdown"})
            await svc.serve_forever()
            await svc.stop()
            return pong, desc, ans, bad, garbled, bye

        pong, desc, ans, bad, garbled, bye = run(scenario())
        assert pong == {"ok": True, "result": "pong", "id": 1}
        assert desc["result"]["default"]["m"] == 449
        assert ans["ok"] and ans["result"] is True and ans["id"] == "q1"
        assert not bad["ok"]
        assert not garbled["ok"] and "bad request" in garbled["error"]
        assert bye == {"ok": True, "result": "bye"}

    def test_over_limit_line_is_a_structured_protocol_error(
            self, over_limit_line_refused):
        async def scenario():
            svc = SensitivityService(ServiceConfig(shards=2, port=0))
            svc.add_instance("default", make_graph(n=60, seed=3))
            await svc.start(serve_tcp=True)
            try:
                await over_limit_line_refused(*svc.tcp_address)
            finally:
                await svc.stop()

        run(scenario())


class TestRequestBoundaryValidation:
    def test_update_rejects_non_finite_weights(self):
        """``update`` refuses ±inf and NaN like ``update_batch`` does,
        before classification: nothing is patched or rebuilt."""
        g = make_graph(n=80, seed=31)
        tree = int(np.flatnonzero(g.tree_mask)[0])
        nontree = int(np.flatnonzero(~g.tree_mask)[0])

        async def scenario():
            svc = await started_service(g)
            upd = svc.instances["default"].updater
            before = upd.graph.w.copy()
            out = []
            for edge in (tree, nontree):
                for w in (float("-inf"), float("inf"), float("nan")):
                    out.append(await svc.handle_request(
                        {"op": "update", "edge": edge, "weight": w}))
            after, gen = upd.graph.w.copy(), upd.generation
            await svc.stop()
            return out, before, after, gen

        out, before, after, gen = run(scenario())
        for resp in out:
            assert resp == {"ok": False,
                            "error": "edge weights must be finite"}
        np.testing.assert_array_equal(after, before)
        assert gen == 0

    def test_overflowing_edge_index_is_a_validation_error(self):
        """JSON ``1e400`` parses to ``inf``; the query, update and batch
        paths answer with a validation error, not a leaked
        ``OverflowError``."""
        g = make_graph(n=80, seed=37)

        async def scenario():
            svc = SensitivityService(ServiceConfig(
                shards=2, batch_window_s=0.001, port=0))
            svc.add_instance("default", g)
            await svc.start(serve_tcp=True)
            host, port = svc.tcp_address
            reader, writer = await asyncio.open_connection(host, port)
            lines = [
                b'{"op":"sensitivity","edge":1e400}',
                b'{"op":"survives","edge":-1e400,"weight":1.0}',
                b'{"op":"update","edge":1e400,"weight":1.0}',
                b'{"op":"update_batch","ops":[{"kind":"reprice",'
                b'"edge":1e400,"weight":1.0}]}',
                b'{"op":"update_batch","ops":[{"kind":"remove",'
                b'"edge":"x"}]}',
            ]
            out = []
            for line in lines:
                writer.write(line + b"\n")
                await writer.drain()
                out.append(json.loads(await reader.readline()))
            writer.close()
            await svc.stop()
            return out

        q, s, u, b, b2 = run(scenario())
        for resp in (q, s, u):
            assert not resp["ok"]
            assert resp["error"].startswith("edge index must be an integer")
        for resp in (b, b2):
            assert not resp["ok"] and "error" not in resp
            assert resp["rejected_ops"] == [
                [0, "missing or non-integer edge id"]]


class TestMmapSharing:
    def test_mmap_shards_answer_identically(self, tmp_path):
        g = make_graph(n=160, seed=31)

        async def scenario(mmap_dir):
            svc = await started_service(g, shards=3, mmap_dir=mmap_dir)
            client = ServiceClient(svc)
            rng = np.random.default_rng(1)
            edges = rng.integers(0, g.m, 400)
            weights = rng.uniform(0.0, 2.0, 400)
            out = []
            for e, w in zip(edges, weights):
                out.append(await client.survives(int(e), float(w)))
                out.append(await client.sensitivity(int(e)))
            await svc.stop()
            return out, svc

        plain, _ = run(scenario(None))
        mapped, svc = run(scenario(str(tmp_path)))
        assert plain == mapped
        # the shards really did map a shared snapshot: each threshold
        # array is a zero-copy view over a read-only memmap
        inst = svc.instances["default"]
        for s in inst.shards:
            arr = s.oracle.threshold
            assert isinstance(arr, np.memmap) or isinstance(arr.base,
                                                            np.memmap)
            assert not arr.flags.owndata

    def test_preserving_update_on_mmap_shards(self, tmp_path):
        g = make_graph(n=140, seed=37)

        async def scenario():
            svc = await started_service(g, shards=2,
                                        mmap_dir=str(tmp_path))
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            cover = inst.updater.oracle.covering_edges()
            e = int(np.flatnonzero(~g.tree_mask & ~cover)[0])
            old = float(g.w[e])
            rep = await client.update(e, old + 2.0)
            sens = await client.sensitivity(e)
            thr = await client.entry_threshold(e)
            await svc.stop()
            return rep, sens, thr, old

        rep, sens, thr, old = run(scenario())
        assert rep["action"] == "patched"
        assert sens == (old + 2.0) - thr


class TestServeProcess:
    """`python -m repro serve` + loadgen over a real socket."""

    def test_serve_loadgen_shutdown(self):
        import os
        import subprocess
        import sys

        env = os.environ.copy()
        src = str((__import__("pathlib").Path(__file__)
                   .resolve().parents[1] / "src"))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shapes",
             "random,power_law", "--n", "200", "--shards", "2",
             "--port", "0", "--window-ms", "1"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("listening on"):
                    port = int(line.split()[2].rsplit(":", 1)[1])
                    break
            assert port, "server never reported its port"

            from repro.service.loadgen import make_plan, run_tcp

            plan = make_plan({"random": 599, "power_law": 599}, 800, seed=5)
            stats = run(run_tcp("127.0.0.1", port, plan, clients=4,
                                shutdown=True))
            assert stats.answered + stats.type_errors >= stats.answered > 0
            assert stats.errors == 0 and stats.qps > 0
            tail = proc.stdout.read()
            assert "served" in tail and "shed 0" in tail
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


    def test_rebuild_unlinks_superseded_snapshot(self, tmp_path):
        import os

        g = make_graph(n=120, seed=41)

        async def scenario():
            svc = await started_service(g, shards=2,
                                        mmap_dir=str(tmp_path))
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            cover = inst.updater.oracle.covering_edges()
            movers = np.flatnonzero(~g.tree_mask & cover)[:2]
            for k, e in enumerate(movers):
                rep = await client.update(
                    int(e), float(inst.updater.graph.w[e]) + 2.0 + k)
                assert rep["action"] == "rebuilt"
            # old generations still serve from already-mapped pages,
            # but only the latest snapshot file remains on disk
            ans = await client.sensitivity(int(movers[0]))
            path = inst.updater.snapshot_path
            digest = inst.updater.snapshot_digest
            await svc.stop()
            return ans, path, digest

        _, path, digest = run(scenario())
        snaps = sorted(os.listdir(tmp_path))
        # digest-addressed: one file, named by its own content hash
        assert snaps == [os.path.basename(path)]
        assert snaps == [f"default-{digest[:16]}.npz"]
        from repro.serialize import file_digest
        assert file_digest(path) == digest


class TestShutdownLatency:
    def test_stop_mid_window_is_prompt(self):
        """stop() issued while a batcher sits inside its fill window
        must cut the window short: the queued query still answers, and
        the whole shutdown lands well under window_s."""
        g = make_graph(n=120, seed=37)

        async def scenario():
            svc = await started_service(g, shards=1, batch_window_s=0.5)
            q = asyncio.get_running_loop().create_task(
                svc.query("sensitivity", 0))
            await asyncio.sleep(0.05)  # the worker is now mid-window
            t0 = time.perf_counter()
            await svc.stop()
            stopped_in = time.perf_counter() - t0
            return stopped_in, await q

        stopped_in, ans = run(scenario())
        assert ans["ok"]
        assert stopped_in < 0.25  # far below the 0.5s fill window


class TestLoadgenHandshake:
    """The discovery handshake must never hang the load generator."""

    def _args(self, port, timeout=0.5):
        return argparse.Namespace(host="127.0.0.1", port=port, queries=10,
                                  clients=2, seed=0, connect_timeout=timeout,
                                  shutdown=False)

    def test_mute_server_times_out_with_exit_1(self, capsys):
        from repro.service.loadgen import _main_async

        async def scenario():
            async def mute(reader, writer):
                await reader.read()  # consume everything, answer nothing
                writer.close()

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _main_async(self._args(port))
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()) == 1
        err = capsys.readouterr().err
        assert "did not answer the instances handshake" in err

    def test_slammed_connection_exits_1(self, capsys):
        from repro.service.loadgen import _main_async

        async def scenario():
            async def slam(reader, writer):
                writer.close()

            server = await asyncio.start_server(slam, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _main_async(self._args(port))
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()) == 1
        err = capsys.readouterr().err
        assert "closed the connection during the instances handshake" in err
