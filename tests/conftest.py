"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.mpc import DistributedRuntime, LocalRuntime, MPCConfig


@pytest.fixture
def rt() -> LocalRuntime:
    """A fresh local runtime."""
    return LocalRuntime(MPCConfig(seed=1234))


@pytest.fixture
def dist_rt() -> DistributedRuntime:
    """A message-level runtime sized for small test tables."""
    return DistributedRuntime(MPCConfig(delta=0.6, seed=1234),
                              total_words_hint=20_000)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(98765)


def make_local(seed: int = 1234) -> LocalRuntime:
    return LocalRuntime(MPCConfig(seed=seed))


def make_dist(hint: int = 20_000, seed: int = 1234) -> DistributedRuntime:
    return DistributedRuntime(MPCConfig(delta=0.6, seed=seed),
                              total_words_hint=hint)


async def _over_limit_line_refused(host: str, port: int) -> None:
    """Pipeline a ping and a JSON line past asyncio's 64 KiB line limit:
    the door answers the ping, refuses the long line with a structured
    ``protocol`` error, then closes cleanly with no unhandled exception
    reaching the event loop."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, ctx: errors.append(ctx))
    reader, writer = await asyncio.open_connection(host, port)
    pad = "x" * (70 * 1024)
    writer.write(b'{"op": "ping", "id": 1}\n'
                 + json.dumps({"op": "ping", "pad": pad}).encode() + b"\n")
    await writer.drain()
    pong = json.loads(await reader.readline())
    refused = json.loads(await reader.readline())
    rest = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    await asyncio.sleep(0.05)  # let the handler task finish
    assert pong == {"ok": True, "result": "pong", "id": 1}
    assert refused["ok"] is False
    assert refused["error_kind"] == "protocol"
    assert rest == b""
    assert errors == []


@pytest.fixture
def over_limit_line_refused():
    return _over_limit_line_refused
