"""The warm path over the wire, the ``timeout`` field, and a frame fuzzer.

A plan the service has admitted and holds in its report LRU is answered
at admission, on the event loop: one ``estimate`` frame each way, no
executor hop, no queue and no flush, behind exactly the gates a miss
meets, and its reply is built around the report bytes cached with the
LRU entry.  ``gather`` and ``estimate`` accept only a finite ``timeout``
>= 0 and count anything else as a protocol error.  Whatever bytes
arrive, the frame decoders answer with dicts or :class:`FrameError`,
and a frame built around cached bytes decodes as the plain one does.
"""

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.net.client as client_module
import repro.net.server as server_module
from repro.api import build_plan
from repro.api.plan import report_to_dict
from repro.faults import Deadline
from repro.net import (
    EstimateClient,
    EstimateServer,
    FrameError,
    RateLimited,
    Rejection,
    RemoteError,
    ServerConfig,
    TenantSpec,
    decode_frames,
    encode_frame,
)
from repro.net.protocol import (
    PROTOCOL_VERSION,
    EncodedJSON,
    read_frame,
    write_frame,
)
from repro.serve.service import CachedReport


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 120))


def _server_config(**kw):
    kw.setdefault("workers", 0)
    kw.setdefault("disk_cache", False)
    kw.setdefault("warming", False)
    return ServerConfig(**kw)


WARM = build_plan("HELR")
COLD = build_plan("HELR", bandwidth_gbs=77.0)


def _counting(calls, write):
    async def counted(writer, payload, **kw):
        calls.append(payload.get("op", "reply"))
        await write(writer, payload, **kw)
    return counted


async def _http_post(port, path, body):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(body).encode()
    writer.write(f"POST {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n"
                 f"Connection: close\r\n\r\n".encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload)


class TestWarmEstimate:
    def test_one_request_frame_and_one_reply_frame(self, monkeypatch):
        sent, replied = [], []

        async def main():
            async with EstimateServer(_server_config()) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    await cli.estimate(WARM)
                    monkeypatch.setattr(client_module, "write_frame",
                                        _counting(sent, write_frame))
                    monkeypatch.setattr(server_module, "write_frame",
                                        _counting(replied, write_frame))
                    return await cli.estimate(WARM)

        report = run(main())
        assert report == WARM.run()
        assert sent == ["estimate"]
        assert replied == ["reply"]

    def test_no_executor_call(self):
        async def main():
            loop = asyncio.get_running_loop()
            calls = []
            original = loop.run_in_executor

            def spy(executor, func, *args):
                calls.append(getattr(func, "__name__", repr(func)))
                return original(executor, func, *args)

            async with EstimateServer(_server_config()) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    await cli.estimate(WARM)
                    loop.run_in_executor = spy
                    try:
                        await cli.estimate(COLD)
                        cold = list(calls)
                        calls.clear()
                        await cli.estimate(WARM)
                        await cli.estimate(COLD)
                    finally:
                        del loop.run_in_executor
            return cold, calls

        cold, warm = run(main())
        # The spy sees the miss's hops, so an empty list means something.
        assert "admit" in cold and "gather" in cold
        assert warm == []

    def test_hits_compute_nothing_and_count_as_memory_hits(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    first = await cli.estimate(WARM)
                    before = dict(server.service.stats.as_row())
                    hits = [await cli.estimate(WARM) for _ in range(5)]
                    after = server.service.stats.as_row()
                    tenant = server.registry.authenticate(None)
                    status = await cli.status()
                    return first, hits, before, after, tenant, status

        first, hits, before, after, tenant, status = run(main())
        assert first == WARM.run() and all(h == first for h in hits)
        assert after["computed"] == before["computed"] == 1
        assert after["memory_hits"] == before["memory_hits"] + 5
        assert after["submitted"] == before["submitted"] + 5
        row = status["server"]
        assert row["accepted"] == row["completed"] == row["gathered"] == 6
        assert row["pending"] == 0 and row["failed"] == 0
        assert tenant.inflight == 0 and tenant.completed == 6
        assert status["warming"]["observed"] == 6

    def test_hot_submit_yields_a_resolved_ticket_that_gathers(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    await cli.estimate(WARM)
                    ticket = await cli.submit(WARM)
                    pending = (await cli.status())["server"]["pending"]
                    reports = await cli.gather([ticket])
                    with pytest.raises(RemoteError, match="unknown ticket"):
                        await cli.gather([ticket])
                    return pending, reports

        pending, reports = run(main())
        assert pending == 0
        assert reports == [WARM.run()]

    def test_http_estimate_returns_the_same_report(self):
        async def main():
            async with EstimateServer(_server_config(http_port=0)) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    framed = await cli.estimate(WARM)
                    computed = server.service.stats.computed
                    status, payload = await _http_post(
                        server.http_port, "/v1/estimate", WARM.to_dict())
                    return (framed, computed, status, payload,
                            server.service.stats.computed)

        framed, computed, status, payload, computed_after = run(main())
        assert status == 200 and payload["digest"] == WARM.digest
        assert payload["report"] == report_to_dict(framed) \
            == report_to_dict(WARM.run())
        assert computed_after == computed == 1


class TestWarmRefusals:
    """A warm plan meets every gate a miss meets, in the same order."""

    @staticmethod
    def _refusals(config, prepare, deadline=None):
        """The Rejection kinds of a warm and a cold plan, and the counters
        they moved, on a server whose dispatcher never starts."""
        async def main():
            server = EstimateServer(config)
            tenant = server.registry.authenticate(
                config.tenants[0].token if config.tenants else None)
            try:
                server.service.service.estimate(WARM)
                prepare(server, tenant)
                before = server.stats.as_row()
                kinds = []
                for plan in (WARM, COLD):
                    with pytest.raises(Rejection) as excinfo:
                        await server.admit_and_submit(tenant, plan,
                                                      deadline=deadline)
                    kinds.append(excinfo.value.kind)
                after = server.stats.as_row()
                moved = {k: after[k] - before[k] for k in after
                         if after[k] != before[k]}
                return kinds, moved, server.service.stats.as_row()
            finally:
                server.service.close()

        return run(main())

    def test_the_unrefused_warm_plan_is_resolved_at_admission(self):
        async def main():
            server = EstimateServer(_server_config())
            tenant = server.registry.authenticate(None)
            try:
                server.service.service.estimate(WARM)
                warm = await server.admit_and_submit(tenant, WARM)
                cold = await server.admit_and_submit(tenant, COLD)
                return warm.resolved, cold.resolved, tenant.inflight
            finally:
                server.service.close()

        assert run(main()) == (True, False, 1)

    def test_rate_limited(self):
        config = _server_config(
            tenants=(TenantSpec(name="t", token="s", rate=0.001, burst=1),))

        def drain_bucket(server, tenant):
            assert tenant.bucket.try_take() == 0

        kinds, moved, service = self._refusals(config, drain_bucket)
        assert kinds == ["rate", "rate"]
        assert moved == {"rejected_rate": 2}
        assert service["memory_hits"] == 0

    def test_draining(self):
        def drain(server, tenant):
            server._draining = True

        kinds, moved, _ = self._refusals(_server_config(), drain)
        assert kinds == ["shutdown", "shutdown"]
        assert moved == {"rejected_shutdown": 2}

    def test_expired_deadline(self):
        kinds, moved, _ = self._refusals(
            _server_config(), lambda server, tenant: None,
            deadline=Deadline.after(-1.0))
        assert kinds == ["deadline_exceeded", "deadline_exceeded"]
        assert moved == {"rejected_deadline": 2}

    def test_over_quota(self):
        config = _server_config(
            tenants=(TenantSpec(name="t", token="s", max_inflight=1),))

        def fill_quota(server, tenant):
            tenant.inflight = 1

        kinds, moved, _ = self._refusals(config, fill_quota)
        assert kinds == ["quota", "quota"]
        assert moved == {"rejected_quota": 2}

    def test_rate_limit_over_the_wire(self):
        async def main():
            config = _server_config(tenants=(
                TenantSpec(name="t", token="s", rate=0.001, burst=1),))
            async with EstimateServer(config) as server:
                async with EstimateClient("127.0.0.1", server.port,
                                          token="s") as cli:
                    await cli.estimate(WARM)
                    with pytest.raises(RateLimited):
                        await cli.estimate(WARM)
                    return server.service.stats.memory_hits

        assert run(main()) == 0


# -- the ``timeout`` field ----------------------------------------------------------

BAD_TIMEOUTS = ["abc", [1], float("nan"), -5, float("inf"), True, {}]


async def _raw_request(port, frames):
    """Send raw frames after a hello; return the replies in order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        replies = []
        for frame in [{"op": "hello"}] + frames:
            await write_frame(writer, {"v": PROTOCOL_VERSION, "id": 1,
                                       **frame})
            replies.append(await read_frame(reader))
        return replies[1:]
    finally:
        writer.close()


class TestWaitTimeout:
    @pytest.mark.parametrize("op", ["gather", "estimate"])
    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS,
                             ids=["str", "list", "nan", "negative", "inf",
                                  "bool", "object"])
    def test_malformed_timeout_is_a_counted_protocol_error(self, op,
                                                           timeout):
        async def main():
            async with EstimateServer(_server_config()) as server:
                frame = {"op": op, "timeout": timeout,
                         "tickets": ["t1"], "plan": WARM.to_dict()}
                [reply] = await _raw_request(server.port, [frame])
                return reply, server.stats

        reply, stats = run(main())
        assert not reply["ok"]
        assert reply["error"]["kind"] == "protocol"
        assert "timeout" in reply["error"]["message"]
        assert stats.protocol_errors == 1
        assert stats.accepted == 0  # refused before admission

    def test_finite_timeouts_are_accepted(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                frames = [{"op": "estimate", "plan": WARM.to_dict(),
                           "timeout": timeout}
                          for timeout in (30, 2.5, 10 ** 400)]
                frames.append({"op": "submit", "plan": WARM.to_dict()})
                replies = await _raw_request(server.port, frames)
                ticket = replies[-1]["ticket"]
                replies += await _raw_request(server.port, [
                    {"op": "gather", "tickets": [ticket], "timeout": 0}])
                return replies, server.stats

        replies, stats = run(main())
        assert all(reply["ok"] for reply in replies)
        assert replies[0]["report"] == report_to_dict(WARM.run())
        assert replies[-1]["results"][0]["ok"]
        assert stats.protocol_errors == 0


# -- frame fuzzer -------------------------------------------------------------------

def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_bodies = st.one_of(
    st.binary(max_size=64),
    _json_values.map(lambda v: json.dumps(v).encode()),
    _json_values.map(lambda v: json.dumps(v).encode()[:-1]),
)
_streams = st.one_of(
    st.binary(max_size=256),
    st.lists(_bodies.map(_framed), max_size=4).map(b"".join),
    st.tuples(st.lists(_bodies.map(_framed), max_size=3).map(b"".join),
              st.binary(max_size=8)).map(b"".join),
)


def _read_all(data: bytes):
    """read_frame over ``data`` until EOF: (frames, raised FrameError?)."""
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return frames, False
                frames.append(frame)
        except FrameError:
            return frames, True

    return asyncio.run(main())


class TestFrameFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_streams)
    @example(_framed(b"[" * 100_000))
    @example(_framed(b"1" * 5000))
    @example(_framed(b"\xff\xfe"))
    @example(b"\xff\xff\xff\xff")
    @example(_framed(b'{"a": NaN}') + b"\x00\x00")
    def test_bytes_decode_to_dicts_or_raise_frame_error(self, data):
        try:
            frames, rest = decode_frames(data)
            failed = False
        except FrameError:
            frames, rest, failed = None, None, True
        read, read_failed = _read_all(data)
        assert all(isinstance(frame, dict) for frame in read)
        if failed:
            assert read_failed
            return
        assert all(isinstance(frame, dict) for frame in frames)
        # The two decoders agree; a tail decode_frames keeps for later is
        # a stream read_frame finds cut short.
        assert repr(read) == repr(frames)
        assert read_failed == bool(rest)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _json_values, max_size=5))
    def test_encoded_payloads_round_trip(self, payload):
        frames, rest = decode_frames(encode_frame(payload))
        assert rest == b""
        assert repr(frames) == repr([json.loads(json.dumps(payload))])

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _json_values, max_size=4),
           st.text(max_size=6), _json_values)
    def test_a_spliced_frame_decodes_as_the_plain_one(self, payload, key,
                                                      value):
        plain = encode_frame({**payload, key: value})
        spliced = encode_frame({**payload, key: EncodedJSON(
            json.dumps(value, separators=(",", ":")).encode())})
        assert _canonical(decode_frames(spliced)[0]) == \
            _canonical(decode_frames(plain)[0])
        assert _canonical(_read_all(spliced)) == _canonical(_read_all(plain))

    def test_a_hit_reply_decodes_as_the_plain_reply(self):
        report = WARM.run()
        head = {"v": PROTOCOL_VERSION, "id": 7, "digest": WARM.digest,
                "ticket": "t1", "ok": True}
        plain = encode_frame({**head, "report": report_to_dict(report)})
        built = encode_frame(
            {**head, "report": EncodedJSON(CachedReport(report).json)})
        assert _canonical(decode_frames(built)[0]) == \
            _canonical(decode_frames(plain)[0])
        assert _canonical(_read_all(built)) == _canonical(_read_all(plain))


def _canonical(decoded) -> str:
    return json.dumps(decoded, sort_keys=True)
