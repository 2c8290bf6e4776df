"""``POST /explain`` bodies of the wrong JSON type fail closed.

The HTTP body is the service's outside boundary: a knob, an override, the
``sql`` or the ``question`` carrying a value of the wrong JSON type
(``"5"`` for 5, ``"no"`` for ``false``, 5 for a string) is answered with
a structured 400 by the front-end — never by an exception escaping the
connection callback (an empty reply and an ``Unhandled exception in
client_connected_cb`` log record), a 500 from whichever layer first read
the value, or a 200 computed with a truthy string for a flag.

One server (inline backend) runs on a background thread for the whole
module; every example opens one keep-alive connection, sends its body and
then a valid request on the same connection.  CI runs this file under
the fixed deterministic hypothesis profile (``HYPOTHESIS_PROFILE=ci``).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CajadeConfig
from repro.serving import ExplanationService, InlineBackend, serve_http
from tests.conftest import GSW_WINS_SQL

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

CONFIG = CajadeConfig(
    max_join_edges=1,
    top_k=3,
    f1_sample_rate=1.0,
    lca_sample_rate=1.0,
    num_selected_attrs=3,
    seed=1,
)
VALID = {
    "sql": GSW_WINS_SQL,
    "question": {
        "primary": {"season": "2015-16"},
        "secondary": {"season": "2012-13"},
    },
}


class _Records(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


@pytest.fixture(scope="module")
def live_server(mini_db, mini_schema_graph):
    """``(port, asyncio log messages)`` of a server on its own thread."""
    records = _Records()
    logging.getLogger("asyncio").addHandler(records)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    state: dict = {}

    async def main() -> None:
        backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
        async with ExplanationService(backend) as service:
            server = await serve_http(service, port=0)
            state["port"] = server.sockets[0].getsockname()[1]
            state["stop"] = asyncio.Event()
            ready.set()
            await state["stop"].wait()
            server.close()
            await server.wait_closed()

    thread = threading.Thread(
        target=loop.run_until_complete, args=(main(),), daemon=True
    )
    thread.start()
    assert ready.wait(timeout=30)
    try:
        yield state["port"], records.messages
    finally:
        loop.call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=30)
        loop.close()
        logging.getLogger("asyncio").removeHandler(records)


def exchange(stream, payload: dict) -> tuple[int, dict]:
    """One keep-alive ``POST /explain``: (status code, JSON body)."""
    body = json.dumps(payload).encode()
    stream.write(
        b"POST /explain HTTP/1.1\r\nHost: t\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    stream.flush()
    status_line = stream.readline()
    assert status_line, "the server closed the connection without a reply"
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return int(status_line.split()[1]), json.loads(stream.read(length))


def check_fails_closed(live_server, payload: dict) -> tuple[int, dict]:
    """Send ``payload``, then a valid request on the same connection;
    returns the first reply."""
    port, log_messages = live_server
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        stream = sock.makefile("rwb")
        status, body = exchange(stream, payload)
        assert status == 200 or 400 <= status < 500, (status, body)
        if status != 200:
            assert body["status"] == status
            assert isinstance(body["kind"], str) and body["error"]
        after, answer = exchange(stream, VALID)
        assert after == 200 and answer["explanations"] is not None
    assert not [m for m in log_messages if "Unhandled exception" in m]
    return status, body


@pytest.mark.parametrize(
    "change",
    [
        {"top_k": "5"},
        {"sql": 5},
        {"overrides": {"num_fragments": "3"}},
        {"overrides": {"use_diversity": "no"}},
        {"overrides": {"seed": "abc"}},
        {"overrides": {"rf_num_trees": 0}},
        {"overrides": {"seed": -1}},
    ],
    ids=[
        "knob-str", "sql-int", "override-str", "flag-str", "seed-str",
        "no-trees", "negative-seed",
    ],
)
def test_wrongly_typed_value_is_a_structured_400(live_server, change):
    status, body = check_fails_closed(live_server, {**VALID, **change})
    assert (status, body["kind"]) == (400, "bad-request")
    assert body["retryable"] is False


# JSON values that are *not* of the named kind (a JSON int is a fine
# float, so "float" admits no number but a bool).
_TEXT = st.text(max_size=4)
_CONTAINERS = st.one_of(
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(_TEXT, st.integers(-2, 2), max_size=2),
)
_FRACTIONS = st.floats(min_value=-4, max_value=4, allow_nan=False)
NOT = {
    "int": st.one_of(_TEXT, st.booleans(), _FRACTIONS, _CONTAINERS),
    "float": st.one_of(_TEXT, st.booleans(), _CONTAINERS),
    "bool": st.one_of(_TEXT, st.integers(-2, 2), _FRACTIONS, _CONTAINERS),
    "str": st.one_of(
        st.integers(-2, 2), st.booleans(), _FRACTIONS, _CONTAINERS, st.none()
    ),
    "object": st.one_of(
        _TEXT, st.integers(-2, 2), st.booleans(), st.none(),
        st.lists(st.integers(-2, 2), max_size=2),
    ),
}
_OVERRIDABLE = {
    name: kind
    for name, kind in CajadeConfig.__annotations__.items()
    if name != "apt_cache_mb"  # session-level: a 400 whatever its value
}


@st.composite
def wrongly_typed_bodies(draw) -> dict:
    body = json.loads(json.dumps(VALID))
    place = draw(
        st.sampled_from(
            ["sql", "question", "question-side", "top_k", "max_join_edges",
             "f1_sample_rate", "timeout_seconds", "overrides", "override"]
        )
    )
    if place == "override":
        name = draw(st.sampled_from(sorted(_OVERRIDABLE)))
        wrong = draw(st.one_of(NOT[_OVERRIDABLE[name]], st.none()))
        body["overrides"] = {name: wrong}
    elif place == "question-side":
        side = draw(st.sampled_from(["primary", "secondary"]))
        body["question"][side] = draw(NOT["object"])
    else:
        kind = {
            "sql": "str", "question": "object", "overrides": "object",
            "f1_sample_rate": "float", "timeout_seconds": "float",
        }.get(place, "int")
        body[place] = draw(NOT[kind])
    return body


@given(body=wrongly_typed_bodies())
def test_wrongly_typed_bodies_fail_closed(live_server, body):
    assert check_fails_closed(live_server, body)[0] == 400
