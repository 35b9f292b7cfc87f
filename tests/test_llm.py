from __future__ import annotations

import hashlib
import json
import os
import socket
import sys
import threading
import time
from dataclasses import fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _reference_request_to_dict, _reference_transcript_entry_to_dict
from splitsql.harness import PerExampleRecord
from splitsql.llm import (
    ROLES,
    ChatMessage,
    CompletionCache,
    CompletionRequest,
    CompletionResponse,
    ModelEndpoint,
    ProviderConfig,
    ProviderError,
    ScriptExhaustedError,
    TranscriptEntry,
    complete,
    _fields,
    scripted_provider,
)
from splitsql.pipeline import PipelineTrace, SubQuery, SubQuestion
from splitsql.router import RouterModel


def _request(content: str) -> CompletionRequest:
    return CompletionRequest(model_id="m", messages=(ChatMessage("user", content),))


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------


def test_messages_must_end_with_user():
    with pytest.raises(ValueError):
        CompletionRequest(model_id="m", messages=(ChatMessage("assistant", "x"),))
    with pytest.raises(ValueError):
        CompletionRequest(model_id="m", messages=())


def test_unknown_role_rejected():
    with pytest.raises(ValueError):
        ChatMessage("tool", "x")


def test_empty_content_only_for_assistant():
    assert ChatMessage("assistant", "").content == ""
    with pytest.raises(ValueError):
        ChatMessage("user", "")


# ---------------------------------------------------------------------------
# Scripted provider
# ---------------------------------------------------------------------------


def test_scripted_echo():
    provider = scripted_provider([("decompose", "1. A\n2. B")])
    response = complete(provider, _request("please decompose this"))
    assert response.text == "1. A\n2. B"
    assert response.latency_ms == 0


def test_scripted_entries_are_single_use():
    provider = scripted_provider([("ping", "pong")])
    assert complete(provider, _request("ping")).text == "pong"
    with pytest.raises(ScriptExhaustedError):
        complete(provider, _request("ping"))


def test_scripted_first_match_wins():
    provider = scripted_provider([("SQL", "first"), ("SQL", "second")])
    assert complete(provider, _request("give me SQL")).text == "first"
    assert complete(provider, _request("more SQL")).text == "second"


def test_scripted_no_match_raises():
    provider = scripted_provider([("alpha", "a")])
    with pytest.raises(ScriptExhaustedError):
        complete(provider, _request("beta"))


def test_script_must_be_non_empty():
    with pytest.raises(ValueError):
        scripted_provider([])


def test_every_call_appends_one_transcript_entry():
    provider = scripted_provider([("one", "1"), ("two", "2"), ("three", "3")])
    transcript = []
    for index, content in enumerate(("one", "two", "three")):
        complete(
            provider,
            _request(content),
            transcript=transcript,
            stage_label="stage",
            attempt_index=index,
        )
    assert len(transcript) == 3
    assert [entry.attempt_index for entry in transcript] == [0, 1, 2]
    assert all(entry.stage_label == "stage" for entry in transcript)


def test_scripted_run_is_deterministic():
    script = [("a", "ra"), ("b", "rb")]
    texts_per_run = []
    for _ in range(2):
        provider = scripted_provider(list(script))
        texts_per_run.append(
            [complete(provider, _request(m)).text for m in ("a", "b")]
        )
    assert texts_per_run[0] == texts_per_run[1]


def test_endpoint_ask_returns_text():
    endpoint = ModelEndpoint(
        provider=scripted_provider([("hello", "world")]), model_id="m"
    )
    transcript = []
    assert endpoint.ask("hello", transcript=transcript, stage_label="s") == "world"
    assert transcript[0].request.model_id == "m"


# ---------------------------------------------------------------------------
# Completion cache
# ---------------------------------------------------------------------------


def test_cache_replays_a_reply_from_an_earlier_run(tmp_path):
    cache = CompletionCache(tmp_path)
    endpoint = ModelEndpoint(scripted_provider([("q", "a1"), ("q", "a2")]), "m", cache=cache)
    cold = []
    # Hits come only from files present at open, so a cold run calls twice.
    assert [endpoint.ask("q", transcript=cold, stage_label="s") for _ in range(2)] == ["a1", "a2"]

    # Each reply is flushed as it comes, so a run that never closes its
    # cache (a crash) leaves it readable.
    warm_provider = scripted_provider([("never", "x")])
    warm_endpoint = ModelEndpoint(warm_provider, "m", cache=CompletionCache(tmp_path))
    cache.close()
    warm = []
    assert warm_endpoint.ask("q", transcript=warm, stage_label="s") == "a1"
    assert warm_provider.script.call_count == 0
    assert warm == [cold[0]]


@pytest.mark.parametrize(
    "endpoint_change, ask_change",
    [
        ({"model_id": "other"}, {}),
        ({"base_url": "http://localhost:8000/v1"}, {}),
        ({"temperature": 0.5}, {}),
        ({"max_tokens": 7}, {}),
        ({}, {"prompt": "q, again"}),
        ({}, {"stage_label": "t"}),
        ({}, {"attempt_index": 1}),
    ],
    ids=[
        "model_id", "base_url", "temperature", "max_tokens",
        "prompt", "stage_label", "attempt_index",
    ],
)
def test_cache_key_covers_the_whole_request(tmp_path, endpoint_change, ask_change):
    def ask(endpoint_change, ask_change):
        # The reply names how many cache files existed, so a hit shows.
        provider = scripted_provider([("q", f"reply {len(list(tmp_path.iterdir()))}")])
        provider.base_url = endpoint_change.get("base_url", "")
        settings = {k: v for k, v in endpoint_change.items() if k != "base_url"}
        cache = CompletionCache(tmp_path)
        try:
            endpoint = ModelEndpoint(provider, **{"model_id": "m", **settings}, cache=cache)
            return endpoint.ask(**{"prompt": "q", "stage_label": "s", **ask_change})
        finally:
            cache.close()

    assert ask({}, {}) == "reply 0"
    assert ask({}, {}) == "reply 0"
    assert ask(endpoint_change, ask_change) == "reply 1"


def test_cache_keeps_every_reply_under_concurrent_puts(tmp_path):
    cache = CompletionCache(tmp_path)
    threads, puts = 8, 200
    start = threading.Barrier(threads)

    def work(worker):
        start.wait(timeout=30)  # every thread races for the first put
        for index in range(puts):
            cache.put(f"{worker}-{index}", CompletionResponse(text=f"reply {worker} {index}"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(w,)) for w in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        cache.close()

    assert len(list(tmp_path.glob("*.jsonl"))) == 1
    reopened = CompletionCache(tmp_path)
    for worker in range(threads):
        for index in range(puts):
            assert reopened.get(f"{worker}-{index}").text == f"reply {worker} {index}"


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    kind_and_url=st.sampled_from([("scripted", ""), ("http_openai_compatible", "http://h/v1")]),
    model_id=_TEXT,
    messages=st.lists(st.tuples(st.sampled_from(ROLES), _TEXT), max_size=3),
    last=_TEXT,
    temperature=st.floats(0, 2) | st.integers(0, 2),
    max_tokens=st.integers(1, 4096),
    stop=st.lists(_TEXT, max_size=2),
    stage_label=_TEXT,
    attempt=st.integers(0, 10),
)
def test_cache_key_is_the_hash_of_the_hand_written_payload(
    kind_and_url, model_id, messages, last, temperature, max_tokens, stop, stage_label, attempt
):
    kind, base_url = kind_and_url
    provider = ProviderConfig(kind=kind, base_url=base_url)
    endpoint = ModelEndpoint(provider, model_id)
    request = CompletionRequest(
        model_id=model_id,
        messages=tuple(ChatMessage(*m) for m in messages) + (ChatMessage("user", last),),
        temperature=temperature,
        max_tokens=max_tokens,
        stop_sequences=tuple(stop),
    )
    payload = [[kind, base_url, model_id], _reference_request_to_dict(request), stage_label, attempt]
    expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    assert endpoint._request_key(request, stage_label, attempt) == expected
    entry = TranscriptEntry(stage_label, request, CompletionResponse("x", 1, 2, 3, 4), attempt)
    assert json.dumps(entry, sort_keys=True, default=_fields) == json.dumps(
        _reference_transcript_entry_to_dict(entry), sort_keys=True
    )


# Written by a run before cache lines were serialized from their dataclasses:
# ModelEndpoint(scripted_provider(...), "coder", temperature=0.5, max_tokens=7)
# asking CACHED_PROMPT at stage subquery_generation, attempt 1.
CACHED_PROMPT = 'Which café has ≥ 2 "orders"?\n'
CACHED_LINE = (
    '{"key": "39262de0aa7a8cd13ba8a9f67deb1aab00871dee46c0e12d7a4a37db790a9fd4", "response": '
    '{"completion_tokens": 0, "latency_ms": 0, "prompt_tokens": 0, "retries": 0, '
    '"text": "SELECT 1"}}\n'
)


def test_a_cache_line_written_before_stays_a_hit(tmp_path):
    (tmp_path / "run-old.jsonl").write_text(CACHED_LINE, encoding="utf-8")
    provider = scripted_provider([("never", "x")])
    cache = CompletionCache(tmp_path)
    endpoint = ModelEndpoint(provider, "coder", temperature=0.5, max_tokens=7, cache=cache)
    try:
        reply = endpoint.ask(CACHED_PROMPT, stage_label="subquery_generation", attempt_index=1)
        assert reply == "SELECT 1"
        assert provider.script.call_count == 0
        # A put of that reply writes the same line again.
        cache.put(json.loads(CACHED_LINE)["key"], CompletionResponse("SELECT 1"))
    finally:
        cache.close()
    written = [p for p in tmp_path.glob("*.jsonl") if p.name != "run-old.jsonl"]
    assert [p.read_text(encoding="utf-8") for p in written] == [CACHED_LINE]


def test_the_json_hook_gives_exactly_the_fields_of_each_dataclass_written():
    request = CompletionRequest("m", (ChatMessage("user", "q"),), stop_sequences=(";",))
    response = CompletionResponse("a", 1, 2, 3, 4)
    trace = PipelineTrace("ex", subquestions=[SubQuestion(1, "q")], subqueries=[SubQuery(1, "s")])
    trace.transcript.append(TranscriptEntry("s", request, response, 1))
    trace.stage_timings_ms["total"] = 5
    record = PerExampleRecord("ex", "db", 1, 0, 1, "baseline", "a", "b", ("x", "y"), "e")
    model = RouterModel((0.5,) * 6, 0.1, (0.0,) * 6, (1.0,) * 6)
    for value in (request, request.messages[0], response, trace.transcript[0], trace,
                  trace.subquestions[0], trace.subqueries[0], record, model):
        assert _fields(value) == {f.name: getattr(value, f.name) for f in fields(value)}


@pytest.mark.parametrize("value", [Path("x"), CompletionResponse, {1, 2}, object()])
def test_the_json_hook_refuses_what_is_not_a_dataclass_instance(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _fields(value)
    with pytest.raises(TypeError):
        json.dumps({"value": value}, default=_fields)


# ---------------------------------------------------------------------------
# HTTP provider against a local scripted server
# ---------------------------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST from the class-level plan: the next status, or the
    next raw 200 body, or a stall of stall_s seconds that sends nothing."""

    statuses: list[int] = []
    raw_bodies: list[bytes] = []
    stall_s: float = 0.0
    requests_seen: int = 0
    seen: list[tuple[dict, dict]] = []  # (headers, JSON body) of each request

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        status = cls.statuses.pop(0) if cls.statuses else 200
        body_bytes = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        cls.seen.append((dict(self.headers), json.loads(body_bytes)))
        if cls.stall_s:
            time.sleep(cls.stall_s)
            return
        if cls.raw_bodies:
            self._reply(cls.raw_bodies.pop(0))
            return
        if status != 200:
            self.send_response(status)
            self.end_headers()
            return
        request_body = json.loads(body_bytes)
        reply = {
            "choices": [
                {"message": {"role": "assistant", "content": "echo:" + request_body["model"]}}
            ],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
        }
        self._reply(json.dumps(reply).encode())

    def _reply(self, payload: bytes):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _ScriptedHandler.statuses = []
    _ScriptedHandler.raw_bodies = []
    _ScriptedHandler.stall_s = 0.0
    _ScriptedHandler.requests_seen = 0
    _ScriptedHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _http_provider(base_url: str, max_retries: int = 3, **settings) -> ProviderConfig:
    return ProviderConfig(
        kind="http_openai_compatible",
        base_url=base_url,
        max_retries=max_retries,
        retry_backoff_ms=1,
        **settings,
    )


def test_http_success_parses_fields(http_server):
    response = complete(_http_provider(http_server), _request("hi"))
    assert response.text == "echo:m"
    assert response.prompt_tokens == 7
    assert response.completion_tokens == 3
    assert response.retries == 0


def test_http_retries_transient_then_succeeds(http_server):
    _ScriptedHandler.statuses = [500, 500]
    response = complete(_http_provider(http_server, max_retries=3), _request("hi"))
    assert response.text == "echo:m"
    assert response.retries == 2
    assert _ScriptedHandler.requests_seen == 3


def test_http_429_is_retryable(http_server):
    _ScriptedHandler.statuses = [429]
    response = complete(_http_provider(http_server, max_retries=1), _request("hi"))
    assert response.retries == 1


def test_http_non_transient_4xx_fails_immediately(http_server):
    _ScriptedHandler.statuses = [401]
    with pytest.raises(ProviderError) as excinfo:
        complete(_http_provider(http_server, max_retries=5), _request("hi"))
    assert excinfo.value.status == 401
    assert _ScriptedHandler.requests_seen == 1


def test_http_redirect_is_not_followed_or_retried(http_server):
    _ScriptedHandler.statuses = [302]
    with pytest.raises(ProviderError) as excinfo:
        complete(_http_provider(http_server, max_retries=5), _request("hi"))
    assert excinfo.value.status == 302
    assert _ScriptedHandler.requests_seen == 1


def test_http_retries_exhausted_carries_last_status(http_server):
    _ScriptedHandler.statuses = [500, 503]
    with pytest.raises(ProviderError) as excinfo:
        complete(_http_provider(http_server, max_retries=1), _request("hi"))
    assert excinfo.value.status == 503
    assert _ScriptedHandler.requests_seen == 2


@pytest.mark.parametrize("key, expected", [("sk-test", "Bearer sk-test"), ("", None)])
def test_http_sends_the_bearer_key_only_when_set(http_server, monkeypatch, key, expected):
    monkeypatch.setenv("SPLITSQL_TEST_API_KEY", key)
    provider = _http_provider(http_server, api_key_env_var="SPLITSQL_TEST_API_KEY")
    complete(provider, _request("hi"))
    [(headers, _body)] = _ScriptedHandler.seen
    assert headers.get("Authorization") == expected


@pytest.mark.parametrize("stops", [(), ("\n\n", ";")])
def test_http_sends_stop_only_for_stop_sequences(http_server, stops):
    request = CompletionRequest(
        model_id="m", messages=(ChatMessage("user", "hi"),), stop_sequences=stops
    )
    complete(_http_provider(http_server), request)
    [(_headers, body)] = _ScriptedHandler.seen
    assert body.get("stop") == (list(stops) if stops else None)
    assert body["messages"] == [{"role": "user", "content": "hi"}]


def test_http_non_json_reply_is_malformed(http_server):
    _ScriptedHandler.raw_bodies = [b"<html>busy</html>"]
    with pytest.raises(ProviderError, match="malformed completion response") as excinfo:
        complete(_http_provider(http_server), _request("hi"))
    assert excinfo.value.status is None
    assert _ScriptedHandler.requests_seen == 1


def test_http_stall_past_the_timeout_is_retried_then_fails(http_server):
    _ScriptedHandler.stall_s = 0.5
    provider = _http_provider(http_server, max_retries=1, request_timeout_ms=50)
    with pytest.raises(ProviderError, match="retries exhausted after 2 attempts") as excinfo:
        complete(provider, _request("hi"))
    assert excinfo.value.status is None
    assert _ScriptedHandler.requests_seen == 2


def test_http_refused_connection_makes_every_attempt_then_fails():
    with socket.socket() as probe:  # a port that nothing listens on once closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    provider = _http_provider(f"http://127.0.0.1:{port}", max_retries=2)
    with pytest.raises(ProviderError, match="retries exhausted after 3 attempts") as excinfo:
        complete(provider, _request("hi"))
    assert excinfo.value.status is None


class _ProxyHandler(BaseHTTPRequestHandler):
    """A forward proxy that answers every request itself, keeping its target."""

    targets: list[str] = []

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).targets.append(self.path)
        payload = json.dumps({"choices": [{"message": {"content": "via proxy"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def proxy_env(monkeypatch):
    """Start a test proxy and name it in HTTP_PROXY, with no other proxy setting."""
    for name in list(os.environ):
        if name.lower() in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ProxyHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _ProxyHandler.targets = []
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{server.server_port}")
    yield monkeypatch
    server.shutdown()
    server.server_close()


def test_http_goes_through_the_environment_proxy(http_server, proxy_env):
    response = complete(_http_provider(http_server), _request("hi"))
    assert response.text == "via proxy"
    assert _ProxyHandler.targets == [http_server + "/chat/completions"]
    assert _ScriptedHandler.requests_seen == 0


def test_http_no_proxy_host_goes_direct(http_server, proxy_env):
    proxy_env.setenv("NO_PROXY", "127.0.0.1")
    response = complete(_http_provider(http_server), _request("hi"))
    assert response.text == "echo:m"
    assert _ProxyHandler.targets == []
    assert _ScriptedHandler.requests_seen == 1
