from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from splitsql.llm import (
    ChatMessage,
    CompletionCache,
    CompletionRequest,
    CompletionResponse,
    ModelEndpoint,
    ProviderConfig,
    ProviderError,
    ScriptExhaustedError,
    complete,
    scripted_provider,
    transcript_entry_to_dict,
)


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


def test_stage_temperature_override_applies():
    endpoint = ModelEndpoint(
        provider=scripted_provider([("a", "x"), ("b", "y")]),
        model_id="m",
        temperature=0.0,
        stage_temperatures={"decomposition": 0.3},
    )
    transcript = []
    endpoint.ask("a", transcript=transcript, stage_label="decomposition")
    endpoint.ask("b", transcript=transcript, stage_label="baseline")
    assert transcript[0].request.temperature == 0.3
    assert transcript[1].request.temperature == 0.0


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
    assert [transcript_entry_to_dict(e) for e in warm] == [transcript_entry_to_dict(cold[0])]


@pytest.mark.parametrize(
    "endpoint_change, ask_change",
    [
        ({"model_id": "other"}, {}),
        ({"base_url": "http://localhost:8000/v1"}, {}),
        ({"temperature": 0.5}, {}),
        ({"stage_temperatures": {"s": 0.5}}, {}),
        ({"max_tokens": 7}, {}),
        ({}, {"prompt": "q, again"}),
        ({}, {"stage_label": "t"}),
        ({}, {"attempt_index": 1}),
    ],
    ids=[
        "model_id", "base_url", "temperature", "stage_temperatures", "max_tokens",
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


# ---------------------------------------------------------------------------
# HTTP provider against a local scripted server
# ---------------------------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    statuses: list[int] = []
    requests_seen: int = 0

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        status = cls.statuses.pop(0) if cls.statuses else 200
        body_bytes = self.rfile.read(int(self.headers.get("Content-Length", 0)))
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
        payload = json.dumps(reply).encode()
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ScriptedHandler.statuses = []
    _ScriptedHandler.requests_seen = 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _http_provider(base_url: str, max_retries: int = 3) -> ProviderConfig:
    return ProviderConfig(
        kind="http_openai_compatible",
        base_url=base_url,
        max_retries=max_retries,
        retry_backoff_ms=1,
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


def test_http_retries_exhausted_carries_last_status(http_server):
    _ScriptedHandler.statuses = [500, 503]
    with pytest.raises(ProviderError) as excinfo:
        complete(_http_provider(http_server, max_retries=1), _request("hi"))
    assert excinfo.value.status == 503
    assert _ScriptedHandler.requests_seen == 2
