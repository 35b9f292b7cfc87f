"""Chat-completion client: an OpenAI-compatible HTTP backend plus a scripted
deterministic backend for tests. Every call can be recorded into a transcript,
and an endpoint can replay replies from a completion cache."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import urllib3

ROLES = ("system", "user", "assistant")

KIND_HTTP = "http_openai_compatible"
KIND_SCRIPTED = "scripted"

_RETRYABLE_STATUS = frozenset({429}) | frozenset(range(500, 600))


def _fields(value) -> dict:
    """json.dumps' default hook: a dataclass instance as a dict of its fields.

    That dict is the instance's own attribute dict, read-only to callers: no
    dataclass written to JSON sets attributes other than its fields.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return vars(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


class ProviderError(RuntimeError):
    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ScriptExhaustedError(ProviderError):
    """No scripted entry matched the last user message."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.content and self.role != "assistant":
            raise ValueError("only assistant placeholders may have empty content")


@dataclass(frozen=True)
class CompletionRequest:
    model_id: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    max_tokens: int = 1024
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if self.messages[-1].role != "user":
            raise ValueError("last message must have role 'user'")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")

    @property
    def last_user_content(self) -> str:
        for message in reversed(self.messages):
            if message.role == "user":
                return message.content
        return ""


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: int = 0
    retries: int = 0


class ScriptState:
    """Ordered (substring matcher, reply) entries, each usable exactly once.

    Matching scans entries in order against the last user message; the first
    unconsumed match wins. Thread-safe so fan-out stages can share a script.
    """

    def __init__(self, entries: list[tuple[str, str]]):
        if not entries:
            raise ValueError("script must be non-empty")
        self._entries = list(entries)
        self._used = [False] * len(entries)
        self._lock = threading.Lock()
        self.call_count = 0

    def consume(self, message: str) -> str:
        with self._lock:
            self.call_count += 1
            for index, (matcher, reply) in enumerate(self._entries):
                if not self._used[index] and matcher in message:
                    self._used[index] = True
                    return reply
        raise ScriptExhaustedError(
            f"no unused script entry matches message starting {message[:80]!r}"
        )

    @property
    def remaining(self) -> int:
        with self._lock:
            return self._used.count(False)


@dataclass
class ProviderConfig:
    kind: str
    base_url: str = ""
    api_key_env_var: str = ""
    request_timeout_ms: int = 60000
    max_retries: int = 2
    retry_backoff_ms: int = 250
    script: ScriptState | None = None
    # The run's keep-alive pool for base_url; without one, each call opens its own.
    pool: urllib3.PoolManager | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in (KIND_HTTP, KIND_SCRIPTED):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.kind == KIND_HTTP and not self.base_url:
            raise ValueError("http provider requires base_url")
        if self.request_timeout_ms <= 0 or self.retry_backoff_ms <= 0:
            raise ValueError("timeouts and backoff must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def connection_pool(url: str, maxsize: int = 1) -> urllib3.PoolManager:
    """A keep-alive pool keeping up to maxsize idle connections per host, through
    the environment's proxy for url's scheme unless the host bypasses it."""
    import urllib3
    parts = urllib3.util.parse_url(url)
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy and not urllib.request.proxy_bypass(parts.host):
        auth = urllib3.make_headers(proxy_basic_auth=urllib3.util.parse_url(proxy).auth)
        return urllib3.ProxyManager(proxy, proxy_headers=auth, maxsize=maxsize)
    return urllib3.PoolManager(maxsize=maxsize)


def scripted_provider(script: list[tuple[str, str]]) -> ProviderConfig:
    """A deterministic provider answering from an ordered single-use script."""
    return ProviderConfig(kind=KIND_SCRIPTED, script=ScriptState(script))


@dataclass(frozen=True)
class TranscriptEntry:
    stage_label: str
    request: CompletionRequest
    response: CompletionResponse
    attempt_index: int = 0

    def __post_init__(self):
        if not self.stage_label:
            raise ValueError("stage_label must be non-empty")


def complete(
    provider: ProviderConfig,
    request: CompletionRequest,
    *,
    transcript: list[TranscriptEntry] | None = None,
    stage_label: str = "llm",
    attempt_index: int = 0,
) -> CompletionResponse:
    """Run one chat completion, appending exactly one transcript entry.

    HTTP transport retries transient failures (timeouts, 429, 5xx) up to
    max_retries with exponential backoff; other 4xx statuses fail
    immediately. Scripted transport is instantaneous and deterministic.
    """
    if provider.kind == KIND_SCRIPTED:
        if provider.script is None:
            raise ProviderError("scripted provider has no script loaded")
        text = provider.script.consume(request.last_user_content)
        response = CompletionResponse(text=text)
    else:
        response = _complete_http(provider, request)

    if transcript is not None:
        transcript.append(TranscriptEntry(stage_label, request, response, attempt_index))
    return response


def _complete_http(provider: ProviderConfig, request: CompletionRequest) -> CompletionResponse:
    import urllib3
    url = provider.base_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": request.model_id,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
    }
    if request.stop_sequences:
        payload["stop"] = list(request.stop_sequences)

    headers = {"Content-Type": "application/json"}
    if provider.api_key_env_var:
        api_key = os.environ.get(provider.api_key_env_var, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    pool = provider.pool or connection_pool(url)
    started = time.monotonic()
    attempt = 0
    try:
        while True:
            status: int | None = None
            try:  # retries=False: this loop is the only one, so retries counts every attempt
                http_response = pool.request(
                    "POST", url, body=body, headers=headers, redirect=False, retries=False,
                    timeout=provider.request_timeout_ms / 1000.0,
                )
                status = http_response.status
                if status == 200:
                    return _parse_http_response(http_response.data, started, retries=attempt)
                failure = f"HTTP {status}"
                if status not in _RETRYABLE_STATUS:
                    raise ProviderError(f"provider returned {failure}", status=status)
            except urllib3.exceptions.HTTPError as exc:
                failure = f"request failed: {exc}"

            if attempt >= provider.max_retries:
                raise ProviderError(
                    f"retries exhausted after {attempt + 1} attempts; last error: {failure}",
                    status=status,
                )
            time.sleep(provider.retry_backoff_ms * (2**attempt) / 1000.0)
            attempt += 1
    finally:
        if pool is not provider.pool:
            pool.clear()


def _parse_http_response(body: bytes, started: float, retries: int) -> CompletionResponse:
    try:
        data = json.loads(body)
        text = data["choices"][0]["message"]["content"] or ""
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ProviderError(f"malformed completion response: {exc}") from exc
    usage = data.get("usage") or {}
    return CompletionResponse(
        text=text,
        prompt_tokens=int(usage.get("prompt_tokens", 0)),
        completion_tokens=int(usage.get("completion_tokens", 0)),
        latency_ms=int((time.monotonic() - started) * 1000),
        retries=retries,
    )


class CompletionCache:
    """Model replies kept under a directory, keyed by the full request.

    Hits come only from the ``*.jsonl`` files present when the cache opens;
    a line that cannot be read back is skipped, so its call is made again.
    New replies go to a file of this cache's own, created on the first
    ``put``, one flushed JSON line each. A cold run with a cache therefore
    makes the same calls as a run without one, and two runs never append to
    one file.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._replies: dict[str, CompletionResponse] = {}
        self._handle = None
        self._lock = threading.Lock()
        for path in sorted(self.directory.glob("*.jsonl")):
            for line in path.read_bytes().splitlines():
                try:
                    entry = json.loads(line)
                    response = CompletionResponse(**entry["response"])
                    self._replies.setdefault(entry["key"], response)
                except (ValueError, KeyError, TypeError):
                    continue

    def get(self, key: str) -> CompletionResponse | None:
        return self._replies.get(key)

    def put(self, key: str, response: CompletionResponse) -> None:
        line = json.dumps({"key": key, "response": response}, sort_keys=True, default=_fields)
        with self._lock:
            if self._handle is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                fd, _ = tempfile.mkstemp(suffix=".jsonl", prefix="run-", dir=self.directory)
                self._handle = os.fdopen(fd, "w", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


@dataclass
class ModelEndpoint:
    """A provider plus the request defaults for one logical model role.

    With a cache, a request it holds is answered from it without calling the
    provider.
    """

    provider: ProviderConfig
    model_id: str
    temperature: float = 0.0
    max_tokens: int = 1024
    cache: CompletionCache | None = None

    def ask(
        self,
        prompt: str,
        *,
        transcript: list[TranscriptEntry] | None = None,
        stage_label: str,
        attempt_index: int = 0,
    ) -> str:
        request = CompletionRequest(
            model_id=self.model_id,
            messages=(ChatMessage("user", prompt),),
            temperature=self.temperature,
            max_tokens=self.max_tokens,
        )
        key = None if self.cache is None else self._request_key(request, stage_label, attempt_index)
        response = None if key is None else self.cache.get(key)
        if response is None:
            response = complete(
                self.provider, request, stage_label=stage_label, attempt_index=attempt_index
            )
            if key is not None:
                self.cache.put(key, response)
        if transcript is not None:
            transcript.append(TranscriptEntry(stage_label, request, response, attempt_index))
        return response.text

    def _request_key(self, request: CompletionRequest, stage_label: str, attempt: int) -> str:
        identity = [self.provider.kind, self.provider.base_url, self.model_id]
        payload = json.dumps([identity, request, stage_label, attempt], sort_keys=True,
                             default=_fields)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ModelPair:
    """The two logical endpoints: a reasoning model and a coding model."""

    reasoning: ModelEndpoint
    coding: ModelEndpoint

