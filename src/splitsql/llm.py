"""Chat-completion client: an OpenAI-compatible HTTP backend plus a scripted
deterministic backend for tests. Every call can be recorded into a transcript,
and an endpoint can replay replies from a completion cache."""

from __future__ import annotations

import hashlib
import json
import os
import re
import select
import tempfile
import threading
import time
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable
from urllib.parse import unquote, urlsplit

if TYPE_CHECKING:
    import http.client
    import socket

ROLES = ("system", "user", "assistant")

KIND_HTTP = "http_openai_compatible"
KIND_SCRIPTED = "scripted"

_RETRYABLE_STATUS = frozenset({429}) | frozenset(range(500, 600))
# http.client's limits on a reply line and on a reply's headers, and what it refuses in a target.
_MAX_LINE, _MAX_HEADERS = 65536, 100
_BAD_TARGET_CHAR = re.compile("[\x00-\x20\x7f]")
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d+)[ \t]+([1-9]\d\d)\s")


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
        if not 0 <= self.temperature < float("inf"):  # also refuses NaN, which JSON cannot send
            raise ValueError("temperature must be finite and >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")

    @property
    def last_user_content(self) -> str:
        return self.messages[-1].content


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
    pool: ConnectionPool | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in (KIND_HTTP, KIND_SCRIPTED):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.kind == KIND_HTTP and not self.base_url:
            raise ValueError("http provider requires base_url")
        if _BAD_TARGET_CHAR.search(self.base_url):  # http.client refuses it in a request target
            raise ValueError(f"base_url contains a space or control character: {self.base_url!r}")
        if self.request_timeout_ms <= 0 or self.retry_backoff_ms <= 0:
            raise ValueError("timeouts and backoff must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class ConnectionPool:
    """Idle keep-alive connections to one origin. list.pop and list.append are
    atomic, so threads share the pool and never share a connection. A connection is
    made only when none is idle, so idle ones never outnumber the calls in flight."""

    connect: Callable[[], http.client.HTTPConnection]
    host: str  # the Host header: the target's host and port, never the proxy's
    forward_headers: dict | None = None  # set when requests go to an HTTP proxy in absolute form
    idle: list = field(default_factory=list)

    def get(self, timeout_s: float) -> http.client.HTTPConnection:
        """An idle connection, or a new one, timing out after timeout_s."""
        try:
            connection = self.idle.pop()
            if select.select([connection.sock], [], [], 0)[0]:  # readable idle: server closed it
                connection.close()  # the next request reconnects
        except IndexError:
            connection = self.connect()
        connection.timeout = timeout_s
        if connection.sock is not None:
            connection.sock.settimeout(timeout_s)
        return connection

    def put(self, connection: http.client.HTTPConnection, reusable: bool) -> None:
        """Keep a connection whose reply was read in full, unless it closes."""
        if reusable:
            self.idle.append(connection)
        else:
            connection.close()

    def clear(self) -> None:
        while self.idle:
            self.idle.pop().close()


def connection_pool(url: str) -> ConnectionPool:
    """A keep-alive pool of connections to url's origin,
    through the environment's proxy for url's scheme unless the host bypasses it.
    An https target is tunnelled through the proxy with CONNECT."""
    import base64
    import http.client
    import urllib.request
    target = urlsplit(url)
    kind = http.client.HTTPSConnection if target.scheme == "https" else http.client.HTTPConnection
    host = target.hostname
    if ":" in host:  # an IPv6 address, without its zone
        host = f"[{host.partition('%')[0]}]"
    if target.port not in (None, kind.default_port):
        host += f":{target.port}"
    proxy = urllib.request.getproxies().get(target.scheme)
    if not proxy or urllib.request.proxy_bypass(target.hostname):
        return ConnectionPool(lambda: kind(target.hostname, target.port), host)
    via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if via.scheme != "http":
        raise ValueError(f"proxy {via.scheme}://{via.hostname} for {target.scheme}://"
                         f"{target.hostname}: only http:// proxy URLs are supported")
    auth = {}
    if via.username is not None:
        credentials = f"{unquote(via.username)}:{unquote(via.password or '')}".encode()
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode("ascii")
    tunnel = target.scheme == "https"

    def connect() -> http.client.HTTPConnection:
        connection = kind(via.hostname, via.port)
        if tunnel:
            connection.set_tunnel(target.hostname, target.port, headers=auth)
        return connection
    return ConnectionPool(connect, host, None if tunnel else auth)


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
    stage_label: str = "llm",
    attempt_index: int = 0,
) -> CompletionResponse:
    """Run one chat completion. stage_label and attempt_index are not sent:
    they only label the call for a tracer; ModelEndpoint.ask keeps the transcript.

    HTTP transport retries transient failures (timeouts, 429, 5xx) up to
    max_retries with exponential backoff; other 4xx statuses fail
    immediately. Scripted transport is instantaneous and deterministic.
    """
    if provider.kind == KIND_SCRIPTED:
        if provider.script is None:
            raise ProviderError("scripted provider has no script loaded")
        return CompletionResponse(text=provider.script.consume(request.last_user_content))
    return _complete_http(provider, request)


def _complete_http(provider: ProviderConfig, request: CompletionRequest) -> CompletionResponse:
    import http.client
    url = provider.base_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": request.model_id,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
    }
    if request.stop_sequences:
        payload["stop"] = list(request.stop_sequences)
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    pool = provider.pool or connection_pool(url)

    # The request, framed once as http.client frames it: the same headers in the same order.
    path = urlsplit(url).path if pool.forward_headers is None else url
    headers = {"Host": pool.host, "Accept-Encoding": "identity", "Content-Length": str(len(body)),
               "Content-Type": "application/json"}
    if api_key := os.environ.get(provider.api_key_env_var, ""):  # no variable is named ""
        headers["Authorization"] = f"Bearer {api_key}"
    headers.update(pool.forward_headers or {})
    for name, value in headers.items():
        if "\r" in value or "\n" in value:
            raise ValueError(f"the {name} header value contains CR or LF")
    head = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    message = f"POST {path} HTTP/1.1\r\n".encode("ascii") + head.encode("latin-1") + b"\r\n" + body
    started = time.monotonic()
    attempt = 0
    try:
        while True:
            status: int | None = None
            connection = pool.get(provider.request_timeout_ms / 1000.0)
            try:  # redirects are not followed: a 3xx is returned as it is
                if connection.sock is None:
                    connection.connect()
                connection.sock.sendall(message)
                status, data, reusable = _read_reply(connection.sock)
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                failure = f"request failed: {exc}"
            else:
                pool.put(connection, reusable)
                if status == 200:
                    return _parse_http_response(data, started, retries=attempt)
                failure = f"HTTP {status}"
                if status not in _RETRYABLE_STATUS:
                    raise ProviderError(f"provider returned {failure}", status=status)

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


def _read_reply(sock: socket.socket) -> tuple[int, bytes, bool]:
    """One reply's status and body, and whether its connection can carry another request.
    The reader is the reply's own, so no byte past the reply is taken for the next one."""
    import http.client

    def line() -> bytes:
        text = reader.readline(_MAX_LINE + 1)
        if len(text) > _MAX_LINE or not text.endswith(b"\n"):
            raise http.client.HTTPException(f"reply line cut short or over {_MAX_LINE} bytes")
        return text

    def exactly(size: bytes, base: int = 10) -> bytes:
        try:
            wanted = int(size, base)
        except ValueError:
            wanted = -1
        data = reader.read(max(wanted, 0))
        if len(data) != wanted:
            raise http.client.HTTPException(f"length {size!r}: {len(data)} bytes read")
        return data

    with sock.makefile("rb") as reader:
        status = 100
        while status == 100:  # an interim 100 Continue is skipped, as http.client does
            match = _STATUS_LINE.match(status_line := line())
            if match is None:
                raise http.client.BadStatusLine(repr(status_line))
            status, headers = int(match[2]), {}
            for _ in range(_MAX_HEADERS + 1):
                if (header := line()) in (b"\r\n", b"\n"):
                    break
                name, _, value = header.partition(b":")
                headers.setdefault(name.strip().lower(), value.strip())
            else:
                raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
        connection = headers.get(b"connection", b"").lower()
        reusable = (b"keep-alive" in connection or b"keep-alive" in headers if match[1] == b"0"
                    else b"close" not in connection)  # HTTP/1.0 keeps a connection only if told
        if status < 200 or status in (204, 304):
            return status, b"", reusable
        if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
            chunks = []
            while chunk := exactly(line().partition(b";")[0], 16):
                chunks.append(chunk)
                reader.read(2)  # the CRLF ending the chunk
            while line() not in (b"\r\n", b"\n"):  # the trailer
                pass
            return status, b"".join(chunks), reusable
        if b"content-length" in headers:
            return status, exactly(headers[b"content-length"]), reusable
        return status, reader.read(), False  # no length: the close ends the body


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
    a line that cannot be read back, or whose key or reply field is not of its
    JSON type, is skipped, so its call is made again.
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
                    key, response = entry["key"], CompletionResponse(**entry["response"])
                except (ValueError, KeyError, TypeError):
                    continue
                counts = (response.prompt_tokens, response.completion_tokens,
                          response.latency_ms, response.retries)
                if isinstance(key, str) and isinstance(response.text, str) and all(
                        type(count) is int for count in counts):
                    self._replies.setdefault(key, response)

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

    def __post_init__(self):
        # CompletionRequest checks temperature and max_tokens: here, not at the first call.
        self.request("check")

    def ask(
        self,
        prompt: str,
        *,
        transcript: list[TranscriptEntry] | None = None,
        stage_label: str,
        attempt_index: int = 0,
    ) -> str:
        request = self.request(prompt)
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

    def request(self, prompt: str) -> CompletionRequest:
        """The request that asks prompt with this endpoint's defaults."""
        return CompletionRequest(
            model_id=self.model_id,
            messages=(ChatMessage("user", prompt),),
            temperature=self.temperature,
            max_tokens=self.max_tokens,
        )

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

