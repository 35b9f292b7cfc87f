"""The model stand-in: answers a prompt from the generated plan.

It keeps no per-example state. The stage comes from a phrase of the
shipped prompt template, the example from the question's ``[qNNNN]`` tag,
and the refinement attempt from the failing table name of the previous
reply (``zz_missing_a<k>``), so replies do not depend on call order or on
how many workers share it. The in-process scripted provider and the
loopback server both use it.
"""

from __future__ import annotations

import re
import threading

# First match wins; each phrase occurs in exactly one shipped template.
STAGE_PHRASES = (
    ("judge", "SIMPLE or COMPLEX"),
    ("table_selection", "comma-separated list of the table names"),
    ("decomposition", "numbered list of sub-questions"),
    ("refinement", "failed when executed"),
    ("merge_planner", "Work out how the sub-queries"),
    ("merge_executor", "Combine the sub-queries below"),
    ("column_selection", "returns exactly the columns"),
    ("subquery", "answers the sub-question below"),
    ("baseline", "in one step"),
)

_TAG_RE = re.compile(r"\[q(\d+)(?:\.s(\d+))?\]")
_ATTEMPT_RE = re.compile(r"zz_missing_a(\d+)")


class UnknownPromptError(RuntimeError):
    """The prompt matches no stage or no planned example."""


def _line_after(prompt: str, label: str) -> str:
    _, found, rest = prompt.partition(label)
    if not found:
        raise UnknownPromptError(f"prompt has no {label!r} line")
    return rest.split("\n", 1)[0]


def _tag(text: str) -> tuple[str, int]:
    match = _TAG_RE.search(text)
    if match is None:
        raise UnknownPromptError(f"no example tag in {text[:80]!r}")
    return f"q{match.group(1)}", int(match.group(2) or 0)


class Responder:
    """Stateless replies plus thread-safe call and prompt-size counters.

    ``consume`` is the method the scripted provider calls, so an instance
    can stand where a ``ScriptState`` would.
    """

    def __init__(self, plan: dict):
        self.plan = plan
        self.call_count = 0
        self.prompt_chars = 0
        self._lock = threading.Lock()

    def consume(self, message: str) -> str:
        with self._lock:
            self.call_count += 1
            self.prompt_chars += len(message)
        return self.reply(message)

    def counts(self) -> tuple[int, int]:
        with self._lock:
            return self.call_count, self.prompt_chars

    def reply(self, prompt: str) -> str:
        stage = next((name for name, phrase in STAGE_PHRASES if phrase in prompt), None)
        if stage is None:
            raise UnknownPromptError(f"no stage phrase in {prompt[:80]!r}")
        if stage == "refinement":
            tag, sub = _tag(_line_after(prompt, "Task: "))
            entry = self._entry(tag)
            replies = entry["subquery"][sub - 1] if sub else entry["baseline"]
            failed = _ATTEMPT_RE.search(prompt)
            return replies[int(failed.group(1)) + 1 if failed else 1]
        if stage == "subquery":
            tag, sub = _tag(_line_after(prompt, "Sub-question: "))
            return self._entry(tag)["subquery"][sub - 1][0]
        tag, _ = _tag(prompt)
        value = self._entry(tag)[stage]
        return value[0] if isinstance(value, list) else value

    def _entry(self, tag: str) -> dict:
        entry = self.plan.get(tag)
        if entry is None:
            raise UnknownPromptError(f"example {tag} is not in the plan")
        return entry
