"""Prompt polarization: dimension-wise rewriting toward anchor poles.

Two backends implement the rewrite operator. The template backend is a
deterministic stand-in that appends pole tags to the prompt, keeping the
application order visible in the output string. The LLM backend sends an
instruction to a chat-completion HTTP endpoint. Both are fronted by an
append-only disk cache so repeated builds are free and reproducible.

For an anchor, one chain rewrites every dimension once; the n chains of
a prompt set start at each dimension in turn (cyclic rotation), so the
stack of chain orders forms a Latin square and position-dependent
rewriting bias cancels across the set.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from .cogspace import (
    MAX_DIMENSIONS, CognitiveAnchor, CognitiveSpace, DimensionSpec, enumerate_anchors,
)
from .errors import BackendError, BindingError, ContractViolation

DEFAULT_CACHE_PATH = "./polarize_cache.ndjson"

log = logging.getLogger("cogflow.polarize")

_TAG_PATTERN = re.compile(r"«([^«»:]+):([+-])»")


def parse_template_tags(prompt: str) -> tuple[str, list[tuple[str, int]]]:
    """Split a template-backend prompt into base text and (name, pole) tags.

    Tags are contiguous at the end of the string; a prompt without tags
    parses as (prompt, []).
    """
    matches = list(_TAG_PATTERN.finditer(prompt))
    if not matches:
        if "«" in prompt or "»" in prompt:
            raise BindingError(prompt, "malformed tag markup")
        return prompt, []
    pos = matches[0].start()
    for m in matches:
        if m.start() != pos:
            raise BindingError(prompt, "tags must be contiguous at the end")
        pos = m.end()
    if pos != len(prompt):
        raise BindingError(prompt, "trailing text after tags")
    base = prompt[: matches[0].start()].rstrip(" ")
    if "«" in base or "»" in base:
        raise BindingError(prompt, "malformed tag markup")
    tags = [(m.group(1), 1 if m.group(2) == "+" else 0) for m in matches]
    return base, tags


def format_template_prompt(base: str, tags: list[tuple[str, int]]) -> str:
    rendered = "".join(
        f"«{name}:{'+' if pole else '-'}»" for name, pole in tags
    )
    if not rendered:
        return base
    return f"{base} {rendered}" if base else rendered


@runtime_checkable
class PolarizerBackend(Protocol):
    """Rewrites a prompt toward one pole of one dimension."""

    backend_id: str

    def polarize(self, prompt: str, dimension: DimensionSpec, pole: int) -> str: ...


class TemplateBackend:
    """Deterministic operator: appends a pole tag for the dimension.

    Re-polarizing an already-tagged dimension replaces its tag and moves
    it to the end (last write wins, order preserved), so distinct
    application orders yield distinct strings.
    """

    backend_id = "template"

    def __init__(self):
        self.calls = 0

    def polarize(self, prompt: str, dimension: DimensionSpec, pole: int) -> str:
        self.calls += 1
        try:
            base, tags = parse_template_tags(prompt)
        except BindingError as exc:
            raise BackendError(
                f"template backend got an unparseable prompt: {exc.reason}",
                diagnostics={"prompt": prompt},
            ) from exc
        tags = [tag for tag in tags if tag[0] != dimension.name]
        tags.append((dimension.name, 1 if pole else 0))
        return format_template_prompt(base, tags)


class LlmBackend:
    """Chat-completion operator over HTTP.

    Sends an instruction to rewrite the prompt toward the requested pole,
    with temperature pinned to 0; the first response is cached permanently
    by the caller's PolarizationCache. The bearer token is read from the
    COGFLOW_LLM_KEY environment variable unless given explicitly.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 30.0,
        retries: int = 3,
        session=None,
        sleep=time.sleep,
    ):
        if not endpoint:
            raise ContractViolation("LLM backend needs an endpoint URL")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get("COGFLOW_LLM_KEY")
        self.timeout = timeout
        self.retries = retries
        self.backend_id = f"llm:{model}@{endpoint}"
        self._sleep = sleep
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self.calls = 0

    def _instruction(self, dimension: DimensionSpec, pole: int) -> str:
        action = "enhance" if pole else "attenuate"
        return (
            f"Rewrite the prompt to {action} the {dimension.name} "
            f"({dimension.pole_text(pole)}) while preserving the core subject."
        )

    def polarize(self, prompt: str, dimension: DimensionSpec, pole: int) -> str:
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": self._instruction(dimension, pole)},
                {"role": "user", "content": prompt},
            ],
            "temperature": 0,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: BackendError | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(0.5 * 2 ** (attempt - 1))
            self.calls += 1
            try:
                response = self._session.post(
                    self.endpoint, json=body, headers=headers, timeout=self.timeout
                )
            except Exception as exc:
                last_error = BackendError(
                    f"LLM request failed: {exc}",
                    diagnostics={"endpoint": self.endpoint, "attempt": attempt},
                )
                continue
            status = getattr(response, "status_code", 0)
            if status != 200:
                last_error = BackendError(
                    f"LLM endpoint returned status {status}",
                    diagnostics={"status": status, "attempt": attempt},
                )
                continue
            try:
                payload = response.json()
                content = payload["choices"][0]["message"]["content"]
            except Exception as exc:
                last_error = BackendError(
                    f"malformed LLM response: {exc}",
                    diagnostics={"attempt": attempt},
                )
                continue
            if not isinstance(content, str) or not content:
                last_error = BackendError(
                    "LLM response content missing or empty",
                    diagnostics={"attempt": attempt},
                )
                continue
            return content
        assert last_error is not None
        raise last_error


def cache_digest(backend_id: str, prompt: str, dimension: DimensionSpec, pole: int) -> str:
    """Stable content hash of one rewrite request: the backend (for the
    LLM backend its model and endpoint), the prompt, the dimension's name,
    the pole and that pole's text, which the LLM instruction quotes."""
    raw = json.dumps(
        [backend_id, prompt, dimension.name, int(pole), dimension.pole_text(pole)],
        ensure_ascii=False,
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def _parse_record(line: bytes) -> tuple[str, str]:
    record = json.loads(line)
    return record["digest"], record["output"]


class PolarizationCache:
    """Disk-backed rewrite cache: newline-delimited {digest, output} records.

    Each record is appended by a single write, and appends within a process
    are serialized; concurrent misses on the same key perform a
    single backend fetch (other callers wait and reuse the result).
    """

    def __init__(self, path: str | Path | None = DEFAULT_CACHE_PATH):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, str] = {}
        self._pending: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            self._load()

    @classmethod
    def in_memory(cls) -> "PolarizationCache":
        return cls(path=None)

    def _load(self):
        """Read every record. The last line of an append cut short has no
        newline: if it does not parse it is dropped with a warning and cut
        from the file, and if it does its newline is restored, so the next
        append starts on a fresh line. Any other record that does not
        parse raises BackendError."""
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        tail = lines[-1]  # empty unless the file ends mid-line
        if tail.strip():
            try:
                _parse_record(tail)
            except (ValueError, KeyError, TypeError) as exc:
                log.warning(
                    "dropping torn record at the end of %s (%d bytes): %s",
                    self.path, len(tail), exc,
                )
                os.truncate(self.path, len(data) - len(tail))
                lines.pop()
            else:
                with open(self.path, "ab") as fh:
                    fh.write(b"\n")
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                digest, output = _parse_record(line)
            except (ValueError, KeyError, TypeError) as exc:
                raise BackendError(
                    f"corrupt cache record at {self.path}:{lineno}: {exc}"
                ) from exc
            self._entries[digest] = output

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> str | None:
        with self._lock:
            return self._entries.get(digest)

    def store(self, digest: str, output: str):
        with self._lock:
            self._store_locked(digest, output)

    def _store_locked(self, digest: str, output: str):
        if digest in self._entries:
            return
        self._entries[digest] = output
        if self.path is None:
            return
        record = (json.dumps({"digest": digest, "output": output}) + "\n").encode("utf-8")
        # one write on an O_APPEND descriptor lands whole at the current end
        # of the file, so appends from several processes never interleave
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, record)
        finally:
            os.close(fd)
        if written != len(record):
            raise BackendError(
                f"short append to {self.path}: {written} of {len(record)} bytes"
            )

    def fetch(
        self,
        backend: PolarizerBackend,
        prompt: str,
        dimension: DimensionSpec,
        pole: int,
    ) -> str:
        digest = cache_digest(backend.backend_id, prompt, dimension, pole)
        while True:
            with self._lock:
                cached = self._entries.get(digest)
                if cached is not None:
                    return cached
                event = self._pending.get(digest)
                if event is None:
                    self._pending[digest] = threading.Event()
                    break
            event.wait()
        try:
            output = backend.polarize(prompt, dimension, pole)
        except BaseException:
            with self._lock:
                self._pending.pop(digest).set()
            raise
        with self._lock:
            self._store_locked(digest, output)
            self._pending.pop(digest).set()
        return output


def polarize_once(
    backend: PolarizerBackend,
    prompt: str,
    dimension: DimensionSpec,
    pole: int,
    cache: PolarizationCache | None = None,
) -> str:
    """One rewrite of prompt toward the given pole, via the cache."""
    if not prompt:
        raise ContractViolation("prompt must be nonempty")
    if cache is None:
        return backend.polarize(prompt, dimension, pole)
    return cache.fetch(backend, prompt, dimension, pole)


def build_chain_orders(n: int) -> list[tuple[int, ...]]:
    """The n cyclic rewrite orders; order j starts at dimension j."""
    if not 1 <= n <= MAX_DIMENSIONS:
        raise ContractViolation(f"chain orders need 1 <= n <= {MAX_DIMENSIONS}, got {n}")
    return [
        tuple(((j + offset) % n) + 1 for offset in range(n)) for j in range(n)
    ]


@dataclass(frozen=True)
class PromptChain:
    """One full rewrite pass: every dimension applied once, in one order."""

    applications: tuple[tuple[int, int], ...]  # (dimension index, pole)
    result: str
    intermediates: tuple[str, ...]

    def __post_init__(self):
        indices = [idx for idx, _ in self.applications]
        if sorted(indices) != list(range(1, len(indices) + 1)):
            raise ContractViolation(
                f"chain must apply each dimension exactly once, got {indices}"
            )
        if len(self.intermediates) != len(self.applications):
            raise ContractViolation("one intermediate prompt per application")
        if self.intermediates and self.intermediates[-1] != self.result:
            raise ContractViolation("final intermediate must equal the result")

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.applications)


@dataclass(frozen=True)
class PolarizedPromptSet:
    """The n counterbalanced chains representing one anchor's semantics."""

    anchor: CognitiveAnchor
    base_prompt: str
    chains: tuple[PromptChain, ...]

    def __post_init__(self):
        n = len(self.anchor)
        if len(self.chains) != n:
            raise ContractViolation(f"expected {n} chains, got {len(self.chains)}")
        for j, chain in enumerate(self.chains, start=1):
            if chain.applications[0][0] != j:
                raise ContractViolation(
                    f"chain {j} must start at dimension {j}, "
                    f"got {chain.applications[0][0]}"
                )
            for idx, pole in chain.applications:
                if pole != self.anchor.bits[idx - 1]:
                    raise ContractViolation(
                        f"chain {j} applies pole {pole} for dimension {idx}, "
                        f"anchor bit is {self.anchor.bits[idx - 1]}"
                    )

    @property
    def results(self) -> tuple[str, ...]:
        return tuple(chain.result for chain in self.chains)


def build_prompt_set(
    backend: PolarizerBackend,
    prompt: str,
    anchor: CognitiveAnchor,
    space: CognitiveSpace,
    cache: PolarizationCache | None = None,
) -> PolarizedPromptSet:
    """All n cyclic chains for one anchor. Uses n**2 rewrites before caching."""
    if len(anchor) != space.n:
        raise ContractViolation(
            f"anchor has {len(anchor)} bits but space has {space.n} dimensions"
        )
    chains = []
    for j, order in enumerate(build_chain_orders(space.n), start=1):
        current = prompt
        intermediates = []
        applications = []
        for position, dim_index in enumerate(order, start=1):
            dimension = space.dimensions[dim_index - 1]
            pole = anchor.bits[dim_index - 1]
            try:
                current = polarize_once(backend, current, dimension, pole, cache)
            except BackendError as exc:
                raise BackendError(
                    f"chain {j} position {position} (dimension {dimension.name}): {exc}",
                    diagnostics=exc.diagnostics,
                ) from exc
            intermediates.append(current)
            applications.append((dim_index, pole))
        chains.append(
            PromptChain(
                applications=tuple(applications),
                result=current,
                intermediates=tuple(intermediates),
            )
        )
    return PolarizedPromptSet(anchor=anchor, base_prompt=prompt, chains=tuple(chains))


def build_all_sets(
    backend: PolarizerBackend,
    prompt: str,
    space: CognitiveSpace,
    cache: PolarizationCache | None = None,
) -> list[PolarizedPromptSet]:
    """Prompt sets for all 2**n anchors, in canonical anchor order."""
    return [
        build_prompt_set(backend, prompt, anchor, space, cache)
        for anchor in enumerate_anchors(space)
    ]


def prompt_sets_to_json(
    base_prompt: str, space: CognitiveSpace, sets: list[PolarizedPromptSet]
) -> dict:
    """Export document for external generators."""
    return {
        "base_prompt": base_prompt,
        "space": space.to_records(),
        "sets": [
            {
                "anchor_bits": list(ps.anchor.bits),
                "chains": [
                    {"order": list(chain.order), "result": chain.result}
                    for chain in ps.chains
                ],
            }
            for ps in sets
        ],
    }
