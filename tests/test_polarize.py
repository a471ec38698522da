import hashlib
import io
import json
import os
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cogflow.cogspace import CognitiveAnchor, CognitiveSpace, DimensionSpec
from cogflow.errors import BackendError, BindingError, ContractViolation
from cogflow.polarize import (
    LlmBackend,
    PolarizationCache,
    PolarizedPromptSet,
    PromptChain,
    TemplateBackend,
    build_all_sets,
    build_chain_orders,
    cache_digest,
    format_template_prompt,
    indented_json,
    parse_template_tags,
    prompt_sets_to_json,
)

from conftest import STUB_DIMENSION, StubBackend, make_space, seed_cache, stub_digest


# --- chain orders ---------------------------------------------------------

def test_chain_orders_small_cases():
    assert build_chain_orders(1) == [(1,)]
    assert build_chain_orders(2) == [(1, 2), (2, 1)]
    assert build_chain_orders(3) == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]


@pytest.mark.parametrize("n", range(1, 7))
def test_chain_orders_form_a_latin_square(n):
    orders = build_chain_orders(n)
    assert len(orders) == n
    full = set(range(1, n + 1))
    for order in orders:
        assert set(order) == full
    for position in range(n):
        assert {order[position] for order in orders} == full


def test_chain_orders_rejects_bad_n():
    with pytest.raises(ContractViolation):
        build_chain_orders(0)
    with pytest.raises(ContractViolation):
        build_chain_orders(7)


# --- template backend -----------------------------------------------------

def test_template_backend_appends_tags(space2):
    backend = TemplateBackend()
    valence, arousal = space2.dimensions
    first = backend.polarize("a valley", valence, 1)
    assert first == "a valley «valence:+»"
    second = backend.polarize(first, arousal, 0)
    assert second == "a valley «valence:+»«arousal:-»"


def test_template_backend_retag_moves_to_end(space2):
    backend = TemplateBackend()
    valence, arousal = space2.dimensions
    prompt = backend.polarize("a valley", valence, 1)
    prompt = backend.polarize(prompt, arousal, 0)
    retagged = backend.polarize(prompt, valence, 0)
    assert retagged == "a valley «arousal:-»«valence:-»"


def test_template_backend_distinct_orders_distinct_strings(space2):
    backend = TemplateBackend()
    valence, arousal = space2.dimensions
    ab = backend.polarize(backend.polarize("p", valence, 1), arousal, 1)
    ba = backend.polarize(backend.polarize("p", arousal, 1), valence, 1)
    assert ab != ba


def test_parse_format_round_trip():
    base, tags = parse_template_tags("a valley «d1:+»«d2:-»")
    assert base == "a valley"
    assert tags == [("d1", 1), ("d2", 0)]
    assert format_template_prompt(base, tags) == "a valley «d1:+»«d2:-»"
    assert parse_template_tags("plain prompt") == ("plain prompt", [])


def test_parse_rejects_malformed_markup():
    with pytest.raises(BindingError):
        parse_template_tags("broken «d1:+")
    with pytest.raises(BindingError):
        parse_template_tags("a «d1:+» trailing text")


# --- prompt sets ----------------------------------------------------------

def test_prompt_set_two_dimensions():
    # cyclic orders (1,2) and (2,1) with anchor poles (+, -)
    space = make_space(2)
    anchor = CognitiveAnchor((1, 0))
    prompt_set = build_all_sets(TemplateBackend(), "a valley", space)[anchor.index - 1]
    assert prompt_set.results == (
        "a valley «d1:+»«d2:-»",
        "a valley «d2:-»«d1:+»",
    )
    assert [c.order for c in prompt_set.chains] == [(1, 2), (2, 1)]
    assert prompt_set.chains[0].intermediates == (
        "a valley «d1:+»",
        "a valley «d1:+»«d2:-»",
    )


def test_prompt_set_single_dimension():
    space = make_space(1)
    anchor = CognitiveAnchor((1,))
    prompt_set = build_all_sets(TemplateBackend(), "p", space)[anchor.index - 1]
    assert len(prompt_set.chains) == 1
    assert prompt_set.chains[0].applications == ((1, 1),)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_uncached_invocation_counts(n):
    # n**2 rewrite steps per anchor, one backend call per distinct step
    space = make_space(n)
    backend_all = TemplateBackend()
    sets = build_all_sets(backend_all, "p", space)
    assert sum(len(chain.intermediates) for chain in sets[0].chains) == n * n
    assert backend_all.calls == distinct_rewrites(n)
    assert len(sets) == 1 << n
    assert [s.anchor.index for s in sets] == list(range(1, (1 << n) + 1))


def test_pole_consistency_enforced():
    chain = PromptChain(
        applications=((1, 1), (2, 0)),
        result="r",
        intermediates=("a", "r"),
    )
    with pytest.raises(ContractViolation):
        PolarizedPromptSet(
            anchor=CognitiveAnchor((0, 0)), base_prompt="p", chains=(chain, chain)
        )


def test_chain_validation():
    with pytest.raises(ContractViolation):
        PromptChain(applications=((1, 1), (1, 0)), result="r", intermediates=("a", "r"))
    with pytest.raises(ContractViolation):
        PromptChain(applications=((1, 1),), result="r", intermediates=("other",))


# --- cache ----------------------------------------------------------------

def test_warm_cache_performs_zero_backend_calls():
    space = make_space(2)
    backend = TemplateBackend()
    cache = PolarizationCache.in_memory()
    first = build_all_sets(backend, "a valley", space, cache)
    cold_calls = backend.calls
    assert cold_calls > 0
    second = build_all_sets(backend, "a valley", space, cache)
    assert backend.calls == cold_calls
    assert [s.results for s in first] == [s.results for s in second]


def test_cache_outputs_identical_to_uncached():
    space = make_space(2)
    plain = build_all_sets(TemplateBackend(), "a valley", space, None)
    cached = build_all_sets(TemplateBackend(), "a valley", space, PolarizationCache.in_memory())
    assert [s.results for s in plain] == [s.results for s in cached]


def distinct_rewrites(n):
    """Distinct rewrite steps of a full build: n * (2**(n+1) - 2) of the
    n**2 * 2**n, since chains share prefixes across anchors."""
    return n * ((1 << (n + 1)) - 2)


def counted_fetches(cache):
    """Wrap cache.fetch on the instance, as a tracer does; returns the
    list that gets one entry per fetch."""
    calls = []
    fetch = cache.fetch

    def counting_fetch(*args, **kwargs):
        calls.append(args)
        return fetch(*args, **kwargs)

    cache.fetch = counting_fetch
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cached_build_fetches_each_distinct_rewrite_once(n):
    space = make_space(n)
    backend = TemplateBackend()
    cache = PolarizationCache.in_memory()
    fetches = counted_fetches(cache)
    cold = build_all_sets(backend, "p", space, cache)
    assert len(fetches) == distinct_rewrites(n)
    assert backend.calls == distinct_rewrites(n)
    warm = build_all_sets(backend, "p", space, cache)
    assert len(fetches) == 2 * distinct_rewrites(n)
    assert backend.calls == distinct_rewrites(n)
    assert warm == cold == build_all_sets(TemplateBackend(), "p", space)


class RecordingBackend(TemplateBackend):
    """The template backend, keeping each (prompt, dimension name, pole)
    it is asked, in order."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def polarize(self, prompt, dimension, pole):
        self.asked.append((prompt, dimension.name, pole))
        return super().polarize(prompt, dimension, pole)


@pytest.mark.parametrize("n", range(1, 7))
def test_uncached_build_asks_what_a_cold_cached_build_asks(n):
    # one backend call per distinct rewrite either way: 756 at n = 6
    space = make_space(n)
    uncached, cold = RecordingBackend(), RecordingBackend()
    plain = build_all_sets(uncached, "p", space)
    cached = build_all_sets(cold, "p", space, PolarizationCache.in_memory())
    assert uncached.asked == cold.asked
    assert uncached.calls == distinct_rewrites(n)
    assert plain == cached


def test_cached_build_writes_the_same_bytes(tmp_path):
    # golden sha256 of the cache file and of the export at n = 3: reusing
    # a build's repeat rewrites must not change what the build writes
    space = make_space(3)
    path = tmp_path / "cache.ndjson"
    sets = build_all_sets(TemplateBackend(), "a valley", space, PolarizationCache(path))
    export = json.dumps(prompt_sets_to_json("a valley", space, sets), indent=2) + "\n"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "04ee855d0652730f21697a1db8149d4c141dca13f44829e9b1c55dccd9794491"
    )
    assert hashlib.sha256(export.encode("utf-8")).hexdigest() == (
        "528161c865703c9bdc7e12b3b39315a81e63c24cc11b76ebdbbfaaf7b31b836f"
    )


def test_two_builds_on_one_cache_in_two_threads():
    class LockedBackend(TemplateBackend):
        """The template backend, counting under a lock and slow enough
        that the two builds ask for the same rewrite at the same time."""

        def __init__(self):
            super().__init__()
            self.lock = threading.Lock()

        def polarize(self, prompt, dimension, pole):
            with self.lock:
                output = super().polarize(prompt, dimension, pole)
            threading.Event().wait(0.001)
            return output

    n = 3
    space = make_space(n)
    backend = LockedBackend()
    cache = PolarizationCache.in_memory()
    results = [None, None]

    def worker(slot):
        results[slot] = build_all_sets(backend, "a valley", space, cache)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert results[0] == results[1] == build_all_sets(TemplateBackend(), "a valley", space)
    assert backend.calls == distinct_rewrites(n)


def test_cache_persists_and_reloads(tmp_path, space2):
    path = tmp_path / "cache.ndjson"
    backend = TemplateBackend()
    cache = PolarizationCache(path)
    sets = build_all_sets(backend, "a valley", space2, cache)
    assert path.exists()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(set(rec) == {"digest", "output"} for rec in records)
    # a second process sees the same bytes and never calls the backend
    fresh_backend = TemplateBackend()
    reloaded = PolarizationCache(path)
    again = build_all_sets(fresh_backend, "a valley", space2, reloaded)
    assert fresh_backend.calls == 0
    assert [s.results for s in again] == [s.results for s in sets]


def test_cache_rejects_corrupt_records(tmp_path):
    path = tmp_path / "cache.ndjson"
    path.write_text('{"digest": "x", "output": "y"}\nnot json\n')
    with pytest.raises(BackendError):
        PolarizationCache(path)


def filled_cache(path, count=3):
    seed_cache(PolarizationCache(path), {f"p{i}": f"out{i}" for i in range(count)})
    return path.read_bytes()


def test_cache_drops_torn_tail_with_warning(tmp_path, caplog):
    path = tmp_path / "cache.ndjson"
    data = filled_cache(path)
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    path.write_bytes(data[: len(data) - 1 - len(last) // 2])
    with caplog.at_level("WARNING", logger="cogflow.polarize"):
        cache = PolarizationCache(path)
    assert len(cache) == 2 and cache.get(stub_digest("p2")) is None
    assert [r.name for r in caplog.records] == ["cogflow.polarize"]
    assert "torn record" in caplog.records[0].getMessage()
    # the file is cut back to its last complete record
    assert path.read_bytes() == data[: len(data) - len(last) - 1]
    seed_cache(cache, {"p2": "again", "p3": "new"})
    reloaded = PolarizationCache(path)
    assert {p: reloaded.get(stub_digest(p)) for p in ("p0", "p1", "p2", "p3")} == {
        "p0": "out0", "p1": "out1", "p2": "again", "p3": "new"
    }


def test_cache_restores_newline_of_whole_last_record(tmp_path, caplog):
    path = tmp_path / "cache.ndjson"
    data = filled_cache(path)
    path.write_bytes(data[:-1])
    with caplog.at_level("WARNING", logger="cogflow.polarize"):
        cache = PolarizationCache(path)
    assert len(cache) == 3 and not caplog.records
    assert path.read_bytes() == data
    seed_cache(cache, {"p3": "new"})
    assert len(PolarizationCache(path)) == 4


def test_cache_appends_each_record_in_one_write(tmp_path, monkeypatch):
    path = tmp_path / "cache.ndjson"
    cache = PolarizationCache(path)
    calls = []
    real_write = os.write

    def counting_write(fd, data):
        calls.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", counting_write)
    output = "x" * (2 * io.DEFAULT_BUFFER_SIZE)
    seed_cache(cache, {"big": output})
    record = path.read_bytes()
    assert calls == [len(record)] and len(record) > io.DEFAULT_BUFFER_SIZE
    assert PolarizationCache(path).get(stub_digest("big")) == output


def test_cache_short_append_is_backend_error(tmp_path, monkeypatch):
    path = tmp_path / "cache.ndjson"
    cache = PolarizationCache(path)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:5]))
    with pytest.raises(BackendError, match="short append"):
        seed_cache(cache, {"p0": "out0"})


class BlockingBackend(StubBackend):
    """The stub backend, counting its calls. The first call sets entered
    and returns once proceed is set; with an error given, every call
    raises it instead of returning."""

    def __init__(self, outputs, error=None):
        super().__init__(outputs)
        self.calls = 0
        self.error = error
        self.entered, self.proceed = threading.Event(), threading.Event()

    def polarize(self, prompt, dimension, pole):
        self.calls += 1
        if self.calls == 1:
            self.entered.set()
            self.proceed.wait(5)
        if self.error is not None:
            raise self.error
        return super().polarize(prompt, dimension, pole)


def blocking_acquire_signal(signal):
    """A profile function (see sys.setprofile) that sets signal when its
    thread calls acquire() on a lock another thread holds: where a fetch
    blocks waiting on the same digest's fetch in flight."""

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "acquire":
            locked = getattr(arg.__self__, "locked", None)
            if locked is not None and locked():
                signal.set()

    return profile


def race_two_fetches(cache, backend):
    """Two threads fetch prompt p1: the second starts while the first is
    in the backend, and the backend goes on once the second waits. Returns
    both threads and their outcomes, each an output or the BackendError
    raised."""
    waiting = threading.Event()
    outcomes = {}

    def fetch(name, profile=None):
        sys.setprofile(profile)
        try:
            outcomes[name] = cache.fetch(backend, "p1", STUB_DIMENSION, 1)
        except BackendError as exc:
            outcomes[name] = exc
        finally:
            sys.setprofile(None)

    threads = [
        threading.Thread(target=fetch, args=("first",), daemon=True),
        threading.Thread(target=fetch, args=("second", blocking_acquire_signal(waiting)), daemon=True),
    ]
    threads[0].start()
    assert backend.entered.wait(2)
    threads[1].start()
    assert waiting.wait(2)
    backend.proceed.set()
    for thread in threads:
        thread.join(2)
    return threads, outcomes


def short_append_race(path, monkeypatch):
    """Two threads fetch prompt p1 into a cache at path that holds p0,
    with every append cut to 5 bytes (see race_two_fetches). Returns the
    cache, the backend (which counts its calls), both threads and their
    outcomes."""
    cache = PolarizationCache(path)
    seed_cache(cache, {"p0": "out0"})
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:5]))
    backend = BlockingBackend({"p1": "out1"})
    threads, outcomes = race_two_fetches(cache, backend)
    return cache, backend, threads, outcomes


def test_failed_backend_releases_the_waiting_thread(tmp_path):
    cache = PolarizationCache(tmp_path / "cache.ndjson")
    backend = BlockingBackend({"p1": "out1"}, error=BackendError("backend down"))
    threads, outcomes = race_two_fetches(cache, backend)
    assert not any(thread.is_alive() for thread in threads)
    assert isinstance(outcomes["first"], BackendError)
    assert outcomes["second"] == "out1" or isinstance(outcomes["second"], BackendError)
    # the failure leaves nothing pending and nothing stored
    calls = backend.calls
    with pytest.raises(BackendError, match="backend down"):
        cache.fetch(backend, "p1", STUB_DIMENSION, 1)
    assert backend.calls == calls + 1


def test_failed_append_releases_the_waiting_thread(tmp_path, monkeypatch):
    _, _, threads, outcomes = short_append_race(tmp_path / "cache.ndjson", monkeypatch)
    assert not any(thread.is_alive() for thread in threads)
    assert isinstance(outcomes["first"], BackendError)
    assert outcomes["second"] == "out1" or isinstance(outcomes["second"], BackendError)


def test_failed_append_keeps_no_entry(tmp_path, monkeypatch):
    cache, backend, _, _ = short_append_race(tmp_path / "cache.ndjson", monkeypatch)
    calls = backend.calls
    with pytest.raises(BackendError, match="short append"):
        cache.fetch(backend, "p1", STUB_DIMENSION, 1)
    assert backend.calls == calls + 1


def test_failed_append_cuts_its_torn_record(tmp_path, monkeypatch, caplog):
    """The process's cache and a reopened one agree: both hold p0 only, and
    the file holds p0's record alone once the failed appends return."""
    path = tmp_path / "cache.ndjson"
    with caplog.at_level("WARNING", logger="cogflow.polarize"):
        cache, _, _, _ = short_append_race(path, monkeypatch)
    monkeypatch.undo()
    assert "torn record" in caplog.records[0].getMessage()
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 1
    reopened = PolarizationCache(path)
    for held in (cache, reopened):
        assert len(held) == 1 and held.get(stub_digest("p0")) == "out0"
        assert held.get(stub_digest("p1")) is None
    assert path.read_bytes() == data


def test_whole_append_after_a_short_one_in_the_same_process(tmp_path, monkeypatch):
    """A 5-byte append of p1 raises; the whole append of p2 that follows in
    the same cache starts on a fresh line, so reopening holds p2 and not p1."""
    path = tmp_path / "cache.ndjson"
    cache = PolarizationCache(path)
    seed_cache(cache, {"p0": "out0"})
    real_write = os.write
    with monkeypatch.context() as patch:
        patch.setattr(os, "write", lambda fd, data: real_write(fd, data[:5]))
        with pytest.raises(BackendError, match="short append"):
            seed_cache(cache, {"p1": "out1"})
    seed_cache(cache, {"p2": "out2"})
    reopened = PolarizationCache(path)
    assert {p: reopened.get(stub_digest(p)) for p in ("p0", "p1", "p2")} == {
        "p0": "out0", "p1": None, "p2": "out2"
    }


@pytest.mark.parametrize("corrupt", [b"not json", b'{"digest": "x"}', b"[1, 2]"])
def test_cache_rejects_corrupt_record_mid_file(tmp_path, corrupt):
    path = tmp_path / "cache.ndjson"
    data = filled_cache(path)
    first, rest = data.split(b"\n", 1)
    path.write_bytes(first + b"\n" + corrupt + b"\n" + rest)
    with pytest.raises(BackendError, match=":2:"):
        PolarizationCache(path)
    # a newline-terminated last record is whole, never a torn tail
    path.write_bytes(data + corrupt + b"\n")
    with pytest.raises(BackendError, match=":4:"):
        PolarizationCache(path)
    assert path.read_bytes() == data + corrupt + b"\n"


def test_cache_digest_discriminates():
    d1 = DimensionSpec("d1", 1, "low", "high")
    base = cache_digest("template", "p", d1, 1)
    assert base != cache_digest("template", "p", d1, 0)
    assert base != cache_digest("template", "p", DimensionSpec("d2", 1, "low", "high"), 1)
    assert base != cache_digest("template", "p", replace(d1, high_pole_text="higher"), 1)
    assert base == cache_digest("template", "p", replace(d1, low_pole_text="lower"), 1)
    assert base != cache_digest("llm:m", "p", d1, 1)
    assert base == cache_digest("template", "p", d1, 1)


def test_cache_digest_bytes_are_pinned():
    # the digest is the on-disk key, so these values must never change
    d1 = DimensionSpec("d1", 1, "low", "high")
    assert cache_digest("template", "a valley at dusk", d1, 1) == (
        "a397ac1d1354c09bbd1e4e566c29f918368eeed6d7735510f90ee157cacfbd14"
    )
    assert cache_digest(
        "template", "a valley «d1:+» «d2:-»", DimensionSpec("d2", 2, "low", "high"), 0
    ) == "29059c8dbe0a3bb9c05b89ef1682b1072d42d9a3ebb11cf4b527437379166207"
    valence = DimensionSpec("valence", 1, "trübe", "heiter ☀")
    assert cache_digest("llm:m@http://llm.local", "a valley", valence, 1) == (
        "0dd744ef4fe2b609d828fd6c48f018e8aab83ac39a52bcad13ca9b16111f4d03"
    )
    assert cache_digest("template", 'a "quoted" back\\slash \x07 bell', d1, 0) == (
        "2e8dab419bd402304b34cd85b6d7722c29e52bd2acc0db7663b8fb2f60c6727c"
    )


def test_build_refuses_an_empty_prompt(space2):
    backend = TemplateBackend()
    with pytest.raises(ContractViolation):
        build_all_sets(backend, "", space2)
    assert backend.calls == 0


def test_cache_single_flight_under_concurrency(space2):
    class SlowBackend:
        backend_id = "slow"

        def __init__(self):
            self.calls = 0
            self.lock = threading.Lock()

        def polarize(self, prompt, dimension, pole):
            with self.lock:
                self.calls += 1
            threading.Event().wait(0.02)
            return prompt + "!"

    backend = SlowBackend()
    cache = PolarizationCache.in_memory()
    dim = space2.dimensions[0]
    results = []

    def worker():
        results.append(cache.fetch(backend, "p", dim, 1))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert backend.calls == 1
    assert results == ["p!"] * 8


# --- LLM backend ----------------------------------------------------------

class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_response(text):
    return FakeResponse(payload={"choices": [{"message": {"content": text}}]})


def test_llm_backend_request_shape(space2, monkeypatch):
    monkeypatch.setenv("COGFLOW_LLM_KEY", "secret-key")
    session = FakeSession([ok_response("a sunlit valley")])
    backend = LlmBackend("http://llm.local/v1/chat", "toy-model", session=session)
    out = backend.polarize("a valley", space2.dimensions[0], 1)
    assert out == "a sunlit valley"
    req = session.requests[0]
    assert req["url"] == "http://llm.local/v1/chat"
    assert req["timeout"] == 30.0
    assert req["json"]["model"] == "toy-model"
    assert req["json"]["temperature"] == 0
    assert req["headers"]["Authorization"] == "Bearer secret-key"
    system, user = req["json"]["messages"]
    assert system["role"] == "system"
    assert "enhance" in system["content"] and "valence" in system["content"]
    assert user == {"role": "user", "content": "a valley"}


def test_llm_backend_attenuate_instruction(space2, monkeypatch):
    monkeypatch.delenv("COGFLOW_LLM_KEY", raising=False)
    session = FakeSession([ok_response("a bleak valley")])
    backend = LlmBackend("http://llm.local", "m", session=session)
    backend.polarize("a valley", space2.dimensions[0], 0)
    system = session.requests[0]["json"]["messages"][0]["content"]
    assert "attenuate" in system
    assert "Authorization" not in session.requests[0]["headers"]


def test_llm_backend_retries_then_succeeds(space2):
    sleeps = []
    session = FakeSession(
        [FakeResponse(status_code=500), RuntimeError("boom"), ok_response("fine")]
    )
    backend = LlmBackend(
        "http://llm.local", "m", session=session, sleep=sleeps.append
    )
    assert backend.polarize("p", space2.dimensions[0], 1) == "fine"
    assert backend.calls == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff between attempts


def test_llm_backend_exhausts_retries(space2):
    session = FakeSession([FakeResponse(status_code=503)] * 4)
    backend = LlmBackend("http://llm.local", "m", session=session, sleep=lambda _: None)
    with pytest.raises(BackendError) as err:
        backend.polarize("p", space2.dimensions[0], 1)
    assert err.value.diagnostics["status"] == 503
    assert backend.calls == 4  # one attempt plus three retries


def test_llm_backend_malformed_response(space2):
    session = FakeSession([FakeResponse(payload={"weird": True})] * 4)
    backend = LlmBackend("http://llm.local", "m", session=session, sleep=lambda _: None)
    with pytest.raises(BackendError):
        backend.polarize("p", space2.dimensions[0], 1)


def test_llm_reply_that_utf8_cannot_encode_is_refused(space2, tmp_path):
    # a lone surrogate was appended to the cache, and the next rewrite
    # step's digest ended in a UnicodeEncodeError
    session = FakeSession([ok_response("a \ud800 valley")] * 4)
    backend = LlmBackend("http://llm.local", "m", session=session, sleep=lambda _: None)
    path = tmp_path / "cache.ndjson"
    with pytest.raises(BackendError) as err:
        build_all_sets(backend, "a valley", space2, PolarizationCache(path))
    assert "not UTF-8" in str(err.value)
    assert err.value.diagnostics["attempt"] == 3
    assert backend.calls == 4
    assert not path.exists()


def test_llm_cache_key_covers_pole_text_and_endpoint(space2, tmp_path):
    """A cached rewrite is reused only for the same endpoint, model, prompt,
    dimension, pole and pole text; changing any of them fetches again."""
    dim = space2.dimensions[0]
    cache = PolarizationCache(tmp_path / "cache.ndjson")
    session = FakeSession([ok_response(f"rewrite {i}") for i in range(3)])

    def fetch(endpoint, dimension):
        backend = LlmBackend(endpoint, "m", session=session)
        return cache.fetch(backend, "a valley", dimension, 1)

    assert fetch("http://a.local", dim) == "rewrite 0"
    assert fetch("http://a.local", dim) == "rewrite 0"
    assert len(session.requests) == 1
    assert fetch("http://a.local", replace(dim, high_pole_text="joyful")) == "rewrite 1"
    assert fetch("http://b.local", dim) == "rewrite 2"
    assert [r["url"] for r in session.requests] == ["http://a.local"] * 2 + ["http://b.local"]
    assert "joyful" in session.requests[1]["json"]["messages"][0]["content"]


def test_llm_backend_requires_endpoint():
    with pytest.raises(ContractViolation):
        LlmBackend("", "m", session=FakeSession([]))


@pytest.mark.parametrize(
    "setting",
    [{"retries": -1}, {"retries": 1.0}, {"retries": True},
     {"timeout": -1}, {"timeout": 0}, {"timeout": float("nan")}, {"timeout": "30"}],
)
def test_llm_backend_rejects_bad_retries_and_timeout(setting):
    # retries=-1 would make no attempt at all, and a timeout <= 0 fail
    # every attempt; both are refused before any request
    session = FakeSession([ok_response("unused")])
    with pytest.raises(ContractViolation):
        LlmBackend("http://llm.local", "m", session=session, **setting)
    assert session.requests == []


def test_llm_backend_accepts_zero_retries(space2):
    session = FakeSession([ok_response("once")])
    backend = LlmBackend("http://llm.local", "m", session=session, retries=0, timeout=0.5)
    assert backend.polarize("p", space2.dimensions[0], 1) == "once"
    assert backend.calls == 1


def test_backend_error_carries_chain_context(space2):
    session = FakeSession([FakeResponse(status_code=500)] * 4)
    backend = LlmBackend("http://llm.local", "m", session=session, sleep=lambda _: None)
    with pytest.raises(BackendError) as err:
        build_all_sets(backend, "p", space2)[CognitiveAnchor((1, 0)).index - 1]
    assert "chain 1 position 1" in str(err.value)


# --- export ---------------------------------------------------------------

def test_prompt_sets_export_schema(space2):
    sets = build_all_sets(TemplateBackend(), "a valley", space2)
    doc = prompt_sets_to_json("a valley", space2, sets)
    assert doc["base_prompt"] == "a valley"
    assert [rec["name"] for rec in doc["space"]] == ["valence", "arousal"]
    assert len(doc["sets"]) == 4
    first = doc["sets"][0]
    assert first["anchor_bits"] == [0, 0]
    assert first["chains"][0].keys() == {"order", "result"}
    json.dumps(doc)  # serializable


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, {"a": ()}, [[], {}], {"k": {"nested": [1, [2, {}]]}},
    {"ü \"key\"\\\n": "☀"},
    (True, False, None, -3, 2**70, 1.5, 1e300, float("nan"), float("-inf")),
])
def test_indented_json_is_json_dumps(value):
    assert indented_json(value) == json.dumps(value, indent=2)


# --- JSON bytes under escaping --------------------------------------------

# strings that need every escape json writes: quotes, backslashes, control
# characters, non-ASCII and astral text, the template's «» and lone
# surrogates, mixed with any other character
escaped_text = st.text(
    st.one_of(
        st.sampled_from(
            ['"', "\\", "\x00", "\x07", "\n", "\t", "\x1f", "\x7f", "ü", "☀",
             "\U0001f600", "«", "»", "\ud800", "\udfff"]
        ),
        st.characters(),
    ),
    max_size=8,
)
PROPERTY = settings(max_examples=100, deadline=None, database=None)


class EchoBackend:
    """Rewrites a prompt to itself followed by the pole's text, so every
    output holds the drawn strings."""

    backend_id = "echo"

    def polarize(self, prompt, dimension, pole):
        return prompt + dimension.pole_text(pole)


@PROPERTY
@given(n=st.integers(1, 4), data=st.data())
def test_export_text_is_json_dumps_indent_2(n, data):
    names = data.draw(st.lists(escaped_text.filter(bool), min_size=n, max_size=n, unique=True))
    poles = data.draw(st.lists(escaped_text, min_size=2 * n, max_size=2 * n))
    space = CognitiveSpace(tuple(
        DimensionSpec(name, i + 1, poles[2 * i], poles[2 * i + 1]) for i, name in enumerate(names)
    ))
    prompt = data.draw(escaped_text.filter(bool))
    doc = prompt_sets_to_json(prompt, space, build_all_sets(EchoBackend(), prompt, space))
    assert indented_json(doc) + "\n" == json.dumps(doc, indent=2) + "\n"


@PROPERTY
@given(outputs=st.lists(escaped_text, min_size=1, max_size=4))
def test_cache_records_are_json_dumps(outputs):
    outputs = {f"p{i}": output for i, output in enumerate(outputs)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.ndjson"
        seed_cache(PolarizationCache(path), outputs)
        data = path.read_bytes()
    assert data == "".join(
        json.dumps({"digest": stub_digest(prompt), "output": output}) + "\n"
        for prompt, output in outputs.items()
    ).encode("utf-8")


def reference_digest(backend_id, prompt, dimension, pole):
    """cache_digest as first defined: sha256 of json.dumps's text of the
    request with ensure_ascii=False."""
    raw = json.JSONEncoder(ensure_ascii=False).encode(
        [backend_id, prompt, dimension.name, int(pole), dimension.pole_text(pole)]
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


@PROPERTY
@given(
    backend_id=escaped_text, prompt=escaped_text, name=escaped_text.filter(bool),
    low=escaped_text, high=escaped_text, pole=st.sampled_from([0, 1]),
)
def test_cache_digest_hashes_the_json_text(backend_id, prompt, name, low, high, pole):
    dimension = DimensionSpec(name, 1, low, high)
    try:
        want = reference_digest(backend_id, prompt, dimension, pole)
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        with pytest.raises(UnicodeEncodeError):
            cache_digest(backend_id, prompt, dimension, pole)
    else:
        assert cache_digest(backend_id, prompt, dimension, pole) == want
