import io
import json
import os
import threading
from dataclasses import replace

import pytest

from cogflow.cogspace import CognitiveAnchor, DimensionSpec, enumerate_anchors
from cogflow.errors import BackendError, BindingError, ContractViolation
from cogflow.polarize import (
    LlmBackend,
    PolarizationCache,
    PolarizedPromptSet,
    PromptChain,
    TemplateBackend,
    build_all_sets,
    build_chain_orders,
    build_prompt_set,
    cache_digest,
    format_template_prompt,
    parse_template_tags,
    polarize_once,
    prompt_sets_to_json,
)

from conftest import make_space


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

def test_build_prompt_set_two_dimensions():
    # cyclic orders (1,2) and (2,1) with anchor poles (+, -)
    space = make_space(2)
    anchor = CognitiveAnchor((1, 0))
    prompt_set = build_prompt_set(TemplateBackend(), "a valley", anchor, space)
    assert prompt_set.results == (
        "a valley «d1:+»«d2:-»",
        "a valley «d2:-»«d1:+»",
    )
    assert [c.order for c in prompt_set.chains] == [(1, 2), (2, 1)]
    assert prompt_set.chains[0].intermediates == (
        "a valley «d1:+»",
        "a valley «d1:+»«d2:-»",
    )


def test_build_prompt_set_single_dimension():
    space = make_space(1)
    prompt_set = build_prompt_set(TemplateBackend(), "p", CognitiveAnchor((1,)), space)
    assert len(prompt_set.chains) == 1
    assert prompt_set.chains[0].applications == ((1, 1),)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_uncached_invocation_counts(n):
    space = make_space(n)
    backend = TemplateBackend()
    build_prompt_set(backend, "p", enumerate_anchors(space)[0], space)
    assert backend.calls == n * n
    backend_all = TemplateBackend()
    sets = build_all_sets(backend_all, "p", space)
    assert backend_all.calls == n * n * (1 << n)
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
    cache = PolarizationCache(path)
    for i in range(count):
        cache.store(f"d{i}", f"out{i}")
    return path.read_bytes()


def test_cache_drops_torn_tail_with_warning(tmp_path, caplog):
    path = tmp_path / "cache.ndjson"
    data = filled_cache(path)
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    path.write_bytes(data[: len(data) - 1 - len(last) // 2])
    with caplog.at_level("WARNING", logger="cogflow.polarize"):
        cache = PolarizationCache(path)
    assert len(cache) == 2 and cache.get("d2") is None
    assert [r.name for r in caplog.records] == ["cogflow.polarize"]
    assert "torn record" in caplog.records[0].getMessage()
    # the file is cut back to its last complete record
    assert path.read_bytes() == data[: len(data) - len(last) - 1]
    cache.store("d2", "again")
    cache.store("d3", "new")
    reloaded = PolarizationCache(path)
    assert {d: reloaded.get(d) for d in ("d0", "d1", "d2", "d3")} == {
        "d0": "out0", "d1": "out1", "d2": "again", "d3": "new"
    }


def test_cache_restores_newline_of_whole_last_record(tmp_path, caplog):
    path = tmp_path / "cache.ndjson"
    data = filled_cache(path)
    path.write_bytes(data[:-1])
    with caplog.at_level("WARNING", logger="cogflow.polarize"):
        cache = PolarizationCache(path)
    assert len(cache) == 3 and not caplog.records
    assert path.read_bytes() == data
    cache.store("d3", "new")
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
    cache.store("big", output)
    record = path.read_bytes()
    assert calls == [len(record)] and len(record) > io.DEFAULT_BUFFER_SIZE
    assert PolarizationCache(path).get("big") == output


def test_cache_short_append_is_backend_error(tmp_path, monkeypatch):
    path = tmp_path / "cache.ndjson"
    cache = PolarizationCache(path)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:5]))
    with pytest.raises(BackendError, match="short append"):
        cache.store("d0", "out0")


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


def test_polarize_once_requires_nonempty_prompt(space2):
    with pytest.raises(ContractViolation):
        polarize_once(TemplateBackend(), "", space2.dimensions[0], 1)


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
        results.append(polarize_once(backend, "p", dim, 1, cache))

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


def test_llm_cache_key_covers_pole_text_and_endpoint(space2, tmp_path):
    """A cached rewrite is reused only for the same endpoint, model, prompt,
    dimension, pole and pole text; changing any of them fetches again."""
    dim = space2.dimensions[0]
    cache = PolarizationCache(tmp_path / "cache.ndjson")
    session = FakeSession([ok_response(f"rewrite {i}") for i in range(3)])

    def fetch(endpoint, dimension):
        backend = LlmBackend(endpoint, "m", session=session)
        return polarize_once(backend, "a valley", dimension, 1, cache)

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


def test_backend_error_carries_chain_context(space2):
    session = FakeSession([FakeResponse(status_code=500)] * 4)
    backend = LlmBackend("http://llm.local", "m", session=session, sleep=lambda _: None)
    with pytest.raises(BackendError) as err:
        build_prompt_set(backend, "p", CognitiveAnchor((1, 0)), space2)
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
