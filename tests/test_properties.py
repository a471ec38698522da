"""Property-based tests: template tags, anchor weights and the rewrite cache."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from cogflow.cogspace import ScoreVector, weight_vector
from cogflow.polarize import PolarizationCache, format_template_prompt, parse_template_tags

# no example database: runs leave nothing in the checkout
PROPERTY = settings(max_examples=200, deadline=None, database=None)

no_markup = st.characters(blacklist_characters="«»")
tag_names = st.text(st.characters(blacklist_characters="«»:"), min_size=1, max_size=8)
tag_lists = st.lists(st.tuples(tag_names, st.sampled_from([0, 1])), max_size=6)


@PROPERTY
@given(base=st.text(no_markup, max_size=20), tags=tag_lists)
def test_template_tags_round_trip(base, tags):
    prompt = format_template_prompt(base, tags)
    # with tags present the separating spaces before them are not base text
    want_base = base.rstrip(" ") if tags else base
    assert parse_template_tags(prompt) == (want_base, tags)
    # formatting what was parsed gives a prompt that parses the same way
    assert parse_template_tags(format_template_prompt(want_base, tags)) == (want_base, tags)


@PROPERTY
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
))
def test_weight_vector_is_a_partition_of_unity(score):
    weights = weight_vector(ScoreVector(tuple(score)))
    assert weights.shape == (1 << len(score),)
    assert np.all(weights >= 0.0)
    assert abs(weights.sum() - 1.0) <= 1e-12


@PROPERTY
@given(
    outputs=st.lists(st.text(st.characters(), max_size=12), min_size=1, max_size=5),
    data=st.data(),
)
def test_cache_cut_at_any_byte_reloads_the_records_before_the_cut(outputs, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.ndjson"
        cache = PolarizationCache(path)
        for i, output in enumerate(outputs):
            cache.store(f"d{i}", output)
        whole = path.read_bytes()
        cut = data.draw(st.integers(0, len(whole)), label="cut")
        path.write_bytes(whole[:cut])
        # a record survives when its text, up to its newline, is before the cut
        ends = np.cumsum([len(line) + 1 for line in whole.split(b"\n")[:-1]]) - 1
        kept = {f"d{i}": out for i, out in enumerate(outputs) if ends[i] <= cut}
        reloaded = PolarizationCache(path)
        assert {d: reloaded.get(d) for d in kept} == kept and len(reloaded) == len(kept)
        # the file now holds exactly the surviving records, newline-terminated
        lines = path.read_bytes().splitlines(keepends=True)
        assert [json.loads(line)["digest"] for line in lines] == list(kept)
        assert all(line.endswith(b"\n") for line in lines)
