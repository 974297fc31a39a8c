"""Differential tests: token-set Algorithm 2 against the per-pair oracle.

``filtering_reference`` (next to this file) scores every (result,
sub-query) pair by re-tokenizing both strings, as the paper's
pseudo-code reads.  :func:`~repro.core.filtering.filter_results`
tokenizes each string once into a word set; every score, keep/drop
decision and filtered page must be identical — over random case,
punctuation, repeated words, stopwords, blank titles or snippets (the
ablation blanks fields) and empty fake lists.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from filtering_reference import (
    reference_decisions,
    reference_filter,
    reference_nb_common_words,
    reference_score_result,
)
from repro.core.filtering import filter_results, score_result
from repro.search.documents import SearchResult
from repro.textutils import nb_common_words

WORDS = ["hotel", "Hotel", "ROME", "rome", "cheap", "diabetes", "nfl",
         "the", "of", "and", "a", "rates", "2017", "x1"]
SEPARATORS = [" ", "  ", ", ", "-", "!", ". ", "'", "\t", "/"]


@st.composite
def texts(draw, min_words=0):
    chosen = draw(st.lists(st.sampled_from(WORDS), min_size=min_words,
                           max_size=10))
    out = draw(st.sampled_from(["", " ", "("]))
    for word in chosen:
        out += word + draw(st.sampled_from(SEPARATORS))
    return out


@st.composite
def results(draw):
    rank = draw(st.integers(1, 40))
    tracked = draw(st.booleans())
    url = f"http://r{rank}.example.com/"
    if tracked:
        url = "http://engine.example.com/redirect?target=" + url
    return SearchResult(rank=rank, url=url, title=draw(texts()),
                        snippet=draw(texts()), score=1.0 / rank)


originals = texts(min_words=1)
fake_lists = st.lists(texts(), max_size=8)
result_pages = st.lists(results(), max_size=24)


@given(original=originals, fakes=fake_lists, page=result_pages)
@settings(max_examples=200, deadline=None)
def test_decisions_match_reference(original, fakes, page):
    assert (filter_results(original, fakes, page, explain=True)
            == reference_decisions(original, fakes, page))


@given(original=originals, fakes=fake_lists, page=result_pages,
       strip=st.booleans())
@settings(max_examples=200, deadline=None)
def test_filtered_page_matches_reference(original, fakes, page, strip):
    assert (filter_results(original, fakes, page, strip_tracking=strip)
            == reference_filter(original, fakes, page, strip_tracking=strip))


@given(original=originals, page=result_pages)
@settings(max_examples=60, deadline=None)
def test_fakes_may_be_any_iterable(original, page):
    fakes = ["hotel rome", "nfl the"]
    assert (filter_results(original, iter(fakes), page)
            == reference_filter(original, fakes, page))


@given(query=texts(), result=results())
@settings(max_examples=200, deadline=None)
def test_scores_match_reference(query, result):
    assert score_result(query, result) == reference_score_result(query, result)
    assert (nb_common_words(query, result.title)
            == reference_nb_common_words(query, result.title))


def test_blank_fields_score_zero_and_are_kept():
    blank = SearchResult(rank=1, url="http://r1.example.com/", title="",
                         snippet="", score=1.0)
    decisions = filter_results("cheap hotel rome", ["nfl playoffs"], [blank],
                               explain=True)
    assert decisions == reference_decisions("cheap hotel rome",
                                            ["nfl playoffs"], [blank])
    assert decisions[0].kept and decisions[0].best_score == 0
