"""Differential tests: impact-column BM25 against the per-posting oracle.

``bm25_reference`` (next to this file) recomputes idf, weighted tf,
document length and the BM25 fraction for every posting at query time.
:class:`~repro.search.ranking.Bm25Ranker` precomputes one impact per
posting instead; every score must be the same float (``==``, in the
same dict order) and every ``top`` list the same, ties and all — over
random corpora with duplicate documents, stopwords and case, random
query bags, random BM25 parameters, documents added after the first
query, and threads racing on a cold ranker.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bm25_reference import reference_score, reference_top
from repro.search.corpus import CorpusConfig, CorpusGenerator
from repro.search.documents import WebDocument
from repro.search.index import InvertedIndex
from repro.search.ranking import Bm25Parameters, Bm25Ranker
from repro.textutils import tokenize

VOCABULARY = ["hotel", "Rome", "cheap", "flights", "diabetes", "symptoms",
              "nfl", "playoffs", "the", "and", "of", "rates", "mortgage",
              "ROME", "weather", "x1", "2017"]
words = st.sampled_from(VOCABULARY)
texts = st.lists(words, max_size=14).map(" ".join)
pages = st.tuples(texts, texts)
query_terms = st.lists(
    st.one_of(words.map(str.lower), st.sampled_from(["absent", "zzz"])),
    max_size=8,
)
parameters = st.builds(
    Bm25Parameters,
    k1=st.floats(min_value=0.01, max_value=3.0),
    b=st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def corpora(draw):
    """Pages, some of them repeated verbatim under new ids (exact ties)."""
    distinct = draw(st.lists(pages, min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=6))
    order = draw(st.permutations(distinct + repeats))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=len(order),
                        max_size=len(order), unique=True))
    return [WebDocument(doc_id=i, url=f"http://d{i}.example.com",
                        title=title, body=body)
            for i, (title, body) in zip(ids, order)]


def build(documents):
    index = InvertedIndex()
    index.add_all(documents)
    return index


def assert_same_scores(got: dict, want: dict) -> None:
    assert got == want
    assert list(got.items()) == list(want.items())


@given(documents=corpora(), terms=query_terms, params=parameters)
@settings(max_examples=150, deadline=None)
def test_score_matches_reference(documents, terms, params):
    index = build(documents)
    ranker = Bm25Ranker(index, params)
    assert_same_scores(ranker.score(terms), reference_score(index, terms, params))


@given(documents=corpora(), terms=query_terms,
       limit=st.integers(min_value=-2, max_value=30))
@settings(max_examples=150, deadline=None)
def test_top_matches_reference(documents, terms, limit):
    index = build(documents)
    assert Bm25Ranker(index).top(terms, limit) == reference_top(index, terms, limit)


def test_top_breaks_ties_at_the_cut_by_doc_id():
    # Five identical pages tie exactly; the cut falls inside the tie.
    documents = [WebDocument(doc_id=i, url=f"http://d{i}.example.com",
                             title="hotel rome", body="cheap hotel")
                 for i in (40, 7, 19, 3, 25)]
    documents.append(WebDocument(doc_id=1, url="http://d1.example.com",
                                 title="hotel hotel rome", body="hotel"))
    index = build(documents)
    top = Bm25Ranker(index).top(["hotel"], 3)
    assert top == reference_top(index, ["hotel"], 3)
    assert [doc_id for doc_id, _ in top] == [1, 3, 7]


@given(first=corpora(), later=st.lists(pages, min_size=1, max_size=4),
       terms=query_terms)
@settings(max_examples=80, deadline=None)
def test_documents_added_after_scoring_invalidate_the_impacts(first, later,
                                                              terms):
    index = build(first)
    ranker = Bm25Ranker(index)
    ranker.score(terms)
    next_id = max(d.doc_id for d in first) + 1
    for offset, (title, body) in enumerate(later):
        index.add(WebDocument(doc_id=next_id + offset,
                              url=f"http://late{offset}.example.com",
                              title=title, body=body))
    assert_same_scores(ranker.score(terms), Bm25Ranker(index).score(terms))
    assert_same_scores(ranker.score(terms), reference_score(index, terms))


@pytest.fixture(scope="module")
def corpus_index():
    documents = CorpusGenerator(CorpusConfig(docs_per_topic=20), seed=3).generate()
    return build(documents)


@pytest.fixture(scope="module")
def logged_queries():
    from repro.datasets.generator import generate_log

    log = generate_log(seed=4, n_users=20, mean_queries_per_user=10.0)
    return [q.text for q in log][:150]


def test_synthetic_corpus_rankings_match_reference(corpus_index,
                                                   logged_queries):
    ranker = Bm25Ranker(corpus_index)
    for text in logged_queries:
        terms = tokenize(text, drop_stopwords=True)
        for limit in (3, 10, 20):
            assert ranker.top(terms, limit) == reference_top(
                corpus_index, terms, limit)


def test_threads_on_a_cold_ranker_get_the_serial_scores(corpus_index,
                                                        logged_queries):
    bags = [tokenize(text, drop_stopwords=True) for text in logged_queries]
    serial = [Bm25Ranker(corpus_index).score(terms) for terms in bags]
    cold = Bm25Ranker(corpus_index)
    barrier = threading.Barrier(8)
    outcomes = [None] * 8

    def worker(slot):
        barrier.wait()
        outcomes[slot] = [cold.score(terms) for terms in bags]

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(outcome == serial for outcome in outcomes)
