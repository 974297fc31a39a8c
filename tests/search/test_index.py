"""Inverted index behaviour."""

import pytest

from repro.errors import SearchError
from repro.search.documents import WebDocument
from repro.search.index import InvertedIndex, Posting


def doc(doc_id, title, body):
    return WebDocument(doc_id=doc_id, url=f"http://d{doc_id}.example.com",
                       title=title, body=body)


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add_all([
        doc(1, "hotel rome", "cheap hotel in rome near the station"),
        doc(2, "diabetes symptoms", "early diabetes symptoms and treatment"),
        doc(3, "rome weather", "rome weather forecast for travel"),
    ])
    return idx


def test_document_frequency(index):
    assert index.document_frequency("rome") == 2
    assert index.document_frequency("diabetes") == 1
    assert index.document_frequency("absent") == 0


def test_postings_have_field_tfs(index):
    postings = {p.doc_id: p for p in index.postings("rome")}
    assert postings[1].title_tf == 1
    assert postings[1].body_tf == 1
    assert postings[3].title_tf == 1


def test_postings_are_posting_values_in_insertion_order(index):
    postings = index.postings("rome")
    assert all(isinstance(p, Posting) for p in postings)
    assert [(p.doc_id, p.title_tf, p.body_tf, p.weighted_tf)
            for p in postings] == [(1, 1, 1, 4.0), (3, 1, 1, 4.0)]
    assert index.postings("absent") == []


def test_generation_counts_added_documents(index):
    assert index.generation == 3
    index.add(doc(4, "rome", "rome"))
    assert index.generation == 4
    assert [p.doc_id for p in index.postings("rome")] == [1, 3, 4]


def test_title_terms_weighted(index):
    posting = next(p for p in index.postings("hotel") if p.doc_id == 1)
    assert posting.weighted_tf > posting.body_tf


def test_stopwords_not_indexed(index):
    assert index.document_frequency("the") == 0


def test_duplicate_doc_id_rejected(index):
    with pytest.raises(SearchError):
        index.add(doc(1, "dup", "dup"))


def test_document_lookup(index):
    assert index.document(2).title == "diabetes symptoms"
    with pytest.raises(SearchError):
        index.document(99)


def test_statistics(index):
    assert index.n_documents == 3
    assert index.average_doc_length > 0
    assert index.vocabulary_size() > 5
    assert index.doc_length(1) > 0


def test_empty_index_statistics():
    idx = InvertedIndex()
    assert idx.n_documents == 0
    assert idx.average_doc_length == 0.0


def test_document_needs_url():
    with pytest.raises(SearchError):
        WebDocument(doc_id=1, url="", title="t", body="b")
