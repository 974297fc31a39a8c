"""Inverted index with per-field postings, stored as columns.

A classic IR index: for every term, the ``(doc_id, title_tf, body_tf)``
postings, plus the document statistics BM25 needs.  Titles are indexed
separately so ranking can boost title matches, which is what makes
result titles correlate with queries — the signal Algorithm 2 depends on.

Each term's postings are three parallel columns rather than one object
per (term, doc): a doc-id list that holds the documents' own id ints,
and ``array('I')`` columns of title and body term frequencies.  The
columns keep insertion order, which is the order BM25 sums in, and hold
the same integers a per-posting object would, so every score computed
from them is the same float.  :meth:`InvertedIndex.postings` still hands
out :class:`Posting` values, built on demand.

``generation`` counts the documents added; rankers that precompute
per-term tables from the columns rebuild them when it changes.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

from repro.errors import SearchError
from repro.search.documents import WebDocument
from repro.textutils import tokenize


@dataclass(frozen=True)
class Posting:
    doc_id: int
    title_tf: int
    body_tf: int

    @property
    def weighted_tf(self) -> float:
        return weighted_tf(self.title_tf, self.body_tf)


def weighted_tf(title_tf: int, body_tf: int) -> float:
    # Title terms count triple: short fields carry more signal.
    return body_tf + 3.0 * title_tf


class InvertedIndex:
    """An in-memory inverted index over :class:`WebDocument` objects."""

    def __init__(self):
        # term -> (doc ids, title tfs, body tfs), aligned by position.
        self._columns = {}
        self._documents = {}
        self._doc_lengths = {}
        self._total_length = 0
        self.generation = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add(self, document: WebDocument) -> None:
        doc_id = document.doc_id
        if doc_id in self._documents:
            raise SearchError(f"duplicate doc_id {doc_id}")
        title_terms = tokenize(document.title, drop_stopwords=True)
        body_terms = tokenize(document.body, drop_stopwords=True)
        title_counts = Counter(title_terms)
        body_counts = Counter(body_terms)
        # Each term once, title terms first, as the document reads.
        for term in {**title_counts, **body_counts}:
            column = self._columns.get(term)
            if column is None:
                column = self._columns[term] = ([], array("I"), array("I"))
            ids, title_tfs, body_tfs = column
            ids.append(doc_id)
            title_tfs.append(title_counts.get(term, 0))
            body_tfs.append(body_counts.get(term, 0))
        length = len(title_terms) + len(body_terms)
        self._documents[doc_id] = document
        self._doc_lengths[doc_id] = length
        self._total_length += length
        self.generation += 1

    def add_all(self, documents) -> None:
        for document in documents:
            self.add(document)

    # ------------------------------------------------------------------
    # Query-side access
    # ------------------------------------------------------------------
    def postings(self, term: str) -> list:
        column = self._columns.get(term)
        if column is None:
            return []
        return [Posting(*fields) for fields in zip(*column)]

    def columns(self, term: str):
        """``(doc_ids, title_tfs, body_tfs)`` for ``term``, or None.

        The columns are the index's own storage: read them, never
        mutate them.
        """
        return self._columns.get(term)

    def terms(self):
        """Every indexed term, in first-indexed order."""
        return self._columns.keys()

    def document_frequency(self, term: str) -> int:
        column = self._columns.get(term)
        return len(column[0]) if column is not None else 0

    def document(self, doc_id: int) -> WebDocument:
        if doc_id not in self._documents:
            raise SearchError(f"unknown doc_id {doc_id}")
        return self._documents[doc_id]

    def doc_length(self, doc_id: int) -> int:
        return self._doc_lengths[doc_id]

    @property
    def n_documents(self) -> int:
        return len(self._documents)

    @property
    def average_doc_length(self) -> float:
        if not self._documents:
            return 0.0
        return self._total_length / len(self._documents)

    def vocabulary_size(self) -> int:
        return len(self._columns)
