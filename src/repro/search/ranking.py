"""BM25 ranking over the inverted index.

Okapi BM25 with field-weighted term frequencies; disjunctive semantics (a
document matching any query term is a candidate), which is exactly the
behaviour the paper's obfuscated ``q1 OR q2 OR ...`` queries rely on.

The corpus does not change between queries, so each posting's BM25
contribution (its *impact*) is computed once per index generation and
kept in an ``array('d')`` per term, aligned with the index's doc-id
column.  A query then only adds impacts.  The floats are bit-identical
to scoring each posting at query time: an impact is the same expression
over the same operands in the same order (``idf * (tf * (k1 + 1.0)) /
(tf + k1 * (1.0 - b + b * dl / avgdl))``), a double stores it exactly,
and :meth:`Bm25Ranker.score` adds the impacts per document in the same
``set(terms)`` order, postings in index order, starting from ``0.0``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

from repro.search.index import InvertedIndex, weighted_tf


@dataclass(frozen=True)
class Bm25Parameters:
    k1: float = 1.2
    b: float = 0.75


def _rank_key(item):
    doc_id, score = item
    return -score, doc_id


class Bm25Ranker:
    """Scores documents for a bag of query terms."""

    def __init__(self, index: InvertedIndex,
                 parameters: Bm25Parameters = Bm25Parameters()):
        self._index = index
        self._params = parameters
        # (index generation, {term: (doc ids, impacts)}); replaced whole,
        # by one assignment, so concurrent readers need no lock.  Threads
        # that find it stale at once may each rebuild it; the tables they
        # build are equal, so whichever assignment lands last is correct.
        self._impacts = (None, {})

    def _idf(self, term: str) -> float:
        n = self._index.n_documents
        df = self._index.document_frequency(term)
        if df == 0:
            return 0.0
        # BM25+ style floor at 0 to avoid negative IDF for very common terms.
        return max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))

    def _table(self) -> dict:
        generation, table = self._impacts
        if generation != self._index.generation:
            generation = self._index.generation
            table = self._build_table()
            self._impacts = (generation, table)
        return table

    def _build_table(self) -> dict:
        index = self._index
        k1, b = self._params.k1, self._params.b
        avgdl = index.average_doc_length or 1.0
        table = {}
        for term in index.terms():
            idf = self._idf(term)
            if idf == 0.0:
                # Such terms never contribute, not even a zero score.
                continue
            ids, title_tfs, body_tfs = index.columns(term)
            impacts = array("d")
            for doc_id, title_tf, body_tf in zip(ids, title_tfs, body_tfs):
                tf = weighted_tf(title_tf, body_tf)
                dl = index.doc_length(doc_id)
                denom = tf + k1 * (1.0 - b + b * dl / avgdl)
                impacts.append(idf * (tf * (k1 + 1.0)) / denom)
            table[term] = (ids, impacts)
        return table

    def score(self, terms) -> dict:
        """Return ``{doc_id: score}`` for all documents matching any term."""
        table = self._table()
        scores = {}
        get = scores.get
        for term in set(terms):
            column = table.get(term)
            if column is None:
                continue
            for doc_id, impact in zip(*column):
                scores[doc_id] = get(doc_id, 0.0) + impact
        return scores

    def top(self, terms, limit: int) -> list:
        """The ``limit`` best ``(doc_id, score)`` pairs, ties broken by id."""
        scores = self.score(terms)
        if 0 < limit < len(scores):
            # Only scores at or above the limit-th best can place; sort
            # just those (ties at the cut included) by (-score, doc_id).
            cut = heapq.nlargest(limit, scores.values())[-1]
            candidates = [item for item in scores.items() if item[1] >= cut]
        else:
            candidates = scores.items()
        return sorted(candidates, key=_rank_key)[:limit]
