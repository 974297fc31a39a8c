"""Reference BM25 scorer: one posting at a time.

The per-posting Okapi BM25 loop :class:`repro.search.ranking.Bm25Ranker`
used before it precomputed per-term impacts: idf, field-weighted tf,
document length and the BM25 fraction are all recomputed for every
posting of every query term.  It reads the index only through its public
query-side API (``postings``, ``document_frequency``, ``doc_length`` and
the corpus statistics).  It is the oracle the differential tests compare
the ranker against; nothing outside ``tests/`` imports it.
"""

from __future__ import annotations

import math

from repro.search.ranking import Bm25Parameters


def reference_idf(index, term: str) -> float:
    n = index.n_documents
    df = index.document_frequency(term)
    if df == 0:
        return 0.0
    return max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))


def reference_score(index, terms,
                    parameters: Bm25Parameters = Bm25Parameters()) -> dict:
    """``{doc_id: score}`` for all documents matching any term."""
    k1, b = parameters.k1, parameters.b
    avgdl = index.average_doc_length or 1.0
    scores = {}
    for term in set(terms):
        idf = reference_idf(index, term)
        if idf == 0.0:
            continue
        for posting in index.postings(term):
            tf = posting.weighted_tf
            dl = index.doc_length(posting.doc_id)
            denom = tf + k1 * (1.0 - b + b * dl / avgdl)
            contribution = idf * (tf * (k1 + 1.0)) / denom
            scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + contribution
    return scores


def reference_top(index, terms, limit: int,
                  parameters: Bm25Parameters = Bm25Parameters()) -> list:
    """The ``limit`` best ``(doc_id, score)`` pairs, ties broken by id."""
    scores = reference_score(index, terms, parameters)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:limit]
