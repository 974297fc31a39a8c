"""Reference Algorithm 2: one (result, sub-query) pair at a time.

The per-pair loop :func:`repro.core.filtering.filter_results` ran before
it tokenized each string once: every score re-tokenizes the sub-query
and the result's title and snippet, exactly as the paper's pseudo-code
reads.  It is the oracle the differential tests compare the filter
against; nothing outside ``tests/`` imports it.
"""

from __future__ import annotations

from repro.core.filtering import ScoredResult
from repro.search.documents import SearchResult
from repro.textutils import tokenize


def reference_nb_common_words(query: str, element: str) -> int:
    return len(set(tokenize(query)) & set(tokenize(element)))


def reference_score_result(query: str, result: SearchResult) -> int:
    return (
        reference_nb_common_words(query, result.title)
        + reference_nb_common_words(query, result.snippet)
    )


def reference_decisions(original_query: str, fake_queries, results) -> list:
    """One :class:`ScoredResult` per result, in page order."""
    fake_queries = list(fake_queries)
    decisions = []
    for result in results:
        original_score = reference_score_result(original_query, result)
        best_score = original_score
        for fake in fake_queries:
            fake_score = reference_score_result(fake, result)
            if fake_score > best_score:
                best_score = fake_score
        decisions.append(ScoredResult(
            result, original_score, best_score, original_score == best_score
        ))
    return decisions


def reference_filter(original_query: str, fake_queries, results,
                     *, strip_tracking: bool = True) -> list:
    """The kept results, re-ranked from 1."""
    out = []
    kept = [d.result for d in
            reference_decisions(original_query, fake_queries, results)
            if d.kept]
    for rank, result in enumerate(kept, start=1):
        if strip_tracking:
            result = result.strip_tracking()
        out.append(SearchResult(rank=rank, url=result.url, title=result.title,
                                snippet=result.snippet, score=result.score))
    return out
