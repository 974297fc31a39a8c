"""Algorithm 2: results filtering.

The merged result page for an obfuscated query mixes answers for the
original query with answers for the k fake queries.  Before returning
anything to the user, the proxy keeps only the results whose best-matching
sub-query is the original one: for each result, every sub-query is scored
by ``nbCommonWords`` against the result's title and description, and the
result is forwarded iff the original query attains the maximum score
(lines 7-8 of Algorithm 2 — ties favour keeping the result).

The proxy also strips analytics URL redirections before forwarding
(paper §4.1).

``nbCommonWords(q, e)`` is the size of the intersection of the two
strings' word sets, so each query and each result's title and snippet is
tokenized once per page, and a (result, sub-query) score is two set
intersections: ``|Q & T| + |Q & S|``.  That is the same integer the
per-pair definition gives, so every keep/drop decision is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.search.documents import SearchResult
from repro.textutils import word_set


@dataclass(frozen=True)
class ScoredResult:
    """Instrumented filtering outcome for one result (used by tests and
    the accuracy experiments to inspect decisions)."""

    result: SearchResult
    original_score: int
    best_score: int
    kept: bool


def _overlap(query_words: set, title_words: set, snippet_words: set) -> int:
    return len(query_words & title_words) + len(query_words & snippet_words)


def score_result(query: str, result: SearchResult) -> int:
    """score[q] = nbCommonWords(q, title(r)) + nbCommonWords(q, desc(r))."""
    return _overlap(
        word_set(query), word_set(result.title), word_set(result.snippet)
    )


def filter_results(original_query: str, fake_queries, results,
                   *, strip_tracking: bool = True,
                   explain: bool = False):
    """Run Algorithm 2 over a merged result page.

    Returns the filtered result list (re-ranked 1..n), or a list of
    :class:`ScoredResult` when ``explain`` is True.
    """
    if not original_query:
        raise ProtocolError("filtering needs the original query")
    original_words = word_set(original_query)
    fake_words = [word_set(fake) for fake in fake_queries]

    decisions = []
    kept_results = []
    for result in results:
        title_words = word_set(result.title)
        snippet_words = word_set(result.snippet)
        original_score = _overlap(original_words, title_words, snippet_words)
        best_score = original_score
        for words in fake_words:
            fake_score = _overlap(words, title_words, snippet_words)
            if fake_score > best_score:
                best_score = fake_score
        kept = original_score == best_score
        if explain:
            decisions.append(
                ScoredResult(result, original_score, best_score, kept)
            )
        if kept:
            kept_results.append(result)

    if explain:
        return decisions

    out = []
    for rank, result in enumerate(kept_results, start=1):
        if strip_tracking:
            result = result.strip_tracking()
        out.append(
            SearchResult(
                rank=rank,
                url=result.url,
                title=result.title,
                snippet=result.snippet,
                score=result.score,
            )
        )
    return out
