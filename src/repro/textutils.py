"""Shared text processing: tokenisation, stopwords, term vectors.

The search engine, the SimAttack adversary and Algorithm 2's
``nbCommonWords`` all need the same notion of a "word".  Keeping one
tokenizer here guarantees the attacker and the defender see identical term
streams, as they do in the paper (both operate on raw AOL query strings).
"""

from __future__ import annotations

import math
import re
from collections import Counter

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# A compact English stopword list (the usual suspects from IR practice).
STOPWORDS = frozenset(
    """a about above after again all am an and any are as at be because been
    before being below between both but by could did do does doing down
    during each few for from further had has have having he her here hers
    him his how i if in into is it its just me more most my no nor not of
    off on once only or other our ours out over own same she should so some
    such than that the their theirs them then there these they this those
    through to too under until up very was we were what when where which
    while who whom why will with you your yours""".split()
)


def normalize(text: str) -> str:
    """Lowercase and strip accents-free text for matching."""
    return text.lower().strip()


def tokenize(text: str, *, drop_stopwords: bool = False) -> list:
    """Split text into lowercase alphanumeric tokens.

    Query-to-query similarity in the paper keeps stopwords (queries are
    short); document indexing drops them.
    """
    tokens = _TOKEN_RE.findall(normalize(text))
    if drop_stopwords:
        tokens = [t for t in tokens if t not in STOPWORDS]
    return tokens


def term_vector(text: str, *, drop_stopwords: bool = False) -> Counter:
    """Bag-of-words counter for cosine-similarity computations."""
    return Counter(tokenize(text, drop_stopwords=drop_stopwords))


def cosine_similarity(a: Counter, b: Counter) -> float:
    """Cosine similarity between two sparse term vectors in [0, 1]."""
    if not a or not b:
        return 0.0
    # Iterate over the smaller vector for the dot product.
    if len(a) > len(b):
        a, b = b, a
    dot = sum(count * b.get(term, 0) for term, count in a.items())
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    return dot / (norm_a * norm_b)


def word_set(text: str) -> set:
    """The distinct words of ``text``, stopwords kept: the unit that
    ``nbCommonWords`` counts."""
    return set(tokenize(text))


def nb_common_words(query: str, element: str) -> int:
    """Number of distinct words shared by a query and a text element.

    This is the ``nbCommonWords(q, e)`` scoring primitive of Algorithm 2 in
    the paper: the X-Search proxy scores each result against each sub-query
    by the word overlap of the result's title and description.
    """
    return len(word_set(query) & word_set(element))
