"""Synthetic web-corpus generator.

Builds the document collection the search engine indexes.  Documents are
generated from the same :class:`~repro.datasets.topics.TopicModel` as the
query workload, so queries about a topic retrieve documents about that
topic — the correlation between query terms and result titles/snippets
that Figure 4's filtering experiment measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets.topics import (
    BACKGROUND_TERMS,
    MODIFIERS,
    TopicModel,
    zipf_sampler,
)
from repro.errors import SearchError
from repro.search.documents import WebDocument

_FILLER = [
    "information", "official", "site", "page", "home", "welcome", "learn",
    "complete", "resource", "everything", "need", "know", "read", "full",
    "article", "latest", "update", "popular", "trusted", "expert",
]


@dataclass
class CorpusConfig:
    """Corpus shape: enough documents per topic that every query has
    competitive results at depth 20 (the paper's result-page size)."""

    docs_per_topic: int = 120
    title_terms: tuple = (2, 4)
    body_terms: tuple = (40, 90)
    secondary_topic_probability: float = 0.25
    background_fraction: float = 0.15


class CorpusGenerator:
    """Deterministic topical document generator."""

    def __init__(self, config: CorpusConfig = None, *, seed: int = 0,
                 topic_model: TopicModel = None):
        self.config = config if config is not None else CorpusConfig()
        self.topic_model = (
            topic_model if topic_model is not None else TopicModel.default()
        )
        self._seed = seed

    def generate(self) -> list:
        """Return the list of :class:`WebDocument` for all topics."""
        rng = random.Random(self._seed ^ 0x5EED_D0C5)
        cfg = self.config
        if cfg.docs_per_topic <= 0:
            raise SearchError("docs_per_topic must be positive")
        documents = []
        doc_id = 0
        for topic in self.topic_model.topics:
            for serial in range(cfg.docs_per_topic):
                documents.append(
                    self._make_document(doc_id, topic, serial, rng)
                )
                doc_id += 1
        return documents

    def _make_document(self, doc_id: int, topic: str, serial: int,
                       rng: random.Random) -> WebDocument:
        cfg = self.config
        primary_terms = list(self.topic_model.topic_terms(topic))
        primary_rank = zipf_sampler(len(primary_terms), 1.0)

        secondary_terms = []
        if rng.random() < cfg.secondary_topic_probability:
            other = rng.choice(self.topic_model.topics)
            if other != topic:
                secondary_terms = list(self.topic_model.topic_terms(other))

        # Title: a few high-rank topic terms plus the odd modifier.
        n_title = rng.randint(*cfg.title_terms)
        title_words = []
        for _ in range(n_title):
            term = primary_terms[primary_rank(rng)]
            if term not in title_words:
                title_words.append(term)
        if rng.random() < 0.3:
            title_words.append(rng.choice(MODIFIERS))
        title = " ".join(title_words)

        # Body: mixture of primary topic, optional secondary topic,
        # background and filler vocabulary.
        n_body = rng.randint(*cfg.body_terms)
        body_words = []
        for _ in range(n_body):
            roll = rng.random()
            if roll < cfg.background_fraction:
                pool = BACKGROUND_TERMS if rng.random() < 0.5 else _FILLER
                body_words.append(rng.choice(pool))
            elif secondary_terms and roll < cfg.background_fraction + 0.2:
                body_words.append(rng.choice(secondary_terms))
            else:
                body_words.append(primary_terms[primary_rank(rng)])
        body = " ".join(body_words)

        url = f"http://www.{topic}{serial:04d}.example.com/index.html"
        return WebDocument(doc_id=doc_id, url=url, title=title, body=body)
