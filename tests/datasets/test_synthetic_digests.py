"""Pinned digests of the synthetic corpus and query log.

Every experiment and benchmark runs on these two inputs, so any change
in how they are drawn — a reordered ``rng`` call, a different float add
in :func:`~repro.datasets.topics.zipf_rank`, a new Python's ``sum()`` —
moves results everywhere at once.  A drift must be a deliberate,
re-pinned change, never a side effect.
"""

import hashlib

from repro.datasets.generator import generate_log
from repro.search.corpus import CorpusGenerator

CORPUS_SEED0_SHA256 = "eee7dae241cf4ed25939bebe906cac6b2195cbf32140ff2de425b0820fb94af5"
LOG_SEED11_SHA256 = "7d08f5cd51443a65b736b082b7fd7917fe22be32a7a186822c16256d6be27826"


def digest(records) -> str:
    hasher = hashlib.sha256()
    for fields in records:
        hasher.update("\x1f".join(fields).encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


def corpus_digest(documents) -> str:
    return digest((str(doc.doc_id), doc.url, doc.title, doc.body)
                  for doc in documents)


def log_digest(log) -> str:
    return digest((str(query.query_id), query.user_id, query.text,
                   float.hex(query.timestamp))
                  for query in log)


def test_default_corpus_is_pinned():
    documents = CorpusGenerator(seed=0).generate()
    assert corpus_digest(documents) == CORPUS_SEED0_SHA256


def test_default_log_is_pinned():
    assert log_digest(generate_log(seed=11)) == LOG_SEED11_SHA256
