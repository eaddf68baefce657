import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from currank.bm25 import build_index
from currank.sessions import Interaction, Session, build_contexts
from currank.towers import Vocab


@pytest.fixture
def tiny_documents():
    return {
        "d1": ("clay", "aiken", "fansite"),
        "d2": ("chanel", "designer", "handbags"),
        "d3": ("clay", "pottery", "studio"),
        "d4": ("aiken", "county", "news"),
    }


@pytest.fixture
def tiny_index(tiny_documents):
    return build_index(tiny_documents)


@pytest.fixture
def tiny_session(tiny_documents):
    i1 = Interaction(
        query_id="s1:1",
        query_tokens=("clay", "aiken"),
        clicked_doc_ids=frozenset({"d1"}),
        candidate_doc_ids=("d1", "d3", "d4"),
    )
    i2 = Interaction(
        query_id="s1:2",
        query_tokens=("chanel",),
        clicked_doc_ids=frozenset({"d2"}),
        candidate_doc_ids=("d2", "d3", "d4"),
    )
    return Session("s1", (i1, i2))


@pytest.fixture
def tiny_contexts(tiny_session, tiny_documents):
    contexts, _ = build_contexts([tiny_session], tiny_documents)
    return contexts


@pytest.fixture
def tiny_vocab(tiny_documents, tiny_contexts):
    tokens = {"|"}
    for title in tiny_documents.values():
        tokens.update(title)
    for ctx in tiny_contexts:
        tokens.update(ctx.context_tokens)
    return Vocab(tokens)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
