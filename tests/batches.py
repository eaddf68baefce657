"""Sampled batches as items, (context, positive doc id, negative doc
ids), in place of the row indices the trainer feeds the ranker."""

from __future__ import annotations

from currank.curriculum import ledger_columns, pacing_negative, pacing_positive, sample_batch
from currank.towers import encode_corpus


def ledger_view(ledger, contexts):
    """The ledger's columns over `contexts` and doc rows that number the
    ledger's doc ids in sorted order, and that sorted id list."""
    docs = sorted({*ledger.positive_doc_ids, *ledger.neg_doc_ids})
    columns = ledger_columns(ledger, {c.context_id: c for c in contexts},
                             {d: i for i, d in enumerate(docs)})
    return columns, docs


def sample_items(ledger, contexts, pacing, t, batch_size, m, rng, f_p=None, f_n=None):
    """curriculum.sample_batch on `ledger`'s columns over `contexts`, as
    items; f_p and f_n default to the pacing functions' values at step t."""
    columns, docs = ledger_view(ledger, contexts)
    by_id = {c.context_id: c for c in contexts}
    f_p = pacing_positive(pacing, t) if f_p is None else f_p
    f_n = pacing_negative(pacing, t) if f_n is None else f_n
    return [(by_id[columns.context_ids[c]], docs[slate[0]],
             tuple(docs[d] for d in slate[1:]))
            for c, slate in zip(*sample_batch(columns, batch_size, m, rng, f_p, f_n))]


def item_rows(vocab, documents, items):
    """The context rows and the slate document rows of `items`, laid out
    as the trainer lays out a sampled batch."""
    corpus = encode_corpus(vocab, documents,
                           {c.context_id: c.context_tokens for c, _, _ in items})
    return (corpus.contexts.take([corpus.context_row[c.context_id] for c, _, _ in items]),
            corpus.docs.take([corpus.doc_row[d]
                              for _, pos, negs in items for d in (pos, *negs)]))
